"""Independent slow-path evaluators used as oracles by the test suite.

Everything here is computed directly from mode definitions (wavevector,
component amplitudes, parity rule) and plain quadrature sums, bypassing the
package's cached samples, assembled matrices and einsum fast paths. Keep
this file boring and explicit on purpose. lifting and scaled_lifting are
the exception: they build a run's lifting with the package's builders and
hand it, scaled to a time, with face gradients of its own, to the oracles.
So is step_state, which takes one step of the solver's own from a row.
"""

import math
from types import SimpleNamespace

import numpy as np

from ductflow.hopf import build_b
from ductflow.poisson import delta_field, solve_neumann


def outer(f):
    """[mode, n1, n2, n3] outer products f[0][i] x f[1][i] x f[2][i] of
    per-axis factor tables [mode, node]."""
    pair = f[0][:, :, None] * f[1][:, None, :]
    return pair[..., None] * f[2][:, None, None, :]


def family_fields(tables):
    """(values [mode, comp, n1, n2, n3], grad [mode, comp, dir, n1, n2, n3])
    of a mode family, synthesized densely from its axis factors: each
    component is the outer product of its axis factors, differentiated
    along one axis for the gradient. These are the per-mode grid arrays the
    package does not keep."""
    comps = range(len(tables.amp))
    values = np.stack([outer(tables.factors(c)) for c in comps], axis=1)
    grad = np.stack(
        [np.stack([outer(tables.factors(c, d)) for d in range(3)], axis=1) for c in comps], axis=1
    )
    return values, grad


def velocity_mode_fields(mode, grid):
    """(values[3, ...], grad[3, 3, ...]) of one velocity mode, from formulas."""
    spec = grid.spec
    lengths = spec.lengths
    origins = spec.origins
    X = grid.meshgrid()
    s = [(X[a] - origins[a]) / lengths[a] for a in range(3)]
    kap = [mode.k[a] * math.pi / lengths[a] for a in range(3)]
    values = np.zeros((3, *grid.shape))
    grad = np.zeros((3, 3, *grid.shape))
    for c in range(3):
        if mode.coef[c] == 0.0:
            continue
        factors = []
        for a in range(3):
            arg = mode.k[a] * math.pi * s[a]
            factors.append(np.sin(arg) if a == c else np.cos(arg))
        values[c] = mode.coef[c] * factors[0] * factors[1] * factors[2]
        for d in range(3):
            if kap[d] == 0.0:
                continue
            dfac = list(factors)
            arg = mode.k[d] * math.pi * s[d]
            if d == c:
                dfac[d] = np.cos(arg)
                sign = 1.0
            else:
                dfac[d] = np.sin(arg)
                sign = -1.0
            grad[c, d] = mode.coef[c] * sign * kap[d] * dfac[0] * dfac[1] * dfac[2]
    return values, grad


def velocity_mode_on_face(mode, grid, patch):
    """Mode values on a boundary face, from formulas. The face axis sits at
    s = 0 or 1, where sin(k pi s) = 0 and cos(k pi s) = (-1)^(k s) exactly."""
    spec = grid.spec
    lengths = spec.lengths
    origins = spec.origins
    g1, g2 = patch.meshgrid()
    coords = [None, None, None]
    coords[patch.plane_axes[0]] = g1
    coords[patch.plane_axes[1]] = g2
    coords[patch.axis] = np.full(g1.shape, patch.coord)
    s = [(coords[a] - origins[a]) / lengths[a] for a in range(3)]
    values = np.zeros((3, *g1.shape))
    for c in range(3):
        if mode.coef[c] == 0.0:
            continue
        prod = np.ones(g1.shape)
        for a in range(3):
            if a == patch.axis:
                prod = prod * (0.0 if a == c else (-1.0) ** (mode.k[a] * patch.side))
                continue
            arg = mode.k[a] * math.pi * s[a]
            prod = prod * (np.sin(arg) if a == c else np.cos(arg))
        values[c] = mode.coef[c] * prod
    return values


def temperature_mode_fields(mode, grid):
    spec = grid.spec
    lengths = spec.lengths
    origins = spec.origins
    X = grid.meshgrid()
    s = [(X[a] - origins[a]) / lengths[a] for a in range(3)]
    factors = [np.cos(mode.k[a] * math.pi * s[a]) for a in range(3)]
    values = mode.amplitude * factors[0] * factors[1] * factors[2]
    grad = np.zeros((3, *grid.shape))
    for d in range(3):
        kap = mode.k[d] * math.pi / lengths[d]
        if kap == 0.0:
            continue
        dfac = list(factors)
        dfac[d] = np.sin(mode.k[d] * math.pi * s[d])
        grad[d] = -mode.amplitude * kap * dfac[0] * dfac[1] * dfac[2]
    return values, grad


def temperature_mode_on_face(mode, grid, patch):
    """Temperature mode values on a boundary face, from formulas."""
    spec = grid.spec
    g1, g2 = patch.meshgrid()
    coords = [None, None, None]
    coords[patch.plane_axes[0]] = g1
    coords[patch.plane_axes[1]] = g2
    coords[patch.axis] = np.full(g1.shape, patch.coord)
    prod = np.ones(g1.shape)
    for a in range(3):
        s = (coords[a] - spec.origins[a]) / spec.lengths[a]
        prod = prod * np.cos(mode.k[a] * math.pi * s)
    return mode.amplitude * prod


def forms_by_quadrature(vmodes, tmodes, grid, nu, gamma, kappa_heat):
    """K_visc, G_grad_w, K_theta, K_fric, T_vel and T_th by grid quadrature
    of the formula fields above, mode by mode."""
    cv = grid.cell_volume
    vel = [velocity_mode_fields(md, grid) for md in vmodes]
    psi = np.array([v[0].reshape(3, -1) for v in vel])          # [i, c, g]
    gpsi = np.array([v[1].reshape(3, 3, -1) for v in vel])      # [i, c, d, g]
    th = [temperature_mode_fields(md, grid) for md in tmodes]
    phi = np.array([t[0].reshape(-1) for t in th])              # [i, g]
    gphi = np.array([t[1].reshape(3, -1) for t in th])          # [i, d, g]
    dpsi = np.array([sym(v[1]).reshape(3, 3, -1) for v in vel])
    out = {
        "K_visc": nu * cv * np.einsum("iabg,jabg->ij", dpsi, dpsi),
        "G_grad_w": cv * np.einsum("icdg,jcdg->ij", gpsi, gpsi),
        "K_theta": kappa_heat * cv * np.einsum("idg,jdg->ij", gphi, gphi),
    }
    fric = np.zeros((len(vmodes), len(vmodes)))
    for patch in grid.patches:
        if patch.axis == 2:
            continue
        faces = [velocity_mode_on_face(md, grid, patch) for md in vmodes]
        for tau in tangents(outward_normal(grid, patch)):
            wt = np.array([np.einsum("c,cxy->xy", tau, f).reshape(-1) for f in faces])
            fric += gamma * patch.weight * wt @ wt.T
    out["K_fric"] = fric
    # (psi_i . grad psi_j)_c and psi_i . grad phi_j, one i at a time
    out["T_vel"] = np.array([
        cv * np.einsum("jcg,lcg->jl", np.einsum("ag,jcag->jcg", p, gpsi), psi) for p in psi
    ])
    out["T_th"] = np.array([cv * np.einsum("ag,jag->jg", p, gphi) @ phi.T for p in psi])
    return out


def kernel_tensors(forms):
    """(T_vel, T_th) read off forms.transport entry by entry with unit
    vectors: T_vel[i, j] = transport(e_i, e_j, .)[0] and T_th[i, j] =
    transport(e_i, ., e_j)[1]."""
    ev, et = np.eye(forms.vb.m), np.eye(forms.tb.m)
    t_vel = np.array([[forms.transport(a, b, et[0])[0] for b in ev] for a in ev])
    t_th = np.array([[forms.transport(a, ev[0], d)[1] for d in et] for a in ev])
    return t_vel, t_th


def dense_transport(a, b, T):
    """sum_ij a_i b_j T[i, j, l], the three-operand contraction of a transport
    tensor (T_vel with a = b = c, T_th with a = c and b = dcoef)."""
    return np.einsum("i,j,ijl->l", a, b, T)


def _component_weight(lengths, k, c) -> float:
    """int over the box of the squared factors of component c of a mode of
    wavevector k: L_a / 2 on an axis with k_a >= 1, else L_a for a cosine
    and 0 for the sine of axis c."""
    w = 1.0
    for a in range(3):
        if k[a] >= 1:
            w *= lengths[a] / 2.0
        else:
            w *= 0.0 if a == c else lengths[a]
    return w


def stokes_energy(lengths, mode):
    """int |D(psi)|^2 of a velocity mode, integrated in closed form from its
    component amplitudes: sum over (c, d) of coef_c^2 kappa_d^2 times the
    factor integrals, plus the cross terms coef_i coef_j kappa_i kappa_j,
    both doubled. For a divergence-free mode it is 2 |kappa|^2."""
    k, coef = mode.k, mode.coef
    kappa = np.array([k[a] * math.pi / lengths[a] for a in range(3)])
    grad_sq = 0.0
    for c in range(3):
        for d in range(3):
            if coef[c] == 0.0 or kappa[d] == 0.0:
                continue
            w = 1.0
            for a in range(3):
                w *= lengths[a] if (k[a] == 0 and a != c and a != d) else lengths[a] / 2.0
            grad_sq += coef[c] ** 2 * kappa[d] ** 2 * w
    cross = 0.0
    for i in range(3):
        for j in range(3):
            if coef[i] == 0.0 or coef[j] == 0.0 or kappa[i] == 0.0 or kappa[j] == 0.0:
                continue
            w = 1.0
            for a in range(3):
                w *= lengths[a] if (k[a] == 0 and a not in (i, j)) else lengths[a] / 2.0
            cross += coef[i] * coef[j] * kappa[i] * kappa[j] * w
    return 2.0 * grad_sq + 2.0 * cross


def laplace_eigenvalue(lengths, k):
    """|kappa|^2 as a plain Python sum of (k_a pi / L_a)^2."""
    return sum((k[a] * math.pi / lengths[a]) ** 2 for a in range(3))


def _kappa_sq(lengths, k):
    """|kappa|^2 rounded as the package's wavevector table computes it:
    ((k_a * (pi / L_a))^2 summed left to right)."""
    x = [float(k[a]) * (math.pi / float(lengths[a])) for a in range(3)]
    return x[0] * x[0] + x[1] * x[1] + x[2] * x[2]


def exhaustive_velocity_modes(lengths, kcap):
    """Every velocity mode below the band kcap, in the package's order.

    Builds each candidate of every wavevector with numpy 3-vectors (np.cross,
    numpy weighted sums) and this module's own component weights, gives it
    the Rayleigh quotient 2 |kappa|^2, then sorts all of them by (Rayleigh
    quotient to 9 decimals, k, branch); the package must pick the same first
    m, to the bit, without building them all.
    """
    from ductflow.basis import VelocityMode

    out = []
    for k1 in range(kcap[0] + 1):
        for k2 in range(kcap[1] + 1):
            for k3 in range(kcap[2] + 1):
                k = (k1, k2, k3)
                active = [c for c in range(3) if k[c] >= 1]
                if len(active) < 2:
                    continue
                kappa = np.array([k[a] * math.pi / lengths[a] for a in range(3)])
                weights = np.array([_component_weight(lengths, k, c) for c in range(3)])
                if len(active) == 2:
                    p, q = active
                    raw = np.zeros(3)
                    raw[p], raw[q] = kappa[q], -kappa[p]
                    basis_vecs = [raw]
                else:
                    n1 = np.array([kappa[1], -kappa[0], 0.0])
                    n2 = np.cross(kappa, n1)
                    proj = (n2 * n1 * weights).sum() / (n1 * n1 * weights).sum()
                    n2 = n2 - proj * n1
                    basis_vecs = [n1, n2]
                rayleigh = 2.0 * _kappa_sq(lengths, k)
                for branch, vec in enumerate(basis_vecs):
                    nrm = math.sqrt(float((vec * vec * weights).sum()))
                    coef = tuple(float(v) for v in vec / nrm)
                    out.append(VelocityMode(k=k, coef=coef, branch=branch, rayleigh=rayleigh))
    out.sort(key=lambda md: (round(md.rayleigh, 9), md.k, md.branch))
    return out


def exhaustive_temperature_modes(lengths, kcap):
    """Every all-cosine mode below the band kcap, sorted by (eigenvalue to 9
    decimals, k)."""
    from ductflow.basis import TemperatureMode

    out = []
    for k1 in range(kcap[0] + 1):
        for k2 in range(kcap[1] + 1):
            for k3 in range(kcap[2] + 1):
                k = (k1, k2, k3)
                w = 1.0
                for a in range(3):
                    w *= lengths[a] / 2.0 if k[a] >= 1 else lengths[a]
                out.append(TemperatureMode(k=k, amplitude=1.0 / math.sqrt(w),
                                           eigenvalue=_kappa_sq(lengths, k)))
    out.sort(key=lambda md: (round(md.eigenvalue, 9), md.k))
    return out


def integrate(grid, arr):
    return grid.cell_volume * float(np.sum(arr))


def sym(grad):
    """D[i, j] = d_i u_j + d_j u_i from grad[c, d] = d_d u_c."""
    nd = grad.ndim
    gt = np.swapaxes(grad, 0, 1)
    return gt + np.swapaxes(gt, 0, 1)


def slow_field_sum(coeffs, fields):
    out = np.zeros_like(fields[0])
    for a, f in zip(coeffs, fields):
        out = out + a * f
    return out


def outward_normal(grid, patch):
    """The unit outward normal of a face, from the box's geometry: along the
    face's frozen axis, pointing away from the box's centre."""
    spec = grid.spec
    centre = spec.origins[patch.axis] + 0.5 * spec.lengths[patch.axis]
    n = np.zeros(3)
    n[patch.axis] = 1.0 if patch.coord > centre else -1.0
    return n


def tangents(normal):
    """An orthonormal pair spanning the plane normal to a unit vector, the
    null space of its row from an SVD; a sum over the pair of
    (a . tau)(b . tau) does not depend on which pair it is."""
    return np.linalg.svd(normal[None, :])[2][1:]


def lifting_eta(sig, params):
    """The Hopf cutoff written out: 1 up to r, -eps log(sigma / rho) up to
    rho, 0 beyond; and its derivative."""
    eps, rho, r = params.eps, params.rho, params.r
    log_branch = -eps * np.log(np.maximum(sig, r) / rho)
    eta = np.where(sig <= r, 1.0, np.where(sig <= rho, log_branch, 0.0))
    eta_prime = np.where((sig > r) & (sig <= rho), -eps / np.maximum(sig, r), 0.0)
    return eta, eta_prime


def lifting_face_gradient(coeffs, profile, params, grid, patch):
    """grad[c, d] = d_d delta_c of delta = grad(phi) + alpha e3 on a face,
    without the package's synthesis or its cutoff: the Hessian of phi as
    plain cosine and sine sums of its Neumann coefficients at the face
    nodes, plus grad alpha = (g1 eta, g2 eta, g eta') in row 2, with eta the
    sum of the two cap cutoffs (lifting_eta)."""
    spec = grid.spec
    # per axis: the node coordinates on the face, the face coordinate on its own axis
    pts = [grid.x1, grid.x2, grid.x3]
    pts[patch.axis] = np.array([patch.coord])
    # cos(k pi s) per axis and its first and second derivatives in x_a
    arg = [np.outer((p - o) / length, np.arange(n) * np.pi)
           for p, o, length, n in zip(pts, spec.origins, spec.lengths, grid.shape)]
    kap = [np.arange(grid.shape[a]) * np.pi / spec.lengths[a] for a in range(3)]
    tables = [(np.cos(t), -k * np.sin(t), -k**2 * np.cos(t)) for t, k in zip(arg, kap)]
    grad = np.empty((3, 3, *patch.meshgrid()[0].shape))
    for i in range(3):
        for j in range(3):
            factors = [tables[a][(a == i) + (a == j)] for a in range(3)]
            field = np.einsum("abc,xa,yb,zc->xyz", coeffs, *factors)
            grad[i, j] = np.squeeze(field, axis=patch.axis)
    x = [None] * 3
    x[patch.plane_axes[0]], x[patch.plane_axes[1]] = patch.meshgrid()
    x[patch.axis] = np.full(x[patch.plane_axes[0]].shape, patch.coord)
    g, g1, g2 = (fn(x[0], x[1]) for fn in (profile.g, profile.g1, profile.g2))
    (eta_lo, etap_lo), (eta_hi, etap_hi) = (lifting_eta(sig, params) for sig in (x[2] + spec.a, spec.a - x[2]))
    grad[2] += np.stack([g1 * (eta_lo + eta_hi), g2 * (eta_lo + eta_hi), g * (etap_lo - etap_hi)])
    return grad


def boundary_functionals_by_quadrature(vmodes, grid, faces, nu, gamma):
    """(B, F_bdry) of the lifting's face data by patch quadrature against
    the formula face traces, mode by mode, in the oracle's own frame
    (outward_normal, tangents). ``faces`` holds one record per patch, in
    grid.patches order, with the face values [c, f1, f2] and the full face
    gradient grad[c, d, f1, f2]. B is the slip data, -nu n.D(delta).tau -
    gamma delta.tau on the walls and -n.D(delta).tau on the caps; F_bdry is
    +nu n.D(delta).tau on every face."""
    m = len(vmodes)
    B = np.zeros(m)
    Fb = np.zeros(m)
    for patch, fd in zip(grid.patches, faces):
        dsym = sym(fd.grad)
        normal = outward_normal(grid, patch)
        for tau in tangents(normal):
            stress = np.einsum("i,ijxy,j->xy", normal, dsym, tau)
            if patch.axis == 2:
                bdata = -stress
            else:
                bdata = -nu * stress - gamma * np.einsum("c,cxy->xy", tau, fd.values)
            for j, md in enumerate(vmodes):
                pj = velocity_mode_on_face(md, grid, patch)
                pj_tau = np.einsum("c,cxy->xy", tau, pj)
                B[j] += patch.weight * np.sum(bdata * pj_tau)
                Fb[j] += nu * patch.weight * np.sum(stress * pj_tau)
    return B, Fb


def step_state(solver, x, t, E_prev=None):
    """(next row, E): one GalerkinSolver.step of the row x = (c, dcoef) at
    time t as the run loop takes it, AB2 with E_prev or forward Euler
    without; E is the explicit part at x, the next step's E_prev."""
    out = np.empty_like(x)
    return out, solver.step(x, solver.drive(t), out, E_prev)


def lifting(solver):
    """(sol, delta_1): the Neumann solution and the lifting delta_1 of the
    cap shape g of a flux run, built anew from the solver's cap_shape,
    hopf_params and grid by hopf.build_b, poisson.solve_neumann and
    poisson.delta_field, as the solver builds them."""
    ext = build_b(solver.cap_shape, solver.hopf_params, solver.grid)
    sol = solve_neumann(ext.div_b, solver.grid)
    return sol, delta_field(ext, sol, solver.grid)


def scaled_lifting(solver, t):
    """(delta, delta_t) of a solver's run at time t: its lifting delta_1
    scaled by s(t), its values, its gradient and the six faces' values,
    each face with the full gradient from lifting_face_gradient, and the
    grid values of delta_t = s'(t) delta_1; (None, None) without flux."""
    if solver.hopf_params is None:
        return None, None
    sol, delta_1 = lifting(solver)
    s = solver.profile.s(t)
    faces = [
        SimpleNamespace(
            values=s * face,
            grad=s * lifting_face_gradient(sol.coeffs, solver.profile, solver.hopf_params, solver.grid, patch),
        )
        for patch, face in zip(solver.grid.patches, delta_1.faces)
    ]
    delta = SimpleNamespace(values=s * delta_1.values, grad=s * delta_1.grad, faces=faces)
    return delta, solver.profile.s_t(t) * delta_1.values


def slow_rhs_velocity(c, dcoef, vmodes, tmodes, grid, nu, gamma,
                      omega_fn, f_values, delta=None, delta_t=None):
    """Every term of the velocity weak form by direct quadrature.

    Returns a dict of named length-m arrays; 'bdry' is B + F_bdry of
    boundary_functionals_by_quadrature and 'total' the assembled right-hand
    side for c'. `delta` is a DeltaEval-like object or None, and
    `delta_t` the grid values of its time derivative (given with `delta`).
    """
    m = len(vmodes)
    vals = [velocity_mode_fields(md, grid) for md in vmodes]
    psis = [v[0] for v in vals]
    gpsis = [v[1] for v in vals]
    w = slow_field_sum(c, psis)
    gw = slow_field_sum(c, gpsis)
    theta = slow_field_sum(dcoef, [temperature_mode_fields(md, grid)[0] for md in tmodes])

    def dot_psi(field3):
        return np.array([integrate(grid, np.sum(field3 * psis[j], axis=0)) for j in range(m)])

    adv = np.einsum("ag,cag->cg", w.reshape(3, -1), gw.reshape(3, 3, -1)).reshape(3, *grid.shape)
    terms = {"conv_www": dot_psi(adv)}

    if delta is not None:
        dvals = delta.values
        dgrad = delta.grad
        wd = np.einsum("ag,cag->cg", w.reshape(3, -1), dgrad.reshape(3, 3, -1)).reshape(3, *grid.shape)
        dw = np.einsum("ag,cag->cg", dvals.reshape(3, -1), gw.reshape(3, 3, -1)).reshape(3, *grid.shape)
        terms["conv_wdelta"] = dot_psi(wd)
        terms["conv_deltaw"] = dot_psi(dw)
    else:
        terms["conv_wdelta"] = np.zeros(m)
        terms["conv_deltaw"] = np.zeros(m)

    dw_sym = sym(gw)
    terms["visc"] = np.array(
        [nu * integrate(grid, np.sum(dw_sym * sym(gpsis[j]), axis=(0, 1))) for j in range(m)]
    )

    fric = np.zeros(m)
    for patch in grid.patches:
        if patch.axis == 2:
            continue
        wf = slow_field_sum(c, [velocity_mode_on_face(md, grid, patch) for md in vmodes])
        for tau in tangents(outward_normal(grid, patch)):
            w_tau = np.einsum("c,cxy->xy", tau, wf)
            for j, md in enumerate(vmodes):
                pj = velocity_mode_on_face(md, grid, patch)
                fric[j] += gamma * patch.weight * np.sum(w_tau * np.einsum("c,cxy->xy", tau, pj))
    terms["fric"] = fric

    B = np.zeros(m)
    Fb = np.zeros(m)
    Fvol = np.zeros(m)
    Fform = np.zeros(m)
    if delta is not None:
        B, Fb = boundary_functionals_by_quadrature(vmodes, grid, delta.faces, nu, gamma)
        dadv = np.einsum(
            "ag,cag->cg", delta.values.reshape(3, -1), delta.grad.reshape(3, 3, -1)
        ).reshape(3, *grid.shape)
        Fvol = dot_psi(-delta_t - dadv)
        dsym_vol = sym(delta.grad)
        Fform = np.array(
            [
                -(nu / 2.0) * integrate(grid, np.sum(dsym_vol * sym(gpsis[j]), axis=(0, 1)))
                for j in range(m)
            ]
        )
    terms["bdry"] = B + Fb
    terms["F_vol"] = Fvol
    terms["F_form"] = Fform

    terms["f_omega"] = dot_psi(omega_fn(theta) * f_values)
    terms["total"] = (
        -terms["conv_www"] - terms["conv_wdelta"] - terms["conv_deltaw"]
        - terms["visc"] - terms["fric"]
        + terms["bdry"] + terms["f_omega"]
        + terms["F_vol"] + terms["F_form"]
    )
    return terms


def slow_rhs_temperature(c, dcoef, vmodes, tmodes, grid, kappa_heat, delta=None):
    mt = len(tmodes)
    tvals = [temperature_mode_fields(md, grid) for md in tmodes]
    phis = [t[0] for t in tvals]
    gphis = [t[1] for t in tvals]
    theta_grad = slow_field_sum(dcoef, gphis)
    w = slow_field_sum(c, [velocity_mode_fields(md, grid)[0] for md in vmodes])
    carrier = w if delta is None else w + delta.values
    adv = np.einsum("ag,ag->g", carrier.reshape(3, -1), theta_grad.reshape(3, -1)).reshape(grid.shape)

    terms = {}
    terms["diff"] = np.array(
        [
            kappa_heat * integrate(grid, np.sum(theta_grad * gphis[j], axis=0))
            for j in range(mt)
        ]
    )
    terms["adv"] = np.array([integrate(grid, adv * phis[j]) for j in range(mt)])
    terms["total"] = -terms["diff"] - terms["adv"]
    return terms
