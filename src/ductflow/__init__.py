"""Spectral Galerkin simulator and energy audit for heat-conducting duct flow.

The package simulates viscous incompressible flow coupled to a temperature
field in a finite box cylinder with prescribed inflow/outflow through the end
caps, using a divergence-free trigonometric Galerkin basis. Alongside the
dynamics it runs an "energy audit": every a-priori inequality the scheme is
supposed to respect (energy budget, window recurrence, temperature bounds,
weighted elliptic estimate, flux compatibility) is re-checked numerically on
the computed trajectory and reported as a pass/fail certificate with margins.
"""

__version__ = "0.1.0"

from .domain import DomainSpec, build_domain, dist_to_caps
from .hopf import HopfParams, hopf_eta, hopf_eta_prime, select_params

__all__ = [
    "DomainSpec",
    "build_domain",
    "dist_to_caps",
    "HopfParams",
    "hopf_eta",
    "hopf_eta_prime",
    "select_params",
    "__version__",
]
