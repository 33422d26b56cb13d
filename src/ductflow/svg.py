"""Minimal native SVG polyline charts (no plotting dependency).

Deterministic output: coordinates are formatted with fixed precision and
series are drawn in the order given.
"""

from __future__ import annotations

import math

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 720, 420
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _ticks(lo: float, hi: float, n: int = 5):
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    # span / step <= n, so at most n + 1 ticks; a running sum v += step would
    # stall where step is below half the float spacing at lo
    first = math.ceil(lo / step) * step
    return [v for v in (first + i * step for i in range(n + 1)) if v <= hi + 1e-12 * span]


def polyline_chart(series: dict, path, title: str = "", xlabel: str = "", ylabel: str = ""):
    """Write a line chart of {label: (x_array, y_array)} to an SVG file."""
    xs = [x for x, _ in series.values() for x in x]
    ys = [y for _, yy in series.values() for y in yy if math.isfinite(y)]
    if not xs or not ys:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi - y_lo <= 8 * math.ulp(max(abs(y_lo), abs(y_hi))):  # flat up to rounding
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for tx in _ticks(x_lo, x_hi):
        X = sx(tx)
        parts.append(
            f'<line x1="{X:.2f}" y1="{_MT}" x2="{X:.2f}" y2="{_H - _MB}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{X:.2f}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-size="11">{tx:.4g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        Y = sy(ty)
        parts.append(
            f'<line x1="{_ML}" y1="{Y:.2f}" x2="{_W - _MR}" y2="{Y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{Y + 4:.2f}" text-anchor="end" '
            f'font-size="11">{ty:.4g}</text>'
        )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>'
    )
    for i, (label, (x, y)) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(
            f"{sx(float(a)):.2f},{sy(float(b)):.2f}"
            for a, b in zip(x, y)
            if math.isfinite(float(b))
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 16 * i}" text-anchor="end" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle" '
            f'font-size="12">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{_H // 2}" text-anchor="middle" font-size="12" '
            f'transform="rotate(-90 16 {_H // 2})">{ylabel}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
