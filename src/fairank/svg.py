"""Dependency-free SVG line charts for share-vs-top-fraction curves.

CSV stays the source of truth; this module only renders a quick-look
figure: log-scaled x axis (top fraction), linear y axis (minority share),
one polyline per algorithm, and a dashed horizontal line at the population
baseline.
"""

from __future__ import annotations

import math
from typing import Mapping

__all__ = ["curve_chart"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 20, 28, 46
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _xpix(x: float, xmin: float) -> float:
    span = math.log10(1.0) - math.log10(xmin)
    frac = (math.log10(x) - math.log10(xmin)) / span if span > 0 else 1.0
    return _ML + frac * (_W - _ML - _MR)


def _ypix(y: float) -> float:
    return _MT + (1.0 - y) * (_H - _MT - _MB)


def curve_chart(curves: Mapping[str, object]) -> str:
    """Render algorithm share curves (plus their baseline) as an SVG string."""
    if not curves:
        raise ValueError("nothing to plot")
    first = next(iter(curves.values()))
    xmin = float(min(min(c.grid) for c in curves.values()))
    if xmin <= 0:
        raise ValueError("grid fractions must be positive")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]

    # y grid and labels
    for i in range(6):
        y = i / 5.0
        py = _ypix(y)
        parts.append(
            f'<line x1="{_ML}" y1="{py:.1f}" x2="{_W - _MR}" y2="{py:.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end">{y:.1f}</text>'
        )
    # x decade ticks
    decade = math.floor(math.log10(xmin))
    while decade <= 0:
        x = 10.0**decade
        if x >= xmin:
            px = _xpix(x, xmin)
            parts.append(
                f'<line x1="{px:.1f}" y1="{_MT}" x2="{px:.1f}" y2="{_H - _MB}" '
                f'stroke="#dddddd" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{px:.1f}" y="{_H - _MB + 16}" text-anchor="middle">'
                f"{x:g}</text>"
            )
        decade += 1
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 10}" text-anchor="middle">'
        "top fraction</text>"
    )
    parts.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.1f})">minority share</text>'
    )

    # baseline (identical across curves in practice; draw the first)
    by = _ypix(float(first.baseline))
    parts.append(
        f'<line x1="{_ML}" y1="{by:.1f}" x2="{_W - _MR}" y2="{by:.1f}" '
        f'stroke="black" stroke-width="1" stroke-dasharray="6 4"/>'
    )

    for idx, (name, curve) in enumerate(curves.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{_xpix(float(x), xmin):.1f},{_ypix(min(max(float(s), 0.0), 1.0)):.1f}"
            for x, s in zip(curve.grid, curve.share)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8" '
            f'points="{points}"/>'
        )
        ly = _MT + 16 + 16 * idx
        lx = _W - _MR - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(f'<text x="{lx + 30}" y="{ly}">{name}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
