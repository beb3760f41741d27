"""Standalone SVG rendering of the spiral, its iterates, and the step circles.

Coordinates are emitted in world units (the viewBox does the scaling and a
group transform flips the y axis), so marker positions in the file equal the
generated points at full serialization precision.  Output is deterministic
for fixed inputs.
"""

from __future__ import annotations

import numpy as np

from . import spiral
from .sequence import SequenceReport
from .serialize import fmt17

#: Number of polyline samples along the spiral.
CURVE_SAMPLES = 2000
#: Width and height of the SVG, in pixels.
SVG_SIZE = 640


def render_spiral_svg(report: SequenceReport) -> str:
    """SVG with the spiral up to the last recorded angle, the unit circle,
    one marker per iterate, and one construction circle of radius eps per
    iterate (the circle the next iterate lies on)."""
    pts = report.points
    alphas = report.alphas
    epss = report.epss
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="-2.7 -2.7 5.4 5.4">',
        '<g transform="scale(1,-1)">',
        '<circle class="unit-circle" cx="0" cy="0" r="1" fill="none" '
        'stroke="#999999" stroke-width="0.01"/>',
    ]
    _, _, curve_pts = spiral.columns(np.linspace(0.0, float(alphas[-1]), CURVE_SAMPLES))
    coords = " ".join(f"{fmt17(x)},{fmt17(y)}" for x, y in curve_pts.tolist())
    parts.append(
        f'<polyline class="spiral" fill="none" stroke="#222222" '
        f'stroke-width="0.012" points="{coords}"/>'
    )
    for i in range(len(report)):
        parts.append(
            f'<circle class="step-radius" cx="{fmt17(pts[i, 0])}" cy="{fmt17(pts[i, 1])}" '
            f'r="{fmt17(epss[i])}" fill="none" stroke="#2a7fff" stroke-width="0.006"/>'
        )
    for i in range(len(report)):
        parts.append(
            f'<circle class="iterate" cx="{fmt17(pts[i, 0])}" cy="{fmt17(pts[i, 1])}" '
            f'r="0.025" fill="#d62728"/>'
        )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
