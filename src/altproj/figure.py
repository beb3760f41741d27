"""Standalone SVG rendering of the spiral, its iterates, and the step circles.

Coordinates are emitted in world units (the viewBox does the scaling and a
group transform flips the y axis), so marker positions in the file equal the
generated points at full serialization precision.  The polyline's points
and the circles are written through `serialize._table`, a block of rows at
a time.  Output is deterministic for fixed inputs.
"""

from __future__ import annotations

import numpy as np

from . import spiral
from .sequence import SequenceReport
from .serialize import _table

#: Number of polyline samples along the spiral.
CURVE_SAMPLES = 2000
#: Width and height of the SVG, in pixels.
SVG_SIZE = 640

# The text around each row's fields (`serialize._table`): x, y; x, y, eps; x, y
_CURVE_ROW = ("", ",", " ")
_STEP_ROW = ('<circle class="step-radius" cx="', '" cy="', '" r="',
             '" fill="none" stroke="#2a7fff" stroke-width="0.006"/>\n')
_ITERATE_ROW = ('<circle class="iterate" cx="', '" cy="', '" r="0.025" fill="#d62728"/>\n')


def render_spiral_svg(report: SequenceReport) -> str:
    """SVG with the spiral up to the last recorded angle, the unit circle,
    one marker per iterate, and one construction circle of radius eps per
    iterate (the circle the next iterate lies on)."""
    xy = report.points[:, :2].T
    _, _, curve_pts = spiral.columns(np.linspace(0.0, float(report.alphas[-1]), CURVE_SAMPLES))
    return "".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        'viewBox="-2.7 -2.7 5.4 5.4">\n'
        '<g transform="scale(1,-1)">\n'
        '<circle class="unit-circle" cx="0" cy="0" r="1" fill="none" '
        'stroke="#999999" stroke-width="0.01"/>\n'
        '<polyline class="spiral" fill="none" stroke="#222222" stroke-width="0.012" points="',
        *_table(curve_pts.T, _CURVE_ROW, '"/>\n'),
        *_table(np.vstack((xy, report.epss)), _STEP_ROW, _STEP_ROW[-1]),
        *_table(xy, _ITERATE_ROW, _ITERATE_ROW[-1]),
        "</g>\n</svg>\n",
    ])
