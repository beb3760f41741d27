"""`figure.render_spiral_svg` writes its table rows through
`serialize._table`; it must write the bytes of the writer that formatted
one value at a time, `render_spiral_svg_oracle`."""

import numpy as np
import pytest

from altproj import figure, sequence
from altproj.sequence import SequenceReport
from conftest import render_spiral_svg_oracle


# the step circles come 682 rows to a block and the markers 1 024; the
# curve's 2 000 samples take two blocks
@pytest.mark.parametrize("n", [2, 681, 682, 683, 1024, 1025, 5000])
def test_svg_is_the_per_value_writer(n):
    report = sequence.generate(n)
    assert figure.render_spiral_svg(report) == render_spiral_svg_oracle(report)


@pytest.mark.parametrize("where", [(0, 0), (700, 1), (1023, 0), (1499, 1)])
def test_svg_rejects_a_non_finite_coordinate_as_the_oracle_does(where):
    base = sequence.generate(1500)
    pts = base.points.copy()
    pts[where] = np.nan
    report = SequenceReport(base.alphas, base.rhos, base.epss, pts)
    with pytest.raises(ValueError) as oracle:
        render_spiral_svg_oracle(report)
    with pytest.raises(ValueError, match="cannot serialize non-finite value") as got:
        figure.render_spiral_svg(report)
    assert str(got.value) == str(oracle.value)
