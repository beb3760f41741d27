"""The block formatter of `serialize` against Python's `'%.17g'`, and the
table and document writers built on it against their value-at-a-time
references."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from altproj.sequence import SequenceReport, write_csv, write_json
from altproj.serialize import _BLOCK, _format, dump_json, render_json
from conftest import render_json_oracle, write_csv_rows, write_json_objects


def texts(values) -> list[str]:
    """The text `_format` gives each value, NULs dropped."""
    columns = _format(np.asarray(values, dtype=np.float64)).T
    return [column[column != 0].tobytes().decode() for column in columns]


def assert_17g(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    assert texts(values) == ["%.17g" % v for v in values.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=64))
def test_block_is_17g_of_any_bit_pattern(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert_17g(values[np.isfinite(values)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=64))
def test_block_is_17g_of_floats(values):
    assert_17g(values)


def _powers_of_ten() -> list[float]:
    # 10^k and its neighbours: where the decade estimate can miss, and where
    # 17 digits round up into the next one
    values = []
    for k in range(-30, 23):
        p = 10.0 ** k
        below, above = np.nextafter(p, 0.0), np.nextafter(p, math.inf)
        values += [p, below, np.nextafter(below, 0.0), above, -p, -below]
    return values


def _ties() -> list[float]:
    """Floats x with x 10^p exactly halfway between two integers in
    [1e16, 1e17), so that their 17th digit rounds a tie: x = j 2^-(p + 1)
    for odd j, with p = 1..24.  Consecutive odd j alternate the parity of
    the integer below, so ties round both down and up."""
    values = []
    for p in range(1, 25):
        j = -(-2 * 10**16 // 5**p) | 1
        values += [math.ldexp(j + 2 * i, -(p + 1)) for i in range(4)
                   if (j + 2 * i) * 5**p < 2 * 10**17]
    return values


#: Floats whose scaled value |x| 10^(16 - k) lies within 1e-15 of a half
#: but not on it, in decades -7..-14, where the low part of 10^(16 - k)
#: makes the computed fraction inexact.
NEAR_TIES = [float.fromhex(h) for h in (
    "0x1.fe7a6941cf01bp-21", "0x1.a18596be30fe5p-22", "0x1.e18596be30fe5p-23",
    "0x1.a5ca9080b933ep-25", "0x1.4e81fd810348ap-28", "0x1.516eda0094298p-28",
    "0x1.545bb680250a6p-28", "0x1.55d224bfed7adp-28", "0x1.58bf013f7e5bbp-28",
    "0x1.5babddbf0f3c9p-28", "0x1.0ffe7bf35bf1dp-30", "0x1.1174ea3324624p-31",
    "0x1.3e7a6941cf01bp-21", "0x1.06165af8c3f94p-23", "0x1.ea0f8a4341697p-26",
    "0x1.4b9521017267cp-28", "0x1.174ea33246240p-31", "0x1.74e4c095dff36p-34",
    "0x1.5056b5a28e1ecp-36",
)]

EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 1e-29, 1.0000000000000001e-29, 9.9999999999999992e-30,
    # the switch to exponent notation below 1e-4 and from 1e17
    1e-5, 9.9999999999999991e-06, 1.0000000000000001e-05, 1e-4, 9.9999999999999991e-05,
    99999999999999984.0, 1e17, 1.0000000000000002e17,
    1234567890123456.25, 1234567890123456.75, -1234567890123456.25,
    3 * 2.0**-24, 2.0**-25, 0.5, 1.5, 2.5, 1 / 3, 2 / 3, 0.1, -0.1,
]


@pytest.mark.parametrize("values", [EDGES, _powers_of_ten(), _ties(), NEAR_TIES],
                         ids=["edges", "powers-of-ten", "ties", "near-ties"])
def test_block_is_17g_of_edge_values(values):
    assert_17g(values)


def test_ties_and_near_ties_are_what_they_claim():
    for x in _ties():
        p = 16 - math.floor(math.log10(x))
        scaled = Fraction(x) * 10**p
        assert 10**16 <= scaled < 10**17 and scaled.denominator == 2, x
    for x in NEAR_TIES:
        k = math.floor(math.log10(x))
        scaled = Fraction(x) * 10**(16 - k)
        assert 10**16 <= scaled < 10**17 and -14 <= k <= -7, x
        assert 0 < abs(scaled - math.floor(scaled) - Fraction(1, 2)) < Fraction(1, 10**15), x


def test_block_rejects_a_non_finite_value():
    with pytest.raises(ValueError, match=r"^cannot serialize non-finite value nan$"):
        _format(np.array([1.0, 0.0, math.nan, math.inf]))


def _report() -> SequenceReport:
    # ties, signed zeros, subnormals, values from 1e17 up and negative ones;
    # every delta and radius ratio is finite
    alphas = np.array([-0.0, 5e-324, 1234567890123456.25, 1234567890123456.75, 1e17, 2.5e20,
                       -7.5, 0.1, 1e-300])
    rhos = np.array([2.0, -3.0, 1e17, 2.0**-25, 3 * 2.0**-24, 99999999999999984.0, -1e-5, 1e-4,
                     6.0])
    epss = np.array([-0.0, 0.0, 2.2250738585072014e-308, 1e-310, 1234567890123456.25,
                     -1234567890123456.75, 1e22, 0.5, -2.5])
    points = np.array([[5e-324, -5e-324], [1.7976931348623157e308, -1.7976931348623157e308],
                       [1e-5, 9.9999999999999991e-05], [1e16, 1e17], [-0.0, 0.0],
                       [123.0, -456.5], [NEAR_TIES[0], -NEAR_TIES[1]], [3 * 2.0**-24, 2.0**-25],
                       [1e-29, 1.0000000000000001e-29]])
    return SequenceReport(alphas, rhos, epss, points)


def test_writers_of_edge_values_equal_their_references():
    report = _report()
    assert np.isfinite(report.deltas).all() and np.isfinite(report.qs).all()
    for write, reference in ((write_csv, write_csv_rows), (write_json, write_json_objects)):
        fast, slow = io.StringIO(), io.StringIO()
        write(report, fast)
        reference(report, slow)
        assert fast.getvalue() == slow.getvalue()
    for arr in (report.alphas, report.deltas, report.rhos, report.epss, report.qs, report.points):
        assert render_json(arr) == render_json(arr.tolist())


@pytest.mark.parametrize("write", [write_csv, write_json])
def test_writers_of_edge_values_reject_non_finite(write):
    report = _report()
    for row, message in ((3, "in rows 0..7"), (8, "in row 8")):
        points = report.points.copy()
        points[row, 1] = math.nan
        bad = SequenceReport(report.alphas, report.rhos, report.epss, points)
        with pytest.raises(ValueError, match=f"^cannot serialize a non-finite value {message}$"):
            write(bad, io.StringIO())


class _Pieces(io.StringIO):
    """A text stream that also records the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def _dumped(obj) -> _Pieces:
    out = _Pieces()
    dump_json(obj, out)
    return out


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}}, [[], {}, ()], -0.0, 0, -(2**70), "x\n\"", None, True,
    np.array([-0.0]), np.array([[-0.0, 0.0]]), np.zeros(0), np.zeros((0, 2)), np.zeros((2, 0)),
    np.arange(3), np.float64(-0.0), np.int64(-5),
    {"a": {"b": [1, -0.0, None, False, "s", {}], "c": np.array([[0.5, -0.0]])},
     "d": [np.arange(3.0), (1.5, [np.zeros(0)])], "": {"e": {"f": []}}},
    # several blocks: the writer streams each, `render_json` joins them
    np.linspace(-1.0, 1.0, 3 * _BLOCK + 7),
    {"cloud": np.linspace(-1.0, 1.0, 2 * _BLOCK + 6).reshape(-1, 2), "n": 7},
    np.linspace(0.0, 1.0, 3 * (_BLOCK + 1)).reshape(-1, 3),
])
def test_dump_json_writes_what_render_json_renders(obj):
    assert _dumped(obj).getvalue() == render_json(obj) == render_json_oracle(obj)


@settings(max_examples=200, deadline=None)
@given(st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False)
    | hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
                 elements=st.floats(allow_nan=False, allow_infinity=False)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=20))
def test_dump_json_and_render_json_equal_the_oracle(obj):
    assert _dumped(obj).getvalue() == render_json(obj) == render_json_oracle(obj)


def test_dump_json_writes_a_large_array_a_block_at_a_time():
    cloud = np.linspace(-1.0, 1.0, 8 * _BLOCK).reshape(-1, 2)
    out = _dumped({"coords": cloud})
    assert len(out.sizes) > 4
    assert max(out.sizes) < len(out.getvalue()) / 3


@pytest.mark.parametrize("obj, error", [
    (np.array([1.0, math.inf]), ValueError), ({"a": [np.array([[math.nan]])]}, ValueError),
    ({"a": object()}, TypeError),
])
def test_dump_json_rejects_what_render_json_rejects(obj, error):
    with pytest.raises(error):
        render_json(obj)
    with pytest.raises(error):
        dump_json(obj, io.StringIO())
