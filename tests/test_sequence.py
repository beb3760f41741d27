import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import altproj
from altproj import map_driver, sequence, serialize, spiral
from altproj.euclid import LEAF_SIZE
from altproj.sequence import (
    NearestPropertyViolated,
    SequenceReport,
    check_halfangle_identity,
    check_step_identity,
    generate,
    run_verification,
    verify_nearest,
    write_csv,
    write_json,
)
from conftest import nearest_scan, write_csv_rows, write_json_objects

TWO_PI = 2.0 * math.pi


def _json_objects(report):
    buf = io.StringIO()
    write_json(report, buf)
    return json.loads(buf.getvalue())


def test_generate_single_record():
    report = generate(1)
    assert len(report) == 1
    assert [obj["n"] for obj in _json_objects(report)] == [0]
    assert report.alphas[0] == 0.0
    assert report.rhos[0] == 2.0
    assert report.epss[0] == pytest.approx(0.4990663, abs=1e-7)
    np.testing.assert_array_equal(report.points[0], [2.0, 0.0])
    assert report.deltas.size == 0  # no successor: no delta and no radius ratio
    assert report.qs.size == 0
    assert math.fsum(report.deltas.tolist()) == 0.0
    assert check_step_identity(report) == 0.0


def test_generate_validates_n_max():
    with pytest.raises(ValueError):
        generate(0)
    for n_max in (2.5, True, "3"):
        with pytest.raises(ValueError, match="n_max"):
            generate(n_max)
    assert len(generate(3.0)) == len(generate(np.int64(3))) == 3


def test_first_sixteen_records(report_300):
    assert [obj["n"] for obj in _json_objects(report_300)[:16]] == list(range(16))
    for delta in report_300.deltas[:15].tolist():
        assert 0.0 < delta <= spiral.STEP_UPPER_BOUND
    epss = report_300.epss[:16].tolist()
    assert all(a > b for a, b in zip(epss, epss[1:]))


def test_record_invariants(report_10k):
    alphas = report_10k.alphas
    assert np.abs(report_10k.rhos - (1.0 + np.exp(-alphas))).max() <= 1e-14
    closed = ((1.0 - math.exp(-TWO_PI)) / 2.0) * np.exp(-alphas)
    assert np.abs(report_10k.epss - closed).max() <= 1e-14
    assert np.all(report_10k.deltas > 0.0)
    qs = report_10k.qs
    assert np.all((qs > 0.0) & (qs < 1.0))


def test_chord_equals_eps(report_10k):
    assert check_step_identity(report_10k) <= 1e-10


@pytest.mark.parametrize("n, bad", [(2, 0), (3, 1), (spiral.CHUNK + 1, spiral.CHUNK - 1),
                                    (2 * spiral.CHUNK + 2, spiral.CHUNK - 1),
                                    (2 * spiral.CHUNK + 2, spiral.CHUNK),
                                    (2 * spiral.CHUNK + 2, 2 * spiral.CHUNK)])
def test_step_identity_sees_every_step(report_10k, n, bad):
    # a wrong step size must show wherever it lies, also next to the ends and
    # to the `spiral.CHUNK` edges, and the value is the max over every step
    epss = report_10k.epss[:n].copy()
    epss[bad] += 1e-6
    pts = report_10k.points[:n].copy()
    report = SequenceReport(report_10k.alphas[:n].copy(), report_10k.rhos[:n].copy(),
                            epss, pts)
    chords = np.hypot(pts[1:, 0] - pts[:-1, 0], pts[1:, 1] - pts[:-1, 1])
    residual = check_step_identity(report)
    assert residual == np.abs(chords - epss[:-1]).max()
    assert residual > 1e-7


def test_sphere_gap_identity(report_10k):
    pts = report_10k.points
    gaps = np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 1.0)
    assert np.abs(gaps - np.exp(-report_10k.alphas)).max() <= 1e-12


def test_halfangle_identity(report_10k):
    res = check_halfangle_identity(report_10k)
    assert res.raw <= 1e-10
    assert res.scaled <= 1e-12


def test_halfangle_identity_single_record():
    res = check_halfangle_identity(generate(1))
    assert res == (0.0, 0.0)


def test_telescoping(report_10k):
    alphas = report_10k.alphas
    assert abs(math.fsum(report_10k.deltas.tolist()) - (alphas[-1] - alphas[0])) <= 1e-10


def test_eps_exceeds_half_delta_everywhere(report_10k):
    # sin(t/2) >= t/4 holds whenever t^2 <= 12; every step is below 40 degrees,
    # so the bound applies from the very first step.
    assert np.all(report_10k.epss[:-1] > report_10k.deltas / 2.0)


def test_eps_below_threshold_once_alpha_large(report_10k):
    threshold = math.log(((1.0 - math.exp(-TWO_PI)) / 2.0) / 1e-3)
    mask = report_10k.alphas > threshold
    assert mask.any()
    assert np.all(report_10k.epss[mask] < 1e-3)


def test_monotone_approach_to_circle(report_300):
    deltas = report_300.deltas
    assert np.all(deltas > 0.0)
    assert deltas[-1] == deltas.min()
    epss = report_300.epss
    assert np.all(np.diff(epss) < 0.0)
    assert epss[-1] < epss[0]
    pts = report_300.points
    gaps = np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 1.0)
    assert np.abs(gaps - np.exp(-report_300.alphas)).max() <= 1e-12
    assert np.all(np.diff(gaps) < 0.0)
    assert report_300.rhos[-1] == pytest.approx(1.0 + gaps[-1], abs=1e-12)


def test_partial_eps_sum_grows_without_bound(report_10k):
    # the cumulative step length keeps growing across horizons even though the
    # individual steps shrink below any fixed level
    epss = report_10k.epss
    partial_2k = math.fsum(epss[:1999].tolist())
    partial_10k = math.fsum(epss[:-1].tolist())
    assert partial_10k > partial_2k + 0.5
    assert epss[-1] < epss[1999] < epss[0]


def test_cluster_coverage_gap_shrinks_with_horizon(report_10k):
    alphas = report_10k.alphas
    gap_small = map_driver.max_circular_gap(alphas[:2000])
    gap_large = map_driver.max_circular_gap(alphas[:10000])
    assert gap_large < gap_small


def test_verify_nearest(report_300):
    margin = verify_nearest(report_300, 299)
    assert margin > 0.0


def test_verify_nearest_trivial_horizon(report_300):
    assert verify_nearest(report_300, 2) > 0.0


def test_verify_nearest_rejects_bad_horizon(report_300):
    with pytest.raises(ValueError):
        verify_nearest(report_300, 300)


def test_verify_nearest_detects_corruption(report_300):
    pts = report_300.points.copy()
    pts[[5, 50]] = pts[[50, 5]]
    corrupt = SequenceReport(report_300.alphas.copy(), report_300.rhos.copy(),
                             report_300.epss.copy(), pts)
    with pytest.raises(NearestPropertyViolated) as info:
        verify_nearest(corrupt, 299)
    assert info.value.n == 4
    assert info.value.found == 50


def _with_zero_axis(report, pts):
    return SequenceReport(report.alphas.copy(), report.rhos.copy(), report.epss.copy(),
                          np.column_stack([pts, np.zeros(len(pts))]))


def test_verify_nearest_works_in_any_dimension(report_300):
    # a zero third coordinate adds +0.0 to every squared distance, so the
    # verdict and the margin are the planar report's, bit for bit
    lifted = _with_zero_axis(report_300, report_300.points)
    assert verify_nearest(lifted, 299) == verify_nearest(report_300, 299)
    pts = report_300.points.copy()
    pts[[5, 50]] = pts[[50, 5]]
    corrupt = SequenceReport(report_300.alphas.copy(), report_300.rhos.copy(),
                             report_300.epss.copy(), pts)
    want = _nearest_outcome(verify_nearest, corrupt, 299)
    assert want == (4, 50)
    assert _nearest_outcome(verify_nearest, _with_zero_axis(report_300, pts), 299) == want


def test_verify_nearest_owns_the_sphere_rule(report_300):
    epss = report_300.epss.copy()
    epss[100] = 1.0  # the unit sphere is nearer than this step size
    bad = SequenceReport(report_300.alphas.copy(), report_300.rhos.copy(), epss,
                         report_300.points.copy())
    with pytest.raises(ValueError, match=r"^unit sphere is not strictly farther than "
                                         r"the successor at iterate 100$"):
        verify_nearest(bad, 299)
    assert verify_nearest(bad, 50) == verify_nearest(report_300, 50)


def test_verification_reads_every_coordinate(report_300):
    # a zero third coordinate reads as the plane; an error in it must show
    lifted = _with_zero_axis(report_300, report_300.points)
    planar = run_verification(report_300)
    deep = run_verification(lifted)
    assert [r.name for r in deep] == [r.name for r in planar]
    for flat, got in zip(planar, deep):
        if flat.name == "initialization":
            assert got == flat._replace(detail=flat.detail.replace("x0=(2, 0)", "x0=(2, 0, 0)"))
        else:
            assert got == flat
    pts = lifted.points.copy()
    pts[7, 2] += 0.5
    off_plane = SequenceReport(lifted.alphas, lifted.rhos, lifted.epss, pts)
    failed = {r.name for r in run_verification(off_plane) if not r.passed}
    assert {"step-identity", "sphere-gap"} <= failed


@pytest.mark.parametrize("n, bad", [(0, math.nan), (7, math.nan), (299, math.nan), (5, math.inf)])
def test_a_non_finite_iterate_fails_the_checks(report_300, n, bad):
    # every check still reports: x0 is printed as `%.17g` prints it, and
    # `verify_nearest` names the iterate before a NaN bound can prune a leaf
    pts = report_300.points.copy()
    pts[n, 1] = bad
    broken = SequenceReport(report_300.alphas.copy(), report_300.rhos.copy(),
                            report_300.epss.copy(), pts)
    message = f"iterate {n} has a non-finite coordinate"
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_nearest(broken, 299)
    if n:
        assert verify_nearest(broken, n - 1) == verify_nearest(report_300, n - 1)
    results = {r.name: r for r in run_verification(broken)}
    assert len(results) == len(run_verification(report_300))
    assert results["nearest-point"] == ("nearest-point", False, message)
    failed = {name for name, r in results.items() if not r.passed}
    assert failed == {"step-identity", "sphere-gap", "nearest-point"} | (
        {"initialization"} if n == 0 else set())
    assert results["initialization"].detail.startswith(f"x0=(2, {'%.17g' % pts[0, 1]})")


@pytest.mark.parametrize("horizon", [2, 3, 10, 63, 64, 65, 129, 299, 2000, 9999])
def test_verify_nearest_equals_scan(report_10k, horizon):
    # the sizes straddle the 64-point leaf edges of the index
    assert verify_nearest(report_10k, horizon) == nearest_scan(report_10k, horizon)


def _nearest_outcome(check, report, horizon):
    try:
        return check(report, horizon)
    except NearestPropertyViolated as exc:
        return (exc.n, exc.found)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_verify_nearest_equals_scan_on_swapped_iterates(report_300, data):
    i = data.draw(st.integers(0, 298), label="i")
    j = data.draw(st.integers(i + 1, 299), label="j")
    pts = report_300.points.copy()
    pts[[i, j]] = pts[[j, i]]
    swapped = SequenceReport(report_300.alphas.copy(), report_300.rhos.copy(),
                             report_300.epss.copy(), pts)
    assert (_nearest_outcome(verify_nearest, swapped, 299)
            == _nearest_outcome(nearest_scan, swapped, 299))


@pytest.mark.parametrize("edge", [LEAF_SIZE, 2 * LEAF_SIZE])
def test_verify_nearest_finds_runner_up_across_leaf_edge(edge):
    # Points on a line with shrinking gaps: each successor is nearest and each
    # predecessor is the runner-up.  The smallest margin sits at `edge`, the
    # first point of a leaf, whose predecessor lies in the previous leaf,
    # farther than any successor distance within its own leaf.
    gaps = 1e-2 - 1e-5 * np.arange(199)
    gaps[edge:] += 1e-5 - 1e-9
    pts = np.column_stack([np.concatenate(([0.0], np.cumsum(gaps))), np.zeros(200)])
    flat = np.zeros(200)  # the unit sphere stays at distance 1
    report = SequenceReport(flat, flat + 1.0, flat.copy(), pts)
    margin = verify_nearest(report, 199)
    assert margin == nearest_scan(report, 199)
    assert margin < 1e-8


def test_verify_nearest_leaves_numpy_ma_unloaded():
    # numpy.ma costs about 1.7 MB of resident memory once imported (np.unique
    # imports it); a fresh interpreter is needed because the test session may
    # already hold it.
    src = str(Path(altproj.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "from altproj import sequence\n"
            "assert sequence.verify_nearest(sequence.generate(300), 299) > 0.0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_no_earlier_point_is_closer(report_300):
    # any earlier point closer than the successor would contradict the strict
    # decrease of the step sizes
    pts = report_300.points
    epss = report_300.epss
    rng = np.random.default_rng(99)
    for n in rng.integers(1, 299, 25).tolist():
        earlier = np.linalg.norm(pts[:n] - pts[n], axis=1)
        assert np.all(earlier > epss[n])


def test_report_arrays_are_read_only(report_300):
    with pytest.raises(ValueError):
        report_300.alphas[0] = 1.0
    with pytest.raises(ValueError):
        report_300.points[0, 0] = 5.0


def test_csv_export():
    report = generate(4)
    buf = io.StringIO()
    write_csv(report, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "n,alpha,delta,rho,eps,x,y"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.0
    assert float(first[5]) == 2.0
    assert float(first[6]) == 0.0
    assert lines[-1].split(",")[2] == ""  # delta empty on the final row
    assert lines[1].split(",")[2] != ""
    # 17-significant-digit rendering round-trips the stored values exactly
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert float(fields[1]) == report.alphas[i]
        assert float(fields[3]) == report.rhos[i]


def test_json_records():
    report = generate(3)
    objs = _json_objects(report)
    assert len(objs) == 3
    assert objs[0]["n"] == 0
    assert objs[0]["x"] == [2.0, 0.0]
    assert objs[-1]["delta"] is None
    assert objs[-1]["q"] is None
    assert objs[0]["delta"] == report.deltas[0]


#: Report sizes that straddle the block edges of `spiral.columns` and of the
#: row writers, whose blocks hold about `serialize._BLOCK` values: rows of 7
#: in CSV, of 8 in JSON, and the final row on its own.
_BLOCK_EDGES = [1, 2, spiral.CHUNK - 1, spiral.CHUNK, spiral.CHUNK + 1, 2 * spiral.CHUNK + 1,
                *(serialize._BLOCK // width + extra for width in (7, 8) for extra in (0, 1, 2))]


@pytest.mark.parametrize("n", _BLOCK_EDGES)
def test_csv_equals_row_writer(n):
    # the sizes straddle the block edges of the writer
    report = generate(n)
    fast, rows = io.StringIO(), io.StringIO()
    write_csv(report, fast)
    write_csv_rows(report, rows)
    assert fast.getvalue() == rows.getvalue()


def test_csv_of_empty_report_is_the_header():
    empty = np.empty(0)
    report = SequenceReport(empty, empty.copy(), empty.copy(), np.empty((0, 2)))
    buf = io.StringIO()
    write_csv(report, buf)
    assert buf.getvalue() == "n,alpha,delta,rho,eps,x,y\n"


def _corrupted(report, column, row, bad):
    cols = {name: getattr(report, name)[:spiral.CHUNK + 10].copy()
            for name in ("alphas", "rhos", "epss", "points")}
    cols[column][row] = bad
    with np.errstate(divide="ignore"):
        return SequenceReport(cols["alphas"], cols["rhos"], cols["epss"], cols["points"])


# row CHUNK + 9 is the final row, written on its own; an infinite angle is
# left out because the report itself rejects it
_NON_FINITE = pytest.mark.parametrize("column, bad", [
    ("alphas", math.nan), ("rhos", math.inf), ("epss", -math.inf), ("points", math.nan),
    ("points", math.inf)])
_CORRUPT_ROWS = pytest.mark.parametrize("row", [0, spiral.CHUNK + 2, spiral.CHUNK + 9])


@_NON_FINITE
@_CORRUPT_ROWS
def test_csv_rejects_non_finite(report_10k, column, bad, row):
    with pytest.raises(ValueError, match="non-finite"):
        write_csv(_corrupted(report_10k, column, row, bad), io.StringIO())


@pytest.mark.parametrize("n", _BLOCK_EDGES)
def test_json_equals_object_writer(n):
    report = generate(n)
    fast, objects = io.StringIO(), io.StringIO()
    write_json(report, fast)
    write_json_objects(report, objects)
    assert fast.getvalue() == objects.getvalue()


def test_json_of_empty_report_is_an_empty_list():
    empty = np.empty(0)
    report = SequenceReport(empty, empty.copy(), empty.copy(), np.empty((0, 2)))
    buf = io.StringIO()
    write_json(report, buf)
    assert buf.getvalue() == "[]\n"


@_NON_FINITE
@_CORRUPT_ROWS
def test_json_rejects_non_finite(report_10k, column, bad, row):
    with pytest.raises(ValueError, match="non-finite"):
        write_json(_corrupted(report_10k, column, row, bad), io.StringIO())


@pytest.mark.parametrize("row", [0, spiral.CHUNK + 2])
def test_json_rejects_non_finite_radius_ratio(report_10k, row):
    # a zero radius is finite, but the radius ratio q of its row is not
    report = _corrupted(report_10k, "rhos", row, 0.0)
    assert not np.isfinite(report.qs[row])
    with pytest.raises(ValueError, match="non-finite"):
        write_json(report, io.StringIO())


@pytest.mark.parametrize("write", [write_csv, write_json])
def test_writers_hold_one_block_in_memory(write):
    # the peak traced allocation while writing 5e4 rows stays under a bound
    # that does not grow with the report: one block of rows at a time
    report = generate(50_000)
    with open(os.devnull, "w", encoding="utf-8") as sink:
        tracemalloc.start()
        try:
            write(report, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 16 * 2**20
