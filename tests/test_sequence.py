import io
import math

import numpy as np
import pytest

from altproj import map_driver, sequence, spiral
from altproj.sequence import (
    NearestPropertyViolated,
    SequenceReport,
    check_halfangle_identity,
    generate,
    records_to_json_obj,
    verify_nearest,
    write_csv,
)

TWO_PI = 2.0 * math.pi


def test_generate_single_record():
    report = generate(1)
    assert len(report) == 1
    rec = report.records[0]
    assert rec.n == 0
    assert rec.alpha == 0.0
    assert rec.rho == 2.0
    assert rec.eps == pytest.approx(0.4990663, abs=1e-7)
    np.testing.assert_array_equal(rec.x, [2.0, 0.0])
    assert rec.delta is None
    assert rec.q is None
    assert report.partial_delta_sum == 0.0
    assert report.max_identity_residual == 0.0


def test_generate_validates_n_max():
    with pytest.raises(ValueError):
        generate(0)


def test_first_sixteen_records(report_300):
    recs = report_300.records[:16]
    assert [r.n for r in recs] == list(range(16))
    for r in recs[:-1]:
        assert 0.0 < r.delta <= spiral.STEP_UPPER_BOUND
    epss = [r.eps for r in recs]
    assert all(a > b for a, b in zip(epss, epss[1:]))


def test_record_invariants(report_10k):
    alphas = report_10k.alphas()
    assert np.abs(report_10k.rhos() - (1.0 + np.exp(-alphas))).max() <= 1e-14
    closed = ((1.0 - math.exp(-TWO_PI)) / 2.0) * np.exp(-alphas)
    assert np.abs(report_10k.epss() - closed).max() <= 1e-14
    assert np.all(report_10k.deltas() > 0.0)
    qs = report_10k.qs()
    assert np.all((qs > 0.0) & (qs < 1.0))


def test_chord_equals_eps(report_10k):
    assert report_10k.max_identity_residual <= 1e-10


def test_sphere_gap_identity(report_10k):
    pts = report_10k.points()
    gaps = np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 1.0)
    assert np.abs(gaps - np.exp(-report_10k.alphas())).max() <= 1e-12


def test_halfangle_identity(report_10k):
    res = check_halfangle_identity(report_10k)
    assert res.raw <= 1e-10
    assert res.scaled <= 1e-12


def test_halfangle_identity_single_record():
    res = check_halfangle_identity(generate(1))
    assert res == (0.0, 0.0)


def test_telescoping(report_10k):
    alphas = report_10k.alphas()
    assert abs(report_10k.partial_delta_sum - (alphas[-1] - alphas[0])) <= 1e-10


def test_eps_exceeds_half_delta_everywhere(report_10k):
    # sin(t/2) >= t/4 holds whenever t^2 <= 12; every step is below 40 degrees,
    # so the bound applies from the very first step.
    assert np.all(report_10k.epss()[:-1] > report_10k.deltas() / 2.0)


def test_eps_below_threshold_once_alpha_large(report_10k):
    threshold = math.log(((1.0 - math.exp(-TWO_PI)) / 2.0) / 1e-3)
    mask = report_10k.alphas() > threshold
    assert mask.any()
    assert np.all(report_10k.epss()[mask] < 1e-3)


def test_monotone_approach_to_circle(report_300):
    deltas = report_300.deltas()
    assert np.all(deltas > 0.0)
    assert deltas[-1] == deltas.min()
    epss = report_300.epss()
    assert np.all(np.diff(epss) < 0.0)
    assert epss[-1] < epss[0]
    pts = report_300.points()
    gaps = np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 1.0)
    assert np.abs(gaps - np.exp(-report_300.alphas())).max() <= 1e-12
    assert np.all(np.diff(gaps) < 0.0)
    assert report_300.rhos()[-1] == pytest.approx(1.0 + gaps[-1], abs=1e-12)


def test_partial_eps_sum_grows_without_bound(report_10k):
    # the cumulative step length keeps growing across horizons even though the
    # individual steps shrink below any fixed level
    epss = report_10k.epss()
    partial_2k = math.fsum(epss[:1999].tolist())
    partial_10k = report_10k.partial_eps_sum
    assert partial_10k > partial_2k + 0.5
    assert epss[-1] < epss[1999] < epss[0]


def test_cluster_coverage_gap_shrinks_with_horizon(report_10k):
    alphas = report_10k.alphas()
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
    pts = report_300.points().copy()
    pts[[5, 50]] = pts[[50, 5]]
    corrupt = SequenceReport(report_300.alphas().copy(), report_300.rhos().copy(),
                             report_300.epss().copy(), pts, False)
    with pytest.raises(NearestPropertyViolated) as info:
        verify_nearest(corrupt, 299)
    assert info.value.n == 4
    assert info.value.found == 50


def test_no_earlier_point_is_closer(report_300):
    # any earlier point closer than the successor would contradict the strict
    # decrease of the step sizes
    pts = report_300.points()
    epss = report_300.epss()
    rng = np.random.default_rng(99)
    for n in rng.integers(1, 299, 25).tolist():
        earlier = np.linalg.norm(pts[:n] - pts[n], axis=1)
        assert np.all(earlier > epss[n])


def test_stopped_early_flag():
    report = generate(50, max_alpha=1.0)
    assert report.stopped_early
    assert len(report) < 50
    assert not generate(50).stopped_early


def test_report_arrays_are_read_only(report_300):
    with pytest.raises(ValueError):
        report_300.alphas()[0] = 1.0
    with pytest.raises(ValueError):
        report_300.points()[0, 0] = 5.0


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
        assert float(fields[1]) == report.alphas()[i]
        assert float(fields[3]) == report.rhos()[i]


def test_json_records():
    report = generate(3)
    objs = records_to_json_obj(report)
    assert len(objs) == 3
    assert objs[0]["n"] == 0
    assert objs[0]["x"] == [2.0, 0.0]
    assert objs[-1]["delta"] is None
    assert objs[-1]["q"] is None
    assert objs[0]["delta"] == report.records[0].delta
