import math

import numpy as np
import pytest

from altproj import spiral
from altproj.spiral import (
    HALF_PI,
    TWO_PI,
    BracketInvalid,
    advance,
    alpha_chain,
    chord_sq,
    curve,
    eps,
    next_alpha,
    rho,
)

# Angles computed independently at 60 decimal digits (bracketed root solve on
# the exact chord equation), frozen here to 22 significant digits.
ORACLE_ALPHAS = [
    0.0,
    0.2393337066500278838219,
    0.4518687114332699833248,
    0.6407577953572559704893,
    0.8092147343958086515393,
    0.960205403436256737647,
    1.096320647500424954818,
    1.219756746267017231706,
    1.332347263163685397895,
    1.435613233004805916923,
    1.530815221584553586678,
    1.619000322112185603091,
    1.701041959163445318971,
    1.777672530758723841292,
    1.849509744314727269139,
    1.917077708166846139198,
    1.980823786842109726912,
]

EPS0 = 0.4990662786341460055928  # (1 - exp(-2*pi)) / 2 at 22 digits


def test_rho_examples():
    assert rho(0.0) == 2.0
    assert rho(50.0) == pytest.approx(1.0, abs=1e-20)
    assert rho(TWO_PI) == 1.0 + math.exp(-TWO_PI)
    assert rho(1.0) > rho(2.0) > rho(3.0) > 1.0


def test_rho_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        rho(-0.1)
    with pytest.raises(ValueError):
        rho(math.nan)
    with pytest.raises(ValueError):
        eps(-1.0)
    with pytest.raises(ValueError):
        curve(-2.0)


def test_eps_initial_value():
    assert eps(0.0) == pytest.approx(EPS0, abs=1e-16)
    assert eps(0.0) == pytest.approx((1.0 - math.exp(-TWO_PI)) / 2.0, abs=1e-16)


def test_eps_below_sphere_distance():
    for t in np.linspace(0.0, 40.0, 200).tolist():
        assert eps(t) < math.exp(-t)


def test_eps_strictly_decreasing():
    assert eps(10.0) > eps(11.0)
    values = [eps(t) for t in np.linspace(0.0, 25.0, 100).tolist()]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_eps_ratio_closed_form_and_monotone():
    grid = np.linspace(0.0, 30.0, 500).tolist()
    ratios = []
    for t in grid:
        ratio = eps(t) / rho(t)
        closed = 0.5 * (1.0 - math.exp(-TWO_PI)) / (1.0 + math.exp(t))
        assert abs(ratio - closed) <= 1e-14
        ratios.append(ratio)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_curve_examples():
    np.testing.assert_array_equal(curve(0.0), [2.0, 0.0])
    quarter = curve(HALF_PI)
    assert abs(quarter[0]) <= 1e-15
    assert quarter[1] == 1.0 + math.exp(-HALF_PI)
    full = curve(TWO_PI)
    assert full[0] == pytest.approx(1.0 + math.exp(-TWO_PI), abs=1e-15)
    assert abs(full[1]) <= 1e-15


def test_curve_injective_on_samples():
    pts = [tuple(curve(t)) for t in np.linspace(0.0, 20.0, 400).tolist()]
    assert len(set(pts)) == len(pts)


def test_columns_equal_scalar_functions():
    angles = np.array([0.0, 0.3, 2.0, 11.0])
    rhos, epss, points = spiral.columns(angles)
    for i, a in enumerate(angles.tolist()):
        assert rhos[i] == rho(a)
        assert epss[i] == eps(a)
        np.testing.assert_array_equal(points[i], curve(a))


def test_chord_sq_zero_at_origin_and_right_angle():
    assert chord_sq(0.3, 0.0) == 0.0
    val = chord_sq(0.0, HALF_PI)
    assert val == pytest.approx(rho(0.0) ** 2 + rho(HALF_PI) ** 2, rel=1e-14)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0])
def test_chord_sq_monotone_on_quarter_turn(alpha):
    ts = np.linspace(0.0, HALF_PI, 100).tolist()
    vals = [chord_sq(alpha, t) for t in ts]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_next_alpha_matches_independent_oracle():
    a = 0.0
    for expected in ORACLE_ALPHAS[1:4]:
        a = next_alpha(a)
        assert a == pytest.approx(expected, abs=1e-15)


def test_chain_matches_oracle_through_sixteen_steps():
    angles, stopped = alpha_chain(0.0, 17)
    assert not stopped
    np.testing.assert_allclose(angles, ORACLE_ALPHAS, rtol=0.0, atol=1e-15)


def test_next_alpha_residuals_over_random_angles():
    rng = np.random.default_rng(86753)
    alphas = rng.uniform(0.0, 30.0, 1000)
    worst = 0.0
    for a in alphas.tolist():
        b = next_alpha(a)
        resid = abs(float(np.linalg.norm(curve(b) - curve(a))) - eps(a))
        worst = max(worst, resid)
    assert worst <= 1e-14


def test_next_alpha_step_stays_in_bracket():
    rng = np.random.default_rng(42)
    for a in rng.uniform(0.0, 30.0, 300).tolist():
        b = next_alpha(a)
        assert a < b
        assert b - a <= spiral.STEP_UPPER_BOUND + 1e-12


@pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0, 20.0])
def test_unique_sign_change_on_grid(alpha):
    # geometric grid: the root shrinks like the step size, so a uniform grid
    # would step straight over it at large angles
    e2 = eps(alpha) ** 2
    ts = np.geomspace(1e-13, HALF_PI, 10_000)
    signs = np.sign([chord_sq(alpha, t) - e2 for t in ts.tolist()])
    flips = int(np.count_nonzero(np.diff(signs) != 0))
    assert flips == 1


def test_step_asymptote_matches_ratio_at_large_angle():
    a = 20.0
    delta = next_alpha(a) - a
    ratio = eps(a) / rho(a)
    assert abs(delta - ratio) / ratio <= 1e-3


def test_bracket_invalid_when_step_size_underflows():
    with pytest.raises(BracketInvalid):
        next_alpha(800.0)


@pytest.mark.parametrize("guess", [0.0, 1e-300, HALF_PI, 3.0])
def test_advance_converges_from_any_guess(guess):
    # 0, pi/2 and 3.0 are not strictly inside the bracket, so the solve starts
    # from its midpoint; from 1e-300 the first Newton step lands far outside it
    for alpha in (0.0, 1.0, 5.0, 20.0):
        expected = next_alpha(alpha)
        assert abs(advance(alpha, guess) - expected) <= 2 * math.ulp(expected)


def test_alpha_chain_validates_count():
    with pytest.raises(ValueError):
        alpha_chain(0.0, 0)


def test_alpha_chain_stops_at_max_alpha():
    angles, stopped = alpha_chain(0.0, 50, max_alpha=1.0)
    assert stopped
    assert angles.size < 50
    assert angles[-1] > 1.0
