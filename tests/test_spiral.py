import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altproj import spiral
from altproj.spiral import (
    CHUNK,
    HALF_PI,
    TWO_PI,
    BracketInvalid,
    advance,
    alpha_chain,
)
from conftest import advance_with_full_bracket, chord_sq, eps, rho

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

# Steps of the chain from 0 where a solve that tested convergence only after
# the bracket guard bisected and returned another angle, keyed by iterate:
# alpha and the guess (the previous increment) as `float.hex`, and the root
# angle alpha + t.  The roots were computed independently at 50 decimal
# digits (Newton on the exact chord equation), frozen to 40 digits.
DETOUR_ROOTS = {
    98: ("0x1.eab74707bfe5fp+1", "0x1.5dd1970c40a00p-7",
        "3.844282864868115463577136331847308192011"),
    6090: ("0x1.008f1b4b1bed0p+3", "0x1.58f6cb0300000p-13",
        "8.017633533816210886214505675230258966953"),
    27198: ("0x1.307de9f9c32a8p+3", "0x1.3492edec00000p-15",
        "9.515407140866526607232323147765008085589"),
    32784: ("0x1.3678ccff71d4bp+3", "0x1.fff4cbdd80000p-16",
        "9.70227670212149374172809474771188916493"),
    48721: ("0x1.432748692a335p+3", "0x1.58734d0080000p-16",
        "10.0985658007695455709800684254073596814"),
    52068: ("0x1.4547b4fa48961p+3", "0x1.424dacc100000p-16",
        "10.16502249947705678834934671057894347877"),
    53758: ("0x1.464d71119d6d8p+3", "0x1.382b343b80000p-16",
        "10.19697193583398172417832037242768753483"),
    54790: ("0x1.46e940baac6cdp+3", "0x1.32499d5c80000p-16",
        "10.21599150392496574794823816956058944646"),
}


def test_rho_examples():
    assert rho(0.0) == 2.0
    assert rho(50.0) == pytest.approx(1.0, abs=1e-20)
    assert rho(TWO_PI) == 1.0 + math.exp(-TWO_PI)
    assert rho(1.0) > rho(2.0) > rho(3.0) > 1.0


def test_alpha_chain_rejects_negative_and_nonfinite_start():
    with pytest.raises(ValueError, match="alpha0"):
        alpha_chain(-0.1, 3)
    with pytest.raises(ValueError, match="alpha0"):
        alpha_chain(math.nan, 3)
    with pytest.raises(ValueError, match="alpha0"):
        alpha_chain(-1.0, 3)
    with pytest.raises(ValueError, match="alpha0"):
        alpha_chain(math.inf, 3)
    with pytest.raises(ValueError, match="alpha0"):
        alpha_chain(True, 3)
    with pytest.raises(ValueError, match="alpha0"):
        alpha_chain("0.5", 3)


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
    start, quarter, full = spiral.columns(np.array([0.0, HALF_PI, TWO_PI]))[2]
    np.testing.assert_array_equal(start, [2.0, 0.0])
    assert abs(quarter[0]) <= 1e-15
    assert quarter[1] == 1.0 + math.exp(-HALF_PI)
    assert full[0] == pytest.approx(1.0 + math.exp(-TWO_PI), abs=1e-15)
    assert abs(full[1]) <= 1e-15


def test_curve_injective_on_samples():
    pts = [tuple(p) for p in spiral.columns(np.linspace(0.0, 20.0, 400))[2].tolist()]
    assert len(set(pts)) == len(pts)


def test_columns_equal_scalar_functions():
    angles = np.concatenate(([0.0, 0.3, 2.0, 11.0], np.linspace(0.0, 30.0, 2 * CHUNK)))
    # the sizes straddle the slice edges of the column build
    for size in (0, 1, 4, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1):
        rhos, epss, points = spiral.columns(angles[:size])
        assert rhos.shape == epss.shape == (size,) and points.shape == (size, 2)
        for i, a in enumerate(angles[:size].tolist()):
            r = 1.0 + math.exp(-a)
            assert rhos[i] == r
            assert epss[i] == (r - (1.0 + math.exp(-(a + TWO_PI)))) / 2.0
            np.testing.assert_array_equal(points[i], [r * math.cos(a), r * math.sin(a)])


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
    # three one-step chains: each solve starts from eps/rho, not from the
    # previous increment as in a longer chain
    for expected in ORACLE_ALPHAS[1:4]:
        a = alpha_chain(a, 2)[0][1]
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
        b = alpha_chain(a, 2)[0][1]
        pa, pb = spiral.columns(np.array([a, b]))[2]
        resid = abs(float(np.linalg.norm(pb - pa)) - eps(a))
        worst = max(worst, resid)
    assert worst <= 1e-14


def test_next_alpha_step_stays_in_bracket():
    rng = np.random.default_rng(42)
    for a in rng.uniform(0.0, 30.0, 300).tolist():
        b = alpha_chain(a, 2)[0][1]
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
    delta = alpha_chain(a, 2)[0][1] - a
    ratio = eps(a) / rho(a)
    assert abs(delta - ratio) / ratio <= 1e-3


def test_bracket_invalid_when_step_size_underflows():
    # past alpha ~36.7 the step size is 0; below `MAX_ALPHA`, so the chain solves
    with pytest.raises(BracketInvalid):
        alpha_chain(40.0, 2)


@pytest.mark.parametrize("guess", [0.0, 1e-300, HALF_PI, 3.0])
def test_advance_converges_from_any_guess(guess):
    # 0, pi/2 and 3.0 are not strictly inside the bracket, so the solve starts
    # from its midpoint; from 1e-300 the first Newton step lands far outside it
    for alpha in (0.0, 1.0, 5.0, 20.0):
        expected = alpha_chain(alpha, 2)[0][1]
        assert abs(advance(alpha, guess) - expected) <= 2 * math.ulp(expected)


def _previous_increment_chain(alpha0, count):
    """`count` angles from `alpha0`, each solved by `advance_with_full_bracket`
    from the previous increment (the first from eps/rho)."""
    a = alpha0
    step = eps(a) / rho(a)
    expected = [a]
    for _ in range(count - 1):
        b = advance_with_full_bracket(a, step)
        step = b - a
        expected.append(b)
        a = b
    return expected


def test_alpha_chain_equals_full_bracket_solve():
    # the chain seeds from the trend of two increments and must land on the
    # same angles; from 13.0 (past iterate 1e6) the seed changes most
    for alpha0, count in ((0.0, 20_000), (13.0, 5_000)):
        angles, stopped = alpha_chain(alpha0, count)
        assert not stopped
        assert angles.tolist() == _previous_increment_chain(alpha0, count)


@pytest.mark.parametrize("alpha, guess, root", DETOUR_ROOTS.values(),
                         ids=[str(n) for n in DETOUR_ROOTS])
def test_advance_within_one_ulp_of_independent_root(alpha, guess, root):
    b = advance(float.fromhex(alpha), float.fromhex(guess))
    exact = Fraction(root)
    assert abs(Fraction(b) - exact) <= Fraction(math.ulp(float(exact)))


def _count_exp(monkeypatch, limit=math.inf):
    """Route the exponentials of `spiral` through a counter, a one-element
    list; past `limit` calls they raise instead of returning."""
    calls = [0]

    def exp(x):
        calls[0] += 1
        if calls[0] > limit:
            raise RuntimeError(f"more than {limit} exponentials")
        return math.exp(x)

    shim = types.SimpleNamespace(exp=exp, sin=math.sin, ulp=math.ulp, isfinite=math.isfinite)
    monkeypatch.setattr(spiral, "math", shim)
    return calls


def test_step_solve_stops_at_a_converged_newton_step(monkeypatch):
    # a Newton step that rounds onto a bracket end has converged: bisecting
    # from there instead costs up to 48 evaluations in one step
    calls = _count_exp(monkeypatch)
    solve = spiral.advance
    evaluations = []

    def counted(alpha, t_guess):
        before = calls[0]
        b = solve(alpha, t_guess)
        # rho(alpha) and rho(alpha + 2 pi) are not chord evaluations
        evaluations.append(calls[0] - before - 2)
        return b

    monkeypatch.setattr(spiral, "advance", counted)
    _, stopped = alpha_chain(0.0, 20_000)
    assert not stopped and len(evaluations) == 19_999
    assert max(evaluations) <= 5


@pytest.mark.parametrize("alpha0, count, bound", [(0.0, 20_000, 2.3), (13.0, 5_000, 1.3)])
def test_chain_seed_cuts_chord_evaluations(monkeypatch, alpha0, count, bound):
    # seeded from the previous increment alone, the means are 3.04 and 2.00:
    # past iterate 1e5 the second evaluation of every step only confirms
    # that the first Newton step was below one ulp
    calls = _count_exp(monkeypatch)
    solve = spiral.advance
    evaluations = []

    def counted(alpha, t_guess):
        before = calls[0]
        b = solve(alpha, t_guess)
        evaluations.append(calls[0] - before - 2)  # less rho(alpha), rho(alpha + 2 pi)
        return b

    monkeypatch.setattr(spiral, "advance", counted)
    _, stopped = alpha_chain(alpha0, count)
    assert not stopped and len(evaluations) == count - 1
    assert sum(evaluations) / len(evaluations) <= bound


def test_advance_stops_on_a_bracket_of_adjacent_floats(monkeypatch):
    # From the bracket midpoint the solve closes the bracket onto two adjacent
    # floats, then every Newton step from its upper end lands two ulps below
    # it, outside the bracket, and the midpoint rounds back onto that end.
    alpha = float.fromhex("0x1.1a6d8d5a6a4f9p-10")
    _count_exp(monkeypatch, limit=500)
    b = advance(alpha, 3.0)
    assert b == float.fromhex("0x1.ec1dc7d15dc38p-3") == alpha_chain(alpha, 2)[0][1]


def test_advance_terminates_from_any_guess(monkeypatch):
    # `advance` is public, so nothing keeps its guesses near the root: mix
    # guesses outside the bracket (the solve starts from its midpoint), tiny
    # ones down to 1e-300, ones anywhere inside it, and 0
    rng = np.random.default_rng(20_000)
    alphas = rng.uniform(0.0, 36.0, 20_000)
    kinds = rng.integers(0, 4, alphas.size)
    guesses = np.select(
        [kinds == 0, kinds == 1, kinds == 2],
        [rng.choice([-1.0, 1.0], alphas.size) * rng.uniform(HALF_PI, 4.0, alphas.size),
         10.0 ** rng.uniform(-300.0, -1.0, alphas.size),
         rng.uniform(0.0, HALF_PI, alphas.size)],
        0.0)
    # rho(alpha) and rho(alpha + 2 pi), then at most 60 chord evaluations
    calls = _count_exp(monkeypatch, limit=2 + 60)
    for alpha, guess in zip(alphas.tolist(), guesses.tolist()):
        calls[0] = 0
        assert advance(alpha, guess) == advance_with_full_bracket(alpha, guess), (alpha, guess)


def _advance_outcome(solve, alpha, guess):
    try:
        return solve(alpha, guess)
    except BracketInvalid:
        return "BracketInvalid"


def test_bracket_check_premise_holds_past_the_step_size_underflow():
    # `advance` checks only e2 > 0, because f(pi/2) = chord_sq(alpha, pi/2)
    # - e2 stays above 7/4; the grid runs past alpha ~36.7, where eps is 0
    for alpha in np.linspace(0.0, 40.0, 40_001).tolist():
        assert chord_sq(alpha, HALF_PI) - eps(alpha) ** 2 > 1.75
        assert ((_advance_outcome(advance, alpha, 0.1) == "BracketInvalid")
                == (eps(alpha) == 0.0)), alpha


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(0.0, 45.0), guess=st.floats(-1.0, 4.0))
def test_advance_equals_full_bracket_solve(alpha, guess):
    # past alpha ~36.7 the step size is 0 and both raise BracketInvalid
    assert (_advance_outcome(advance, alpha, guess)
            == _advance_outcome(advance_with_full_bracket, alpha, guess))


def test_alpha_chain_validates_count():
    with pytest.raises(ValueError):
        alpha_chain(0.0, 0)
    for count in (2.5, True, "3"):
        with pytest.raises(ValueError, match="count"):
            alpha_chain(0.0, count)
    expected = alpha_chain(0.0, 5)[0]
    for count in (5.0, np.int64(5), np.int32(5)):
        np.testing.assert_array_equal(alpha_chain(0.0, count)[0], expected)


def test_alpha_chain_stops_at_max_alpha():
    angles, stopped = alpha_chain(0.0, 50, max_alpha=1.0)
    assert stopped
    assert angles.size < 50
    assert angles[-1] > 1.0
