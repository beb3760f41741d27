"""The inward logarithmic spiral and its forward step solver.

The curve is ``alpha -> (1 + exp(-alpha)) * (cos(alpha), sin(alpha))`` for
nonnegative angles in radians; it winds counter-clockwise and tightens onto
the unit circle.  ``eps`` gives the step size at an angle (half the radial
drop over one full turn), and ``next_alpha`` solves for the unique forward
angle whose curve point lies exactly one step size away.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

#: Hard ceiling on generated angles.  The solver actually dies earlier, near
#: t ~ 36.7, where 1 + exp(-t) rounds to exactly 1 and the step size to 0
#: (`BracketInvalid`); both limits are unreachable by generation, whose angle
#: grows only logarithmically in the iterate count.
MAX_ALPHA = 700.0

#: Every forward step is at most 40 degrees.
STEP_UPPER_BOUND = math.radians(40.0)

__all__ = [
    "BracketInvalid", "HALF_PI", "MAX_ALPHA", "STEP_UPPER_BOUND", "TWO_PI", "advance",
    "alpha_chain", "chord_sq", "columns", "curve", "eps", "next_alpha", "rho",
]


class BracketInvalid(RuntimeError):
    """The next-angle solve lost its sign change over the quarter-turn bracket."""


def _rho(t: float) -> float:
    return 1.0 + math.exp(-t)


def _eps(t: float) -> float:
    return (_rho(t) - _rho(t + TWO_PI)) / 2.0


def _curve_xy(alpha: float) -> tuple[float, float]:
    r = _rho(alpha)
    return r * math.cos(alpha), r * math.sin(alpha)


def _chord_sq(alpha: float, t: float) -> float:
    # half-angle rearrangement of the law of cosines,
    # r^2 + s^2 - 2 r s cos(t) = (r - s)^2 + 4 r s sin^2(t/2):
    # the raw form cancels catastrophically once the chord drops below
    # ~sqrt(ulp(2)) ~ 2e-8, this one stays fully accurate
    r = _rho(alpha)
    s = _rho(alpha + t)
    d = r - s
    h = math.sin(0.5 * t)
    return d * d + 4.0 * r * s * h * h


def _angle(name: str, value) -> float:
    v = float(value)
    if not math.isfinite(v) or v < 0.0:
        raise ValueError(f"{name} must be a finite nonnegative angle in radians, got {value!r}")
    return v


def rho(t) -> float:
    """Distance from the origin to the curve at angle t: 1 + exp(-t)."""
    return _rho(_angle("t", t))


def eps(t) -> float:
    """Step size at angle t: half the radial drop over one full turn."""
    return _eps(_angle("t", t))


def curve(alpha) -> np.ndarray:
    """Curve point at `alpha` as a 2-vector."""
    return np.array(_curve_xy(_angle("alpha", alpha)))


def chord_sq(alpha, t) -> float:
    """Squared distance between the curve points at `alpha` and `alpha + t`."""
    return _chord_sq(_angle("alpha", alpha), _angle("t", t))


def columns(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radius, step size and curve point (an (n, 2) array) at each angle,
    bit for bit the values of `rho`, `eps` and `curve`."""
    n = alphas.size
    rhos, epss = np.empty(n), np.empty(n)
    points = np.empty((n, 2))
    for i, a in enumerate(alphas.tolist()):
        rhos[i] = _rho(a)
        epss[i] = _eps(a)
        points[i, 0], points[i, 1] = _curve_xy(a)
    return rhos, epss, points


def advance(alpha: float, t_guess: float) -> float:
    """Smallest angle beyond `alpha` whose curve point is eps(alpha) away.

    Newton's method on f(t) = chord_sq(alpha, t) - eps(alpha)^2, starting
    from the increment `t_guess` (from the bracket midpoint if the guess is
    outside it), inside the quarter-turn bracket (0, pi/2] where f increases
    strictly: each evaluation shrinks the bracket, and a step that would
    leave it bisects instead.  Stops when f is exactly zero or the step is
    within one ulp of the angle.
    """
    e2 = _eps(alpha) ** 2
    if not (_chord_sq(alpha, 0.0) - e2 < 0.0 < _chord_sq(alpha, HALF_PI) - e2):
        raise BracketInvalid(f"no sign change over the quarter-turn bracket at alpha={alpha!r}")
    r = _rho(alpha)
    lo, hi = 0.0, HALF_PI
    t = t_guess if lo < t_guess < hi else 0.5 * HALF_PI
    while True:
        w = math.exp(-(alpha + t))
        s = 1.0 + w
        d = r - s
        h = math.sin(0.5 * t)
        f = d * d + 4.0 * r * s * h * h - e2
        if f == 0.0:
            return alpha + t
        if f < 0.0:
            lo = t
        else:
            hi = t
        # f'(t) = 2 d w - 4 r w sin^2(t/2) + 2 r s sin(t), positive on (0, pi/2]
        t_new = t - f / (2.0 * d * w - 4.0 * r * w * h * h + 2.0 * r * s * math.sin(t))
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) <= math.ulp(alpha + t_new):
            return alpha + t_new
        t = t_new


def next_alpha(alpha) -> float:
    """The unique angle beta > alpha with ||curve(beta) - curve(alpha)|| = eps(alpha).

    Solved by `advance` from the small-step asymptote eps(alpha) / rho(alpha);
    raises `BracketInvalid` once the step size underflows to zero.
    """
    a = _angle("alpha", alpha)
    return advance(a, _eps(a) / _rho(a))


def alpha_chain(alpha0, count: int, max_alpha: float = MAX_ALPHA) -> tuple[np.ndarray, bool]:
    """Iterate `next_alpha` from `alpha0` for `count` angles, starting each
    solve from the previous increment.

    Returns (angles, stopped_early); the array is shorter than `count` only
    when an angle exceeded `max_alpha`, in which case stopped_early is True.
    """
    a = _angle("alpha0", alpha0)
    n = int(count)
    if n < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    out = np.empty(n, dtype=np.float64)
    out[0] = a
    step = _eps(a) / _rho(a)
    for i in range(1, n):
        if a > max_alpha:
            return out[:i].copy(), True
        b = advance(a, step)
        step = b - a
        out[i] = a = b
    return out, False
