"""The inward logarithmic spiral and its forward step solver.

The curve is ``alpha -> rho(alpha) * (cos(alpha), sin(alpha))`` with
``rho(t) = 1 + exp(-t)`` for nonnegative angles in radians; it winds
counter-clockwise and tightens onto the unit circle.  The step size
``eps(t) = (rho(t) - rho(t + 2 pi)) / 2`` is half the radial drop over one
full turn.  Seeded from the last two increments, ``alpha_chain`` solves for
each next angle, one step size away, and ``columns`` evaluates the curve.
"""

from __future__ import annotations

import math

import numpy as np

from .euclid import _finite, _integer

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

#: Hard ceiling on generated angles.  The solver actually dies earlier, near
#: t ~ 36.7, where 1 + exp(-t) rounds to exactly 1 and the step size to 0
#: (`BracketInvalid`); both limits are unreachable by generation, whose angle
#: grows only logarithmically in the iterate count.
MAX_ALPHA = 700.0

#: Every forward step is at most 40 degrees.
STEP_UPPER_BOUND = math.radians(40.0)

#: Elements per slice when `columns` and the sums of `sequence` turn arrays
#: into Python floats: bounds their temporary lists.
CHUNK = 4096

__all__ = [
    "BracketInvalid", "CHUNK", "HALF_PI", "MAX_ALPHA", "STEP_UPPER_BOUND", "TWO_PI", "advance",
    "alpha_chain", "columns",
]


class BracketInvalid(RuntimeError):
    """The next-angle solve lost its sign change over the quarter-turn bracket."""


def _libm(fn, values: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, values.tolist()), np.float64, values.size)


def columns(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radius rho = 1 + exp(-a), step size (rho(a) - rho(a + 2 pi)) / 2 and
    curve point (rho cos a, rho sin a), an (n, 2) array, at each angle a.

    The exponentials and the sines and cosines come from `math` (libm), one
    slice of `CHUNK` angles at a time: numpy's own `exp`, `sin` and `cos` may
    round differently in the last bit.  The arithmetic on their results is
    done in numpy, where `+ - * /` round exactly as the scalar code does.
    """
    n = alphas.size
    rhos, epss = np.empty(n), np.empty(n)
    points = np.empty((n, 2))
    for start in range(0, n, CHUNK):
        a = alphas[start:start + CHUNK]
        end = start + a.size
        r = rhos[start:end]
        np.add(1.0, _libm(math.exp, -a), out=r)
        far = _libm(math.exp, -(a + TWO_PI))
        far += 1.0
        np.subtract(r, far, out=epss[start:end])
        epss[start:end] /= 2.0
        np.multiply(r, _libm(math.cos, a), out=points[start:end, 0])
        np.multiply(r, _libm(math.sin, a), out=points[start:end, 1])
    return rhos, epss, points


def advance(alpha: float, t_guess: float) -> float:
    """Smallest angle beyond `alpha` whose curve point is eps(alpha) away.

    Newton's method on f(t) = (r - s)^2 + 4 r s sin^2(t/2) - eps(alpha)^2,
    the squared chord from radius r = rho(alpha) to s = rho(alpha + t) less
    the squared step size, starting from the increment `t_guess` (from the
    bracket midpoint if the guess is outside it), inside the quarter-turn
    bracket (0, pi/2] where f increases strictly: each evaluation shrinks the
    bracket.  Stops when f is exactly zero or a Newton step is within one ulp
    of the angle; as in `rtsafe`, that test comes before the bracket guard,
    so a converged step that rounds onto a bracket end ends the solve.  A
    step that has not converged and would leave the bracket bisects instead,
    and the solve stops when the bisection cannot move (the bracket ends are
    adjacent floats).
    """
    r = 1.0 + math.exp(-alpha)
    e2 = ((r - (1.0 + math.exp(-(alpha + TWO_PI)))) / 2.0) ** 2  # eps(alpha) ** 2
    # The chord is the half-angle form of the law of cosines, r^2 + s^2 -
    # 2 r s cos(t): the raw form cancels catastrophically once the chord drops
    # below ~sqrt(ulp(2)) ~ 2e-8, this one stays fully accurate.  So f(0) =
    # -e2 exactly, and f(pi/2) = (r - s)^2 + 2 r s - e2 is above 2 - 1/4,
    # since r, s >= 1 and eps < 1/2 for alpha >= 0: the bracket holds a sign
    # change exactly when e2 > 0.
    if not e2 > 0.0:
        raise BracketInvalid(f"no sign change over the quarter-turn bracket at alpha={alpha!r}")
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
        if abs(t_new - t) <= math.ulp(alpha + t_new):
            return alpha + t_new
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
            if t_new == t:  # the bracket ends are adjacent floats
                return alpha + t
        t = t_new


def alpha_chain(alpha0, count: int, max_alpha: float = MAX_ALPHA) -> tuple[np.ndarray, bool]:
    """`count` angles from `alpha0`, each the unique forward angle whose curve
    point is one step size from the last one's.  Each is solved by `advance`:
    the first from the small-step asymptote eps/rho, the second from the first
    increment, later ones from the last two: step + (step - prev).  Raises
    `BracketInvalid` once the step size underflows to zero (near alpha ~ 36.7).

    Returns (angles, stopped_early); the array is shorter than `count` only
    when an angle exceeded `max_alpha`, in which case stopped_early is True.
    """
    a = _finite("alpha0", alpha0)
    if a < 0.0:
        raise ValueError(f"alpha0 must be >= 0, got {alpha0!r}")
    n = _integer("count", count)
    if n < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    out = np.empty(n, dtype=np.float64)
    out[0] = a
    r = 1.0 + math.exp(-a)
    step = prev = ((r - (1.0 + math.exp(-(a + TWO_PI)))) / 2.0) / r  # eps(a) / rho(a)
    for i in range(1, n):
        if a > max_alpha:
            return out[:i].copy(), True
        b = advance(a, step + (step - prev))
        prev, step = step, b - a
        if i == 1:
            prev = step
        out[i] = a = b
    return out, False
