"""Deterministic text rendering for exports.

Floats are rendered as `%.17g`: 17 significant digits, which round-trip
binary64 exactly and are byte-stable across runs.  `fmt17` renders one
value and `render_json` one indented document, such as a run config or a
trace; `dump_json` writes the same text to a stream a piece at a time, as
`export-sets` writes its config, so no large array is held as one string.
Tables of floats -- the `gen` table, every array of a document and the SVG
figure's points and circles -- are rendered by `_rows` a block at a time,
all but the `gen` table through `_table`: `_format` gives each value the
bytes of `'%.17g' % v` with numpy, and each row is assembled from its
fields and its literal separators.
"""

from __future__ import annotations

import json
import math

import numpy as np


def fmt17(x) -> str:
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(v, ".17g")


#: About how many values a table writer formats at once.  Every scratch
#: array of a block then stays under 128 KB, where glibc's malloc serves
#: from the heap, not from fresh mappings, so the blocks of a table reuse
#: one another's memory; with 3 072 values and more, the peak RSS of
#: repeated `run` commands crept up by 0.2-0.3 MB more than with 2 048.
_BLOCK = 2048

#: Text rows of one value: a sign, the "0.000" of a small value in fixed
#: notation, 17 digits with a point before, between or after them, and an
#: exponent.  A layout leaves the rows it does not use NUL, and the text is
#: compressed by dropping NULs, so every layout fits the same rows.
_WIDTH = 29


def _split(a):
    # Dekker's split: a = high + low, each with at most 26 significant bits
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


# 10**p = hi + lo exactly for p <= 45, since 5**45 < 2**105: _POWER[:, p]
# holds hi, the two halves of hi from `_split`, and lo
_HI = np.array([float(10 ** p) for p in range(46)])
_POWER = np.array([_HI, *_split(_HI), [float(10 ** p - int(h)) for p, h in enumerate(_HI)]])

#: floor((e - 1023) log10(2)) for each biased exponent e: a float64 of
#: exponent e lies in that decade or the next.
_DECADE = np.array([math.floor((e - 1023) * math.log10(2)) for e in range(2047)])
#: 10**k rounded to float64, for k in -29..17, at k + 29.
_TEN = np.array([float(f"1e{k}") for k in range(-29, 18)])
_PREFIX = np.frombuffer(b"0.000", np.uint8).astype(np.int16)[:, None]
#: Exponent rows of decade k, for k in -29..17, at k + 29 (NUL in fixed notation).
_EXPONENT = np.array([list(b"e%+03d" % k if k < -4 or k > 16 else bytes(4))
                      for k in range(-29, 18)], np.uint8).T
#: Row numbers 0..18, as a column to compare with a count per value.
_PLANE = np.arange(19, dtype=np.int16)[:, None]


def _carry(hi: np.ndarray, lo: np.ndarray):
    """hi 1e8 + lo with lo moved into [0, 1e8), for lo in (-1e8, 2e8)."""
    c = np.floor(lo * 1e-8)  # exact: 1e-8 as a float is above 1e-8
    return hi + c, lo - 1e8 * c


def _before(count: np.ndarray, rows: int) -> np.ndarray:
    """An int16 (rows, n) array: 1 in row j where j < count, else 0.
    count - j - 1 shifted right by 15 is -1 exactly where j >= count."""
    m = count.astype(np.int16) - _PLANE[:rows]
    m -= 1
    m >>= 15
    m += 1
    return m


def _scaled(x: np.ndarray, k: np.ndarray):
    """x 10**(16 - k) as 1e8 hi + lo + frac, hi and lo integers with
    0 <= lo < 1e8 and the fraction in [0, 1), and the low part of the power
    of ten.  Dekker's exact product of x with the high part of the power
    gives ph + pl; x times its low part is added to pl, rounded.  So the
    fraction is exact when the low part is zero (k >= -6) and within 1e-14
    otherwise.  The rest is exact in float64 for a product below 2**60,
    where 1e8 hi = 5**8 hi 2**8 has under 53 significant bits."""
    h, hh, hl, tail = _POWER.take(16 - k, axis=1)
    xh, xl = _split(x)
    ph = x * h
    r = hh * xh  # ((hh xh - ph) + hl xh + hh xl) + hl xl, in place
    r -= ph
    xh *= hl
    r += xh
    hh *= xl
    r += hh
    xl *= hl
    r += xl
    r += x * tail
    whole = np.floor(r)
    r -= whole
    hi = np.floor(ph * 1e-8)  # one too small or large at worst: `_carry` mends it
    lo = ph - 1e8 * hi
    lo += whole
    return (*_carry(hi, lo), r, tail)


def _digits(x: np.ndarray):
    """The 17 digits D = round-half-even(x 10**(16 - k)) of each x in
    1e-29 < x < 1e17 as 1e8 hi + lo, its decade k, and whether its
    fraction may be too close to a half to round from the computed one.

    k comes from the binary exponent and one comparison with a power of
    ten, and moves by one where D would not have 17 digits, or where D
    rounds up to 10**17."""
    k = _DECADE.take(x.view(np.int64) >> 52)
    k = np.where(x >= _TEN.take(k + 30), k + 1, k)
    hi, lo, frac, tail = _scaled(x, k)
    low, high = hi < 1e8, hi >= 1e9
    k = np.where(low, k - 1, np.where(high, k + 1, k))
    moved = np.flatnonzero(low | high)  # missed the decade next to a power of ten
    if moved.size:
        hi[moved], lo[moved], frac[moved], tail[moved] = _scaled(x[moved], k[moved])
    up = (frac > 0.5) | ((frac == 0.5) & (lo - 2.0 * np.floor(lo * 0.5) == 1.0))  # D odd
    hi, lo = _carry(hi, np.where(up, lo + 1.0, lo))
    carry = hi == 1e9
    # within 1e-6 of a half, an inexact fraction may round the wrong way
    return (np.where(carry, 1e8, hi), lo, np.where(carry, k + 1, k),
            (np.abs(frac - 0.5) < 1e-6) & (tail != 0.0))


def _format(v: np.ndarray) -> np.ndarray:
    """The bytes of `'%.17g' % x` for each x of the 1-D float64 array `v`,
    as the column of x in a (`_WIDTH`, v.size) uint8 array, with NULs
    around and between them; a non-finite value raises ValueError as
    `fmt17` does.

    The digits of 1e-29 < |x| < 1e17 come from `_digits`.  Zero, a value
    outside that range, a non-finite one and one whose fraction is too
    close to a half are rendered by `fmt17`.  Each array row holds one text
    row of every value, so numpy works along rows.  The arithmetic keeps to
    float64, int64 and int16 loops that the projections also run, with no
    uint8 arithmetic, integer division or log10: each other numpy loop a
    first call touches maps its code into the process, about 64 KB each.
    """
    x = np.abs(v)
    fast = (x > 1e-29) & (x < 1e17)  # above 1e-29 as a float, |x| is in decade -29 or higher
    idx = np.flatnonzero(fast)
    hi, lo, k, near = _digits(x[idx])
    del x
    n = idx.size

    # rows 1..17 of `body` are the 17 digits, rows 0, 18 and 19 NUL:
    # rows 1..9 the digits of hi, rows 10..17 those of lo
    body = np.zeros((20, n), np.int16)
    pairs = body[2:18].reshape(2, 8, n)
    part = np.stack([hi, lo])
    for j in range(6, -1, -2):  # in place: allocations cost as much as the arithmetic
        q = part * 0.01
        np.floor(q, out=q)
        part -= 100.0 * q  # the last two digits
        tens = part * 0.1
        np.floor(tens, out=tens)
        pairs[:, j] = tens
        part -= 10.0 * tens
        pairs[:, j + 1] = part
        part = q
    body[1] = part[0]
    # the trailing zeros of the digits: those of lo, or 8 and those of hi
    y = np.where(lo == 0.0, hi, lo)
    zeros = np.where(lo == 0.0, 8, 0)
    for e in (8, 4, 2, 1):
        y10 = y / 10.0 ** e
        exact = y10 == np.floor(y10)
        y = np.where(exact, y10, y)
        zeros = np.where(exact, zeros + e, zeros)
    lead = np.where((k < -4) | (k > 16), 1, np.maximum(k + 1, 0))  # digits before the point
    keep = np.maximum(17 - zeros, lead)  # digits written
    body[1:18] += 48
    body[1:18] *= _before(keep, 17)  # trailing zeros after the point are NUL
    at = np.where(lead > 0, lead, 18)  # the point's row; "0." is the prefix's

    text = np.empty((_WIDTH, n), np.uint8)
    text[0] = np.where(v[idx] < 0, ord("-"), 0)
    text[1:6] = _PREFIX * _before(np.where(lead > 0, 0, 1 - k), 5)
    # digit j in row j before the point's row `at`, digit j - 1 after it
    mid = body[1:] - body[:-1]
    mid *= _before(at, 19)
    mid += body[:-1]
    mid[at, np.arange(n)] = np.where(keep > at, ord("."), 0)
    text[6:25] = mid
    text[25:] = _EXPONENT.take(k + 29, axis=1)
    if n < v.size:
        out = np.zeros((_WIDTH, v.size), np.uint8)
        out[:, idx] = text
    else:
        out = text
    for i in np.concatenate([np.flatnonzero(~fast), idx[near]]).tolist():
        out[:, i] = np.frombuffer(fmt17(float(v[i])).encode().ljust(_WIDTH, b"\0"), np.uint8)
    return out


def _rows(fields: np.ndarray, pieces) -> str:
    """Rows of text from `fields`, a (c, m) float64 array with the c fields
    of row i in column i: row i is pieces[0], the `%.17g` of fields[0, i],
    pieces[1], ..., the `%.17g` of fields[c - 1, i] and pieces[c].  A
    non-finite value raises ValueError as `fmt17` does.  Callers pass about
    `_BLOCK` values at a time."""
    c, m = fields.shape
    text = _format(fields.ravel()).reshape(_WIDTH, c, m)
    out = np.empty((sum(map(len, pieces)) + c * _WIDTH, m), np.uint8)  # column i is row i
    at = 0
    for j, piece in enumerate(pieces):
        out[at:at + len(piece)] = np.frombuffer(piece.encode(), np.uint8)[:, None]
        at += len(piece)
        if j < c:
            out[at:at + _WIDTH] = text[:, j]
            at += _WIDTH
    del text
    data = out.T.tobytes()
    del out
    return data.translate(None, b"\0").decode()


def _table(fields: np.ndarray, pieces, end: str):
    """The text of `_rows(fields, pieces)`, with `end` in place of the last
    row's final piece, in blocks of about `_BLOCK` values."""
    c, m = fields.shape
    step = max(1, _BLOCK // c)
    for i in range(0, m, step):
        block = _rows(fields[:, i:i + step], pieces)
        yield block if i + step < m else block[:len(block) - len(pieces[-1])] + end


def _array(obj: np.ndarray):
    """The text of a nonempty float64 array of one or two axes in pieces:
    its brackets and its rows, about `_BLOCK` values at a time."""
    fields = obj.reshape(len(obj), -1).T
    pieces = ("", ", ") if obj.ndim == 1 else ("[", *[", "] * (len(fields) - 1), "], ")
    yield "["
    yield from _table(fields, pieces, "]" * obj.ndim)  # the last row closes the array


def _pieces(obj, indent: int):
    """The text of `obj` as `render_json` renders it, in pieces: a float
    array a block of rows at a time."""
    if obj is None or obj is True or obj is False or isinstance(obj, str):
        yield json.dumps(obj)
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        yield fmt17(obj)
    elif isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim in (1, 2) and obj.size:
            yield from _array(obj)
        else:
            yield from _pieces(obj.tolist(), indent)
    elif isinstance(obj, (list, tuple)):
        yield "["
        for i, v in enumerate(obj):
            if i:
                yield ", "
            yield from _pieces(v, indent)
        yield "]"
    elif isinstance(obj, dict):
        pad = " " * indent
        yield "{\n"
        for i, (k, v) in enumerate(obj.items()):
            yield (",\n" if i else "") + f'{pad}  {json.dumps(str(k))}: '
            yield from _pieces(v, indent + 2)
        yield "\n" + pad + "}"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_json(obj) -> str:
    """Render JSON with fmt17 floats.  Supports dict/list/str/bool/None/numbers
    and numpy arrays; an array takes the bytes of its `tolist()`."""
    return "".join(_pieces(obj, 0))


def dump_json(obj, stream) -> None:
    """Write `render_json(obj)` to `stream` a piece at a time, so a large
    array is never held as one string."""
    for piece in _pieces(obj, 0):
        stream.write(piece)
