"""Decimal text of float64 arrays, byte for byte what ``repr`` writes.

``format_rows(block)`` returns the ASCII bytes of
``"".join(",".join(map(repr, row)) + "\\n" for row in block.tolist())``
without a Python call per value.  ``repr`` of a float is the shortest
decimal that reads back as the same double, the nearest one when several
are that short (Steele & White 1990, Gay 1990), written in fixed notation
for decimal exponents -4 < decpt <= 16 and in exponent notation otherwise.

The kernel follows Loitsch ("Printing floating-point numbers quickly and
accurately", PLDI 2010): fast arithmetic whose digits are certified, and the
exact algorithm (``repr`` itself) for every value it cannot certify.  Its
fast path takes finite x with 1e-99 <= |x| < 1e16 that is not a power of
two, so that both neighbours of x are one ulp u away (``shortest``):

1. Scale: T = |x| 10^k lands in [1e16, 1e17), k from log10.  10^k is H + L
   to 106 bits, from exact integer arithmetic (``_pow10``); Dekker's split
   gives |x| H exactly as p + q, and |x| L is added to q.  p is an integer
   (its ulp is at least 2), so T = N + r with the integer N = p + rint(q +
   |x| L), |r| <= 1/2 and an error below 2^-47.  Where log10 misjudged a
   power of ten, N falls outside [1e16, 1e17) and x goes to ``repr``.
2. Interval: every real in (T - h, T + h), h = u 10^k / 2, reads back as x;
   an end reads back or not by round-half-even.  In these units a decimal
   of at most 17 significant digits is an integer, and one whose last digit
   sits at 10^j is a multiple of 10^j, so the shortest decimal inside is a
   multiple of 10^j for the largest level j (0..17) with a multiple inside.
   As 1.1 < 2h < 23, N is inside, and the interval holds a multiple of 10
   (of 100) exactly when the one nearest T is within h of it.  At j <= 1
   several multiples may lie inside and ``repr`` takes the nearest (N at
   j = 0, T rounded to tens at j = 1); from j = 2 on there is one, the
   multiple of 100 nearest T, and the zeros that end it give j.
3. Certify: the multiples of 10 and 100 nearest T are more than ``_BOUND``
   = 2^-40 from the interval's ends, so both "within h" tests are decided
   right and no candidate sits on an end; and T is more than ``_BOUND`` from
   the midpoint of two integers and of two multiples of 10, the ties of
   j = 0 and j = 1 (at other levels this sends a few more values to
   ``repr`` than it needs to).  The kernel's own error in these tests is
   below 2^-45: each decision is a float operation on operands below 2^7
   (T less N rounded down to hundreds), after the 2^-47 of step 1 and the
   2^-53 relative error of H in h.  So the exact ties go to ``repr``, and so
   does every value with a candidate within the error of an end.

Each value becomes a 24-byte record of three little-endian words, with a
NUL byte wherever a character is absent, and one ``bytes.translate`` drops
the NULs of a whole block (``_records``).  Byte 0 holds the separator that
comes before the value (none before a block's first value; one more record
holds the block's last newline), byte 1 the sign, bytes 2..6 the "0." and
up to three zeros of fixed notation below 1, right-aligned, and bytes 7..23
the 17 digits of M, eight to a word from byte 8, read four at a time from a
table of ASCII digit quadruples.  Tables indexed by decimal exponent and
digit count (``_layout_tables``) give the first word and the masks that keep
the shown digits and set the point (``_layout``): the digits before the
point move down one byte to make room for it, and exponent notation moves
the whole text down four more bytes to put "e", the sign and two digits in
bytes 20..23.  Every fast value's text fits: at most 23 characters.

Zeros are written as "0.0" and "-0.0" without ``shortest``.  The zeros and
the values that go to ``repr`` are the slow ones.  A block where they are
few formats every value, a stand-in for each slow one, then overwrites
their records; a block where at least one value in ``_FEW_SLOW`` is slow
formats only its fast values and scatters their records among zero
records.  ``repr`` writes the values the kernel does not certify, and the
non-finite, subnormal and out-of-range values (3-digit exponents,
|x| >= 1e16) and powers of two.  On a backtest chunk's eight hedge series
about one value in a thousand falls back (the column of 1.0s in
``S_stopped``).  A ``repr`` of 24 characters (negative, 17 digits, 3-digit
exponent) does not fit its record and is spliced into the block's text.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["format_rows"]

_BOUND = 2.0 ** -40     # certification margin, units of 10^-k (see the docstring)
_MAX_K = 116            # 10^k for |x| >= 1e-99, one to spare for log10's rounding
_SPLIT = 134217729.0    # 2^27 + 1, Dekker's splitter
_LO, _HI = 1e-99, 1e16  # the fast range
_DP_MIN, _DP_MAX = -98, 17   # its decpt: 1e-99 has -98, 1e16 less an ulp rounds to 1e+16
_N_LO, _N_HI = 10 ** 16, 10 ** 17
_U = np.uint64
_MAG = _U(2 ** 63 - 1)
_LO_BITS = _U(np.float64(_LO).view(np.uint64))
_FAST_SPAN = _U(np.float64(_HI).view(np.uint64)) - _LO_BITS
_RECORD = 24            # bytes per value, three words
# at least one value in _FEW_SLOW zero or falling back: format only the fast ones
# (compacting the block costs about as much as formatting 1 value in 6 to 10)
_FEW_SLOW = 8
_ZERO = (_U(0x2E30 << 48), _U(ord("0")))   # "0.0": "0" in byte 6, "." in 7, "0" in 8
_NONE = np.empty(0, np.intp)


def _split(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


@functools.cache
def _pow10():
    """10^k for k = 0.._MAX_K as H + L to 106 bits, with H's Dekker halves."""
    exact = [10 ** k for k in range(_MAX_K + 1)]
    H = np.array([float(v) for v in exact])
    L = np.array([float(v - int(h)) for v, h in zip(exact, H)])
    return H, *_split(H), L


def _scaled(a, k):
    """T = a 10^k as N + r, N an integer and |r| <= 1/2, and the half-width
    h of the interval that reads back as a, in the same units (step 1):
    p = fl(a H), plus the rest of a H and a L."""
    H, Hh, Hl, L = _pow10()
    H_k, Hh, Hl = H[k], Hh[k], Hl[k]
    p = a * H_k
    ah, al = _split(a)
    s = ((ah * Hh - p) + ah * Hl + al * Hh) + al * Hl + a * L[k]
    si = np.rint(s)
    h = H_k * (((a.view(np.int64) >> 52) - 53) << 52).view(np.float64)
    return p.astype(np.int64) + si.astype(np.int64), s - si, h


def _rounded(N, r, h):
    """The candidate ``repr`` takes at j <= 2 (step 2), whether a multiple of
    10 and of 100 lies in the interval, and whether the decisions are
    certified (step 3).  The multiples of 10 and 100 nearest T are found at
    t = T - base, base being N rounded down to hundreds."""
    base = N // 100 * 100
    n100 = (N - base).astype(np.float64)
    t = n100 + r
    t10 = np.rint(t / 10) * 10
    t100 = np.rint(t / 100) * 100
    off10 = np.abs(t - t10)
    past10, past100 = off10 - h, np.abs(t - t100) - h
    ten, hundred = past10 < 0, past100 < 0
    M = base + np.where(hundred, t100, np.where(ten, t10, n100)).astype(np.int64)
    ok = ((np.minimum(np.abs(past10), np.abs(past100)) > _BOUND)
          & (np.abs(r) < 0.5 - _BOUND) & (off10 < 5 - _BOUND)     # no tie at j <= 1
          & ((N - _N_LO).view(np.uint64) < _N_HI - _N_LO))    # log10 judged k right
    return M, ten, hundred, ok


def shortest(a: np.ndarray):
    """Shortest round-trip digits of doubles 1e-99 <= a < 1e16, no power of two.

    Returns (M, nd, decpt, ok): the nd significant digits of ``repr`` padded
    with zeros to the 17-digit integer M, the decimal exponent decpt of
    0.d1d2... x 10^decpt, and whether the kernel certified them; where ``ok``
    is False the other three are meaningless.
    """
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    M, ten, hundred, ok = _rounded(*_scaled(a, k))
    nd = 17 - ten.astype(np.int64)            # j = 0 or 1
    deep = np.flatnonzero(hundred)            # j = 2 plus the zeros ending M / 100
    q = M[deep] // 100
    j = np.full(deep.size, 2)
    for level in (8, 4, 2, 1):                # up to 15 zeros
        q_next = q // 10 ** level
        z = q == q_next * 10 ** level
        j += z * level
        q = np.where(z, q_next, q)
    nd[deep] = 17 - j
    dp = 17 - k
    carry = np.flatnonzero(M >= _N_HI)          # rounded to 10^17: one digit
    M[carry], nd[carry] = _N_LO, 1
    dp[carry] += 1
    return M, nd, dp, ok


def _low_bytes(n):
    """Words whose n (clipped to 0..8) low bytes are 0xFF."""
    return (_U(1) << 8 * np.clip(n, 0, 8).astype(np.uint64)) - _U(1)


@functools.cache
def _layout_tables():
    """The lookup tables of ``_layout``.

    ``quads[q]`` is the ASCII text of 0 <= q < 10^4 with four digits, the
    first in the low byte.  The others are indexed by the class
    c = (decpt - _DP_MIN) * 17 + nd - 1: ``lead[10 c + d0]`` is word 0 with
    the first digit d0, and words 1 and 2 are the digit words w & A | K,
    plus (w & B) moved down one byte where the point comes after the second
    digit.  ``expo[decpt - _DP_MIN]`` is "e", the sign and two digits of the
    exponent in the high half-word.
    """
    pairs = np.arange(100, dtype=np.uint64)
    pairs = pairs // 10 + ord("0") | (pairs % 10 + ord("0")) << 8
    quads = (pairs[:, None] | pairs << 16).ravel()
    dp, nd = np.divmod(np.arange((_DP_MAX - _DP_MIN + 1) * 17), 17)
    dp, nd = dp + _DP_MIN, nd + 1
    fixed = (-3 <= dp) & (dp <= 16)
    below_1 = fixed & (dp <= 0)         # "0." and -dp zeros, then d0 in byte 7
    point = np.where(below_1, 0, np.where(fixed, dp, 1))   # after digit ``point``
    shown = np.where(fixed & ~below_1, np.maximum(nd, dp + 1), nd)
    first = np.maximum(point, 1)        # the first digit from byte 8 left in place
    dot = np.where(~below_1 & (fixed | (nd > 1)), 6 + point, 24)   # 24: no point
    K = [np.where(dot // 8 == w, _U(ord(".")) << (dot % 8 * 8).astype(np.uint64), _U(0))
         for w in range(3)]
    prefixes = [int.from_bytes(("0." + "0" * z).rjust(7, "\0").encode(), "little")
                for z in range(4)]
    K[0] |= np.where(below_1, np.array(prefixes, np.uint64)[np.clip(-dp, 0, 3)], _U(0))
    d0_shift = np.where(below_1, 56, 48).astype(np.uint64)
    lead = (np.arange(ord("0"), ord("0") + 10, dtype=np.uint64) << d0_shift[:, None]
            | K[0][:, None]).ravel()
    e10 = np.arange(_DP_MIN, _DP_MAX + 1) - 1
    expo = np.array([int.from_bytes(f"e{e:+03d}".encode(), "little") << 32 for e in e10],
                    dtype=np.uint64)
    return (quads, expo, lead,
            _low_bytes(shown - 1) & ~_low_bytes(first - 1),
            _low_bytes(shown - 9) & ~_low_bytes(first - 9),
            _low_bytes(point - 1), _low_bytes(point - 9), K[1], K[2])


def _layout(M, nd, dp):
    """The three words of each certified value's record, without separator
    and sign (see the module docstring)."""
    quads, expo, lead, A1, A2, B1, B2, K1, K2 = _layout_tables()
    cls = dp * 17 + (nd - 1 - 17 * _DP_MIN)
    M = M.view(np.uint64)
    top = M // 10 ** 8
    low = M - top * 10 ** 8
    d0 = top // 10 ** 8
    top -= d0 * 10 ** 8
    q = top // 10 ** 4
    d1 = quads[q.view(np.int64)] | quads[(top - q * 10 ** 4).view(np.int64)] << 32
    q = low // 10 ** 4
    d2 = quads[q.view(np.int64)] | quads[(low - q * 10 ** 4).view(np.int64)] << 32
    w0 = lead[cls * 10 + d0.view(np.int64)]
    w1 = d1 & A1[cls]
    w2 = d2 & A2[cls]
    dp_min, dp_max = dp.min(), dp.max()
    if dp_max >= 2:                     # the point after the second digit or later
        b1, b2 = d1 & B1[cls], d2 & B2[cls]
        w0 |= b1 << 56
        w1 |= b1 >> 8 | b2 << 56 | K1[cls]
        w2 |= b2 >> 8 | K2[cls]
    if dp_min < -3 or dp_max > 16:      # exponent notation
        e = np.flatnonzero((dp + 3).view(np.uint64) > 19)    # decpt not in -3..16
        x0, x1, x2 = w0[e], w1[e], w2[e]
        w0[e] = x0 >> 32 | x1 << 32
        w1[e] = x1 >> 32 | x2 << 32
        w2[e] = x2 >> 32 | expo[dp[e] - _DP_MIN]
    return w0, w1, w2


def _certified(a):
    """The three words of the records of doubles 1e-99 <= a < 1e16, no power
    of two, and the positions of those the kernel did not certify."""
    M, nd, dp, ok = shortest(a)
    return *_layout(M, nd, dp), _NONE if ok.all() else np.flatnonzero(~ok)


def _records(x, n_cols):
    """(n + 1, 3) words: each value's record, then the last newline; and the
    (index, text) of the values whose text does not fit a record."""
    n = x.size
    bits = x.view(np.uint64)
    mag = bits & _MAG
    fast = (mag - _LO_BITS < _FAST_SPAN) & (bits << _U(12) != 0)   # in range, no power of two
    n_slow = n - np.count_nonzero(fast)
    slow = np.flatnonzero(~fast) if n_slow else _NONE
    zero = mag[slow] == 0
    if n_slow * _FEW_SLOW < n:          # format every value, then overwrite the slow few
        a = mag.view(np.float64)
        a[slow] = 1.5
        w0, w1, w2, failed = _certified(a)
        if n_slow:
            w0[slow[zero]], w1[slow[zero]], w2[slow[zero]] = *_ZERO, 0
    else:                               # format the fast values, scatter them
        w0, w1, w2 = np.full(n, _ZERO[0]), np.full(n, _ZERO[1]), np.zeros(n, np.uint64)
        failed = idx = np.flatnonzero(fast)
        if idx.size:
            w0[idx], w1[idx], w2[idx], failed = _certified(mag[idx].view(np.float64))
            failed = idx[failed]
    by_repr = np.concatenate([failed, slow[~zero]])
    sep = np.full(n, ord(","), np.uint64)
    sep[::n_cols] = ord("\n")
    sep[0] = 0
    words = np.empty((n + 1, 3), np.uint64)
    np.bitwise_or(w0, (bits >> _U(63)) * _U(ord("-") << 8) | sep, out=words[:n, 0])
    words[:n, 1] = w1
    words[:n, 2] = w2
    words[n] = (ord("\n"), 0, 0)       # the block's last newline
    wide = []
    if by_repr.size:
        texts = [repr(v) for v in x[by_repr].tolist()]
        wide = [(i, t) for i, t in zip(by_repr.tolist(), texts) if len(t) >= _RECORD]
        text = words.view(np.uint8).reshape(n + 1, _RECORD)
        text[by_repr, 1:] = np.array([t if len(t) < _RECORD else "" for t in texts],
                                 dtype=f"S{_RECORD - 1}").view(np.uint8).reshape(-1, _RECORD - 1)
    return words, sorted(wide)


def _compact(words) -> bytes:
    return words.tobytes().translate(None, b"\0")


def format_rows(block: np.ndarray) -> bytes:
    """The CSV text of a 2-D float64 block, as ASCII bytes: each value's
    ``repr``, joined by commas, each row ended by a newline."""
    block = np.asarray(block, dtype=np.float64)
    n_rows, n_cols = block.shape
    if n_cols == 0 or n_rows == 0:
        return b"\n" * n_rows
    words, wide = _records(np.ascontiguousarray(block).ravel(), n_cols)
    parts, start = [], 0
    for i, text in wide:                # the record holds the separator before
        parts += [_compact(words[start:i + 1]), text.encode("ascii")]
        start = i + 1
    parts.append(_compact(words[start:]))
    return b"".join(parts)
