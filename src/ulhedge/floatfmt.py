"""Decimal text of float64 arrays, byte for byte what ``repr`` writes.

``format_rows(block)`` returns ``"".join(",".join(map(repr, row)) + "\\n"
for row in block.tolist())`` without a Python call per value.  ``repr`` of a
float is the shortest decimal that reads back as the same double, the
nearest one when several are that short (Steele & White 1990, Gay 1990),
written in fixed notation for decimal exponents -4 < decpt <= 16 and in
exponent notation otherwise.

The kernel follows Loitsch ("Printing floating-point numbers quickly and
accurately", PLDI 2010): fast arithmetic whose digits are certified, and the
exact algorithm (``repr`` itself) for every value it cannot certify.  Its
fast path takes finite x with 1e-280 <= |x| < 1e16 that is not a power of
two, so that both neighbours of x are one ulp u away (``shortest``):

1. Scale: T = |x| 10^k lands in [1e16, 1e17) (k from log10, fixed once if
   log10 misjudged a power of ten).  10^k is H + L to 106 bits, from exact
   integer arithmetic (``_pow10``); Dekker's split gives |x| H exactly as
   p + q, and |x| L is added to q.  p is an integer (its ulp is at least 2),
   so T = N + r with the integer N = p + rint(q + |x| L), |r| <= 1/2 and an
   error below 2^-47.
2. Interval: every real in (T - h, T + h), h = u 10^k / 2, reads back as x.
   In these units a decimal of at most 17 significant digits is an integer,
   and one whose last digit sits at 10^j is a multiple of 10^j, so the
   shortest decimal inside is a multiple of 10^j for the largest level j
   (0..17) with a multiple inside.  ``_level`` finds that level from the
   integers bot..top inside the interval.  At j <= 1 several multiples may
   lie inside and ``repr`` takes the nearest (N at j = 0, T rounded to tens
   at j = 1); from j = 2 on there is one.
3. Certify: both ends of the interval are more than ``_BOUND`` = 2^-40 from
   an integer, so bot..top are exactly the integers inside; and at j <= 1,
   T is more than ``_BOUND`` from the midpoint of two candidates.  The
   kernel's own error in these tests is below 2^-46: each decision is a
   float operation on operands below 2^4, after the 2^-47 of step 1 and the
   2^-53 relative error of H in h.  So the exact ties go to ``repr``, and so
   does every value with an interval end on a decimal of 17 digits, where
   round-half-even reading decides whether the end reads back as x.

Zeros are written directly; non-finite, subnormal and out-of-range values
and powers of two go to ``repr`` too.  On a backtest chunk's eight hedge
series about one value in a thousand falls back (the column of 1.0s in
``S_stopped``).  Each value's text is laid out in four 64-bit words with a
NUL byte wherever a character is absent (``_padded_text``), and one
``bytes.translate`` drops the NULs of a whole block.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["format_rows"]

_BOUND = 2.0 ** -40     # certification margin, units of 10^-k (see the docstring)
_MAX_K = 297            # 10^k for |x| >= 1e-280 after a one-step scale fix
_SPLIT = 134217729.0    # 2^27 + 1, Dekker's splitter
_LO, _HI = 1e-280, 1e16
_N_LO, _N_HI = 10 ** 16, 10 ** 17

# one value's text is 32 bytes, four little-endian words, and a NUL is
# dropped: the sign (byte 0), "0." and up to three zeros (1..5, fixed
# notation below 1), 17 digits from byte 7 with the point shifting the digits
# after it up by one byte (7..24), "e", the exponent's sign and three digits
# (25..29) and the separator (30)
_SEP = 30
_RAW = 24               # the longest repr of a float64, copied to bytes 0..23
_U = np.uint64
_ALL = _U(2 ** 64 - 1)
_DOT = _U(ord("."))


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
    """a 10^k as p + s: p = fl(a H), s = the rest of a H plus a L."""
    H, Hh, Hl, L = _pow10()
    p = a * H[k]
    ah, al = _split(a)
    q = ((ah * Hh[k] - p) + ah * Hl[k] + al * Hh[k]) + al * Hl[k]
    return p, q + a * L[k]


def _level(top, width):
    """Largest j in 0..17 with top mod 10^j <= width (a multiple of 10^j lies
    in [top - width, top]), and top mod 10^j at that level where j >= 2.

    The test is monotone in j; levels past 2 run on the few values that
    reach them."""
    rem = top - top // 100 * 100
    j = (rem - rem // 10 * 10 <= width).astype(np.int64)
    j += rem <= width
    deep = np.flatnonzero(j == 2)
    t, w, jd, rd = top[deep], width[deep], j[deep], rem[deep]
    for level in range(3, 18):
        r = t - t // 10 ** level * 10 ** level
        fits = r <= w
        if not fits.any():
            break
        jd += fits
        rd = np.where(fits, r, rd)
    j[deep], rem[deep] = jd, rd
    return j, rem


def shortest(a: np.ndarray):
    """Shortest round-trip digits of doubles 1e-280 <= a < 1e16, no power of two.

    Returns (M, nd, decpt, ok): the nd significant digits of ``repr`` padded
    with zeros to the 17-digit integer M, the decimal exponent decpt of
    0.d1d2... x 10^decpt, and whether the kernel certified them; where ``ok``
    is False the other three are meaningless.
    """
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    p, s = _scaled(a, k)
    off = (p < 1e16) | (p >= 1e17)            # log10 misjudged a power of ten
    if off.any():
        k[off] += np.where(p[off] < 1e16, 1, -1)
        p[off], s[off] = _scaled(a[off], k[off])
    si = np.rint(s)
    N = p.astype(np.int64) + si.astype(np.int64)
    r = s - si
    half_ulp = (((a.view(np.int64) >> 52) - 53) << 52).view(np.float64)
    h = _pow10()[0][k] * half_ulp
    lo_end, hi_end = r - h, r + h
    ok = ((np.abs(lo_end - np.rint(lo_end)) > _BOUND)
          & (np.abs(hi_end - np.rint(hi_end)) > _BOUND)
          & (N >= _N_LO))
    top_off = np.floor(hi_end).astype(np.int64)
    j, rem = _level(N + top_off, top_off - np.ceil(lo_end).astype(np.int64))

    # the nearest multiple of 10^j: N itself at j = 0, the rounding of T to
    # tens at j = 1 (two candidates may lie inside), the one multiple in the
    # interval from j = 2 on
    n10 = N - N // 10 * 10
    tie = (n10 - 5) + r
    ten = j == 1
    deep = j >= 2
    M = N + deep * (top_off - rem) + ten * ((tie >= 0.0) * 10 - n10)
    ok &= deep | (np.where(ten, np.abs(tie), 0.5 - np.abs(r)) > _BOUND)
    carry = M >= _N_HI                          # rounded to 10^17: one digit
    M -= carry * (_N_HI - _N_LO)
    return M, 17 - j + carry, 17 - k + carry, ok


def _ascii8(v):
    """The eight ASCII digits of each v < 10^8 (uint64), the first in the low
    byte: split into 4-digit lanes, then 2-digit, then 1-digit lanes, each
    quotient by a multiply and shift that is exact over its lane's range."""
    hi = v // _U(10000)
    x = hi | (v - hi * _U(10000)) << _U(32)
    y = (x * _U(5243)) >> _U(19) & _U(0x0000007F0000007F)
    x = y | (x - y * _U(100)) << _U(16)
    y = (x * _U(103)) >> _U(10) & _U(0x000F000F000F000F)
    return (y | (x - y * _U(10)) << _U(8)) + _U(0x3030303030303030)


def _u64(v):
    return np.asarray(v).astype(np.uint64)


def _low_bytes(word, n):
    """The n (0..8) low bytes of each word, the others zeroed (numpy shifts a
    uint64 by 64 or more to 0)."""
    return word & ~(_ALL << _U(8) * n)


def _padded_text(x, n_cols):
    """(n, 32) bytes: each value's text and separator, NUL where no character."""
    n = x.size
    a = np.abs(x)
    fast = (a >= _LO) & (a < _HI) & (a.view(np.int64) & (2 ** 52 - 1) != 0)
    if fast.all():
        M, nd, dp, ok = shortest(a)
        raw = ~ok
    else:                                       # zeros keep M = 0, nd = dp = 1
        M, nd, dp = np.zeros(n, np.int64), np.ones(n, np.int64), np.ones(n, np.int64)
        idx = np.flatnonzero(fast)
        M[idx], nd[idx], dp[idx], ok = shortest(a[idx])
        raw = a != 0.0
        raw[idx] = ~ok
    fixed = (dp >= -3) & (dp <= 16)
    lead = fixed & (dp <= 0)
    # digits shown: nd, or in fixed notation at or above the last digit the
    # padding zeros up to the point and one after it; the point goes before
    # digit ``point`` (99: no point)
    shown = _u64(np.where(fixed & (dp >= nd), dp + 1, nd))
    point = _u64(np.where(fixed, np.where(dp >= 1, dp, 99), np.where(nd > 1, 1, 99)))

    # digit i in byte 7 + i: the first in word 0, then eight in each of words
    # 1 and 2; the point in byte 7 + point moves the bytes from there up one
    M = M.astype(np.uint64)
    d0 = M // _U(10 ** 16)
    rest = M - d0 * _U(10 ** 16)
    hi = rest // _U(10 ** 8)
    w1 = _low_bytes(_ascii8(hi), np.minimum(shown - _U(1), _U(8)))
    w2 = _low_bytes(_ascii8(rest - hi * _U(10 ** 8)),
                    np.minimum(np.maximum(shown, _U(9)) - _U(9), _U(8)))
    cut1 = np.minimum(point - _U(1), _U(8))
    cut2 = np.minimum(np.maximum(point, _U(9)) - _U(9), _U(8))
    up1 = w1 & (_ALL << _U(8) * cut1)
    up2 = w2 & (_ALL << _U(8) * cut2)
    sep = np.full(n, ord(","), np.uint64)
    sep[n_cols - 1::n_cols] = ord("\n")
    words = np.empty((n, 4), np.uint64)
    words[:, 0] = ((d0 + _U(ord("0"))) << _U(56) | _u64(np.signbit(x)) * _U(ord("-"))
                   | _u64(lead) * _U(0x2E3000)                           # "0."
                   | _low_bytes(_U(0x303030), _u64(np.where(lead, -dp, 0))) << _U(24))
    words[:, 1] = (w1 ^ up1) | up1 << _U(8) | _DOT << _U(8) * cut1
    words[:, 2] = ((w2 ^ up2) | up2 << _U(8) | up1 >> _U(56)
                   | (point >= _U(9)) * (_DOT << _U(8) * cut2))
    words[:, 3] = up2 >> _U(56) | sep << _U(8 * (_SEP - 24))

    expo = np.flatnonzero(~fixed)
    if expo.size:
        e10 = dp[expo] - 1
        e_digits = _ascii8(_u64(np.abs(e10))) >> _U(40)      # the last three
        e_digits &= np.where(e10 > -100, _U(0xFFFF00), _U(0xFFFFFF))
        sign = _u64(np.where(e10 < 0, ord("-"), ord("+")))
        words[expo, 3] |= _U(ord("e") << 8) | sign << _U(16) | e_digits << _U(24)

    text = words.view(np.uint8)
    if raw.any():
        rows = np.flatnonzero(raw)
        reprs = [repr(v) for v in x[rows].tolist()]
        text[rows, :_SEP] = 0
        text[rows, :_RAW] = np.array(reprs, dtype=f"S{_RAW}").view(np.uint8).reshape(-1, _RAW)
    return text


def format_rows(block: np.ndarray) -> str:
    """The CSV text of a 2-D float64 block: each value's ``repr``, joined by
    commas, each row ended by a newline."""
    block = np.asarray(block, dtype=np.float64)
    n_rows, n_cols = block.shape
    if n_cols == 0 or n_rows == 0:
        return "\n" * n_rows
    text = _padded_text(np.ascontiguousarray(block).ravel(), n_cols).tobytes()
    return text.translate(None, b"\0").decode("ascii")
