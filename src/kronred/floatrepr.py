"""CSV lines of float64 blocks, byte for byte as Python's float repr writes them.

csv_body(block) is ",".join(map(repr, row)) + "\\n" over the rows of a
(rows, cols) float64 block, as ASCII bytes, computed in numpy. repr prints
the shortest digits that read back to the double, the nearest of them.
Ryu (U. Adams, PLDI 2018, doi:10.1145/3192366.3192369) finds them in
integer arithmetic: for a double 4 m2 2^e2, m2 its 53-bit significand,
the bounds of the interval that rounds to it, scaled by 10^-e10, are
vm < vr < vp, the floors of m 5^i / 2^q for m = 4 m2 + (-1 or -2, 0, 2).
Removing the k digits on which vp and vm differ and rounding vr gives the
digits; the decimal exponent is e10 + k.

The fast path is Ryu's e2 < 0 branch without its trailing-zero cases:
normal doubles below 2^50 whose interval bounds are not exact decimals
there. A row with any other value (+-0.0, subnormals, nan, inf, 2^50 and
above, round values such as 0.5 or 120.0) is left to repr. A fast value
is never integral and below 10^16, so its layout is repr's 0.000ddd or
ddd.ddd (-4 < decpt <= 16) or d.ddde-XX (two exponent digits or more).
"""

import functools

import numpy as np

_U = np.uint64
_POW10 = _U(10) ** np.arange(20, dtype=_U)

# 5^i / 2^q keeps 121 fraction bits, no fewer than Ryu's 125-bit table at any
# fast-path exponent (118-121), so each product has Ryu's floor, the exact one.
_SHIFT = 121

# A value is laid out in 56 bytes: 2 pad, "-", 21 digits (a 0, then five
# four-digit groups), 3 pad, ".", the same 20 digits, "e-", 3 exponent
# digits, the separator, 2 pad. A mask keyed by (sign, first digit, digit
# before the dot, exponent digits) keeps the digits up to the dot from the
# first copy and the rest from the second: a few runs, one compress.
_DIGITS = 21


@functools.cache
def _tables():
    """Per biased exponent E: 5^i / 2^q in 32-bit limbs, e10, and the m2 bits
    of Ryu's trailing-zero test (0 off the fast path); the layout's parts."""
    limbs = np.zeros((4, 2048), dtype=_U)
    e10 = np.zeros(2048, dtype=np.int64)
    low = np.zeros(2048, dtype=_U)
    for E in range(1, 1073):
        e2 = E - 1077
        q = (-e2 * 732923 >> 20) - 1  # floor(-e2 log10 5) - 1, Ryu's q
        scaled = 5 ** (-e2 - q) << _SHIFT >> q
        limbs[:, E] = [scaled >> s & 0xFFFFFFFF for s in (0, 32, 64, 96)]
        e10[E] = q + e2
        low[E] = (1 << min(q - 2, 53)) - 1  # m2 & low == 0: 2^q divides 4 m2
    groups = np.frombuffer("".join(f"{g:04d}" for g in range(10_000)).encode(), dtype=np.uint32)
    exps = np.frombuffer(b"".join(b"e-%03d,\0\0" % e for e in range(400)), dtype=_U)
    neg, start, dot, tail = (a.ravel() for a in np.meshgrid(
        [0, 1], range(_DIGITS), range(-1, _DIGITS), range(3), indexing="ij"))
    i = np.arange(_DIGITS)
    end = np.where(dot < 0, _DIGITS - 1, dot)[:, None]  # no dot: a single digit
    masks = np.zeros((neg.size, 56), dtype=bool)
    masks[:, 2] = neg
    masks[:, 3:24] = (i >= start[:, None]) & (i <= end)
    masks[:, 27:48] = (i > end) & (i > 0)
    masks[:, 27] = dot >= 0
    masks[:, [48, 49, 51, 52]] = (tail > 0)[:, None]
    masks[:, 50] = tail == 2
    masks[:, 53] = True
    return limbs, e10, low, groups, exps, masks


def csv_body(block):
    """The CSV lines of the rows of a (rows, cols) float64 block, as bytes."""
    bits = np.ascontiguousarray(block, dtype=np.float64).view(_U)
    low = _tables()[2].take((bits >> _U(52) & _U(0x7FF)).astype(np.intp))
    fast = ((bits | _U(1 << 52)) & low != 0).all(axis=1)  # rows of fast-path values
    if fast.all():
        return _format(bits).tobytes()
    text = _format(bits[fast]) if fast.any() else np.empty(0, dtype=np.uint8)
    ends = np.concatenate([[0], np.flatnonzero(text == ord("\n")) + 1])
    cuts = [0, *(np.flatnonzero(np.diff(fast)) + 1).tolist(), fast.size]
    out, done = [], 0  # done: fast rows written
    for a, b in zip(cuts, cuts[1:]):
        if fast[a]:
            out.append(text[ends[done]:ends[done + b - a]].tobytes())
            done += b - a
        else:
            rows = bits[a:b].view(np.float64).tolist()
            out.append("".join([",".join(map(repr, row)) + "\n" for row in rows]).encode("ascii"))
    return b"".join(out)


def _format(bits):
    """The CSV lines of a (rows, cols) block of fast-path values' bits, as uint8."""
    _, _, _, groups, exps, masks = _tables()
    digits, olength, decpt = _shortest(bits.ravel())
    sci = decpt <= -4
    first = _DIGITS - olength
    start = np.where(sci, first, first + np.minimum(decpt - 1, 0))
    dot = np.where(sci, np.where(olength > 1, first, -1), first + decpt - 1)
    neg = (bits.ravel() >> _U(63)).astype(np.intp)
    key = ((neg * _DIGITS + start) * (_DIGITS + 1) + dot + 1) * 3 + sci * (1 + (decpt <= -99))
    words = np.empty((digits.size, 7), dtype=_U)
    quads = words.view(np.uint32)
    quads[:, [0, 6]] = np.frombuffer(b"\0\0-0\0\0\0.", dtype=np.uint32)
    for j, p in enumerate((16, 12, 8, 4, 0), 1):
        quads[:, j] = quads[:, j + 6] = groups.take((digits // _POW10[p] % _U(10_000)).astype(np.intp))
    words[:, 6] = exps.take(np.where(sci, 1 - decpt, 0))  # the separator ","
    chars = words.view(np.uint8).reshape(bits.shape + (56,))
    chars[:, -1, 53] = ord("\n")
    return chars.reshape(-1, 56)[masks.take(key, axis=0)]


def _shortest(bits):
    """(digits, their count, decpt) of fast-path values' bits: each is
    0.<digits> times 10^decpt, with the fewest digits that read back."""
    limbs, e10, *_ = _tables()
    E = (bits >> _U(52) & _U(0x7FF)).astype(np.intp)
    mant = bits & _U((1 << 52) - 1)
    vr, vp, vm = _bounds((mant | _U(1 << 52)) << _U(2), (mant != 0) | (E == 1), limbs[:, E])
    k = np.zeros(bits.size, dtype=np.intp)  # digits removed: the p >= 1 with vp // 10^p > vm // 10^p
    for p in range(1, 20):
        more = vp // _POW10[p] > vm // _POW10[p]
        if not more.any():
            break
        k += more
    scale = _POW10.take(k)
    digits = vr // scale
    digits += (digits == vm // scale) | (_U(2) * (vr - digits * scale) >= scale)
    olength = np.searchsorted(_POW10, digits, side="right")
    return digits, olength, e10.take(E) + k + olength


def _bounds(mv, mm_shift, limbs):
    """(vr, vp, vm) = floor(m T / 2^_SHIFT) for m = mv, mv + 2, mv - 1 - mm_shift:
    P = mv T from 32-bit limbs (T below 2^128), then P + d T, carried in int64."""
    cols = [0] * 6
    for a, half in enumerate((mv & _U(0xFFFFFFFF), mv >> _U(32))):
        for b in range(4):
            x = half * limbs[b]
            cols[a + b] = cols[a + b] + (x & _U(0xFFFFFFFF))
            cols[a + b + 1] = cols[a + b + 1] + (x >> _U(32))
    cols, limbs = [c.view(np.int64) for c in cols], limbs.view(np.int64)
    out = []
    for d in (0, 2, -1 - mm_shift.astype(np.int64)):
        c = [cols[i] + d * limbs[i] for i in range(4)] + cols[4:]
        for i in range(5):
            c[i + 1] = c[i + 1] + (c[i] >> 32)
            c[i] &= 0xFFFFFFFF
        out.append(((c[3] >> 25) | (c[4] << 7) | (c[5] << 39)).view(_U))
    return out
