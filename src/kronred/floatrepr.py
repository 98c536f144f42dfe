"""CSV lines of float64 blocks, byte for byte as Python's float repr writes them.

csv_body(block) is ",".join(map(repr, row)) + "\\n" over the rows of a
(rows, cols) float64 block, as ASCII bytes, computed in numpy. repr prints
the shortest digits that read back to the double, the nearest of them.
Ryu (U. Adams, PLDI 2018, doi:10.1145/3192366.3192369) finds them in
integer arithmetic: for a double 4 m2 2^e2, m2 its 53-bit significand,
the bounds of the interval that rounds to it, scaled by 10^-e10, are
vm < vr < vp, the floors of (4 m2 + d) t for d = -2, 0, 2 and
t = 5^i / 2^q. Removing the k digits on which vp and vm differ and
rounding vr gives the digits; the decimal exponent is e10 + k.

The fast path is Ryu's e2 < 0 branch without its trailing-zero cases:
normal doubles below 2^50, other than powers of two, whose interval
bounds are not exact decimals there. Every value of a block goes through
the digit pipeline, and repr then overwrites the slot of each other value
(+-0.0, subnormals, nan, inf, 2^50 and above, powers of two, round values
such as 0.5 or 120.0), whose computed digits are not used. A fast value
is never integral and below 10^16, so its layout is repr's 0.000ddd or
ddd.ddd (-4 < decpt <= 16) or d.ddde-XX (two exponent digits or more).

Error budget of the bounds. X = 4 m2 t is formed from 26-bit limbs of
T = floor(4 t 2^121) (10 <= t < 100, so T < 2^130) and of m2, without
the lowest limb product, and its fraction is kept in 64 bits: the
computed X' = vr + f / 2^64 falls short of X by less than 2^-68 (T's
truncation, times m2 < 2^53) + 2^-69 (the product left out) + 2^-69
(the limb below the kept columns) + 2^-64 (the fraction's last bits),
under 1.125 units of 2^-64. vp and vm add floor(2t 2^64) and subtract
floor(2t 2^64) + 1, each within one more unit of 2t and on the same
side, so each computed bound falls short of its exact value by less
than 2.125 units. Its floor is then exact unless its fraction is within
that of the next integer: a value with a fraction of vr, vp or vm above
2^64 - 1 - _GUARD units is certified not, and written by repr instead.
No double gets there: over every fast-path significand, the bounds lie
at least 2^-61.7 above and 2^-61.2 below an integer, 4.9 and 7.2 units
(tests/test_floatrepr.py finds the nearest at each exponent). So every
floor is exact, and the guard band only stands behind this budget.
"""

import functools

import numpy as np

_U = np.uint64
_POW10 = _U(10) ** np.arange(20, dtype=_U)

# T keeps 121 fraction bits of 4 t, in five 26-bit limbs: each limb product
# stays below 2^53 and a column of two below 2^54, so columns need no split.
_SHIFT = 121
_LIMB = 26
_MASK = _U((1 << _LIMB) - 1)
# A fraction this close to the next integer (in units of 2^-64, more than
# the 2.125 units a computed bound can fall short by) leaves it to repr.
_GUARD = 4

# A value is laid out in 56 bytes: 3 pad, 21 digits (a 0, then five
# four-digit groups), 4 pad, the same 20 digits, and its tail: the
# separator, after "e-XX" in exponent notation. A "-" goes just before
# the first digit of the first copy and a "." over the digit before the
# dot in the second, so that a mask keyed by (first byte, digit before the
# dot, dot or none, tail length) keeps two runs: the sign and the digits up
# to the dot from the first copy, the dot, the rest and the tail from the
# second. A value written by repr fills its slot from byte 0 with its
# characters and the separator, kept by the mask keyed by its length. The
# block is one compress.
_DIGITS = 21
_REPR = (_DIGITS + 1) * _DIGITS * 2 * 3  # the mask of a repr of length L is _REPR + L
_DECPT = 340  # shapes are indexed by (decpt + _DECPT) * 18 + digit count


@functools.cache
def _tables():
    """Per biased exponent E: T in 26-bit limbs; floor(2t 2^64) as its
    integer part, its fraction and the fraction's complement; e10; the
    mantissa bits of Ryu's trailing-zero test (0 off the fast path). The
    layout's parts: four-digit groups, tails by exponent (0: none) and
    separator (+400: a newline), masks."""
    limbs = np.zeros((5, 2048), dtype=_U)
    two_t = np.zeros((3, 2048), dtype=_U)
    e10 = np.zeros(2048, dtype=np.int64)
    low = np.zeros(2048, dtype=_U)
    for E in range(1, 1073):
        e2 = E - 1077
        q = (-e2 * 732923 >> 20) - 1  # floor(-e2 log10 5) - 1, Ryu's q
        scaled = 5 ** (-e2 - q) << (_SHIFT + 2) >> q
        limbs[:, E] = [scaled >> (_LIMB * j) & int(_MASK) for j in range(5)]
        D = 5 ** (-e2 - q) << 65 >> q
        two_t[:, E] = [D >> 64, D & (2**64 - 1), ~D & (2**64 - 1)]
        e10[E] = q + e2
        # mant & low != 0: 2^q does not divide 4 m2, and m2 is no power of two
        low[E] = (1 << min(q - 2, 52)) - 1
    groups = np.frombuffer("".join(f"{g:04d}" for g in range(10_000)).encode(), dtype=np.uint32)
    exps = [b"e-%02d" % e if e else b"" for e in range(400)]
    tails = np.frombuffer(b"".join([(x + sep).ljust(8, b"\0") for sep in (b",", b"\n") for x in exps]), dtype=_U)
    lead, end, nodot, tail = (a.ravel()[:, None] for a in np.meshgrid(
        range(_DIGITS + 1), range(_DIGITS), [0, 1], range(3), indexing="ij"))
    j = np.arange(56)
    masks = np.empty((_REPR + 25, 56), dtype=bool)
    masks[:_REPR] = ((j >= 2 + lead) & (j <= 3 + end)) | ((j >= 27 + end + nodot) & (j <= 48 + tail + (tail > 0) * 3))
    masks[_REPR:] = j <= np.arange(25)[:, None]
    decpt, olength = (a.ravel() for a in np.meshgrid(np.arange(360) - _DECPT, range(18), indexing="ij"))
    sci = decpt <= -4
    first = _DIGITS - olength
    start = np.clip(np.where(sci, first, first + np.minimum(decpt - 1, 0)), 0, _DIGITS - 1)
    end = np.clip(np.where(sci, first, first + decpt - 1), 0, _DIGITS - 1)  # the digit before the dot
    shapes = np.stack([
        (((start + 1) * _DIGITS + end) * 2 + (sci & (olength == 1))) * 3 + sci * (1 + (decpt <= -99)),
        2 + start,  # the sign's byte
        27 + end,  # the dot's byte
        np.where(sci, 1 - decpt, 0),  # the tail
    ])
    return limbs, two_t, e10, low, groups, tails, masks, shapes


def csv_body(block):
    """The CSV lines of a (rows, cols) float64 block's rows, as bytes: every
    value takes the digit pipeline, then repr rewrites those off its fast path."""
    bits = np.ascontiguousarray(block, dtype=np.float64).view(_U)
    flat = bits.ravel()
    *_, low, _, _, masks, _ = _tables()
    E = (flat >> _U(52) & _U(0x7FF)).astype(np.intp)
    digits, olength, decpt, sure = _shortest(flat, E)
    fast = (flat & low.take(E) != 0) & sure
    words, key = _layout(bits, digits, olength, decpt)
    off = np.flatnonzero(~fast)
    if off.size:
        texts = list(map(repr, flat[off].view(np.float64).tolist()))
        last = (off % bits.shape[1] == bits.shape[1] - 1).tolist()
        slots = "".join([f"{s}{chr(10) if e else ','}".ljust(56) for s, e in zip(texts, last)])
        words[off] = np.frombuffer(slots.encode("ascii"), dtype=_U).reshape(-1, 7)
        key[off] = _REPR + np.array(list(map(len, texts)))
    return words.view(np.uint8).reshape(-1, 56)[masks.take(key, axis=0)].tobytes()


def _layout(bits, digits, olength, decpt):
    """The 56-byte slots and mask keys of a (rows, cols) block's values,
    from their digits, digit counts and decpt; the slot of a value off the
    fast path holds digits that mean nothing until repr's bytes replace it."""
    *_, groups, tails, _, shapes = _tables()
    neg = (bits.ravel() >> _U(63)).astype(np.intp)
    key, sign, dot, tail = shapes.take((decpt + _DECPT) * 18 + olength, axis=1)
    key -= neg * (2 * 3 * _DIGITS)  # the sign's byte starts the first run
    words = np.empty((digits.size, 7), dtype=_U)
    quads = words.view(np.uint32)
    # digits < 10^17: eight digits below 10^8 and nine above, split in uint32
    high = digits // _U(10**8)
    lo = (digits - high * _U(10**8)).astype(np.uint32)
    hi = high.astype(np.uint32)
    top = hi // 10**8
    hi -= top * 10**8
    mid, lo_mid = hi // 10_000, lo // 10_000
    top = top.astype(_U) << _U(56)  # byte 7 of words 0 and 3
    np.add(top, _U(int.from_bytes(b"\0\0\0" b"00000", "little")), out=words[:, 0])
    np.add(top, _U(int.from_bytes(b"\0\0\0\0" b"0000", "little")), out=words[:, 3])
    for j, g in enumerate((mid, hi - mid * 10_000, lo_mid, lo - lo_mid * 10_000), 2):
        groups.take(g, out=quads[:, j], mode="clip")
    words[:, 4:6] = words[:, 1:3]
    tail = tail.reshape(bits.shape)
    tail[:, -1] += 400
    tails.take(tail.ravel(), out=words[:, 6], mode="clip")
    chars = words.view(np.uint8).ravel()
    slot = np.arange(0, chars.size, 56)
    chars[slot + sign] = neg * ord("-")  # over a leading zero (or byte 2)
    chars[slot + dot] = ord(".")  # over the second copy's digit before the dot
    return words, key


def _shortest(bits, E):
    """(digits, their count, decpt, certified) of values' bits: a fast-path
    value is 0.<digits> times 10^decpt, with the fewest digits that read
    back; for any other value they mean nothing but index the layout tables."""
    e10 = _tables()[2]
    vr, vp, vm, sure = _bounds(bits, E)
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
    return digits, olength, e10.take(E) + k + olength, sure


def _bounds(bits, E):
    """(vr, vp, vm, certified): the floors of X = 4 m2 t and of X +- 2t,
    computed to within 2.125 units of 2^-64 below (module docstring), and
    whether no fraction is within _GUARD units of the next integer."""
    limbs, two_t, *_ = _tables()
    m2 = bits & _U((1 << 52) - 1) | _U(1 << 52)
    a, b = m2 >> _U(_LIMB), m2 & _MASK
    T0, T1, T2, T3, T4 = limbs.take(E, axis=1)
    c2 = (a * T0 + b * T1 >> _U(_LIMB)) + a * T1 + b * T2  # the column of b T0 is left out
    c3 = (c2 >> _U(_LIMB)) + a * T2 + b * T3
    c4 = (c3 >> _U(_LIMB)) + a * T3 + b * T4
    c5 = (c4 >> _U(_LIMB)) + a * T4
    c4 &= _MASK
    # X = c5 2^9 + c4 2^-17 + c3 2^-43 + c2 2^-69 (c2, c3 taken mod 2^26)
    vr = c5 << _U(9) | c4 >> _U(17)
    f = (c4 & _U((1 << 17) - 1)) << _U(47) | (c3 & _MASK) << _U(21) | (c2 & _MASK) >> _U(5)
    di, df, ndf = two_t.take(E, axis=1)
    fp, fm = f + df, f + ndf  # the fractions of X + 2t and of X - 2t - 2^-64
    vp = vr + di + (fp < f)
    vm = vr - di - (fm >= f)
    sure = np.maximum(np.maximum(f, fp), fm) <= _U(2**64 - 1 - _GUARD)
    return vr, vp, vm, sure
