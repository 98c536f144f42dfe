"""floatrepr.csv_body against Python's float repr, value by value and row by row."""

import math

import numpy as np
import pytest

from kronred import floatrepr
from kronred.floatrepr import csv_body


def repr_lines(block):
    """The CSV body of a (rows, cols) block as the ",".join(map(repr, row)) writer gives it."""
    return "".join([",".join(map(repr, row)) + "\n" for row in block.tolist()]).encode("ascii")


def mismatches(values):
    """The values, one per row, whose line differs from repr, checked in
    chunks of 2^16 rows to bound the formatter's temporaries."""
    values = np.asarray(values, dtype=np.float64).ravel()
    bad = []
    for s in range(0, values.size, 1 << 16):
        chunk = values[s:s + (1 << 16)]
        lines = csv_body(chunk[:, None]).split(b"\n")
        assert lines.pop() == b"" and len(lines) == chunk.size
        bad += [v for v, line in zip(chunk.tolist(), lines) if line.decode("ascii") != repr(v)]
    return bad


def with_neighbours(values):
    """values, both signs, and the next double toward 0 and toward inf of each."""
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, -values])
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.copysign(np.inf, values))])


def special_values():
    """Every value class the fast path leaves to repr, and its edges."""
    rng = np.random.default_rng(11)
    subnormals = rng.integers(1, 1 << 52, 2000, dtype=np.uint64).view(np.float64)
    return np.concatenate([
        [0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
         math.nan, -math.nan, math.inf, -math.inf],
        subnormals, -subnormals,
    ])


def test_random_bit_patterns_with_every_finite_exponent():
    rng = np.random.default_rng(20)
    n = 1_000_000
    bits = rng.integers(0, 1 << 63, n, dtype=np.uint64, endpoint=True)
    exponent = np.arange(n, dtype=np.uint64) % np.uint64(2047)  # 0 to 2046: subnormals and every normal
    bits = (bits & np.uint64(0x800FFFFFFFFFFFFF)) | (exponent << np.uint64(52))
    assert mismatches(bits.view(np.float64)) == []


def test_special_values():
    assert mismatches(special_values()) == []


def test_powers_of_two_and_ten_and_their_neighbours():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    assert mismatches(with_neighbours(np.concatenate([twos, tens]))) == []


def test_short_decimals_and_integers_around_2_to_the_53():
    rng = np.random.default_rng(21)
    short = [float(f"{m}e{e}") for m, e in zip(rng.integers(1, 10**6, 50_000), rng.integers(-330, 310, 50_000))]
    short += [float(f"{m}e{e}") for m in range(1, 1000) for e in (-7, -5, -4, -3, -1, 0, 3, 12)]
    integers = [float(2**p + d) for p in (49, 50, 52, 53, 54) for d in range(-300, 301)]
    assert mismatches(with_neighbours(short + integers)) == []


def test_notation_thresholds():
    assert mismatches(with_neighbours([1e16, 9999999999999998.0, 1e-4, 1e-5, 1e15, 1e-3])) == []


@pytest.mark.parametrize("width", [1, 2, 7, 646])
def test_rows_mixing_fast_and_repr_values(width):
    """Values the fast path leaves to repr, alone, in runs and at the
    block's ends, and one in the first, a middle and the last column of
    otherwise fast rows, among rows of fast values."""
    rng = np.random.default_rng(22 + width)
    rows = max(60, 20_000 // width)
    block = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-20, 15, (rows, width))
    special = special_values()
    for picked in (slice(0, 1), slice(5, 6), slice(40, 47), slice(50, rows, 3), slice(rows - 10, rows)):
        part = block[picked]
        part.flat[rng.integers(0, part.size, max(1, part.size // 3))] = rng.choice(special)
        block[picked] = part
    for row, col in ((10, 0), (20, width // 2), (30, width - 1)):
        block[row, col] = rng.choice(special)
    assert csv_body(block) == repr_lines(block)
    assert csv_body(block[:0]) == b""


def min_mod(n, m, a, b):
    """(min, argmin) of (a x + b) mod m over 0 <= x < n. Past the k-th wrap
    over a multiple of m, (a x + b) mod m is (b - k m) mod a, at the first
    x = ceil((k m - b) / a): a problem of the same form with modulus a."""
    levels = []
    while True:
        a, b = a % m, b % m
        levels.append((m, a, b))
        wraps = (a * (n - 1) + b) // m if n > 1 and a else 0
        if not wraps:
            break
        n, m, a, b = wraps, a, -m % a, (b - m) % a
    best = (levels.pop()[2], 0)
    for m, a, b in reversed(levels):
        best = min((b, 0), (best[0], ((best[1] + 1) * m - b + a - 1) // a))
    return best


def test_min_mod_matches_a_scan():
    rng = np.random.default_rng(24)
    for n, m, a, b in rng.integers(1, 300, (2000, 4)).tolist():
        value, x = min_mod(n, m, a, b)
        assert value == min((a * y + b) % m for y in range(n)) == (a * x + b) % m and 0 <= x < n


def hard_cases():
    """Per exponent E from 1 to 1072, the significands m2 in [2^52, 2^53)
    whose (4 m2 + d) t, for d = 0, 2, -2, lies nearest above and nearest
    below an integer, as the bits of their doubles."""
    bits = set()
    for E in range(1, 1073):
        e2 = E - 1077
        q = (-e2 * 732923 >> 20) - 1
        A, B = 4 * 5 ** (-e2 - q), 1 << q
        for d in (0, 2, -2):
            for side in (1, -1):
                bits.add(E << 52 | min_mod(1 << 52, B, side * A, side * (A << 52) + side * d * A // 4)[1])
    return np.array(sorted(bits), dtype=np.uint64)


def test_bounds_are_exact_floors_at_hard_significands():
    """vr, vp and vm are the exact floors wherever _bounds certifies them,
    at the significands that put them nearest an integer, above or below,
    at each fast-path exponent: where a computed bound that falls short
    would floor to the integer below, or land in the guard band. The
    nearest lie 2^-61.7 above and 2^-61.2 below an integer, outside the
    2.125 units of 2^-64 the bounds can fall short by and the band of
    _GUARD units, so every fast-path double is certified."""
    bits = hard_cases()
    E = (bits >> np.uint64(52)).astype(np.intp)
    assert mismatches(bits.view(np.float64)) == []
    fast = bits & floatrepr._tables()[3].take(E) != 0
    bits, E = bits[fast], E[fast]
    assert bits.size > 5000
    vr, vp, vm, sure = floatrepr._bounds(bits, E)
    assert sure.all()
    for E, m2, got in zip(E.tolist(), (bits & np.uint64((1 << 52) - 1)).tolist(),
                          zip(vr.tolist(), vp.tolist(), vm.tolist())):
        e2, m2 = E - 1077, m2 | 1 << 52
        q = (-e2 * 732923 >> 20) - 1
        assert got == tuple((4 * m2 + d) * 5 ** (-e2 - q) >> q for d in (0, 2, -2)), E


def test_uncertified_values_are_written_by_repr(monkeypatch):
    """With a guard band as wide as the fraction, no bound is certified,
    and every fast-path value goes to repr in its own slot."""
    monkeypatch.setattr(floatrepr, "_GUARD", 2**64 - 1)
    rng = np.random.default_rng(23)
    block = rng.standard_normal((500, 7)) * 10.0 ** rng.integers(-20, 15, (500, 7))
    bits = block.view(np.uint64).ravel()
    assert not floatrepr._bounds(bits, (bits >> np.uint64(52) & np.uint64(0x7FF)).astype(np.intp))[3].any()
    assert csv_body(block) == repr_lines(block)
