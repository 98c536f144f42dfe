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


@pytest.mark.parametrize("width", [1, 2, 7])
def test_rows_mixing_fast_and_repr_values(width):
    """Rows that hold a value the fast path leaves to repr, alone, in runs
    and at the block's ends, between rows of fast values."""
    rng = np.random.default_rng(22 + width)
    block = rng.standard_normal((3000, width)) * 10.0 ** rng.integers(-20, 15, (3000, width))
    special = special_values()
    for rows in (slice(0, 1), slice(5, 6), slice(40, 47), slice(100, 400, 3), slice(2990, 3000)):
        picked = block[rows]
        picked.flat[rng.integers(0, picked.size, max(1, picked.size // 3))] = rng.choice(special)
        block[rows] = picked
    assert csv_body(block) == repr_lines(block)
    assert csv_body(block[:0]) == b""


def hard_significands(E):
    """Significands m2 in [2^52, 2^53) that put 4 m2 5^i / 2^q just above
    an integer at biased exponent E: multiples of the continued-fraction
    convergent denominators of 4 5^i / 2^q whose residue is positive."""
    e2 = E - 1077
    q = (-e2 * 732923 >> 20) - 1
    A, B = 4 * 5 ** (-e2 - q), 1 << q
    out, (h0, h1), (k0, k1), (a, b) = [], (0, 1), (1, 0), (A, B)
    while b and k1 < 1 << 52:
        t = a // b
        (h0, h1), (k0, k1), (a, b) = (h1, t * h1 + h0), (k1, t * k1 + k0), (b, a - t * b)
        if 0 < k1 < 1 << 52 and k1 * A - h1 * B > 0:
            out.append(-(-(1 << 52) // k1) * k1)
    return out[-3:]


def test_bounds_are_exact_floors_at_hard_significands():
    """vr, vp and vm are the exact floors at the significands where a
    truncated 5^i / 2^q would round down across an integer, up to three
    at each fast-path exponent. A table of 96 bits instead of 121 fails
    here, although it passes every repr comparison above."""
    limbs = floatrepr._tables()[0]
    cases = [(E, m2) for E in range(1, 1073) for m2 in hard_significands(E)]
    E = np.array([E for E, _ in cases])
    m2 = np.array([m2 for _, m2 in cases], dtype=np.uint64)
    assert len(cases) > 2000
    vr, vp, vm = floatrepr._bounds(m2 << np.uint64(2), np.ones(len(cases), dtype=bool), limbs[:, E])
    for (E, m2), got in zip(cases, zip(vr.tolist(), vp.tolist(), vm.tolist())):
        e2 = E - 1077
        q = (-e2 * 732923 >> 20) - 1
        assert got == tuple((4 * m2 + d) * 5 ** (-e2 - q) >> q for d in (0, 2, -2)), E
