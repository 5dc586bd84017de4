"""cli._write_rows against repr, the text it must reproduce byte for byte."""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pklink.cli import _write_rows

CHUNK = 1 << 16  # values written per call, to keep the reference text small


def _csv(columns) -> str:
    fh = io.StringIO()
    _write_rows(fh, [f"c{k}" for k in range(len(columns))], columns)
    return fh.getvalue()


def _assert_reprs(values, width=1):
    """The values, written row by row as width columns, read as repr(float(v))."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    assert len(values) % width == 0
    for start in range(0, len(values), CHUNK - CHUNK % width):
        rows = values[start : start + CHUNK - CHUNK % width].reshape(-1, width)
        got = _csv(list(rows.T)).splitlines()[1:]
        expected = [",".join(map(repr, row)) for row in rows.tolist()]
        if got != expected:
            bad = [(g, e) for g, e in zip(got, expected) if g != e]
            raise AssertionError(f"{len(bad)} rows differ from repr, first {bad[:5]}")


def test_a_million_random_finite_bit_patterns_read_as_repr():
    bits = np.random.default_rng(20201).integers(0, 2**64, 1_010_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:1_000_000]
    assert len(values) == 1_000_000
    _assert_reprs(values, width=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern_reads_as_repr(patterns):
    # raw patterns include every nan payload, both infinities and subnormals
    _assert_reprs(np.array(patterns, dtype=np.uint64).view(np.float64))


def _with_negatives(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


def test_signed_zeros_and_non_finite_values_read_as_repr():
    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    # a nan with a payload and the sign bit set is still "nan"
    payload = np.array([0xFFF0000000000001, 0x7FF8000000000ABC], dtype=np.uint64).view(np.float64)
    text = _csv([np.concatenate([values, payload])])
    assert text == "c0\n0.0\n-0.0\ninf\n-inf\nnan\nnan\nnan\nnan\n"


def test_the_smallest_subnormals_read_as_repr():
    # a shortest-digits writer that keeps two significant digits would
    # give 4.9e-324 and 4.9e-323 for the two below, where repr gives one
    tiny = np.arange(1, 100_001, dtype=np.uint64).view(np.float64)
    assert _csv([tiny[:12]]).split()[1:] == [repr(float(v)) for v in tiny[:12]]
    assert _csv([tiny[[0, 9]]]) == "c0\n5e-324\n5e-323\n"
    _assert_reprs(_with_negatives(tiny))


def test_powers_of_two_and_their_neighbours_read_as_repr():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
    _assert_reprs(_with_negatives(np.concatenate([powers, below, above])))


def test_powers_of_ten_and_their_neighbours_read_as_repr():
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    assert powers[0] == 1e-323 and powers[-1] == 1e308
    below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
    _assert_reprs(_with_negatives(np.concatenate([powers, below, above])))


def test_integers_near_two_to_the_53_read_as_repr():
    near = np.concatenate([2.0**53 + np.arange(-2000, 2001), 2.0**54 + 2 * np.arange(-2000, 2001)])
    small = np.arange(0, 100_001, dtype=np.float64)
    _assert_reprs(_with_negatives(np.concatenate([near, small, small * 1000.0])))


def test_layout_boundaries_read_as_repr():
    # positional up to 16 places before the point and 4 after it; one- and
    # two-digit exponents on either side of those bounds
    edges = np.array([1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 1e-5, 1.5e-5, 123456789012345.6, 0.5])
    assert _csv([edges]).split()[1:] == [
        "1e+16", "9999999999999998.0", "0.0001", "9.999999999999999e-05", "1e-05", "1.5e-05", "123456789012345.6",
        "0.5",
    ]
    neighbours = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    scaled = np.outer(neighbours, 10.0 ** np.arange(-6, 7)).ravel()
    _assert_reprs(_with_negatives(np.concatenate([neighbours, scaled])))


def test_short_decimals_read_as_repr():
    rng = np.random.default_rng(7)
    digits = rng.integers(1, 10**6, 200_000)
    _assert_reprs(digits * 10.0 ** rng.integers(-320, 300, digits.size))


def test_columns_interleave_into_rows():
    # each rewritten form at the end of a row and inside one
    a = np.array([1.5, -0.0, 1e-7, 2.5e-5, 1e16])
    b = np.array([2.0, np.inf, 123.25, -1e-5, np.nan])
    assert _csv([b, a, a, b]) == (
        "c0,c1,c2,c3\n"
        "2.0,1.5,1.5,2.0\n"
        "inf,-0.0,-0.0,inf\n"
        "123.25,1e-07,1e-07,123.25\n"
        "-1e-05,2.5e-05,2.5e-05,-1e-05\n"
        "nan,1e+16,1e+16,nan\n"
    )
