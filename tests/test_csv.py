"""The array-code writer of ``samples.csv``: the bytes of one ``"%.17g" % v`` per value."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggm_select._csv import BLOCK_VALUES, format_rows
from ggm_select.nodes import SampleSet


def _per_value(rows) -> bytes:
    """The reference: CPython's correctly rounded ``%.17g``, one value at a time."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows).encode()


def _in_range(values) -> np.ndarray:
    """The values in [1e-5, 1e16), as one row: a block that takes the digit code."""
    values = np.asarray(values, dtype=float).ravel()
    return values[(values >= 1e-5) & (values < 1e16)].reshape(1, -1)


def _assert_same_text(values):
    # a block with any value out of range takes the row template, so the
    # in-range values are also formatted as a block of their own
    for rows in (np.asarray(values, dtype=float).reshape(1, -1), _in_range(values)):
        assert format_rows(rows) == _per_value(rows.tolist())


def _neighbours(value: float, ulps: int) -> list:
    """``value`` and the ``ulps`` doubles on each side of it."""
    out = [value]
    below = above = value
    for _ in range(ulps):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
        out += [below, above]
    return out


NONNEGATIVE_DOUBLES = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e-5, max_value=1e16),
    st.just(-0.0),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(NONNEGATIVE_DOUBLES, min_size=1, max_size=40), st.integers(1, 4))
def test_bytes_match_percent_17g(values, columns):
    columns = min(columns, len(values))
    rows = np.array(values[:len(values) // columns * columns]).reshape(-1, columns)
    assert format_rows(rows) == _per_value(rows.tolist())
    inside = _in_range(values)
    assert format_rows(inside) == _per_value(inside.tolist())


def test_powers_of_ten_and_their_neighbours():
    values = [v for e in range(-8, 19) for v in _neighbours(float(f"1e{e}"), 3)]
    _assert_same_text(values)


def _exact_ties(exponent: int, count: int) -> list:
    """Doubles in [10**exponent, 10**(exponent+1)) whose 17-digit rounding is an exact tie.

    ``odd / 2**(q + 1)`` with ``q = 16 - exponent`` times ``10**q`` is
    ``odd * 5**q / 2``: an integer and a half.
    """
    scale = 2 ** (17 - exponent)
    first = math.ceil(Fraction(10) ** exponent * scale) | 1
    ties = [odd / scale for odd in range(first, first + 2 * count, 2)]
    for tie in ties:
        scaled = Fraction(tie) * Fraction(10) ** (16 - exponent)
        assert scaled.denominator == 2 and 10**16 <= scaled < 10**17
    return ties


def test_exact_half_way_ties_round_half_to_even():
    assert "%.17g" % (1e15 + 0.25) == "1000000000000000.2"
    assert "%.17g" % (1e15 + 0.75) == "1000000000000000.8"
    ties = [1e15 + 0.25, 1e15 + 0.75]
    ties += [tie for exponent in range(-5, 16) for tie in _exact_ties(exponent, 4)]
    _assert_same_text(ties)


def test_fast_range_edges():
    edges = _neighbours(1e-5, 2) + _neighbours(1e16, 2) + [1e-4, 9.9999999999999995e-5]
    _assert_same_text(edges)


OUTSIDE_THE_FAST_RANGE = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 3e-6, 1e17,
                          123456789012345678.0, 1.7976931348623157e308, -1.5,
                          -2.2250738585072014e-308, math.inf, -math.inf, math.nan]


def test_values_outside_the_fast_range_are_spliced():
    # as many values inside the fast range: one value outside it sends the
    # whole block to the row template, wherever in the block it stands
    inside = [1.0 + i / 7 for i in range(len(OUTSIDE_THE_FAST_RANGE))]
    _assert_same_text([v for pair in zip(OUTSIDE_THE_FAST_RANGE, inside) for v in pair])
    for outside in OUTSIDE_THE_FAST_RANGE:
        _assert_same_text([outside] + inside)
        _assert_same_text(inside + [outside])


def test_blocks_mostly_outside_the_fast_range():
    _assert_same_text(OUTSIDE_THE_FAST_RANGE)
    rng = np.random.default_rng(3)
    small = 10.0 ** rng.uniform(-14, -6, (40, 30))
    small[rng.random(small.shape) < 0.1] = 0.0
    small[rng.random(small.shape) < 0.3] = 0.5
    assert format_rows(small) == _per_value(small.tolist())


def test_empty_shapes():
    assert format_rows(np.zeros((0, 3))) == b""
    assert format_rows(np.zeros((4, 0))) == b"\n" * 4
    assert format_rows(np.zeros((0, 0))) == b""


def _save_and_compare(tmp_path, values):
    samples = SampleSet(values=values, names=tuple(f"c{i}" for i in range(values.shape[1])))
    path = tmp_path / "samples.csv"
    samples.save_csv(path)
    header = (",".join(samples.names) + "\n").encode()
    assert path.read_bytes() == header + _per_value(values.tolist())


@pytest.mark.parametrize("shape", [(0, 3), (5, 1), (3, 0), (1, BLOCK_VALUES + 3)])
def test_save_csv_shapes(tmp_path, shape):
    rng = np.random.default_rng(sum(shape))
    _save_and_compare(tmp_path, rng.random(shape) * 10.0 ** rng.integers(-6, 17, shape))


@pytest.mark.parametrize("columns", [1, 7, 300])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_save_csv_rows_around_a_block_boundary(tmp_path, columns, offset):
    rows = BLOCK_VALUES // columns + offset
    rng = np.random.default_rng(rows * columns)
    _save_and_compare(tmp_path, 1.0 + rng.random((rows, columns)))


def test_save_csv_peak_memory(tmp_path):
    rng = np.random.default_rng(5)
    samples = SampleSet(values=1.0 + rng.random((4000, 300)) * 3.0,
                        names=tuple(f"c{i}" for i in range(300)))
    path = tmp_path / "samples.csv"
    tracemalloc.start()
    try:
        samples.save_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text of the whole matrix is about 22 MB; one block's temporaries stay far below
    assert peak < 2 << 20
    first = path.read_text().splitlines()[1]
    assert first == ",".join("%.17g" % v for v in samples.values[0])


def _with_digits(exponent: int, significant: int):
    """The first double from ``1.2345...e<exponent>`` up whose ``%.17g`` text has this many significant digits."""
    first = int("12345678901234567"[:significant])
    for mantissa in range(first, min(10**significant, first + 1000)):
        value = float(f"{mantissa}e{exponent - significant + 1}")
        digits, _, power = ("%.16e" % value).partition("e")
        if int(power) == exponent and len(digits.replace(".", "").rstrip("0")) == significant:
            return value
    return None


def test_every_layout_of_the_digit_route():
    """Every decimal exponent from -5 to 15 with every significant digit count, first, inside and last in a row.

    One pair is no double's text: ``"%.17g"`` of 1e-05 to 9e-05 shows 17
    digits each, so no text reads ``de-05``.
    """
    pairs = [(e, s) for e in range(-5, 16) for s in range(1, 18)]
    values = {pair: _with_digits(*pair) for pair in pairs}
    assert [pair for pair, v in values.items() if v is None] == [(-5, 1)]
    values = [v for v in values.values() if v is not None]
    longest = sorted("%.17g" % v for v in values if len("%.17g" % v) == 22)
    assert [text[:5] for text in longest] == ["0.000", "1.234"]  # "0.0001234...", "1.234...e-05"
    filler = 1.5
    rows = np.array([row for v in values for row in ([v, filler, filler], [filler, v, filler],
                                                     [filler, filler, v])])
    assert rows.min() >= 1e-5 and rows.max() < 1e16 and rows.size <= BLOCK_VALUES  # one digit-route block
    assert format_rows(rows).split(b"\n") == _per_value(rows.tolist()).split(b"\n")
