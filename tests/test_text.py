"""The text table kernel against Python's `%`, byte for byte: seeded
doubles over the whole range, exact ties and their neighbours, signed
zeros, the edge of the exact range and the `%` fallback past it."""

import math

import numpy as np
import pytest

from ramcell import text
from toolpath_oracle import assert_same_text

N_SEEDED = 1_000_000


def _kernel(values, decimals):
    return text.rows(text.Cells(np.asarray(values), decimals), "\n")


def _percent(values, decimals):
    fmt = f"%.{decimals}f" if decimals else "%d"
    return "".join(map((fmt + "\n").__mod__, np.asarray(values).tolist()))


def _largest_in_range(decimals):
    """The largest double whose product with 10**decimals the kernel
    formats itself."""
    x = 2.0 ** 52 / 10.0 ** decimals
    while not abs(x) * 10.0 ** decimals < 2.0 ** 52:
        x = np.nextafter(x, 0.0)
    return float(x)


@pytest.mark.parametrize("decimals", [6, 3])
def test_seeded_doubles_match_percent(decimals):
    rng = np.random.default_rng(29 + decimals)
    values = (10.0 ** rng.uniform(-12.0, math.log10(4e9), N_SEEDED)
              * rng.choice([-1.0, 1.0], N_SEEDED))
    assert text._numbers(values.reshape(-1, 1), decimals) is not None
    assert_same_text(_kernel(values, decimals), _percent(values, decimals))


@pytest.mark.parametrize("decimals, denominator", [(6, 128.0), (3, 16.0)])
def test_exact_ties_and_their_neighbours_match_percent(decimals, denominator):
    # k / denominator times 10**decimals is a half-integer for odd k: the
    # tie rounds to even, and the doubles beside it round away from it
    rng = np.random.default_rng(7)
    ties = (2.0 * rng.integers(0, 2 ** 31, 100_000) + 1.0) / denominator
    ties = np.concatenate((ties, (2.0 * np.arange(2000) + 1.0) / denominator))
    for values in (ties, -ties, np.nextafter(ties, np.inf), np.nextafter(ties, 0.0),
                   -np.nextafter(ties, np.inf)):
        assert text._numbers(values.reshape(-1, 1), decimals) is not None
        assert_same_text(_kernel(values, decimals), _percent(values, decimals))


@pytest.mark.parametrize("decimals", [6, 3])
def test_signed_zeros_tiny_values_and_the_largest_in_range(decimals):
    top = _largest_in_range(decimals)
    values = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, -1e-9, -4.9e-7,
                       -5e-7, 5e-7, -4.9e-4, -5e-4, 5e-4, 0.0005, 0.0015, 0.0025,
                       999.9999995, 999.9995, 1e9, -1e9, 4e9, top, -top,
                       np.nextafter(top, 0.0)])
    assert text._numbers(values.reshape(-1, 1), decimals) is not None
    got = _kernel(values, decimals)
    assert_same_text(got, _percent(values, decimals))
    assert got.startswith(f"{0:.{decimals}f}\n-{0:.{decimals}f}\n")


@pytest.mark.parametrize("decimals", [6, 3])
@pytest.mark.parametrize("outside", [math.nan, math.inf, -math.inf, 1e300, -1.7e308, -1e20,
                                     "next"])
def test_values_out_of_range_fall_back_to_percent(decimals, outside):
    if outside == "next":
        outside = float(np.nextafter(_largest_in_range(decimals), np.inf))
    values = np.array([[1.5, -0.0], [outside, 2.0 ** -30], [-7.25, 123.4565]])
    assert text._numbers(values, decimals) is None
    got = text.rows(text.Cells(values, decimals, ("a", ",")), "\n")
    want = "".join(f"a{a:.{decimals}f},{b:.{decimals}f}\n" for a, b in values.tolist())
    assert got == want


def test_integer_cells_match_percent():
    values = np.array([0, 1, 9, 10, 99, 100, 999, 1000, 1001, 12345, 999999, 10 ** 6,
                       10 ** 9 + 7, 2 ** 52 - 1])
    assert text._numbers(values.reshape(-1, 1), 0) is not None
    assert _kernel(values, 0) == _percent(values, 0)
    layers = np.random.default_rng(3).integers(0, 5000, 20_000)
    assert_same_text(_kernel(layers, 0), _percent(layers, 0))
    flags = np.array([True, False, True])
    assert _kernel(flags, 0) == "1\n0\n1\n"
    negative = np.array([-1, -999, -1000, -10 ** 12, 7])
    assert _kernel(negative, 0) == _percent(negative, 0)
    # an integer of 2**52 or more is formatted with `%`
    for values in (np.array([2 ** 52, 5]), np.array([-(2 ** 62), 0])):
        assert text._numbers(values.reshape(-1, 1), 0) is None
        assert _kernel(values, 0) == _percent(values, 0)


def test_literals_choices_and_prefixes_lay_out_rows_across_chunks():
    n = 2 * text.CHUNK // 3 + 7  # more than one chunk of 3-cell rows
    rng = np.random.default_rng(11)
    values = rng.normal(0.0, 1e4, (n, 3))
    which = rng.integers(0, 3, n)
    flags = rng.integers(0, 2, n).astype(bool)
    speeds = rng.uniform(0.0, 2000.0, n)
    got = text.rows("row ", (("", "A", "BCDEFGHIJ"), which),
                    text.Cells(values, 6, ("q=[", ",", ",")), "] v=",
                    text.Cells(speeds, 3), (("", "!"), flags), "\n")
    want = "".join(f"row {('', 'A', 'BCDEFGHIJ')[k]}q=[{a:.6f},{b:.6f},{c:.6f}] v={v:.3f}"
                   f"{'!' if f else ''}\n"
                   for k, (a, b, c), v, f in zip(which.tolist(), values.tolist(),
                                                 speeds.tolist(), flags.tolist()))
    assert_same_text(got, want)


def test_no_rows_lay_out_no_text():
    assert text.rows("x", text.Cells(np.empty((0, 4)), 6, ","), "\n") == ""
