"""data.write_csv_columns prints float64 arrays under %r, %s and %.9g
and integer arrays under %d and %s with numpy kernels; every field must
be what Python's % prints, and every table the bytes of the %-based
printer of csv_oracle.py. SplitDataset.load_csv reads the repr() of a
float64 with a numpy kernel too; every feature it reads must be what
float() makes of the same text, bit for bit."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csv_oracle import oracle_csv_bytes
from d2ssl import data as data_mod
from d2ssl.data import BLOCK_ROWS, ROLE_TEST, Coded, SplitDataset, write_csv_columns

FLOAT_FORMATS = ("%r", "%s", "%.9g")


def printed_fields(tmp_path, fmt, values) -> list[bytes]:
    """The fields write_csv_columns prints for a one-column table."""
    path = tmp_path / "column.csv"
    write_csv_columns(path, ["x"], [fmt], values.size, [values], line_end="\n")
    return path.read_bytes().split(b"\n")[1:-1]


def check_floats(tmp_path, values):
    values = np.asarray(values, dtype=np.float64)
    for fmt in FLOAT_FORMATS:
        expected = [(fmt % v).encode() for v in values.tolist()]
        got = printed_fields(tmp_path, fmt, values)
        bad = [(v, e, g) for v, e, g in zip(values.tolist(), expected, got) if e != g]
        assert not bad and len(got) == values.size, (fmt, bad[:5])


def decades_and_neighbours():
    """10**k for k in -6..17 and its neighbours 1 to 3 ulp away."""
    out = []
    for k in range(-6, 18):
        below = above = 10.0 ** k
        out.append(below)
        for _ in range(3):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, math.inf)
            out += [below, above]
    return np.array(out)


def ties(digits: int):
    """Values exactly halfway between two decimals of the given number of
    significant digits: m / 2**p for odd m < 2**53, whose decimal
    expansion m * 5**p / 10**p has digits + 1 significant digits, the
    last one 5."""
    def bounds(p):
        return -(-10**digits // 5**p), min((10**(digits + 1) - 1) // 5**p, 2**53 - 1)

    def build(p, sign, data):
        low, high = bounds(p)
        m = data.draw(st.integers(low, high).map(lambda v: v | 1).filter(lambda v: v <= high))
        return sign * m / 2**p
    powers = [p for p in range(1, 60) if bounds(p)[0] <= bounds(p)[1]]
    return st.builds(build, st.sampled_from(powers), st.sampled_from([1.0, -1.0]), st.data())


@given(st.lists(st.floats(), max_size=40))
@settings(max_examples=150, deadline=None)
def test_floats_match_percent_over_the_full_range(tmp_path_factory, values):
    check_floats(tmp_path_factory.mktemp("f"), values)


@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
@settings(max_examples=150, deadline=None)
def test_floats_match_percent_on_random_bit_patterns(tmp_path_factory, bits):
    check_floats(tmp_path_factory.mktemp("f"), np.array(bits, dtype=np.uint64).view(np.float64))


@pytest.mark.parametrize("values", [
    decades_and_neighbours(),
    np.ldexp(1.0, np.arange(-40, 70)),
    -np.ldexp(1.0, np.arange(-40, 70)),
    np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf, math.nan,
              0.1, 0.3, 1e-4, 9.9999999995, 0.99999999996, 999999999.5, 1e15, 9.999999999999999e15,
              4503599627370497.5, 123456789.0, 2.0**-10]),
], ids=["decades", "powers_of_two", "negative_powers_of_two", "edges"])
def test_floats_match_percent_on_edge_values(tmp_path, values):
    check_floats(tmp_path, values)


@pytest.mark.parametrize("digits", [9, 15, 16, 17])
def test_floats_match_percent_on_ties(tmp_path_factory, digits):
    @given(st.lists(ties(digits), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def check(values):
        check_floats(tmp_path_factory.mktemp("t"), values)
    check()


@given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=40))
@settings(max_examples=150, deadline=None)
def test_ints_match_percent_d(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("i")
    values = np.array(values, dtype=np.int64)
    for fmt in ("%d", "%s"):
        assert printed_fields(path, fmt, values) == [(fmt % v).encode() for v in values.tolist()]


TEXT = st.text(alphabet=',"\r\n\0 a1é', max_size=4)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_mixed_tables_match_the_percent_printer(tmp_path_factory, data):
    n = data.draw(st.integers(0, 13))
    floats = np.array(data.draw(st.lists(st.floats(), min_size=n, max_size=n)), dtype=np.float64)
    ints = np.array(data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)),
                    dtype=np.int64)
    texts = data.draw(st.lists(TEXT, min_size=n, max_size=n))
    names = data.draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))
    codes = np.array(data.draw(st.lists(st.integers(0, len(names) - 1), min_size=n, max_size=n)),
                     dtype=np.int64)
    line_end = data.draw(st.sampled_from(["\r\n", "\n"]))
    header_end = data.draw(st.sampled_from([None, "\n"]))
    header = ["f", "g", "s,", "i", 'q"', "c"]
    formats = ["%r", "%.9g", "%s", "%d", "%s", "%s"]

    def python_columns(start, stop):
        return [floats[start:stop].tolist(), floats[start:stop].tolist(),
                floats[start:stop].tolist(), ints[start:stop].tolist(), texts[start:stop],
                [names[c] for c in codes[start:stop]]]

    path = tmp_path_factory.mktemp("m") / "table.csv"
    with mock.patch.object(data_mod, "BLOCK_ROWS", 5):
        write_csv_columns(path, header, formats, n,
                          [floats, floats, floats, ints, texts, Coded(names, codes)],
                          line_end=line_end, header_end=header_end)
    assert path.read_bytes() == oracle_csv_bytes(header, formats, n, python_columns, 5,
                                                 line_end=line_end, header_end=header_end)


def check_read_back(tmp_path, values, block_rows=7):
    """load_csv reads each value of a dataset CSV as float() reads its
    repr(): values in x0 and reversed in x1, blocks of block_rows rows."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    ds = SplitDataset(np.column_stack([values, values[::-1]]), np.zeros(n, np.int64),
                      np.full(n, ROLE_TEST), 4)
    path = tmp_path / "ds.csv"
    with mock.patch.object(data_mod, "BLOCK_ROWS", block_rows):
        ds.save_csv(path)
        got = SplitDataset.load_csv(path, 4).features
    want = np.array([float(repr(v)) for v in values.tolist()])
    assert got[:, 0].tobytes() == want.tobytes()
    assert got[:, 1].tobytes() == want[::-1].tobytes()


@given(st.lists(st.floats(), min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_load_csv_reads_floats_as_float_over_the_full_range(tmp_path_factory, values):
    check_read_back(tmp_path_factory.mktemp("r"), values)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_load_csv_reads_floats_as_float_on_random_bit_patterns(tmp_path_factory, bits):
    check_read_back(tmp_path_factory.mktemp("r"),
                    np.array(bits, dtype=np.uint64).view(np.float64))


@pytest.mark.parametrize("values", [
    decades_and_neighbours(),
    np.ldexp(1.0, np.arange(-40, 70)),
    -np.ldexp(1.0, np.arange(-40, 70)),
    np.nextafter(np.ldexp(1.0, np.arange(-40, 70)).repeat(2), [0.0, math.inf] * 110),
    np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf, math.nan,
              0.1, 0.3, 1e-4, 9.9999999995, 0.99999999996, 999999999.5, 1e15, 9.999999999999999e15,
              4503599627370497.5, 123456789.0, 2.0**-10, 1.7976931348623157e308]),
], ids=["decades", "powers_of_two", "negative_powers_of_two", "beside_powers_of_two", "edges"])
def test_load_csv_reads_floats_as_float_on_edge_values(tmp_path, values):
    check_read_back(tmp_path, values)


def test_load_csv_reads_decimals_as_float_across_block_edges(tmp_path):
    """Three blocks of 17-digit values from 1e-5 to 1e17, where the
    candidate D/10**f is decided by the 128-bit check or stepped an ulp."""
    rng = np.random.default_rng(7)
    values = rng.uniform(1, 10, 3 * BLOCK_ROWS) * 10.0 ** rng.integers(-5, 17, 3 * BLOCK_ROWS)
    check_read_back(tmp_path, values * rng.choice([-1.0, 1.0], values.size), BLOCK_ROWS)
