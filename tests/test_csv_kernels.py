"""data.write_csv_columns prints float64 arrays under %r, %s and %.9g
and integer arrays under %d and %s with numpy kernels; every field must
be what Python's % prints, and every table the bytes of the %-based
printer of csv_oracle.py. SplitDataset.load_csv reads the repr() of a
float64 with a numpy kernel too; every feature it reads must be what
float() makes of the same text, bit for bit. Both split a file of more
than one block over a forked child, with the faults of the one-CPU path."""

import math
import multiprocessing
import os
import signal
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csv_oracle import oracle_csv_bytes
from d2ssl import data as data_mod
from d2ssl import fork
from d2ssl.cli import EXIT_INTERNAL, run_guarded
from d2ssl.data import BLOCK_ROWS, ROLE_TEST, Coded, SplitDataset, write_csv_columns
from d2ssl.errors import FormatError

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


# Four blocks of 5 rows: this process takes file lines 2-11 and a forked
# child lines 12-21.
SPLIT_ROWS = 20


def split_pool():
    return SplitDataset(np.arange(2.0 * SPLIT_ROWS).reshape(SPLIT_ROWS, 2),
                        np.zeros(SPLIT_ROWS, np.int64), np.full(SPLIT_ROWS, ROLE_TEST), 4)


@pytest.mark.parametrize("faults,want", [
    ({17: (4, b"half")}, "line 17: bad x1 'half'"),
    ({14: (0, b"9x"), 20: (4, b"half")}, "line 14: bad id '9x'"),
    ({4: (4, b"half"), 17: (0, b"9x")}, "line 4: bad x1 'half'"),
], ids=["child", "child_twice", "both"])
def test_load_csv_split_over_processes_raises_the_inline_fault(tmp_path, request, faults, want):
    """A fault in the child's range reads as inline, and where both
    ranges hold one, this process's, the earlier, wins."""
    path = tmp_path / "ds.csv"
    split_pool().save_csv(path)
    lines = path.read_bytes().split(b"\r\n")
    for line, (field, text) in faults.items():
        fields = lines[line - 1].split(b",")
        fields[field] = text
        lines[line - 1] = b",".join(fields)
    path.write_bytes(b"\r\n".join(lines))
    for cpus in ("forked_scoring", "inline_scoring"):
        request.getfixturevalue(cpus)
        with mock.patch.object(data_mod, "BLOCK_ROWS", 5), pytest.raises(FormatError) as got:
            SplitDataset.load_csv(path, 4)
        assert str(got.value) == f"dataset CSV {want}", cpus


class Unprintable:
    def __str__(self):
        raise ValueError("row 17 cannot be printed")


def test_write_csv_failure_split_over_processes_leaves_the_inline_bytes(tmp_path, request):
    """A child sends the blocks it made before it failed, then its
    failure, so the file ends where the inline writer stopped."""
    column = [str(i) for i in range(SPLIT_ROWS)]
    column[17] = Unprintable()
    files = []
    for cpus in ("forked_scoring", "inline_scoring"):
        request.getfixturevalue(cpus)
        path = tmp_path / f"{cpus}.csv"
        with mock.patch.object(data_mod, "BLOCK_ROWS", 5), pytest.raises(ValueError, match="17"):
            write_csv_columns(path, ["a"], ["%s"], SPLIT_ROWS, [column])
        files.append(path.read_bytes())
    assert files[0] == files[1] == b"a\r\n" + b"".join(b"%d\r\n" % i for i in range(15))


@pytest.mark.parametrize("stage,kernel", [("write", "_block"), ("parse", "_floats")])
def test_killed_csv_worker_exits_internal(tmp_path, monkeypatch, capsys, forked_scoring,
                                          stage, kernel):
    """The child is killed mid-job while this process works on its own
    range; the wait for the child's blocks finds it gone."""
    path, stalled, real = tmp_path / "ds.csv", tmp_path / "stalled", getattr(data_mod, kernel)
    if stage == "parse":
        split_pool().save_csv(path)

    def stall_or_kill(*args):
        if fork._in_child:
            stalled.touch()
            time.sleep(60)
        deadline = time.monotonic() + 10
        while not stalled.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        for child in multiprocessing.active_children():
            os.kill(child.pid, signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(data_mod, kernel, stall_or_kill)
    monkeypatch.setattr(data_mod, "BLOCK_ROWS", 5)
    job = split_pool().save_csv if stage == "write" else SplitDataset.load_csv
    start = time.monotonic()
    assert run_guarded(job, path, *([4] if stage == "parse" else [])) == EXIT_INTERNAL
    assert time.monotonic() - start < 10
    assert capsys.readouterr().err == (
        f"internal error: the CSV worker exited with code {-signal.SIGKILL}\n")
    assert multiprocessing.active_children() == []
