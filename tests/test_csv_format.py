"""Every CSV the program writes reads back with csv.reader as rows
exactly as wide as its header, and data.write_csv_columns, the one
writer of them all, prints the bytes csv.writer prints."""

import csv
import io
import math
import sys
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from d2ssl import data as data_mod
from d2ssl.cli import ABLATION_AXES, EXIT_OK, main
from d2ssl.data import write_csv_columns
from test_cli import TINY, tiny_args

R2D2_CSVS = ("metrics.csv", "dataset.csv", "t_histogram.csv", "flatness_audit.csv",
             "flatness_summary.csv", "entropy_cdf.csv", "features.csv",
             "t_converged_fraction.csv")

# The overrides of the strategy cells of the tiny config's two segments.
TINY_STRATEGIES = {
    "strategy:a_stage2_only": "stage2_epochs=4;stage2_lrs=0.01;stage2_repredict=0",
    "strategy:b_repeat": "stage2_epochs=2,2;stage2_lrs=0.01,0.01;stage2_repredict=0,0",
    "strategy:c_repredict": "stage2_epochs=2,2;stage2_lrs=0.01,0.01;stage2_repredict=0,1",
    "strategy:d_reduce_lr": "stage2_epochs=2,2;stage2_lrs=0.01,0.008;stage2_repredict=0,0",
    "strategy:e_full": "stage2_epochs=2,2;stage2_lrs=0.01,0.008;stage2_repredict=0,1",
}


def read_table(path):
    """The header and rows of a CSV file, each row checked to be as wide
    as the header."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    bad = [i for i, row in enumerate(rows, start=2) if len(row) != len(header)]
    assert not bad, f"{path}: lines {bad} are not {len(header)} fields wide"
    return header, rows


def spy(monkeypatch, name):
    """The list of the arguments of every call of data_mod.<name>."""
    calls, real = [], getattr(data_mod, name)
    monkeypatch.setattr(data_mod, name, lambda *args: calls.append(args) or real(*args))
    return calls


# The columns the program prints as text (role names, class labels, stage
# names), and its one-row tables of Python scalars, printed by %.
TEXT_COLUMNS = {"role", "class", "stage"}
SCALAR_TABLES = {"flatness_summary.csv", "t_converged_fraction.csv"}


def kernel_prints(fmt, value) -> bool:
    """Whether the numpy kernels print value under fmt themselves: an
    integer below 10**16 in size, or a normal float in fixed notation
    (below 2**51 under %r) that is no power of two under %r, has no
    fraction of 20 digits and is no exact tie at the printed length."""
    if isinstance(value, int):
        return abs(value) < 10**16
    if not math.isfinite(value) or abs(value) < sys.float_info.min or "e" in fmt % value:
        return False
    shortest = fmt != "%.9g"
    if shortest and (abs(value) >= 2**51 or math.frexp(value)[0] in (0.5, -0.5)
                     or len(fmt % abs(value)) == 22):  # 0.000ddd..., 17 digits
        return False
    exact = abs(Fraction(value))
    e10 = math.floor(math.log10(abs(value)))
    for digits in (15, 16, 17) if shortest else (9,):
        scaled = exact * Fraction(10) ** (digits - 1 - e10)
        if scaled - math.floor(scaled) == Fraction(1, 2):
            return False
    return True


def test_r2d2_tables_are_well_formed_and_print_each_text_once(tmp_path, monkeypatch,
                                                             inline_scoring):
    # Inline, so that every table is written in this process, where the
    # spies see it: a forked child writes diagnose's residual tables.
    quoted, fallbacks = spy(monkeypatch, "_quoted"), spy(monkeypatch, "_fallback")
    assert main(tiny_args("r2d2", tmp_path)) == EXIT_OK
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(R2D2_CSVS)
    texts = []
    for name in R2D2_CSVS:
        header, rows = read_table(tmp_path / name)
        assert rows, name
        texts += header
        for key, column in zip(header, zip(*rows)):
            if key in TEXT_COLUMNS or name in SCALAR_TABLES:
                texts += sorted(set(column))  # one block per table in the tiny run
    assert sorted(text for (text,) in quoted) == sorted(texts)
    assert fallbacks
    for fmt, values, ok, _ in fallbacks:
        for value in values[~ok].tolist():
            assert not kernel_prints(fmt, value), (fmt, value)


def test_ablation_overrides_read_back_as_their_text(tmp_path):
    assert main(tiny_args("ablation", tmp_path)) == EXIT_OK
    _, rows = read_table(tmp_path / "ablation_summary.csv")
    axes = {f"{key}={value}": f"{key}={value}"
            for key, values in ABLATION_AXES.items() for value in values}
    assert {cell: overrides for cell, overrides, _ in rows} == {**axes, **TINY_STRATEGIES}
    assert [cell for cell, _, _ in rows] == list(axes) + list(TINY_STRATEGIES)
    for _, _, error in rows:
        assert 0.0 <= float(error) <= 1.0


def test_script_tables_are_well_formed(tmp_path):
    flags = [arg for key, value in TINY.items() for arg in (f"--{key}", value)]
    out = tmp_path / "reference"
    assert main(["compare", "--out", str(out), "--seeds", "2"] + flags) == EXIT_OK
    assert [row[0] for row in read_table(out / "comparison.csv")[1]] == ["0", "1"]
    for seed in (0, 1):
        for name in ("r2d2_metrics.csv", "baseline_metrics.csv"):
            assert read_table(out / f"seed{seed}" / name)[1]
    out = tmp_path / "open_world"
    assert main(["open_world", "--out", str(out), "--seeds", "1"]) == EXIT_OK
    ((seed, *fractions),) = read_table(out / "open_world.csv")[1]
    assert seed == "0" and all(0.0 <= float(v) <= 1.0 for v in fractions)


def csv_writer_bytes(header, rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


# Text with every character that needs quoting. A row of one empty
# field is left out: csv.writer quotes it, write_csv_columns does not,
# and no table of the program has one.
FIELD = st.text(alphabet=',"\r\n a1', max_size=4)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_write_csv_columns_quotes_like_csv_writer(tmp_path_factory, data):
    width = data.draw(st.integers(1, 4))
    field = FIELD.filter(bool) if width == 1 else FIELD
    header = data.draw(st.lists(field, min_size=width, max_size=width))
    rows = data.draw(st.lists(st.lists(field, min_size=width, max_size=width), max_size=12))
    line_end = data.draw(st.sampled_from(["\r\n", "\n"]))
    header_end = data.draw(st.sampled_from([None, "\n"]))
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    with mock.patch.object(data_mod, "BLOCK_ROWS", 5):  # blocks of either kind in a file
        write_csv_columns(path, header, ["%s"] * width, len(rows), list(zip(*rows)),
                          line_end=line_end, header_end=header_end)
    with open(path, newline="") as fh:
        assert list(csv.reader(fh)) == [header] + rows
    if line_end == "\r\n" and header_end is None:
        assert path.read_bytes() == csv_writer_bytes(header, rows)

