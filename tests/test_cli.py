"""Config parsing, CLI modes, exit codes, and artifact replay."""

import csv
import logging
import math
import multiprocessing
import os
import re
import signal
import struct
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from d2ssl import cli, fork, numerics, trainer
from d2ssl import data as data_mod
from d2ssl import diagnostics as diag

from d2ssl.cli import (
    ABLATION_AXES,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    MODES,
    RESOLVED_NAME,
    ExperimentConfig,
    build_dataset,
    dump_config,
    main,
    parse_config,
    strategy_cells,
)
from d2ssl.errors import (
    ConfigurationError, D2Error, DimensionError, FrozenUpdateError, NumericError,
)
from d2ssl.model import init_params, load_checkpoint, save_checkpoint
from d2ssl.numerics import seeded_rng, softmax_pair
from d2ssl.pseudo import D2Config, init_pseudo_labels, load_snapshot, save_snapshot
from d2ssl.data import OOD_CLASS
from d2ssl.trainer import METRICS_HEADER, MetricsRecord, SchedulePlan

# Written by a default `d2ssl r2d2 --out reference` run.
RESOLVED_FIXTURE = Path(__file__).resolve().parent / "data" / "config_resolved.cfg"

TINY = {
    "gauss_per_class": "30",
    "stage1_epochs": "5", "stage1_horizon": "5",
    "stage2_epochs": "2,2", "stage2_lrs": "0.01,0.008", "stage2_repredict": "0,1",
    "stage3_epochs": "2", "stage3_horizon": "2",
    "batch_labeled": "5", "batch_unlabeled": "20",
}


def tiny_args(mode, out, extra=None):
    args = [mode, "--out", str(out)]
    for k, v in {**TINY, **(extra or {})}.items():
        args += [f"--{k}", v]
    return args


def test_parse_empty_is_defaults():
    cfg = parse_config("", {})
    assert cfg == ExperimentConfig()


def test_parse_file_and_flag_override():
    cfg = parse_config("alpha = 0.1\n", {"alpha": "0.2"})
    assert cfg.alpha == 0.2


def test_parse_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nbeta = 0.05  # trailing\n", {})
    assert cfg.beta == 0.05


def test_parse_unknown_key_names_line():
    with pytest.raises(ConfigurationError, match=r"banana_key.*line 2"):
        parse_config("alpha = 0.1\nbanana_key = 3\n", {})


def test_parse_bad_value_names_key_and_line():
    with pytest.raises(ConfigurationError, match=r"alpha.*banana.*line 1"):
        parse_config("alpha = banana\n", {})


def test_parse_missing_equals():
    with pytest.raises(ConfigurationError, match="line 1"):
        parse_config("alpha 0.1\n", {})


def test_parse_validates_hyperparameters():
    with pytest.raises(ConfigurationError):
        parse_config("alpha = -1\n", {})
    with pytest.raises(ConfigurationError):
        parse_config("stage2_lrs = 0.1\n", {})  # length mismatch with epochs


def test_dump_round_trip(tmp_path):
    cfg = parse_config("", {"alpha": "0.25", "dataset": "two_moons",
                            "layer_sizes": "2,64,2,2", "open_world": "true"})
    path = tmp_path / "cfg"
    dump_config(cfg, path, ())
    again = parse_config(path.read_text(), {})
    assert again == cfg


def test_default_run_resolved_config_replays_byte_identically(tmp_path):
    text = RESOLVED_FIXTURE.read_text()
    path = tmp_path / RESOLVED_NAME
    dump_config(parse_config(text, {"out": str(tmp_path)}), path, ())
    lines = path.read_text().splitlines(keepends=True)
    want = text.splitlines(keepends=True)
    assert [l for l in lines if not l.startswith("out = ")] == [
        l for l in want if not l.startswith("out = ")
    ]
    # The defaults themselves still resolve to the same document.
    dump_config(parse_config("", {"out": "reference"}), path, ())
    assert path.read_text() == text


def test_config_defaults_are_the_loss_and_schedule_defaults():
    assert parse_config("", {}).d2_config() == D2Config()
    assert parse_config("", {}).schedule_plan() == SchedulePlan()


def test_ablation_axes_values():
    # Grid axes published with the method.                     [PAPER]
    assert ABLATION_AXES["alpha"] == ["0.1", "0.2", "0.3", "0.4", "0.5"]
    assert ABLATION_AXES["beta"] == ["0.01", "0.02", "0.03", "0.04", "0.05"]
    assert ABLATION_AXES["lam"] == ["1000", "2000", "3000", "4000", "5000"]
    assert set(ABLATION_AXES["classification_loss"]) == {
        "forward_kl", "reverse_kl", "squared_l2"
    }


def test_strategy_cells_structure():
    cells = strategy_cells(ExperimentConfig())
    assert list(cells) == [
        "a_stage2_only", "b_repeat", "c_repredict", "d_reduce_lr", "e_full",
    ]
    assert cells["a_stage2_only"]["stage2_epochs"] == "200"
    assert cells["b_repeat"]["stage2_lrs"] == "0.01,0.01,0.01,0.01"
    assert cells["e_full"]["stage2_repredict"] == "0,1,1,1"


def test_main_unknown_mode():
    assert main(["fly"]) == EXIT_CONFIG


def test_main_unknown_flag():
    assert main(["r2d2", "--bogus", "1"]) == EXIT_CONFIG


def test_main_missing_config_file(tmp_path):
    assert main(["r2d2", "--config", str(tmp_path / "nope.cfg")]) == EXIT_IO


def test_main_config_file_not_utf8_exits_config_before_out(tmp_path, capsys):
    # A UTF-16 document: its byte-order mark is no UTF-8.
    cfg_path, out = tmp_path / "bad.cfg", tmp_path / "out"
    cfg_path.write_bytes(b"\xff\xfe" + f"out = {out}\n".encode("utf-16-le"))
    assert main(["r2d2", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"configuration error: config {cfg_path} is not UTF-8: ")
    assert not out.exists()


@pytest.mark.parametrize("mode,key", [("r2d2", "out"), ("diagnose", "checkpoint")])
def test_main_setting_not_utf8_exits_config_before_out(tmp_path, capsys, mode, key):
    # Python passes an argument's non-UTF-8 bytes on as surrogates, which
    # config_resolved.cfg, a UTF-8 file, cannot hold.
    bad = str(tmp_path) + os.fsdecode(b"/bad\xffname")
    settings = {"out": str(tmp_path / "out"), key: bad}
    argv = [mode] + [arg for k, v in settings.items() for arg in (f"--{k}", v)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"configuration error: config key {key!r}: {bad!r} is not UTF-8 text\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("key", ["batch_labeled", "batch_unlabeled"])
def test_main_batch_size_below_one(tmp_path, key):
    assert main(tiny_args("r2d2", tmp_path, {key: "0"})) == EXIT_CONFIG


def test_main_numeric_abort(tmp_path):
    code = main(tiny_args("r2d2", tmp_path, {
        "stage1_lr": "1e12", "stage1_epochs": "30", "stage1_horizon": "30",
    }))
    assert code == EXIT_NUMERIC


def test_main_non_finite_params_at_stage_end(tmp_path, capsys):
    # The one stage-3 batch's loss is finite; its step is not.
    code = main(tiny_args("r2d2", tmp_path, {
        "stage3_epochs": "1", "stage3_horizon": "1", "stage3_lr": "1e305",
    }))
    assert code == EXIT_NUMERIC
    assert "non-finite params at the end of stage3" in capsys.readouterr().err
    assert not (tmp_path / "model.d2ck").exists()


@pytest.mark.parametrize("error", [DimensionError, D2Error, FrozenUpdateError])
def test_main_internal_error_exits_5(tmp_path, monkeypatch, capsys, error):
    def broken(cfg, out_dir):
        raise error("an invariant broke")

    monkeypatch.setitem(MODES, "r2d2", broken)
    assert main(["r2d2", "--out", str(tmp_path)]) == EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: an invariant broke\n"


# Layer sizes whose input width or class count the dataset settings
# contradict: each used to fail only once data was built or trained on.
@pytest.mark.parametrize("extra", [
    {"layer_sizes": "2,64,2,3"},
    {"layer_sizes": "3,64,2,4"},
    {"layer_sizes": "2,64,2,5"},
    {"gauss_classes": "3"},
    {"gauss_dim": "3"},
    {"dataset": "two_moons"},
    {"dataset": "two_moons", "layer_sizes": "3,64,2,2"},
], ids=["classes_below", "width", "classes_above", "gauss_classes", "gauss_dim",
        "moons_classes", "moons_width"])
def test_main_layer_sizes_must_fit_the_dataset(tmp_path, capsys, extra):
    with pytest.raises(ConfigurationError, match="layer_sizes"):
        parse_config("", {**TINY, **extra})
    assert main(tiny_args("r2d2", tmp_path, extra)) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: layer_sizes")
    assert not any(tmp_path.iterdir())


def test_main_idx_layer_sizes_checked_after_loading(tmp_path, capsys):
    img, lbl = tmp_path / "imgs.idx3-ubyte", tmp_path / "lbls.idx1-ubyte"
    n = 200
    img.write_bytes(struct.pack(">IIII", 0x00000803, n, 2, 1)
                    + seeded_rng(0).integers(0, 256, 2 * n, dtype=np.uint8).tobytes())
    lbl.write_bytes(struct.pack(">II", 0x00000801, n) + bytes(i % 4 for i in range(n)))
    extra = {"dataset": "idx", "idx_images": str(img), "idx_labels": str(lbl)}
    build_dataset(parse_config("", {**TINY, **extra, "layer_sizes": "2,8,2,4"}))
    bad = {**extra, "layer_sizes": "2,8,2,3"}
    with pytest.raises(ConfigurationError, match="layer_sizes"):
        build_dataset(parse_config("", {**TINY, **bad}))
    assert main(tiny_args("r2d2", tmp_path / "out", bad)) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: layer_sizes")
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_main_r2d2_success_and_artifacts(tmp_path):
    assert main(tiny_args("r2d2", tmp_path)) == EXIT_OK
    for name in (RESOLVED_NAME, "metrics.csv", "model.d2ck", "pseudo.d2pl",
                 "dataset.csv", "t_histogram.csv", "flatness_audit.csv",
                 "entropy_cdf.csv", "features.csv"):
        assert (tmp_path / name).exists(), name


# (key, value, what the error names)
BAD_SETTINGS = [
    ("alpha", "nan", "alpha"), ("beta", "inf", "beta"), ("lam", "inf", "lam"),
    ("k_init", "nan", "init_scale"), ("k_init", "-inf", "init_scale"),
    ("stage1_lr", "nan", "learning rates"), ("stage1_lr", "-0.5", "learning rates"),
    ("stage2_lrs", "0.01,inf", "learning rates"),
    ("stage3_lr", "-1", "learning rates"), ("momentum", "inf", "momentum"),
    ("momentum", "1", "momentum"), ("weight_decay", "-1", "weight_decay"),
    ("weight_decay", "nan", "weight_decay"),
    ("seed", "-1", "seed"), ("gauss_classes", "0", "gauss_classes"),
    ("gauss_dim", "0", "gauss_dim"), ("labeled_per_class", "-1", "labeled_per_class"),
    ("ood_count", "-3", "ood_count"), ("test_fraction", "nan", "test_fraction"),
    ("gauss_spread", "inf", "gauss_spread"),
    ("stage1_horizon", "2", "stage1_horizon"), ("stage1_horizon", "0", "stage1_horizon"),
    ("stage3_horizon", "0", "stage3_horizon"), ("stage3_horizon", "-1", "stage3_horizon"),
    ("activation", "foo", "activation"), ("layer_sizes", "2,0,4", "layer_sizes"),
    ("dataset", "spiral", "unknown dataset"), ("dataset", "idx", "idx_images"),
    ("gauss_per_class", "0", "gauss_per_class"),
    ("gauss_center_scale", "0", "duplicate centers"),
    ("stage2_repredict", "0,2", "stage2_repredict"),
]


@pytest.mark.parametrize("key,value,named", BAD_SETTINGS)
def test_parse_rejects_bad_setting(key, value, named):
    with pytest.raises(ConfigurationError, match=named):
        parse_config("", {**TINY, key: value})


@pytest.mark.parametrize("key,value", [setting[:2] for setting in BAD_SETTINGS])
def test_main_bad_setting_exits_config_before_training(tmp_path, key, value):
    out = tmp_path / "out"
    assert main(tiny_args("r2d2", out, {key: value})) == EXIT_CONFIG
    assert not out.exists()  # no resolved config, no dataset, no metrics


# Dataset settings refused at parse time that need a second key to get
# past the layer-size check: gauss_dim 1 alone already contradicts
# layer_sizes 2,64,2,4, and two moons have two classes.
BAD_DATASETS = {
    "gauss_dim_1": ({"gauss_dim": "1", "layer_sizes": "1,64,2,4"}, "duplicate centers"),
    "moons_per_class_0": ({"dataset": "two_moons", "layer_sizes": "2,64,2,2",
                           "moons_per_class": "0"}, "moons_per_class"),
}


@pytest.mark.parametrize("extra,named", BAD_DATASETS.values(), ids=BAD_DATASETS.keys())
def test_main_bad_dataset_exits_config_before_training(tmp_path, capsys, extra, named):
    with pytest.raises(ConfigurationError, match=named):
        parse_config("", {**TINY, **extra})
    out = tmp_path / "out"
    assert main(tiny_args("r2d2", out, extra)) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["r2d2", "supervised_baseline", "ablation"])
def test_main_without_labeled_rows_exits_config_before_training(tmp_path, capsys, mode):
    # Every training mode refuses the setting before it makes --out; the
    # stages trust that labeled rows exist.
    extra = {"labeled_per_class": "0", "stage1_epochs": "0",
             "stage2_epochs": "1", "stage2_lrs": "0.01", "stage2_repredict": "0",
             "stage3_epochs": "1", "stage3_horizon": "1"}
    out = tmp_path / "out"
    assert main(tiny_args(mode, out, extra)) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: labeled_per_class must be >= 1 to train, got 0\n")
    assert not out.exists()


def test_main_diagnose_ignores_labeled_per_class(tmp_path):
    assert main(diagnose_argv(tmp_path) + ["--labeled_per_class", "0"]) == EXIT_OK


CONFIG_KEYS = [f.name for f in fields(ExperimentConfig)]
ODD_VALUES = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "-1", "-0.5", "0", "1", "-0",
                     "", " ", "junk", "true", "1,2", ",", "0,4", "2,-3,4", "1e-320",
                     "99999999999999999999", "0x10", "1_000"]),
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
    st.text(max_size=8),
)


@given(
    doc=st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), ODD_VALUES), max_size=4),
    flags=st.dictionaries(st.sampled_from(CONFIG_KEYS), ODD_VALUES, max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_parse_config_fuzz_raises_only_configuration_error(doc, flags):
    text = "".join(f"{key} = {value}\n" for key, value in doc)
    try:
        parse_config(text, flags)
    except ConfigurationError:
        pass


@pytest.mark.parametrize("n_classes", [2, 3, 4, 7, 9])
def test_main_r2d2_outputs_equal_with_class_major_softmax_off(tmp_path, monkeypatch, n_classes):
    extra = {"gauss_classes": str(n_classes), "layer_sizes": f"2,8,3,{n_classes}"}
    outputs = {}
    for below in (numerics._CLASS_MAJOR_BELOW, 0):
        monkeypatch.setattr(numerics, "_CLASS_MAJOR_BELOW", below)
        is_row_major = softmax_pair(np.zeros((2, n_classes)))[0].flags.c_contiguous
        assert is_row_major == (n_classes >= below)
        out = tmp_path / str(below)
        assert main(tiny_args("r2d2", out, extra)) == EXIT_OK
        outputs[below] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != RESOLVED_NAME
        }
    on, off = outputs.values()
    assert len(on) == 10
    assert on == off


def test_main_resolved_config_replays_identically(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(tiny_args("r2d2", out1)) == EXIT_OK
    assert main(["r2d2", "--config", str(out1 / RESOLVED_NAME),
                 "--out", str(out2)]) == EXIT_OK
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_main_baseline(tmp_path):
    assert main(tiny_args("supervised_baseline", tmp_path)) == EXIT_OK
    text = (tmp_path / "metrics.csv").read_text()
    assert text.splitlines()[1].startswith("stage1,")


def test_main_diagnose_from_r2d2_outputs(tmp_path):
    run_dir = tmp_path / "run"
    diag_dir = tmp_path / "diag"
    assert main(tiny_args("r2d2", run_dir)) == EXIT_OK
    code = main([
        "diagnose", "--out", str(diag_dir),
        "--checkpoint", str(run_dir / "model.d2ck"),
        "--snapshot", str(run_dir / "pseudo.d2pl"),
        "--dataset_csv", str(run_dir / "dataset.csv"),
    ])
    assert code == EXIT_OK
    assert (diag_dir / "t_histogram.csv").exists()


def test_main_diagnose_requires_inputs(tmp_path):
    assert main(["diagnose", "--out", str(tmp_path)]) == EXIT_CONFIG


def diagnose_argv(tmp_path, sizes="2,64,2,4", store_rows=None, csv_line=None, extra=None):
    """Write checkpoint, snapshot and dataset CSV of the tiny config and
    return the diagnose command line over them. sizes gives the
    checkpoint's layer sizes, store_rows cuts the snapshot to its first
    rows, csv_line = (k, text) replaces line k of the dataset CSV, and
    extra holds config keys over the tiny config's."""
    cfg = parse_config("", {**TINY, **(extra or {})})
    ds = build_dataset(cfg)
    params = init_params([int(v) for v in sizes.split(",")], "tanh", seeded_rng(0))
    store = init_pseudo_labels(ds, init_params(cfg.model_sizes(), "tanh", seeded_rng(0)),
                               cfg.d2_config())
    if store_rows is not None:
        store.logits, store.frozen = store.logits[:store_rows], store.frozen[:store_rows]
    save_checkpoint(params, tmp_path / "model.d2ck")
    save_snapshot(store, tmp_path / "pseudo.d2pl")
    ds.save_csv(tmp_path / "dataset.csv")
    if csv_line is not None:
        lines = (tmp_path / "dataset.csv").read_text().splitlines()
        lines[csv_line[0]] = csv_line[1]
        (tmp_path / "dataset.csv").write_text("\n".join(lines) + "\n")
    return ["diagnose", "--out", str(tmp_path / "diag"),
            "--checkpoint", str(tmp_path / "model.d2ck"),
            "--snapshot", str(tmp_path / "pseudo.d2pl"),
            "--dataset_csv", str(tmp_path / "dataset.csv")]


def test_main_diagnose_consistent_inputs(tmp_path):
    assert main(diagnose_argv(tmp_path)) == EXIT_OK
    assert (tmp_path / "diag" / "features.csv").exists()
    # With beta 0 the flatness bound exp(-loss/beta) is undefined, and
    # the flatness audit is skipped.
    assert main(diagnose_argv(tmp_path) + ["--out", str(tmp_path / "b0"), "--beta", "0"]) == 0
    assert (tmp_path / "b0" / "t_histogram.csv").exists()
    assert not (tmp_path / "b0" / "flatness_audit.csv").exists()


@pytest.mark.parametrize("case,message", [
    ({"csv_line": (2, "1,trainer,0,0.5,0.5")}, r"line 3: bad role 'trainer'"),
    ({"csv_line": (2, "1,test,0,0.5")}, r"line 3 has 4 fields, header has 5"),
    ({"csv_line": (2, "1,test,0,0.5,half")}, r"line 3: bad x1 'half'"),
    ({"store_rows": 10}, r"snapshot has 10 rows, dataset has 120"),
    ({"sizes": "2,64,2,3"}, r"checkpoint has 3 classes, snapshot has 4"),
    ({"csv_line": (2, "1,test,4,0.5,0.5")}, r"dataset has class 4, snapshot has 4 classes"),
    ({"sizes": "3,64,2,4"}, r"checkpoint takes 3 inputs, dataset has 2"),
])
def test_main_diagnose_bad_inputs_exit_io(tmp_path, capsys, case, message):
    assert main(diagnose_argv(tmp_path, **case)) == EXIT_IO
    assert re.search(message, capsys.readouterr().err)


def test_main_diagnose_without_unlabeled_rows(tmp_path):
    argv = diagnose_argv(tmp_path)
    csv_path = tmp_path / "dataset.csv"
    csv_path.write_bytes(csv_path.read_bytes().replace(b",unlabeled,", b",test,"))
    assert main(argv) == EXIT_OK
    for name in ("t_histogram.csv", "flatness_audit.csv", "flatness_summary.csv",
                 "entropy_cdf.csv", "features.csv", "t_converged_fraction.csv"):
        assert (tmp_path / "diag" / name).exists(), name
    audit = (tmp_path / "diag" / "flatness_audit.csv").read_text()
    assert audit == "id,p_hat_n,p_tilde_n,loss,bound,residual\n"


def test_main_diagnose_checkpoint_trailing_bytes_exit_io(tmp_path, capsys):
    argv = diagnose_argv(tmp_path)
    with open(tmp_path / "model.d2ck", "ab") as fh:
        fh.write(b"junk")
    assert main(argv) == EXIT_IO
    assert "4 trailing bytes after the tensor data" in capsys.readouterr().err


def nan_feature(tmp_path):
    path = tmp_path / "dataset.csv"
    lines = path.read_text().splitlines()
    fields = lines[5].split(",")  # data line 6, id 4
    lines[5] = ",".join(fields[:3] + ["nan"] + fields[4:])
    path.write_text("\n".join(lines) + "\n")


def inf_weight(tmp_path):
    params = load_checkpoint(tmp_path / "model.d2ck")
    params.layers[0].weight[1, 3] = math.inf
    save_checkpoint(params, tmp_path / "model.d2ck")


def minus_inf_logit(tmp_path):
    store = load_snapshot(tmp_path / "pseudo.d2pl")
    store.logits[7, 2] = -math.inf
    save_snapshot(store, tmp_path / "pseudo.d2pl")


@pytest.mark.parametrize("corrupt,message", [
    (nan_feature, "dataset CSV line 6: non-finite x0 nan"),
    (inf_weight, "checkpoint layer 0 weight entry (1, 3): non-finite inf"),
    (minus_inf_logit, "snapshot sample 7: non-finite logit 2 -inf"),
])
def test_main_diagnose_non_finite_input_exits_io(tmp_path, capsys, corrupt, message):
    """A non-finite input stops diagnose before it writes any table."""
    argv = diagnose_argv(tmp_path)
    corrupt(tmp_path)
    assert main(argv) == EXIT_IO
    assert message in capsys.readouterr().err
    assert not list((tmp_path / "diag").glob("*.csv"))


def unlabeled_as_test(tmp_path):
    csv_path = tmp_path / "dataset.csv"
    csv_path.write_bytes(csv_path.read_bytes().replace(b",unlabeled,", b",test,"))


@pytest.mark.parametrize("extra,flags,edit,tables", [
    ({}, [], None, 6),
    ({"ood_count": "20"}, [], None, 6),
    ({}, ["--beta", "0"], None, 4),
    ({}, [], unlabeled_as_test, 6),
], ids=["closed_world", "ood_rows", "beta_0", "no_unlabeled_rows"])
def test_main_diagnose_writes_the_same_bytes_forked_and_inline(
        tmp_path, monkeypatch, request, extra, flags, edit, tables):
    """The residual tables come from a forked child, or from this
    process on one CPU, and every table is byte-equal."""
    argv = diagnose_argv(tmp_path, extra=extra)
    if edit is not None:
        edit(tmp_path)
    if extra:  # an OOD row's class field is empty
        assert b",unlabeled,," in (tmp_path / "dataset.csv").read_bytes()
    scores, calls = diag.unlabeled_scores, []  # the calls made in this process
    monkeypatch.setattr(diag, "unlabeled_scores", lambda *args: calls.append(1) or scores(*args))
    runs = {}
    for scoring in ("forked_scoring", "inline_scoring"):
        request.getfixturevalue(scoring)
        calls.clear()
        out = tmp_path / scoring
        assert main(argv + ["--out", str(out)] + flags) == EXIT_OK
        runs[scoring] = ({path.name: path.read_bytes() for path in out.glob("*.csv")}, len(calls))
    (forked, forked_calls), (inline, inline_calls) = runs.values()
    assert (forked_calls, inline_calls) == (0, 1)
    assert len(forked) == tables and forked == inline


def test_main_diagnose_child_writes_long_tables_inline(tmp_path, monkeypatch, capsys, request):
    """With every CSV longer than one block, dataset.csv is parsed in two
    processes; then the diagnostics worker writes flatness_audit.csv
    itself, as a child never forks, and this process writes features.csv
    itself, as no CPU is free while that child runs. The tables are
    those of the one-CPU path."""
    argv = diagnose_argv(tmp_path)
    monkeypatch.setattr(data_mod, "BLOCK_ROWS", 5)
    made, child = [], fork.Child
    monkeypatch.setattr(fork, "Child", lambda name, *args: made.append(name)
                        or child(name, *args))
    runs = []
    for cpus in ("forked_scoring", "inline_scoring"):
        request.getfixturevalue(cpus)
        out = tmp_path / cpus
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        runs.append({path.name: path.read_bytes() for path in out.glob("*.csv")})
    assert runs[0] == runs[1] and len(runs[0]) == 6
    assert runs[0]["flatness_audit.csv"].count(b"\n") > 5 + 1
    assert made == ["CSV", "diagnostics"]
    assert capsys.readouterr().err == ""


def fail_in_the_flatness_audit(*args):
    raise NumericError("non-finite residual of sample 3")


def stall_in_the_flatness_audit(*args):
    time.sleep(60)


@pytest.mark.parametrize("scoring", ["forked_scoring", "inline_scoring"])
def test_main_diagnose_residual_table_failure_exits_as_inline(
        tmp_path, monkeypatch, capsys, request, scoring):
    request.getfixturevalue(scoring)
    argv = diagnose_argv(tmp_path)
    monkeypatch.setattr(diag, "flatness_audit", fail_in_the_flatness_audit)
    assert main(argv) == EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric abort: non-finite residual of sample 3\n"
    assert (tmp_path / "diag" / "features.csv").exists()


@pytest.mark.parametrize("scoring", ["forked_scoring", "inline_scoring"])
@pytest.mark.parametrize("residual", [fail_in_the_flatness_audit, stall_in_the_flatness_audit],
                         ids=["child_fails", "child_stalls"])
def test_main_diagnose_feature_failure_wins(tmp_path, monkeypatch, capsys, request, scoring,
                                            residual):
    """The feature export is the first job, so its failure is the one
    reported, whether the child's chain fails too or is still running;
    the child is stopped at once."""
    request.getfixturevalue(scoring)
    argv = diagnose_argv(tmp_path)

    def export_fails(*args):
        raise OSError("cannot write features.csv")

    monkeypatch.setattr(diag, "export_features", export_fails)
    monkeypatch.setattr(diag, "flatness_audit", residual)
    start = time.monotonic()
    assert main(argv) == EXIT_IO
    assert time.monotonic() - start < 10
    assert capsys.readouterr().err == "I/O error: cannot write features.csv\n"
    assert multiprocessing.active_children() == []


def test_main_diagnose_killed_child_exits_internal(tmp_path, monkeypatch, capsys,
                                                  forked_scoring):
    # The child stalls in its chain and is killed from outside while the
    # feature export runs here; the wait for its reply finds it gone.
    argv = diagnose_argv(tmp_path)
    export = diag.export_features

    def kill_child(*args):
        (child,) = multiprocessing.active_children()
        os.kill(child.pid, signal.SIGKILL)
        return export(*args)

    monkeypatch.setattr(diag, "export_features", kill_child)
    monkeypatch.setattr(diag, "flatness_audit", stall_in_the_flatness_audit)
    start = time.monotonic()
    assert main(argv) == EXIT_INTERNAL
    assert time.monotonic() - start < 10
    assert capsys.readouterr().err == (
        f"internal error: the diagnostics worker exited with code {-signal.SIGKILL}\n")
    assert multiprocessing.active_children() == []


def test_main_ablation(tmp_path):
    assert main(tiny_args("ablation", tmp_path)) == EXIT_OK
    lines = (tmp_path / "ablation_summary.csv").read_text().splitlines()
    assert lines[0] == "cell,overrides,test_error"
    names = [l.split(",")[0] for l in lines[1:]]
    assert "alpha=0.3" in names
    assert "strategy:e_full" in names
    # 5 + 5 + 5 + 3 axis cells plus 5 strategy cells
    assert len(names) == 23


def test_ablation_trains_each_distinct_config_once(monkeypatch):
    # alpha=0.1, beta=0.03, classification_loss=forward_kl and
    # strategy:e_full all parse to the base config: one run, four cells.
    runs = []

    def run_r2d2(dataset, sizes, activation, d2cfg, plan, seed):
        runs.append((d2cfg, plan))
        return None, None, [MetricsRecord("stage3", 0, 0.0, acc_test=len(runs) / 100)]

    monkeypatch.setattr(cli, "run_r2d2", run_r2d2)
    cfg = parse_config("", TINY)
    cells = {f"{key}={value}": {key: value}
             for key, values in cli.ABLATION_AXES.items() for value in values}
    cells.update((f"strategy:{name}", o) for name, o in cli.strategy_cells(cfg).items())
    errors = cli.ablation_errors(cfg, cells)
    assert len(cells) == 23 and len(runs) == 20
    shared = ["alpha=0.1", "beta=0.03", "classification_loss=forward_kl", "strategy:e_full"]
    assert {errors[name] for name in shared} == {errors["alpha=0.1"]}
    assert len({errors[name] for name in cells if name not in shared}) == 19


def test_main_ablation_without_stage2_segments_exits_config(tmp_path, monkeypatch, capsys):
    # The strategy cells vary the stage-2 segments; with none there is no
    # table, and the run stops before any cell trains.
    def no_training(*args):
        raise AssertionError("a cell trained")

    monkeypatch.setattr(cli, "run_r2d2", no_training)
    extra = {"stage2_epochs": "", "stage2_lrs": "", "stage2_repredict": ""}
    assert main(tiny_args("ablation", tmp_path, extra)) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: the strategy cells need at least one stage-2 segment\n")
    assert not (tmp_path / "ablation_summary.csv").exists()


def test_main_non_finite_stage2_metric_exits_numeric(tmp_path, capsys):
    # A pseudo-logit step this large overflows the pseudo-logits, and the
    # residual columns of the epoch turn NaN while every loss stays finite.
    extra = {"alpha": "0.9", "lam": "1.7e308", "stage2_epochs": "2",
             "stage2_lrs": "0.01", "stage2_repredict": "0"}
    assert main(tiny_args("r2d2", tmp_path, extra)) == EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "numeric abort: non-finite t_abs_p50 at stage2 epoch 1: nan\n")
    assert not (tmp_path / "metrics.csv").exists()


def test_main_killed_evaluation_worker_exits_internal(tmp_path, monkeypatch, capsys,
                                                     forked_scoring):
    # The worker is killed from outside between stages 1 and 2; the
    # next send or reply finds it gone.
    def kill_worker(*args):
        (worker,) = multiprocessing.active_children()
        os.kill(worker.pid, signal.SIGKILL)
        return init_pseudo_labels(*args)

    monkeypatch.setattr(trainer, "init_pseudo_labels", kill_worker)
    start = time.monotonic()
    assert main(tiny_args("r2d2", tmp_path)) == EXIT_INTERNAL
    assert time.monotonic() - start < 10
    assert capsys.readouterr().err == (
        f"internal error: the evaluation worker exited with code {-signal.SIGKILL}\n")
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "metrics.csv").exists()


def test_main_baseline_killed_evaluation_worker_exits_internal(tmp_path, monkeypatch, capsys,
                                                              forked_scoring):
    # supervised_baseline scores stage 1 in the evaluation worker too;
    # killed before stage 1 trains, the next send or reply finds it gone.
    stage1 = trainer.stage1_supervised

    def kill_worker(*args):
        (worker,) = multiprocessing.active_children()
        os.kill(worker.pid, signal.SIGKILL)
        return stage1(*args)

    monkeypatch.setattr(trainer, "stage1_supervised", kill_worker)
    start = time.monotonic()
    assert main(tiny_args("supervised_baseline", tmp_path)) == EXIT_INTERNAL
    assert time.monotonic() - start < 10
    assert capsys.readouterr().err == (
        f"internal error: the evaluation worker exited with code {-signal.SIGKILL}\n")
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "metrics.csv").exists()


def test_main_pseudo_logit_overflow_exits_numeric(tmp_path, capsys):
    # lam x alpha is twice the largest float: the second epoch's pseudo-
    # logit step, once predictions and pseudo-labels have drifted apart,
    # overflows the store while the epoch's losses stay finite.
    extra = {"alpha": "2", "lam": "1.7e308", "stage2_epochs": "2",
             "stage2_lrs": "0.01", "stage2_repredict": "0"}
    assert main(tiny_args("r2d2", tmp_path, extra)) == EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "numeric abort: non-finite pseudo-logits at stage2 epoch 1\n")
    assert not (tmp_path / "metrics.csv").exists()


def test_alpha_not_above_beta_warns_once_per_parsed_config(tmp_path, monkeypatch, caplog):
    # A warning, not an error: the failure mode itself is studied.
    def warnings():
        return sum("<= beta=" in r.getMessage() for r in caplog.records)

    extra = {"alpha": "0.02", "beta": "0.03"}
    with caplog.at_level(logging.WARNING, logger="d2ssl"):
        assert main(tiny_args("r2d2", tmp_path / "r2d2", extra)) == EXIT_OK
        assert warnings() == 1
        caplog.clear()
        monkeypatch.setattr(cli, "run_r2d2", lambda *args: (
            None, None, [MetricsRecord("stage3", 0, 0.0, acc_test=1.0)]))
        assert main(tiny_args("ablation", tmp_path / "ablation", extra)) == EXIT_OK
    # The run's config, then each cell whose alpha is not above its beta:
    # beta 0.02 to 0.05, and every lam, loss and strategy cell.
    assert warnings() == 1 + 4 + 5 + 3 + 5


def test_alpha_not_above_beta_warns_once_per_study_run(tmp_path, monkeypatch, caplog):
    # A study parses each of its runs' configs, so each run warns.
    monkeypatch.setattr(cli, "run_r2d2", lambda *args: (
        None, None, [MetricsRecord("stage1", 0, 0.0, acc_test=1.0)]))
    extra = {"alpha": "0.02", "beta": "0.03"}
    with caplog.at_level(logging.WARNING, logger="d2ssl"):
        assert main(tiny_args("compare", tmp_path, extra) + ["--seeds", "3"]) == EXIT_OK
    # The study's config, then each of its three runs.
    assert sum("<= beta=" in r.getMessage() for r in caplog.records) == 1 + 3


# Documented exit codes and their stderr prefixes (cli module docstring).
EXIT_PREFIXES = {
    EXIT_OK: "", EXIT_CONFIG: "configuration error: ", EXIT_IO: "I/O error: ",
    EXIT_NUMERIC: "numeric abort: ",
}


LAM_VALUES = st.one_of(
    st.sampled_from(["0", "1", "500", "1e5", "1e150", "1e300", "1e308", "1.7e308"]),
    st.floats(0.0, 1e308).map(repr),
)


@st.composite
def tiny_r2d2_settings(draw):
    """A tiny valid r2d2 config with up to three of its layer sizes,
    horizons, batch sizes, filter, class count, OOD count, dataset kind,
    loss weights and stage-2 segments mutated, often into settings the
    program must refuse or that overflow."""
    cfg = {**TINY, "gauss_per_class": "20", "moons_per_class": "20"}
    width, hidden, n_out, extra_out = 2, [4, 2], 4, 0
    kinds = ["layers", "horizons", "batches", "filter", "classes", "ood", "dataset", "loss",
             "stage2"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3, unique=True)):
        if kind == "layers":
            width = draw(st.sampled_from([2, 2, 3]))
            hidden = draw(st.lists(st.integers(0, 6), max_size=3))
            extra_out = draw(st.sampled_from([0, 0, 1]))
        elif kind == "horizons":
            for stage, most in (("stage1", 5), ("stage3", 3)):
                cfg[f"{stage}_epochs"] = str(draw(st.integers(0, most)))
                cfg[f"{stage}_horizon"] = str(draw(st.integers(-1, most)))
        elif kind == "batches":
            cfg["batch_labeled"] = str(draw(st.integers(0, 25)))
            cfg["batch_unlabeled"] = str(draw(st.integers(0, 90)))
        elif kind == "filter":
            cfg["open_world"] = draw(st.sampled_from(["true", "false"]))
            cfg["discard_fraction"] = draw(
                st.sampled_from(["0", "0.1", "0.5", "0.99", "1", "-0.1"]))
        elif kind == "classes":
            n_out = draw(st.integers(1, 6))
            cfg["gauss_classes"] = str(n_out)
        elif kind == "ood":
            cfg["ood_count"] = str(draw(st.sampled_from([1, 5, 40, 200, -1])))
        elif kind == "loss":
            cfg["lam"] = draw(LAM_VALUES)
            cfg["alpha"] = draw(st.sampled_from(["0.01", "0.1", "0.9", "5", "1e3", "1e300", "0"]))
            cfg["beta"] = draw(st.sampled_from(["0", "0.03", "0.2", "2", "1e300", "-0.1"]))
        elif kind == "stage2":
            n = draw(st.integers(0, 3))
            lengths = draw(st.sampled_from([(n, n, n)] * 4 + [(n, n, n + 1), (n + 1, n, n)]))
            for key, (values, length) in zip(
                    ("stage2_epochs", "stage2_lrs", "stage2_repredict"),
                    zip(([0, 1, 2, 3], ["0", "0.01", "0.5", "30"], [0, 1]), lengths)):
                cfg[key] = ",".join(map(str, draw(st.lists(
                    st.sampled_from(values), min_size=length, max_size=length))))
        else:
            cfg["dataset"] = draw(st.sampled_from(["two_moons", "idx", "spiral"]))
            n_out = 2 if cfg["dataset"] == "two_moons" else n_out
    cfg["layer_sizes"] = ",".join(map(str, [width, *hidden, n_out + extra_out]))
    return cfg


@given(settings_=tiny_r2d2_settings())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_main_mutated_tiny_run_ends_in_a_documented_exit(tmp_path_factory, capsys, settings_):
    """Whatever the mutation, a run ends in 0 or a typed error's exit
    code with its message, never a traceback or an internal error."""
    out = tmp_path_factory.mktemp("run")
    args = ["r2d2", "--out", str(out)]
    for key, value in settings_.items():
        args += [f"--{key}", value]
    capsys.readouterr()
    code = main(args)
    err = capsys.readouterr().err
    assert code in EXIT_PREFIXES, (code, err)
    prefix = EXIT_PREFIXES[code]
    assert err.startswith(prefix) if prefix else err == "", (code, err)
    assert "Traceback" not in err
    assert (out / "metrics.csv").exists() == (code == EXIT_OK)
    if code == EXIT_OK:
        assert_stage_columns_finite(out / "metrics.csv", settings_)


# The metrics.csv columns each stage fills.
STAGE_COLUMNS = {
    "stage1": ["lr", "loss_total", "loss_c", "loss_e", "acc_labeled", "acc_test", "mean_H_pred"],
    "stage2": METRICS_HEADER.split(",")[2:],
    "stage3": ["lr", "loss_total", "loss_c", "loss_e", "acc_labeled", "acc_test",
               "acc_pseudo", "mean_H_pseudo", "mean_H_pred"],
}


def _column_pool(stage, column):
    """The pool whose rows a stage's column averages, when that pool can
    be empty: the test rows, the unlabeled rows of a known class, or the
    active unlabeled rows of stages 2 and 3."""
    if column == "acc_test":
        return "test"
    if column == "acc_pseudo":
        return "known"
    if column == "mean_H_pseudo" or stage == "stage2" and column not in ("lr", "acc_labeled"):
        return "active"
    return None


def assert_stage_columns_finite(path, settings_):
    """Every column a stage fills is finite in each of its rows, unless
    the pool it averages is empty."""
    cfg = parse_config("", settings_)
    ds = build_dataset(cfg)
    unl = ds.unlabeled_indices.size
    pools = {
        "test": ds.test_indices.size,
        "known": int(np.sum(ds.true_classes[ds.unlabeled_indices] != OOD_CLASS)),
        "active": unl - math.ceil(cfg.discard_fraction * unl) if cfg.open_world else unl,
    }
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            for column in STAGE_COLUMNS[row["stage"]]:
                pool = _column_pool(row["stage"], column)
                if pool is None or pools[pool]:
                    assert math.isfinite(float(row[column])), (row["epoch"], column, row)


def test_out_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("D2SSL_OUT", str(tmp_path / "envout"))
    args = ["supervised_baseline"]
    for k, v in TINY.items():
        args += [f"--{k}", v]
    assert main(args) == EXIT_OK
    assert (tmp_path / "envout" / "metrics.csv").exists()


def test_out_in_config_file_beats_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("D2SSL_OUT", str(tmp_path / "envout"))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"out={tmp_path / 'fileout'}\n")
    args = ["supervised_baseline", "--config", str(cfg_path)]
    for k, v in TINY.items():
        args += [f"--{k}", v]
    assert main(args) == EXIT_OK
    assert (tmp_path / "fileout" / "metrics.csv").exists()
    assert not (tmp_path / "envout").exists()


def test_reference_script_parses_flags_like_the_cli(monkeypatch, tmp_path, capsys):
    # compare gives every --key value flag, parsed like any mode's, to
    # each of its runs.
    runs = []

    def run_r2d2(dataset, sizes, activation, d2cfg, plan, seed):
        runs.append((dataset.n_samples, sizes, d2cfg.alpha, plan.open_world, seed))
        return None, None, [MetricsRecord("stage1", 0, 0.0, acc_test=1.0)]

    monkeypatch.setattr(cli, "run_r2d2", run_r2d2)
    argv = ["compare", "--out", str(tmp_path), "--seeds", "2", "--batch_unlabeled", "20"]
    assert main(argv + ["--open_world", "false", "--alpha", "0.2",
                        "--gauss_per_class", "30"]) == EXIT_OK
    assert runs == [(120, [2, 64, 2, 4], 0.2, False, seed) for seed in (0, 1)]
    runs.clear()
    assert main(argv + ["--dataset", "two_moons", "--moons_per_class", "30"]) == EXIT_OK
    assert [run[:2] for run in runs] == [(60, [2, 64, 2, 2])] * 2
    cfg = parse_config((tmp_path / RESOLVED_NAME).read_text(), {})
    assert [s.epochs for s in cfg.schedule_plan().stage2_segments] == [100, 100, 100, 100]
    assert main(argv + ["--open_world", "maybe"]) == EXIT_CONFIG
    assert capsys.readouterr().err.endswith(
        "configuration error: config key 'open_world': cannot parse 'maybe' as bool\n")


def test_usage_names_every_mode(capsys):
    assert main(["-h"]) == EXIT_OK
    usage = capsys.readouterr().out
    assert usage == cli.__doc__ + "\n"
    assert all(re.search(rf"^  {mode} ", usage, re.M) for mode in MODES)


def test_usage_states_every_preset_and_study_setting():
    # The usage text restates cli.PRESETS and cli.STUDY_SETTINGS by hand;
    # each value must be in its mode's entry, a float that is whole
    # written either way (lam 64000.0 as 64000).
    entries = {mode: " ".join(text.split()) for mode, text in re.findall(
        r"^  (\w+) +(.*?)(?=^  \w|^$)", cli.__doc__, re.M | re.S)}

    def states(mode, key, value):
        return any(re.search(rf"\b{key} {re.escape(form)}(?![\w.])", entries[mode])
                   for form in (value, value.removesuffix(".0")))

    presets = [(mode, key, value) for mode, preset in cli.PRESETS.items()
               for values in (preset.values() if mode == "compare" else [preset])
               for key, value in values.items()]
    assert len(presets) == 6 and all(states(*preset) for preset in presets)
    for mode, settings in cli.STUDY_SETTINGS.items():
        for key, (default, low) in settings.items():
            stated = rf"--{key} \w+ >= {re.escape(str(low))} \(default {re.escape(str(default))}\)"
            assert re.search(stated, entries[mode]), (mode, key)


@pytest.mark.parametrize("argv", [["--help"], ["r2d2", "--help"], ["r2d2", "--beta", "-h"],
                                  ["compare", "--seeds", "0", "-h"], ["no_such_mode", "-h"]])
def test_help_anywhere_prints_usage_and_exits_ok(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_OK
    assert capsys.readouterr().out == cli.__doc__ + "\n"
    assert not (tmp_path / "out").exists()


def test_no_arguments_prints_usage_and_exits_config(capsys):
    assert main([]) == EXIT_CONFIG
    assert capsys.readouterr().err == cli.__doc__ + "\n"
