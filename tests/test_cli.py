"""Config parsing, CLI modes, exit codes, and artifact replay."""

import importlib.util
import logging
import os
import re
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from d2ssl import cli, numerics

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
    ConfigurationError, DimensionError, FrozenUpdateError, ScheduleError,
)
from d2ssl.model import init_params, save_checkpoint
from d2ssl.numerics import seeded_rng, softmax_pair
from d2ssl.pseudo import D2Config, init_pseudo_labels, save_snapshot
from d2ssl.trainer import MetricsRecord, SchedulePlan

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
    cfg = parse_config("")
    assert cfg == ExperimentConfig()


def test_parse_file_and_flag_override():
    cfg = parse_config("alpha = 0.1\n", {"alpha": "0.2"})
    assert cfg.alpha == 0.2


def test_parse_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nbeta = 0.05  # trailing\n")
    assert cfg.beta == 0.05


def test_parse_unknown_key_names_line():
    with pytest.raises(ConfigurationError, match=r"banana_key.*line 2"):
        parse_config("alpha = 0.1\nbanana_key = 3\n")


def test_parse_bad_value_names_key_and_line():
    with pytest.raises(ConfigurationError, match=r"alpha.*banana.*line 1"):
        parse_config("alpha = banana\n")


def test_parse_missing_equals():
    with pytest.raises(ConfigurationError, match="line 1"):
        parse_config("alpha 0.1\n")


def test_parse_validates_hyperparameters():
    with pytest.raises(ConfigurationError):
        parse_config("alpha = -1\n")
    with pytest.raises(ConfigurationError):
        parse_config("stage2_lrs = 0.1\n")  # length mismatch with epochs


def test_dump_round_trip(tmp_path):
    cfg = parse_config("", {"alpha": "0.25", "dataset": "two_moons",
                            "layer_sizes": "2,64,2,2", "open_world": "true"})
    path = tmp_path / "cfg"
    dump_config(cfg, path)
    again = parse_config(path.read_text())
    assert again == cfg


def test_default_run_resolved_config_replays_byte_identically(tmp_path):
    text = RESOLVED_FIXTURE.read_text()
    path = tmp_path / RESOLVED_NAME
    dump_config(parse_config(text, {"out": str(tmp_path)}), path)
    lines = path.read_text().splitlines(keepends=True)
    want = text.splitlines(keepends=True)
    assert [l for l in lines if not l.startswith("out = ")] == [
        l for l in want if not l.startswith("out = ")
    ]
    # The defaults themselves still resolve to the same document.
    dump_config(parse_config("", {"out": "reference"}), path)
    assert path.read_text() == text


def test_config_defaults_are_the_loss_and_schedule_defaults():
    assert parse_config("").d2_config() == D2Config()
    assert parse_config("").schedule_plan() == SchedulePlan()


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


@pytest.mark.parametrize("error", [DimensionError, ScheduleError, FrozenUpdateError])
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


def diagnose_argv(tmp_path, sizes="2,64,2,4", store_rows=None, csv_line=None):
    """Write checkpoint, snapshot and dataset CSV of the tiny config and
    return the diagnose command line over them. sizes gives the
    checkpoint's layer sizes, store_rows cuts the snapshot to its first
    rows, and csv_line = (k, text) replaces line k of the dataset CSV."""
    cfg = parse_config("", TINY)
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


def test_main_ablation(tmp_path):
    assert main(tiny_args("ablation", tmp_path)) == EXIT_OK
    lines = (tmp_path / "ablation_summary.csv").read_text().splitlines()
    assert lines[0] == "cell,overrides,test_error"
    names = [l.split(",")[0] for l in lines[1:]]
    assert "alpha=0.3" in names
    assert "strategy:e_full" in names
    # 5 + 5 + 5 + 3 axis cells plus 5 strategy cells
    assert len(names) == 23


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


# Documented exit codes and their stderr prefixes (cli module docstring).
EXIT_PREFIXES = {
    EXIT_OK: "", EXIT_CONFIG: "configuration error: ", EXIT_IO: "I/O error: ",
    EXIT_NUMERIC: "numeric abort: ",
}


@st.composite
def tiny_r2d2_settings(draw):
    """A tiny valid r2d2 config with up to three of its layer sizes,
    horizons, batch sizes, filter, class count, OOD count and dataset
    kind mutated, often into settings the program must refuse."""
    cfg = {**TINY, "gauss_per_class": "20", "moons_per_class": "20"}
    width, hidden, n_out, extra_out = 2, [4, 2], 4, 0
    kinds = ["layers", "horizons", "batches", "filter", "classes", "ood", "dataset"]
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


def test_reference_script_parses_flags_like_the_cli():
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_reference.py"
    spec = importlib.util.spec_from_file_location("run_reference", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    cfg = script.build_config(3, "gaussians", {"open_world": "false", "alpha": "0.2"})
    assert cfg.open_world is False
    assert (cfg.seed, cfg.alpha) == (3, 0.2)
    moons = script.build_config(0, "two_moons", {})
    assert moons.layer_sizes == "2,64,2,2"
    with pytest.raises(ConfigurationError):
        script.build_config(0, "gaussians", {"open_world": "maybe"})
