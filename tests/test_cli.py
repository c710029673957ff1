"""Config parsing, CLI modes, exit codes, and artifact replay."""

import importlib.util
import os
import re
from pathlib import Path

import numpy as np
import pytest

from d2ssl.cli import (
    ABLATION_AXES,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    RESOLVED_NAME,
    ExperimentConfig,
    build_dataset,
    dump_config,
    main,
    parse_config,
    strategy_cells,
)
from d2ssl.errors import ConfigurationError
from d2ssl.model import init_params, save_checkpoint
from d2ssl.numerics import seeded_rng
from d2ssl.pseudo import init_pseudo_labels, save_snapshot

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
                            "open_world": "true"})
    path = tmp_path / "cfg"
    dump_config(cfg, path)
    again = parse_config(path.read_text())
    assert again == cfg


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


def test_main_r2d2_success_and_artifacts(tmp_path):
    assert main(tiny_args("r2d2", tmp_path)) == EXIT_OK
    for name in (RESOLVED_NAME, "metrics.csv", "model.d2ck", "pseudo.d2pl",
                 "dataset.csv", "t_histogram.csv", "flatness_audit.csv",
                 "entropy_cdf.csv", "features.csv"):
        assert (tmp_path / name).exists(), name


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


def test_main_ablation(tmp_path):
    assert main(tiny_args("ablation", tmp_path)) == EXIT_OK
    lines = (tmp_path / "ablation_summary.csv").read_text().splitlines()
    assert lines[0] == "cell,overrides,test_error"
    names = [l.split(",")[0] for l in lines[1:]]
    assert "alpha=0.3" in names
    assert "strategy:e_full" in names
    # 5 + 5 + 5 + 3 axis cells plus 5 strategy cells
    assert len(names) == 23


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
