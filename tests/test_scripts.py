"""Each script in scripts/ runs end to end once, and a bad setting ends
in exit code 2 with the command line's message rather than a traceback."""

import csv
import hashlib
import importlib.util
from pathlib import Path

import pytest

from d2ssl import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# The outputs of the one-seed runs, pinned before the two study loops
# moved into d2ssl.cli.
REFERENCE_SHA256 = {
    "comparison.csv": "b4468280eb617a80e393a90d92907f04a54d7acb3ae91cea7b2ec45cc53c61a1",
    "seed0/r2d2_metrics.csv": "81e469281d8ba7d3358891143ced8924d734adc5b21ffa561fb77d56ef4c8f00",
    "seed0/baseline_metrics.csv":
        "19c8ec33c523b1c2cad9fedf59d954a12e7d0ca85d24ba6492eaa9bf16ccf2de",
}
OPEN_WORLD_SHA256 = "2f6335539e442323830fe227febe7eb2325fd2e9699413d50454798f5bac2573"


def test_run_reference_one_seed(tmp_path):
    assert load("run_reference").main(["--out", str(tmp_path), "--seeds", "1"]) == 0
    (row,) = read_rows(tmp_path / "comparison.csv")
    assert row["seed"] == "0"
    err, base = float(row["r2d2_error"]), float(row["baseline_error"])
    assert float(row["delta"]) == pytest.approx(base - err)
    for name, digest in REFERENCE_SHA256.items():
        assert sha256(tmp_path / name) == digest, name


def test_run_open_world_one_seed(tmp_path):
    assert load("run_open_world").main(["--out", str(tmp_path), "--seeds", "1"]) == 0
    (row,) = read_rows(tmp_path / "open_world.csv")
    assert row["seed"] == "0"
    for key in ("unfiltered_error", "filtered_error", "pool_ood_fraction",
                "discard_ood_fraction"):
        assert 0.0 <= float(row[key]) <= 1.0, key
    # 660 OOD rows in a pool of about 2000 known ones
    assert 0.2 < float(row["pool_ood_fraction"]) < 0.3
    assert sha256(tmp_path / "open_world.csv") == OPEN_WORLD_SHA256


def test_run_convergence_audit_few_steps(tmp_path):
    assert load("run_convergence_audit").main(["--out", str(tmp_path), "--steps", "50"]) == 0
    (row,) = read_rows(tmp_path / "t_converged_fraction.csv")
    assert 0.0 <= float(row["fraction_abs_t_below_1e-3"]) <= 1.0
    (summary,) = read_rows(tmp_path / "flatness_summary.csv")
    assert int(summary["n_samples"]) == len(read_rows(tmp_path / "flatness_audit.csv"))


def test_run_reference_flag_without_value_exits_config(tmp_path, capsys):
    script = load("run_reference")
    assert script.main(["--out", str(tmp_path), "--seeds", "1", "--beta"]) == 2
    assert capsys.readouterr().err == "configuration error: flag --beta needs a value\n"
    assert not (tmp_path / "comparison.csv").exists()


def test_run_reference_seed_is_not_taken_for_seeds():
    args, extra = load("run_reference").parse_args(["--out", "x", "--seed", "3", "--beta", "0.1"])
    assert args.seeds == 5
    assert extra == ["--seed", "3", "--beta", "0.1"]


def test_run_reference_seed_flag_exits_config(tmp_path, capsys):
    # Each run's seed comes from --seeds; a --seed would be overwritten.
    out = tmp_path / "out"
    assert load("run_reference").main(["--out", str(out), "--seeds", "1", "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "--seeds" in err
    assert not out.exists()


def test_run_reference_seeds_below_one_exits_config(tmp_path, capsys):
    assert load("run_reference").main(["--out", str(tmp_path / "out"), "--seeds", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "seeds" in err
    assert not (tmp_path / "out").exists()


def test_run_reference_makes_out_before_training(tmp_path, monkeypatch, capsys):
    """An --out that cannot be made fails at once, not after a seed's training."""
    script = load("run_reference")

    def no_training(*args):
        raise AssertionError("trained before making --out")

    monkeypatch.setattr(cli, "run_r2d2", no_training)
    (tmp_path / "file").write_text("")
    assert script.main(["--out", str(tmp_path / "file" / "out"), "--seeds", "1"]) == 3
    assert capsys.readouterr().err.startswith("I/O error:")


def test_run_reference_without_stage1_exits_config(tmp_path, capsys):
    # The baseline is stage 1; with no stage-1 epoch it has no test error.
    out = tmp_path / "out"
    assert load("run_reference").main(["--out", str(out), "--seeds", "1",
                                       "--stage1_epochs", "0"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: the baseline comparison needs stage1_epochs >= 1\n")
    assert not (out / "comparison.csv").exists()


@pytest.mark.parametrize("flags,named", [
    (["--ood-count", "-3"], "ood_count"),
    (["--discard", "1.5"], "discard_fraction"),
])
def test_run_open_world_bad_setting_exits_config(tmp_path, capsys, flags, named):
    # Every seed's configs are parsed before --out is made.
    out = tmp_path / "out"
    assert load("run_open_world").main(["--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and named in err
    assert not out.exists()


def test_run_open_world_seeds_below_one_exits_config(tmp_path, capsys):
    out = tmp_path / "out"
    assert load("run_open_world").main(["--out", str(out), "--seeds", "0"]) == 2
    assert capsys.readouterr().err == "configuration error: seeds must be at least 1, got 0\n"
    assert not out.exists()


def test_run_convergence_audit_negative_steps_exits_config(tmp_path, capsys):
    out = tmp_path / "out"
    assert load("run_convergence_audit").main(["--out", str(out), "--steps", "-3"]) == 2
    assert capsys.readouterr().err == "configuration error: steps must be at least 0, got -3\n"
    assert not out.exists()


def test_run_convergence_audit_bad_lam_exits_config_before_training(tmp_path, monkeypatch,
                                                                    capsys):
    def no_training(*args):
        raise AssertionError("the warm-up trained")

    monkeypatch.setattr(cli, "run_supervised_baseline", no_training)
    out = tmp_path / "out"
    assert load("run_convergence_audit").main(["--out", str(out), "--lam", "-1"]) == 2
    assert capsys.readouterr().err == "configuration error: lambda must be non-negative\n"
    assert not out.exists()


@pytest.mark.parametrize("lr", ["-1", "nan", "inf"])
def test_run_convergence_audit_bad_lr_exits_config_before_training(tmp_path, monkeypatch,
                                                                   capsys, lr):
    def no_training(*args):
        raise AssertionError("the warm-up trained")

    monkeypatch.setattr(cli, "run_supervised_baseline", no_training)
    out = tmp_path / "out"
    assert load("run_convergence_audit").main(["--out", str(out), "--lr", lr]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: lr must be finite and non-negative, got {float(lr)}\n")
    assert not out.exists()
