"""Each study mode of d2ssl (compare, open_world, audit) runs end to
end once, and a bad setting ends in exit code 2 with the command line's
message rather than a traceback. The tests keep the names of the
scripts these modes replaced: run_reference is compare, run_open_world
is open_world and run_convergence_audit is audit."""

import csv
import hashlib
from pathlib import Path

import pytest

from d2ssl import cli
from d2ssl.cli import main
from test_cli import TINY


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
# The tables of a 50-step audit, pinned from the script audit replaced.
AUDIT_SHA256 = {
    "entropy_cdf.csv": "bdce4df547f533f3423385c584222acb73e0ec92d27cab54eeb61c439ce58744",
    "features.csv": "e56ba174f44f2180cd8460cb0d696bb740aa19e70c3c2592751ac3f90a3afe21",
    "flatness_audit.csv": "7f4dca1a015dc08895682e84f2291145e20199f70f78a3191885614eab5fcbf5",
    "flatness_summary.csv": "3537af4768b2cc25adc149c6d582d365e82031ad03001f170365b969343d545c",
    "t_converged_fraction.csv":
        "de01c1341928f7b38c9e12d6c479651754a568d7c72b6e484e2837b0601016b8",
    "t_histogram.csv": "6ed346125c401a0aac04a388d03d0ff7a45459e0625e83ce7d32265f9367939e",
}


def test_run_reference_one_seed(tmp_path):
    assert main(["compare", "--out", str(tmp_path), "--seeds", "1"]) == 0
    (row,) = read_rows(tmp_path / "comparison.csv")
    assert row["seed"] == "0"
    err, base = float(row["r2d2_error"]), float(row["baseline_error"])
    assert float(row["delta"]) == pytest.approx(base - err)
    for name, digest in REFERENCE_SHA256.items():
        assert sha256(tmp_path / name) == digest, name


def test_run_open_world_one_seed(tmp_path):
    assert main(["open_world", "--out", str(tmp_path), "--seeds", "1"]) == 0
    (row,) = read_rows(tmp_path / "open_world.csv")
    assert row["seed"] == "0"
    for key in ("unfiltered_error", "filtered_error", "pool_ood_fraction",
                "discard_ood_fraction"):
        assert 0.0 <= float(row[key]) <= 1.0, key
    # 660 OOD rows in a pool of about 2000 known ones
    assert 0.2 < float(row["pool_ood_fraction"]) < 0.3
    assert sha256(tmp_path / "open_world.csv") == OPEN_WORLD_SHA256


def test_run_convergence_audit_few_steps(tmp_path):
    assert main(["audit", "--out", str(tmp_path), "--steps", "50"]) == 0
    (row,) = read_rows(tmp_path / "t_converged_fraction.csv")
    assert 0.0 <= float(row["fraction_abs_t_below_1e-3"]) <= 1.0
    (summary,) = read_rows(tmp_path / "flatness_summary.csv")
    assert int(summary["n_samples"]) == len(read_rows(tmp_path / "flatness_audit.csv"))
    for name, digest in AUDIT_SHA256.items():
        assert sha256(tmp_path / name) == digest, name


def test_run_reference_flag_without_value_exits_config(tmp_path, capsys):
    assert main(["compare", "--out", str(tmp_path), "--seeds", "1", "--beta"]) == 2
    assert capsys.readouterr().err == "configuration error: flag --beta needs a value\n"
    assert not (tmp_path / "comparison.csv").exists()


def test_run_reference_seed_is_not_taken_for_seeds():
    flags = {"out": "x", "seed": "3", "beta": "0.1"}
    assert cli._study_settings("compare", flags) == {"seeds": 5}
    assert flags == {"out": "x", "seed": "3", "beta": "0.1"}


def test_run_reference_seed_flag_exits_config(tmp_path, capsys):
    # Each run's seed comes from --seeds; a --seed would be overwritten.
    out = tmp_path / "out"
    assert main(["compare", "--out", str(out), "--seeds", "1", "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "--seeds" in err
    assert not out.exists()


def test_run_reference_seeds_below_one_exits_config(tmp_path, capsys):
    assert main(["compare", "--out", str(tmp_path / "out"), "--seeds", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "seeds" in err
    assert not (tmp_path / "out").exists()


def test_run_reference_makes_out_before_training(tmp_path, monkeypatch, capsys):
    """An --out that cannot be made fails at once, not after a seed's training."""

    def no_training(*args):
        raise AssertionError("trained before making --out")

    monkeypatch.setattr(cli, "run_r2d2", no_training)
    (tmp_path / "file").write_text("")
    assert main(["compare", "--out", str(tmp_path / "file" / "out"), "--seeds", "1"]) == 3
    assert capsys.readouterr().err.startswith("I/O error:")


def test_run_reference_without_stage1_exits_config(tmp_path, capsys):
    # The baseline is stage 1; with no stage-1 epoch it has no test error.
    out = tmp_path / "out"
    assert main(["compare", "--out", str(out), "--seeds", "1", "--stage1_epochs", "0"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: the baseline comparison needs stage1_epochs >= 1\n")
    assert not out.exists()


@pytest.mark.parametrize("flags,named", [
    (["--ood_count", "-3"], "ood_count"),
    (["--discard_fraction", "1.5"], "discard_fraction"),
])
def test_run_open_world_bad_setting_exits_config(tmp_path, capsys, flags, named):
    # Every seed's configs are parsed before --out is made.
    out = tmp_path / "out"
    assert main(["open_world", "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and named in err
    assert not out.exists()


def test_run_open_world_seeds_below_one_exits_config(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["open_world", "--out", str(out), "--seeds", "0"]) == 2
    assert capsys.readouterr().err == "configuration error: seeds must be at least 1, got 0\n"
    assert not out.exists()


def test_run_convergence_audit_negative_steps_exits_config(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["audit", "--out", str(out), "--steps", "-3"]) == 2
    assert capsys.readouterr().err == "configuration error: steps must be at least 0, got -3\n"
    assert not out.exists()


def test_run_convergence_audit_bad_lam_exits_config_before_training(tmp_path, monkeypatch,
                                                                    capsys):
    def no_training(*args):
        raise AssertionError("the warm-up trained")

    monkeypatch.setattr(cli, "run_supervised_baseline", no_training)
    out = tmp_path / "out"
    assert main(["audit", "--out", str(out), "--lam", "-1"]) == 2
    assert capsys.readouterr().err == "configuration error: lambda must be non-negative\n"
    assert not out.exists()


@pytest.mark.parametrize("lr", ["-1", "nan", "inf"])
def test_run_convergence_audit_bad_lr_exits_config_before_training(tmp_path, monkeypatch,
                                                                   capsys, lr):
    def no_training(*args):
        raise AssertionError("the warm-up trained")

    monkeypatch.setattr(cli, "run_supervised_baseline", no_training)
    out = tmp_path / "out"
    assert main(["audit", "--out", str(out), "--lr", lr]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: lr must be finite and non-negative, got {float(lr)}\n")
    assert not out.exists()


@pytest.mark.parametrize("mode,key", [
    ("compare", "seed"), ("open_world", "seed"), ("open_world", "open_world"),
])
@pytest.mark.parametrize("where", ["flag", "config file"])
def test_study_refuses_the_keys_it_sets_on_each_run(tmp_path, capsys, mode, key, where):
    # A --seed must not be dropped for the runs' seeds 0 to N-1, nor an
    # open_world for the filter's two runs.
    out = tmp_path / "out"
    argv = [mode, "--out", str(out), "--seeds", "1"]
    if where == "flag":
        argv += [f"--{key}", "1"]
    else:
        (tmp_path / "run.cfg").write_text(f"{key} = 1\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {key} is not a setting of {mode}:")
    assert not out.exists()


@pytest.mark.parametrize("dataset", ["idx", "blobs"])
def test_compare_without_a_preset_for_the_dataset_exits_config(tmp_path, capsys, dataset):
    out = tmp_path / "out"
    assert main(["compare", "--out", str(out), "--dataset", dataset]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "gaussians" in err and "two_moons" in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--seeds", "x"], ["--seeds", "1.5"], ["--steps", "1e3"]])
def test_study_setting_that_does_not_parse_exits_config(tmp_path, capsys, flags):
    out = tmp_path / "out"
    mode = "audit" if flags[0] == "--steps" else "open_world"
    assert main([mode, "--out", str(out)] + flags) == 2
    assert capsys.readouterr().err == (
        f"configuration error: setting {flags[0][2:]!r}: cannot parse {flags[1]!r} as int\n")
    assert not out.exists()


@pytest.mark.parametrize("mode,flag", [("r2d2", "--seeds"), ("compare", "--steps"),
                                       ("audit", "--seeds")])
def test_study_setting_of_another_mode_exits_config(tmp_path, capsys, mode, flag):
    out = tmp_path / "out"
    assert main([mode, "--out", str(out), flag, "1"]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: unknown config key {flag[2:]!r}\n")
    assert not out.exists()


def test_open_world_gives_every_key_to_both_runs_of_each_seed(monkeypatch, tmp_path):
    seen = []
    real = cli.train_r2d2

    def train_r2d2(cfg, dataset):
        seen.append((cfg.seed, cfg.open_world, cfg.gauss_per_class, cfg.ood_count))
        return real(cfg, dataset)

    monkeypatch.setattr(cli, "train_r2d2", train_r2d2)
    argv = ["open_world", "--out", str(tmp_path), "--seeds", "2", "--ood_count", "20"]
    for key, value in TINY.items():
        argv += [f"--{key}", value]
    assert main(argv) == 0
    assert seen == [(seed, open_world, 30, 20) for seed in (0, 1) for open_world in (False, True)]


def test_study_resolved_config_replays(tmp_path):
    # A study's config_resolved.cfg leaves out the keys it sets on each
    # run, so the study takes it back with --config. --seeds is not a
    # config key and not in the file, so the replay gives it again.
    first, second = tmp_path / "a", tmp_path / "b"
    argv = ["compare", "--seeds", "2", "--dataset", "two_moons", "--moons_per_class", "30"]
    argv += [arg for key, value in TINY.items() for arg in (f"--{key}", value)]
    assert main(argv + ["--out", str(first)]) == 0
    resolved = (first / cli.RESOLVED_NAME).read_text()
    assert "seed = " not in resolved
    # The preset's layer_sizes is in place before the sizes are checked
    # against two moons' two classes, and a flag beats its stage2_epochs.
    assert "layer_sizes = 2,64,2,2\n" in resolved and "stage2_epochs = 2,2\n" in resolved
    assert main(["compare", "--seeds", "2", "--config", str(first / cli.RESOLVED_NAME),
                 "--out", str(second)]) == 0
    for name in ("comparison.csv", "seed1/r2d2_metrics.csv", cli.RESOLVED_NAME):
        assert (second / name).read_text() == (first / name).read_text().replace(
            str(first), str(second))
