"""Command-line entry point.

Usage: d2ssl <mode> --config PATH [--key value ...] [--out DIR]

Modes: r2d2, supervised_baseline, ablation, diagnose. The config file is
a flat ``key = value`` document with ``#`` comments; any config key can
be overridden with a ``--key value`` flag. Every run writes the fully
resolved config next to its outputs so it can be replayed exactly.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numeric
abort.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import data as data_mod
from . import diagnostics as diag
from .errors import ConfigurationError, D2Error, FormatError, NumericError
from .model import load_checkpoint, save_checkpoint
from .numerics import seeded_rng
from .pseudo import (
    CLASSIFICATION_LOSSES, D2Config, load_snapshot, save_snapshot,
)
from .trainer import (
    SchedulePlan, Stage2Segment, run_r2d2, run_supervised_baseline, write_metrics,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

RESOLVED_NAME = "config_resolved.cfg"


@dataclass
class ExperimentConfig:
    seed: int = 0
    out: str = "."
    # dataset
    dataset: str = "gaussians"
    gauss_classes: int = 4
    gauss_dim: int = 2
    gauss_per_class: int = 1000
    gauss_spread: float = 1.0
    gauss_center_scale: float = 3.0
    moons_per_class: int = 2000
    moons_noise: float = 0.1
    idx_images: str = ""
    idx_labels: str = ""
    labeled_per_class: int = 5
    test_fraction: float = 0.5
    ood_count: int = 0
    ood_center_scale: float = 0.0
    # model
    layer_sizes: str = "2,64,2,4"
    activation: str = "tanh"
    # joint-loss hyperparameters
    alpha: float = 0.1
    beta: float = 0.03
    lam: float = 500.0
    k_init: float = 10.0
    classification_loss: str = "forward_kl"
    labeled_full_loss: bool = True
    # schedule
    stage1_epochs: int = 200
    stage1_lr: float = 0.05
    stage1_horizon: int = 200
    stage2_epochs: str = "50,50,50,50"
    stage2_lrs: str = "0.01,0.008,0.006,0.004"
    stage2_repredict: str = "0,1,1,1"
    stage3_epochs: int = 100
    stage3_lr: float = 0.01
    stage3_horizon: int = 100
    batch_labeled: int = 20
    batch_unlabeled: int = 100
    momentum: float = 0.9
    weight_decay: float = 2e-4
    open_world: bool = False
    discard_fraction: float = 0.1
    # diagnose mode inputs
    checkpoint: str = ""
    snapshot: str = ""
    dataset_csv: str = ""

    def d2_config(self) -> D2Config:
        if self.classification_loss not in CLASSIFICATION_LOSSES:
            raise ConfigurationError(
                f"classification_loss must be one of {CLASSIFICATION_LOSSES}"
            )
        return D2Config(
            alpha=self.alpha, beta=self.beta, lam=self.lam,
            init_scale=self.k_init,
            classification_loss=self.classification_loss,
            labeled_full_loss=self.labeled_full_loss,
        )

    def schedule_plan(self) -> SchedulePlan:
        epochs = _int_list(self.stage2_epochs, "stage2_epochs")
        lrs = _float_list(self.stage2_lrs, "stage2_lrs")
        reps = _int_list(self.stage2_repredict, "stage2_repredict")
        if not len(epochs) == len(lrs) == len(reps):
            raise ConfigurationError(
                "stage2_epochs, stage2_lrs, stage2_repredict must have equal length"
            )
        return SchedulePlan(
            stage1_epochs=self.stage1_epochs, stage1_lr=self.stage1_lr,
            stage1_horizon=self.stage1_horizon,
            stage2_segments=[
                Stage2Segment(e, lr, bool(r)) for e, lr, r in zip(epochs, lrs, reps)
            ],
            stage3_epochs=self.stage3_epochs, stage3_lr=self.stage3_lr,
            stage3_horizon=self.stage3_horizon,
            batch_labeled=self.batch_labeled, batch_unlabeled=self.batch_unlabeled,
            momentum=self.momentum, weight_decay=self.weight_decay,
            open_world=self.open_world, discard_fraction=self.discard_fraction,
        )

    def model_sizes(self) -> list[int]:
        return _int_list(self.layer_sizes, "layer_sizes")


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _int_list(text: str, key: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigurationError(f"{key}: expected comma-separated integers") from exc


def _float_list(text: str, key: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigurationError(f"{key}: expected comma-separated floats") from exc


def _convert(key: str, raw: str, line_no: int | None):
    where = f" (line {line_no})" if line_no is not None else ""
    if key not in _FIELD_TYPES:
        raise ConfigurationError(f"unknown config key {key!r}{where}")
    target = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if target in ("int", int):
            return int(raw)
        if target in ("float", float):
            return float(raw)
        if target in ("bool", bool):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError as exc:
        raise ConfigurationError(
            f"config key {key!r}: cannot parse {raw!r} as {target}{where}"
        ) from exc


def _entries(text: str) -> list[tuple[int, str, str]]:
    """(line number, key, raw value) of each setting in a config document."""
    out = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {line_no}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        out.append((line_no, key.strip(), raw))
    return out


def parse_config(text: str, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Parse a flat key=value document, then apply flag overrides."""
    cfg = ExperimentConfig()
    for line_no, key, raw in _entries(text):
        setattr(cfg, key, _convert(key, raw, line_no))
    for key, raw in (overrides or {}).items():
        setattr(cfg, key, _convert(key, raw, None))
    cfg.d2_config()       # validate hyperparameters now
    cfg.schedule_plan()   # and the schedule
    if len(cfg.model_sizes()) < 2:
        raise ConfigurationError("layer_sizes needs at least two entries")
    return cfg


def dump_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        for f in fields(ExperimentConfig):
            value = getattr(cfg, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            fh.write(f"{f.name} = {value}\n")


def _gauss_centers(n_classes: int, dim: int, scale: float) -> np.ndarray:
    if n_classes == 4 and dim == 2:
        return scale * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.float64)
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    centers = np.zeros((n_classes, dim))
    centers[:, 0] = scale * np.cos(angles)
    centers[:, 1 % dim] = scale * np.sin(angles)
    return centers


def build_dataset(cfg: ExperimentConfig) -> data_mod.SplitDataset:
    rng = seeded_rng(cfg.seed)
    if cfg.dataset == "gaussians":
        raw = data_mod.gen_gaussians(
            cfg.gauss_classes, cfg.gauss_dim, cfg.gauss_per_class,
            _gauss_centers(cfg.gauss_classes, cfg.gauss_dim, cfg.gauss_center_scale),
            cfg.gauss_spread, rng,
        )
    elif cfg.dataset == "two_moons":
        raw = data_mod.gen_two_moons(cfg.moons_per_class, cfg.moons_noise, rng)
    elif cfg.dataset == "idx":
        if not cfg.idx_images or not cfg.idx_labels:
            raise ConfigurationError("idx dataset requires idx_images and idx_labels")
        raw = data_mod.load_idx(cfg.idx_images, cfg.idx_labels)
    else:
        raise ConfigurationError(f"unknown dataset {cfg.dataset!r}")
    ds = data_mod.split(raw, cfg.labeled_per_class, cfg.test_fraction, rng)
    if cfg.ood_count > 0:
        source = data_mod.gen_gaussians(
            1, ds.dim, cfg.ood_count,
            np.full((1, ds.dim), cfg.ood_center_scale),
            cfg.gauss_spread, rng,
        )
        ds = data_mod.inject_ood(ds, source, cfg.ood_count, rng)
    return ds


def _emit_diagnostics(out_dir, dataset, params, store, d2cfg) -> None:
    scores = diag.unlabeled_scores(dataset, params, store, d2cfg)
    spec, frac = diag.t_histogram(dataset, params, store, d2cfg, scores=scores)
    diag.write_histogram_csv(spec, os.path.join(out_dir, "t_histogram.csv"))
    if d2cfg.beta > 0:
        records, summary = diag.flatness_audit(dataset, params, store, d2cfg, scores=scores)
        diag.write_flatness_csv(records, os.path.join(out_dir, "flatness_audit.csv"))
        del records
        with open(os.path.join(out_dir, "flatness_summary.csv"), "w") as fh:
            fh.write(",".join(summary.keys()) + "\n")
            fh.write(",".join(f"{v:.9g}" for v in summary.values()) + "\n")
    del scores  # released before the feature export, the peak of a diagnose run
    grid = np.linspace(0.0, np.log(store.n_classes) + 1e-9, 51)[1:]
    unl = dataset.unlabeled_indices
    cdf = diag.entropy_cdf(store.probs(unl), grid) if unl.size else np.zeros(50, int)
    with open(os.path.join(out_dir, "entropy_cdf.csv"), "w") as fh:
        fh.write("threshold,count_below\n")
        for e, c in zip(grid, cdf):
            fh.write(f"{e:.9g},{int(c)}\n")
    diag.export_features(dataset, params, os.path.join(out_dir, "features.csv"))
    with open(os.path.join(out_dir, "t_converged_fraction.csv"), "w") as fh:
        fh.write("fraction_abs_t_below_1e-3\n")
        fh.write(f"{frac:.9g}\n")


def run_mode_r2d2(cfg: ExperimentConfig, out_dir: str) -> None:
    dataset = build_dataset(cfg)
    params, store, metrics = run_r2d2(
        dataset, cfg.model_sizes(), cfg.activation,
        cfg.d2_config(), cfg.schedule_plan(), cfg.seed,
    )
    write_metrics(metrics, os.path.join(out_dir, "metrics.csv"))
    save_checkpoint(params, os.path.join(out_dir, "model.d2ck"))
    save_snapshot(store, os.path.join(out_dir, "pseudo.d2pl"))
    dataset.save_csv(os.path.join(out_dir, "dataset.csv"))
    _emit_diagnostics(out_dir, dataset, params, store, cfg.d2_config())


def run_mode_baseline(cfg: ExperimentConfig, out_dir: str) -> None:
    dataset = build_dataset(cfg)
    params, metrics = run_supervised_baseline(
        dataset, cfg.model_sizes(), cfg.activation, cfg.schedule_plan(), cfg.seed,
    )
    write_metrics(metrics, os.path.join(out_dir, "metrics.csv"))
    save_checkpoint(params, os.path.join(out_dir, "model.d2ck"))


ABLATION_AXES = {
    "alpha": ["0.1", "0.2", "0.3", "0.4", "0.5"],
    "beta": ["0.01", "0.02", "0.03", "0.04", "0.05"],
    "lam": ["1000", "2000", "3000", "4000", "5000"],
    "classification_loss": ["forward_kl", "reverse_kl", "squared_l2"],
}


def strategy_cells(cfg: ExperimentConfig) -> dict[str, dict[str, str]]:
    """The five training-strategy variants: single segment, repeated
    segments, +reprediction, +lr reduction, and both."""
    epochs = _int_list(cfg.stage2_epochs, "stage2_epochs")
    lrs = _float_list(cfg.stage2_lrs, "stage2_lrs")
    n_seg = len(epochs)
    total = sum(epochs)
    flat_lr = lrs[0]
    join = lambda vals: ",".join(str(v) for v in vals)
    return {
        "a_stage2_only": {
            "stage2_epochs": str(total), "stage2_lrs": str(flat_lr),
            "stage2_repredict": "0",
        },
        "b_repeat": {
            "stage2_epochs": join(epochs), "stage2_lrs": join([flat_lr] * n_seg),
            "stage2_repredict": join([0] * n_seg),
        },
        "c_repredict": {
            "stage2_epochs": join(epochs), "stage2_lrs": join([flat_lr] * n_seg),
            "stage2_repredict": join([0] + [1] * (n_seg - 1)),
        },
        "d_reduce_lr": {
            "stage2_epochs": join(epochs), "stage2_lrs": join(lrs),
            "stage2_repredict": join([0] * n_seg),
        },
        "e_full": {
            "stage2_epochs": join(epochs), "stage2_lrs": join(lrs),
            "stage2_repredict": join([0] + [1] * (n_seg - 1)),
        },
    }


def _final_test_error(metrics) -> float:
    return 1.0 - metrics[-1].acc_test


def run_mode_ablation(cfg: ExperimentConfig, out_dir: str) -> None:
    dataset = build_dataset(cfg)
    rows = []

    def run_cell(name, overrides):
        cell = parse_config("", {**_cfg_as_overrides(cfg), **overrides})
        _, _, metrics = run_r2d2(
            dataset, cell.model_sizes(), cell.activation,
            cell.d2_config(), cell.schedule_plan(), cell.seed,
        )
        rows.append((name, overrides, _final_test_error(metrics)))

    for key, values in ABLATION_AXES.items():
        for value in values:
            run_cell(f"{key}={value}", {key: value})
    for name, overrides in strategy_cells(cfg).items():
        run_cell(f"strategy:{name}", overrides)
    with open(os.path.join(out_dir, "ablation_summary.csv"), "w") as fh:
        fh.write("cell,overrides,test_error\n")
        for name, overrides, err in rows:
            txt = ";".join(f"{k}={v}" for k, v in overrides.items())
            fh.write(f"{name},{txt},{err:.9g}\n")


def _cfg_as_overrides(cfg: ExperimentConfig) -> dict[str, str]:
    out = {}
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        out[f.name] = str(value)
    return out


def run_mode_diagnose(cfg: ExperimentConfig, out_dir: str) -> None:
    if not (cfg.checkpoint and cfg.snapshot and cfg.dataset_csv):
        raise ConfigurationError(
            "diagnose mode requires checkpoint, snapshot, and dataset_csv"
        )
    params = load_checkpoint(cfg.checkpoint)
    store = load_snapshot(cfg.snapshot)
    n_classes = store.n_classes
    if params.n_classes != n_classes:
        raise FormatError(
            f"checkpoint has {params.n_classes} classes, snapshot has {n_classes}"
        )
    dataset = data_mod.SplitDataset.load_csv(cfg.dataset_csv, n_classes)
    if store.n_samples != dataset.n_samples:
        raise FormatError(
            f"snapshot has {store.n_samples} rows, dataset has {dataset.n_samples}"
        )
    top = int(dataset.true_classes.max(initial=data_mod.OOD_CLASS))
    if top >= n_classes:
        raise FormatError(f"dataset has class {top}, snapshot has {n_classes} classes")
    d_in = params.layer_sizes[0]
    if dataset.dim != d_in:
        raise FormatError(f"checkpoint takes {d_in} inputs, dataset has {dataset.dim}")
    _emit_diagnostics(out_dir, dataset, params, store, cfg.d2_config())


MODES = {
    "r2d2": run_mode_r2d2,
    "supervised_baseline": run_mode_baseline,
    "ablation": run_mode_ablation,
    "diagnose": run_mode_diagnose,
}


def _parse_argv(argv: list[str]):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        raise SystemExit(EXIT_OK if argv else EXIT_CONFIG)
    mode = argv[0]
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}; choose from {sorted(MODES)}")
    config_path = None
    overrides: dict[str, str] = {}
    i = 1
    while i < len(argv):
        arg = argv[i]
        if not arg.startswith("--"):
            raise ConfigurationError(f"unexpected argument {arg!r}")
        key = arg[2:]
        if i + 1 >= len(argv):
            raise ConfigurationError(f"flag --{key} needs a value")
        value = argv[i + 1]
        i += 2
        if key == "config":
            config_path = value
        else:
            overrides[key] = value
    return mode, config_path, overrides


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        mode, config_path, overrides = _parse_argv(argv)
        text = ""
        if config_path is not None:
            try:
                with open(config_path) as fh:
                    text = fh.read()
            except OSError as exc:
                print(f"error: cannot read config: {exc}", file=sys.stderr)
                return EXIT_IO
        env_root = os.environ.get("D2SSL_OUT")
        if env_root and "out" not in overrides and all(
            key != "out" for _, key, _ in _entries(text)
        ):
            overrides["out"] = env_root
        cfg = parse_config(text, overrides)
        out_dir = cfg.out
        os.makedirs(out_dir, exist_ok=True)
        dump_config(cfg, os.path.join(out_dir, RESOLVED_NAME))
        MODES[mode](cfg, out_dir)
        return EXIT_OK
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except D2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
