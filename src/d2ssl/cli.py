"""Command-line entry point.

Usage: d2ssl <mode> --config PATH [--key value ...] [--out DIR]

Modes: r2d2, supervised_baseline, ablation, diagnose. The config file is
a flat ``key = value`` document with ``#`` comments; any config key can
be overridden with a ``--key value`` flag. Every run writes the fully
resolved config next to its outputs so it can be replayed exactly.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numeric
abort, 5 internal error.
"""

from __future__ import annotations

import logging
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import data as data_mod
from . import diagnostics as diag
from .errors import ConfigurationError, D2Error, FormatError, NumericError
from .model import ACTIVATIONS, load_checkpoint, save_checkpoint
from .numerics import seeded_rng
from .pseudo import D2Config, init_pseudo_labels, load_snapshot, save_snapshot
from .trainer import (
    SchedulePlan, Stage2Segment, head_only_d2, run_r2d2, run_supervised_baseline,
    write_metrics,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_INTERNAL = 5

RESOLVED_NAME = "config_resolved.cfg"

# The convergence audit's head-only joint steps (acceptance criteria 3-5).
AUDIT_STEPS = 5000
AUDIT_LR = 8.0
AUDIT_LAM = 64000.0

_D2 = D2Config()
_PLAN = SchedulePlan()


def _join(values) -> str:
    return ",".join(str(v) for v in values)


@dataclass
class ExperimentConfig:
    """The flat key map of config_resolved.cfg, in its line order. The
    loss and schedule keys take their defaults from D2Config and
    SchedulePlan."""
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
    alpha: float = _D2.alpha
    beta: float = _D2.beta
    lam: float = _D2.lam
    k_init: float = _D2.init_scale
    classification_loss: str = _D2.classification_loss
    labeled_full_loss: bool = _D2.labeled_full_loss
    # schedule
    stage1_epochs: int = _PLAN.stage1_epochs
    stage1_lr: float = _PLAN.stage1_lr
    stage1_horizon: int = _PLAN.stage1_horizon
    stage2_epochs: str = _join(s.epochs for s in _PLAN.stage2_segments)
    stage2_lrs: str = _join(s.lr for s in _PLAN.stage2_segments)
    stage2_repredict: str = _join(int(s.repredict_at_start) for s in _PLAN.stage2_segments)
    stage3_epochs: int = _PLAN.stage3_epochs
    stage3_lr: float = _PLAN.stage3_lr
    stage3_horizon: int = _PLAN.stage3_horizon
    batch_labeled: int = _PLAN.batch_labeled
    batch_unlabeled: int = _PLAN.batch_unlabeled
    momentum: float = _PLAN.momentum
    weight_decay: float = _PLAN.weight_decay
    open_world: bool = _PLAN.open_world
    discard_fraction: float = _PLAN.discard_fraction
    # diagnose mode inputs
    checkpoint: str = ""
    snapshot: str = ""
    dataset_csv: str = ""

    def d2_config(self) -> D2Config:
        return D2Config(
            alpha=self.alpha, beta=self.beta, lam=self.lam,
            init_scale=self.k_init,
            classification_loss=self.classification_loss,
            labeled_full_loss=self.labeled_full_loss,
        )

    def schedule_plan(self) -> SchedulePlan:
        epochs = _number_list(self.stage2_epochs, "stage2_epochs")
        lrs = _number_list(self.stage2_lrs, "stage2_lrs", float)
        reps = _number_list(self.stage2_repredict, "stage2_repredict")
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
        return _number_list(self.layer_sizes, "layer_sizes")

    def check_dataset(self) -> None:
        """Reject dataset settings build_dataset cannot use. Class and
        per-class sample counts are checked where the data is built."""
        least = {"seed": 0, "gauss_classes": 1, "gauss_dim": 1, "labeled_per_class": 0,
                 "ood_count": 0, "gauss_spread": 0.0, "moons_noise": 0.0}
        for key, low in least.items():
            value = getattr(self, key)
            if not low <= value < math.inf:
                raise ConfigurationError(f"{key} must be finite and >= {low}, got {value}")
        for key in ("gauss_center_scale", "ood_center_scale"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigurationError(f"{key} must be finite, got {getattr(self, key)}")
        if not 0.0 <= self.test_fraction < 1.0:
            raise ConfigurationError(f"test_fraction must be in [0, 1), got {self.test_fraction}")

    def check_layer_sizes(self, dim: int, n_classes: int) -> None:
        """Reject layer_sizes that do not start with the data's input
        width and end with its class count."""
        sizes = self.model_sizes()
        if (sizes[0], sizes[-1]) != (dim, n_classes):
            raise ConfigurationError(
                f"layer_sizes {self.layer_sizes} must start with the input width {dim} "
                f"and end with the class count {n_classes}"
            )


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _number_list(text: str, key: str, kind=int) -> list:
    try:
        return [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigurationError(f"{key}: expected comma-separated {kind.__name__}s") from exc


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
    cfg.schedule_plan()   # the schedule
    cfg.check_dataset()   # and the dataset keys
    sizes = cfg.model_sizes()
    if len(sizes) < 2 or min(sizes) < 1:
        raise ConfigurationError(
            f"layer_sizes needs at least two entries, each at least 1, got {cfg.layer_sizes}"
        )
    if cfg.activation not in ACTIVATIONS:
        raise ConfigurationError(
            f"unknown activation {cfg.activation!r}; choose from {', '.join(ACTIVATIONS)}"
        )
    # The width and class count the dataset settings fix; idx data is
    # checked when it is loaded.
    shape = {"gaussians": (cfg.gauss_dim, cfg.gauss_classes), "two_moons": (2, 2)}
    if cfg.dataset in shape:
        cfg.check_layer_sizes(*shape[cfg.dataset])
    if cfg.alpha <= cfg.beta:
        # Deliberately a warning, once per parsed config: the failure
        # mode itself is studied.
        log.warning(
            "alpha=%.4g <= beta=%.4g: exponent 1-beta/alpha is not positive, "
            "pseudo-labels and predictions will be inconsistent",
            cfg.alpha, cfg.beta,
        )
    return cfg


def _cfg_as_overrides(cfg: ExperimentConfig) -> dict[str, str]:
    out = {}
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        out[f.name] = str(value)
    return out


def dump_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in _cfg_as_overrides(cfg).items())


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
        cfg.check_layer_sizes(raw.dim, raw.n_classes)
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
    # The feature export's whole-pool forward is the peak of a diagnose
    # run; it goes first, before the smaller unlabeled-pool forward
    # leaves freed pages in the heap under it.
    diag.export_features(dataset, params, os.path.join(out_dir, "features.csv"))
    scores = diag.unlabeled_scores(dataset, params, store, d2cfg)
    counts, frac = diag.t_histogram(scores[-1])
    diag.write_histogram_csv(counts, os.path.join(out_dir, "t_histogram.csv"))
    if d2cfg.beta > 0:
        records, summary = diag.flatness_audit(scores, d2cfg.beta)
        diag.write_flatness_csv(records, os.path.join(out_dir, "flatness_audit.csv"))
        with open(os.path.join(out_dir, "flatness_summary.csv"), "w") as fh:
            fh.write(",".join(summary.keys()) + "\n")
            fh.write(",".join(f"{v:.9g}" for v in summary.values()) + "\n")
    grid = np.linspace(0.0, np.log(store.n_classes) + 1e-9, 51)[1:]
    unl = dataset.unlabeled_indices
    cdf = diag.entropy_cdf(store.probs(unl), grid) if unl.size else np.zeros(50, int)
    with open(os.path.join(out_dir, "entropy_cdf.csv"), "w") as fh:
        fh.write("threshold,count_below\n")
        for e, c in zip(grid, cdf):
            fh.write(f"{e:.9g},{int(c)}\n")
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


def convergence_audit(
    cfg: ExperimentConfig, steps: int = AUDIT_STEPS, lr: float = AUDIT_LR,
    lam: float = AUDIT_LAM,
):
    """The audit of the paper's stationarity claims (acceptance criteria
    3-5): the supervised warm-up, pseudo-labels from its head, then
    head_only_d2 with the backbone frozen, under cfg's loss with pseudo
    step lam. Returns (dataset, params, store, residual, loss config)."""
    dataset = build_dataset(cfg)
    params, _ = run_supervised_baseline(
        dataset, cfg.model_sizes(), cfg.activation, cfg.schedule_plan(), cfg.seed,
    )
    d2cfg = replace(cfg.d2_config(), lam=lam)
    store = init_pseudo_labels(dataset, params, d2cfg)
    params, store, t = head_only_d2(dataset, params, store, d2cfg, steps, lr)
    return dataset, params, store, t, d2cfg


ABLATION_AXES = {
    "alpha": ["0.1", "0.2", "0.3", "0.4", "0.5"],
    "beta": ["0.01", "0.02", "0.03", "0.04", "0.05"],
    "lam": ["1000", "2000", "3000", "4000", "5000"],
    "classification_loss": ["forward_kl", "reverse_kl", "squared_l2"],
}


def strategy_cells(cfg: ExperimentConfig) -> dict[str, dict[str, str]]:
    """The five training-strategy variants: single segment, repeated
    segments, +reprediction, +lr reduction, and both."""
    epochs = _number_list(cfg.stage2_epochs, "stage2_epochs")
    lrs = _number_list(cfg.stage2_lrs, "stage2_lrs", float)
    n_seg = len(epochs)
    flat_lrs = [lrs[0]] * n_seg
    no_rep, rep = [0] * n_seg, [0] + [1] * (n_seg - 1)
    table = {  # stage 2's (epochs, lrs, repredict) of each variant
        "a_stage2_only": ([sum(epochs)], [lrs[0]], [0]),
        "b_repeat": (epochs, flat_lrs, no_rep),
        "c_repredict": (epochs, flat_lrs, rep),
        "d_reduce_lr": (epochs, lrs, no_rep),
        "e_full": (epochs, lrs, rep),
    }
    keys = ("stage2_epochs", "stage2_lrs", "stage2_repredict")
    return {name: dict(zip(keys, map(_join, row))) for name, row in table.items()}


def run_mode_ablation(cfg: ExperimentConfig, out_dir: str) -> None:
    dataset = build_dataset(cfg)
    rows = []

    def run_cell(name, overrides):
        cell = parse_config("", {**_cfg_as_overrides(cfg), **overrides})
        _, _, metrics = run_r2d2(
            dataset, cell.model_sizes(), cell.activation,
            cell.d2_config(), cell.schedule_plan(), cell.seed,
        )
        rows.append((name, overrides, 1.0 - metrics[-1].acc_test))

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
    overrides = parse_flags(argv[1:])
    return mode, overrides.pop("config", None), overrides


def parse_flags(args: list[str]) -> dict[str, str]:
    """The --key value pairs of a command line, the last value of a
    repeated key winning."""
    flags = {}
    i = 0
    while i < len(args):
        arg = args[i]
        if not arg.startswith("--"):
            raise ConfigurationError(f"unexpected argument {arg!r}")
        key = arg[2:]
        if i + 1 >= len(args):
            raise ConfigurationError(f"flag --{key} needs a value")
        flags[key] = args[i + 1]
        i += 2
    return flags


def run_guarded(body, *args) -> int:
    """body(*args), with a D2Error or OSError it raises reported on
    stderr and turned into its exit code. Any D2Error not named here is
    an internal invariant that broke, not a bad setting or input."""
    try:
        return body(*args)
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
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _run(argv: list[str]) -> int:
    mode, config_path, overrides = _parse_argv(argv)
    text = ""
    if config_path is not None:
        try:
            with open(config_path) as fh:
                text = fh.read()
        except OSError as exc:
            raise OSError(f"cannot read config: {exc}") from None
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


def main(argv: list[str] | None = None) -> int:
    return run_guarded(_run, sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
