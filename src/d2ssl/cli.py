"""Command-line entry point.

Usage: d2ssl <mode> [--config PATH] [--key value ...]
       d2ssl -h | --help

The config file is a flat ``key = value`` document with ``#`` comments;
a ``--key value`` flag sets any config key over it. Every mode writes
the resolved config to OUT/config_resolved.cfg (OUT is the ``out`` key,
else $D2SSL_OUT, else the working directory); --config replays it, with
a study's --seeds, --steps and --lr given again.

Modes:
  r2d2                 the three stages: metrics.csv, model.d2ck,
                       pseudo.d2pl, dataset.csv and the diagnostic tables
  supervised_baseline  stage 1 alone: metrics.csv and model.d2ck
  ablation             the alpha, beta, lam, loss and strategy cells:
                       ablation_summary.csv
  diagnose             the diagnostic tables of the files named by the
                       checkpoint, snapshot and dataset_csv keys
  compare              r2d2 against its own stage 1 on seeds 0 to N-1:
                       comparison.csv, seed<k>/{r2d2,baseline}_metrics.csv.
                       --seeds N (default 5); dataset gaussians or
                       two_moons, the latter with layer_sizes 2,64,2,2 and
                       stage2_epochs 100,100,100,100
  open_world           each of seeds 0 to N-1 without and with the entropy
                       filter: open_world.csv. --seeds N (default 5);
                       gauss_spread 2.0, ood_count 660, discard_fraction 0.25
  audit                the head-only stationarity audit: the diagnostic
                       tables. --steps N (default 5000), --lr X (default
                       8.0); lam 64000

A study mode's key values above sit under the config file and the flags.
compare and open_world set each run's seed (and open_world its
open_world key) themselves, so they refuse those keys.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numeric
abort, 5 internal error.
"""

from __future__ import annotations

import logging
import math
import os
import sys
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import data as data_mod
from . import diagnostics as diag
from .errors import ConfigurationError, D2Error, FormatError, NumericError, WorkerError
from .model import ACTIVATIONS, load_checkpoint, save_checkpoint
from .numerics import seeded_rng
from .pseudo import D2Config, init_pseudo_labels, load_snapshot, save_snapshot
from .trainer import (
    SchedulePlan, Stage2Segment, active_unlabeled, fork_context, head_only_d2, run_r2d2,
    run_supervised_baseline, write_metrics,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_INTERNAL = 5

RESOLVED_NAME = "config_resolved.cfg"

# The convergence audit's head-only joint steps (acceptance criteria
# 3-5); its pseudo step is the audit preset's lam.
AUDIT_STEPS = 5000
AUDIT_LR = 8.0

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
        """Reject dataset settings build_dataset cannot use. The split's
        class counts and the width and classes of idx data are checked
        once the data is built."""
        if self.dataset not in ("gaussians", "two_moons", "idx"):
            raise ConfigurationError(f"unknown dataset {self.dataset!r}")
        if self.dataset == "idx" and not (self.idx_images and self.idx_labels):
            raise ConfigurationError("idx dataset requires idx_images and idx_labels")
        # A per-class count is checked for the dataset it builds only, so
        # old resolved configs still replay.
        per_class = {"gaussians": {"gauss_per_class": 1}, "two_moons": {"moons_per_class": 1}}
        least = {"seed": 0, "gauss_classes": 1, "gauss_dim": 1, "labeled_per_class": 0,
                 "ood_count": 0, "gauss_spread": 0.0, "moons_noise": 0.0,
                 **per_class.get(self.dataset, {})}
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


def parse_config(text: str, overrides: dict[str, str] | None = None,
                 preset: dict[str, str] | None = None) -> ExperimentConfig:
    """Parse a flat key=value document over a preset's values, then apply
    flag overrides."""
    cfg = ExperimentConfig()
    for key, raw in (preset or {}).items():
        setattr(cfg, key, _convert(key, raw, None))
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
    if cfg.dataset == "gaussians":  # after the sizes, which bound the centers' count
        centers = _gauss_centers(cfg.gauss_classes, cfg.gauss_dim, cfg.gauss_center_scale)
        for i in range(cfg.gauss_classes - 1):
            # np.allclose(centers[i], centers[j]) for every later class j at once
            same = np.isclose(centers[i], centers[i + 1:]).all(axis=1)
            if same.any():
                raise ConfigurationError(
                    f"duplicate centers for classes {i} and {i + 1 + int(np.argmax(same))}: "
                    f"gauss_center_scale {cfg.gauss_center_scale} in gauss_dim {cfg.gauss_dim}")
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


def dump_config(cfg: ExperimentConfig, path, skip=()) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in _cfg_as_overrides(cfg).items()
                      if key not in skip)


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
    else:  # idx
        raw = data_mod.load_idx(cfg.idx_images, cfg.idx_labels)
        cfg.check_layer_sizes(raw.dim, raw.n_classes)
    ds = data_mod.split(raw, cfg.labeled_per_class, cfg.test_fraction, rng)
    if cfg.ood_count > 0:
        source = data_mod.gen_gaussians(
            1, ds.dim, cfg.ood_count,
            np.full((1, ds.dim), cfg.ood_center_scale),
            cfg.gauss_spread, rng,
        )
        ds = data_mod.inject_ood(ds, source, cfg.ood_count, rng)
    return ds


def _side_by_side(name: str, jobs: list) -> list:
    """The results of the calls jobs, in input order: the first runs in
    this process and each other one in a child forked from
    fork_context, or, where it gives none, each runs here in turn. A
    result should be small, as it is pickled back. The first failure in
    input order is raised, and a child that exits before it replies
    raises WorkerError, as "the {name} worker". Every child is killed
    and joined on every exit path."""
    ctx = fork_context()
    if ctx is None:
        return [job() for job in jobs]
    children = []
    try:
        for job in jobs[1:]:
            conn, end = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_reply, args=(job, end), daemon=True)
            child.start()
            end.close()
            children.append((child, conn))
        results = [jobs[0]()]
        for child, conn in children:
            try:
                reply = conn.recv()
            except EOFError:
                child.join(1.0)
                raise WorkerError(f"the {name} worker exited with code {child.exitcode}")
            if isinstance(reply, Exception):
                raise reply
            results.append(reply)
        return results
    finally:
        for child, conn in children:
            child.kill()
            child.join()
            conn.close()


def _reply(job, conn) -> None:
    """A child of _side_by_side: send job's result, or its failure."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller stops it
    try:
        reply = job()
    except Exception as exc:
        reply = exc
    conn.send(reply)


def _emit_diagnostics(out_dir, dataset, params, store, d2cfg) -> float:
    """Write the diagnostic tables; returns t_converged_fraction.csv's
    value. The feature export and the residual tables read nothing of
    each other, so they run side by side: the export, whose whole-pool
    forward sets a run's peak memory, in this process, the residual
    tables in a forked child."""
    path = os.path.join(out_dir, "features.csv")
    _, frac = _side_by_side("diagnostics", [
        lambda: diag.export_features(dataset, params, path),
        lambda: _emit_residual_tables(out_dir, dataset, params, store, d2cfg),
    ])
    return frac


def _emit_residual_tables(out_dir, dataset, params, store, d2cfg) -> float:
    """Write the tables of the residual t and the pseudo-label entropy;
    returns the fraction of |t| below diag.T_CONVERGED."""
    scores = diag.unlabeled_scores(dataset, params, store, d2cfg)
    counts, frac = diag.t_histogram(scores[-1])
    diag.write_histogram_csv(counts, os.path.join(out_dir, "t_histogram.csv"))
    if d2cfg.beta > 0:
        records, summary = diag.flatness_audit(scores, d2cfg.beta)
        diag.write_flatness_csv(records, os.path.join(out_dir, "flatness_audit.csv"))
        _write_table(os.path.join(out_dir, "flatness_summary.csv"), list(summary),
                     ["%.9g"] * len(summary), [[v] for v in summary.values()])
    grid = np.linspace(0.0, np.log(store.n_classes) + 1e-9, 51)[1:]
    unl = dataset.unlabeled_indices
    cdf = diag.entropy_cdf(store.probs(unl), grid) if unl.size else np.zeros(50, int)
    _write_table(os.path.join(out_dir, "entropy_cdf.csv"), ["threshold", "count_below"],
                 ["%.9g", "%d"], [grid, cdf])
    _write_table(os.path.join(out_dir, "t_converged_fraction.csv"),
                 ["fraction_abs_t_below_1e-3"], ["%.9g"], [[frac]])
    return frac


def _write_table(path, header: list[str], formats: list[str], columns: list) -> None:
    """The small tables of cli: whole columns, LF line ends."""
    data_mod.write_csv_columns(path, header, formats, len(columns[0]), columns, line_end="\n")


def train_r2d2(cfg: ExperimentConfig, dataset: data_mod.SplitDataset):
    """run_r2d2 on dataset with cfg's model, loss, schedule and seed."""
    return run_r2d2(
        dataset, cfg.model_sizes(), cfg.activation,
        cfg.d2_config(), cfg.schedule_plan(), cfg.seed,
    )


def run_mode_r2d2(cfg: ExperimentConfig, out_dir: str) -> None:
    dataset = build_dataset(cfg)
    params, store, metrics = train_r2d2(cfg, dataset)
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


def convergence_audit(cfg: ExperimentConfig, steps: int = AUDIT_STEPS, lr: float = AUDIT_LR):
    """The audit of the paper's stationarity claims (acceptance criteria
    3-5): the supervised warm-up, pseudo-labels from its head, then
    head_only_d2 with the backbone frozen, under cfg's loss. Returns
    (dataset, params, store, residual, loss config)."""
    d2cfg = cfg.d2_config()
    dataset = build_dataset(cfg)
    params, _ = run_supervised_baseline(
        dataset, cfg.model_sizes(), cfg.activation, cfg.schedule_plan(), cfg.seed,
    )
    store = init_pseudo_labels(dataset, params, d2cfg)
    params, store, t = head_only_d2(dataset, params, store, d2cfg, steps, lr)
    return dataset, params, store, t, d2cfg


def run_mode_audit(cfg: ExperimentConfig, out_dir: str, steps: int, lr: float) -> None:
    ds, params, store, _, d2 = convergence_audit(cfg, steps, lr)
    frac = _emit_diagnostics(out_dir, ds, params, store, d2)
    print(f"{frac:.1%} of unlabeled samples converged to |t| < 1e-3")
    print(f"diagnostics written to {out_dir}")


def compare_baseline(cfg: ExperimentConfig, seeds: int):
    """R2-D2 against the supervised baseline on seeds 0 to seeds-1 of
    cfg. Yields (seed, r2d2 error, baseline error, r2d2 records,
    baseline records) as each seed finishes. The baseline is the run's
    own stage 1: run_r2d2 starts with exactly run_supervised_baseline's
    steps, so cfg needs stage1_epochs >= 1."""
    for seed in range(seeds):
        run = replace(cfg, seed=seed)
        _, _, metrics = train_r2d2(run, build_dataset(run))
        baseline = [m for m in metrics if m.stage == "stage1"]
        yield seed, 1 - metrics[-1].acc_test, 1 - baseline[-1].acc_test, metrics, baseline


def run_mode_compare(cfg: ExperimentConfig, out_dir: str, seeds: int) -> None:
    rows = []
    for seed, err, err_base, m, mb in compare_baseline(cfg, seeds):
        seed_dir = os.path.join(out_dir, f"seed{seed}")
        os.makedirs(seed_dir, exist_ok=True)
        write_metrics(m, os.path.join(seed_dir, "r2d2_metrics.csv"))
        write_metrics(mb, os.path.join(seed_dir, "baseline_metrics.csv"))
        rows.append((seed, err, err_base, err_base - err))
        print(f"seed {seed}: r2d2 {err:.4f}  baseline {err_base:.4f}  "
              f"delta {err_base - err:+.4f}")
    _write_rows(os.path.join(out_dir, "comparison.csv"),
                ["seed", "r2d2_error", "baseline_error", "delta"], rows)
    print(f"{sum(row[3] > 0 for row in rows)}/{len(rows)} seeds improved over the baseline")


def open_world_study(cfg: ExperimentConfig, seeds: int):
    """cfg's runs without and with the entropy filter on seeds 0 to
    seeds-1. Yields (seed, unfiltered error, filtered error, OOD share
    of the pool, OOD share of what the filter discards at the end of the
    filtered run) as each seed finishes."""
    return (_open_world_seed(replace(cfg, seed=seed)) for seed in range(seeds))


def _open_world_seed(cfg: ExperimentConfig):
    """open_world_study's row of cfg's seed. Neither open_world nor
    discard_fraction enters build_dataset, so both runs share one
    dataset."""
    ds = build_dataset(cfg)
    err = {}
    for open_world in (False, True):
        run = replace(cfg, open_world=open_world)
        _, store, metrics = train_r2d2(run, ds)
        err[open_world] = 1 - metrics[-1].acc_test
    unl = ds.unlabeled_indices
    dropped = np.setdiff1d(unl, active_unlabeled(store, ds, run.schedule_plan()))
    pool, drop = (float(np.mean(ds.true_classes[ids] == data_mod.OOD_CLASS))
                  for ids in (unl, dropped))
    return cfg.seed, err[False], err[True], pool, drop


def run_mode_open_world(cfg: ExperimentConfig, out_dir: str, seeds: int) -> None:
    rows = []
    for row in open_world_study(cfg, seeds):
        rows.append(row)
        print("seed {}: unfiltered {:.4f}  filtered {:.4f}  pool OOD {:.3f}  "
              "discarded OOD {:.3f}".format(*row))
    _write_rows(os.path.join(out_dir, "open_world.csv"),
                ["seed", "unfiltered_error", "filtered_error", "pool_ood_fraction",
                 "discard_ood_fraction"], rows)


def _write_rows(path, header: list[str], rows: list[tuple]) -> None:
    """A study's table: each field in str(), CRLF line ends."""
    data_mod.write_csv_columns(path, header, ["%s"] * len(header), len(rows), list(zip(*rows)))


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
    if n_seg == 0:
        raise ConfigurationError("the strategy cells need at least one stage-2 segment")
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


def ablation_errors(cfg: ExperimentConfig, cells: dict[str, dict[str, str]]) -> dict[str, float]:
    """The final test error of each cell: cfg with the cell's overrides,
    on cfg's dataset. Every cell's config is parsed before any trains,
    and cells whose configs are equal share one run (a run is fixed by
    its config)."""
    configs = {
        name: parse_config("", {**_cfg_as_overrides(cfg), **overrides})
        for name, overrides in cells.items()
    }
    dataset = build_dataset(cfg)
    runs = {}  # the error of each distinct config, by its field values
    for cell in configs.values():
        key = astuple(cell)
        if key not in runs:
            runs[key] = 1.0 - train_r2d2(cell, dataset)[2][-1].acc_test
    return {name: runs[astuple(cell)] for name, cell in configs.items()}


def run_mode_ablation(cfg: ExperimentConfig, out_dir: str) -> None:
    cells = {f"{key}={value}": {key: value}
             for key, values in ABLATION_AXES.items() for value in values}
    cells.update((f"strategy:{name}", o) for name, o in strategy_cells(cfg).items())
    errors = ablation_errors(cfg, cells)
    overrides = [";".join(f"{k}={v}" for k, v in o.items()) for o in cells.values()]
    _write_table(os.path.join(out_dir, "ablation_summary.csv"), ["cell", "overrides", "test_error"],
                 ["%s", "%s", "%.9g"], [list(cells), overrides, [errors[c] for c in cells]])


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
    names = [f"layer {i} {kind}" for i in range(len(params.layers)) for kind in ("weight", "bias")]
    for name, tensor in zip(names + ["head weight"], params.tensors()):
        _reject_non_finite(tensor, lambda *at, n=name: f"checkpoint {n} entry {at}: non-finite")
    _reject_non_finite(store.logits, lambda i, k: f"snapshot sample {i}: non-finite logit {k}")
    _reject_non_finite(dataset.features, lambda i, j: f"dataset CSV line {i + 2}: non-finite x{j}")
    _emit_diagnostics(out_dir, dataset, params, store, cfg.d2_config())


def _reject_non_finite(array: np.ndarray, place) -> None:
    """FormatError at array's first non-finite entry: place(*index), value."""
    bad = np.flatnonzero(~np.isfinite(array))
    if bad.size:
        at = tuple(map(int, np.unravel_index(bad[0], array.shape)))
        raise FormatError(f"{place(*at)} {array[at]}")


MODES = {
    "r2d2": run_mode_r2d2,
    "supervised_baseline": run_mode_baseline,
    "ablation": run_mode_ablation,
    "diagnose": run_mode_diagnose,
    "compare": run_mode_compare,
    "open_world": run_mode_open_world,
    "audit": run_mode_audit,
}

# The study modes' key values, under the config file and the flags.
# compare's depend on the dataset: two moons has two classes and longer
# joint segments.
PRESETS = {
    "compare": {"gaussians": {},
                "two_moons": {"layer_sizes": "2,64,2,2", "stage2_epochs": "100,100,100,100"}},
    "open_world": {"gauss_spread": "2.0", "ood_count": "660", "discard_fraction": "0.25"},
    "audit": {"lam": "64000.0"},
}
# The study modes' settings that are not config keys: (default, least value).
STUDY_SETTINGS = {
    "compare": {"seeds": (5, 1)},
    "open_world": {"seeds": (5, 1)},
    "audit": {"steps": (AUDIT_STEPS, 0), "lr": (AUDIT_LR, 0.0)},
}
# The keys a study sets on each of its runs, and so refuses: why.
_SEEDS = "the runs take seeds 0 to N-1 of --seeds N"
RUN_KEYS = {"compare": {"seed": _SEEDS},
            "open_world": {"seed": _SEEDS,
                           "open_world": "each seed runs without and with the filter"}}


def _preset(mode: str, dataset: str) -> dict[str, str]:
    if mode != "compare":
        return PRESETS.get(mode, {})
    if dataset not in PRESETS[mode]:
        raise ConfigurationError(f"compare runs on dataset {' or '.join(PRESETS[mode])}, "
                                 f"not {dataset!r}")
    return PRESETS[mode][dataset]


def _study_settings(mode: str, flags: dict[str, str]) -> dict:
    """Take mode's study settings out of flags, each parsed like its
    default and checked against its least value."""
    settings = {}
    for key, (default, low) in STUDY_SETTINGS.get(mode, {}).items():
        raw = flags.pop(key, None)
        try:
            value = default if raw is None else type(default)(raw)
        except ValueError:
            raise ConfigurationError(
                f"setting {key!r}: cannot parse {raw!r} as {type(default).__name__}") from None
        if not low <= value < math.inf:
            rule = f"at least {low}" if isinstance(low, int) else "finite and non-negative"
            raise ConfigurationError(f"{key} must be {rule}, got {value}")
        settings[key] = value
    return settings


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
    if not argv or "-h" in argv or "--help" in argv:
        print(__doc__, file=sys.stdout if argv else sys.stderr)
        return EXIT_OK if argv else EXIT_CONFIG
    mode = argv[0]
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}; choose from {sorted(MODES)}")
    overrides = parse_flags(argv[1:])
    config_path = overrides.pop("config", None)
    text = ""
    if config_path is not None:
        try:
            with open(config_path) as fh:
                text = fh.read()
        except OSError as exc:
            raise OSError(f"cannot read config: {exc}") from None
    given = {key: raw.strip() for _, key, raw in _entries(text)} | overrides
    env_root = os.environ.get("D2SSL_OUT")
    if env_root and "out" not in given:
        overrides["out"] = env_root
    settings = _study_settings(mode, overrides)
    for key, why in RUN_KEYS.get(mode, {}).items():
        if key in given:
            raise ConfigurationError(f"{key} is not a setting of {mode}: {why}")
    dataset = given.get("dataset", ExperimentConfig.dataset).strip()
    cfg = parse_config(text, overrides, _preset(mode, dataset))
    if mode != "diagnose" and cfg.labeled_per_class < 1:  # diagnose splits no data
        raise ConfigurationError(
            f"labeled_per_class must be >= 1 to train, got {cfg.labeled_per_class}")
    if mode == "compare" and cfg.stage1_epochs < 1:
        raise ConfigurationError("the baseline comparison needs stage1_epochs >= 1")
    out_dir = cfg.out
    os.makedirs(out_dir, exist_ok=True)
    dump_config(cfg, os.path.join(out_dir, RESOLVED_NAME), RUN_KEYS.get(mode, {}))
    MODES[mode](cfg, out_dir, **settings)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    return run_guarded(_run, sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
