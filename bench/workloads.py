"""The benchmark's workloads.

Each workload builds its inputs from the seed in ``prepare`` (untimed),
performs one complete run in ``run`` (timed), and checks that run's
outputs in ``check`` (untimed). Every call into d2ssl goes through a
module attribute (``cli.main``, ``trainer.head_only_d2``, ...) so that
the tracer's wrappers see it.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from d2ssl import cli, model, numerics, pseudo, trainer
from d2ssl.data import SplitDataset

DIAGNOSTIC_CSVS = ("t_histogram.csv", "flatness_audit.csv", "flatness_summary.csv",
                   "entropy_cdf.csv", "features.csv", "t_converged_fraction.csv")

# Acceptance thresholds the checks reuse (tests/test_acceptance.py).
SUM_DRIFT_LIMIT = 1e-9       # criterion 2, pseudo-logit sum conservation
CONVERGED_T = 1e-3           # criterion 3, |t| below this counts as converged
UNCONVERGED_LIMIT = 0.05     # criterion 3, at least 95% converged
VIOLATION_TOL = 1e-6         # criterion 4, flatness and bound slack

# The head-only joint steps of scripts/run_convergence_audit.py (its defaults).
AUDIT_LR = 8.0
AUDIT_LAM = 64000.0


class Workload:
    name = ""
    fingerprint_files: tuple[str, ...] = DIAGNOSTIC_CSVS

    def __init__(self, **overrides) -> None:
        """Keyword arguments are config keys that replace the reference
        values; the benchmark uses none, the tests shrink the run."""
        self.overrides = {k: str(v) for k, v in overrides.items()}

    def config(self, seed: int) -> cli.ExperimentConfig:
        return cli.parse_config("", {**self.overrides, "seed": str(seed)})

    def prepare(self, seed: int) -> None:
        """Build the inputs and set ``self.rows``, the rows of work per run."""
        raise NotImplementedError

    def run(self, out_dir: str) -> dict:
        raise NotImplementedError

    def check(self, out_dir: str, outputs: dict) -> list[str]:
        """Failed output checks, as messages; empty when the run is correct."""
        raise NotImplementedError

    def figures(self, out_dir: str, outputs: dict) -> dict[str, tuple[float, str]]:
        """Deterministic result figures, printed with their unit."""
        return {}


class R2D2Reference(Workload):
    name = "r2d2_reference"
    fingerprint_files = ("metrics.csv",) + DIAGNOSTIC_CSVS

    def prepare(self, seed: int) -> None:
        self.seed = seed
        cfg = self.config(seed)
        self.rows = gradient_rows(cfg, cli.build_dataset(cfg))

    def run(self, out_dir: str) -> dict:
        argv = ["r2d2", "--out", out_dir, "--seed", str(self.seed)]
        for key, value in self.overrides.items():
            argv += [f"--{key}", value]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"d2ssl r2d2 exited with code {code}")
        return {}

    def check(self, out_dir: str, outputs: dict) -> list[str]:
        rows = _metrics_rows(out_dir)
        problems = []
        if not all(math.isfinite(float(r[k])) for r in rows
                   for k in ("loss_total", "loss_c", "loss_e")):
            problems.append("non-finite loss in metrics.csv")
        drift = max((float(r["sum_drift_max"]) for r in rows if r["stage"] == "stage2"),
                    default=math.inf)
        if not drift < SUM_DRIFT_LIMIT:
            problems.append(f"stage-2 sum_drift_max {drift:.3g} not below {SUM_DRIFT_LIMIT}")
        return problems

    def figures(self, out_dir: str, outputs: dict) -> dict[str, tuple[float, str]]:
        return {"test_error": (1.0 - float(_metrics_rows(out_dir)[-1]["acc_test"]), "1")}


class ConvergenceAudit(Workload):
    """The path of scripts/run_convergence_audit.py and acceptance
    criteria 3-5: warm-up, then full-batch head-only joint steps."""

    name = "convergence_audit"

    def __init__(self, steps: int = 5000, **overrides) -> None:
        super().__init__(**overrides)
        self.steps = steps

    def prepare(self, seed: int) -> None:
        self.cfg = self.config(seed)
        self.rows = cli.build_dataset(self.cfg).n_samples * self.steps

    def run(self, out_dir: str) -> dict:
        cfg = self.cfg
        ds = cli.build_dataset(cfg)
        params, _ = trainer.run_supervised_baseline(
            ds, cfg.model_sizes(), cfg.activation, cfg.schedule_plan(), cfg.seed,
        )
        d2 = pseudo.D2Config(alpha=cfg.alpha, beta=cfg.beta, lam=AUDIT_LAM)
        store = pseudo.init_pseudo_labels(ds, params, d2)
        sums = store.logits.sum(axis=1)
        params, store, t = trainer.head_only_d2(ds, params, store, d2, self.steps, AUDIT_LR)
        cli._emit_diagnostics(out_dir, ds, params, store, d2)
        return {"dataset": ds, "params": params, "store": store, "t": t,
                "sums": sums, "d2": d2}

    def audit(self, outputs: dict) -> dict[str, float]:
        """Criterion 3 and 4 quantities, computed as the acceptance suite
        does, plus the pseudo-logit sum drift over the run."""
        ds, params, store, t, d2 = (outputs[k] for k in ("dataset", "params", "store", "t", "d2"))
        unl = ds.unlabeled_indices
        trace = model.forward(params, ds.features[unl])
        rows = np.arange(unl.size)
        n = np.argmax(trace.log_prediction, axis=1)
        p_hat_n = trace.prediction[rows, n]
        p_tilde_n = store.probs(unl)[rows, n]
        _, _, loss = pseudo.d2_loss(trace.log_prediction, store.log_probs(unl), d2)
        conv = np.abs(t) < CONVERGED_T
        bound = np.exp(-loss / d2.beta)
        drift = np.abs(store.logits[unl].sum(axis=1) - outputs["sums"][unl])
        return {
            "unconverged_fraction": float(np.mean(~conv)),
            "flatness_violations": int(np.sum((p_tilde_n > p_hat_n + VIOLATION_TOL) & conv)),
            "bound_violations": int(np.sum((p_hat_n < bound - VIOLATION_TOL) & conv)),
            "sum_drift_max": float(drift.max()),
        }

    def check(self, out_dir: str, outputs: dict) -> list[str]:
        audit = self.audit(outputs)
        problems = []
        if not np.all(np.isfinite(outputs["t"])):
            problems.append("non-finite residual")
        if not audit["unconverged_fraction"] <= UNCONVERGED_LIMIT:
            problems.append(f"unconverged fraction {audit['unconverged_fraction']:.4g} "
                            f"above {UNCONVERGED_LIMIT}")
        if audit["flatness_violations"]:
            problems.append(f"{audit['flatness_violations']} flatness violations")
        if audit["bound_violations"]:
            problems.append(f"{audit['bound_violations']} bound violations")
        if not audit["sum_drift_max"] < SUM_DRIFT_LIMIT:
            problems.append(f"pseudo-logit sum drift {audit['sum_drift_max']:.3g} "
                            f"not below {SUM_DRIFT_LIMIT}")
        return problems

    def figures(self, out_dir: str, outputs: dict) -> dict[str, tuple[float, str]]:
        audit = self.audit(outputs)
        return {
            "unconverged_fraction": (audit["unconverged_fraction"], "1"),
            "flatness_violations": (audit["flatness_violations"], "count"),
            "bound_violations": (audit["bound_violations"], "count"),
            "sum_drift_max": (audit["sum_drift_max"], "logit"),
        }


class ArtifactRoundtrip(Workload):
    name = "artifact_roundtrip"
    ARTIFACTS = ("model.d2ck", "pseudo.d2pl", "dataset.csv")
    fingerprint_files = DIAGNOSTIC_CSVS + ARTIFACTS

    def __init__(self, **overrides) -> None:
        super().__init__(**{"gauss_per_class": 25000, **overrides})

    def prepare(self, seed: int) -> None:
        cfg = self.config(seed)
        self.dataset = cli.build_dataset(cfg)
        self.params = model.init_params(cfg.model_sizes(), cfg.activation,
                                        numerics.seeded_rng(seed))
        self.store = pseudo.init_pseudo_labels(self.dataset, self.params, cfg.d2_config())
        # each dataset row and snapshot record is written once and read once
        self.rows = 4 * self.dataset.n_samples

    def run(self, out_dir: str) -> dict:
        ck, pl, ds = (os.path.join(out_dir, name) for name in self.ARTIFACTS)
        model.save_checkpoint(self.params, ck)
        pseudo.save_snapshot(self.store, pl)
        self.dataset.save_csv(ds)
        code = cli.main(["diagnose", "--checkpoint", ck, "--snapshot", pl,
                         "--dataset_csv", ds, "--out", out_dir])
        if code != 0:
            raise RuntimeError(f"d2ssl diagnose exited with code {code}")
        return {}

    def check(self, out_dir: str, outputs: dict) -> list[str]:
        paths = [os.path.join(out_dir, name) for name in self.ARTIFACTS]
        params = model.load_checkpoint(paths[0])
        store = pseudo.load_snapshot(paths[1])
        data = SplitDataset.load_csv(paths[2], store.n_classes)
        pairs = {
            "checkpoint": (params.tensors(), self.params.tensors()),
            "snapshot": ([store.logits, store.frozen], [self.store.logits, self.store.frozen]),
            "dataset": ([data.features, data.true_classes, data.roles],
                        [self.dataset.features, self.dataset.true_classes, self.dataset.roles]),
        }
        return [f"{what} read back differs from what was written"
                for what, (got, want) in pairs.items() if not _bit_equal(got, want)]


WORKLOADS = {w.name: w for w in (R2D2Reference, ConvergenceAudit, ArtifactRoundtrip)}
# Runnable, but not in BENCHMARK.json: at this commit the program fails
# the audit's checks on most seeds (bench/NOTES.md).
UNLISTED = ("convergence_audit",)


def gradient_rows(cfg: cli.ExperimentConfig, ds: SplitDataset) -> int:
    """Rows that pass through a gradient step in one r2d2 run, from the
    schedule and the split sizes (closed world, as the reference runs)."""
    plan = cfg.schedule_plan()
    n_lab, n_unl = ds.labeled_indices.size, ds.unlabeled_indices.size
    bs1 = min(plan.batch_labeled, n_lab)
    stage1 = plan.stage1_epochs * (n_lab // bs1) * bs1
    stage2 = (sum(s.epochs for s in plan.stage2_segments)
              * (n_unl // plan.batch_unlabeled) * (plan.batch_unlabeled + plan.batch_labeled))
    bs3 = min(plan.batch_labeled + plan.batch_unlabeled, n_lab + n_unl)
    stage3 = plan.stage3_epochs * ((n_lab + n_unl) // bs3) * bs3
    return stage1 + stage2 + stage3


def _metrics_rows(out_dir: str) -> list[dict[str, str]]:
    with open(os.path.join(out_dir, "metrics.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def _bit_equal(got: list[np.ndarray], want: list[np.ndarray]) -> bool:
    return len(got) == len(want) and all(
        g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        for g, w in zip(got, want)
    )
