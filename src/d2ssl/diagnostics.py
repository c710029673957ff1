"""Read-only audits over a trained model and pseudo-label store:
finite-difference gradient checking, residual histograms, flatness and
conservation checks, entropy CDFs, and 2-D feature export.

Each exporter writes a CSV with a one-line header; none of them mutate
the model or the store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SplitDataset, write_csv_columns
from .errors import ConfigurationError, NumericError
from .model import ModelParams, forward, forward_features, forward_logits
from .numerics import entropy, softmax_pair
from .pseudo import D2Config, PseudoLabelStore, d2_loss, convergence_residual


@dataclass
class HistogramSpec:
    lower: float
    upper: float
    bins: int
    counts: np.ndarray | None = None


def gradient_check(loss_fn, point: np.ndarray, analytic: np.ndarray, step: float) -> float:
    """Max relative error between analytic and central-difference
    gradients of a scalar function at a point.

    Relative error uses denominator max(|analytic|, |numeric|, 1e-8)
    per coordinate.
    """
    point = np.asarray(point, dtype=np.float64)
    analytic = np.asarray(analytic, dtype=np.float64)
    flat = point.ravel()
    aflat = analytic.ravel()
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = float(loss_fn(point))
        flat[i] = orig - step
        f_minus = float(loss_fn(point))
        flat[i] = orig
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise NumericError("non-finite loss during gradient check")
        numeric = (f_plus - f_minus) / (2.0 * step)
        denom = max(abs(aflat[i]), abs(numeric), 1e-8)
        worst = max(worst, abs(aflat[i] - numeric) / denom)
    return worst


def numeric_gradient(loss_fn, point: np.ndarray, step: float) -> np.ndarray:
    """Central-difference gradient, the independent oracle itself."""
    point = np.asarray(point, dtype=np.float64)
    flat = point.ravel()
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = float(loss_fn(point))
        flat[i] = orig - step
        f_minus = float(loss_fn(point))
        flat[i] = orig
        out[i] = (f_plus - f_minus) / (2.0 * step)
    return out.reshape(point.shape)


def unlabeled_scores(dataset, params, store, cfg):
    """Per-unlabeled-sample (ids, p_hat_n, p_tilde_n, loss, residual) at
    the arg-max class n of the prediction; t_histogram and
    flatness_audit accept it precomputed."""
    unl = dataset.unlabeled_indices
    p_hat, p_hat_log = softmax_pair(forward_logits(params, dataset.features[unl]))
    p_tilde_log = store.log_probs(unl)
    _, _, total = d2_loss(p_hat_log, p_tilde_log, cfg)
    t = convergence_residual(p_hat_log, p_tilde_log, total, cfg)
    n = np.argmax(p_hat_log, axis=1)
    rows = np.arange(unl.size)
    p_hat_n = p_hat[rows, n]
    p_tilde_n = np.exp(p_tilde_log)[rows, n]
    return unl, p_hat_n, p_tilde_n, total, t


def t_histogram(
    dataset: SplitDataset,
    params: ModelParams,
    store: PseudoLabelStore,
    cfg: D2Config,
    spec: HistogramSpec | None = None,
    tolerance: float = 1e-3,
    scores=None,
) -> tuple[HistogramSpec, float]:
    """Histogram of the per-sample convergence residual over the
    unlabeled pool, plus the fraction with |t| below tolerance.

    Pass scores = unlabeled_scores(...) when the caller already has them.
    """
    if spec is None:
        spec = HistogramSpec(-0.5, 0.5, 101)
    if scores is None:
        scores = unlabeled_scores(dataset, params, store, cfg)
    t = scores[-1]
    edges = np.linspace(spec.lower, spec.upper, spec.bins + 1)
    counts, _ = np.histogram(np.clip(t, spec.lower, spec.upper), bins=edges)
    spec.counts = counts
    frac = float(np.mean(np.abs(t) < tolerance)) if t.size else float("nan")
    return spec, frac


def flatness_audit(
    dataset: SplitDataset,
    params: ModelParams,
    store: PseudoLabelStore,
    cfg: D2Config,
    converged_tol: float = 1e-4,
    scores=None,
):
    """Per-sample records for the flatness inequalities.

    Returns (records, summary): records has columns
    (id, p_hat_n, p_tilde_n, loss, exp(-loss/beta), residual); the
    summary reports violation fractions among converged samples
    (|residual| < converged_tol). Pass scores = unlabeled_scores(...)
    when the caller already has them.
    """
    if cfg.beta == 0:
        raise ConfigurationError("flatness bound undefined for beta == 0")
    if scores is None:
        scores = unlabeled_scores(dataset, params, store, cfg)
    unl, p_hat_n, p_tilde_n, total, t = scores
    bound = np.exp(-total / cfg.beta)
    converged = np.abs(t) < converged_tol
    viol_flat = (p_tilde_n > p_hat_n + 1e-6) & converged
    viol_bound = (p_hat_n < bound - 1e-6) & converged
    records = np.column_stack([unl, p_hat_n, p_tilde_n, total, bound, t])
    n_conv = int(converged.sum())
    summary = {
        "n_samples": int(unl.size),
        "n_converged": n_conv,
        "frac_violating_flatness": float(viol_flat.sum() / n_conv) if n_conv else float("nan"),
        "frac_violating_bound": float(viol_bound.sum() / n_conv) if n_conv else float("nan"),
    }
    return records, summary


def entropy_cdf(probs: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """For each threshold, the count of rows with entropy below it."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ConfigurationError("entropy grid must be strictly increasing")
    ent = entropy(np.atleast_2d(probs))
    return np.array([int(np.sum(ent < e)) for e in grid])


def sum_drift_audit(
    store: PseudoLabelStore,
    snapshot_sums: np.ndarray,
    grad_norms: np.ndarray | None = None,
):
    """Max |sum(pseudo-logits) - snapshot| over unfrozen samples.

    Records carry |y|_2 per sample, and |dL/dy|_2 when grad_norms is
    supplied, so the magnitude-ordering comparison falls out of the same
    CSV.
    """
    unfrozen = np.flatnonzero(~store.frozen)
    if unfrozen.size == 0:
        return 0.0, np.zeros((0, 4))
    drift = np.abs(store.logits[unfrozen].sum(axis=1) - snapshot_sums[unfrozen])
    y_norm = np.linalg.norm(store.logits[unfrozen], axis=1)
    if grad_norms is None:
        grad_norms = np.full(unfrozen.size, np.nan)
    records = np.column_stack([unfrozen, drift, y_norm, grad_norms])
    return float(drift.max()), records


def pseudo_grad_magnitudes(
    dataset: SplitDataset,
    params: ModelParams,
    store: PseudoLabelStore,
    cfg: D2Config,
) -> np.ndarray:
    """Columns (|y|_2, |dL/dy|_2) per unlabeled sample, for the
    magnitude-ordering comparison."""
    from .pseudo import grad_wrt_pseudo_logits
    unl = dataset.unlabeled_indices
    trace = forward(params, dataset.features[unl])
    grad = grad_wrt_pseudo_logits(trace.prediction, store.probs(unl), cfg)
    return np.column_stack([
        np.linalg.norm(store.logits[unl], axis=1),
        np.linalg.norm(grad, axis=1),
    ])


def export_features(dataset: SplitDataset, params: ModelParams, path) -> int:
    """Write rows (id, role, class, feature coords, predicted class) for
    the penultimate-layer feature scatter and return the row count.
    Exports the first two coordinates with a flag when the feature
    dimension is not 2; a 1-D feature gets a zero second coordinate."""
    feat = forward_features(params, dataset.features)
    pred = np.argmax(feat @ params.head_w, axis=1)
    coords = feat[:, :2].T.tolist()
    if len(coords) == 1:
        coords.append([0.0] * dataset.n_samples)
    header = ["id", "role", "class", "f0", "f1", "predicted"]
    cols = dataset.label_columns()
    cols += [list(map(repr, c)) for c in coords]
    cols.append(list(map(str, pred.tolist())))
    if feat.shape[1] != 2:
        header.append("truncated_to_2d")
        cols.append(["1"] * dataset.n_samples)
    write_csv_columns(path, header, cols)
    return dataset.n_samples


def write_histogram_csv(spec: HistogramSpec, path) -> None:
    edges = [f"{e:.9g}" for e in np.linspace(spec.lower, spec.upper, spec.bins + 1).tolist()]
    counts = list(map(str, spec.counts.tolist()))
    write_csv_columns(path, ["bin_lower", "bin_upper", "count"], [edges[:-1], edges[1:], counts])


def write_flatness_csv(records: np.ndarray, path) -> None:
    """Write flatness_audit records as CSV, each value as f"{v:.9g}"."""
    line = ",".join(["%.9g"] * records.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write("id,p_hat_n,p_tilde_n,loss,bound,residual\n")
        fh.write((line * records.shape[0]) % tuple(records.ravel().tolist()))
