"""Read-only audits over a trained model and pseudo-label store:
finite-difference gradient checking, residual histograms, flatness
checks, entropy CDFs, and 2-D feature export.

Each exporter writes a CSV with a one-line header; none of them mutate
the model or the store.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .data import SplitDataset, write_csv_columns
from .errors import ConfigurationError, NumericError
from .model import ModelParams, forward_features, forward_logits
from .numerics import entropy, softmax_pair
from .pseudo import convergence_residual, d2_loss


# The bins of t_histogram.csv, and the |t| below which a sample counts
# in t_converged_fraction.csv.
HIST_LOWER, HIST_UPPER, HIST_BINS = -0.5, 0.5, 101
T_CONVERGED = 1e-3
# The |t| below which flatness_audit counts a sample as converged.
FLATNESS_CONVERGED = 1e-4


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


def gradient_check(loss_fn, point: np.ndarray, analytic: np.ndarray, step: float) -> float:
    """Max relative error between analytic and central-difference
    gradients of a scalar function at a point.

    Relative error uses denominator max(|analytic|, |numeric|, 1e-8)
    per coordinate.
    """
    def finite_loss(x):
        value = float(loss_fn(x))
        if not math.isfinite(value):
            raise NumericError("non-finite loss during gradient check")
        return value

    numeric = numeric_gradient(finite_loss, point, step).ravel()
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom, initial=0.0))


def unlabeled_scores(dataset, params, store, cfg):
    """Per-unlabeled-sample (ids, p_hat_n, p_tilde_n, loss, residual) at
    the arg-max class n of the prediction, the input of t_histogram and
    flatness_audit. An empty pool gives empty scores."""
    unl = dataset.unlabeled_indices
    if unl.size == 0:
        empty = np.zeros(0)
        return unl, empty, empty, empty, empty
    p_hat, p_hat_log = softmax_pair(forward_logits(params, dataset.features[unl]))
    p_tilde_log = store.log_probs(unl)
    _, _, total = d2_loss(p_hat_log, p_tilde_log, cfg)
    t = convergence_residual(p_hat_log, p_tilde_log, total, cfg)
    n = np.argmax(p_hat_log, axis=1)
    rows = np.arange(unl.size)
    p_hat_n = p_hat[rows, n]
    p_tilde_n = np.exp(p_tilde_log)[rows, n]
    return unl, p_hat_n, p_tilde_n, total, t


def t_histogram(t: np.ndarray) -> tuple[np.ndarray, float]:
    """Counts of the per-sample convergence residuals t of the unlabeled
    pool (unlabeled_scores' last array) in the HIST_BINS bins, plus the
    fraction with |t| below T_CONVERGED."""
    edges = np.linspace(HIST_LOWER, HIST_UPPER, HIST_BINS + 1)
    counts, _ = np.histogram(np.clip(t, HIST_LOWER, HIST_UPPER), bins=edges)
    frac = float(np.mean(np.abs(t) < T_CONVERGED)) if t.size else float("nan")
    return counts, frac


def flatness_audit(scores, beta: float):
    """Per-sample records for the flatness inequalities, from
    scores = unlabeled_scores(...) under a loss with entropy weight beta.

    Returns (records, summary): records has columns
    (id, p_hat_n, p_tilde_n, loss, exp(-loss/beta), residual); the
    summary reports violation fractions among converged samples
    (|residual| < FLATNESS_CONVERGED).
    """
    if beta == 0:
        raise ConfigurationError("flatness bound undefined for beta == 0")
    unl, p_hat_n, p_tilde_n, total, t = scores
    bound = np.exp(-total / beta)
    converged = np.abs(t) < FLATNESS_CONVERGED
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


def export_features(dataset: SplitDataset, params: ModelParams, path) -> int:
    """Write rows (id, role, class, feature coords, predicted class) for
    the penultimate-layer feature scatter and return the row count.
    Exports the first two coordinates with a flag when the feature
    dimension is not 2; a 1-D feature gets a zero second coordinate.
    The features come from one forward pass over the whole pool; only
    the text is made in row blocks."""
    feat = forward_features(params, dataset.features)
    pred = np.argmax(feat @ params.head_w, axis=1)
    coords = feat[:, :2]
    truncated = feat.shape[1] != 2

    def columns(start, stop):
        cols = dataset.label_columns(start, stop) + coords[start:stop].T.tolist()
        if coords.shape[1] == 1:
            cols.append(repeat(0.0))
        cols.append(pred[start:stop].tolist())
        if truncated:
            cols.append(repeat(1))
        return cols

    header = ["id", "role", "class", "f0", "f1", "predicted"] + ["truncated_to_2d"] * truncated
    formats = ["%s"] * 3 + ["%r"] * 2 + ["%s"] * (1 + truncated)
    write_csv_columns(path, header, formats, dataset.n_samples, columns)
    return dataset.n_samples


def write_histogram_csv(counts: np.ndarray, path) -> None:
    """Write t_histogram counts as CSV, one row per bin."""
    edges = np.linspace(HIST_LOWER, HIST_UPPER, HIST_BINS + 1).tolist()
    counts = counts.tolist()
    write_csv_columns(path, ["bin_lower", "bin_upper", "count"], ["%.9g", "%.9g", "%s"],
                      HIST_BINS, lambda start, stop: [edges[start:stop],
                                                      edges[start + 1:stop + 1],
                                                      counts[start:stop]])


def write_flatness_csv(records: np.ndarray, path) -> None:
    """Write flatness_audit records as CSV, each value as f"{v:.9g}"."""
    write_csv_columns(path, ["id", "p_hat_n", "p_tilde_n", "loss", "bound", "residual"],
                      ["%.9g"] * records.shape[1], records.shape[0],
                      lambda start, stop: records[start:stop].T.tolist(), line_end="\n")
