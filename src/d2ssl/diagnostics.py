"""Read-only audits over a trained model and pseudo-label store:
residual histograms, flatness checks, entropy CDFs, and 2-D feature
export.

Each exporter writes a CSV with a one-line header; none of them mutate
the model or the store.
"""

from __future__ import annotations

import numpy as np

from .data import Coded, SplitDataset, write_csv_columns
from .model import ModelParams, forward_features, forward_logits
from .numerics import entropy
from .pseudo import residual_terms


# The bins of t_histogram.csv, and the |t| below which a sample counts
# in t_converged_fraction.csv.
HIST_LOWER, HIST_UPPER, HIST_BINS = -0.5, 0.5, 101
T_CONVERGED = 1e-3
# The |t| below which flatness_audit counts a sample as converged.
FLATNESS_CONVERGED = 1e-4


def unlabeled_scores(dataset, params, store, cfg):
    """Per-unlabeled-sample (ids, p_hat_n, p_tilde_n, loss, residual) at
    the arg-max class n of the prediction, the input of t_histogram and
    flatness_audit. An empty pool gives empty scores."""
    unl = dataset.unlabeled_indices
    if unl.size == 0:
        empty = np.zeros(0)
        return unl, empty, empty, empty, empty
    terms = residual_terms(forward_logits(params, dataset.features[unl]), store.logits[unl], cfg)
    n = np.argmax(terms.p_hat_log, axis=1)
    rows = np.arange(unl.size)
    return unl, terms.p_hat[rows, n], np.exp(terms.p_tilde_log)[rows, n], terms.loss, terms.t


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
    scores = unlabeled_scores(...) under a loss with entropy weight beta > 0.

    Returns (records, summary): records has columns
    (id, p_hat_n, p_tilde_n, loss, exp(-loss/beta), residual); the
    summary reports violation fractions among converged samples
    (|residual| < FLATNESS_CONVERGED).
    """
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
    """For each threshold of the non-NaN grid, the count of rows with
    entropy below it: the insertion point of the threshold before its
    equals in the sorted entropies, where NaN entropies sort last and so
    count below no threshold."""
    return np.searchsorted(np.sort(entropy(probs)), grid, side="left")


def export_features(dataset: SplitDataset, params: ModelParams, path) -> int:
    """Write rows (id, role, class, feature coords, predicted class) for
    the penultimate-layer feature scatter and return the row count.
    Exports the first two coordinates with a flag when the feature
    dimension is not 2; a 1-D feature gets a zero second coordinate.
    The features come from one forward pass over the whole pool; only
    the text is made in row blocks."""
    feat = forward_features(params, dataset.features)
    pred = np.argmax(feat @ params.head_w, axis=1)
    truncated = feat.shape[1] != 2
    constant = np.broadcast_to(0, dataset.n_samples)  # the codes of a one-value column
    columns = dataset.label_columns() + list(feat[:, :2].T)
    if feat.shape[1] == 1:
        columns.append(Coded([0.0], constant))
    columns.append(pred)
    if truncated:
        columns.append(Coded([1], constant))
    header = ["id", "role", "class", "f0", "f1", "predicted"] + ["truncated_to_2d"] * truncated
    formats = ["%s"] * 3 + ["%r"] * 2 + ["%s"] * (1 + truncated)
    write_csv_columns(path, header, formats, dataset.n_samples, columns)
    return dataset.n_samples


def write_histogram_csv(counts: np.ndarray, path) -> None:
    """Write t_histogram counts as CSV, one row per bin."""
    edges = np.linspace(HIST_LOWER, HIST_UPPER, HIST_BINS + 1)
    write_csv_columns(path, ["bin_lower", "bin_upper", "count"], ["%.9g", "%.9g", "%s"],
                      HIST_BINS, [edges[:-1], edges[1:], counts])


def write_flatness_csv(records: np.ndarray, path) -> None:
    """Write flatness_audit records as CSV, each value as f"{v:.9g}"."""
    write_csv_columns(path, ["id", "p_hat_n", "p_tilde_n", "loss", "bound", "residual"],
                      ["%.9g"] * records.shape[1], records.shape[0], list(records.T),
                      line_end="\n")
