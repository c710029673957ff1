"""Diagnostics: audits and CSV exporters, and the finite-difference
oracle of gradient_oracle.py that the gradient tests use."""

import csv

import numpy as np
import pytest

from d2ssl.data import BLOCK_ROWS, OOD_CLASS, SplitDataset, gen_gaussians, inject_ood, split
from d2ssl.diagnostics import (
    HIST_BINS,
    HIST_LOWER,
    HIST_UPPER,
    entropy_cdf,
    export_features,
    flatness_audit,
    t_histogram,
    unlabeled_scores,
    write_flatness_csv,
    write_histogram_csv,
)
from d2ssl.errors import NumericError
from d2ssl.model import forward, init_params
from d2ssl.numerics import entropy, seeded_rng, softmax
from d2ssl.pseudo import (
    D2Config, convergence_residual, d2_loss, init_pseudo_labels,
)
from gradient_oracle import gradient_check, numeric_gradient

CENTERS = 3.0 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)


def setup_run(seed=0):
    raw = gen_gaussians(4, 2, 25, CENTERS, 1.0, seeded_rng(seed))
    ds = split(raw, 3, 0.3, seeded_rng(seed))
    params = init_params([2, 8, 3, 4], "tanh", seeded_rng(seed))
    cfg = D2Config(alpha=0.1, beta=0.03, lam=100.0)
    store = init_pseudo_labels(ds, params, cfg)
    return ds, params, store, cfg


def test_numeric_gradient_polynomial():
    # f(x) = sum(x^3): gradient 3x^2, exactly known.        [DERIVED]
    x = np.array([1.0, -2.0, 0.5])
    g = numeric_gradient(lambda v: float(np.sum(v ** 3)), x, step=1e-5)
    np.testing.assert_allclose(g, 3.0 * x ** 2, atol=1e-8)


def test_gradient_check_accepts_correct_gradient():
    x = np.array([0.3, -1.2])
    err = gradient_check(lambda v: float(v @ v), x, 2.0 * x, step=1e-6)
    assert err < 1e-8


def test_gradient_check_rejects_wrong_gradient():
    x = np.array([0.3, -1.2])
    err = gradient_check(lambda v: float(v @ v), x, 3.0 * x, step=1e-6)
    assert err > 0.1


def test_gradient_check_nonfinite_loss():
    with pytest.raises(NumericError):
        gradient_check(lambda v: float("nan"), np.zeros(2), np.zeros(2), 1e-6)


def test_t_histogram_counts_and_fraction():
    ds, params, store, cfg = setup_run()
    counts, frac = t_histogram(unlabeled_scores(ds, params, store, cfg)[-1])
    assert counts.size == HIST_BINS
    assert counts.sum() == ds.unlabeled_indices.size
    assert 0.0 <= frac <= 1.0


def test_flatness_audit_universal_bound():
    # p_hat_n >= exp(-L/beta) holds for every sample, converged or not,
    # because L >= beta*H >= -beta*log(max p_hat).           [DERIVED]
    ds, params, store, cfg = setup_run()
    records, summary = flatness_audit(unlabeled_scores(ds, params, store, cfg), cfg.beta)
    p_hat_n, bound = records[:, 1], records[:, 4]
    assert np.all(p_hat_n >= bound - 1e-9)
    assert summary["n_samples"] == ds.unlabeled_indices.size


def test_entropy_cdf_monotone():
    probs = np.array([[0.5, 0.5], [0.9, 0.1], [1.0, 0.0]])
    grid = np.array([0.01, 0.4, 0.8])
    cdf = entropy_cdf(probs, grid)
    np.testing.assert_array_equal(cdf, [1, 2, 3])


@pytest.mark.parametrize("seed", range(4))
def test_entropy_cdf_equals_one_comparison_per_threshold(seed):
    # Thresholds that equal some entropies, rows whose entropy is NaN,
    # and one-hot rows of entropy 0 against the grid of cli's table.
    rng = seeded_rng(seed)
    probs = softmax(rng.standard_normal((2000, 4)) * 3.0)
    probs[rng.choice(2000, 40, replace=False)] = np.nan
    probs[:30] = np.eye(4)[rng.integers(0, 4, 30)]
    ent = entropy(probs)
    grid = np.sort(np.concatenate([
        np.linspace(0.0, np.log(4) + 1e-9, 51)[1:],
        rng.choice(ent[np.isfinite(ent)], 10), [0.0]]))
    want = np.array([int(np.sum(ent < e)) for e in grid])
    got = entropy_cdf(probs, grid)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_export_features_2d(tmp_path):
    ds, _, store, cfg = setup_run()
    params = init_params([2, 8, 2, 4], "tanh", seeded_rng(0))  # 2-D feature
    path = tmp_path / "features.csv"
    count = export_features(ds, params, path)
    assert count == ds.n_samples
    lines = path.read_text().splitlines()
    assert len(lines) == ds.n_samples + 1
    assert lines[0] == "id,role,class,f0,f1,predicted"


def test_export_features_truncation_flag(tmp_path):
    raw = gen_gaussians(4, 2, 10, CENTERS, 1.0, seeded_rng(0))
    ds = split(raw, 2, 0.3, seeded_rng(0))
    params = init_params([2, 8, 5, 4], "tanh", seeded_rng(0))  # 5-D feature
    path = tmp_path / "features.csv"
    export_features(ds, params, path)
    header = path.read_text().splitlines()[0]
    assert header.endswith("truncated_to_2d")


def test_unlabeled_scores_bit_equal_to_forward_trace():
    ds, params, store, cfg = setup_run()
    unl = ds.unlabeled_indices
    trace = forward(params, ds.features[unl])
    p_tilde_log = store.log_probs(unl)
    _, _, total = d2_loss(trace.log_prediction, p_tilde_log, cfg)
    t = convergence_residual(trace.log_prediction, p_tilde_log, total, cfg)
    n = np.argmax(trace.log_prediction, axis=1)
    rows = np.arange(unl.size)
    want = (unl, trace.prediction[rows, n], np.exp(p_tilde_log)[rows, n], total, t)
    got = unlabeled_scores(ds, params, store, cfg)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324]


def export_features_by_rows(dataset, params, path):
    """The row-by-row csv.writer exporter, kept as the byte-level reference."""
    names = {0: "labeled", 1: "unlabeled", 2: "test"}
    trace = forward(params, dataset.features)
    feat = trace.feature
    coords = feat[:, :2] if feat.shape[1] >= 2 else np.column_stack(
        [feat[:, 0], np.zeros(feat.shape[0])]
    )
    pred = np.argmax(trace.logits, axis=1)
    truncated = feat.shape[1] != 2
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "role", "class", "f0", "f1", "predicted"]
                   + (["truncated_to_2d"] if truncated else []))
        for i in range(dataset.n_samples):
            cls = "" if dataset.true_classes[i] == OOD_CLASS else int(dataset.true_classes[i])
            w.writerow([i, names[int(dataset.roles[i])], cls,
                        float(coords[i, 0]), float(coords[i, 1]), int(pred[i])]
                       + (["1"] if truncated else []))


def edge_dataset(dim):
    """Gaussian rows plus three OOD rows, the first rows of feature 0
    replaced by nan, +-inf, -0.0 and the smallest subnormal."""
    centers = np.zeros((4, dim))
    centers[:, 0] = 3.0 * np.arange(4)
    ds = split(gen_gaussians(4, dim, 10, centers, 1.0, seeded_rng(0)), 2, 0.3, seeded_rng(1))
    ood = gen_gaussians(1, dim, 5, np.zeros((1, dim)), 1.0, seeded_rng(2))
    ds = inject_ood(ds, ood, 3, seeded_rng(3))
    ds.features[:len(EDGE_FLOATS), 0] = EDGE_FLOATS
    return ds


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("sizes", [
    [2, 8, 2, 4],   # 2-D feature
    [2, 8, 1, 4],   # 1-D feature, zero second coordinate
    [2, 8, 5, 4],   # 5-D feature, truncated
    [2, 4],         # no hidden layer: the feature is the input, edge floats included
])
def test_export_features_bytes_match_csv_writer(tmp_path, sizes):
    ds = edge_dataset(2)
    params = init_params(sizes, "linear", seeded_rng(0))
    assert export_features(ds, params, tmp_path / "new.csv") == ds.n_samples
    export_features_by_rows(ds, params, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def flatness_by_rows(records):
    """The f"{v:.9g}" text of write_flatness_csv, row by row."""
    return ("id,p_hat_n,p_tilde_n,loss,bound,residual\n" + "".join(
        ",".join(f"{v:.9g}" for v in row) + "\n" for row in records
    )).encode()


def test_flatness_csv_bytes_match_format(tmp_path):
    ds, params, store, cfg = setup_run()
    records, _ = flatness_audit(unlabeled_scores(ds, params, store, cfg), cfg.beta)
    records[:len(EDGE_FLOATS), 1] = EDGE_FLOATS
    records[len(EDGE_FLOATS):2 * len(EDGE_FLOATS), 3] = [-v for v in EDGE_FLOATS]
    path = tmp_path / "flatness_audit.csv"
    write_flatness_csv(records, path)
    assert path.read_bytes() == flatness_by_rows(records)


BLOCK_EDGES = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]


def block_pool(n_rows):
    """n_rows 2-D rows of every role and class, OOD ones included."""
    rng = seeded_rng(n_rows)
    return SplitDataset(rng.standard_normal((n_rows, 2)) * 3.0,
                        rng.integers(OOD_CLASS, 4, n_rows), rng.integers(0, 3, n_rows), 4)


@pytest.mark.parametrize("n_rows", BLOCK_EDGES)
@pytest.mark.parametrize("sizes", [[2, 8, 2, 4], [2, 8, 5, 4]], ids=["2d", "truncated"])
def test_export_features_bytes_at_block_edges(tmp_path, n_rows, sizes):
    ds = block_pool(n_rows)
    params = init_params(sizes, "tanh", seeded_rng(1))
    assert export_features(ds, params, tmp_path / "new.csv") == n_rows
    if n_rows:
        export_features_by_rows(ds, params, tmp_path / "ref.csv")
        want = (tmp_path / "ref.csv").read_bytes()
    else:  # forward() refuses an empty batch; csv.writer writes the header alone
        want = b"id,role,class,f0,f1,predicted" + b",truncated_to_2d" * (sizes[2] != 2) + b"\r\n"
    assert (tmp_path / "new.csv").read_bytes() == want


@pytest.mark.parametrize("n_rows", BLOCK_EDGES)
def test_flatness_csv_bytes_at_block_edges(tmp_path, n_rows):
    rng = seeded_rng(n_rows)
    records = rng.standard_normal((n_rows, 6)) * 10.0 ** rng.integers(-12, 12, (n_rows, 6))
    records[:, 0] = np.arange(n_rows)
    write_flatness_csv(records, tmp_path / "flatness_audit.csv")
    assert (tmp_path / "flatness_audit.csv").read_bytes() == flatness_by_rows(records)


def test_histogram_csv_bytes_match_csv_writer(tmp_path):
    ds, params, store, cfg = setup_run()
    counts, _ = t_histogram(unlabeled_scores(ds, params, store, cfg)[-1])
    write_histogram_csv(counts, tmp_path / "new.csv")
    edges = np.linspace(HIST_LOWER, HIST_UPPER, HIST_BINS + 1)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_lower", "bin_upper", "count"])
        for i in range(HIST_BINS):
            w.writerow([f"{edges[i]:.9g}", f"{edges[i + 1]:.9g}", int(counts[i])])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
