"""Diagnostics: oracle helpers, audits, and CSV exporters."""

import csv

import numpy as np
import pytest

from d2ssl.data import OOD_CLASS, SplitDataset, gen_gaussians, inject_ood, split
from d2ssl.diagnostics import (
    HistogramSpec,
    entropy_cdf,
    export_features,
    flatness_audit,
    gradient_check,
    numeric_gradient,
    pseudo_grad_magnitudes,
    sum_drift_audit,
    t_histogram,
    unlabeled_scores,
    write_flatness_csv,
    write_histogram_csv,
)
from d2ssl.errors import ConfigurationError, NumericError
from d2ssl.model import forward, init_params
from d2ssl.numerics import seeded_rng
from d2ssl.pseudo import (
    D2Config, PseudoLabelStore, convergence_residual, d2_loss, init_pseudo_labels,
)

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
    spec, frac = t_histogram(ds, params, store, cfg)
    assert spec.counts.sum() == ds.unlabeled_indices.size
    assert 0.0 <= frac <= 1.0


def test_t_histogram_custom_spec(tmp_path):
    ds, params, store, cfg = setup_run()
    spec, _ = t_histogram(ds, params, store, cfg, HistogramSpec(-1.0, 1.0, 10))
    assert spec.counts.size == 10
    path = tmp_path / "hist.csv"
    write_histogram_csv(spec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_lower,bin_upper,count"
    assert len(lines) == 11


def test_flatness_audit_beta_zero_error():
    ds, params, store, _ = setup_run()
    cfg = D2Config(alpha=0.1, beta=0.0, lam=100.0)
    with pytest.raises(ConfigurationError):
        flatness_audit(ds, params, store, cfg)


def test_flatness_audit_universal_bound():
    # p_hat_n >= exp(-L/beta) holds for every sample, converged or not,
    # because L >= beta*H >= -beta*log(max p_hat).           [DERIVED]
    ds, params, store, cfg = setup_run()
    records, summary = flatness_audit(ds, params, store, cfg)
    p_hat_n, bound = records[:, 1], records[:, 4]
    assert np.all(p_hat_n >= bound - 1e-9)
    assert summary["n_samples"] == ds.unlabeled_indices.size


def test_entropy_cdf_monotone():
    probs = np.array([[0.5, 0.5], [0.9, 0.1], [1.0, 0.0]])
    grid = np.array([0.01, 0.4, 0.8])
    cdf = entropy_cdf(probs, grid)
    np.testing.assert_array_equal(cdf, [1, 2, 3])
    with pytest.raises(ConfigurationError):
        entropy_cdf(probs, np.array([0.5, 0.4]))


def test_sum_drift_audit():
    ds, params, store, cfg = setup_run()
    base = store.logits.sum(axis=1).copy()
    worst, records = sum_drift_audit(store, base)
    assert worst == 0.0
    unl_free = np.flatnonzero(~store.frozen)
    store.logits[unl_free[0]] += np.array([1.0, 0.0, 0.0, 0.0])
    worst, _ = sum_drift_audit(store, base)
    assert worst == pytest.approx(1.0)


def test_sum_drift_audit_all_frozen():
    store = PseudoLabelStore(
        np.zeros((3, 2)), np.ones(3, dtype=bool), 2, 10.0
    )
    worst, records = sum_drift_audit(store, np.zeros(3))
    assert worst == 0.0 and records.shape[0] == 0


def test_pseudo_grad_magnitudes_shape():
    ds, params, store, cfg = setup_run()
    cols = pseudo_grad_magnitudes(ds, params, store, cfg)
    assert cols.shape == (ds.unlabeled_indices.size, 2)
    assert np.all(cols >= 0.0)


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


def test_precomputed_scores_give_the_same_audits():
    ds, params, store, cfg = setup_run()
    scores = unlabeled_scores(ds, params, store, cfg)
    spec, frac = t_histogram(ds, params, store, cfg)
    spec2, frac2 = t_histogram(ds, params, store, cfg, scores=scores)
    np.testing.assert_array_equal(spec.counts, spec2.counts)
    assert frac == frac2
    records, summary = flatness_audit(ds, params, store, cfg)
    records2, summary2 = flatness_audit(ds, params, store, cfg, scores=scores)
    assert records.tobytes() == records2.tobytes()
    assert summary == pytest.approx(summary2, nan_ok=True)


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


def test_flatness_csv_bytes_match_format(tmp_path):
    ds, params, store, cfg = setup_run()
    records, _ = flatness_audit(ds, params, store, cfg)
    records[:len(EDGE_FLOATS), 1] = EDGE_FLOATS
    records[len(EDGE_FLOATS):2 * len(EDGE_FLOATS), 3] = [-v for v in EDGE_FLOATS]
    path = tmp_path / "flatness_audit.csv"
    write_flatness_csv(records, path)
    want = "id,p_hat_n,p_tilde_n,loss,bound,residual\n" + "".join(
        ",".join(f"{v:.9g}" for v in row) + "\n" for row in records
    )
    assert path.read_bytes() == want.encode()


def test_histogram_csv_bytes_match_csv_writer(tmp_path):
    ds, params, store, cfg = setup_run()
    spec, _ = t_histogram(ds, params, store, cfg, HistogramSpec(-1.0, 1.0, 10))
    write_histogram_csv(spec, tmp_path / "new.csv")
    edges = np.linspace(spec.lower, spec.upper, spec.bins + 1)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_lower", "bin_upper", "count"])
        for i in range(spec.bins):
            w.writerow([f"{edges[i]:.9g}", f"{edges[i + 1]:.9g}", int(spec.counts[i])])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
