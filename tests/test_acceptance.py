"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Each test prints "[criterion NN] PASS/FAIL — detail" directly to the
terminal (bypassing capture) and then asserts, so the verdict line is
visible even under default pytest capture.

Criteria 3-5 share one converged population produced by the head-only
joint optimization; criteria 6-10 use paired seeded runs whose
configurations are chosen to expose each phenomenon at desk scale (the
shared reference configuration is the parser default).
"""

import struct
import sys

import numpy as np
import pytest

from d2ssl.cli import (
    PRESETS,
    ExperimentConfig,
    ablation_errors,
    build_dataset,
    compare_baseline,
    convergence_audit,
    main,
    open_world_study,
    parse_config,
    strategy_cells,
    train_r2d2,
)
from d2ssl.data import load_idx
from d2ssl.diagnostics import unlabeled_scores
from d2ssl.errors import FormatError
from d2ssl.model import Workspace, backward, forward, init_params
from d2ssl.numerics import log_softmax, seeded_rng, softmax
from d2ssl.pseudo import (
    CLASSIFICATION_LOSSES,
    D2Config,
    d2_loss,
    grad_wrt_network_logits,
    grad_wrt_pseudo_logits,
)
from gradient_oracle import gradient_check


def report(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {verdict} — {detail}", file=sys.__stdout__)
    sys.__stdout__.flush()
    assert ok, f"criterion {num}: {detail}"


def run_experiment(**overrides):
    cfg = ExperimentConfig(**overrides)
    ds = build_dataset(cfg)
    params, store, metrics = train_r2d2(cfg, ds)
    return cfg, ds, params, store, metrics


def final_stage2(metrics):
    return [m for m in metrics if m.stage == "stage2"][-1]


# ---------------------------------------------------------------- 1

def test_criterion_01_gradient_oracles():
    """Analytic gradients vs central differences: 20 seeded points per
    target (network logits, pseudo-logits, full MLP backward), all
    three matching-loss variants, max relative error < 1e-6."""
    rng = seeded_rng(100)
    worst = 0.0

    for i in range(20):
        variant = CLASSIFICATION_LOSSES[i % 3]
        cfg = D2Config(alpha=0.1, beta=0.03, classification_loss=variant)
        zh = rng.standard_normal(5)
        zt = rng.standard_normal(5)

        def net_loss(y):
            return d2_loss(log_softmax(y[None]), log_softmax(zt[None]), cfg)[2][0]

        def pseudo_loss(y):
            return d2_loss(log_softmax(zh[None]), log_softmax(y[None]), cfg)[2][0]

        worst = max(worst, gradient_check(
            net_loss, zh,
            grad_wrt_network_logits(softmax(zh[None]), log_softmax(zh[None]),
                                    log_softmax(zt[None]), cfg, np.empty((1, 5))),
            step=1e-5,
        ))
        worst = max(worst, gradient_check(
            pseudo_loss, zt,
            grad_wrt_pseudo_logits(softmax(zh), softmax(zt), cfg),
            step=1e-5,
        ))

    for i in range(20):
        variant = CLASSIFICATION_LOSSES[i % 3]
        cfg = D2Config(alpha=0.1, beta=0.03, classification_loss=variant)
        params = init_params([2, 4, 3, 3], "tanh", rng)
        x = rng.standard_normal((4, 2))
        zt = rng.standard_normal((4, 3))
        p_tilde_log = log_softmax(zt)

        def scalar(p):
            tr = forward(p, x)
            _, _, total = d2_loss(tr.log_prediction, p_tilde_log, cfg)
            return float(total.sum())

        ws = Workspace(params, 4)
        trace = forward(params, x, ws)
        grad_wrt_network_logits(
            trace.prediction, trace.log_prediction, p_tilde_log, cfg, ws.dl
        )
        grads = backward(params, trace, params.zeros(), ws)
        for k, tensor in enumerate(params.tensors()):
            def loss_of(t, tensor=tensor):
                saved = tensor.copy()
                tensor[...] = t
                try:
                    return scalar(params)
                finally:
                    tensor[...] = saved

            worst = max(worst, gradient_check(
                loss_of, tensor.copy(), grads.tensors()[k], step=1e-5,
            ))

    report(1, worst < 1e-6, f"max relative gradient error {worst:.3g} (< 1e-6)")


# ---------------------------------------------------------------- 2

def test_criterion_02_conservation():
    """Pseudo-logit coordinate sums are invariant over a full reference
    stage-2 run (>= 1e5 pseudo-updates): max |delta sum| < 1e-9."""
    cfg, ds, _, _, metrics = run_experiment(seed=0)
    s2 = [m for m in metrics if m.stage == "stage2"]
    plan = cfg.schedule_plan()
    per_epoch = (ds.unlabeled_indices.size // plan.batch_unlabeled) * plan.batch_unlabeled
    n_updates = per_epoch * sum(seg.epochs for seg in plan.stage2_segments)
    worst = max(m.sum_drift_max for m in s2)
    report(
        2,
        n_updates >= 100_000 and worst < 1e-9,
        f"{n_updates} pseudo-updates, max per-sample sum drift {worst:.3g} (< 1e-9)",
    )


# ---------------------------------------------------------------- 3-5

@pytest.fixture(scope="module")
def converged_population():
    """Head-only joint optimization on the reference config: backbone
    frozen after the warm-up, 5000 full-batch steps on the head weights
    and pseudo-logits."""
    ds, params, store, t, d2 = convergence_audit(parse_config("", {"seed": "0"}, PRESETS["audit"]))
    _, p_hat_n, p_tilde_n, loss, _ = unlabeled_scores(ds, params, store, d2)
    return {"cfg": d2, "t": t, "p_hat_n": p_hat_n, "p_tilde_n": p_tilde_n, "loss": loss}


def test_criterion_03_residual_convergence(converged_population):
    """>= 95% of unlabeled samples reach |t(n)| < 1e-3 after 5000
    head-only joint steps."""
    t = converged_population["t"]
    frac = float(np.mean(np.abs(t) < 1e-3))
    report(3, frac >= 0.95,
           f"{frac:.1%} of unlabeled samples with |t| < 1e-3 (need >= 95%)")


def test_criterion_04_flatness_and_bound(converged_population):
    """Converged samples: zero violations of p_tilde_n <= p_hat_n + 1e-6
    and zero violations of p_hat_n >= exp(-loss/beta) - 1e-6."""
    pop = converged_population
    conv = np.abs(pop["t"]) < 1e-3
    flat_viol = int(np.sum((pop["p_tilde_n"] > pop["p_hat_n"] + 1e-6) & conv))
    bound = np.exp(-pop["loss"] / pop["cfg"].beta)
    bound_viol = int(np.sum((pop["p_hat_n"] < bound - 1e-6) & conv))
    report(
        4,
        flat_viol == 0 and bound_viol == 0,
        f"{flat_viol} flatness violations, {bound_viol} bound violations "
        f"among {int(conv.sum())} converged samples (need 0 and 0)",
    )


def test_criterion_05_exponential_link(converged_population):
    """|p_tilde_n - exp(-loss/alpha) p_hat_n^(1-beta/alpha)| < 1e-3 for
    >= 95% of the converged-run samples."""
    pop = converged_population
    a, b = pop["cfg"].alpha, pop["cfg"].beta
    predicted = np.exp(-pop["loss"] / a) * pop["p_hat_n"] ** (1.0 - b / a)
    err = np.abs(pop["p_tilde_n"] - predicted)
    frac = float(np.mean(err < 1e-3))
    report(5, frac >= 0.95,
           f"{frac:.1%} of samples within 1e-3 of the exponential link (need >= 95%)")


# ---------------------------------------------------------------- 6

def test_criterion_06_reprediction_lowers_pseudo_entropy():
    """Paired stage-2 runs in the slow-tracking regime (small pseudo
    step scale): with repredictions + decreasing lr, final mean
    pseudo-label entropy is strictly lower than without (no
    repredictions, constant lr) on 5/5 seeds."""
    wins = 0
    details = []
    for seed in range(5):
        h = {}
        for tag, extra in [
            ("r2", {}),
            ("no", {"stage2_lrs": "0.01,0.01,0.01,0.01",
                    "stage2_repredict": "0,0,0,0"}),
        ]:
            _, _, _, _, metrics = run_experiment(seed=seed, lam=1.0, **extra)
            h[tag] = final_stage2(metrics).mean_h_pseudo
        wins += h["r2"] < h["no"]
        details.append(f"seed {seed}: {h['r2']:.4f} vs {h['no']:.4f}")
    report(6, wins == 5,
           f"{wins}/5 seeds with strictly lower pseudo entropy ({'; '.join(details)})")


# ---------------------------------------------------------------- 7

def test_criterion_07_ssl_gain():
    """Full pipeline beats the supervised baseline on >= 4/5 seeds on
    the reference Gaussian config and on two-moons."""
    results = {
        name: sum(err < err_base for _, err, err_base, *_ in compare_baseline(
            parse_config("", {"dataset": name}, PRESETS["compare"][name]), 5))
        for name in ("gaussians", "two_moons")
    }
    ok = all(w >= 4 for w in results.values())
    report(7, ok, f"SSL wins: gaussians {results['gaussians']}/5, "
                  f"two_moons {results['two_moons']}/5 (need >= 4/5 each)")


# ---------------------------------------------------------------- 8

def test_criterion_08_strategy_table():
    """Five-cell training-strategy table on one fixed seed (harder
    class spread so strategy differences are visible): error ordering
    {stage2 only} >= {+repeat} >= {full} with the full schedule
    strictly beating plain repetition."""
    base = ExperimentConfig(seed=0, gauss_spread=2.0)
    errors = ablation_errors(base, strategy_cells(base))
    table = ", ".join(f"{k}={v:.4f}" for k, v in errors.items())
    a, b, e = errors["a_stage2_only"], errors["b_repeat"], errors["e_full"]
    report(8, a >= b >= e and b > e, f"full table: {table}; "
           f"ordering a>=b>=e {a >= b >= e}, b>e strict {b > e}")


# ---------------------------------------------------------------- 9

def test_criterion_09_negative_control():
    """With the entropy weight above the matching weight (alpha=0.01 <
    beta=0.03) and a weak warm-up, final pseudo-label accuracy falls at
    least 20 points below the alpha=0.1 run on the same seed."""
    acc = {}
    for alpha in (0.1, 0.01):
        _, _, _, _, metrics = run_experiment(
            seed=1, alpha=alpha, stage1_epochs=10, stage1_horizon=10,
        )
        acc[alpha] = final_stage2(metrics).acc_pseudo
    gap = acc[0.1] - acc[0.01]
    report(9, gap >= 0.20,
           f"pseudo accuracy {acc[0.1]:.3f} (alpha 0.1) vs {acc[0.01]:.3f} "
           f"(alpha 0.01), gap {gap:.3f} (need >= 0.20)")


# ---------------------------------------------------------------- 10

def test_criterion_10_open_world_filter():
    """25% injected OOD unlabeled samples: the discarded set is
    OOD-enriched on 5/5 seeds, and filtered error <= unfiltered error
    on >= 3/5 seeds."""
    rows = list(open_world_study(parse_config("", {}, PRESETS["open_world"]), 5))
    enrich = sum(drop_frac > pool_frac for *_, pool_frac, drop_frac in rows)
    not_worse = sum(filtered <= unfiltered for _, unfiltered, filtered, *_ in rows)
    report(
        10,
        enrich == 5 and not_worse >= 3,
        f"OOD-enriched discards on {enrich}/5 seeds (need 5), filtered error "
        f"<= unfiltered on {not_worse}/5 seeds (need >= 3)",
    )


# ---------------------------------------------------------------- 11

def test_criterion_11_determinism(tmp_path):
    """Every CLI mode produces bit-identical CSV output across two
    invocations with the same config and seed."""
    tiny = {
        "gauss_per_class": "30",
        "stage1_epochs": "5", "stage1_horizon": "5",
        "stage2_epochs": "2,2", "stage2_lrs": "0.01,0.008",
        "stage2_repredict": "0,1",
        "stage3_epochs": "2", "stage3_horizon": "2",
        "batch_labeled": "5", "batch_unlabeled": "20",
    }

    def invoke(mode, out, extra=None):
        args = [mode, "--out", str(out)]
        for k, v in {**tiny, **(extra or {})}.items():
            args += [f"--{k}", v]
        assert main(args) == 0

    mismatches = []
    run_dir = tmp_path / "seedrun"
    invoke("r2d2", run_dir)
    for mode, artifact, extra in [
        ("r2d2", "metrics.csv", None),
        ("supervised_baseline", "metrics.csv", None),
        ("ablation", "ablation_summary.csv", None),
        ("diagnose", "t_histogram.csv", {
            "checkpoint": str(run_dir / "model.d2ck"),
            "snapshot": str(run_dir / "pseudo.d2pl"),
            "dataset_csv": str(run_dir / "dataset.csv"),
        }),
    ]:
        out_a = tmp_path / f"{mode}_a"
        out_b = tmp_path / f"{mode}_b"
        invoke(mode, out_a, extra)
        invoke(mode, out_b, extra)
        if (out_a / artifact).read_bytes() != (out_b / artifact).read_bytes():
            mismatches.append(mode)
    report(11, not mismatches,
           "bit-identical output for modes r2d2, supervised_baseline, "
           f"ablation, diagnose (mismatches: {mismatches or 'none'})")


# ---------------------------------------------------------------- 12

def test_criterion_12_idx_loader(tmp_path):
    """Hand-built 4-image IDX fixture round-trips exactly; malformed
    magic and truncation raise format errors."""
    images = seeded_rng(0).integers(0, 256, size=(4, 2, 3)).astype(np.uint8)
    labels = [1, 0, 2, 1]
    img = tmp_path / "imgs"
    lbl = tmp_path / "lbls"
    img.write_bytes(struct.pack(">IIII", 0x00000803, 4, 2, 3) + images.tobytes())
    lbl.write_bytes(struct.pack(">II", 0x00000801, 4) + bytes(labels))

    ds = load_idx(img, lbl)
    exact = (
        ds.n_samples == 4
        and ds.dim == 6
        and np.array_equal(ds.true_classes, labels)
        and np.array_equal(ds.features * 255.0,
                           images.reshape(4, 6).astype(np.float64))
    )

    bad_magic = tmp_path / "badmagic"
    bad_magic.write_bytes(struct.pack(">IIII", 0x00000666, 4, 2, 3) + images.tobytes())
    magic_raises = False
    try:
        load_idx(bad_magic, lbl)
    except FormatError:
        magic_raises = True

    truncated = tmp_path / "trunc"
    truncated.write_bytes(img.read_bytes()[:-4])
    trunc_raises = False
    try:
        load_idx(truncated, lbl)
    except FormatError:
        trunc_raises = True

    report(12, exact and magic_raises and trunc_raises,
           f"round-trip exact {exact}, bad magic raises {magic_raises}, "
           f"truncation raises {trunc_raises}")
