"""Scheduler, optimizer, filtering, and pipeline behavior tests."""

import contextlib
import math
import mmap
import os
import time
import weakref
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from d2ssl import pseudo, trainer
from d2ssl.cli import build_dataset, parse_config
from d2ssl.data import OOD_CLASS, gen_gaussians, inject_ood, split
from d2ssl.errors import ConfigurationError, DimensionError, NumericError
from d2ssl.model import (
    Workspace, backward, forward, forward_features, forward_logits, init_params,
)
from d2ssl.numerics import entropy, log_softmax, seeded_rng, softmax, softmax_pair
from d2ssl.pseudo import (
    D2Config, PseudoLabelStore, convergence_residual, d2_loss, d2_update_pseudo_batch,
    grad_wrt_network_logits, init_pseudo_labels, repredict,
)
from d2ssl.trainer import (
    METRICS_HEADER,
    _draw_labeled,
    _labeled_config,
    OptimizerState,
    SchedulePlan,
    Stage2Segment,
    active_unlabeled,
    cosine_lr,
    head_only_d2,
    run_r2d2,
    run_supervised_baseline,
    sgd_nesterov_step,
    stage1_supervised,
    stage2_d2,
    stage3_finetune,
    write_metrics,
)

CENTERS = 3.0 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)


def tiny_dataset(seed=0, per_class=30):
    raw = gen_gaussians(4, 2, per_class, CENTERS, 1.0, seeded_rng(seed))
    return split(raw, 3, 0.3, seeded_rng(seed))


def tiny_plan(**kw):
    base = dict(
        stage1_epochs=20, stage1_lr=0.05, stage1_horizon=20,
        stage2_segments=[Stage2Segment(3, 0.01, False), Stage2Segment(3, 0.008, True)],
        stage3_epochs=5, stage3_lr=0.01, stage3_horizon=5,
        batch_labeled=6, batch_unlabeled=20,
    )
    base.update(kw)
    return SchedulePlan(**base)


def test_cosine_lr_endpoints():
    assert cosine_lr(0, 100, 0.1) == pytest.approx(0.1)
    assert cosine_lr(100, 100, 0.1) == pytest.approx(0.0, abs=1e-15)
    assert cosine_lr(50, 100, 0.1) == pytest.approx(0.05)


def test_cosine_lr_outside_horizon():
    # cosine_lr trusts its step: SchedulePlan refuses a zero horizon and
    # a stage whose steps 0..epochs-1 would run past its horizon.
    _plan_error(stage1_epochs=4, stage1_horizon=2)
    _plan_error(stage3_epochs=1, stage3_horizon=0)
    rng = seeded_rng(0)
    plan = tiny_plan(stage1_epochs=3, stage1_horizon=2)  # the last step is the horizon
    _, records = stage1_supervised(tiny_dataset(), init_params([2, 5, 4], "tanh", rng), plan, rng)
    assert [r.lr for r in records] == [cosine_lr(t, 2, 0.05) for t in range(3)]


def test_nesterov_step_hand_computed():
    # One step from a zero buffer on a single scalar weight:  [DERIVED]
    # eff = g + wd*w; buf = mu*buf + eff; w -= lr*(eff + mu*buf)
    params = init_params([1, 1], "linear", seeded_rng(0))
    params.head_w[...] = 2.0
    state = OptimizerState(params, momentum=0.9, weight_decay=0.1)
    state.grads.head_w[...] = 0.5

    g = 0.5 + 0.1 * 2.0           # 0.7
    buf = 0.9 * 0.0 + g           # 0.7
    expect = 2.0 - 0.01 * (g + 0.9 * buf)
    sgd_nesterov_step(state, lr=0.01)
    assert params.head_w[0, 0] == pytest.approx(expect, abs=1e-15)
    assert state.velocity[0] == pytest.approx(buf, abs=1e-15)


def test_optimizer_state_is_bound_to_its_params():
    params = init_params([2, 5, 3], "tanh", seeded_rng(0))
    before = params.copy()
    state = OptimizerState(params, momentum=0.9, weight_decay=0.0)
    for name in ("params", "grads", "velocity", "scratch", "momentum"):
        with pytest.raises(AttributeError):
            setattr(state, name, None)
    assert state.grads.layer_sizes == params.layer_sizes
    assert not np.shares_memory(state.grads.flat, params.flat)
    state.grads.flat[:] = 1.0
    sgd_nesterov_step(state, 0.1)
    assert np.array_equal(params.flat, before.flat - 0.1 * 1.9)


def test_schedule_plan_validation():
    with pytest.raises(ConfigurationError):
        SchedulePlan(stage1_epochs=-1)
    with pytest.raises(ConfigurationError):
        SchedulePlan(discard_fraction=1.0)
    with pytest.raises(ConfigurationError):
        SchedulePlan(batch_labeled=0)
    with pytest.raises(ConfigurationError):
        SchedulePlan(batch_unlabeled=0)


@pytest.mark.parametrize("setting", [
    {"stage1_lr": np.nan}, {"stage1_lr": -0.5}, {"stage3_lr": np.inf},
    {"stage2_segments": [Stage2Segment(1, 0.01, False), Stage2Segment(1, np.nan, True)]},
    {"stage2_segments": [Stage2Segment(1, -1e-3, False)]},
    {"weight_decay": -1.0}, {"weight_decay": np.inf}, {"weight_decay": np.nan},
    {"momentum": np.inf}, {"momentum": 1.0}, {"momentum": -0.1}, {"momentum": np.nan},
])
def test_schedule_plan_rejects_bad_rates(setting):
    with pytest.raises(ConfigurationError):
        SchedulePlan(**setting)


def test_schedule_plan_accepts_zero_rates():
    SchedulePlan(stage1_lr=0.0, stage3_lr=0.0, weight_decay=0.0, momentum=0.0,
                 stage2_segments=[Stage2Segment(1, 0.0, False)])


def test_open_world_filter_drops_highest_entropy():
    ds = tiny_dataset()
    unl = ds.unlabeled_indices
    logits = np.zeros((ds.n_samples, 4))
    logits[unl] = 5.0 * np.eye(4)[np.zeros(unl.size, dtype=int)]
    flat = unl[:3]                       # make three rows uniform (max entropy)
    logits[flat] = 0.0
    store = PseudoLabelStore(logits, np.zeros(ds.n_samples, bool))
    keep = active_unlabeled(store, ds, tiny_plan(open_world=True, discard_fraction=0.1))
    dropped = np.setdiff1d(unl, keep)
    assert dropped.size == int(np.ceil(0.1 * unl.size))
    # The uniform rows are the highest-entropy ones; ties go to low ids.
    assert set(flat).issubset(set(dropped))
    ent = entropy(store.probs(unl))
    assert ent[np.isin(unl, dropped)].min() >= ent[np.isin(unl, keep)].max() - 1e-12


def test_open_world_filter_zero_fraction():
    ds = tiny_dataset()
    store = PseudoLabelStore(np.zeros((ds.n_samples, 4)), np.zeros(ds.n_samples, bool))
    np.testing.assert_array_equal(
        active_unlabeled(store, ds, tiny_plan(open_world=True, discard_fraction=0.0)),
        ds.unlabeled_indices,
    )


def test_active_unlabeled_closed_world_keeps_every_row():
    ds = tiny_dataset()
    logits = seeded_rng(5).standard_normal((ds.n_samples, 4))
    store = PseudoLabelStore(logits, np.zeros(ds.n_samples, bool))
    np.testing.assert_array_equal(
        active_unlabeled(store, ds, tiny_plan(open_world=False, discard_fraction=0.3)),
        ds.unlabeled_indices,
    )


def test_stage1_learns_labeled_set():
    ds = tiny_dataset()
    plan = tiny_plan(stage1_epochs=100, stage1_horizon=100)
    params = init_params([2, 16, 4, 4], "tanh", seeded_rng(0))
    params, recs = stage1_supervised(ds, params, plan, seeded_rng(0))
    assert recs[-1].acc_labeled == pytest.approx(1.0)
    assert recs[-1].acc_test > 0.8


def test_stage1_requires_labels():
    ds = tiny_dataset()
    ds.roles[ds.roles == 0] = 1
    with pytest.raises(ConfigurationError):
        stage1_supervised(
            ds, init_params([2, 4, 4], "tanh", seeded_rng(0)),
            tiny_plan(), seeded_rng(0),
        )


def test_run_r2d2_deterministic(tmp_path):
    ds = tiny_dataset()
    plan = tiny_plan()
    cfg = D2Config(alpha=0.1, beta=0.03, lam=100.0)
    out_a = run_r2d2(ds, [2, 8, 3, 4], "tanh", cfg, plan, seed=4)
    out_b = run_r2d2(ds, [2, 8, 3, 4], "tanh", cfg, plan, seed=4)
    write_metrics(out_a[2], tmp_path / "a.csv")
    write_metrics(out_b[2], tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    for ta, tb in zip(out_a[0].tensors(), out_b[0].tensors()):
        np.testing.assert_array_equal(ta, tb)


def test_run_r2d2_stage_layout():
    ds = tiny_dataset()
    plan = tiny_plan()
    cfg = D2Config(alpha=0.1, beta=0.03, lam=100.0)
    _, _, metrics = run_r2d2(ds, [2, 8, 3, 4], "tanh", cfg, plan, seed=0)
    stages = [m.stage for m in metrics]
    assert stages.count("stage1") == 20
    assert stages.count("stage2") == 6
    assert stages.count("stage3") == 5


def test_frozen_rows_never_move():
    ds = tiny_dataset()
    plan = tiny_plan()
    cfg = D2Config(alpha=0.1, beta=0.03, lam=100.0)
    _, store, _ = run_r2d2(ds, [2, 8, 3, 4], "tanh", cfg, plan, seed=0)
    lab = ds.labeled_indices
    expected = np.zeros((lab.size, 4))
    expected[np.arange(lab.size), ds.true_classes[lab]] = cfg.init_scale
    np.testing.assert_array_equal(store.logits[lab], expected)
    assert store.frozen[lab].all()


@pytest.mark.parametrize("open_world", [False, True])
def test_run_r2d2_stage1_is_the_supervised_baseline(monkeypatch, open_world):
    """run_r2d2 starts with exactly run_supervised_baseline's steps, so
    its stage-1 records and its params after stage 1 are the baseline's,
    bit for bit; the baseline comparison reads the baseline from them."""
    ds = tiny_dataset()
    if open_world:
        ood = gen_gaussians(1, 2, 30, np.zeros((1, 2)), 1.0, seeded_rng(9))
        ds = inject_ood(ds, ood, 20, seeded_rng(9))
    plan = tiny_plan(open_world=open_world, discard_fraction=0.2)
    cfg = D2Config(alpha=0.1, beta=0.03, lam=100.0)
    base_params, base_records = run_supervised_baseline(ds, [2, 8, 3, 4], "tanh", plan, seed=5)

    after_stage1 = []

    def stage1_spy(*args):
        params, records = stage1_supervised(*args)
        after_stage1.append(params.copy())
        return params, records

    monkeypatch.setattr(trainer, "stage1_supervised", stage1_spy)
    _, _, records = run_r2d2(ds, [2, 8, 3, 4], "tanh", cfg, plan, seed=5)
    stage1 = [r for r in records if r.stage == "stage1"]
    assert len(stage1) == len(base_records) == plan.stage1_epochs
    assert [repr(astuple(r)) for r in stage1] == [repr(astuple(r)) for r in base_records]
    assert after_stage1[0].flat.tobytes() == base_params.flat.tobytes()


def test_numeric_abort_on_divergence():
    ds = tiny_dataset()
    plan = tiny_plan(stage1_epochs=30, stage1_horizon=30, stage1_lr=1e12)
    with pytest.raises(NumericError):
        run_supervised_baseline(ds, [2, 8, 3, 4], "tanh", plan, seed=0)


def test_unlabeled_batch_larger_than_pool():
    ds = tiny_dataset()
    plan = tiny_plan(batch_unlabeled=10_000)
    cfg = D2Config(alpha=0.1, beta=0.03, lam=100.0)
    with pytest.raises(ConfigurationError):
        run_r2d2(ds, [2, 8, 3, 4], "tanh", cfg, plan, seed=0)


@pytest.mark.parametrize("open_world,discard,batch", [
    (False, 0.0, 72), (True, 0.1, 64), (True, 0.25, 54)])
def test_unlabeled_batch_checked_against_the_active_pool_before_stage1(
        monkeypatch, open_world, discard, batch):
    """The active pool is the unlabeled count, less ceil(discard x count)
    in an open world: 72, 72 - 8 and 72 - 18 rows here."""
    def no_stage1(*args):
        raise AssertionError("stage 1 entered")

    monkeypatch.setattr(trainer, "stage1_supervised", no_stage1)
    ds = tiny_dataset()
    assert ds.unlabeled_indices.size == 72
    cfg = D2Config(alpha=0.1, beta=0.03, lam=100.0)
    plan = tiny_plan(batch_unlabeled=batch + 1, open_world=open_world,
                     discard_fraction=discard)
    with pytest.raises(ConfigurationError,
                       match=rf"^unlabeled batch size {batch + 1} exceeds active pool {batch}$"):
        run_r2d2(ds, [2, 8, 3, 4], "tanh", cfg, plan, seed=0)
    plan = tiny_plan(batch_unlabeled=batch, open_world=open_world, discard_fraction=discard)
    with pytest.raises(AssertionError, match="stage 1 entered"):
        run_r2d2(ds, [2, 8, 3, 4], "tanh", cfg, plan, seed=0)


def test_metrics_csv_header(tmp_path):
    ds = tiny_dataset()
    plan = tiny_plan()
    cfg = D2Config(alpha=0.1, beta=0.03, lam=100.0)
    _, _, metrics = run_r2d2(ds, [2, 8, 3, 4], "tanh", cfg, plan, seed=0)
    path = tmp_path / "metrics.csv"
    write_metrics(metrics, path)
    lines = path.read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    assert lines[0] == (
        "stage,epoch,lr,loss_total,loss_c,loss_e,acc_labeled,acc_test,"
        "acc_pseudo,mean_H_pseudo,mean_H_pred,t_abs_p50,t_abs_p95,sum_drift_max"
    )
    assert len(lines) == 1 + len(metrics)


def test_head_only_backbone_frozen():
    ds = tiny_dataset()
    params = init_params([2, 8, 3, 4], "tanh", seeded_rng(0))
    cfg = D2Config(alpha=0.1, beta=0.03, lam=100.0)
    store = init_pseudo_labels(ds, params, cfg)
    out, store, t = head_only_d2(ds, params, store, cfg, steps=50, lr=1.0)
    for la, lb in zip(params.layers, out.layers):
        np.testing.assert_array_equal(la.weight, lb.weight)
        np.testing.assert_array_equal(la.bias, lb.bias)
    assert not np.array_equal(params.head_w, out.head_w)
    # The residual has the very bits of log_softmax of the final head
    # logits, log_probs of the store, d2_loss and convergence_residual.
    lab, unl = ds.labeled_indices, ds.unlabeled_indices
    feats = forward_features(params, ds.features[np.concatenate([lab, unl])])
    log_p = log_softmax(feats[lab.size:] @ out.head_w.copy())
    p_tilde_log = store.log_probs(unl)
    _, _, total = d2_loss(log_p, p_tilde_log, cfg)
    want = convergence_residual(log_p, p_tilde_log, total, cfg)
    assert t.tobytes() == want.tobytes()


def test_repredict_segment_resets_pseudo_logits():
    # After a segment that starts with reprediction, the pseudo-logits
    # moved away from their initial values.
    ds = tiny_dataset()
    params = init_params([2, 8, 3, 4], "tanh", seeded_rng(0))
    cfg = D2Config(alpha=0.1, beta=0.03, lam=0.0)  # lam 0: only repredictions move them
    store = init_pseudo_labels(ds, params, cfg)
    before = store.logits.copy()
    plan = tiny_plan(stage2_segments=[
        Stage2Segment(2, 0.01, False), Stage2Segment(2, 0.01, True),
    ])
    _, store, _ = stage2_d2(ds, params, store, plan, cfg, seeded_rng(0))
    unl = ds.unlabeled_indices
    assert not np.allclose(store.logits[unl], before[unl])


def test_repredict_writes_only_unfrozen_unlabeled_rows():
    ds = tiny_dataset()
    params = init_params([2, 8, 3, 4], "tanh", seeded_rng(0))
    lab, unl = ds.labeled_indices, ds.unlabeled_indices
    store = PseudoLabelStore(seeded_rng(1).standard_normal((ds.n_samples, 4)),
                             np.zeros(ds.n_samples, bool))
    store.frozen[lab] = True
    store.frozen[unl[3]] = True
    before = store.logits.copy()
    assert repredict(store, params, ds) is store
    kept = np.concatenate([lab, ds.test_indices, unl[3:4]])
    assert store.logits[kept].tobytes() == before[kept].tobytes()
    moved = np.delete(unl, 3)
    assert store.logits[moved].tobytes() == forward_logits(params, ds.features[moved]).tobytes()


def _per_subset_stage2_metrics(ds, params, store, cfg, active, drift_base):
    """The stage-2 metric columns as defined: one forward per row subset,
    softmax and log_softmax taken separately, one percentile per call."""
    def accuracy(ids):
        valid = ids[ds.true_classes[ids] != OOD_CLASS]
        pred = np.argmax(forward(params, ds.features[valid]).logits, axis=1)
        return float(np.mean(pred == ds.true_classes[valid]))

    unl = ds.unlabeled_indices
    valid_unl = unl[ds.true_classes[unl] != OOD_CLASS]
    logits = forward(params, ds.features[active]).logits
    p_hat, p_hat_log = softmax(logits), log_softmax(logits)
    p_tilde_log = store.log_probs(active)
    _, _, total = d2_loss(p_hat_log, p_tilde_log, cfg)
    t = np.abs(convergence_residual(p_hat_log, p_tilde_log, total, cfg))
    drift = np.abs(store.logits[active].sum(axis=1) - drift_base[active])
    return {
        "acc_labeled": accuracy(ds.labeled_indices),
        "acc_test": accuracy(ds.test_indices),
        "acc_pseudo": float(np.mean(
            np.argmax(store.logits[valid_unl], axis=1) == ds.true_classes[valid_unl]
        )),
        "mean_h_pred": float(np.mean(entropy(p_hat, log_p=p_hat_log))),
        "mean_h_pseudo": float(np.mean(entropy(store.probs(active)))),
        "t_abs_p50": float(np.percentile(t, 50)),
        "t_abs_p95": float(np.percentile(t, 95)),
        "sum_drift_max": float(drift.max()),
    }


@pytest.mark.parametrize("case", ["closed_world", "open_world", "labeled_matching_only"])
def test_stage2_metrics_equal_per_subset_formulas(case):
    # One logits-only forward over all evaluation rows and one softmax
    # pair per array must give the very bits of the per-subset formulas.
    ds = tiny_dataset(per_class=150)
    plan = tiny_plan(stage1_epochs=10, stage1_horizon=10,
                     stage2_segments=[Stage2Segment(3, 0.01, False)])
    if case == "open_world":
        ood = gen_gaussians(1, 2, 100, np.zeros((1, 2)), 1.0, seeded_rng(9))
        ds = inject_ood(ds, ood, 80, seeded_rng(9))
        plan = tiny_plan(stage1_epochs=10, stage1_horizon=10,
                         stage2_segments=[Stage2Segment(3, 0.01, False)],
                         open_world=True, discard_fraction=0.2)
    cfg = D2Config(alpha=0.1, beta=0.03, lam=100.0,
                   labeled_full_loss=case != "labeled_matching_only")
    rng = seeded_rng(2)
    params, _ = stage1_supervised(ds, init_params([2, 8, 3, 4], "tanh", rng), plan, rng)
    store = init_pseudo_labels(ds, params, cfg)
    drift_base = store.logits.sum(axis=1)
    active = active_unlabeled(store, ds, plan)
    params, store, records = stage2_d2(ds, params, store, plan, cfg, rng)
    if case == "open_world":
        assert np.any(ds.true_classes[active] == OOD_CLASS)
    expected = _per_subset_stage2_metrics(ds, params, store, cfg, active, drift_base)
    last = records[-1]
    for key, value in expected.items():
        assert getattr(last, key) == value, key


def _old_nesterov_step(tensors, gtensors, buffers, mu, wd, lr):
    """The per-tensor Nesterov update the flat step replaced."""
    for t, g, buf in zip(tensors, gtensors, buffers):
        eff = g + wd * t
        buf *= mu
        buf += eff
        t -= lr * (eff + mu * buf)


@pytest.mark.parametrize("weight_decay", [0.0, 2e-4])
def test_flat_nesterov_bit_equal_to_per_tensor_loop(weight_decay):
    params = init_params([2, 64, 2, 4], "tanh", seeded_rng(0))
    tensors = [t.copy() for t in params.tensors()]
    buffers = [np.zeros_like(t) for t in tensors]
    state = OptimizerState(params, momentum=0.9, weight_decay=weight_decay)
    rng = seeded_rng(1)
    for step in range(50):
        lr = float(rng.uniform(0.001, 0.1))
        for g in state.grads.tensors():
            g[...] = rng.standard_normal(g.shape)
        _old_nesterov_step(tensors, state.grads.tensors(), buffers, 0.9, weight_decay, lr)
        sgd_nesterov_step(state, lr)
        for a, b in zip(tensors, params.tensors()):
            assert a.tobytes() == b.tobytes(), step
        velocity = np.concatenate([b.ravel() for b in buffers])
        assert velocity.tobytes() == state.velocity.tobytes(), step


def _old_labeled_draws(lab, lab_order, cursor, n_batches, batch_labeled, rng):
    """The stage-2 labeled ids as drawn batch by batch before the draw
    moved to epoch start."""
    out = []
    for _ in range(n_batches):
        l_ids = []
        need = batch_labeled if lab.size else 0
        while need > 0:
            if cursor >= lab_order.size:
                lab_order = rng.permutation(lab)
                cursor = 0
            take = min(need, lab_order.size - cursor)
            l_ids.append(lab_order[cursor:cursor + take])
            cursor += take
            need -= take
        out.append(np.concatenate(l_ids) if l_ids else np.array([], dtype=np.int64))
    return out, lab_order, cursor


@pytest.mark.parametrize("n_lab", [0, 7, 20, 45])
def test_epoch_labeled_draw_matches_per_batch_draw(n_lab):
    # batch_labeled 20 against labeled pools of 0, fewer, as many and
    # more rows, over several epochs that carry the cursor along.
    lab = np.arange(100, 100 + n_lab)
    old_rng, new_rng = seeded_rng(3), seeded_rng(3)
    old_order = old_rng.permutation(lab) if lab.size else lab
    new_order = new_rng.permutation(lab) if lab.size else lab
    old_cursor = new_cursor = 0
    for n_batches in (19, 0, 3, 19):
        old, old_order, old_cursor = _old_labeled_draws(
            lab, old_order, old_cursor, n_batches, 20, old_rng)
        need = n_batches * (20 if lab.size else 0)
        new, new_order, new_cursor = _draw_labeled(lab, new_order, new_cursor, need, new_rng)
        expected = np.concatenate(old) if old else np.array([], dtype=np.int64)
        assert new.dtype == expected.dtype and new.tobytes() == expected.tobytes()
        assert new_cursor == old_cursor and new_order.tobytes() == old_order.tobytes()
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


@given(n_lab=st.integers(1, 25),
       steps=st.lists(st.tuples(st.integers(0, 19), st.integers(1, 30)), min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
# From a fresh order of 7: two orders, ending on a boundary; then three
# fresh orders, ending mid-order; then the rest of that order.
@example(n_lab=7, steps=[(2, 7), (3, 5), (1, 6)], seed=0)
@example(n_lab=1, steps=[(19, 20), (0, 20), (1, 1)], seed=1)
@example(n_lab=25, steps=[(3, 1), (19, 20), (2, 11)], seed=2)
@settings(max_examples=300, deadline=None)
def test_labeled_draw_matches_per_batch_draw_for_any_pool(n_lab, steps, seed):
    """The epoch draw, whose fresh orders come from one rng.permuted call,
    gives the per-batch draw's ids, order, cursor and generator state
    for draws that end mid-order, on an order boundary or several orders
    on."""
    lab = np.arange(100, 100 + n_lab)
    old_rng, new_rng = seeded_rng(seed), seeded_rng(seed)
    old_order, new_order = old_rng.permutation(lab), new_rng.permutation(lab)
    old_cursor = new_cursor = 0
    for n_batches, batch_labeled in steps:
        old, old_order, old_cursor = _old_labeled_draws(
            lab, old_order, old_cursor, n_batches, batch_labeled, old_rng)
        new, new_order, new_cursor = _draw_labeled(
            lab, new_order, new_cursor, n_batches * batch_labeled, new_rng)
        expected = np.concatenate(old) if old else np.array([], dtype=np.int64)
        assert new.dtype == expected.dtype and new.tobytes() == expected.tobytes()
        assert new_cursor == old_cursor and new_order.tobytes() == old_order.tobytes()
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


def test_numeric_abort_names_stage_epoch_and_batch():
    ds = tiny_dataset()
    plan = tiny_plan(stage1_epochs=30, stage1_horizon=30, stage1_lr=1e12)
    with pytest.raises(NumericError, match=r"non-finite loss at stage1 epoch \d+ batch \d+: nan"):
        run_supervised_baseline(ds, [2, 8, 3, 4], "tanh", plan, seed=0)


def test_stage2_abort_at_the_batch_of_a_nan_pseudo_logit():
    ds = tiny_dataset()
    params = init_params([2, 8, 3, 4], "tanh", seeded_rng(0))
    cfg = D2Config(lam=100.0)
    store = init_pseudo_labels(ds, params, cfg)
    plan = tiny_plan()
    # The second batch of epoch 0 holds this row: stage 2 first draws a
    # labeled order, then the epoch's unlabeled order.
    rng = seeded_rng(1)
    rng.permutation(ds.labeled_indices)
    bad = rng.permutation(ds.unlabeled_indices)[plan.batch_unlabeled + 3]
    store.logits[bad, 0] = np.nan
    before = store.logits.copy()
    with pytest.raises(NumericError, match=r"non-finite loss at stage2 epoch 0 batch 1: nan"):
        stage2_d2(ds, params, store, plan, cfg, seeded_rng(1))
    # The loss is checked before the epoch's pseudo-logit step.
    assert store.logits.tobytes() == before.tobytes()


def test_stage3_abort_at_the_batch_of_a_nan_feature():
    ds = tiny_dataset()
    params = init_params([2, 8, 3, 4], "tanh", seeded_rng(0))
    store = init_pseudo_labels(ds, params, D2Config())
    plan = tiny_plan()
    lab, unl = ds.labeled_indices, ds.unlabeled_indices
    ids = np.concatenate([lab, unl])
    batch = plan.batch_labeled + plan.batch_unlabeled
    assert ids.size // batch == 3
    # Stage 3 orders its rows by one permutation per epoch; the row at
    # position batch + 3 of epoch 0 is in its second batch of three.
    ds.features[ids[seeded_rng(1).permutation(ids.size)[batch + 3]]] = np.nan
    with pytest.raises(NumericError, match=r"^non-finite loss at stage3 epoch 0 batch 1: nan$"):
        stage3_finetune(ds, params, store, plan, seeded_rng(1))


@pytest.mark.parametrize("n_classes", [2, 4, 7, 8, 11])
def test_epoch_pseudo_pair_equals_per_batch_pairs(n_classes):
    """Stage 2 softmaxes an epoch's gathered pseudo-logits at once; batch
    b of the result is bit-equal to the softmax of batch b alone."""
    rng = seeded_rng(n_classes)
    logits = rng.standard_normal((500, n_classes)) * 12.0
    ids = rng.permutation(500)[:7 * 60].reshape(7, 60)
    p_all, log_p_all = softmax_pair(logits[ids])
    for b in range(ids.shape[0]):
        p, log_p = softmax_pair(logits[ids[b]])
        assert p_all[b].tobytes() == p.tobytes()
        assert log_p_all[b].tobytes() == log_p.tobytes()


def _old_forward_backward(params, x, w):
    """The trace and the gradients, for the logit gradient p * w, as the
    allocating forward and backward computed them before the workspace:
    a new array for every product, derivative and delta."""
    acts = []
    a = x
    for layer in params.layers:
        a = a @ layer.weight
        a += layer.bias
        a = a if params.activation == "linear" else (
            np.tanh(a, out=a) if params.activation == "tanh" else np.maximum(a, 0.0, out=a))
        acts.append(a)
    logits = a @ params.head_w
    p, log_p = softmax_pair(logits)
    g = p * w
    grads = [None] * (2 * len(params.layers)) + [a.T @ g]
    delta = g @ params.head_w.T
    for i in range(len(params.layers) - 1, -1, -1):
        layer, out = params.layers[i], acts[i]
        delta *= {"tanh": lambda: 1.0 - out * out,
                  "relu": lambda: (out > 0.0).astype(np.float64),
                  "linear": lambda: np.ones_like(out)}[params.activation]()
        a_prev = x if i == 0 else acts[i - 1]
        grads[2 * i], grads[2 * i + 1] = a_prev.T @ delta, delta.sum(axis=0)
        if i > 0:
            delta = delta @ layer.weight.T
    return [*acts, logits, p, log_p], grads


@pytest.mark.parametrize("sizes,activation,rows", [
    ([2, 64, 2, 4], "tanh", 120), ([2, 5, 3, 4], "relu", 25), ([2, 5, 3, 4], "linear", 25),
    ([2, 4], "tanh", 25), ([2, 16, 8, 3, 4], "tanh", 26), ([2, 16, 8, 3, 4], "relu", 26),
    ([2, 16, 8, 3, 9], "tanh", 26), ([2, 6, 3, 4], "tanh", 1),
])
def test_workspace_steps_bit_equal_to_allocating_steps(sizes, activation, rows):
    # Forward, backward and Nesterov step through one workspace, batch
    # after batch, against the allocating calls and the per-tensor step.
    params = init_params(sizes, activation, seeded_rng(4))
    ref = params.copy()
    ref_buffers = [np.zeros_like(t) for t in ref.tensors()]
    ws = Workspace(params, rows)
    state = OptimizerState(params, momentum=0.9, weight_decay=2e-4)
    rng = seeded_rng(5)
    for step in range(6):
        x = rng.standard_normal((rows, 2))
        w = rng.standard_normal((rows, sizes[-1])) / rows
        want_trace, want_grads = _old_forward_backward(ref, x, w)
        trace = forward(params, x, ws)
        assert trace is ws.trace
        got = [*trace.activations, trace.logits, trace.prediction, trace.log_prediction]
        for a, b in zip(want_trace, got, strict=True):
            assert a.tobytes() == b.tobytes(), step
        np.multiply(trace.prediction, w, out=ws.dl)
        backward(params, trace, state.grads, ws)
        for a, b in zip(want_grads, state.grads.tensors(), strict=True):
            assert a.tobytes() == b.tobytes(), step
        for t, g, buf in zip(ref.tensors(), want_grads, ref_buffers):
            eff = g + 2e-4 * t
            buf *= 0.9
            buf += eff
            t -= 0.03 * (eff + 0.9 * buf)
        sgd_nesterov_step(state, 0.03)
        assert params.flat.tobytes() == ref.flat.tobytes(), step


def test_workspace_serves_only_its_params_and_batch_size():
    params = init_params([2, 5, 4], "tanh", seeded_rng(0))
    ws = Workspace(params, 10)
    with pytest.raises(DimensionError, match=r"input \(9, 2\) for a workspace of \(10, 2\)"):
        forward(params, np.zeros((9, 2)), ws)
    with pytest.raises(DimensionError, match="workspace built for other params"):
        forward(params.copy(), np.zeros((10, 2)), ws)
    trace = forward(params, np.zeros((10, 2)), ws)
    with pytest.raises(DimensionError, match="workspace built for other params"):
        backward(params.copy(), trace, params.zeros(), ws)


def _per_batch_stage2(ds, params, store, plan, cfg, rng):
    """Stage 2 as run before the pseudo-logit step moved to the end of
    the epoch: a fresh workspace per batch, and one pseudo-logit
    step per batch on that batch's rows. Returns the per-epoch mean
    losses (total, matching, entropy)."""
    lab = ds.labeled_indices
    state = OptimizerState(params, plan.momentum, plan.weight_decay)
    cfg_labeled = _labeled_config(cfg)
    n_lab = plan.batch_labeled if lab.size else 0
    n_unl = plan.batch_unlabeled
    losses = []
    for segment in plan.stage2_segments:
        if segment.repredict_at_start:
            repredict(store, params, ds)
        active = active_unlabeled(store, ds, plan)
        lab_order, cursor = (rng.permutation(lab) if lab.size else lab), 0
        for _ in range(segment.epochs):
            unl_order = rng.permutation(active)
            n_batches = active.size // n_unl
            l_ids, lab_order, cursor = _draw_labeled(
                lab, lab_order, cursor, n_batches * n_lab, rng)
            sums = np.zeros(3)
            for b in range(n_batches):
                ids = np.concatenate([l_ids[b * n_lab:(b + 1) * n_lab],
                                      unl_order[b * n_unl:(b + 1) * n_unl]])
                ws = Workspace(params, ids.size)
                trace = forward(params, ds.features[ids], ws)
                p_tilde, p_tilde_log = softmax_pair(store.logits[ids])
                p, log_p = trace.prediction, trace.log_prediction
                dl = ws.dl
                grad_wrt_network_logits(
                    p[:n_lab], log_p[:n_lab], p_tilde_log[:n_lab], cfg_labeled, dl[:n_lab])
                grad_wrt_network_logits(
                    p[n_lab:], log_p[n_lab:], p_tilde_log[n_lab:], cfg, dl[n_lab:])
                dl /= n_lab + n_unl
                backward(params, trace, state.grads, ws)
                sgd_nesterov_step(state, segment.lr)
                if cfg.lam > 0:
                    d2_update_pseudo_batch(store, ids[n_lab:], p[n_lab:], cfg, p_tilde[n_lab:])
                l_c, l_e, total = d2_loss(log_p, p_tilde_log, cfg)
                sums += [float(total.sum()), float(l_c.sum()), float(l_e.sum())]
            losses.append(tuple(sums / (n_batches * (n_lab + n_unl))))
    return losses


@pytest.mark.parametrize("loss,n_classes,open_world,labeled_full_loss", [
    ("forward_kl", 4, False, True), ("reverse_kl", 3, False, True),
    ("squared_l2", 9, False, True), ("forward_kl", 4, True, True),
    ("reverse_kl", 4, False, False), ("squared_l2", 3, True, False),
    ("forward_kl", 9, True, False),
])
def test_epoch_pseudo_step_equals_per_batch_steps(loss, n_classes, open_world, labeled_full_loss):
    centers = 4.0 * seeded_rng(n_classes).standard_normal((n_classes, 2))
    ds = split(gen_gaussians(n_classes, 2, 40, centers, 1.0, seeded_rng(1)), 3, 0.3,
               seeded_rng(1))
    if open_world:
        ood = gen_gaussians(1, 2, 60, np.zeros((1, 2)), 1.0, seeded_rng(9))
        ds = inject_ood(ds, ood, 40, seeded_rng(9))
    plan = tiny_plan(stage2_segments=[Stage2Segment(3, 0.01, False),
                                      Stage2Segment(2, 0.008, True)],
                     batch_labeled=5, batch_unlabeled=17,
                     open_world=open_world, discard_fraction=0.2)
    cfg = D2Config(alpha=0.1, beta=0.03, lam=300.0, classification_loss=loss,
                   labeled_full_loss=labeled_full_loss)
    params = init_params([2, 8, 3, n_classes], "tanh", seeded_rng(2))
    store = init_pseudo_labels(ds, params, cfg)
    want_params = params.copy()
    want_store = PseudoLabelStore(store.logits.copy(), store.frozen.copy())
    want = _per_batch_stage2(ds, want_params, want_store, plan, cfg, seeded_rng(3))
    params, store, records = stage2_d2(ds, params, store, plan, cfg, seeded_rng(3))
    assert params.flat.tobytes() == want_params.flat.tobytes()
    assert store.logits.tobytes() == want_store.logits.tobytes()
    assert [(r.loss_total, r.loss_c, r.loss_e) for r in records] == want


def test_stage2_takes_the_loss_once_per_epoch(monkeypatch, inline_scoring):
    # One d2_loss over the epoch's batches for the loss columns, and one
    # over the active pool for the metric columns, in each of the six
    # stage-2 epochs. Inline, since a spy cannot count the calls of a
    # forked evaluation worker.
    shapes = []

    def counting_loss(p_hat_log, p_tilde_log, cfg):
        shapes.append(p_hat_log.shape)
        return d2_loss(p_hat_log, p_tilde_log, cfg)

    monkeypatch.setattr(trainer, "d2_loss", counting_loss)  # the loss columns
    monkeypatch.setattr(pseudo, "d2_loss", counting_loss)  # residual_terms, for the metrics
    ds = tiny_dataset()
    run_r2d2(ds, [2, 8, 3, 4], "tanh", D2Config(lam=100.0), tiny_plan(), seed=0)
    assert sorted(shapes) == [(3, 26, 4)] * 6 + [(72, 4)] * 6


@pytest.mark.parametrize("open_world", [False, True])
def test_forked_scoring_equals_inline_scoring(monkeypatch, tmp_path, open_world):
    """The worker fills the very records inline scoring fills, and
    training reads none of them: params, store and metrics.csv are
    bit-equal."""
    ds = tiny_dataset()
    if open_world:
        ood = gen_gaussians(1, 2, 30, np.zeros((1, 2)), 1.0, seeded_rng(9))
        ds = inject_ood(ds, ood, 20, seeded_rng(9))
        assert np.any(ds.true_classes[ds.unlabeled_indices] == OOD_CLASS)
    plan = tiny_plan(open_world=open_world, discard_fraction=0.2)
    cfg = D2Config(alpha=0.1, beta=0.03, lam=100.0)
    accuracy, calls = trainer._accuracy, []  # the scoring calls made in this process
    monkeypatch.setattr(trainer, "_accuracy", lambda *args: calls.append(args) or accuracy(*args))
    runs = []
    for cpus in ({0, 1}, {0}):  # a forked worker, then inline
        monkeypatch.setattr(trainer.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        calls.clear()
        runs.append(run_r2d2(ds, [2, 8, 3, 4], "tanh", cfg, plan, seed=3) + (len(calls),))
    forked, inline = runs
    # Every epoch is scored, in the worker or here.
    assert forked[3] == 0 and inline[3] == len(inline[2]) == 20 + 6 + 5
    assert [repr(astuple(r)) for r in forked[2]] == [repr(astuple(r)) for r in inline[2]]
    assert forked[0].flat.tobytes() == inline[0].flat.tobytes()
    assert forked[1].logits.tobytes() == inline[1].logits.tobytes()
    write_metrics(forked[2], tmp_path / "forked.csv")
    write_metrics(inline[2], tmp_path / "inline.csv")
    assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "inline.csv").read_bytes()


@pytest.mark.parametrize("scoring", ["forked_scoring", "inline_scoring"])
def test_earliest_failure_wins_over_a_later_main_side_failure(monkeypatch, request, scoring):
    """A metric column the scoring finds non-finite at stage-2 epoch 2
    stops the run with that epoch's message, even when the slow worker
    replies only after the main process failed at epoch 3."""
    request.getfixturevalue(scoring)
    metrics, update = trainer._stage2_epoch_metrics, trainer.d2_update_pseudo_batch
    scored, stepped = [], []

    def nan_at_epoch_2(*args):
        scored.append(None)  # in the worker, its own copy of the list
        out = metrics(*args)
        if len(scored) == 3:
            time.sleep(0.5)
            out["t_abs_p95"] = math.nan
        return out

    def nan_step_at_epoch_3(store, ids, *args):
        stepped.append(None)
        update(store, ids, *args)
        if len(stepped) == 4:
            store.logits[ids[0, 0]] = np.nan

    monkeypatch.setattr(trainer, "_stage2_epoch_metrics", nan_at_epoch_2)
    monkeypatch.setattr(trainer, "d2_update_pseudo_batch", nan_step_at_epoch_3)
    with pytest.raises(NumericError, match=r"^non-finite t_abs_p95 at stage2 epoch 2: nan$"):
        run_r2d2(tiny_dataset(), [2, 8, 3, 4], "tanh", D2Config(lam=100.0), tiny_plan(), seed=0)
    # Inline the run stops at epoch 2; the worker's run failed at epoch 3 first.
    assert len(stepped) == (4 if scoring == "forked_scoring" else 3)


def _no_unlabeled_dataset():
    raw = gen_gaussians(4, 2, 5, CENTERS, 1.0, seeded_rng(0))
    ds = split(raw, 5, 0.0, seeded_rng(0))
    assert ds.unlabeled_indices.size == 0
    return ds


def _with_ood(ds):
    ood = gen_gaussians(1, 2, 30, np.zeros((1, 2)), 1.0, seeded_rng(9))
    return inject_ood(ds, ood, 20, seeded_rng(9))


SLOW_WORKER_RUNS = {
    "closed_world": (tiny_dataset, {}),
    "open_world": (lambda: _with_ood(tiny_dataset()), dict(open_world=True, discard_fraction=0.2)),
    "empty_active_pool": (tiny_dataset, dict(open_world=True, discard_fraction=0.99)),
    "no_unlabeled_rows": (_no_unlabeled_dataset, {}),
}


@pytest.mark.parametrize("make_dataset,plan_kw", SLOW_WORKER_RUNS.values(),
                         ids=SLOW_WORKER_RUNS.keys())
def test_two_slot_rings_under_a_slow_worker_equal_inline_scoring(
    monkeypatch, tmp_path, make_dataset, plan_kw
):
    """With two slots in each ring and a slow stage-2 scoring in the
    worker, score waits on the oldest reply for a free slot of either
    ring and reuses the slots, and records, params, store and
    metrics.csv still equal inline scoring's."""
    monkeypatch.setattr(trainer, "_RING_BYTES", 1)  # each ring holds its least, 2 slots
    metrics, slot = trainer._stage2_epoch_metrics, trainer._EpochScorer._slot
    exhausted, sizes, main = [], set(), os.getpid()

    def slow_metrics(*args):
        if os.getpid() != main:
            time.sleep(0.05)
        return metrics(*args)

    def watched_slot(self, ring):
        sizes.add(len(self.rings[ring].slots))
        if not self.rings[ring].free:
            exhausted.append(ring)
        return slot(self, ring)

    monkeypatch.setattr(trainer, "_stage2_epoch_metrics", slow_metrics)
    monkeypatch.setattr(trainer._EpochScorer, "_slot", watched_slot)
    ds = make_dataset()
    plan = tiny_plan(**plan_kw)
    cfg = D2Config(alpha=0.1, beta=0.03, lam=100.0)
    runs = []
    for cpus in ({0, 1}, {0}):  # a forked worker, then inline
        monkeypatch.setattr(trainer.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        runs.append(run_r2d2(ds, [2, 8, 3, 4], "tanh", cfg, plan, seed=3))
    forked, inline = runs
    assert sizes == {2} and set(exhausted) == {0, 1}
    assert [repr(astuple(r)) for r in forked[2]] == [repr(astuple(r)) for r in inline[2]]
    assert forked[0].flat.tobytes() == inline[0].flat.tobytes()
    assert forked[1].logits.tobytes() == inline[1].logits.tobytes()
    write_metrics(forked[2], tmp_path / "forked.csv")
    write_metrics(inline[2], tmp_path / "inline.csv")
    assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "inline.csv").read_bytes()


def test_each_epoch_is_one_score_message_of_ints(monkeypatch, forked_scoring):
    """The params and the pseudo-logits go through the shared rings: each
    epoch's score message holds slot numbers, the epoch and a row count,
    and no array."""
    start, sent = trainer._EpochScorer.start, []

    def spying_start(self, params):
        start(self, params)
        send = self.conn.send
        self.conn.send = lambda job: sent.append(job) or send(job)
        return self

    monkeypatch.setattr(trainer._EpochScorer, "start", spying_start)
    segments = [Stage2Segment(3, 0.01, False)] + [
        Stage2Segment(3, lr, True) for lr in (0.008, 0.006, 0.004)]
    plan = tiny_plan(stage2_segments=segments)
    records = run_r2d2(tiny_dataset(), [2, 64, 2, 4], "tanh", D2Config(lam=100.0), plan, seed=0)[2]
    scores = [job for job in sent if job[0] == "score"]
    assert len(scores) == len(records) == 20 + 12 + 5
    assert len(sent) - len(scores) == 1 + len(segments) + 1  # the rows of each stage and segment
    assert all(value is None or type(value) in (str, int) for job in scores for value in job)
    assert [job[2] for job in scores] == [None] * 20 + list(range(12)) + [None] * 5


def test_a_worker_that_keeps_up_reuses_the_same_slots(forked_scoring):
    """The most recently freed slot is taken first: when every reply is
    in before the next epoch, each epoch reuses slot 0 of each ring."""
    ds, cfg = tiny_dataset(), D2Config(lam=100.0)
    params = init_params([2, 8, 3, 4], "tanh", seeded_rng(0))
    store = init_pseudo_labels(ds, params, cfg)
    unl = ds.unlabeled_indices
    with trainer._EpochScorer(ds).start(params) as scorer:
        scorer.rows(unl, store.logits[unl].sum(axis=1), cfg)
        send, sent = scorer.conn.send, []
        scorer.conn.send = lambda job: sent.append(job) or send(job)
        for epoch in range(4):
            scorer.score(trainer.MetricsRecord("stage2", epoch, 0.01), params, epoch,
                         store.logits, unl)
            scorer._collect(None)
    assert [(job[1], job[3]) for job in sent] == [(0, 0)] * 4


def test_rings_hold_two_slots_or_more_within_their_byte_budget(forked_scoring):
    """The reference run's rings and an idx-sized run's (784 inputs,
    60,000 x 10 pseudo-logits) hold at least 2 slots, and more only
    within _RING_BYTES."""
    cfg = parse_config("")
    ds = build_dataset(cfg)
    params = init_params(cfg.model_sizes(), cfg.activation, seeded_rng(0))
    with trainer._EpochScorer(ds).start(params) as scorer:
        reference = [ring.slots.shape for ring in scorer.rings]
    assert reference == [(256, 330), (16, 1980 * 4)]
    idx_params = init_params([784, 64, 2, 10], "tanh", seeded_rng(0)).flat.size
    idx = [trainer._Ring(size).slots.shape for size in (idx_params, 60_000 * 10)]
    assert idx[1][0] == 2
    for slots, size in reference + idx:
        assert slots >= 2 and (slots == 2 or slots * size * 8 <= trainer._RING_BYTES)


@pytest.mark.parametrize("fails", [False, True])
def test_exit_unmaps_both_rings(monkeypatch, forked_scoring, fails):
    """Both mappings are gone once the scorer exits, after its block
    ended normally or by an exception."""
    maps, real = [], mmap.mmap

    def recording_mmap(*args):
        mapping = real(*args)
        maps.append(weakref.ref(mapping))
        return mapping

    monkeypatch.setattr(mmap, "mmap", recording_mmap)
    with pytest.raises(KeyError) if fails else contextlib.nullcontext():
        with trainer._EpochScorer(tiny_dataset()).start(
            init_params([2, 8, 3, 4], "tanh", seeded_rng(0))
        ) as scorer:
            if fails:
                raise KeyError("body")
    assert scorer.rings == () and not scorer.worker.is_alive()
    assert len(maps) == 2 and [ref() for ref in maps] == [None, None]


def _per_batch_supervised(features, params, plan, rng, ids, targets, batch, epochs, horizon,
                          lr0):
    """The loss columns of a cross-entropy stage as taken before they
    moved to the end of the epoch: each batch's CE and entropy, summed as
    it ran. Returns each epoch's (mean CE, mean entropy)."""
    state = OptimizerState(params, plan.momentum, plan.weight_decay)
    ws = Workspace(params, batch)
    rows = np.arange(batch)
    n_batches = ids.size // batch
    means = []
    for epoch in range(epochs):
        lr = cosine_lr(epoch, horizon, lr0)
        order = rng.permutation(ids.size)
        loss_sum = ent_sum = 0.0
        for b in range(n_batches):
            pick = order[b * batch:(b + 1) * batch]
            trace = forward(params, features[ids[pick]], ws)
            target = targets[pick]
            ce = -trace.log_prediction[rows, target]
            np.copyto(ws.dl, trace.prediction)
            ws.dl[rows, target] -= 1.0
            ws.dl /= batch
            backward(params, trace, state.grads, ws)
            sgd_nesterov_step(state, lr)
            loss_sum += float(ce.sum())
            ent_sum += float(entropy(trace.prediction, log_p=trace.log_prediction).sum())
        means.append((loss_sum / (n_batches * batch), ent_sum / (n_batches * batch)))
    return means


@pytest.mark.parametrize("n_classes", [3, 4, 9])
def test_supervised_loss_columns_equal_per_batch_sums(n_classes):
    centers = 4.0 * seeded_rng(n_classes).standard_normal((n_classes, 2))
    ds = split(gen_gaussians(n_classes, 2, 40, centers, 1.0, seeded_rng(1)), 3, 0.3,
               seeded_rng(1))
    plan = tiny_plan(stage1_epochs=4, stage1_horizon=4, stage3_epochs=3, stage3_horizon=3,
                     batch_labeled=2, batch_unlabeled=17)
    lab, unl = ds.labeled_indices, ds.unlabeled_indices
    params = init_params([2, 8, 3, n_classes], "tanh", seeded_rng(2))
    want_params = params.copy()
    want = _per_batch_supervised(ds.features, want_params, plan, seeded_rng(3), lab,
                                 ds.true_classes[lab], 2, 4, 4, plan.stage1_lr)
    _, records = stage1_supervised(ds, params, plan, seeded_rng(3))
    assert lab.size // 2 >= 4
    assert [(r.loss_total, r.loss_c, r.loss_e, r.mean_h_pred) for r in records] == [
        (ce, ce, h, h) for ce, h in want]
    assert params.flat.tobytes() == want_params.flat.tobytes()

    store = init_pseudo_labels(ds, params, D2Config())
    ids = np.concatenate([lab, unl])
    targets = np.concatenate([ds.true_classes[lab], np.argmax(store.logits[unl], axis=1)])
    assert ids.size // 19 >= 4
    want_params = params.copy()
    want = _per_batch_supervised(ds.features, want_params, plan, seeded_rng(4), ids, targets,
                                 19, 3, 3, plan.stage3_lr)
    _, records = stage3_finetune(ds, params, store, plan, seeded_rng(4))
    assert [(r.loss_total, r.loss_c, r.loss_e, r.mean_h_pred) for r in records] == [
        (ce, ce, h, h) for ce, h in want]
    assert params.flat.tobytes() == want_params.flat.tobytes()


def _old_convergence_residual(p_hat_log, p_tilde_log, total, cfg):
    """The residual with np.argmax and a fancy-index gather."""
    n = np.argmax(p_hat_log, axis=-1)
    rows = np.arange(p_hat_log.shape[0])
    return (cfg.alpha - cfg.beta) * p_hat_log[rows, n] - cfg.alpha * p_tilde_log[rows, n] - total


@pytest.mark.parametrize("n_classes", [1, 2, 4, 7, 8, 9])
def test_convergence_residual_bit_equal_to_argmax_gather(n_classes):
    rng = seeded_rng(n_classes)
    p_hat_log = softmax_pair(rng.standard_normal((300, n_classes)) * 5.0)[1]
    p_tilde_log = softmax_pair(rng.standard_normal((300, n_classes)) * 5.0)[1]
    total = rng.standard_normal(300)
    # Ties, and NaNs first, last, after and before a tie, in a few rows.
    p_hat_log[:10] = np.round(p_hat_log[:10])
    p_hat_log[10, -1] = np.nan
    p_hat_log[11, 0] = np.nan
    p_hat_log[12, :] = np.nan
    p_hat_log[13, n_classes // 2] = np.nan
    p_tilde_log[14, :] = np.nan
    cfg = D2Config()
    want = _old_convergence_residual(p_hat_log, p_tilde_log, total, cfg)
    for hat, tilde in ((p_hat_log, p_tilde_log), (p_hat_log.copy(), p_tilde_log.copy())):
        got = convergence_residual(hat, tilde, total, cfg)
        assert got.tobytes() == want.tobytes()


def _plan_error(**kw):
    with pytest.raises(ConfigurationError, match="horizon"):
        tiny_plan(**kw)


def test_schedule_plan_rejects_horizons_the_epochs_outrun():
    _plan_error(stage1_epochs=5, stage1_horizon=2)
    _plan_error(stage1_epochs=5, stage1_horizon=0)
    _plan_error(stage1_epochs=1, stage1_horizon=0)
    _plan_error(stage3_epochs=5, stage3_horizon=3)
    _plan_error(stage3_epochs=2, stage3_horizon=0)
    # The last epoch may sit on the horizon; a stage that does not run
    # takes any horizon.
    tiny_plan(stage1_epochs=5, stage1_horizon=4, stage3_epochs=1, stage3_horizon=1)
    tiny_plan(stage1_epochs=0, stage1_horizon=0, stage3_epochs=0, stage3_horizon=-3)


@pytest.mark.parametrize("stage", ["stage1", "stage2", "stage3"])
def test_non_finite_params_after_a_stage_abort(stage):
    # Only the named stage steps (the others have lr 0), and its step
    # overflows through the weight decay. One batch per epoch and one
    # epoch, so the overflowing step is the stage's last and no loss
    # sees it.
    ds = tiny_dataset()
    lrs = {"stage1": 0.0, "stage2": 0.0, "stage3": 0.0, stage: 1e305}
    plan = tiny_plan(stage1_epochs=1, stage1_horizon=1, stage1_lr=lrs["stage1"],
                     stage2_segments=[Stage2Segment(1, lrs["stage2"], False)],
                     stage3_epochs=1, stage3_horizon=1, stage3_lr=lrs["stage3"],
                     weight_decay=1e10, batch_labeled=ds.labeled_indices.size,
                     batch_unlabeled=ds.unlabeled_indices.size)
    with pytest.raises(NumericError, match=f"non-finite params at the end of {stage}"):
        run_r2d2(ds, [2, 8, 3, 4], "tanh", D2Config(), plan, seed=0)
