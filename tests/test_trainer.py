"""Scheduler, optimizer, filtering, and pipeline behavior tests."""

import numpy as np
import pytest

from d2ssl import trainer
from d2ssl.data import OOD_CLASS, gen_gaussians, inject_ood, split
from d2ssl.errors import ConfigurationError, DimensionError, NumericError, ScheduleError
from d2ssl.model import Workspace, backward, forward, init_params
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
    cosine_lr,
    head_only_d2,
    open_world_filter,
    run_r2d2,
    run_supervised_baseline,
    sgd_nesterov_step,
    stage1_supervised,
    stage2_d2,
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
    with pytest.raises(ScheduleError):
        cosine_lr(101, 100, 0.1)
    with pytest.raises(ScheduleError):
        cosine_lr(-1, 100, 0.1)
    with pytest.raises(ScheduleError):
        cosine_lr(0, 0, 0.1)


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
    keep = open_world_filter(store, ds, 0.1)
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
        open_world_filter(store, ds, 0.0), ds.unlabeled_indices
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


def test_run_r2d2_deterministic():
    ds = tiny_dataset()
    plan = tiny_plan()
    cfg = D2Config(alpha=0.1, beta=0.03, lam=100.0)
    out_a = run_r2d2(ds, [2, 8, 3, 4], "tanh", cfg, plan, seed=4)
    out_b = run_r2d2(ds, [2, 8, 3, 4], "tanh", cfg, plan, seed=4)
    rows_a = [r.row() for r in out_a[2]]
    rows_b = [r.row() for r in out_b[2]]
    assert rows_a == rows_b
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
    assert t.shape == (ds.unlabeled_indices.size,)


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
    active = (open_world_filter(store, ds, plan.discard_fraction)
              if plan.open_world else ds.unlabeled_indices)
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
    with pytest.raises(NumericError, match=r"non-finite loss at stage2 epoch 0 batch 1: nan"):
        stage2_d2(ds, params, store, plan, cfg, seeded_rng(1))


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
        backward(params, trace, ws.dl, state.grads, ws)
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
        backward(params.copy(), trace, ws.dl, ws=ws)


def _per_batch_stage2(ds, params, store, plan, cfg, rng):
    """Stage 2 as run before the pseudo-logit step moved to the end of
    the epoch: allocating forward and backward calls, and one pseudo-logit
    step per batch on that batch's rows. Returns the per-epoch mean
    losses (total, matching, entropy)."""
    lab, unl = ds.labeled_indices, ds.unlabeled_indices
    state = OptimizerState(params, plan.momentum, plan.weight_decay)
    cfg_labeled = _labeled_config(cfg)
    n_lab = plan.batch_labeled if lab.size else 0
    n_unl = plan.batch_unlabeled
    losses = []
    for segment in plan.stage2_segments:
        if segment.repredict_at_start:
            repredict(store, params, ds)
        active = open_world_filter(store, ds, plan.discard_fraction) if plan.open_world else unl
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
                trace = forward(params, ds.features[ids])
                p_tilde, p_tilde_log = softmax_pair(store.logits[ids])
                p, log_p = trace.prediction, trace.log_prediction
                dl = np.empty_like(p)
                dl[:n_lab] = grad_wrt_network_logits(
                    p[:n_lab], log_p[:n_lab], p_tilde_log[:n_lab], cfg_labeled)
                dl[n_lab:] = grad_wrt_network_logits(
                    p[n_lab:], log_p[n_lab:], p_tilde_log[n_lab:], cfg)
                dl /= n_lab + n_unl
                backward(params, trace, dl, out=state.grads)
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
    want_params, want_store = params.copy(), store.copy()
    want = _per_batch_stage2(ds, want_params, want_store, plan, cfg, seeded_rng(3))
    params, store, records = stage2_d2(ds, params, store, plan, cfg, seeded_rng(3))
    assert params.flat.tobytes() == want_params.flat.tobytes()
    assert store.logits.tobytes() == want_store.logits.tobytes()
    assert [(r.loss_total, r.loss_c, r.loss_e) for r in records] == want


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
