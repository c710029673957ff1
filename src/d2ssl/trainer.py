"""Three-stage training pipeline with Nesterov SGD and scheduled
repredictions.

Stage 1 trains the network on labeled data only with cross entropy and a
cosine learning-rate schedule. Stage 2 jointly optimizes the network and
the pseudo-logits in constant-lr segments, optionally overwriting the
pseudo-logits with fresh predictions at segment starts. Stage 3
finetunes on hard arg-max pseudo-labels with cross entropy.

Pseudo-logits are touched only by their own plain gradient step and by
reprediction; the optimizer, momentum, and weight decay never see them.
Each stage binds an OptimizerState to the network's ModelParams, and
the Nesterov step updates their flat buffer in place.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import OOD_CLASS, SplitDataset
from .errors import ConfigurationError, NumericError, ScheduleError
from .model import ModelParams, Workspace, backward, forward, forward_logits, init_params
from .numerics import entropy, log_softmax, row_sums, seeded_rng, softmax_pair
from .pseudo import (
    D2Config,
    PseudoLabelStore,
    d2_loss,
    d2_update_pseudo_batch,
    grad_wrt_network_logits,
    init_pseudo_labels,
    repredict,
    convergence_residual,
)

METRICS_HEADER = (
    "stage,epoch,lr,loss_total,loss_c,loss_e,acc_labeled,acc_test,acc_pseudo,"
    "mean_H_pseudo,mean_H_pred,t_abs_p50,t_abs_p95,sum_drift_max"
)


@dataclass(frozen=True, eq=False)
class OptimizerState:
    """Nesterov SGD bound to params: the gradient the step reads
    (params.zeros(), so backward(..., out=state.grads) writes each
    batch's gradient straight into its flat buffer), the momentum as a
    flat buffer of the same layout, and the step's two scratch vectors.
    Frozen like ModelParams, so none of them can be rebound."""
    params: ModelParams
    momentum: float
    weight_decay: float
    grads: ModelParams = field(init=False, repr=False)
    velocity: np.ndarray = field(init=False, repr=False)
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        flat = self.params.flat
        set_field = object.__setattr__
        set_field(self, "grads", self.params.zeros())
        set_field(self, "velocity", np.zeros_like(flat))
        set_field(self, "scratch", (np.empty_like(flat), np.empty_like(flat)))


@dataclass
class Stage2Segment:
    epochs: int
    lr: float
    repredict_at_start: bool


@dataclass
class SchedulePlan:
    stage1_epochs: int = 200
    stage1_lr: float = 0.05
    stage1_horizon: int = 200
    stage2_segments: list[Stage2Segment] = field(default_factory=lambda: [
        Stage2Segment(50, 0.01, False),
        Stage2Segment(50, 0.008, True),
        Stage2Segment(50, 0.006, True),
        Stage2Segment(50, 0.004, True),
    ])
    stage3_epochs: int = 100
    stage3_lr: float = 0.01
    stage3_horizon: int = 100
    batch_labeled: int = 20
    batch_unlabeled: int = 100
    momentum: float = 0.9
    weight_decay: float = 2e-4
    open_world: bool = False
    discard_fraction: float = 0.1

    def __post_init__(self):
        if self.stage1_epochs < 0 or self.stage3_epochs < 0:
            raise ConfigurationError("epoch counts must be non-negative")
        # cosine_lr takes steps 0..epochs-1 of the horizon. A stage that
        # does not run keeps any horizon, so old resolved configs replay.
        for stage, epochs, horizon in (
            ("stage1", self.stage1_epochs, self.stage1_horizon),
            ("stage3", self.stage3_epochs, self.stage3_horizon),
        ):
            if epochs > 0 and not max(1, epochs - 1) <= horizon:
                raise ConfigurationError(
                    f"{stage}_horizon must be at least 1 and at least "
                    f"{stage}_epochs - 1 = {epochs - 1}, got {horizon}"
                )
        if any(s.epochs < 0 for s in self.stage2_segments):
            raise ConfigurationError("segment epoch counts must be non-negative")
        if not 0.0 <= self.discard_fraction < 1.0:
            raise ConfigurationError("discard_fraction must be in [0, 1)")
        if self.batch_labeled < 1 or self.batch_unlabeled < 1:
            raise ConfigurationError("batch sizes must be at least 1")
        lrs = [self.stage1_lr, *(s.lr for s in self.stage2_segments), self.stage3_lr]
        if not all(0.0 <= lr < math.inf for lr in lrs):
            raise ConfigurationError(f"learning rates must be finite and non-negative: {lrs}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigurationError("weight_decay must be finite and non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError("momentum must be in [0, 1)")


@dataclass
class MetricsRecord:
    """One row of metrics.csv; a column the stage does not measure is NaN."""
    stage: str
    epoch: int
    lr: float
    loss_total: float = math.nan
    loss_c: float = math.nan
    loss_e: float = math.nan
    acc_labeled: float = math.nan
    acc_test: float = math.nan
    acc_pseudo: float = math.nan
    mean_h_pseudo: float = math.nan
    mean_h_pred: float = math.nan
    t_abs_p50: float = math.nan
    t_abs_p95: float = math.nan
    sum_drift_max: float = math.nan

    def row(self) -> list[str]:
        vals = [
            self.lr, self.loss_total, self.loss_c, self.loss_e,
            self.acc_labeled, self.acc_test, self.acc_pseudo,
            self.mean_h_pseudo, self.mean_h_pred,
            self.t_abs_p50, self.t_abs_p95, self.sum_drift_max,
        ]
        return [self.stage, str(self.epoch)] + [f"{v:.9g}" for v in vals]


def write_metrics(records: list[MetricsRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(METRICS_HEADER + "\n")
        w = csv.writer(fh)
        for rec in records:
            w.writerow(rec.row())


def sgd_nesterov_step(state: OptimizerState, lr: float) -> None:
    """In-place Nesterov update of state.params from state.grads; weight
    decay is folded into the gradient.

    The update runs once over the flat parameter, gradient and momentum
    vectors, through the state's scratch; element by element it is the
    per-tensor update eff = g + wd*t; buf = mu*buf + eff;
    t -= lr*(eff + mu*buf). Every tensor of the params is a view of
    their flat buffer, so the update reaches each of them.
    """
    flat = state.params.flat
    mu = state.momentum
    buf = state.velocity
    eff, step = state.scratch
    np.multiply(flat, state.weight_decay, out=eff)
    eff += state.grads.flat
    buf *= mu
    buf += eff
    np.multiply(buf, mu, out=step)
    step += eff
    step *= lr
    flat -= step


def cosine_lr(t: int, horizon: int, lr0: float) -> float:
    if horizon <= 0:
        raise ScheduleError("cosine horizon must be positive")
    if t < 0 or t > horizon:
        raise ScheduleError(f"step {t} outside horizon [0, {horizon}]")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * t / horizon))


def _check_loss(loss_sum: float, stage: str, epoch: int, batch: int) -> None:
    """Stop at the batch whose loss made the epoch's running loss sum
    non-finite. A non-finite addend keeps the sum non-finite, so this
    also covers the epoch mean."""
    if not math.isfinite(loss_sum):
        raise NumericError(f"non-finite loss at {stage} epoch {epoch} batch {batch}: {loss_sum}")


@dataclass
class _EvalRows:
    """The rows scored after every epoch, gathered once per stage or
    segment: the labeled and the test rows of a known class, then the
    active unlabeled rows."""
    features: np.ndarray
    truth: np.ndarray  # true classes of the labeled and test rows
    n_labeled: int


def _eval_rows(dataset: SplitDataset, active_unl: np.ndarray | None = None) -> _EvalRows:
    lab, test = (
        ids[dataset.true_classes[ids] != OOD_CLASS]
        for ids in (dataset.labeled_indices, dataset.test_indices)
    )
    scored = np.concatenate([lab, test])
    ids = scored if active_unl is None else np.concatenate([scored, active_unl])
    return _EvalRows(dataset.features[ids], dataset.true_classes[scored], lab.size)


def _accuracy(params: ModelParams, rows: _EvalRows) -> tuple[float, float, np.ndarray]:
    """Labeled and test accuracy from one logits-only forward over all
    evaluation rows; also returns the logits of the unlabeled rows."""
    logits = forward_logits(params, rows.features)
    n_scored = rows.truth.size
    hit = np.argmax(logits[:n_scored], axis=1) == rows.truth
    n_lab = rows.n_labeled
    acc_labeled = float(np.mean(hit[:n_lab])) if n_lab else float("nan")
    acc_test = float(np.mean(hit[n_lab:])) if n_scored > n_lab else float("nan")
    return acc_labeled, acc_test, logits[n_scored:]


def _known_unlabeled(dataset: SplitDataset) -> tuple[np.ndarray, np.ndarray]:
    """The unlabeled rows of a known class and their true classes."""
    unl = dataset.unlabeled_indices
    valid = unl[dataset.true_classes[unl] != OOD_CLASS]
    return valid, dataset.true_classes[valid]


def _pseudo_accuracy(store: PseudoLabelStore, valid: np.ndarray, truth: np.ndarray) -> float:
    """Arg-max pseudo-label accuracy over _known_unlabeled's rows."""
    if valid.size == 0:
        return float("nan")
    pred = np.argmax(np.take(store.logits, valid, axis=0), axis=1)
    return float(np.mean(pred == truth))


def _check_params(params: ModelParams, stage: str) -> None:
    """Stop a stage whose last steps left a non-finite parameter; the
    per-batch loss check cannot see the step after the last batch."""
    if not np.isfinite(params.flat).all():
        raise NumericError(f"non-finite params at the end of {stage}")


def _supervised_stage(
    stage: str,
    dataset: SplitDataset,
    params: ModelParams,
    plan: SchedulePlan,
    rng: np.random.Generator,
    ids: np.ndarray,
    targets: np.ndarray,
    batch: int,
    epochs: int,
    horizon: int,
    lr0: float,
    **constant: float,
) -> list[MetricsRecord]:
    """The epochs of a cross-entropy stage: SGD over the full batches of
    batch rows of ids, with the given targets, in a fresh random order
    each epoch, at the cosine learning rate of horizon and lr0. Each
    epoch's record has its mean CE and mean prediction entropy; constant
    holds the columns the stage keeps fixed. A numeric abort names the
    stage, epoch and batch."""
    state = OptimizerState(params, plan.momentum, plan.weight_decay)
    ws = Workspace(params, batch)
    feats = dataset.features[ids]
    rows = _eval_rows(dataset)
    batch_rows = np.arange(batch)
    dl = ws.dl
    records = []
    for epoch in range(epochs):
        lr = cosine_lr(epoch, horizon, lr0)
        n_batches = ids.size // batch
        count = n_batches * batch
        order = rng.permutation(ids.size)
        epoch_feats, epoch_targets = np.take(feats, order, axis=0), np.take(targets, order)
        loss_sum = ent_sum = 0.0
        for b in range(n_batches):
            rows_b = slice(b * batch, (b + 1) * batch)
            trace = forward(params, epoch_feats[rows_b], ws)
            target = epoch_targets[rows_b]
            ce = -trace.log_prediction[batch_rows, target]
            np.copyto(dl, trace.prediction)
            dl[batch_rows, target] -= 1.0
            dl /= batch
            backward(params, trace, dl, state.grads, ws)
            sgd_nesterov_step(state, lr)
            loss_sum += float(ce.sum())
            _check_loss(loss_sum, stage, epoch, b)
            ent_sum += float(entropy(trace.prediction, log_p=trace.log_prediction).sum())
        ce, h_pred = loss_sum / count, ent_sum / count
        acc_labeled, acc_test, _ = _accuracy(params, rows)
        records.append(MetricsRecord(
            stage, epoch, lr,
            loss_total=ce, loss_c=ce, loss_e=h_pred,
            acc_labeled=acc_labeled, acc_test=acc_test,
            mean_h_pred=h_pred, **constant,
        ))
    _check_params(params, stage)
    return records


def stage1_supervised(
    dataset: SplitDataset,
    params: ModelParams,
    plan: SchedulePlan,
    rng: np.random.Generator,
) -> tuple[ModelParams, list[MetricsRecord]]:
    lab = dataset.labeled_indices
    if lab.size == 0:
        raise ConfigurationError("stage 1 requires at least one labeled sample")
    records = _supervised_stage(
        "stage1", dataset, params, plan, rng, lab, dataset.true_classes[lab],
        min(plan.batch_labeled, lab.size),
        plan.stage1_epochs, plan.stage1_horizon, plan.stage1_lr,
    )
    return params, records


def open_world_filter(
    store: PseudoLabelStore, dataset: SplitDataset, discard_fraction: float
) -> np.ndarray:
    """Active unlabeled indices after discarding the highest-entropy
    fraction of the pool (ties discarded at the lowest sample id)."""
    if not 0.0 <= discard_fraction < 1.0:
        raise ConfigurationError("discard_fraction must be in [0, 1)")
    unl = dataset.unlabeled_indices
    if discard_fraction == 0.0 or unl.size == 0:
        return unl.copy()
    ent = entropy(store.probs(unl))
    n_drop = math.ceil(discard_fraction * unl.size)
    # Sort by descending entropy, then ascending id; the first n_drop go.
    order = np.lexsort((unl, -ent))
    keep = np.sort(unl[order[n_drop:]])
    return keep


def _check_unlabeled_batch(dataset: SplitDataset, plan: SchedulePlan) -> None:
    """Stage 2's unlabeled batch against its active pool: the unlabeled
    rows, less the ceil(discard_fraction x count) open_world_filter drops
    in an open world. An empty pool trains no stage-2 batch at all."""
    count = dataset.unlabeled_indices.size
    active = count - math.ceil(plan.discard_fraction * count) if plan.open_world else count
    if plan.batch_unlabeled > active > 0:
        raise ConfigurationError(
            f"unlabeled batch size {plan.batch_unlabeled} exceeds active pool {active}"
        )


def _draw_labeled(lab, order, cursor, need, rng):
    """The next need labeled ids from order, starting at cursor; each
    time order runs out it is replaced by a fresh permutation of lab.
    Returns the ids and the new (order, cursor)."""
    parts = []
    while need > 0:
        if cursor >= order.size:
            order = rng.permutation(lab)
            cursor = 0
        take = min(need, order.size - cursor)
        parts.append(order[cursor:cursor + take])
        cursor += take
        need -= take
    ids = np.concatenate(parts) if parts else np.array([], dtype=np.int64)
    return ids, order, cursor


def _stage2_epoch_metrics(store, cfg, active_unl, unl_logits, drift_base) -> dict:
    """Full-pool diagnostics computed once per epoch, from the network
    logits of the active unlabeled rows."""
    out = {}
    if active_unl.size:
        p_hat, p_hat_log = softmax_pair(unl_logits)
        pseudo_logits = np.take(store.logits, active_unl, axis=0)
        p_tilde, p_tilde_log = softmax_pair(pseudo_logits)
        _, _, total = d2_loss(p_hat_log, p_tilde_log, cfg)
        t = convergence_residual(p_hat_log, p_tilde_log, total, cfg)
        p50, p95 = np.percentile(np.abs(t), [50, 95])
        out["t_abs_p50"], out["t_abs_p95"] = float(p50), float(p95)
        out["mean_h_pred"] = float(np.mean(entropy(p_hat, log_p=p_hat_log)))
        out["mean_h_pseudo"] = float(np.mean(entropy(p_tilde)))
        drift = np.abs(row_sums(pseudo_logits) - drift_base)
        out["sum_drift_max"] = float(drift.max())
    return out


def _labeled_config(cfg: D2Config) -> D2Config:
    """The loss of labeled rows in joint training: the full loss, or
    only the matching term when cfg.labeled_full_loss is false."""
    return cfg if cfg.labeled_full_loss else replace(cfg, beta=0.0)


def _network_logit_grad(p, log_p, p_tilde_log, n_lab, cfg, cfg_labeled, out) -> np.ndarray:
    """Loss gradient w.r.t. the network logits of a batch whose first
    n_lab rows are labeled, written into out."""
    if cfg_labeled is cfg:
        return grad_wrt_network_logits(p, log_p, p_tilde_log, cfg, out=out)
    if n_lab:
        grad_wrt_network_logits(
            p[:n_lab], log_p[:n_lab], p_tilde_log[:n_lab], cfg_labeled, out=out[:n_lab],
        )
    grad_wrt_network_logits(
        p[n_lab:], log_p[n_lab:], p_tilde_log[n_lab:], cfg, out=out[n_lab:],
    )
    return out


def stage2_d2(
    dataset: SplitDataset,
    params: ModelParams,
    store: PseudoLabelStore,
    plan: SchedulePlan,
    cfg: D2Config,
    rng: np.random.Generator,
) -> tuple[ModelParams, PseudoLabelStore, list[MetricsRecord]]:
    _check_unlabeled_batch(dataset, plan)
    lab = dataset.labeled_indices
    unl = dataset.unlabeled_indices
    state = OptimizerState(params, plan.momentum, plan.weight_decay)
    records = []
    epoch_global = 0
    cfg_labeled = _labeled_config(cfg)
    known_unl = _known_unlabeled(dataset)
    n_lab = plan.batch_labeled if lab.size else 0
    n_unl = plan.batch_unlabeled
    ws = Workspace(params, n_lab + n_unl)
    dl = ws.dl
    for segment in plan.stage2_segments:
        if segment.repredict_at_start:
            repredict(store, params, dataset)
        active_unl = (
            open_world_filter(store, dataset, plan.discard_fraction)
            if plan.open_world else unl
        )
        drift_base = row_sums(store.logits[active_unl])
        rows = _eval_rows(dataset, active_unl)
        lab_order = rng.permutation(lab) if lab.size else lab
        lab_cursor = 0
        n_batches = active_unl.size // n_unl
        # Each batch's unlabeled predictions, for the epoch's one
        # pseudo-logit step.
        predictions = np.empty((n_batches, n_unl, store.logits.shape[1]))
        for _ in range(segment.epochs):
            unl_order = rng.permutation(active_unl)
            l_ids, lab_order, lab_cursor = _draw_labeled(
                lab, lab_order, lab_cursor, n_batches * n_lab, rng
            )
            ids = np.concatenate([
                l_ids.reshape(n_batches, n_lab),
                unl_order[:n_batches * n_unl].reshape(n_batches, n_unl),
            ], axis=1)
            # Gathered and softmaxed once for the epoch, and stepped once
            # at its end. Both are exact for every batch: an active
            # unlabeled row is in at most one batch per epoch, nothing
            # reads it before the epoch ends, and labeled rows are frozen.
            # (np.take copies the rows fancy indexing would, several times
            # faster.)
            feats = np.take(dataset.features, ids, axis=0)
            if n_batches:
                p_tildes, p_tilde_logs = softmax_pair(np.take(store.logits, ids, axis=0))
            sum_c = sum_e = sum_total = 0.0
            for b in range(n_batches):
                trace = forward(params, feats[b], ws)
                p_tilde_log = p_tilde_logs[b]
                _network_logit_grad(
                    trace.prediction, trace.log_prediction, p_tilde_log,
                    n_lab, cfg, cfg_labeled, dl,
                )
                dl /= n_lab + n_unl
                backward(params, trace, dl, state.grads, ws)
                sgd_nesterov_step(state, segment.lr)
                predictions[b] = trace.prediction[n_lab:]
                # Not trace.prediction: softmax is not bit-equal to exp of
                # log_softmax, and the loss columns are kept bit-stable.
                l_c, l_e, total = d2_loss(trace.log_prediction, p_tilde_log, cfg)
                sum_c += float(l_c.sum())
                sum_e += float(l_e.sum())
                sum_total += float(total.sum())
                _check_loss(sum_total, "stage2", epoch_global, b)
            if cfg.lam > 0 and n_batches:
                d2_update_pseudo_batch(
                    store, ids[:, n_lab:], predictions, cfg, p_tildes[:, n_lab:],
                )
            n_seen = ids.size
            mean_c, mean_e, mean_total = (
                (sum_c / n_seen, sum_e / n_seen, sum_total / n_seen)
                if n_seen else (float("nan"),) * 3
            )
            acc_labeled, acc_test, unl_logits = _accuracy(params, rows)
            extra = _stage2_epoch_metrics(
                store, cfg, active_unl, unl_logits, drift_base
            )
            records.append(MetricsRecord(
                "stage2", epoch_global, segment.lr,
                loss_total=mean_total, loss_c=mean_c, loss_e=mean_e,
                acc_labeled=acc_labeled, acc_test=acc_test,
                acc_pseudo=_pseudo_accuracy(store, *known_unl),
                **extra,
            ))
            epoch_global += 1
    _check_params(params, "stage2")
    return params, store, records


def stage3_finetune(
    dataset: SplitDataset,
    params: ModelParams,
    store: PseudoLabelStore,
    plan: SchedulePlan,
    rng: np.random.Generator,
    unl: np.ndarray,
) -> tuple[ModelParams, list[MetricsRecord]]:
    """Cross entropy on the labeled rows and the unlabeled rows unl, with
    the arg-max pseudo-labels of unl as their targets."""
    lab = dataset.labeled_indices
    ids = np.concatenate([lab, unl])
    targets = np.empty(ids.size, dtype=np.int64)
    targets[:lab.size] = dataset.true_classes[lab]
    targets[lab.size:] = np.argmax(store.logits[unl], axis=1)
    # Stage 3 never changes the store, so its two columns are constant.
    records = _supervised_stage(
        "stage3", dataset, params, plan, rng, ids, targets,
        min(plan.batch_labeled + plan.batch_unlabeled, ids.size),
        plan.stage3_epochs, plan.stage3_horizon, plan.stage3_lr,
        acc_pseudo=_pseudo_accuracy(store, *_known_unlabeled(dataset)),
        mean_h_pseudo=float(np.mean(entropy(store.probs(unl)))) if unl.size else math.nan,
    )
    return params, records


def head_only_d2(
    dataset: SplitDataset,
    params: ModelParams,
    store: PseudoLabelStore,
    cfg: D2Config,
    steps: int,
    lr: float,
) -> tuple[ModelParams, PseudoLabelStore, np.ndarray]:
    """Joint full-batch optimization of the head weights and the
    pseudo-logits with the backbone frozen.

    Plain gradient descent on the head, the usual scaled gradient step on
    the pseudo-logits. Returns the updated params, the store, and the
    per-unlabeled-sample residual after the final step. This is the
    controlled setting in which the per-sample residual is driven to
    zero, so the converged population can be audited for the flatness
    and exponential-link properties.
    """
    lab = dataset.labeled_indices
    unl = dataset.unlabeled_indices
    ids = np.concatenate([lab, unl])
    n_lab = lab.size
    feats = forward(params, dataset.features[ids]).feature
    head = params.head_w.copy()
    cfg_labeled = _labeled_config(cfg)
    dl = np.empty((ids.size, head.shape[1]))  # C order for the product, as in backward
    for _ in range(steps):
        p, log_p = softmax_pair(feats @ head)
        p_tilde, p_tilde_log = softmax_pair(np.take(store.logits, ids, axis=0))
        _network_logit_grad(p, log_p, p_tilde_log, n_lab, cfg, cfg_labeled, dl)
        dl /= ids.size
        head -= lr * (feats.T @ dl)
        if cfg.lam > 0 and unl.size:
            d2_update_pseudo_batch(store, unl, p[n_lab:], cfg, p_tilde[n_lab:])
    out = params.copy()
    out.head_w[...] = head
    log_p = log_softmax(feats[n_lab:] @ head)
    p_tilde_log = store.log_probs(unl)
    _, _, total = d2_loss(log_p, p_tilde_log, cfg)
    t = convergence_residual(log_p, p_tilde_log, total, cfg)
    if not np.isfinite(t).all():
        raise NumericError("non-finite head-only residual")
    return out, store, t


def run_r2d2(
    dataset: SplitDataset,
    layer_sizes: list[int],
    activation: str,
    cfg: D2Config,
    plan: SchedulePlan,
    seed: int,
) -> tuple[ModelParams, PseudoLabelStore, list[MetricsRecord]]:
    """Full pipeline: supervised warm-up, pseudo-label initialization,
    joint segments, hard-label finetune. Deterministic given the seed."""
    _check_unlabeled_batch(dataset, plan)
    rng = seeded_rng(seed)
    params = init_params(layer_sizes, activation, rng)
    params, m1 = stage1_supervised(dataset, params, plan, rng)
    store = init_pseudo_labels(dataset, params, cfg)
    params, store, m2 = stage2_d2(dataset, params, store, plan, cfg, rng)
    active = (
        open_world_filter(store, dataset, plan.discard_fraction)
        if plan.open_world else dataset.unlabeled_indices
    )
    params, m3 = stage3_finetune(dataset, params, store, plan, rng, active)
    return params, store, m1 + m2 + m3


def run_supervised_baseline(
    dataset: SplitDataset,
    layer_sizes: list[int],
    activation: str,
    plan: SchedulePlan,
    seed: int,
) -> tuple[ModelParams, list[MetricsRecord]]:
    """Stage 1 only: the labeled-data-only reference point."""
    rng = seeded_rng(seed)
    params = init_params(layer_sizes, activation, rng)
    return stage1_supervised(dataset, params, plan, rng)
