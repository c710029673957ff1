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

import math
import os
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import takewhile

import numpy as np

from .data import OOD_CLASS, SplitDataset, write_csv_columns
from .errors import ConfigurationError, NumericError, WorkerError
from .model import (
    ModelParams, Workspace, backward, forward, forward_features, forward_logits, init_params,
)
from .numerics import entropy, seeded_rng, softmax_pair
from .pseudo import (
    D2Config,
    PseudoLabelStore,
    d2_loss,
    d2_update_pseudo_batch,
    grad_wrt_network_logits,
    init_pseudo_labels,
    repredict,
    residual_terms,
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


def write_metrics(records: list[MetricsRecord], path) -> None:
    """metrics.csv: an LF header line over CRLF rows, floats as %.9g."""
    rows = [(r.stage, r.epoch, r.lr, r.loss_total, r.loss_c, r.loss_e, r.acc_labeled,
             r.acc_test, r.acc_pseudo, r.mean_h_pseudo, r.mean_h_pred, r.t_abs_p50,
             r.t_abs_p95, r.sum_drift_max) for r in records]
    write_csv_columns(path, METRICS_HEADER.split(","), ["%s", "%d"] + ["%.9g"] * 12, len(rows),
                      [np.array(c) for c in zip(*rows)], header_end="\n")


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
    """The learning rate at step t of 0..horizon."""
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * t / horizon))


def _epoch_loss_sums(
    stage: str, epoch: int, checked: np.ndarray, *others: np.ndarray
) -> list[float]:
    """The epoch sums of per-row losses laid out (batches, rows), checked
    first: each batch's row sum, added batch by batch into Python floats,
    bit-equal to summing each batch as it ran. A numeric abort names the
    first batch whose running sum of checked turned non-finite; a
    non-finite addend keeps the sum non-finite, so this also covers the
    epoch mean."""
    sums = [0.0] * (1 + len(others))
    batch_sums = zip(*(a.sum(axis=1).tolist() for a in (checked, *others)))
    for batch, row in enumerate(batch_sums):
        for i, value in enumerate(row):
            sums[i] += value
        if not math.isfinite(sums[0]):
            raise NumericError(f"non-finite loss at {stage} epoch {epoch} batch {batch}: {sums[0]}")
    return sums


@dataclass
class _EvalRows:
    """The rows scored after every epoch, gathered once per stage or
    segment: the labeled and the test rows of a known class, then the
    active unlabeled rows; in stage 2 also the segment's pseudo-logit
    sums at its start and its loss config."""
    features: np.ndarray
    truth: np.ndarray  # true classes of the labeled and test rows
    n_labeled: int
    drift_base: np.ndarray | None = None
    cfg: D2Config | None = None


def _eval_rows(dataset: SplitDataset, active_unl: np.ndarray | None = None, drift_base=None,
               cfg=None) -> _EvalRows:
    lab, test = (
        ids[dataset.true_classes[ids] != OOD_CLASS]
        for ids in (dataset.labeled_indices, dataset.test_indices)
    )
    scored = np.concatenate([lab, test])
    ids = scored if active_unl is None else np.concatenate([scored, active_unl])
    return _EvalRows(dataset.features[ids], dataset.true_classes[scored], lab.size,
                     drift_base, cfg)


def _accuracy(params: ModelParams, rows: _EvalRows) -> tuple[float, float, np.ndarray]:
    """Labeled and test accuracy from one logits-only forward over all
    evaluation rows; also returns the logits of the unlabeled rows."""
    logits = forward_logits(params, rows.features)
    n_scored = rows.truth.size
    hit = np.argmax(logits[:n_scored], axis=1) == rows.truth
    n_lab = rows.n_labeled
    acc_labeled = float(np.mean(hit[:n_lab]))
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
    loss check cannot see the step after the last batch."""
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
    scorer: _EpochScorer,
    **constant: float,
) -> list[MetricsRecord]:
    """The epochs of a cross-entropy stage: SGD over the full batches of
    batch rows of ids, with the given targets, in a fresh random order
    each epoch, at the cosine learning rate of horizon and lr0. Each
    epoch's record has its mean CE and mean prediction entropy, and
    scorer's accuracies; constant holds the columns the stage keeps
    fixed. A numeric abort names the stage, epoch and batch."""
    state = OptimizerState(params, plan.momentum, plan.weight_decay)
    ws = Workspace(params, batch)
    feats = dataset.features[ids]
    scorer.rows()
    batch_rows = np.arange(batch)
    dl = ws.dl
    n_batches = ids.size // batch
    count = n_batches * batch
    # Each batch's softmax pair, for the epoch's one pass over the loss
    # columns.
    preds = np.empty((n_batches, batch, params.n_classes))
    log_preds = np.empty_like(preds)
    records = []
    for epoch in range(epochs):
        lr = cosine_lr(epoch, horizon, lr0)
        order = rng.permutation(ids.size)
        epoch_feats, epoch_targets = np.take(feats, order, axis=0), np.take(targets, order)
        for b in range(n_batches):
            rows_b = slice(b * batch, (b + 1) * batch)
            trace = forward(params, epoch_feats[rows_b], ws)
            preds[b] = trace.prediction
            log_preds[b] = trace.log_prediction
            np.copyto(dl, trace.prediction)
            dl[batch_rows, epoch_targets[rows_b]] -= 1.0
            dl /= batch
            backward(params, trace, state.grads, ws)
            sgd_nesterov_step(state, lr)
        batch_targets = epoch_targets[:count].reshape(n_batches, batch, 1)
        loss_sum, ent_sum = _epoch_loss_sums(
            stage, epoch, -np.take_along_axis(log_preds, batch_targets, axis=2)[..., 0],
            entropy(preds, log_p=log_preds),
        )
        ce, h_pred = loss_sum / count, ent_sum / count
        records.append(MetricsRecord(
            stage, epoch, lr,
            loss_total=ce, loss_c=ce, loss_e=h_pred, mean_h_pred=h_pred, **constant,
        ))
        scorer.score(records[-1], params)
    _check_params(params, stage)
    return records


def stage1_supervised(
    dataset: SplitDataset,
    params: ModelParams,
    plan: SchedulePlan,
    rng: np.random.Generator,
    scorer: _EpochScorer | None = None,
) -> tuple[ModelParams, list[MetricsRecord]]:
    lab = dataset.labeled_indices
    if lab.size == 0:
        raise ConfigurationError("stage 1 requires at least one labeled sample")
    records = _supervised_stage(
        "stage1", dataset, params, plan, rng, lab, dataset.true_classes[lab],
        min(plan.batch_labeled, lab.size),
        plan.stage1_epochs, plan.stage1_horizon, plan.stage1_lr,
        scorer or _EpochScorer(dataset),
    )
    return params, records


def _discard_count(count: int, plan: SchedulePlan) -> int:
    """How many of count unlabeled rows the open-world filter discards:
    ceil(discard_fraction x count) in an open world, none in a closed one."""
    return math.ceil(plan.discard_fraction * count) if plan.open_world else 0


def active_unlabeled(
    store: PseudoLabelStore, dataset: SplitDataset, plan: SchedulePlan
) -> np.ndarray:
    """Every unlabeled row, less the _discard_count highest-entropy ones
    (ties discarded at the lowest sample id): the rows a stage trains on."""
    unl = dataset.unlabeled_indices
    n_drop = _discard_count(unl.size, plan)
    if n_drop == 0:
        return unl
    ent = entropy(store.probs(unl))
    # Sort by descending entropy, then ascending id; the first n_drop go.
    order = np.lexsort((unl, -ent))
    return np.sort(unl[order[n_drop:]])


def _check_unlabeled_batch(dataset: SplitDataset, plan: SchedulePlan) -> None:
    """Stage 2's unlabeled batch against its active pool: the unlabeled
    rows, less the _discard_count rows active_unlabeled drops. An empty
    pool trains no stage-2 batch at all."""
    count = dataset.unlabeled_indices.size
    active = count - _discard_count(count, plan)
    if plan.batch_unlabeled > active > 0:
        raise ConfigurationError(
            f"unlabeled batch size {plan.batch_unlabeled} exceeds active pool {active}"
        )


def _draw_labeled(lab, order, cursor, need, rng):
    """The next need labeled ids from order, starting at cursor; each
    time order runs out it is replaced by a fresh permutation of lab.
    The k fresh orders are drawn in one rng.permuted call, which gives
    the ids and generator state of k rng.permutation(lab) calls. Returns
    the ids and the new (order, cursor)."""
    left = order.size - cursor
    if need <= left:
        return order[cursor:cursor + need], order, cursor + need
    k = -(-(need - left) // lab.size)
    fresh = rng.permuted(np.broadcast_to(lab, (k, lab.size)), axis=1)
    ids = np.concatenate([order[cursor:], fresh.ravel()])[:need]
    return ids, fresh[-1], need - left - (k - 1) * lab.size


def _stage2_epoch_metrics(pseudo_logits, cfg, unl_logits, drift_base) -> dict:
    """Full-pool diagnostics computed once per epoch, from the
    pseudo-logits and the network logits of the active unlabeled rows."""
    out = {}
    if pseudo_logits.size:
        terms = residual_terms(unl_logits, pseudo_logits, cfg)
        p50, p95 = np.percentile(np.abs(terms.t), [50, 95])
        out["t_abs_p50"], out["t_abs_p95"] = float(p50), float(p95)
        out["mean_h_pred"] = float(np.mean(entropy(terms.p_hat, log_p=terms.p_hat_log)))
        out["mean_h_pseudo"] = float(np.mean(entropy(terms.p_tilde)))
        drift = np.abs(pseudo_logits.sum(axis=1) - drift_base)
        out["sum_drift_max"] = float(drift.max())
    return out


def _epoch_columns(rows: _EvalRows, params: ModelParams, epoch, pseudo_logits) -> dict:
    """The evaluation columns of one epoch, scored on rows inline or in
    the worker."""
    acc_labeled, acc_test, unl_logits = _accuracy(params, rows)
    columns = {"acc_labeled": acc_labeled, "acc_test": acc_test}
    if pseudo_logits is None:
        return columns
    extra = _stage2_epoch_metrics(pseudo_logits, rows.cfg, unl_logits, rows.drift_base)
    for column, value in extra.items():
        if not math.isfinite(value):
            # Name the params when a step left them non-finite.
            _check_params(params, f"stage2 epoch {epoch}")
            raise NumericError(f"non-finite {column} at stage2 epoch {epoch}: {value}")
    return {**columns, **extra}


# Each of the scorer's two shared rings holds as many slots as fit
# _RING_BYTES, at least 2 and at most _RING_SLOTS. The cap bounds the
# jobs in flight, so their replies fit a socket buffer of Linux's
# default size (278 replies), and a rows message that waits for the
# worker to read cannot wait on a worker that waits for its replies to
# be read.
_RING_BYTES = 1 << 20
_RING_SLOTS = 256


class _Ring:
    """Slots of size float64 values in an anonymous shared mapping, made
    before the fork, so the worker reads what the main process writes
    with no copy. free is a stack: the most recently freed slot is taken
    first, so a worker that keeps up reuses the same few pages."""

    def __init__(self, size: int):
        import mmap

        n = min(_RING_SLOTS, max(2, _RING_BYTES // max(8 * size, 1)))
        mapping = mmap.mmap(-1, max(8 * size * n, 1))  # a mapping may not be empty
        self.slots = np.frombuffer(mapping, np.float64, size * n).reshape(n, size)
        self.free = list(range(n))[::-1]


class _EpochScorer:
    """Fills in the evaluation columns of each epoch's record: labeled
    and test accuracy and, in stage 2, the full-pool metrics, which no
    training step reads. Inline, score fills a record at once. After
    start, a forked worker scores each epoch while the next one trains:
    score copies the epoch's params, and gathers stage 2's active
    pseudo-logits, into free slots of two shared rings, sends the worker
    the slot numbers and polls for replies. The worker serves the jobs
    that hold a pseudo-logit slot before the others, so stage 2 need not
    wait for stage 1's backlog. Each reply names its job's params slot,
    fills that job's record and frees its slots. With no free slot,
    score waits for replies until one frees a slot of that ring. A
    failure is raised once every older job has replied, so the earliest
    failure wins, as inline. A context manager: on exit it waits for
    every reply, so a failure the worker found in an earlier epoch
    replaces the exception that ends the block, as inline scoring would
    have raised it first; then it stops the worker and drops the rings,
    on every exit path."""

    def __init__(self, dataset: SplitDataset):
        self.dataset = dataset
        # The jobs in flight, oldest first, by params slot: each one's
        # record and pseudo-logit slot.
        self.pending: dict[int, tuple[MetricsRecord, int | None]] = {}
        self.worker = None

    def rows(self, active_unl: np.ndarray | None = None, drift_base=None, cfg=None) -> None:
        """Score the next epochs on the labeled and test rows, and in
        stage 2 on active_unl with the pseudo-logit sums drift_base and
        the loss config cfg."""
        if self.worker is None:
            self.eval_rows = _eval_rows(self.dataset, active_unl, drift_base, cfg)
        else:
            self._send(("rows", active_unl, drift_base, cfg))

    def score(self, record: MetricsRecord, params: ModelParams, epoch=None, logits=None,
              active_unl=None) -> None:
        """Fill record's columns from params after its epoch; in stage 2,
        from the pseudo-logits logits of the rows active_unl too, which
        are checked here, before any metric column reads them."""
        pseudo_slot = pseudo_logits = None
        n_rows = 0 if active_unl is None else active_unl.size
        if active_unl is not None:
            out = None
            if self.worker is not None:
                pseudo_slot = self._slot(1)
                out = self._pseudo_view(pseudo_slot, n_rows)
            pseudo_logits = np.take(logits, active_unl, axis=0, out=out)
            if not np.isfinite(pseudo_logits).all():
                raise NumericError(f"non-finite pseudo-logits at stage2 epoch {epoch}")
        if self.worker is None:
            vars(record).update(_epoch_columns(self.eval_rows, params, epoch, pseudo_logits))
            return
        params_slot = self._slot(0)
        self.rings[0].slots[params_slot] = params.flat
        self._send(("score", params_slot, epoch, pseudo_slot, n_rows))
        self.pending[params_slot] = (record, pseudo_slot)
        self._collect(0)

    def _slot(self, ring: int) -> int:
        """The most recently freed slot of rings[ring]; with none free,
        it waits for replies until one frees a slot there. The worker
        serves stage 2's jobs first, so a wait for a pseudo-logit slot
        ends with the next stage-2 reply, not after stage 1's backlog."""
        free = self.rings[ring].free
        while not free:
            self._reply(None)
        return free.pop()

    def _pseudo_view(self, slot: int, n_rows: int) -> np.ndarray:
        """The (n_rows, classes) pseudo-logits in slot of the second ring."""
        n_classes = self.layout[0][-1]
        return self.rings[1].slots[slot, :n_rows * n_classes].reshape(n_rows, n_classes)

    def start(self, params: ModelParams) -> _EpochScorer:
        """Fork the worker, unless fork is unavailable or this process
        may run on one CPU only, where the worker would add its messages
        to the same work and make the run slower. The rings are mapped
        first: one of params slots, one of slots that hold every
        unlabeled row's pseudo-logits."""
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
        if not hasattr(os, "fork") or len(cpus) < 2:
            return self
        import multiprocessing
        from multiprocessing.connection import wait

        ctx = multiprocessing.get_context("fork")
        self.layout, self._wait = (params.layer_sizes, params.activation), wait
        pool = self.dataset.unlabeled_indices.size * params.n_classes
        self.rings = (_Ring(params.flat.size), _Ring(pool))
        self.conn, child = ctx.Pipe()
        self.worker = ctx.Process(target=self._serve, args=(child,), daemon=True)
        self.worker.start()
        child.close()
        return self

    def _serve(self, conn) -> None:
        """The worker's loop. After each job it reads every message that
        is ready and tags each score job with the rows of the rows
        message before it, so a segment's rows are dropped once its last
        job is served. It serves the oldest job that holds a pseudo-logit
        slot, else the oldest job. The reply to a job is its params slot
        and its columns, or the exception its decoding or scoring raised."""
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the main process stops it
        queued = (deque(), deque())  # the jobs without, and with, a pseudo-logit slot
        try:
            while True:
                while not (queued[0] or queued[1]) or conn.poll():
                    kind, *job = conn.recv()
                    if kind == "rows":
                        rows = _eval_rows(self.dataset, *job)
                    else:
                        queued[job[2] is not None].append((rows, *job))
                job_rows, params_slot, epoch, pseudo_slot, n_rows = (
                    queued[1] or queued[0]).popleft()
                try:
                    params = ModelParams(*self.layout, self.rings[0].slots[params_slot])
                    pseudo_logits = (None if pseudo_slot is None
                                     else self._pseudo_view(pseudo_slot, n_rows))
                    reply = _epoch_columns(job_rows, params, epoch, pseudo_logits)
                except Exception as exc:
                    reply = exc
                conn.send((params_slot, reply))
        except (EOFError, OSError):  # the main process is gone
            pass

    def _send(self, job) -> None:
        try:
            self.conn.send(job)
        except OSError:
            self._lost()

    def _collect(self, timeout: float | None) -> None:
        """Fill the pending records from the replies that come within
        timeout, or with None from all of them."""
        while self.pending and self._reply(timeout):
            pass

    def _reply(self, timeout: float | None) -> bool:
        """Take the next reply that comes within timeout, or with None
        the next one, and say whether one came. A reply fills its job's
        record and frees its slots; a failure goes to _fail."""
        got = self._receive(timeout)
        if got is None:
            return False
        params_slot, reply = got
        if isinstance(reply, Exception):
            self._fail(params_slot, reply)
        record, pseudo_slot = self.pending.pop(params_slot)
        self.rings[0].free.append(params_slot)
        if pseudo_slot is not None:
            self.rings[1].free.append(pseudo_slot)
        vars(record).update(reply)
        return True

    def _receive(self, timeout: float | None):
        """The next reply that comes within timeout, or with None the
        next one: its job's params slot and its columns or failure. None
        if none came; WorkerError if the worker exits first."""
        ready = self._wait([self.conn, self.worker.sentinel], timeout)
        if not ready:
            return None
        if self.conn not in ready:
            self._lost()
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            self._lost()

    def _fail(self, params_slot: int, failure: Exception):
        """Raise the earliest failure, as inline scoring does: wait for
        the replies to the jobs older than the failed one, and let the
        failure of an older job take its place."""
        try:
            while next(iter(self.pending)) != params_slot:  # an older job is pending
                slot, reply = self._receive(None)
                if (isinstance(reply, Exception)
                        and slot in takewhile(params_slot.__ne__, self.pending)):
                    params_slot, failure = slot, reply
                else:
                    del self.pending[slot]
        finally:
            self.pending.clear()
        raise failure

    def _lost(self):
        self.pending.clear()
        self.worker.join(1.0)
        raise WorkerError(f"the evaluation worker exited with code {self.worker.exitcode}")

    def __enter__(self) -> _EpochScorer:
        return self

    def __exit__(self, kind, exc, tb) -> None:
        try:
            if kind is None or issubclass(kind, Exception):
                self._collect(None)
        finally:
            if self.worker is not None:
                self.worker.kill()
                self.worker.join()
                self.conn.close()
                # Unmapped once no view is left, such as one a traceback holds.
                self.rings = ()


def _labeled_config(cfg: D2Config) -> D2Config:
    """The loss of labeled rows in joint training: the full loss, or
    only the matching term when cfg.labeled_full_loss is false."""
    return cfg if cfg.labeled_full_loss else replace(cfg, beta=0.0)


def _network_logit_grad(p, log_p, p_tilde_log, n_lab, cfg, cfg_labeled, out) -> np.ndarray:
    """Loss gradient w.r.t. the network logits of a batch whose first
    n_lab rows are labeled, written into out."""
    if cfg_labeled is cfg:
        return grad_wrt_network_logits(p, log_p, p_tilde_log, cfg, out=out)
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
    scorer: _EpochScorer | None = None,
) -> tuple[ModelParams, PseudoLabelStore, list[MetricsRecord]]:
    """The joint segments; run_r2d2 checks first that the unlabeled batch
    fits and, by stage1_supervised, that there are labeled rows."""
    scorer = scorer or _EpochScorer(dataset)
    lab = dataset.labeled_indices
    state = OptimizerState(params, plan.momentum, plan.weight_decay)
    records = []
    epoch_global = 0
    cfg_labeled = _labeled_config(cfg)
    known_unl = _known_unlabeled(dataset)
    n_lab = plan.batch_labeled
    n_unl = plan.batch_unlabeled
    ws = Workspace(params, n_lab + n_unl)
    dl = ws.dl
    for segment in plan.stage2_segments:
        if segment.repredict_at_start:
            repredict(store, params, dataset)
        active_unl = active_unlabeled(store, dataset, plan)
        scorer.rows(active_unl, store.logits[active_unl].sum(axis=1), cfg)
        lab_order = rng.permutation(lab)
        lab_cursor = 0
        n_batches = active_unl.size // n_unl
        # Each batch's unlabeled predictions, for the epoch's one
        # pseudo-logit step, and its log-predictions, for the epoch's one
        # pass over the loss columns.
        predictions = np.empty((n_batches, n_unl, store.n_classes))
        log_predictions = np.empty((n_batches, n_lab + n_unl, store.n_classes))
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
            for b in range(n_batches):
                trace = forward(params, feats[b], ws)
                _network_logit_grad(
                    trace.prediction, trace.log_prediction, p_tilde_logs[b],
                    n_lab, cfg, cfg_labeled, dl,
                )
                dl /= n_lab + n_unl
                backward(params, trace, state.grads, ws)
                sgd_nesterov_step(state, segment.lr)
                predictions[b] = trace.prediction[n_lab:]
                log_predictions[b] = trace.log_prediction
            mean_total = mean_c = mean_e = math.nan
            if n_batches:
                # From the log-predictions, not the predictions: softmax is
                # not bit-equal to exp of log_softmax, and the loss columns
                # are kept bit-stable.
                l_c, l_e, total = d2_loss(log_predictions, p_tilde_logs, cfg)
                sums = _epoch_loss_sums("stage2", epoch_global, total, l_c, l_e)
                mean_total, mean_c, mean_e = (s / ids.size for s in sums)
                if cfg.lam > 0:
                    d2_update_pseudo_batch(
                        store, ids[:, n_lab:], predictions, cfg, p_tildes[:, n_lab:],
                    )
            records.append(MetricsRecord(
                "stage2", epoch_global, segment.lr,
                loss_total=mean_total, loss_c=mean_c, loss_e=mean_e,
                acc_pseudo=_pseudo_accuracy(store, *known_unl),
            ))
            scorer.score(records[-1], params, epoch_global, store.logits, active_unl)
            epoch_global += 1
    _check_params(params, "stage2")
    return params, store, records


def stage3_finetune(
    dataset: SplitDataset,
    params: ModelParams,
    store: PseudoLabelStore,
    plan: SchedulePlan,
    rng: np.random.Generator,
    scorer: _EpochScorer | None = None,
) -> tuple[ModelParams, list[MetricsRecord]]:
    """Cross entropy on the labeled rows and the active_unlabeled rows,
    with the arg-max pseudo-labels of the latter as their targets."""
    scorer = scorer or _EpochScorer(dataset)
    lab = dataset.labeled_indices
    unl = active_unlabeled(store, dataset, plan)
    ids = np.concatenate([lab, unl])
    targets = np.empty(ids.size, dtype=np.int64)
    targets[:lab.size] = dataset.true_classes[lab]
    targets[lab.size:] = np.argmax(store.logits[unl], axis=1)
    # Stage 3 never changes the store, so its two columns are constant.
    records = _supervised_stage(
        "stage3", dataset, params, plan, rng, ids, targets,
        min(plan.batch_labeled + plan.batch_unlabeled, ids.size),
        plan.stage3_epochs, plan.stage3_horizon, plan.stage3_lr, scorer,
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
    feats = forward_features(params, dataset.features[ids])
    head = params.head_w.copy()
    cfg_labeled = _labeled_config(cfg)
    dl = np.empty((ids.size, head.shape[1]))  # C-ordered for the product, like ws.dl
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
    t = residual_terms(feats[n_lab:] @ head, store.logits[unl], cfg).t
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
    joint segments, hard-label finetune. Deterministic given the seed;
    each epoch is scored in a forked worker where _EpochScorer.start
    can fork one, with the same records as inline scoring."""
    _check_unlabeled_batch(dataset, plan)
    rng = seeded_rng(seed)
    params = init_params(layer_sizes, activation, rng)
    with _EpochScorer(dataset).start(params) as scorer:
        params, m1 = stage1_supervised(dataset, params, plan, rng, scorer)
        store = init_pseudo_labels(dataset, params, cfg)
        params, store, m2 = stage2_d2(dataset, params, store, plan, cfg, rng, scorer)
        params, m3 = stage3_finetune(dataset, params, store, plan, rng, scorer)
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
