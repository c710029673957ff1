"""Span tracing of d2ssl from outside the package.

Each traced function is replaced, for the duration of a traced run, by a
wrapper that records one span: its name, start, end, parent span and an
optional amount (rows, bytes or errors). The wrapper is installed on
every d2ssl module attribute that holds the original function, because
modules such as ``trainer`` and ``pseudo`` bind ``forward`` or
``softmax`` by name at import; patching only the defining module would
miss those calls. Spans stay in memory and are aggregated, and written
out, after the runs end.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np

MODULES = ("d2ssl", "d2ssl.numerics", "d2ssl.model", "d2ssl.pseudo", "d2ssl.data",
           "d2ssl.trainer", "d2ssl.diagnostics", "d2ssl.cli")

ROOT_SPAN = "run"


def _rows(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _forward_rows(tracer, args, kwargs, result):
    params = args[0]
    rows = result.logits.shape[0]
    tracer.count("model.flops", rows * _matmul_flops_per_row(params)[0])
    return rows


def _backward_rows(tracer, args, kwargs, result):
    params, trace = args[0], args[1]
    rows = trace.logits.shape[0]
    tracer.count("model.flops", rows * _matmul_flops_per_row(params)[1])
    return rows


def _matmul_flops_per_row(params) -> tuple[int, int]:
    """Multiply-add flops per row of forward and of backward, from the
    parameter shapes; the element-wise work is not counted."""
    layer = [2 * l.weight.shape[0] * l.weight.shape[1] for l in params.layers]
    head = 2 * params.head_w.shape[0] * params.head_w.shape[1]
    fwd = sum(layer) + head
    # backward: head gradient and feature delta, every weight gradient,
    # and the delta into every layer but the first
    bwd = 2 * head + sum(layer) + sum(layer[1:])
    return fwd, bwd


def _softmax_rows(tracer, args, kwargs, result):
    return _rows(args[0])


def _update_rows(tracer, args, kwargs, result):
    return int(np.size(args[1]))


def _log_probs_rows(tracer, args, kwargs, result):
    return _rows(result)


def _file_bytes(index):
    def count(tracer, args, kwargs, result):
        return os.path.getsize(args[index])
    return count


def _cli_errors(tracer, args, kwargs, result):
    return int(result != 0)


class Target(NamedTuple):
    module: str                 # the module that defines the function
    attr: str                   # its name there, ``Class.method`` for a method
    span: str
    counter: Callable | None = None  # amount recorded after a call returns
    amount_metric: str = ""     # the metric that reports the summed amount
    error_amount: int = 0       # amount recorded when the call raises


TARGETS = (
    Target("d2ssl.model", "forward", "model.forward", _forward_rows, "model.forward.rows"),
    Target("d2ssl.model", "backward", "model.backward", _backward_rows, "model.backward.rows"),
    Target("d2ssl.model", "save_checkpoint", "model.checkpoint.save", _file_bytes(1),
           "model.checkpoint.bytes"),
    Target("d2ssl.model", "load_checkpoint", "model.checkpoint.load"),
    Target("d2ssl.numerics", "softmax", "numerics.softmax", _softmax_rows,
           "numerics.softmax.rows"),
    Target("d2ssl.numerics", "log_softmax", "numerics.log_softmax", _softmax_rows,
           "numerics.log_softmax.rows"),
    Target("d2ssl.numerics", "entropy", "numerics.entropy"),
    Target("d2ssl.numerics", "kl_divergence", "numerics.kl_divergence"),
    Target("d2ssl.pseudo", "grad_wrt_network_logits", "pseudo.grad_logits"),
    Target("d2ssl.pseudo", "d2_update_pseudo_batch", "pseudo.update", _update_rows,
           "pseudo.update.rows"),
    Target("d2ssl.pseudo", "d2_loss", "pseudo.loss"),
    Target("d2ssl.pseudo", "PseudoLabelStore.log_probs", "pseudo.log_probs", _log_probs_rows,
           "pseudo.log_probs.rows"),
    Target("d2ssl.pseudo", "repredict", "pseudo.repredict"),
    Target("d2ssl.pseudo", "save_snapshot", "pseudo.snapshot.save", _file_bytes(1),
           "pseudo.snapshot.bytes"),
    Target("d2ssl.pseudo", "load_snapshot", "pseudo.snapshot.load"),
    Target("d2ssl.trainer", "stage1_supervised", "trainer.stage1"),
    Target("d2ssl.trainer", "stage2_d2", "trainer.stage2"),
    Target("d2ssl.trainer", "stage3_finetune", "trainer.stage3"),
    Target("d2ssl.trainer", "head_only_d2", "trainer.head_only"),
    Target("d2ssl.trainer", "sgd_nesterov_step", "trainer.sgd_step"),
    Target("d2ssl.trainer", "_accuracy", "trainer.epoch_metrics"),
    Target("d2ssl.trainer", "_pseudo_accuracy", "trainer.epoch_metrics"),
    Target("d2ssl.trainer", "_stage2_epoch_metrics", "trainer.epoch_metrics"),
    Target("d2ssl.trainer", "write_metrics", "cli.write_metrics"),
    Target("d2ssl.data", "SplitDataset.save_csv", "data.csv.save", _file_bytes(1),
           "data.csv.bytes"),
    Target("d2ssl.data", "SplitDataset.load_csv", "data.csv.load"),
    Target("d2ssl.cli", "build_dataset", "data.build"),
    Target("d2ssl.diagnostics", "t_histogram", "diagnostics.t_histogram"),
    Target("d2ssl.diagnostics", "flatness_audit", "diagnostics.flatness_audit"),
    Target("d2ssl.diagnostics", "entropy_cdf", "diagnostics.entropy_cdf"),
    Target("d2ssl.diagnostics", "export_features", "diagnostics.export_features"),
    Target("d2ssl.cli", "_emit_diagnostics", "cli.emit_diagnostics"),
    Target("d2ssl.cli", "main", "cli.main", _cli_errors, "cli.errors", error_amount=1),
)


class Tracer:
    """Spans of every traced run, in five parallel lists, plus one dict
    of counters per run. A span's parent is the index of the span open
    when it started, or -1 for the root span of a run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.amounts: list[int] = []
        self.counters: list[dict[str, int]] = []
        self._stack: list[int] = []

    def count(self, name: str, amount: int) -> None:
        counters = self.counters[-1]
        counters[name] = counters.get(name, 0) + amount

    def wrap(self, name, fn, counter, error_amount):
        clock = time.perf_counter
        names, starts, ends = self.names, self.starts, self.ends
        parents, amounts, stack = self.parents, self.amounts, self._stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            amounts.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                amounts[idx] = error_amount
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                amounts[idx] = counter(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def run(self):
        """Root span of one traced run, with the wrappers installed."""
        self.counters.append({})
        restore = install(self)
        idx = len(self.names)
        self.names.append(ROOT_SPAN)
        self.parents.append(-1)
        self.amounts.append(0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()
            restore()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"name": self.names, "start": self.starts, "end": self.ends,
                       "parent": self.parents, "amount": self.amounts,
                       "counters": self.counters}, fh)


def install(tracer: Tracer):
    """Wrap every target on every d2ssl module attribute that holds it.
    Returns a function that puts the originals back."""
    modules = [importlib.import_module(m) for m in MODULES]
    saved = []
    for mod_name, attr, span, counter, _, error_amount in TARGETS:
        owner = importlib.import_module(mod_name)
        if "." in attr:  # a method: patch the class attribute
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = tracer.wrap(span, fn, counter, error_amount)
            saved.append((cls, meth, raw))
            setattr(cls, meth, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span, original, counter, error_amount)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    saved.append((mod, name, original))
                    setattr(mod, name, wrapped)

    def restore():
        for holder, name, value in reversed(saved):
            setattr(holder, name, value)

    return restore


def aggregate(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics as the mean over the traced runs.

    For each span name: calls and inclusive seconds (``x.save_s`` and
    ``x.load_s`` for the spans ``x.save`` and ``x.load``), and the summed
    amount under the target's amount metric. For each
    layer (the part of the span name before the first dot): calls, busy
    seconds (spans not nested in a span of the same layer) and self
    seconds (span duration minus the time its child spans cover). The
    root spans' self time is the part of a run outside every layer.
    """
    n = len(tracer.names)
    start = np.asarray(tracer.starts, dtype=np.float64)
    dur = np.asarray(tracer.ends, dtype=np.float64) - start
    parent = np.asarray(tracer.parents, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.zeros(n)
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_time = dur - covered
    layer = [name.split(".", 1)[0] for name in tracer.names]
    runs = max(1, int(np.sum(~has_parent)))

    span_names = sorted({t.span for t in TARGETS})
    layers = sorted({s.split(".", 1)[0] for s in span_names})
    calls = dict.fromkeys(span_names + layers, 0.0)
    secs = dict.fromkeys(span_names + layers, 0.0)
    amount = dict.fromkeys(span_names, 0.0)
    self_s = dict.fromkeys(layers + [ROOT_SPAN], 0.0)
    for i, name in enumerate(tracer.names):
        lay = layer[i]
        self_s[lay] += self_time[i]
        if name == ROOT_SPAN:
            continue
        calls[name] += 1
        secs[name] += dur[i]
        amount[name] += tracer.amounts[i]
        calls[lay] += 1
        p = parent[i]
        while p >= 0 and layer[p] != lay:
            p = parent[p]
        if p < 0:
            secs[lay] += dur[i]

    out: dict[str, float] = {}
    for name in span_names:
        if name.endswith((".save", ".load")):
            prefix, op = name.rsplit(".", 1)
            out[f"{prefix}.{op}_s"] = secs[name]
        else:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = secs[name]
    for target in TARGETS:
        if target.amount_metric:
            out[target.amount_metric] = amount[target.span]
    for lay in layers:
        out[f"{lay}.calls"] = calls[lay]
        out[f"{lay}.s"] = secs[lay]
        out[f"{lay}.self_s"] = self_s[lay]
    out["model.flops"] = float(sum(c.get("model.flops", 0) for c in tracer.counters))
    fwd_rows = amount["model.forward"]
    out["model.forward.train_row_share"] = (
        amount["model.backward"] / fwd_rows if fwd_rows else 0.0
    )
    out["trace.run_s"] = float(np.sum(dur[~has_parent]))
    out["trace.unattributed_self_s"] = self_s[ROOT_SPAN]
    for key in out:
        if key != "model.forward.train_row_share":
            out[key] /= runs
    return out
