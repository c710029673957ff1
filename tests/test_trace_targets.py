"""The benchmark's tracer finds every function it wraps, and its counters
read the calls d2ssl makes.

bench/tracer.py names the d2ssl functions it times by module and
attribute, and its counters read the arguments and results of those
calls by position (``backward(params, trace, ...)``,
``d2_update_pseudo_batch(store, ids, ...)``). A rename or a signature
change in d2ssl would leave a per-layer metric unmeasured or stop a
traced benchmark run, so every target must still resolve and every
counter must still count a real call. These tests read bench/ and do
not edit it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from d2ssl import cli, model, numerics, pseudo, trainer
from d2ssl.pseudo import D2Config, init_pseudo_labels

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

TINY = {
    "gauss_per_class": "30",
    "stage1_epochs": "3", "stage1_horizon": "3",
    "stage2_epochs": "2,2", "stage2_lrs": "0.01,0.008", "stage2_repredict": "0,1",
    "stage3_epochs": "2", "stage3_horizon": "2",
    "batch_labeled": "5", "batch_unlabeled": "20",
}


@pytest.fixture(scope="module")
def tracer_mod():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_tracer_target_resolves(tracer_mod):
    assert tracer_mod.TARGETS
    for target in tracer_mod.TARGETS:
        owner = importlib.import_module(target.module)
        for part in target.attr.split("."):
            assert hasattr(owner, part), f"{target.module}.{target.attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{target.module}.{target.attr}"


def _calls(tmp_path):
    """For each counted target, a real tiny call made the way d2ssl makes
    it: (function, args, kwargs, expected amount or None for a file size)."""
    cfg = cli.parse_config("", TINY)
    ds = cli.build_dataset(cfg)
    params = model.init_params(cfg.model_sizes(), cfg.activation, numerics.seeded_rng(0))
    d2 = D2Config()
    store = init_pseudo_labels(ds, params, d2)
    x = ds.features[:7]
    ws = model.Workspace(params, 7)
    trace = model.forward(params, x, ws)
    ws.dl[...] = trace.prediction
    unl = ds.unlabeled_indices[:4]
    p_tilde = store.probs(unl)
    return {
        ("d2ssl.model", "forward"): (model.forward, (params, x), {}, 7),
        ("d2ssl.model", "backward"): (
            model.backward, (params, trace, params.zeros(), ws), {}, 7),
        ("d2ssl.model", "save_checkpoint"): (
            model.save_checkpoint, (params, tmp_path / "model.d2ck"), {}, None),
        ("d2ssl.numerics", "softmax"): (numerics.softmax, (trace.logits,), {}, 7),
        ("d2ssl.numerics", "log_softmax"): (numerics.log_softmax, (trace.logits,), {}, 7),
        ("d2ssl.pseudo", "d2_update_pseudo_batch"): (
            pseudo.d2_update_pseudo_batch,
            (store, unl, model.forward(params, ds.features[unl]).prediction, d2, p_tilde),
            {}, 4),
        ("d2ssl.pseudo", "PseudoLabelStore.log_probs"): (
            pseudo.PseudoLabelStore.log_probs, (store, unl), {}, 4),
        ("d2ssl.pseudo", "save_snapshot"): (
            pseudo.save_snapshot, (store, tmp_path / "pseudo.d2pl"), {}, None),
        ("d2ssl.data", "SplitDataset.save_csv"): (
            type(ds).save_csv, (ds, tmp_path / "dataset.csv"), {}, None),
        ("d2ssl.cli", "main"): (cli.main, (["diagnose", "--out", str(tmp_path)],), {}, 1),
    }


def test_every_counter_counts_a_real_call(tracer_mod, tmp_path):
    calls = _calls(tmp_path)
    counted = {(t.module, t.attr): t for t in tracer_mod.TARGETS if t.counter}
    assert set(counted) == set(calls), "give each counted target a call here"
    tracer = tracer_mod.Tracer()
    tracer.counters.append({})
    for key, (fn, args, kwargs, expected) in calls.items():
        amount = counted[key].counter(tracer, args, kwargs, fn(*args, **kwargs))
        if expected is None:  # a file size
            expected = args[1].stat().st_size
        assert amount == expected, key
    assert tracer.counters[-1]["model.flops"] > 0


def test_traced_run_counts_the_training_calls(tracer_mod, tmp_path):
    # The trainer's own call sites, through the installed wrappers.
    tracer = tracer_mod.Tracer()
    original = model.backward
    with tracer.run():
        assert trainer.backward is not original  # wrapped
        assert cli.main(["r2d2", "--out", str(tmp_path)]
                        + [a for k, v in TINY.items() for a in (f"--{k}", v)]) == 0
    assert trainer.backward is original  # restored
    metrics = tracer_mod.aggregate(tracer)
    for name in ("model.forward.rows", "model.backward.rows", "pseudo.update.rows",
                 "trainer.sgd_step.calls", "model.checkpoint.bytes"):
        assert metrics[name] > 0, name
    assert metrics["model.backward.calls"] == metrics["trainer.sgd_step.calls"]
    assert metrics["cli.errors"] == 0
