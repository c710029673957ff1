"""Closed-loop measurement of one workload: one client in one process,
one run at a time, for a fixed number of seconds.

Untraced runs give the end-to-end metrics. A traced invocation
alternates untraced runs with traced runs and also reports the
per-layer metrics and the tracing overhead.

The machine's speed changes by up to 1.9x in phases of seconds to
minutes, which no median over one window removes. So the timings are
reported at a fixed reference speed: each set-up and each timed run
runs between two probes, a fixed piece of Python and small-array numpy
work with no d2ssl code in it (so no program change moves it), and its
wall time is scaled by PROBE_REF_S over the mean of those two probe
times. The wall times are printed beside them.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer as tracing

# The probe's typical time on the 2-vCPU x86-64 machine the benchmark
# was tuned on, so that reference seconds read close to its wall seconds.
PROBE_REF_S = 0.07
_PROBE_X = np.random.default_rng(0).standard_normal((120, 64))
_PROBE_W = np.random.default_rng(1).standard_normal((64, 4))


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def time_setup(src: Path, overrides: dict[str, str]) -> float:
    """Wall time of a fresh interpreter that imports d2ssl and builds the
    workload's dataset."""
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); from d2ssl import cli; "
            f"cli.build_dataset(cli.parse_config('', {overrides!r}))")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


def time_probe() -> float:
    """Wall time of a fixed mix of interpreter work and small-array numpy
    calls, like the workloads' own mix."""
    start = time.perf_counter()
    acc, text, counts = 0.0, [], {}
    for i in range(1500):
        z = np.tanh(_PROBE_X) @ _PROBE_W
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        acc += float((e / e.sum(axis=1, keepdims=True))[0, 0])
        text.append(f"{acc:.9g}")
        counts[i % 64] = counts.get(i % 64, 0) + i
    ",".join(text)
    return time.perf_counter() - start


def at_reference(wall_s: float, probe_before: float, probe_after: float) -> float:
    """A wall time scaled to the reference speed, by the probes around it."""
    return wall_s * 2 * PROBE_REF_S / (probe_before + probe_after)


def fingerprint(out_dir: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in names}


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten runs above it, and its
    value; None with ten runs or fewer."""
    n = len(values)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def measure(workload, seed: int, seconds: float, trace: bool,
            work_dir: Path, src: Path) -> dict:
    """Run ``workload`` repeatedly for ``seconds`` and return the result:
    metric values, run counts, figures, fingerprint and per-layer metrics."""
    work_dir.mkdir(parents=True, exist_ok=True)
    workload.prepare(seed)
    overrides = {**workload.overrides, "seed": str(seed)}
    setup: list[float] = []
    probes: list[float] = []
    setup_ref: list[float] = []
    run_ref: list[float] = []
    tracer = tracing.Tracer() if trace else None
    plain_s: list[float] = []
    problems: list[str] = []
    attempted = failed = 0
    prints = figures = None
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and attempted % 2 == 1
        out_dir = work_dir / f"run{attempted}"
        out_dir.mkdir()
        attempted += 1
        if not traced:
            # one set-up per timed run, so that set-up and runs are
            # sampled over the same stretches of the window
            probes.append(time_probe())
            setup.append(time_setup(src, overrides))
            probes.append(time_probe())
            setup_ref.append(at_reference(setup[-1], probes[-2], probes[-1]))
        gc.collect()
        try:
            start = time.perf_counter()
            if traced:
                with tracer.run():
                    outputs = workload.run(str(out_dir))
            else:
                outputs = workload.run(str(out_dir))
            if not traced:
                plain_s.append(time.perf_counter() - start)
                probes.append(time_probe())
                run_ref.append(at_reference(plain_s[-1], probes[-2], probes[-1]))
            found = workload.check(str(out_dir), outputs)
            run_prints = fingerprint(out_dir, workload.fingerprint_files)
            if prints is None:
                prints = run_prints
                figures = workload.figures(str(out_dir), outputs)
            elif run_prints != prints:
                found.append("outputs differ from the first run with the same seed")
        except Exception as exc:  # a failed run is counted, not fatal
            found = [f"{type(exc).__name__}: {exc}"]
        if found:
            failed += 1
            problems.extend(f"run {attempted}: {p}" for p in found)
        shutil.rmtree(out_dir)
        if time.perf_counter() >= deadline and (traced or not trace):
            break

    values = {}
    if plain_s:
        run_s = statistics.median(run_ref)
        values = {
            "run_s": run_s,
            "rows_per_s": workload.rows / run_s,
            "setup_s": statistics.median(setup_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    layers = {}
    if trace:
        layers = tracing.aggregate(tracer)
        layers["trace.untraced_run_s"] = statistics.fmean(plain_s) if plain_s else 0.0
        layers["trace.overhead_s"] = layers["trace.run_s"] - layers["trace.untraced_run_s"]
        tracer.dump(work_dir.parent / f"trace-{workload.name}-{seed}.json")
    shutil.rmtree(work_dir)
    return {
        "attempted": attempted, "failed": failed, "problems": problems,
        "run_times": plain_s, "tail": tail(plain_s), "setup_times": setup,
        "probe_ratio": statistics.median(probes) / PROBE_REF_S,
        "rows": workload.rows,
        "values": values, "layers": layers, "figures": figures or {},
        "fingerprint": prints or {}, "machine": machine_facts(),
    }
