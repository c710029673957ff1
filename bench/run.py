#!/usr/bin/env python3
"""d2ssl benchmark: one workload, one seed, a fixed measuring time.

Usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it imports d2ssl from ``src/`` there
and writes only under ``.bench_work/``. It prints every metric by name
and unit, the machine facts, result figures and output fingerprints;
the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1``
the per-layer ones from a separate traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return seed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=_seed, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "d2ssl" / "__init__.py").is_file():
        print(f"error: d2ssl sources not found under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, pinned before numpy loads; the setup processes inherit it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import d2ssl
    if Path(d2ssl.__file__).resolve().parent != SRC / "d2ssl":
        print(f"error: d2ssl imported from {d2ssl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]()
    result = harness.measure(workload, args.seed, args.seconds, bool(args.trace),
                             WORK / f"{workload.name}-{args.seed}-{os.getpid()}", SRC)
    report(workload, args, result, spec)
    print(json.dumps(result_line(spec, result, bool(args.trace))))
    return 0


def result_line(spec: dict, result: dict, trace: bool) -> dict:
    """The final JSON object: the per-layer metrics of BENCHMARK.json for a
    traced invocation, its end-to-end metrics otherwise."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    values = result["layers"] if trace else result["values"]
    if not values:  # no run completed, so nothing was measured
        values = {m["name"]: 0.0 for m in wanted}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def report(workload, args, result: dict, spec: dict) -> None:
    """Human-readable lines: everything measured, by name and unit."""
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("machine " + json.dumps(result["machine"]))
    runs = result["run_times"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in result["values"].items():
        print(f"{name} {value:.6g} {units[name]}")
    tail = result["tail"]
    print(f"probe {result['probe_ratio']:.6g} x reference (median; run_s and setup_s above "
          "are at the reference, the wall times below are as measured)")
    print(f"wall run_s n={len(runs)} tail=" + (
        f"p{tail[0]:.0f} {tail[1]:.6g} s" if tail else "none (ten or fewer runs)")
          + " all=" + ",".join(f"{t:.4f}" for t in runs))
    print(f"wall setup_s n={len(result['setup_times'])} all="
          + ",".join(f"{t:.4f}" for t in result["setup_times"]))
    print(f"rows_per_run {result['rows']}")
    print(f"failure_rate {result['failed'] / result['attempted']:.6g} 1 "
          f"({result['failed']} of {result['attempted']} runs)")
    for name, (value, unit) in result["figures"].items():
        print(f"{name} {value:.6g} {unit}")
    for name, digest in result["fingerprint"].items():
        print(f"fingerprint {name} sha256 {digest}")
    for name, value in sorted(result["layers"].items()):
        print(f"layer {name} {value:.6g} {units.get(name, '')}".rstrip())
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}")


if __name__ == "__main__":
    sys.exit(main())
