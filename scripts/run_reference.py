#!/usr/bin/env python3
"""Paired runs of the full pipeline against the supervised baseline.

For each seed, trains the pipeline and prints the test-error delta to
the baseline, which is the run's own stage 1; the metrics of both land
under OUT/seed<k>/{r2d2,baseline}_metrics.csv.

Usage: python scripts/run_reference.py --out runs/reference [--seeds 5]
       [--dataset gaussians|two_moons] [--key value ...]
"""

import argparse
import os
import sys

from d2ssl.cli import COMPARISON_PRESETS, compare_baseline, parse_flags, run_guarded
from d2ssl.data import write_csv_columns
from d2ssl.errors import ConfigurationError
from d2ssl.trainer import write_metrics


def parse_args(argv=None):
    # No abbreviations: --seed must not be taken for --seeds.
    ap = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--dataset", default="gaussians", choices=sorted(COMPARISON_PRESETS))
    return ap.parse_known_args(argv)


def compare(args, extra: list[str]) -> int:
    overrides = parse_flags(extra)
    if "seed" in overrides:
        raise ConfigurationError("--seed is not a setting here: the runs take seeds "
                                 "0 to N-1 of --seeds N")
    if args.seeds < 1:
        raise ConfigurationError(f"seeds must be at least 1, got {args.seeds}")
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for seed, err, err_base, m, mb in compare_baseline(args.dataset, args.seeds, overrides):
        seed_dir = os.path.join(args.out, f"seed{seed}")
        os.makedirs(seed_dir, exist_ok=True)
        write_metrics(m, os.path.join(seed_dir, "r2d2_metrics.csv"))
        write_metrics(mb, os.path.join(seed_dir, "baseline_metrics.csv"))
        rows.append((seed, err, err_base, err_base - err))
        print(f"seed {seed}: r2d2 {err:.4f}  baseline {err_base:.4f}  "
              f"delta {err_base - err:+.4f}")
    write_csv_columns(os.path.join(args.out, "comparison.csv"),
                      ["seed", "r2d2_error", "baseline_error", "delta"], ["%s"] * 4, len(rows),
                      list(zip(*rows)))
    wins = sum(r[3] > 0 for r in rows)
    print(f"{wins}/{len(rows)} seeds improved over the baseline")
    return 0


def main(argv=None):
    return run_guarded(compare, *parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
