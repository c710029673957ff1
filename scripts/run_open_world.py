#!/usr/bin/env python3
"""Open-world contamination study: inject OOD unlabeled samples and
compare filtered vs unfiltered training, reporting how OOD-enriched the
discarded set is.

Usage: python scripts/run_open_world.py --out runs/openworld
       [--seeds 5] [--ood-count 660] [--discard 0.25] [--spread 2.0]
"""

import argparse
import csv
import os
import sys

import numpy as np

from d2ssl.cli import build_dataset, parse_config, run_guarded
from d2ssl.data import OOD_CLASS
from d2ssl.trainer import open_world_filter, run_r2d2


def study(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for seed in range(args.seeds):
        err = {}
        final = {}
        for tag, ow in [("unfiltered", False), ("filtered", True)]:
            cfg = parse_config("", {
                "seed": str(seed), "gauss_spread": str(args.spread),
                "ood_count": str(args.ood_count), "open_world": str(ow),
                "discard_fraction": str(args.discard),
            })
            ds = build_dataset(cfg)
            _, store, m = run_r2d2(ds, cfg.model_sizes(), cfg.activation,
                                   cfg.d2_config(), cfg.schedule_plan(), seed)
            err[tag] = 1 - m[-1].acc_test
            final[tag] = (ds, store)
        ds, store = final["filtered"]
        unl = ds.unlabeled_indices
        dropped = np.setdiff1d(unl, open_world_filter(store, ds, args.discard))
        pool_frac = float(np.mean(ds.true_classes[unl] == OOD_CLASS))
        drop_frac = float(np.mean(ds.true_classes[dropped] == OOD_CLASS))
        rows.append((seed, err["unfiltered"], err["filtered"],
                     pool_frac, drop_frac))
        print(f"seed {seed}: unfiltered {err['unfiltered']:.4f}  "
              f"filtered {err['filtered']:.4f}  pool OOD {pool_frac:.3f}  "
              f"discarded OOD {drop_frac:.3f}")
    with open(os.path.join(args.out, "open_world.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["seed", "unfiltered_error", "filtered_error",
                    "pool_ood_fraction", "discard_ood_fraction"])
        w.writerows(rows)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--ood-count", type=int, default=660)
    ap.add_argument("--discard", type=float, default=0.25)
    ap.add_argument("--spread", type=float, default=2.0)
    return run_guarded(study, ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
