#!/usr/bin/env python3
"""Open-world contamination study: inject OOD unlabeled samples and
compare filtered vs unfiltered training, reporting how OOD-enriched the
discarded set is.

Usage: python scripts/run_open_world.py --out runs/openworld
       [--seeds 5] [--ood-count 660] [--discard 0.25] [--spread 2.0]
"""

import argparse
import os
import sys

from d2ssl.cli import (
    OPEN_WORLD_DISCARD, OPEN_WORLD_OOD, OPEN_WORLD_SPREAD, open_world_study, run_guarded,
)
from d2ssl.data import write_csv_columns
from d2ssl.errors import ConfigurationError


def study(args) -> int:
    if args.seeds < 1:
        raise ConfigurationError(f"seeds must be at least 1, got {args.seeds}")
    runs = open_world_study(args.seeds, args.ood_count, args.discard, args.spread)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for row in runs:
        rows.append(row)
        print("seed {}: unfiltered {:.4f}  filtered {:.4f}  pool OOD {:.3f}  "
              "discarded OOD {:.3f}".format(*row))
    write_csv_columns(os.path.join(args.out, "open_world.csv"),
                      ["seed", "unfiltered_error", "filtered_error", "pool_ood_fraction",
                       "discard_ood_fraction"], ["%s"] * 5, len(rows),
                      list(zip(*rows)))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--ood-count", type=int, default=OPEN_WORLD_OOD)
    ap.add_argument("--discard", type=float, default=OPEN_WORLD_DISCARD)
    ap.add_argument("--spread", type=float, default=OPEN_WORLD_SPREAD)
    return run_guarded(study, ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
