#!/usr/bin/env python3
"""Convergence audit: freeze the backbone after the supervised warm-up,
jointly optimize the head and the pseudo-logits to stationarity, then
export the residual histogram, flatness audit, and entropy CDF.

Usage: python scripts/run_convergence_audit.py --out runs/audit
       [--seed 0] [--steps 5000] [--lr 8.0] [--lam 64000]
"""

import argparse
import os
import sys

import numpy as np

from d2ssl.cli import (
    AUDIT_LAM, AUDIT_LR, AUDIT_STEPS, _emit_diagnostics, convergence_audit, parse_config,
    run_guarded,
)
from d2ssl.errors import ConfigurationError


def audit(args) -> int:
    # lam is parsed with the config, so a bad one fails before --out is made.
    cfg = parse_config("", {"seed": str(args.seed), "out": args.out, "lam": repr(args.lam)})
    if args.steps < 0:
        raise ConfigurationError(f"steps must be at least 0, got {args.steps}")
    if not 0.0 <= args.lr < np.inf:
        raise ConfigurationError(f"lr must be finite and non-negative, got {args.lr}")
    os.makedirs(args.out, exist_ok=True)
    ds, params, store, _, d2 = convergence_audit(cfg, args.steps, args.lr, cfg.lam)
    frac = _emit_diagnostics(args.out, ds, params, store, d2)
    print(f"{frac:.1%} of unlabeled samples converged to |t| < 1e-3")
    print(f"diagnostics written to {args.out}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=AUDIT_STEPS)
    ap.add_argument("--lr", type=float, default=AUDIT_LR)
    ap.add_argument("--lam", type=float, default=AUDIT_LAM)
    return run_guarded(audit, ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
