#!/usr/bin/env python3
"""Fit the counting function in all three growth regimes and compare with
the predicted constants.

The experiments of selftest criteria 5-7 on the circle S^1(2 pi):

  p = 1   (volume regime)   N ~ C1 lambda        with C1 = 1/2
  p = 1/2 (log regime)      N ~ C2 lambda log l  with C2 = 1/2
  p = 1/4 (zeta regime)     N ~ C3 lambda^2      with C3 from zeta values

Usage: python scripts/weyl_regimes_study.py [--regime {p1,log,zeta,all}]
"""

import argparse
import sys
import time

from cusplab.assemble import weyl_study
from cusplab.selftest import WEYL_EXPERIMENTS


def run_one(name: str) -> None:
    cfg = WEYL_EXPERIMENTS[name]
    t0 = time.time()
    rep, fit = weyl_study(cfg)
    pred = rep.prediction
    const = pred.weyl_constant
    print(f"--- {name}: p = {cfg.geometry.p}, regime {pred.weyl_regime}")
    print(f"    model {fit.model}")
    print(f"    fitted exponent  {fit.exponent:.4f}")
    print(f"    fitted constant  {fit.constant:.5f}")
    if const is not None:
        print(f"    predicted        {const:.5f}  "
              f"({100 * (fit.constant / const - 1):+.1f}%)")
    print(f"    lambda window    {fit.lambda_range[0]:.3g} .. {fit.lambda_range[1]:.3g}"
          f"  (N up to {fit.n_range[1]})")
    print(f"    counts domain-stable: {rep.stable}   [{time.time() - t0:.1f}s]")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--regime", choices=[*WEYL_EXPERIMENTS, "all"], default="all")
    args = ap.parse_args(argv)
    names = list(WEYL_EXPERIMENTS) if args.regime == "all" else [args.regime]
    for name in names:
        run_one(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
