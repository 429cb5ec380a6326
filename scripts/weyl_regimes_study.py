#!/usr/bin/env python3
"""Fit the counting function in all three growth regimes and compare with
the predicted constants.

Three ready-made experiments on the circle cross-section S^1(2 pi):

  p = 1   (volume regime)   N ~ C1 lambda        with C1 = 1/2
  p = 1/2 (log regime)      N ~ C2 lambda log l  with C2 = 1/2
  p = 1/4 (zeta regime)     N ~ C3 lambda^2      with C3 from zeta values

Usage: python scripts/weyl_regimes_study.py [--regime {p1,log,zeta,all}]
"""

import argparse
import math
import sys
import time

from cusplab.assemble import global_counting, weyl_fit
from cusplab.model import (EndGeometry, MagneticData, Numerics, ProblemConfig,
                           RadialPotential, builtin_cross_section)

CIRCLE = builtin_cross_section("circle", length=2 * math.pi)

EXPERIMENTS = {
    "p1": ProblemConfig(
        geometry=EndGeometry(2, "1", 1.0), cross_section=CIRCLE, degree=0,
        magnetic=MagneticData(flux=("0.5",)),
        numerics=Numerics(grids=(2500, 5000), domains=(6.5, 8.5),
                          lambda_grid=(120.0, 1200.0, 16), lambda_scale="log")),
    "log": ProblemConfig(
        geometry=EndGeometry(2, "0.5", 1.0), cross_section=CIRCLE, degree=0,
        magnetic=MagneticData(flux=("0.5",)),
        numerics=Numerics(grids=(8000, 16000), domains=(80.0, 96.0),
                          lambda_grid=(30.0, 300.0, 16), lambda_scale="log")),
    "zeta": ProblemConfig(
        geometry=EndGeometry(2, "0.25", 1.0), cross_section=CIRCLE, degree=0,
        potential=RadialPotential(poly=((1.0, 0.5),)),
        numerics=Numerics(grids=(70000, 140000), domains=(1400.0, 1680.0),
                          lambda_grid=(10.0, 100.0, 16), lambda_scale="log")),
}


def run_one(name: str) -> None:
    cfg = EXPERIMENTS[name]
    t0 = time.time()
    rep = global_counting(cfg)
    fit = weyl_fit(rep)
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
    ap.add_argument("--regime", choices=[*EXPERIMENTS, "all"], default="all")
    args = ap.parse_args(argv)
    names = list(EXPERIMENTS) if args.regime == "all" else [args.regime]
    for name in names:
        run_one(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
