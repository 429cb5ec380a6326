#!/usr/bin/env python3
"""Sweep the Aharonov-Bohm flux and watch the essential spectrum switch off.

For each flux value mu in a grid over [0, 1] the script reports the
analytic classification, the bottom of the essential spectrum predicted for
integral flux, and the numerical stability/growth diagnosis of the counting
function.  The essential spectrum should exist exactly at the integral
points mu = 0 and mu = 1 and vanish everywhere in between.

Usage: python scripts/flux_switch_scan.py [--steps N] [--p P] [--csv]
"""

import argparse
import sys
from fractions import Fraction

from cusplab.assemble import threshold_probe
from cusplab.criteria import classify
from cusplab.selftest import probe_config


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=8,
                    help="number of flux steps across [0, 1]")
    ap.add_argument("--p", default="1", help="metric exponent p (decimal)")
    ap.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    args = ap.parse_args(argv)

    rows = []
    for i in range(args.steps + 1):
        mu = Fraction(i, args.steps)
        cfg = probe_config(flux=mu, p=args.p)
        pred = classify(cfg)
        est = threshold_probe(cfg)
        rows.append((float(mu), pred.classification,
                     pred.essential_bottom, est.value, est.error, est.no_growth))

    if args.csv:
        print("mu,classification,predicted_bottom,probe,probe_error,counts_stable")
        for mu, cls, pb, pv, pe, stable in rows:
            print(f"{mu!r},{cls},{'' if pb is None else repr(pb)},"
                  f"{'' if pv is None else repr(pv)},{pe!r},{stable}")
    else:
        print(f"{'mu':>8} {'classification':>16} {'predicted':>10} "
              f"{'probe':>10} {'stable':>7}")
        for mu, cls, pb, pv, pe, stable in rows:
            pbs = "-" if pb is None else f"{pb:.3f}"
            pvs = "-" if pv is None else f"{pv:.3f}"
            print(f"{mu:8.3f} {cls:>16} {pbs:>10} {pvs:>10} {str(stable):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
