#!/usr/bin/env python3
"""Sweep the Aharonov-Bohm flux and watch the essential spectrum switch off.

For each flux value mu in a grid over [0, 1] the script reports the
analytic classification, the bottom of the essential spectrum predicted for
integral flux, the threshold probe's estimate and whether it found no
growth (`no_growth`: also true when the counts differ only in lanes that
wall inside the longest domain).  The essential spectrum should exist
exactly at the integral points mu = 0 and mu = 1 and vanish everywhere in
between.

Usage: python scripts/flux_switch_scan.py [--steps N] [--p P] [--csv]
"""

import argparse
import sys
from fractions import Fraction

from cusplab.assemble import threshold_probes
from cusplab.criteria import classify
from cusplab.selftest import probe_config


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=8,
                    help="number of flux steps across [0, 1]")
    ap.add_argument("--p", default="1", help="metric exponent p (decimal)")
    ap.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    args = ap.parse_args(argv)

    fluxes = [Fraction(i, args.steps) for i in range(args.steps + 1)]
    configs = [probe_config(flux=mu, p=args.p) for mu in fluxes]
    preds = [classify(cfg) for cfg in configs]
    # the configs share the numerics, so one stacked pass per nested group counts all
    rows = [(float(mu), pred.classification, pred.essential_bottom,
             est.value, est.error, est.no_growth)
            for mu, pred, est in zip(fluxes, preds, threshold_probes(configs))]

    if args.csv:
        print("mu,classification,predicted_bottom,probe,probe_error,no_growth")
        for mu, cls, pb, pv, pe, no_growth in rows:
            print(f"{mu!r},{cls},{'' if pb is None else repr(pb)},"
                  f"{'' if pv is None else repr(pv)},{pe!r},{no_growth}")
    else:
        print(f"{'mu':>8} {'classification':>16} {'predicted':>10} "
              f"{'probe':>10} {'no_growth':>9}")
        for mu, cls, pb, pv, pe, no_growth in rows:
            pbs = "-" if pb is None else f"{pb:.3f}"
            pvs = "-" if pv is None else f"{pv:.3f}"
            print(f"{mu:8.3f} {cls:>16} {pbs:>10} {pvs:>10} {str(no_growth):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
