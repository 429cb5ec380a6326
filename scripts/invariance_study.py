#!/usr/bin/env python3
"""Stability of the essential-spectrum probe under cut moves and bumps.

Moves the cut radius Y0 and adds compactly supported potential bumps to the
flat-circle scalar problem (threshold 1/4), reporting the probe estimate for
each variant.  Only individual eigenvalues may react; the threshold must
not.

Usage: python scripts/invariance_study.py [--y0 LIST] [--heights LIST]
"""

import argparse
import sys

from cusplab.assemble import threshold_probes
from cusplab.selftest import probe_config


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--y0", default="1,1.5,2",
                    help="comma list of cut radii")
    ap.add_argument("--heights", default="0,2,5,-0.05",
                    help="comma list of bump heights (center Y0+1.5, width 1)")
    args = ap.parse_args(argv)
    cfg = probe_config()

    y0s = [float(t) for t in args.y0.split(",")]
    heights = [float(t) for t in args.heights.split(",")]
    names = [f"Y0 = {y0:.2f}" for y0 in y0s] + [f"bump height {h:+.2f}" for h in heights]
    variants = ([cfg.with_y0(y0) for y0 in y0s]
                + [cfg.with_bump((2.5, 1.0, h)) if h != 0 else cfg for h in heights])

    print(f"{'variant':>24} {'estimate':>10} {'error':>8}")
    # the variants share the numerics, so one stacked pass per nested group counts all
    for name, est in zip(names, threshold_probes(variants)):
        print(f"{name:>24} {est.value:10.4f} {est.error:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
