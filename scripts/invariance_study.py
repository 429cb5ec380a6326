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

from cusplab.assemble import threshold_probe
from cusplab.selftest import probe_config


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--y0", default="1,1.5,2",
                    help="comma list of cut radii")
    ap.add_argument("--heights", default="0,2,5,-0.05",
                    help="comma list of bump heights (center Y0+1.5, width 1)")
    args = ap.parse_args(argv)
    cfg = probe_config()

    print(f"{'variant':>24} {'estimate':>10} {'error':>8}")
    for y0 in (float(t) for t in args.y0.split(",")):
        est = threshold_probe(cfg.with_y0(y0))
        print(f"{'Y0 = ' + format(y0, '.2f'):>24} {est.value:10.4f} {est.error:8.4f}")
    for h in (float(t) for t in args.heights.split(",")):
        variant = cfg.with_bump((2.5, 1.0, h)) if h != 0 else cfg
        est = threshold_probe(variant)
        print(f"{'bump height ' + format(h, '+.2f'):>24} "
              f"{est.value:10.4f} {est.error:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
