#!/usr/bin/env python3
"""A seeded search for false verdicts: random configs through the CLI.

Draws configs of the numerically modelled class on the circle of length
2 pi: p from {0.25, 0.5, 1, 2}, a flux, a cut radius Y0, an optional
potential term and an optional bump, grid 400,800 or 1000,2000, one of
four domain lists and a random lambda window.  Every value is a decimal,
as the config format requires.  Each config runs through `essspec`,
`cut-check` and `perturb-check` by `cusplab.cli.main`, in process, with
JSON output.

Every exit 2 is printed with its config.  Every exit 1 must print exactly
one stderr line, an error[inconclusive] or error[invalid] reason; a config
error means the generator drew a config the format refuses.  The script
exits 1 when an exit 1 breaks that rule or a report is not JSON, else 0;
exit 2s are reported, not failed.

Usage: python scripts/verdict_sweep.py [--configs N]
"""

import argparse
import contextlib
import io
import json
import math
import os
import random
import sys
import tempfile

from cusplab.cli import main as cli_main

CIRCLE = {"geometry.n": "2", "cross_section.kind": "circle",
          "cross_section.length": repr(2 * math.pi), "degree": "0"}
COMMANDS = ("essspec", "cut-check", "perturb-check")
FLUXES = ("0", "0.125", "0.25", "0.5", "0.75", "0.9", "1", "1.5", "2")
REASONS = ("error[inconclusive]: ", "error[invalid]: ")
SEED = 0


def draw(rng) -> dict:
    """One config of the modelled class, as key -> value text."""
    p = rng.choice(("0.25", "0.5", "1", "2"))
    y0 = rng.choice((1.0, 1.5, 2.0))
    keys = {**CIRCLE, "geometry.p": p, "geometry.y0": repr(y0),
            "magnetic.flux": rng.choice(FLUXES)}
    if rng.random() < 0.3:
        a = rng.choice((-0.2, 0.5, 1.0, 2.0))
        b = rng.choice((-1.0, 0.0, float(p), 2 * float(p)))
        keys["potential.poly"] = f"({a!r},{b!r})"
    if rng.random() < 0.3:
        center = y0 + rng.choice((1.0, 2.0, 3.0))
        keys["potential.bump"] = f"{center!r},1.0,{rng.choice((-0.05, 2.0, 5.0))!r}"
    lo = round(rng.uniform(0.01, 1.0), 2)
    hi = round(lo + rng.uniform(0.2, 3.0), 2)
    keys.update({"numerics.grid": rng.choice(("400,800", "1000,2000")),
                 "numerics.domain_z": rng.choice(("8,16", "8,16,32", "6,8", "10,20")),
                 "numerics.lambda_grid": f"{lo!r},{hi!r},{rng.randint(8, 46)}"})
    return keys


def verdict(command, report) -> str:
    if command == "essspec":
        return (f"estimate {report['estimate']!r} +- {report['error']!r}, "
                f"predicted {report['predicted']!r}")
    return ", ".join(f"{name}: {v['estimate']!r}" for name, v in report["variants"].items())


def run(command, path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([command, "--config", path, "--format", "json"])
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--configs", type=int, default=900, help="number of configs")
    args = ap.parse_args(argv)

    rng = random.Random(SEED)
    codes = {command: [0, 0, 0] for command in COMMANDS}
    broken = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.cfg")
        for _ in range(args.configs):
            keys = draw(rng)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(f"{k} = {v}\n" for k, v in keys.items()))
            shown = "; ".join(f"{k} = {v}" for k, v in keys.items() if k not in CIRCLE)
            for command in COMMANDS:
                code, out, err = run(command, path)
                codes[command][code] += 1
                lines = err.splitlines()
                if code == 1 and not (len(lines) == 1 and lines[0].startswith(REASONS)):
                    broken += 1
                    print(f"{command} exit 1 without one expected reason: {err!r} | {shown}")
                    continue
                try:
                    report = json.loads(out) if out else None
                except ValueError:
                    broken += 1
                    print(f"{command} wrote a report that is not JSON | {shown}")
                    continue
                if code == 2:
                    print(f"{command} exit 2: {verdict(command, report)} | {shown}")
    for command, (ok, one, two) in codes.items():
        print(f"{command}: exit 0/1/2 on {ok}/{one}/{two} of {args.configs} configs")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
