"""The benchmark's workloads: pinned studies, their configs and their checks.

A *study* is one `cusplab` CLI invocation, or one fixed pair of
invocations, that produces a verified answer.  The program sees only the
config files written here and the flags `--config`, `--format` and
`--out`; `--jobs` is never passed.

Why each workload exists:

* ``weyl-zeta`` -- criterion 7 (p = 1/4, zeta regime): the longest pinned
  study, four stacked passes over long pencils with 304 lanes per node
  step.  Per-node-step kernel cost and discretization dominate.  Its input
  is the same for every seed.
* ``invariance-scan`` -- criteria 3, 4 and 10: `cut-check` then
  `perturb-check` on one variant of the p = 1 probe family.  Many (grid,
  domain) combos and variants of equal cell count, so it is where
  nested-domain prefix counts and cross-variant stacking act.  Variants
  are drawn by the seed, so reuse across studies cannot pass for a speedup.
* ``spectrum-locate`` -- `spectrum` on p = 1, flux 1/2: dominated by
  one- and two-lane bisection sweeps.  Its input is the same for every seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("weyl-zeta", "invariance-scan", "spectrum-locate")

CIRCLE = (
    "geometry.n = 2\n"
    "cross_section.kind = circle\n"
    f"cross_section.length = {2 * math.pi!r}\n"
    "degree = 0\n"
)

WEYL_ZETA_CONFIG = CIRCLE + (
    "geometry.p = 0.25\n"
    "potential.poly = (1.0,0.5)\n"
    "numerics.grid = 70000,140000\n"
    "numerics.domain_z = 1400,1680\n"
    "numerics.lambda_grid = 10,100,16\n"
    "numerics.lambda_scale = log\n"
)

SPECTRUM_CONFIG = CIRCLE + (
    "geometry.p = 1\n"
    "magnetic.flux = 0.5\n"
    "numerics.grid = 1000,2000\n"
    "numerics.domain_z = 8,16,32\n"
    "numerics.lambda_grid = 0.5,6,12\n"
    "numerics.tol = 1e-8\n"
)
SPECTRUM_TOL = 1e-8

# The p = 1 probe family, with the sweeps of scripts/flux_switch_scan.py
# (flux k/8) and scripts/invariance_study.py (cut radii, bump heights).
FLUX_EIGHTHS = tuple(range(9))
Y0_PAIRS = ((1.0, 1.5), (1.0, 2.0), (1.5, 2.0))
BUMP_HEIGHTS = (2.0, 5.0, -0.05)
BUMP_CENTER, BUMP_WIDTH = 2.5, 1.0
# p = 1 on the circle of length 2 pi: with integral flux the essential
# spectrum is [1/4, oo); any non-integral flux makes it purely discrete.
P1_THRESHOLD = 0.25


@dataclass(frozen=True)
class Study:
    """One study: a config and the CLI commands run on it, in order."""

    key: str
    config: str
    commands: Tuple[str, ...]
    flux: Optional[Fraction] = None


def _variant(k: int, y0s: Tuple[float, float], height: float) -> Study:
    flux = Fraction(k, 8)
    config = CIRCLE + (
        "geometry.p = 1\n"
        f"magnetic.flux = {float(flux)!r}\n"
        "numerics.grid = 1000,2000\n"
        "numerics.domain_z = 8,16,32\n"
        "numerics.lambda_grid = 0.05,0.5,46\n"
        f"checks.y0 = {y0s[0]!r},{y0s[1]!r}\n"
        f"checks.bump = {BUMP_CENTER!r},{BUMP_WIDTH!r},{height!r}\n"
    )
    key = f"mu={k}/8,y0={y0s[0]!r}:{y0s[1]!r},h={height!r}"
    return Study(key, config, ("cut-check", "perturb-check"), flux)


def invariance_variants() -> List[Study]:
    """Every variant of the invariance family, in a fixed order."""
    return [_variant(k, y0s, h) for k in FLUX_EIGHTHS for y0s in Y0_PAIRS
            for h in BUMP_HEIGHTS]


def studies(workload: str, seed: int) -> List[Study]:
    """The study list of one run; the same seed gives the same list.

    A run walks the list in order and wraps around if time remains.
    """
    if workload == "weyl-zeta":
        return [Study("weyl-zeta", WEYL_ZETA_CONFIG, ("weyl",))]
    if workload == "spectrum-locate":
        return [Study("spectrum-locate", SPECTRUM_CONFIG, ("spectrum",))]
    if workload == "invariance-scan":
        variants = invariance_variants()
        random.Random(seed).shuffle(variants)
        return variants
    raise ValueError(f"unknown workload {workload!r}")


def load_expected() -> dict:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# correctness checks; each returns None when the output is right, else why
# ---------------------------------------------------------------------------

def _check_weyl(out: dict, want: dict) -> Optional[str]:
    if out.get("consistent") is not True:
        return f"weyl verdict {out.get('consistent')!r}, want consistent"
    if out.get("n_range") != want["n_range"]:
        return f"n_range {out.get('n_range')!r}, seed recorded {want['n_range']!r}"
    return None


def _check_spectrum(out: dict, want: dict) -> Optional[str]:
    if out.get("stable") is not True or out.get("truncation_dependent") is not False:
        return "spectrum: counts not domain-stable on a discrete problem"
    if out.get("N_total") != want["N_total"]:
        return f"N_total {out.get('N_total')!r}, seed recorded {want['N_total']!r}"
    got = {m["label"]: m for m in out.get("modes", [])}
    if sorted(got) != sorted(want["modes"]):
        return f"modes {sorted(got)!r}, seed recorded {sorted(want['modes'])!r}"
    for label, ref in want["modes"].items():
        mode = got[label]
        if mode["counts"] != ref["counts"]:
            return f"mode {label} counts {mode['counts']!r}, seed recorded {ref['counts']!r}"
        evs = mode["eigenvalues"] or []
        if len(evs) != len(ref["eigenvalues"]):
            return f"mode {label}: {len(evs)} eigenvalues, seed recorded {len(ref['eigenvalues'])}"
        for ev, ref_ev in zip(evs, ref["eigenvalues"]):
            if abs(ev - ref_ev) > 10 * SPECTRUM_TOL:
                return f"mode {label} eigenvalue {ev!r}, seed recorded {ref_ev!r}"
    return None


def _check_probe_verdicts(command: str, out: dict, want: dict,
                          flux: Fraction) -> Optional[str]:
    if out.get("passed") is not True:
        return f"{command} verdict {out.get('passed')!r}, want passed"
    variants = out.get("variants", {})
    if sorted(variants) != sorted(want):
        return f"{command} variants {sorted(variants)!r}, seed recorded {sorted(want)!r}"
    for name, probe in variants.items():
        if flux.denominator == 1:
            ok = (not probe["no_growth"] and probe["estimate"] is not None
                  and abs(probe["estimate"] - P1_THRESHOLD) <= probe["error"])
        else:
            ok = probe["no_growth"] is True
        if not ok:
            return f"{command} {name}: probe {probe!r} disagrees with the prediction"
        ref = want[name]
        if probe["no_growth"] != ref["no_growth"] or probe["estimate"] != ref["estimate"]:
            return f"{command} {name}: probe {probe!r}, seed recorded {ref!r}"
    return None


def check(workload: str, study: Study, outputs: List[dict], expected: dict) -> Optional[str]:
    """Check the parsed JSON outputs of one study against the seed record."""
    if workload == "weyl-zeta":
        return _check_weyl(outputs[0], expected[workload])
    if workload == "spectrum-locate":
        return _check_spectrum(outputs[0], expected[workload])
    want = expected[workload][study.key]
    for command, out in zip(study.commands, outputs):
        cause = _check_probe_verdicts(command, out, want[command], study.flux)
        if cause:
            return cause
    return None


def record(workload: str, study: Study, outputs: List[dict]) -> dict:
    """The part of a study's outputs that `check` compares with."""
    if workload == "weyl-zeta":
        return {"n_range": outputs[0]["n_range"]}
    if workload == "spectrum-locate":
        out = outputs[0]
        return {"N_total": out["N_total"],
                "modes": {m["label"]: {"counts": m["counts"],
                                       "eigenvalues": m["eigenvalues"] or []}
                          for m in out["modes"]}}
    return {command: {name: {"estimate": probe["estimate"],
                             "no_growth": probe["no_growth"]}
                      for name, probe in out["variants"].items()}
            for command, out in zip(study.commands, outputs)}


def write_configs(study_list: List[Study], directory: str) -> Dict[str, str]:
    """Write each distinct study's config once; returns key -> path."""
    paths = {}
    for i, study in enumerate(study_list):
        if study.key in paths:
            continue
        path = os.path.join(directory, f"study{i:03d}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(study.config)
        paths[study.key] = path
    return paths
