"""Acceptance battery: one runnable check per advertised guarantee.

Each criterion function takes no input and returns (passed, detail), so
the battery doubles as a set of worked examples.  `run_all` prints one
PASS/FAIL line per criterion; the pytest suite asserts the same functions.
Criteria 3-7 and 10 read the shared experiments `probe_config` and
`WEYL_EXPERIMENTS`, which the scripts in scripts/ run too.

Tolerances are part of the contract and are pinned here, not computed.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from . import assemble, criteria, reduce as red, sturm, zeta
from .model import (EndGeometry, MagneticData, Numerics, ProblemConfig,
                    RadialPotential, builtin_cross_section, parse_config,
                    ConfigError)

PI2 = math.pi * math.pi


def _circle_config(p="1", flux=None, potential=None, numerics=None, y0=1.0):
    return ProblemConfig(
        geometry=EndGeometry(2, p, y0),
        cross_section=builtin_cross_section("circle", length=2 * math.pi),
        degree=0,
        magnetic=MagneticData(flux=(flux,)) if flux is not None else None,
        potential=potential,
        numerics=numerics or Numerics())


def criterion_1():
    """Dirichlet string: Richardson eigenvalues within 1e-6, order >= 1.9."""
    op = red.CanonicalOperator(p=1.0, y0=1.0, z0=0.0, conj_coeff=0.0)
    cells = (500, 1000, 2000)
    hs = [1.0 / c for c in cells]
    eigs = {c: sturm.eigenvalues_below(sturm.discretize(op, 1.0, c), 50.0, 1e-10)
            for c in cells}
    details = []
    ok = True
    for j, exact in enumerate((PI2, 4 * PI2)):
        seq = [eigs[c][j] for c in cells]
        extr = sturm.richardson(seq, hs)
        order = sturm.observed_order(seq, hs)
        ok &= abs(extr - exact) <= 1e-6 and order is not None and order >= 1.9
        details.append(f"ev{j}: err={abs(extr - exact):.2e} order={order:.3f}")
    return ok, "; ".join(details)


def criterion_2():
    """Inertia counts and bisection agree with a dense eigensolver."""
    rng = np.random.default_rng(20260810)
    worst_val = 0.0
    for trial in range(50):
        n = int(rng.integers(3, 201))
        diag = rng.uniform(-2.0, 2.0, n)
        off = rng.uniform(-1.0, 1.0, n - 1)
        mass = rng.uniform(0.5, 2.0, n)
        pen = sturm.TridiagonalPencil(diag=diag, offdiag=off, mass=mass)
        s = 1.0 / np.sqrt(mass)
        dense = np.diag(diag * s * s)
        ij = np.arange(n - 1)
        dense[ij, ij + 1] = dense[ij + 1, ij] = off * s[:-1] * s[1:]
        spectrum = np.sort(np.linalg.eigvalsh(dense))
        for lam in rng.uniform(spectrum[0] - 1.0, spectrum[-1] + 1.0, 6):
            if np.min(np.abs(spectrum - lam)) < 1e-9:
                continue
            if sturm.count_below(pen, float(lam)) != int(np.sum(spectrum < lam)):
                return False, f"count mismatch at trial {trial}"
        lam = float(np.median(spectrum))
        if np.min(np.abs(spectrum - lam)) < 1e-10:
            lam += 1e-6
        got = sturm.eigenvalues_below(pen, lam, 1e-11)
        want = spectrum[spectrum < lam]
        if len(got) != len(want):
            return False, f"eigenvalue count mismatch at trial {trial}"
        if len(want):
            worst_val = max(worst_val, float(np.max(np.abs(np.array(got) - want))))
    return worst_val <= 1e-9, f"50 pencils; worst eigenvalue deviation {worst_val:.2e}"


def probe_config(flux="0", y0=1.0, p="1", numerics=None):
    """The threshold probe's circle config: at p = 1 and integral flux its
    essential spectrum starts at 1/4, inside the default window."""
    return _circle_config(
        p=p, flux=flux, y0=y0,
        numerics=numerics or Numerics(grids=(1000, 2000), domains=(8.0, 16.0, 32.0),
                                      lambda_grid=(0.05, 0.5, 46)))


def _in_window(config, lambda_grid):
    """`config` with the lambda window (lo, hi, count)."""
    return replace(config, numerics=replace(config.numerics, lambda_grid=lambda_grid))


def _conclusive(est) -> bool:
    """A threshold estimate that the probe found and could judge."""
    return est.value is not None and not est.inconclusive


def criterion_3():
    """Scalar threshold at p=1: probe finds 1/4 within 0.02."""
    est = assemble.threshold_probe(probe_config())
    ok = _conclusive(est) and abs(est.value - 0.25) <= 0.02
    return ok, f"estimate {est.value} +- {est.error:.3f}, predicted {est.predicted}"


def criterion_4():
    """Flux switch: half-integral flux kills the essential spectrum."""
    rep = assemble.global_counting(_in_window(probe_config(flux="0.5"), (0.1, 1.0, 10)))
    pred = rep.prediction
    est = assemble.threshold_probe(probe_config(flux="1"))
    ok = (pred.is_pure_point and rep.stable and _conclusive(est)
          and abs(est.value - 0.25) <= 0.02)
    return ok, (f"mu=0.5: {pred.classification}, counts stable={rep.stable}; "
                f"mu=1: threshold {est.value}")


#: the Weyl-law experiment of each growth regime, on the circle S^1(2 pi)
WEYL_EXPERIMENTS = {
    "p1": _circle_config(    # N ~ C1 lambda, C1 = 1/2
        p="1", flux="0.5",
        numerics=Numerics(grids=(2500, 5000), domains=(6.5, 8.5),
                          lambda_grid=(120.0, 1200.0, 16), lambda_scale="log")),
    "log": _circle_config(   # N ~ C2 lambda log lambda, C2 = 1/2
        p="0.5", flux="0.5",
        numerics=Numerics(grids=(8000, 16000), domains=(80.0, 96.0),
                          lambda_grid=(30.0, 300.0, 16), lambda_scale="log")),
    "zeta": _circle_config(  # N ~ C3 lambda^2, C3 from zeta values
        p="0.25", potential=RadialPotential(poly=((1.0, 0.5),)),
        numerics=Numerics(grids=(70000, 140000), domains=(1400.0, 1680.0),
                          lambda_grid=(10.0, 100.0, 16), lambda_scale="log")),
}


def _weyl_run(name):
    """Counting table, Weyl fit and predicted constant of a Weyl experiment."""
    rep = assemble.global_counting(WEYL_EXPERIMENTS[name])
    return rep, assemble.weyl_fit(rep), rep.prediction.weyl_constant


def criterion_5():
    """Weyl law at p=1: exponent 1 +- 0.05, constant within 10% of C1=1/2."""
    rep, fit, c1 = _weyl_run("p1")
    ok = (rep.stable and abs(fit.exponent - 1.0) <= 0.05
          and abs(fit.constant / c1 - 1.0) <= 0.10)
    return ok, (f"exponent {fit.exponent:.4f}, constant {fit.constant:.4f} "
                f"vs C1 {c1:.4f} ({100 * (fit.constant / c1 - 1):+.1f}%)")


def criterion_6():
    """Log regime p = 1/n: slope of N/lambda against log lambda is C2=1/2."""
    rep, fit, c2 = _weyl_run("log")
    ok = rep.stable and abs(fit.constant / c2 - 1.0) <= 0.15
    return ok, (f"C2 fit {fit.constant:.4f} vs {c2:.4f} "
                f"({100 * (fit.constant / c2 - 1):+.1f}%)")


def criterion_7():
    """Power regime p < 1/n with a boundary potential: C3 from zeta values."""
    rep, fit, c3 = _weyl_run("zeta")
    tail = rep.prediction.c3_tail
    ok = (rep.stable and abs(fit.exponent - 2.0) <= 0.1
          and abs(fit.constant / c3 - 1.0) <= 0.15
          and tail is not None and tail < 1e-9 * c3)
    return ok, (f"exponent {fit.exponent:.4f}, constant {fit.constant:.4f} vs "
                f"C3 {c3:.6f} (tail {tail:.1e}, {100 * (fit.constant / c3 - 1):+.1f}%)")


def criterion_8():
    """Form thresholds n=3, k=1, p=1: sectors at 0 and 1."""
    cfg = ProblemConfig(
        geometry=EndGeometry(3, 1, 1.0),
        cross_section=builtin_cross_section("square_torus", side=2 * math.pi, dim=2),
        degree=1,
        numerics=Numerics(grids=(1000, 2000), domains=(8.0, 16.0, 32.0)))
    e0 = assemble.threshold_probe(_in_window(cfg, (0.005, 0.3, 31)),
                                  sectors={red.SECTOR_FORM_0})
    e1 = assemble.threshold_probe(_in_window(cfg, (0.8, 1.3, 51)),
                                  sectors={red.SECTOR_FORM_1})
    ok = (_conclusive(e0) and abs(e0.value - 0.0) <= 0.03
          and _conclusive(e1) and abs(e1.value - 1.0) <= 0.05)
    return ok, f"sector0 {e0.value:.4f} (tol 0.03), sector1 {e1.value:.4f} (tol 0.05)"


def criterion_9():
    """p > 1 discreteness: counts below 10 stable under both doublings."""
    cfg = _circle_config(
        p="2", flux="0",
        numerics=Numerics(grids=(1000, 2000), domains=(8.0, 16.0),
                          lambda_grid=(1.0, 10.0, 10)))
    rep = assemble.global_counting(cfg)
    grid_same = all(
        np.array_equal(rep.totals_by_combo[(1000, T)], rep.totals_by_combo[(2000, T)])
        for T in cfg.numerics.domains)
    ok = (rep.stable and grid_same and rep.prediction.is_pure_point
          and rep.n_total[-1] >= 1)
    return ok, (f"N(10) = {int(rep.n_total[-1])}, domain-stable {rep.stable}, "
                f"grid-stable {grid_same}")


def criterion_10():
    """Cut and bump invariance of the p=1 threshold."""
    ests = {f"Y0={y0}": assemble.threshold_probe(probe_config(y0=y0)) for y0 in (1.0, 2.0)}
    ests["bump"] = assemble.threshold_probe(probe_config().with_bump((2.5, 1.0, 5.0)))
    ok = all(_conclusive(e) and abs(e.value - 0.25) <= 0.02 for e in ests.values())
    return ok, ", ".join(f"{k}: {e.value:.4f}" for k, e in ests.items())


def criterion_11():
    """Predicate table: exact, no tolerances."""
    checks = []
    checks.append(("S3 k=2 fully elliptic",
                   criteria.full_ellipticity_forms(4, 2, (1, 0, 0, 1)) is True))
    checks.append(("S1 k=0 not", criteria.full_ellipticity_forms(2, 0, (1, 1)) is False))
    checks.append(("S1 k=1 not", criteria.full_ellipticity_forms(2, 1, (1, 1)) is False))
    checks.append(("T2 k=1 not", criteria.full_ellipticity_forms(3, 1, (1, 2, 1)) is False))
    mag = criteria.magnetic_pure_point(MagneticData(flux=("0.5",)), 2, 1)
    checks.append(("non-integral flux pure point", mag.is_pure_point))
    mag2 = criteria.magnetic_pure_point(MagneticData(flux=("3",)), 2, 1)
    checks.append(("integral flux essential from 1/4",
                   not mag2.is_pure_point and mag2.essential_bottom == 0.25))
    checks.append(("V0 > 0 pure point",
                   criteria.schrodinger_pure_point([(1.0, True)]) is True))
    checks.append(("V0 = 0 not", criteria.schrodinger_pure_point([(0.0, False)]) is False))
    checks.append(("V0 min < 0 not",
                   criteria.schrodinger_pure_point([(-0.1, True)]) is False))
    try:
        parse_config("\n".join([
            "geometry.n = 3", "geometry.p = 1",
            "cross_section.kind = square_torus",
            "cross_section.side = 6.283185307179586",
            "degree = 0",
            "topology.orientable = true", "topology.h1_x = 0"]))
        checks.append(("dimension-3 contradiction rejected", False))
    except ConfigError as exc:
        checks.append(("dimension-3 contradiction rejected",
                       "simultaneously" in str(exc)))
    bad = [name for name, good in checks if not good]
    return not bad, "all exact" if not bad else f"failed: {bad}"


def criterion_12():
    """Magnetic Schrodinger margin: |V0| < c keeps the spectrum discrete."""
    cs = builtin_cross_section("circle", length=2 * math.pi)
    c = criteria.magnetic_schrodinger_bound(cs, ("0.5",))
    cfg = _circle_config(
        p="1", flux="0.5", potential=RadialPotential(poly=((-0.1, 2.0),)),
        numerics=Numerics(grids=(1000, 2000), domains=(8.0, 16.0, 32.0),
                          lambda_grid=(0.5, 6.0, 12)))
    rep = assemble.global_counting(cfg)
    pred = rep.prediction
    ok = (c == 0.25 and pred.is_pure_point and rep.stable
          and rep.n_total[-1] >= 1)
    return ok, (f"c = {c}, classification {pred.classification}, "
                f"stable counts up to 6 (N = {int(rep.n_total[-1])})")


CRITERIA = [
    ("discretization sanity (Dirichlet string)", criterion_1),
    ("inertia/bisection vs dense oracle", criterion_2),
    ("scalar threshold 1/4 at p=1", criterion_3),
    ("Aharonov-Bohm flux switch", criterion_4),
    ("Weyl law p=1 (C1)", criterion_5),
    ("log regime p=1/n (C2)", criterion_6),
    ("power regime p<1/n (C3)", criterion_7),
    ("form-sector thresholds n=3,k=1", criterion_8),
    ("p>1 discreteness", criterion_9),
    ("cut and bump invariance", criterion_10),
    ("predicate table", criterion_11),
    ("magnetic Schrodinger margin", criterion_12),
]


def run_all() -> bool:
    all_ok = True
    for i, (name, fn) in enumerate(CRITERIA, start=1):
        t0 = time.time()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {i:2d} - {name}: {detail} "
              f"({time.time() - t0:.1f}s)")
    return all_ok
