"""Global counting functions, threshold probes, Weyl fits, invariance checks.

This is the layer that turns per-mode counts into the quantities the
analytic layer predicts:

* `global_counting` sums mode counting functions into N(lambda) tables with
  convergence metadata (superposition is exact: the global table is the
  multiplicity-weighted sum of per-mode counts at every lambda).
* `threshold_probe` estimates the bottom of the essential spectrum as the
  smallest lambda at which counts keep growing linearly with the domain
  length; Dirichlet counts for a flat channel grow like T sqrt(lambda-c)/pi
  per unit length, so half that predicted rate separates real growth from
  boundary effects.
* `weyl_fit` fits the counting table against the regime's asymptotic law.
* `cut_invariance_check` / `perturbation_stability_check` verify that the
  probe's output ignores the cut location and compact perturbations.

All aggregation is deterministic: modes are processed in their enumerated
order and counts are integers, so reports are identical from run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import criteria, reduce as red, sturm
from .criteria import Prediction, classify
from .model import ProblemConfig
from .reduce import ModeSpec


class AssembleError(ValueError):
    pass


@dataclass
class ModeResult:
    mode: ModeSpec
    counts: np.ndarray
    eigenvalues: Optional[list] = None


@dataclass
class SpectrumReport:
    lambda_grid: np.ndarray
    modes: List[ModeResult]
    n_total: np.ndarray
    totals_by_combo: dict
    stable: bool
    domain_monotone: bool
    truncation_dependent: bool
    prediction: Prediction
    meta: dict = field(default_factory=dict)
    notes: tuple = ()


def _mode_operators(config: ProblemConfig, lambda_max: float):
    modes = red.enumerate_modes(config, lambda_max)
    return [(m, red.mode_operator(config, m)) for m in modes]


def _discretize_mode(config, op, domain, cells):
    """Pencil of one mode operator: Liouville form for p <= 1, else weighted.

    For p <= 1 the modes share a flat mesh and differ in the potential W_m;
    for p > 1 the weighted forms share weights and differ in the potential.
    """
    p = config.geometry.pf
    target = red.liouville_transform(op, p) if p <= 1.0 else op
    return sturm.discretize(target, domain, cells)


def _stack_for_combo(config, ops, grid, domain, base_domain):
    """Assemble every mode on the shared mesh of one (grid, domain) combo.

    Returns (diags (M, N), off (N-1,), mass (N,)).
    """
    cells = sturm.cells_for(grid, domain, base_domain)
    pencils = [_discretize_mode(config, op, domain, cells) for _, op in ops]
    diags = np.stack([pen.diag for pen in pencils])
    return diags, pencils[0].offdiag, pencils[0].mass


def _combo_totals(config, ops, lambdas, grid, domain, base_domain):
    if not ops:
        z = np.zeros((0, len(lambdas)), dtype=np.int64)
        return z, np.zeros(len(lambdas), dtype=np.int64)
    diags, off, mass = _stack_for_combo(config, ops, grid, domain, base_domain)
    counts = sturm.count_below_stack(diags, off, mass, np.asarray(lambdas))
    # the threshold probe and the Weyl fit read these counts as monotone in lambda
    dropped = (np.diff(counts, axis=1) < 0).any(axis=1)
    if dropped.any():
        mode = ops[int(np.argmax(dropped))][0]
        raise AssembleError(f"internal error: counts decreased in lambda for mode "
                            f"{mode.name} at grid={grid}, domain={domain!r}")
    mult = np.array([m.multiplicity for m, _ in ops], dtype=np.int64)
    return counts, (mult[:, None] * counts).sum(axis=0)


def global_counting(config: ProblemConfig, lambdas=None,
                    with_eigenvalues: bool = False,
                    eigen_cap: int = 400, sectors=None) -> SpectrumReport:
    """Counting table N(lambda) over the configured (grid x domain) study.

    The table reported is the finest combination; `totals_by_combo` keeps
    all of them for stability assessment.  If the analytic layer predicts
    essential spectrum the table is labeled truncation-dependent: counts
    then grow with the domain and carry no spectral meaning of their own.
    """
    lambdas = np.asarray(config.numerics.lambdas() if lambdas is None else lambdas,
                         dtype=float)
    if not np.all(np.diff(lambdas) > 0):
        raise AssembleError("lambdas must be strictly increasing")
    prediction = classify(config)
    ops = _mode_operators(config, float(lambdas[-1]))
    if sectors is not None:
        ops = [(m, op) for m, op in ops if m.sector in sectors]
    grids = config.numerics.grids
    domains = config.numerics.domains
    combos = [(g, T) for g in grids for T in domains]
    results = [_combo_totals(config, ops, lambdas, g, T, domains[0])
               for g, T in combos]
    per_mode = {c: r[0] for c, r in zip(combos, results)}
    totals = {c: r[1] for c, r in zip(combos, results)}

    # Domain monotonicity (Dirichlet bracketing) is exact only when the
    # meshes nest: p <= 1 and the mesh width unchanged by the cell scaling.
    gf = grids[-1]
    monotone = True
    if config.geometry.pf <= 1.0:
        for g in grids:
            hs = [T / sturm.cells_for(g, T, domains[0]) for T in domains]
            nested = all(abs(h - hs[0]) <= 1e-12 * hs[0] for h in hs)
            if not nested:
                continue
            for i in range(len(domains) - 1):
                if np.any(totals[(g, domains[i])] > totals[(g, domains[i + 1])]):
                    monotone = False
    stable = len(domains) >= 2 and bool(
        np.array_equal(totals[(gf, domains[-1])], totals[(gf, domains[-2])]))

    mode_results = []
    finest = per_mode[(gf, domains[-1])]
    for i, (m, op) in enumerate(ops):
        mode_results.append(ModeResult(mode=m, counts=finest[i]))
    if with_eigenvalues:
        top = float(lambdas[-1])
        total_top = int(totals[(gf, domains[-1])][-1])
        if total_top > eigen_cap:
            raise AssembleError(
                f"{total_top} eigenvalues below {top:g} exceed the listing cap "
                f"({eigen_cap}); lower lambda_max or raise eigen_cap")
        cells = sturm.cells_for(gf, domains[-1], domains[0])
        for res, (m, op) in zip(mode_results, ops):
            pen = _discretize_mode(config, op, domains[-1], cells)
            res.eigenvalues = sturm.eigenvalues_below(pen, top, config.numerics.tol)

    n_total = totals[(gf, domains[-1])]
    notes = []
    truncation = not prediction.is_pure_point
    if truncation:
        notes.append("prediction has essential spectrum: counts are "
                     "truncation-dependent and grow with the domain")
    if config.degree >= 1:
        notes.append("form counts cover the harmonic sectors only; the coexact "
                     "tower is discrete and enters constants analytically")
    if not monotone:
        notes.append("internal error: counts decreased under domain growth")
    return SpectrumReport(
        lambda_grid=lambdas, modes=mode_results, n_total=n_total,
        totals_by_combo=totals, stable=stable, domain_monotone=monotone,
        truncation_dependent=truncation, prediction=prediction,
        meta={"grids": grids, "domains": domains,
              "y0": config.geometry.y0},
        notes=tuple(notes))


# ---------------------------------------------------------------------------
# threshold probe
# ---------------------------------------------------------------------------

@dataclass
class ThresholdEstimate:
    value: Optional[float]
    error: float
    predicted: Optional[float]
    inconclusive: bool
    no_growth: bool
    rates: dict
    notes: tuple = ()

    @property
    def consistent(self) -> Optional[bool]:
        if self.no_growth:
            return self.predicted is None
        if self.value is None or self.inconclusive:
            return None
        if self.predicted is None:
            return False
        return abs(self.value - self.predicted) <= self.error


def threshold_probe(config: ProblemConfig, lambdas=None, sectors=None,
                    predicted=None) -> ThresholdEstimate:
    """Estimate inf of the essential spectrum from count growth in length.

    The estimate is the first lambda on the grid where counts differ across
    the two largest domains, backed off by half a grid step; the error bar
    combines the grid resolution with the (pi/T_max)^2 detection floor of a
    Dirichlet channel of length T_max.  Growth must be sustained: above the
    candidate, least-squares count growth per unit length has to exceed
    rho_min_factor * sqrt(lambda - c)/pi, else the probe is inconclusive.
    """
    num = config.numerics
    if len(num.domains) < 3:
        raise AssembleError("threshold probe needs at least 3 domain lengths")
    lambdas = np.asarray(num.lambdas() if lambdas is None else lambdas, dtype=float)
    report = global_counting(config, lambdas=lambdas, sectors=sectors)
    prediction = report.prediction
    if predicted is None:
        predicted = prediction.essential_bottom
    if not report.domain_monotone:
        raise AssembleError("internal error: counts decreased under domain "
                            "growth during the probe")
    gf = num.grids[-1]
    domains = num.domains
    tmax = domains[-1]
    totals = {T: report.totals_by_combo[(gf, T)] for T in domains}
    unstable = totals[domains[-1]] != totals[domains[-2]]
    step = float(np.max(np.diff(lambdas)))
    detection = (math.pi / tmax) ** 2
    rates = {}
    ts = np.array(domains)
    stacked = np.stack([totals[T] for T in domains]).astype(float)
    slopes = np.polyfit(ts, stacked, 1)[0]
    for i, lam in enumerate(lambdas):
        rates[float(lam)] = float(slopes[i])

    if not unstable.any():
        return ThresholdEstimate(
            value=None, error=detection + step, predicted=predicted,
            inconclusive=False, no_growth=True, rates=rates,
            notes=("counts stable under domain growth across the window: "
                   "no essential spectrum detected",))

    first = int(np.argmax(unstable))
    c_hat = float(lambdas[first]) - 0.5 * step
    above = np.arange(len(lambdas)) >= first
    rho_min = num.rho_min_factor * np.sqrt(np.maximum(
        lambdas - c_hat, 0.0)) / math.pi
    growing = bool(np.any(slopes[above] >= rho_min[above]) and slopes[above].max() > 0)
    error = step + detection
    if not growing:
        return ThresholdEstimate(
            value=c_hat, error=error, predicted=predicted, inconclusive=True,
            no_growth=False, rates=rates,
            notes=("instability without sustained growth: inconclusive",))
    return ThresholdEstimate(
        value=c_hat, error=error, predicted=predicted, inconclusive=False,
        no_growth=False, rates=rates)


# ---------------------------------------------------------------------------
# Weyl fits
# ---------------------------------------------------------------------------

@dataclass
class WeylFit:
    exponent: float
    constant: float
    exponent_fixed: bool
    quality: float
    lambda_range: tuple
    n_range: tuple
    model: str


def weyl_fit(report: SpectrumReport, regime: str, n: int, p) -> WeylFit:
    """Least-squares fit of the counting table against the regime's law.

    Power regimes fit log N = a log lambda + b on the top 80 percent of the
    log-lambda window (the law is asymptotic) and then re-extract the
    constant at the theoretical exponent.  The log regime keeps the
    exponent fixed at n/2 and fits N/lambda^(n/2) = C2 log lambda + b; the
    intercept absorbs the subleading lambda^(n/2) term, which is far from
    negligible at desk scale, and C2 is the reported slope.
    """
    lam = np.asarray(report.lambda_grid, dtype=float)
    ntot = np.asarray(report.n_total, dtype=float)
    pos = ntot > 0
    if not pos.any() or ntot.max() < 2:
        raise AssembleError("no growth: counting table is flat or empty")
    lam, ntot = lam[pos], ntot[pos]
    loglam = np.log(lam)
    span = loglam[-1] - loglam[0]
    if span < math.log(10.0) * 0.999:
        raise AssembleError(
            f"insufficient data: need a decade of lambda, have {span / math.log(10.0):.2f} "
            f"decades with N up to {int(ntot.max())}")
    if ntot.max() < 30:
        raise AssembleError(
            f"insufficient data: need N >= 30 at the top, achieved {int(ntot.max())}")
    keep = loglam >= loglam[0] + 0.2 * span
    lam, ntot, loglam = lam[keep], ntot[keep], loglam[keep]
    pf = float(p)
    if regime == criteria.LOG_LAW:
        q = n / 2.0
        u = ntot / lam**q
        coef = np.polyfit(loglam, u, 1)
        c2, b = float(coef[0]), float(coef[1])
        resid = u - (c2 * loglam + b)
        quality = float(np.sqrt(np.mean(resid**2)) / max(np.mean(u), 1e-300))
        return WeylFit(exponent=q, constant=c2, exponent_fixed=True,
                       quality=quality,
                       lambda_range=(float(lam[0]), float(lam[-1])),
                       n_range=(int(ntot[0]), int(ntot[-1])),
                       model="N = (C log l + b) l^(n/2)")
    q = n / 2.0 if regime == criteria.POWER_N2 else 1.0 / (2.0 * pf)
    logn = np.log(ntot)
    coef = np.polyfit(loglam, logn, 1)
    a = float(coef[0])
    resid = logn - np.polyval(coef, loglam)
    quality = float(np.sqrt(np.mean(resid**2)))
    xq = lam**q
    constant = float(np.dot(ntot, xq) / np.dot(xq, xq))
    return WeylFit(exponent=a, constant=constant, exponent_fixed=False,
                   quality=quality,
                   lambda_range=(float(lam[0]), float(lam[-1])),
                   n_range=(int(ntot[0]), int(ntot[-1])),
                   model="N = C l^a; C re-fit at the regime exponent")


# ---------------------------------------------------------------------------
# invariance checks
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    passed: bool
    variants: dict
    notes: tuple = ()


def cut_invariance_check(config: ProblemConfig, y0_list=None,
                         lambdas=None) -> CheckReport:
    """Threshold estimates must agree for different cut radii Y0.

    Individual eigenvalues may move (only the essential spectrum is
    invariant under removing a compact piece), so pure-point problems pass
    by exhibiting stable counts for every Y0.
    """
    y0s = tuple(y0_list) if y0_list else (config.check_y0 or ())
    if len(y0s) < 2:
        raise AssembleError("cut check needs at least 2 values of Y0")
    variants = {}
    for y0 in y0s:
        variants[y0] = threshold_probe(config.with_y0(y0), lambdas=lambdas)
    ests = list(variants.values())
    notes = []
    if all(e.no_growth for e in ests):
        passed = True
        notes.append("discrete spectrum at every cut: counts stable "
                     "(individual eigenvalues may differ)")
    elif any(e.no_growth or e.inconclusive for e in ests):
        passed = False
        notes.append("mixed stability across cuts")
    else:
        passed = all(abs(a.value - b.value) <= a.error + b.error
                     for a in ests for b in ests)
    return CheckReport(passed=passed,
                       variants={y0: e for y0, e in variants.items()},
                       notes=tuple(notes))


def perturbation_stability_check(config: ProblemConfig, bump=None,
                                 lambdas=None) -> CheckReport:
    """Threshold estimates with and without a compact bump must agree."""
    bump = tuple(bump) if bump else config.check_bump
    if bump is None:
        raise AssembleError("perturbation check needs a bump (center,width,height)")
    base = threshold_probe(config, lambdas=lambdas)
    bumped = threshold_probe(config.with_bump(bump), lambdas=lambdas)
    notes = []
    if base.no_growth and bumped.no_growth:
        passed = True
        notes.append("discrete spectrum with and without the bump: counts stable")
    elif base.no_growth != bumped.no_growth or base.inconclusive or bumped.inconclusive:
        passed = False
        notes.append("stability changed under the bump")
    else:
        passed = abs(base.value - bumped.value) <= base.error + bumped.error
    return CheckReport(passed=passed, variants={"base": base, "bumped": bumped},
                       notes=tuple(notes))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def report_to_csv(report: SpectrumReport) -> str:
    header = ["lambda", "N_total"] + [f"N_mode_{r.mode.name}" for r in report.modes]
    lines = [",".join(header)]
    for i, lam in enumerate(report.lambda_grid):
        row = [repr(float(lam)), str(int(report.n_total[i]))]
        row += [str(int(r.counts[i])) for r in report.modes]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def report_to_dict(report: SpectrumReport) -> dict:
    from .criteria import prediction_to_dict

    return {
        "lambda": [float(x) for x in report.lambda_grid],
        "N_total": [int(x) for x in report.n_total],
        "modes": [{
            "label": r.mode.name,
            "nu": r.mode.nu,
            "multiplicity": r.mode.multiplicity,
            "sector": r.mode.sector,
            "counts": [int(c) for c in r.counts],
            "eigenvalues": r.eigenvalues,
        } for r in report.modes],
        "totals_by_combo": {
            f"grid={g},domain={t!r}": [int(x) for x in v]
            for (g, t), v in sorted(report.totals_by_combo.items())},
        "stable": report.stable,
        "domain_monotone": report.domain_monotone,
        "truncation_dependent": report.truncation_dependent,
        "prediction": prediction_to_dict(report.prediction),
        "meta": {k: list(v) if isinstance(v, tuple) else v
                 for k, v in report.meta.items()},
        "notes": list(report.notes),
    }


def report_two_column(report: SpectrumReport) -> str:
    """Plot-ready dump: lambda and N separated by whitespace."""
    return "\n".join(f"{float(l)!r} {int(n)}"
                     for l, n in zip(report.lambda_grid, report.n_total)) + "\n"
