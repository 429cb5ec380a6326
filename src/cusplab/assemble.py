"""Global counting functions, threshold probes, Weyl fits, invariance checks.

This is the layer that turns per-mode counts into the quantities the
analytic layer predicts:

* `global_counting` sums mode counting functions into N(lambda) tables with
  convergence metadata (superposition is exact: the global table is the
  multiplicity-weighted sum of per-mode counts at every lambda).  A
  planner groups each grid's domains whose meshes nest; one stack on the
  group's longest domain (one mesh, one potential row per mode) and one
  Sturm pass over it count all of them.  The lambda window and the study's
  grids and domains all come from `config.numerics`.
* `threshold_probe` estimates the bottom of the essential spectrum as the
  smallest lambda at which counts keep growing linearly with the domain
  length; Dirichlet counts for a flat channel grow like T sqrt(lambda-c)/pi
  per unit length, so half that predicted rate separates real growth from
  boundary effects.
* `weyl_fit` fits the counting table against the predicted law and judges it.
* `cut_invariance_check` / `perturbation_stability_check` verify that the
  probe's output ignores the cut radii `config.check_y0` and the compact
  bump `config.check_bump`; an inconclusive probe leaves the check
  undecided (passed None), never failed.

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


WEYL_EXPONENT_TOL = 0.1     # Weyl verdict: |fitted - predicted exponent|
WEYL_CONSTANT_RTOL = 0.2    # Weyl verdict: |fitted / predicted constant - 1|
EIGEN_CAP = 400             # most eigenvalues `global_counting` lists
RHO_MIN_FACTOR = 0.5        # threshold probe: growth line, a fraction of sqrt(lambda - c)/pi


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
    """Each mode with its discretization target: the Liouville form for
    p <= 1, else the weighted operator.  The targets differ only in their
    potential terms, so `sturm.discretize_stack` assembles them together.
    """
    p = config.geometry.pf
    ops = [(m, red.mode_operator(config, m)) for m in red.enumerate_modes(config, lambda_max)]
    return [(m, red.liouville_transform(op, p) if p <= 1.0 else op) for m, op in ops]


def _nested_groups(config, grid):
    """The planner: the domains of one grid, grouped so that their meshes nest.

    A domain T gets cells_for(grid, T, T0) cells.  For p <= 1 its mesh is
    z0 + (T/cells)*k (`sturm.mesh_for`), so two domains nest exactly when
    their widths T/cells are the same double.  For p > 1 the mesh of T
    spans [0, zmax(e^T)], so every domain is its own group.  Returns lists
    of (domain, cells), each ascending, ordered by their longest domain.
    """
    domains = config.numerics.domains
    groups = {}
    for T in domains:
        cells = sturm.cells_for(grid, T, domains[0])
        groups.setdefault(T / cells if config.geometry.pf <= 1.0 else T, []).append(
            (T, cells))
    return sorted(groups.values(), key=lambda group: group[-1][0])


def _group_totals(ops, lambdas, grid, group):
    """The executor: per-mode counts and weighted totals of one nested group.

    One `sturm.discretize_stack` call assembles every mode on the group's
    longest domain, and one pass counts every domain of the group at its
    interior node count.  Returns (counts (S, M, L), totals (S, L), stack).
    """
    if not ops:
        z = np.zeros((len(group), 0, len(lambdas)), dtype=np.int64)
        return z, z.sum(axis=1), ([], None, None)
    domain, cells = group[-1]
    stack = sturm.discretize_stack([op for _, op in ops], domain, cells)
    counts = sturm.count_below_stack(*stack, lambdas,
                                     sizes=[cells - 1 for _, cells in group])
    # the threshold probe and the Weyl fit read these counts as monotone in lambda
    for (domain, _), c in zip(group, counts):
        dropped = (np.diff(c, axis=1) < 0).any(axis=1)
        if dropped.any():
            mode = ops[int(np.argmax(dropped))][0]
            raise AssembleError(f"internal error: counts decreased in lambda for mode "
                                f"{mode.name} at grid={grid}, domain={domain!r}")
    mult = np.array([m.multiplicity for m, _ in ops], dtype=np.int64)
    return counts, (mult[:, None] * counts).sum(axis=1), stack


def global_counting(config: ProblemConfig, with_eigenvalues: bool = False,
                    sectors=None) -> SpectrumReport:
    """Counting table N(lambda) over the configured (grid x domain) study.

    The lambda window is `config.numerics.lambdas()`.  The table reported
    is the finest combination; `totals_by_combo` keeps all of them for
    stability assessment.  Per grid, each group of nested domains
    (`_nested_groups`) is assembled as one stack on its longest domain and
    counted in one pass; the eigenvalue listing takes its pencils from the
    finest stack's rows.  If the analytic layer predicts
    essential spectrum the table is labeled truncation-dependent: counts
    then grow with the domain and carry no spectral meaning of their own.
    """
    lambdas = config.numerics.lambdas()
    if not np.all(np.diff(lambdas) > 0):
        raise AssembleError("lambdas must be strictly increasing")
    prediction = classify(config)
    ops = _mode_operators(config, float(lambdas[-1]))
    if sectors is not None:
        ops = [(m, op) for m, op in ops if m.sector in sectors]
    grids = config.numerics.grids
    domains = config.numerics.domains
    gf = grids[-1]
    totals, monotone = {}, True
    for g in grids:
        for group in _nested_groups(config, g):
            stack = None   # free the previous group's stack before assembling this one
            counts, group_totals, stack = _group_totals(ops, lambdas, g, group)
            for (T, _), t in zip(group, group_totals):
                totals[(g, T)] = t
            # Dirichlet bracketing: counts may not fall as the domain grows.  Within
            # a group the counts are running sums over one pass, so only a lane
            # re-counted after a pivot breakdown can trip this; domains in
            # different groups (p > 1, or unequal widths) are not compared.
            if np.any(np.diff(group_totals, axis=0) < 0):
                monotone = False
    # the finest combo (gf, domains[-1]) closes the last group, so the loop
    # leaves its counts and its stack (the eigenvalue listing's pencils)
    finest = counts[-1]
    totals = {(g, T): totals[(g, T)] for g in grids for T in domains}   # combo order
    stable = len(domains) >= 2 and bool(
        np.array_equal(totals[(gf, domains[-1])], totals[(gf, domains[-2])]))

    mode_results = [ModeResult(mode=m, counts=finest[i]) for i, (m, _) in enumerate(ops)]
    if with_eigenvalues:
        top = float(lambdas[-1])
        total_top = int(totals[(gf, domains[-1])][-1])
        if total_top > EIGEN_CAP:
            raise AssembleError(
                f"{total_top} eigenvalues below {top:g} exceed the listing cap "
                f"({EIGEN_CAP}); lower the top of numerics.lambda_grid")
        diags, off, mass = stack
        for res, diag in zip(mode_results, diags):
            pen = sturm.TridiagonalPencil(diag=diag, offdiag=off, mass=mass)
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
    value: Optional[float]       # None: counts stable across the window
    error: float
    predicted: Optional[float]
    inconclusive: bool
    notes: tuple = ()

    @property
    def no_growth(self) -> bool:
        return self.value is None

    @property
    def consistent(self) -> Optional[bool]:
        if self.no_growth:
            return self.predicted is None
        if self.inconclusive:
            return None
        if self.predicted is None:
            return False
        return abs(self.value - self.predicted) <= self.error


def threshold_probe(config: ProblemConfig, sectors=None) -> ThresholdEstimate:
    """Estimate inf of the essential spectrum from count growth in length.

    The probe scans the configured lambda window.  The estimate is the
    first lambda on the grid where counts differ across the two largest
    domains, backed off by half a grid step; the error bar combines the
    grid resolution with the (pi/T_max)^2 detection floor of a Dirichlet
    channel of length T_max.  Growth must be sustained: above the
    candidate, least-squares count growth per unit length has to exceed
    RHO_MIN_FACTOR * sqrt(lambda - c)/pi, else the probe is inconclusive.
    """
    num = config.numerics
    if len(num.domains) < 3:
        raise AssembleError("threshold probe needs at least 3 domain lengths")
    report = global_counting(config, sectors=sectors)
    lambdas, predicted = report.lambda_grid, report.prediction.essential_bottom
    if not report.domain_monotone:
        raise AssembleError("internal error: counts decreased under domain "
                            "growth during the probe")
    gf = num.grids[-1]
    domains = num.domains
    totals = {T: report.totals_by_combo[(gf, T)] for T in domains}
    unstable = totals[domains[-1]] != totals[domains[-2]]
    step = float(np.max(np.diff(lambdas)))
    error = step + (math.pi / domains[-1]) ** 2     # grid resolution + detection floor
    if not unstable.any():
        return ThresholdEstimate(
            value=None, error=error, predicted=predicted, inconclusive=False,
            notes=("counts stable under domain growth across the window: "
                   "no essential spectrum detected",))

    first = int(np.argmax(unstable))
    c_hat = float(lambdas[first]) - 0.5 * step
    above = np.arange(len(lambdas)) >= first
    stacked = np.stack([totals[T] for T in domains]).astype(float)
    slopes = np.polyfit(np.array(domains), stacked, 1)[0]
    rho_min = RHO_MIN_FACTOR * np.sqrt(np.maximum(
        lambdas - c_hat, 0.0)) / math.pi
    growing = bool(np.any(slopes[above] >= rho_min[above]) and slopes[above].max() > 0)
    if not growing:
        return ThresholdEstimate(
            value=c_hat, error=error, predicted=predicted, inconclusive=True,
            notes=("instability without sustained growth: inconclusive",))
    return ThresholdEstimate(value=c_hat, error=error, predicted=predicted,
                             inconclusive=False)


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
    consistent: Optional[bool]
    notes: tuple = ()


def weyl_fit(report: SpectrumReport) -> WeylFit:
    """Least-squares fit of the counting table against the predicted law.

    The regime, its exponent q and its constant come from
    `report.prediction`.  Power regimes fit log N = a log lambda + b on the
    top 80 percent of the log-lambda window (the law is asymptotic) and then
    re-extract the constant at q.  The log regime keeps the exponent fixed
    at q = n/2 and fits N/lambda^q = C2 log lambda + b; the intercept
    absorbs the subleading lambda^q term, which is far from negligible at
    desk scale, and C2 is the reported slope.

    `consistent` applies the WEYL_* gates to the exponent and, if predicted,
    the constant.  It is True for essential spectrum (the counts are
    truncation-dependent; the fit is informational) and None, with a note,
    for a pure-point table that is not domain-stable.
    """
    pred = report.prediction
    q = pred.weyl_exponent
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
    fixed = pred.weyl_regime == criteria.LOG_LAW
    if fixed:
        u = ntot / lam**q
        coef = np.polyfit(loglam, u, 1)
        constant = float(coef[0])
        resid = u - (constant * loglam + float(coef[1]))
        quality = float(np.sqrt(np.mean(resid**2)) / max(np.mean(u), 1e-300))
        exponent, model = q, "N = (C log l + b) l^(n/2)"
    else:
        logn = np.log(ntot)
        coef = np.polyfit(loglam, logn, 1)
        exponent = float(coef[0])
        resid = logn - np.polyval(coef, loglam)
        quality = float(np.sqrt(np.mean(resid**2)))
        xq = lam**q
        constant = float(np.dot(ntot, xq) / np.dot(xq, xq))
        model = "N = C l^a; C re-fit at the regime exponent"
    const, notes = pred.weyl_constant, ()
    if not pred.is_pure_point:
        consistent = True
    elif not report.stable:
        consistent, notes = None, ("counting table is not domain-stable: the two longest "
                                   "domains count differently",)
    else:
        consistent = (abs(exponent - q) <= WEYL_EXPONENT_TOL
                      and (const is None or abs(constant / const - 1.0) <= WEYL_CONSTANT_RTOL))
    return WeylFit(exponent=exponent, constant=constant, exponent_fixed=fixed,
                   quality=quality, lambda_range=(float(lam[0]), float(lam[-1])),
                   n_range=(int(ntot[0]), int(ntot[-1])), model=model,
                   consistent=consistent, notes=notes)


# ---------------------------------------------------------------------------
# invariance checks
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    passed: Optional[bool]
    variants: dict
    notes: tuple = ()


def _agreement(probes: dict, stable_note: str, mixed_note: str):
    """(passed, notes) of threshold probes that must agree, keyed by name.

    passed is False only for a conclusive disagreement: stable counts
    against sustained growth, or estimates outside each other's error bars.
    Otherwise an inconclusive probe makes it None, with a note naming it.
    """
    sure = [e for e in probes.values() if not e.inconclusive]
    growing = [e for e in sure if not e.no_growth]
    if growing and len(growing) < len(sure):
        return False, (mixed_note,)
    if any(abs(a.value - b.value) > a.error + b.error for a in growing for b in growing):
        return False, ()
    unsure = tuple(f"{name}: {note}" for name, e in probes.items() if e.inconclusive
                   for note in e.notes)
    if unsure:
        return None, unsure
    return True, () if growing else (stable_note,)


def cut_invariance_check(config: ProblemConfig) -> CheckReport:
    """Threshold estimates must agree for the cut radii Y0 in `config.check_y0`.

    Individual eigenvalues may move (only the essential spectrum is
    invariant under removing a compact piece), so pure-point problems pass
    by exhibiting stable counts for every Y0.
    """
    variants = {y0: threshold_probe(config.with_y0(y0)) for y0 in config.check_y0}
    passed, notes = _agreement(
        {f"Y0={y0!r}": e for y0, e in variants.items()},
        "discrete spectrum at every cut: counts stable (individual eigenvalues may differ)",
        "mixed stability across cuts")
    return CheckReport(passed=passed, variants=variants, notes=notes)


def perturbation_stability_check(config: ProblemConfig) -> CheckReport:
    """Threshold estimates with and without the bump `config.check_bump` must agree."""
    variants = {"base": threshold_probe(config),
                "bumped": threshold_probe(config.with_bump(config.check_bump))}
    passed, notes = _agreement(
        variants, "discrete spectrum with and without the bump: counts stable",
        "stability changed under the bump")
    return CheckReport(passed=passed, variants=variants, notes=notes)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def report_to_dict(report: SpectrumReport) -> dict:
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
        "prediction": criteria.prediction_to_dict(report.prediction),
        "meta": {k: list(v) if isinstance(v, tuple) else v
                 for k, v in report.meta.items()},
        "notes": list(report.notes),
    }


def report_two_column(report: SpectrumReport) -> str:
    """Plot-ready dump: lambda and N separated by whitespace."""
    return "\n".join(f"{float(l)!r} {int(n)}"
                     for l, n in zip(report.lambda_grid, report.n_total)) + "\n"
