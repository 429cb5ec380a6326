"""Global counting functions, threshold probes, Weyl fits, invariance checks.

This is the layer that turns per-mode counts into the quantities the
analytic layer predicts:

* `global_counting` sums mode counting functions into N(lambda) tables with
  convergence metadata (superposition is exact: the global table is the
  multiplicity-weighted sum of per-mode counts at every lambda).  A
  planner groups each grid's domains whose meshes nest; one stack on the
  group's longest domain (one mesh, one potential row per mode) and one
  Sturm pass over it count all of them.  Counts that fall in lambda or
  under domain growth (Dirichlet bracketing) within a group raise an
  internal error.  The lambda window and the study's grids and domains all
  come from `config.numerics`.
* `threshold_probe` estimates the bottom of the essential spectrum as the
  first lambda at which the two longest domains count differently, and
  judges that growth by the lanes the Sturm pass settled: a lane that
  walls inside the longest domain has a final count, and only an open lane
  of a mode that is a continuous channel of the reduction
  (`reduce.mode_threshold`) shows essential spectrum.
* `weyl_fit` fits the counting table against the predicted law and judges it.
* `cut_invariance_check` / `perturbation_stability_check` verify that the
  probe's output ignores the cut radii `config.check_y0` and the compact
  bump `config.check_bump`; an inconclusive probe leaves the check
  undecided (passed None), never failed.

The layer returns data only; `cli` writes every report.  All aggregation
is deterministic: modes are processed in their enumerated order and counts
are integers, so reports are identical from run to run.
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


class AssembleError(ValueError):
    pass


@dataclass
class ModeResult:
    mode: ModeSpec
    counts: np.ndarray
    settled: np.ndarray     # per lambda: the lane walls inside the longest domain
    eigenvalues: Optional[list] = None


@dataclass
class SpectrumReport:
    lambda_grid: np.ndarray
    modes: List[ModeResult]
    totals_by_combo: dict
    stable: bool
    prediction: Prediction
    meta: dict = field(default_factory=dict)
    notes: tuple = ()

    @property
    def n_total(self) -> np.ndarray:     # the finest grid on the longest domain
        return self.totals_by_combo[(self.meta["grids"][-1], self.meta["domains"][-1])]

    @property
    def truncation_dependent(self) -> bool:
        return not self.prediction.is_pure_point


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
    interior node count.  Returns (counts (S, M, L), the longest domain's
    settled mask (M, L), totals (S, L), stack).
    """
    if not ops:
        z = np.zeros((len(group), 0, len(lambdas)), dtype=np.int64)
        return z, np.zeros(z.shape[1:], dtype=bool), z.sum(axis=1), ([], None, None)
    domain, cells = group[-1]
    stack = sturm.discretize_stack([op for _, op in ops], domain, cells)
    counts, settled = sturm.count_below_stack(*stack, lambdas,
                                              sizes=[cells - 1 for _, cells in group])
    # the threshold probe and the Weyl fit read these counts as monotone in
    # lambda; Dirichlet bracketing keeps them monotone under domain growth
    for what, axis in (("in lambda", 2), ("under domain growth", 0)):
        dropped = np.argwhere(np.diff(counts, axis=axis) < 0)
        if dropped.size:
            k, i, _ = dropped[0]
            raise AssembleError(
                f"internal error: counts decreased {what} for mode {ops[i][0].name} "
                f"at grid={grid}, domain={group[k + (axis == 0)][0]!r}")
    mult = np.array([m.multiplicity for m, _ in ops], dtype=np.int64)
    return counts, settled[-1], (mult[:, None] * counts).sum(axis=1), stack


def global_counting(config: ProblemConfig, with_eigenvalues: bool = False,
                    sectors=None) -> SpectrumReport:
    """Counting table N(lambda) over the configured (grid x domain) study.

    The lambda window is `config.numerics.lambdas()`.  The table reported
    is the finest combination; `totals_by_combo` keeps all of them for
    stability assessment.  Per grid, each group of nested domains
    (`_nested_groups`) is assembled as one stack on its longest domain and
    counted in one pass; the eigenvalue listing takes its pencils from the
    finest stack's rows, and each `ModeResult` carries the finest grid's
    counts and the longest domain's settled mask.  If the analytic layer
    predicts essential spectrum the table is labeled truncation-dependent:
    counts then grow with the domain and carry no spectral meaning of
    their own.
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
    totals = {}
    for g in grids:
        for group in _nested_groups(config, g):
            stack = None   # free the previous group's stack before assembling this one
            counts, settled, group_totals, stack = _group_totals(ops, lambdas, g, group)
            for (T, _), t in zip(group, group_totals):
                totals[(g, T)] = t
    # the finest combo (gf, domains[-1]) closes the last group, so the loop
    # leaves its counts, settled mask and stack (the listing's pencils)
    totals = {(g, T): totals[(g, T)] for g in grids for T in domains}   # combo order
    stable = len(domains) >= 2 and bool(
        np.array_equal(totals[(gf, domains[-1])], totals[(gf, domains[-2])]))

    mode_results = [ModeResult(mode=m, counts=counts[-1][i], settled=settled[i])
                    for i, (m, _) in enumerate(ops)]
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

    notes = []
    if not prediction.is_pure_point:
        notes.append("prediction has essential spectrum: counts are "
                     "truncation-dependent and grow with the domain")
    if config.degree >= 1:
        notes.append("form counts cover the harmonic sectors only; the coexact "
                     "tower is discrete and enters constants analytically")
    return SpectrumReport(
        lambda_grid=lambdas, modes=mode_results, totals_by_combo=totals,
        stable=stable, prediction=prediction,
        meta={"grids": grids, "domains": domains,
              "y0": config.geometry.y0},
        notes=tuple(notes))


# ---------------------------------------------------------------------------
# threshold probe
# ---------------------------------------------------------------------------

@dataclass
class ThresholdEstimate:
    value: Optional[float]       # None: no growth in the window
    error: float
    predicted: Optional[float]
    top: float                   # the top of the lambda window
    inconclusive: bool
    notes: tuple = ()

    @property
    def no_growth(self) -> bool:
        return self.value is None

    @property
    def consistent(self) -> Optional[bool]:
        """No growth contradicts a predicted bottom c only when c + error
        lies below the window top; c at or above the top agrees, and a c
        within the error bar of the top is undecided (None)."""
        if self.no_growth:
            if self.predicted is None or self.predicted >= self.top:
                return True
            return False if self.predicted + self.error < self.top else None
        if self.inconclusive:
            return None
        if self.predicted is None:
            return False
        return abs(self.value - self.predicted) <= self.error


def require_two_domains(config: ProblemConfig, study: str) -> None:
    """Refuse, before counting, a study of the two longest domains of one."""
    if len(config.numerics.domains) < 2:
        raise AssembleError(f"{study} needs at least 2 domain lengths in numerics.domain_z")


_COUNTS_STABLE = ("counts stable under domain growth across the window: "
                  "no essential spectrum detected")


def threshold_probe(config: ProblemConfig, sectors=None) -> ThresholdEstimate:
    """Estimate inf of the essential spectrum from count growth in length.

    The probe scans the configured lambda window on the finest grid.  The
    estimate is the first lambda where the two longest domains count
    differently, backed off by half a grid step; the error bar combines the
    grid resolution with the (pi/T_max)^2 detection floor of a Dirichlet
    channel of length T_max.  The lanes the longest domain has settled
    (`ModeResult.settled`) judge that difference, at and above the estimate:

    * every lane settled: those counts are final, so the shorter domain was
      too short and nothing grows;
    * an open lane of a mode whose `reduce.mode_threshold` is at most its
      lambda: a continuous channel of the reduction, so the growth is real;
    * else every open lane walls beyond the longest domain: inconclusive.
    """
    require_two_domains(config, "threshold probe")
    num = config.numerics
    report = global_counting(config, sectors=sectors)
    lambdas, predicted = report.lambda_grid, report.prediction.essential_bottom
    gf, (shorter, longest) = num.grids[-1], num.domains[-2:]
    step = float(np.max(np.diff(lambdas)))
    error = step + (math.pi / longest) ** 2     # grid resolution + detection floor

    def estimate(value, inconclusive, note):
        est = ThresholdEstimate(value, error, predicted, float(lambdas[-1]),
                                inconclusive, (note,) if note else ())
        if est.no_growth and est.consistent is None:
            est.notes += (f"the predicted bottom {predicted!r} lies within the error "
                          f"bar of the window top {est.top!r}: its growth cannot show",)
        return est

    if report.stable:
        return estimate(None, False, _COUNTS_STABLE)
    unstable = report.totals_by_combo[(gf, longest)] != report.totals_by_combo[(gf, shorter)]
    first = int(np.argmax(unstable))
    open_lanes = []     # (lambda, mode name, the mode's threshold) from the estimate up
    for r in report.modes:
        at = first + np.flatnonzero(~r.settled[first:])
        if at.size:
            c = red.mode_threshold(red.mode_operator(config, r.mode), config.geometry.p)
            open_lanes += [(float(lambdas[j]), r.mode.name, c) for j in at]
    if not open_lanes:
        return estimate(None, False, (
            f"counts differ between domains {shorter!r} and {longest!r} from lambda = "
            f"{float(lambdas[first])!r}, but every lane there walls inside domain "
            f"{longest!r}: domain {shorter!r} is too short"))
    c_hat = float(lambdas[first]) - 0.5 * step
    if any(c is not None and c <= lam for lam, _, c in open_lanes):
        return estimate(c_hat, False, None)
    lam, name, _ = min(open_lanes, key=lambda lane: lane[0])
    return estimate(c_hat, True, f"mode {name} at lambda = {lam!r} is still open at "
                                 f"domain {longest!r}: the mode walls beyond it")


# ---------------------------------------------------------------------------
# Weyl fits
# ---------------------------------------------------------------------------

@dataclass
class WeylFit:
    exponent: float
    constant: float
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
    pos = (ntot > 0) & (lam > 0)   # log lambda needs lambda > 0
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
    if pred.weyl_regime == criteria.LOG_LAW:
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
    return WeylFit(exponent=exponent, constant=constant, quality=quality,
                   lambda_range=(float(lam[0]), float(lam[-1])),
                   n_range=(int(ntot[0]), int(ntot[-1])), model=model,
                   consistent=consistent, notes=notes)


# ---------------------------------------------------------------------------
# invariance checks
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    passed: Optional[bool]
    variants: dict      # the report's name ("Y0=1.0", "base", ...) -> ThresholdEstimate
    notes: tuple = ()


def _invariance_check(variants: dict, stable_note: str, mixed_note: str) -> CheckReport:
    """Probe each named config variant; their threshold estimates must agree.

    passed is False only for a conclusive disagreement: no growth against
    growth, or estimates outside each other's error bars.  Otherwise an
    inconclusive probe makes it None, with a note naming it.  A pass with
    no growth names the probes whose counts were not stable.
    """
    probes = {name: threshold_probe(config) for name, config in variants.items()}
    sure = [e for e in probes.values() if not e.inconclusive]
    growing = [e for e in sure if not e.no_growth]
    unsure = tuple(f"{name}: {note}" for name, e in probes.items() if e.inconclusive
                   for note in e.notes)
    if growing and len(growing) < len(sure):
        passed, notes = False, (mixed_note,)
    elif any(abs(a.value - b.value) > a.error + b.error for a in growing for b in growing):
        passed, notes = False, ()
    elif unsure:
        passed, notes = None, unsure
    elif growing:
        passed, notes = True, ()
    else:
        passed, notes = True, tuple(f"{name}: {e.notes[0]}" for name, e in probes.items()
                                    if e.notes[0] != _COUNTS_STABLE) or (stable_note,)
    return CheckReport(passed=passed, variants=probes, notes=notes)


def cut_invariance_check(config: ProblemConfig) -> CheckReport:
    """Threshold estimates must agree for the cut radii Y0 in `config.check_y0`.

    Individual eigenvalues may move (only the essential spectrum is
    invariant under removing a compact piece), so pure-point problems pass
    by exhibiting stable counts for every Y0.
    """
    return _invariance_check(
        {f"Y0={y0!r}": config.with_y0(y0) for y0 in config.check_y0},
        "discrete spectrum at every cut: counts stable (individual eigenvalues may differ)",
        "mixed stability across cuts")


def perturbation_stability_check(config: ProblemConfig) -> CheckReport:
    """Threshold estimates with and without the bump `config.check_bump` must agree."""
    return _invariance_check(
        {"base": config, "bumped": config.with_bump(config.check_bump)},
        "discrete spectrum with and without the bump: counts stable",
        "stability changed under the bump")
