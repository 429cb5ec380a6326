"""Global counting functions, threshold probes, Weyl fits, invariance checks.

This is the layer that turns per-mode counts into the quantities the
analytic layer predicts:

* `global_counting` sums mode counting functions into N(lambda) tables with
  convergence metadata (superposition is exact: the global table is the
  multiplicity-weighted sum of per-mode counts at every lambda).  Counts
  that fall in lambda or under domain growth (Dirichlet bracketing) raise
  an internal error.
* `threshold_probe` estimates the bottom of the essential spectrum from
  the growth of the counts between the two longest domains, and states
  the interval its counts put the bottom in (`ThresholdEstimate.interval`).
  Every threshold verdict reads that interval alone: a prediction agrees
  when it lies in it, and `cut_invariance_check` /
  `perturbation_stability_check` pass when the intervals of the cut radii
  `config.check_y0`, or with and without the bump `config.check_bump`,
  share a point; `threshold_probes` counts their variants in one Sturm pass
  per nested group.  An inconclusive probe leaves a verdict undecided (None).
* `weyl_fit` fits the counting table against the predicted law and judges
  it, and `weyl_study` is the whole `weyl` study.

Each study's rules live here: `cli`, `selftest` and scripts/ call one
function per study and format what it returns.  All aggregation
is deterministic: modes are processed in their enumerated order and counts
are integers, so reports are identical from run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
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
    """Each mode with its radial operator.  The operators differ only in
    their potential terms, so `sturm.discretize_stack` assembles them
    together."""
    return [(m, red.mode_operator(config, m)) for m in red.enumerate_modes(config, lambda_max)]


def _distinct_rows(ops):
    """Each distinct operator of the modes `ops`, once: (rows, row_of, mult).

    rows holds (first mode, operator) per distinct operator, row_of the
    row of each mode and mult the summed multiplicity of each row's modes.
    Modes share an operator when their frozen dataclasses compare equal;
    the only equal floats that are not identical are +-0, which give the
    same sums, so a shared row is bit for bit each mode's own pencil.
    """
    at, rows, row_of, mult = {}, [], [], []
    for m, op in ops:
        i = at.setdefault(op, len(rows))
        if i == len(rows):
            rows.append((m, op))
            mult.append(0)
        mult[i] += m.multiplicity
        row_of.append(i)
    return rows, row_of, np.array(mult, dtype=np.int64)


def _count_group(runs, lambdas, group):
    """Count every run's rows of one nested group in one `sturm.count_below_stack`
    call, with one off and mass row if the meshes are bit-equal, else one per
    row; each run gets its counts (S, R, L) and the last domain's settled mask."""
    stacks = [run.stack for run in runs if run.rows]
    counts, settled = (np.zeros((len(group), 0, len(lambdas)), dtype=t) for t in (np.int64, bool))
    if stacks:
        diags, floors = (np.concatenate([s[k] for s in stacks]) if stacks[1:] else stacks[0][k]
                         for k in (0, 3))
        off, mass = stacks[0][1:3]
        if any(not np.array_equal(s[k], stacks[0][k]) for s in stacks[1:] for k in (1, 2)):
            off, mass = (np.concatenate([np.broadcast_to(s[k], (len(s[0]), len(s[k])))
                                         for s in stacks]) for k in (1, 2))
        counts, settled = sturm.count_below_stack(diags, off, mass, lambdas,
                                                  sizes=[cells - 1 for _, cells in group],
                                                  floors=floors)
    at = np.cumsum([0] + [len(run.rows) for run in runs])
    for run, i, j in zip(runs, at, at[1:]):
        run.counts, run.settled = counts[:, i:j], settled[-1, i:j]


def _spectrum_reports(configs, with_eigenvalues: bool = False) -> List[SpectrumReport]:
    """The executor: the `global_counting` report of each of `configs`, which
    share `numerics` and p, so the lambda window and the nested groups.  Per
    group, each config's distinct rows are assembled on its own mesh and all
    are counted in one pass (`_count_group`); a lane's count and settled bit
    depend on that lane alone, so each config reads what a pass of its own
    would give.  The first error of any config ends the run."""
    num, pf = configs[0].numerics, configs[0].geometry.pf
    if any(c.numerics != num or c.geometry.pf != pf for c in configs):
        raise AssembleError("internal error: stacked configs must share numerics and p")
    lambdas = num.lambdas()
    if not np.all(np.diff(lambdas) > 0):
        raise AssembleError("lambdas must be strictly increasing")
    runs = []
    for config in configs:
        run = SimpleNamespace(config=config, totals={}, prediction=classify(config))
        run.ops = _mode_operators(config, float(lambdas[-1]))
        run.rows, run.row_of, run.mult = _distinct_rows(run.ops)
        runs.append(run)
    for g in num.grids:
        for group in red.nested_groups(num, pf, g):
            for run in runs:
                run.stack = None    # free its previous group's stack before assembling this one
                run.stack = (sturm.discretize_stack([op for _, op in run.rows], *group[-1])
                             if run.rows else ([], None, None, None))
            _count_group(runs, lambdas, group)
            for run in runs:
                # the threshold probe and the Weyl fit read these counts as monotone
                # in lambda; Dirichlet bracketing keeps them monotone under domain growth
                for what, axis in (("in lambda", 2), ("under domain growth", 0)):
                    dropped = np.argwhere(np.diff(run.counts, axis=axis) < 0)
                    if dropped.size:
                        k, i, _ = dropped[0]
                        raise AssembleError(
                            f"internal error: counts decreased {what} for mode "
                            f"{run.rows[i][0].name} at grid={g}, "
                            f"domain={group[k + (axis == 0)][0]!r}")
                for (T, _), t in zip(group, (run.mult[:, None] * run.counts).sum(axis=1)):
                    run.totals[(g, T)] = t
    # the finest combo closes the last group: each run keeps its counts and stack
    return [_report(run, lambdas, with_eigenvalues) for run in runs]


def _report(run, lambdas, with_eigenvalues):
    """One config's `SpectrumReport` from its share of `_spectrum_reports`."""
    config = run.config
    grids, domains = config.numerics.grids, config.numerics.domains
    gf = grids[-1]
    totals = {(g, T): run.totals[(g, T)] for g in grids for T in domains}   # combo order
    stable = len(domains) >= 2 and bool(
        np.array_equal(totals[(gf, domains[-1])], totals[(gf, domains[-2])]))
    mode_results = [ModeResult(mode=m, counts=run.counts[-1][i], settled=run.settled[i])
                    for (m, _), i in zip(run.ops, run.row_of)]
    if with_eigenvalues:
        top = float(lambdas[-1])
        total_top = int(totals[(gf, domains[-1])][-1])
        if total_top > EIGEN_CAP:
            raise AssembleError(
                f"{total_top} eigenvalues below {top:g} exceed the listing cap "
                f"({EIGEN_CAP}); lower the top of numerics.lambda_grid")
        diags, off, mass, _ = run.stack
        # a row that counts nothing below the top lists nothing: its first
        # listing pass would count the same pencil at the same lambda
        listed = [sturm.eigenvalues_below(sturm.TridiagonalPencil(diag, off, mass), top,
                                          config.numerics.tol) if below else []
                  for diag, below in zip(diags, run.counts[-1][:, -1])]
        for res, i in zip(mode_results, run.row_of):
            res.eigenvalues = list(listed[i])

    notes = []
    if not run.prediction.is_pure_point:
        notes.append("prediction has essential spectrum: counts are "
                     "truncation-dependent and grow with the domain")
    if config.degree >= 1:
        notes.append("form counts cover the harmonic sectors only; the coexact "
                     "tower is discrete and enters constants analytically")
    return SpectrumReport(
        lambda_grid=lambdas, modes=mode_results, totals_by_combo=totals,
        stable=stable, prediction=run.prediction,
        meta={"grids": grids, "domains": domains, "y0": config.geometry.y0},
        notes=tuple(notes))


def global_counting(config: ProblemConfig, with_eigenvalues: bool = False) -> SpectrumReport:
    """Counting table N(lambda) over the configured (grid x domain) study.

    The lambda window is `config.numerics.lambdas()`.  The table reported
    is the finest combination, the last grid on the longest domain;
    `totals_by_combo` keeps all of them for stability assessment.  Every
    grid of `config` is counted, so a caller that reads only the finest
    one passes `config.with_finest_grid()`.  Modes with equal operators
    share one row (`_distinct_rows`), and per grid each group of nested
    domains (`reduce.nested_groups`) is counted in one pass: this is the
    one-config case of `_spectrum_reports`.  The eigenvalue listing runs
    once per row of the finest stack, and each `ModeResult` carries its
    row's finest-grid counts, the longest domain's settled mask and its
    own copy of the row's eigenvalue list.  If the analytic layer predicts
    essential spectrum the table is labeled truncation-dependent: counts
    then grow with the domain and carry no spectral meaning of their own.
    """
    return _spectrum_reports([config], with_eigenvalues)[0]


# ---------------------------------------------------------------------------
# threshold probe
# ---------------------------------------------------------------------------

@dataclass
class ThresholdEstimate:
    value: Optional[float]       # None: no growth in the window
    error: float
    predicted: Optional[float]   # None: pure point
    top: float                   # the top of the lambda window
    inconclusive: bool
    notes: tuple = ()
    one_sided: bool = False      # growth bounds the bottom from above only

    @property
    def no_growth(self) -> bool:
        return self.value is None

    @property
    def interval(self) -> tuple:
        """(lo, hi), where the counts put the essential bottom (oo: pure point):
        [value - error, value + error] for two-sided growth, (-oo, value +
        error] for one-sided growth and [top - error, oo) for no growth."""
        if self.no_growth:
            return self.top - self.error, math.inf
        return (-math.inf if self.one_sided else self.value - self.error,
                self.value + self.error)

    @property
    def consistent(self) -> Optional[bool]:
        """The predicted bottom (oo for pure point) lies in `interval`; None
        when inconclusive, or with no growth and the bottom within the error
        bar below the window top, where its growth cannot show."""
        lo, hi = self.interval
        c = math.inf if self.predicted is None else self.predicted
        if self.inconclusive or self.no_growth and lo <= c < self.top:
            return None
        return lo <= c <= hi


def _require_two_domains(config: ProblemConfig, study: str) -> None:
    """Refuse, before counting, a study of the two longest domains of one."""
    if len(config.numerics.domains) < 2:
        raise AssembleError(f"{study} needs at least 2 domain lengths in numerics.domain_z")


_COUNTS_STABLE = ("counts stable under domain growth across the window: "
                  "no essential spectrum detected")


def threshold_probe(config: ProblemConfig) -> ThresholdEstimate:
    """Estimate inf of the essential spectrum from count growth in length.

    The probe scans the configured lambda window on the finest grid and
    counts that grid only: the coarser grids of `config.numerics.grids`
    are neither assembled nor counted.  The estimate is the first lambda
    where the two longest domains count differently, backed off by half a
    grid step; the error bar combines the grid resolution with the
    (pi/T_max)^2 detection floor of a Dirichlet channel of length T_max.
    The lanes the longest domain has settled (`ModeResult.settled`) judge
    that difference, at and above the estimate:

    * every lane settled: those counts are final, so the shorter domain was
      too short and nothing grows;
    * an open lane of a mode whose `reduce.mode_threshold` is at most its
      lambda: a continuous channel of the reduction, so the growth is real;
    * else every open lane walls beyond the longest domain: inconclusive.

    Growth is two-sided only at p >= 1, on domains at least a factor 2 apart
    that agreed at the lambda before: their counts differ at every lambda
    from c + (pi/T_max)^2 on.  Nearer domains agree again between their
    channel levels, and at p < 1 the channel potential stays above c.
    Other growth bounds the bottom from above, with a note.
    """
    return threshold_probes([config])[0]


def threshold_probes(configs) -> List[ThresholdEstimate]:
    """`threshold_probe` of each of `configs`, which share `numerics` and p;
    their finest grids are counted together (`_spectrum_reports`).  If that
    raises, they are counted again one at a time in order, so the error
    raised is the first config's own."""
    _require_two_domains(configs[0], "threshold probe")    # shared numerics
    finest = [config.with_finest_grid() for config in configs]
    try:
        reports = _spectrum_reports(finest)
    except Exception:
        if len(finest) == 1:
            raise
        reports = [_spectrum_reports([config])[0] for config in finest]
    return [_estimate(config, report) for config, report in zip(configs, reports)]


def _estimate(config: ProblemConfig, report: SpectrumReport) -> ThresholdEstimate:
    """`threshold_probe`'s judgement of config's finest-grid report."""
    num = config.numerics
    gf, (shorter, longest) = num.grids[-1], num.domains[-2:]
    lambdas, predicted = report.lambda_grid, report.prediction.essential_bottom
    step = float(np.max(np.diff(lambdas)))
    error = step + (math.pi / longest) ** 2     # grid resolution + detection floor

    def estimate(value, inconclusive, note, one_sided=False):
        est = ThresholdEstimate(value, error, predicted, float(lambdas[-1]),
                                inconclusive, (note,) if note else (), one_sided)
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
            c = red.mode_threshold(red.mode_operator(config, r.mode))
            open_lanes += [(float(lambdas[j]), r.mode.name, c) for j in at]
    if not open_lanes:
        return estimate(None, False, (
            f"counts differ between domains {shorter!r} and {longest!r} from lambda = "
            f"{float(lambdas[first])!r}, but every lane there walls inside domain "
            f"{longest!r}: domain {shorter!r} is too short"))
    c_hat = float(lambdas[first]) - 0.5 * step
    if any(c is not None and c <= lam for lam, _, c in open_lanes):
        pf = config.geometry.pf
        why = (f"the counts differ from the first lambda {float(lambdas[0])!r} on"
               if first == 0 else f"domains {shorter!r} and {longest!r} are less than "
               "a factor 2 apart" if longest < 2 * shorter else f"at p = {pf!r} < 1 the "
               "channel potential stays above its limit" if pf < 1 else None)
        note = why and f"{why}: growth puts the bottom at or below {c_hat + error!r} only"
        return estimate(c_hat, False, note, bool(why))
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
    to the constant, certified as [C, C + `c3_tail`].  It is True for
    essential spectrum (the counts are truncation-dependent; the fit is
    informational) and None, with a note, for a pure-point table that is
    not domain-stable.  A prediction that certifies no law is refused.
    """
    pred = report.prediction
    q = pred.weyl_exponent
    if q is None:
        raise AssembleError("the prediction certifies no counting law to fit; "
                            "the criteria command notes why")
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
        # a fit within r of some point of [C, C + tail] agrees
        r, tail = WEYL_CONSTANT_RTOL, pred.c3_tail or 0.0
        consistent = abs(exponent - q) <= WEYL_EXPONENT_TOL and (
            const is None
            or constant / const - 1.0 >= -r and constant / (const + tail) - 1.0 <= r)
    return WeylFit(exponent=exponent, constant=constant, quality=quality,
                   lambda_range=(float(lam[0]), float(lam[-1])),
                   n_range=(int(ntot[0]), int(ntot[-1])), model=model,
                   consistent=consistent, notes=notes)


def weyl_study(config: ProblemConfig) -> tuple:
    """(finest-grid `SpectrumReport`, `weyl_fit`) of config; a one-domain
    study and k-forms are refused before counting, and the fit reads no
    other grid."""
    if config.degree >= 1:
        raise AssembleError(
            f"weyl on {config.degree}-forms is refused: form counts cover the harmonic "
            "sectors only, so the counting law cannot be judged until the coexact "
            "tower is counted")
    _require_two_domains(config, "weyl")
    report = global_counting(config.with_finest_grid())
    return report, weyl_fit(report)


# ---------------------------------------------------------------------------
# invariance checks
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    passed: Optional[bool]
    variants: dict      # the report's name ("Y0=1.0", "base", ...) -> ThresholdEstimate
    notes: tuple = ()


def _invariance_check(variants: dict, stable_note: str) -> CheckReport:
    """Probe the named config variants together; the intervals their counts
    certify (`ThresholdEstimate.interval`) must share a point.

    passed is False, with a note, only when two conclusive intervals are disjoint.
    Otherwise an inconclusive probe makes it None, with a note naming it.
    A pass with no growth names the probes whose counts were not stable.
    """
    probes = dict(zip(variants, threshold_probes(list(variants.values()))))
    sure = {name: e.interval for name, e in probes.items() if not e.inconclusive}
    high = max(sure, key=lambda name: sure[name][0], default=None)   # highest lo
    low = min(sure, key=lambda name: sure[name][1], default=None)    # lowest hi
    if sure and sure[high][0] > sure[low][1]:
        passed, notes = False, (f"{high} puts the bottom in {sure[high]!r} and {low} in "
                                f"{sure[low]!r}: these intervals share no point",)
    elif len(sure) < len(probes):
        passed, notes = None, tuple(f"{name}: {note}" for name, e in probes.items()
                                    if e.inconclusive for note in e.notes)
    elif not all(e.no_growth for e in probes.values()):
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
        "discrete spectrum at every cut: counts stable (individual eigenvalues may differ)")


def perturbation_stability_check(config: ProblemConfig) -> CheckReport:
    """Threshold estimates with and without the bump `config.check_bump` must agree.

    The bump is a potential, so k-forms are refused before counting.
    """
    if config.degree >= 1:
        raise AssembleError(
            f"perturb-check on {config.degree}-forms is refused: its bump perturbation "
            "(checks.bump) is a potential, and potentials on k-forms are outside the "
            "numerically modelled class")
    return _invariance_check(
        {"base": config, "bumped": config.with_bump(config.check_bump)},
        "discrete spectrum with and without the bump: counts stable")
