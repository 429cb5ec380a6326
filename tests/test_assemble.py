"""Aggregation: counting tables, probes, fits, invariance checks."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from cusplab import assemble, cli, reduce as red, sturm
from cusplab.assemble import (AssembleError, cut_invariance_check,
                              global_counting, perturbation_stability_check,
                              threshold_probe, weyl_fit)
from cusplab.criteria import LOG_LAW, POWER_HALF_P, POWER_N2, Prediction
from cusplab.model import (ConfigError, EndGeometry, MagneticData, Numerics,
                           ProblemConfig, RadialPotential, builtin_cross_section,
                           potential_values)
from cusplab.reduce import RadialOperator

TWO_PI = 2 * math.pi


def circle_cfg(p="1", flux=None, potential=None, y0=1.0,
               grids=(500, 1000), domains=(8.0, 16.0, 32.0),
               lam=(0.05, 0.5, 46), scale="lin"):
    return ProblemConfig(
        geometry=EndGeometry(2, p, y0),
        cross_section=builtin_cross_section("circle", length=TWO_PI),
        degree=0,
        magnetic=MagneticData(flux=(flux,)) if flux is not None else None,
        potential=potential,
        numerics=Numerics(grids=grids, domains=domains, lambda_grid=lam,
                          lambda_scale=scale))


def test_superposition_is_exact():
    cfg = circle_cfg(flux="0.5", lam=(0.5, 30.0, 12))
    rep = global_counting(cfg)
    mults = np.array([r.mode.multiplicity for r in rep.modes])
    stacked = np.stack([r.counts for r in rep.modes])
    assert np.array_equal(rep.n_total, (mults[:, None] * stacked).sum(axis=0))
    assert np.all(np.diff(rep.n_total) >= 0)
    assert not rep.truncation_dependent


def test_lambda_grid_below_first_mode_is_all_zero():
    cfg = circle_cfg(flux="0.5", lam=(0.01, 0.2, 8))
    rep = global_counting(cfg)
    assert rep.modes == []
    assert np.array_equal(rep.n_total, np.zeros(8, dtype=np.int64))
    assert rep.stable


def test_essential_prediction_labels_truncation():
    cfg = circle_cfg(flux="0", lam=(0.05, 1.0, 10))
    rep = global_counting(cfg)
    assert rep.truncation_dependent
    assert any("truncation" in n for n in rep.notes)


def test_integer_flux_shift_gives_identical_tables():
    a = global_counting(circle_cfg(flux="0.5", lam=(0.5, 30.0, 12)))
    b = global_counting(circle_cfg(flux="1.5", lam=(0.5, 30.0, 12)))
    assert np.array_equal(a.n_total, b.n_total)
    assert sorted(r.mode.nu for r in a.modes) == sorted(r.mode.nu for r in b.modes)


def test_eigenvalue_listing_and_cap():
    cfg = circle_cfg(flux="0.5", lam=(0.5, 8.0, 4), domains=(6.0, 8.0))
    rep = global_counting(cfg, with_eigenvalues=True)
    total = sum(r.mode.multiplicity * len(r.eigenvalues) for r in rep.modes)
    assert total == rep.n_total[-1]
    with pytest.raises(AssembleError, match="cap"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assemble, "EIGEN_CAP", 0)
            global_counting(cfg, with_eigenvalues=True)


def test_eigenvalue_listing_reuses_the_finest_pencils(work):
    cfg = circle_cfg(flux="0.5", lam=(0.5, 8.0, 4), domains=(6.0, 8.0))
    rep = global_counting(cfg, with_eigenvalues=True)
    # one stack per (grid, domain) combo, none again for the listing; at flux
    # 1/2, m and -m-1 share an operator, so 6 modes take 3 rows
    assert len(rep.modes) == 6 and _distinct_operators(cfg) == 3
    assert work["stacks"] == [3] * 4
    cells = red.cells_for(1000, 8.0, 6.0)
    for r, (_, op) in zip(rep.modes, assemble._mode_operators(cfg, 8.0)):
        pen = sturm.discretize(op, 8.0, cells)
        assert r.eigenvalues == sturm.eigenvalues_below(pen, 8.0, cfg.numerics.tol)


def test_only_rows_that_count_below_the_top_are_listed(monkeypatch):
    """The `spectrum-locate` study: of its two rows (m and -m - 1 share one
    at flux 1/2), only m-1/m0 counts an eigenvalue below the top, 6.  The
    other row lists [] with no `eigenvalues_below` call: that call's first
    pass would count the same pencil at the same lambda and find none."""
    cfg = circle_cfg(flux="0.5", grids=(1000, 2000), lam=(0.5, 6.0, 12))
    listing = sturm.eigenvalues_below
    calls = []

    def counted(pencil, lam, tol):
        calls.append(lam)
        return listing(pencil, lam, tol)

    monkeypatch.setattr(sturm, "eigenvalues_below", counted)
    rep = global_counting(cfg, with_eigenvalues=True)
    assert [r.mode.name for r in rep.modes] == ["m-1", "m0", "m-2", "m1"]
    assert [int(r.counts[-1]) for r in rep.modes] == [1, 1, 0, 0]
    assert calls == [6.0]
    assert [r.eigenvalues for r in rep.modes] == [[4.665218848500144]] * 2 + [[]] * 2
    cells = red.cells_for(2000, 32.0, 8.0)
    for r, (_, op) in zip(rep.modes, assemble._mode_operators(cfg, 6.0)):
        assert r.eigenvalues == listing(sturm.discretize(op, 32.0, cells), 6.0, cfg.numerics.tol)


def test_probe_finds_quarter_threshold():
    est = threshold_probe(circle_cfg(flux="0"))
    assert est.predicted == 0.25
    assert abs(est.value - 0.25) <= est.error
    assert est.consistent


def test_probe_reports_no_growth_for_pure_point():
    est = threshold_probe(circle_cfg(flux="0.5"))
    assert est.no_growth and est.value is None
    assert est.consistent  # prediction agrees: no essential spectrum


def test_probe_needs_two_domains():
    with pytest.raises(AssembleError, match="at least 2 domain lengths in numerics.domain_z"):
        threshold_probe(circle_cfg(flux="0", domains=(8.0,)))
    est = threshold_probe(circle_cfg(flux="0", domains=(16.0, 32.0)))
    assert not est.inconclusive and abs(est.value - 0.25) <= est.error
    assert est.consistent


# the FOUND configs of ROADMAP item 8: p = 1/4 walls every mode, and the
# domains 16 and 32 count differently near the top of the window
def _walled_cfg(**extra):
    return circle_cfg(p="0.25", grids=(200, 400), lam=(0.5, 6.0, 12), **extra)


def test_growth_that_the_longest_domain_settled_is_no_growth():
    est = threshold_probe(_walled_cfg(potential=RadialPotential(poly=((1.0, 0.5),))))
    assert est.no_growth and not est.inconclusive and est.consistent
    assert est.notes == ("counts differ between domains 16.0 and 32.0 from lambda = 6.0, "
                         "but every lane there walls inside domain 32.0: domain 16.0 "
                         "is too short",)


def test_growth_in_lanes_that_wall_beyond_the_longest_domain_is_inconclusive():
    est = threshold_probe(_walled_cfg(flux="0.5"))
    assert est.inconclusive and est.value == 1.25 and est.consistent is None
    assert est.notes == ("mode m-1 at lambda = 2.5 is still open at domain 32.0: "
                         "the mode walls beyond it",)


def test_lanes_open_only_at_the_last_node_are_open():
    # p = 1/2, flux 0: the m0 channel is continuous from 0 and walls nowhere;
    # its lanes reach node 1598 of 1599, where only the last row is dominant
    rep = global_counting(circle_cfg(p="0.5", flux="0", grids=(200, 400),
                                     lam=(0.5, 2.5, 5)))
    m0 = next(r for r in rep.modes if r.mode.name == "m0")
    assert not m0.settled.any()
    assert any(r.settled.all() for r in rep.modes)


@pytest.mark.parametrize("top, consistent", [(0.2, True), (0.25, True), (0.26, None),
                                             (0.3, False)])
def test_no_growth_contradicts_a_bottom_only_below_the_window_top(top, consistent):
    est = assemble.ThresholdEstimate(None, 0.02, 0.25, top, False)
    assert est.consistent is consistent
    assert assemble.ThresholdEstimate(None, 0.02, None, top, False).consistent


@pytest.mark.parametrize("predicted, consistent", [(0.0, True), (0.375, True),
                                                    (0.5, False), (None, False)])
def test_one_sided_growth_contradicts_only_a_bottom_above_its_bound(predicted, consistent):
    est = assemble.ThresholdEstimate(0.25, 0.125, predicted, 6.0, False, one_sided=True)
    assert est.interval == (-math.inf, 0.375)
    assert est.consistent is consistent


@pytest.mark.parametrize("other, passed", [
    (assemble.ThresholdEstimate(0.125, 0.0625, 0.25, 6.0, False), True),
    (assemble.ThresholdEstimate(0.75, 0.5, 0.25, 6.0, False), True),
    (assemble.ThresholdEstimate(1.0, 0.25, 0.25, 6.0, False), False),
    (assemble.ThresholdEstimate(None, 0.25, 0.25, 6.0, False, ("counts stable",)), False),
    (assemble.ThresholdEstimate(None, 0.25, 0.25, 0.5, False, ("counts stable",)), True),
])
def test_variants_disagree_only_when_their_intervals_are_disjoint(monkeypatch, other, passed):
    # one-sided growth puts the bottom in (-oo, 0.375]
    probes = iter([assemble.ThresholdEstimate(0.25, 0.125, 0.25, 6.0, False, one_sided=True),
                   other])
    monkeypatch.setattr(assemble, "threshold_probes",
                        lambda configs: [next(probes) for _ in configs])
    assert assemble._invariance_check({"a": None, "b": None}, "stable").passed is passed


def test_a_failed_check_names_its_disjoint_intervals(monkeypatch):
    probes = iter([assemble.ThresholdEstimate(0.25, 0.125, 0.25, 6.0, False, one_sided=True),
                   assemble.ThresholdEstimate(None, 0.25, 0.25, 6.0, False, ("counts stable",))])
    monkeypatch.setattr(assemble, "threshold_probes",
                        lambda configs: [next(probes) for _ in configs])
    check = assemble._invariance_check({"a": None, "b": None}, "stable")
    assert check.passed is False
    assert check.notes == ("b puts the bottom in (5.75, inf) and a in (-inf, 0.375): these "
                           "intervals share no point",)


def test_a_bottom_within_the_error_bar_of_the_window_top_is_undecided():
    # p = 1, flux 0: [1/4, oo) with the first channel level at 1/4 + (pi/32)^2;
    # the window tops at 0.255, less than one error bar above 1/4
    est = threshold_probe(circle_cfg(flux="0", grids=(200, 400), lam=(0.05, 0.255, 16)))
    assert est.no_growth and est.consistent is None
    assert est.notes[-1] == ("the predicted bottom 0.25 lies within the error bar of "
                             "the window top 0.255: its growth cannot show")


def test_probe_p_below_one_finds_zero():
    cfg = circle_cfg(p="0.5", flux="0", lam=(0.005, 0.3, 31))
    est = threshold_probe(cfg)
    assert est.predicted == 0.0
    assert abs(est.value) <= 0.02


def test_weyl_fit_power_regime():
    # a short window still shows the law, with the Dirichlet-wall deficit
    # biasing the free exponent up by ~0.1 at lambda <= 200 (the acceptance
    # run uses a higher window where the bias falls inside the tolerance)
    cfg = circle_cfg(flux="0.5", grids=(1500, 3000), domains=(6.0, 8.0),
                     lam=(20.0, 200.0, 14), scale="log")
    rep = global_counting(cfg)
    fit = weyl_fit(rep)
    assert 0.95 <= fit.exponent <= 1.15
    assert fit.constant == pytest.approx(0.5, rel=0.15)


def test_weyl_fit_requires_growth_and_span():
    cfg = circle_cfg(flux="0.5", lam=(0.05, 0.2, 5))
    rep = global_counting(cfg)
    with pytest.raises(AssembleError, match="no growth"):
        weyl_fit(rep)
    cfg2 = circle_cfg(flux="0.5", grids=(1000, 2000), domains=(6.0, 8.0),
                      lam=(40.0, 80.0, 6), scale="log")
    rep2 = global_counting(cfg2)
    with pytest.raises(AssembleError, match="decade"):
        weyl_fit(rep2)
    cfg3 = circle_cfg(flux="0.5", grids=(300, 600), domains=(6.0, 8.0),
                      lam=(5.0, 60.0, 6), scale="log")
    with pytest.raises(AssembleError, match="need N >= 30 at the top, achieved 26"):
        weyl_fit(global_counting(cfg3))


@pytest.mark.parametrize("p, regime, grids, domains, lam", [
    ("1", POWER_N2, (1500, 3000), (6.0, 8.0), (20.0, 200.0, 14)),
    ("0.5", LOG_LAW, (3000, 6000), (40.0, 50.0), (10.0, 110.0, 12)),
    ("0.25", POWER_HALF_P, (4000, 8000), (150.0, 180.0), (3.0, 30.0, 12)),
])
def test_weyl_fit_reads_the_law_from_the_prediction(p, regime, grids, domains, lam):
    # flux 1/2 makes p = 1 and 1/2 pure point; at p = 1/4 a positive boundary
    # potential does, and keeps C3 certified
    confine = ({"potential": RadialPotential(poly=((1.0, 0.5),))} if regime == POWER_HALF_P
               else {"flux": "0.5"})
    cfg = circle_cfg(p=p, grids=grids, domains=domains, lam=lam, scale="log", **confine)
    rep = global_counting(cfg)
    pred = rep.prediction
    assert pred.weyl_regime == regime
    fit = weyl_fit(rep)
    assert pred.weyl_exponent == {"1": 1.0, "0.5": 1.0, "0.25": 2.0}[p]
    assert pred.weyl_constant is not None
    # the re-fit constant is the least-squares C of N = C lambda^q at the
    # prediction's q; a wrong q would move it far from the predicted one
    assert fit.constant == pytest.approx(pred.weyl_constant, rel=0.3)
    # the log law keeps the exponent at q; the power laws fit it
    if pred.weyl_regime == LOG_LAW:
        assert fit.exponent == pred.weyl_exponent
    else:
        assert abs(fit.exponent - pred.weyl_exponent) <= 0.2


def test_weyl_verdict_is_undecided_on_a_domain_unstable_pure_point_table():
    cfg = circle_cfg(flux="0.5", grids=(500, 1000), domains=(1.0, 1.5),
                     lam=(120.0, 1200.0, 16), scale="log")
    rep = global_counting(cfg)
    assert rep.prediction.is_pure_point and not rep.stable
    fit = weyl_fit(rep)
    assert fit.consistent is None
    assert fit.notes and "not domain-stable" in fit.notes[0]
    # the same fit on a table marked stable is judged, and fails on the constant
    judged = weyl_fit(dataclasses.replace(rep, stable=True))
    assert judged.consistent is False and judged.notes == ()
    # with essential spectrum the fit is informational whatever the table
    ess = dataclasses.replace(rep.prediction, thresholds=(0.25,))
    assert weyl_fit(dataclasses.replace(rep, prediction=ess)).consistent is True


# criteria's C3 of a square 2-torus at n = 3, p = 0.3 and its certified tail:
# the true C3 lies in [C3, C3 + tail], 11% wide
TORUS_C3, TORUS_C3_TAIL = 5.898922278416871, 0.6574493187928422


@pytest.mark.parametrize("constant, tail, consistent", [
    (7.5, TORUS_C3_TAIL, True),     # within 20% of C3 + tail, not of C3
    (7.5, None, False),
    (7.5, 0.0, False),
    (8.0, TORUS_C3_TAIL, False),    # above (C3 + tail) * 1.2
    (4.8, TORUS_C3_TAIL, True),
    (4.6, TORUS_C3_TAIL, False),    # below C3 * 0.8
])
def test_the_weyl_constant_gate_reads_the_certified_c3_interval(constant, tail, consistent):
    q = 1.0 / (2.0 * 0.3)
    lam = np.geomspace(10.0, 1000.0, 16)
    rep = assemble.SpectrumReport(
        lambda_grid=lam, modes=[],
        totals_by_combo={(400, 8.0): np.rint(constant * lam**q).astype(np.int64)},
        stable=True, prediction=Prediction((), POWER_HALF_P, q, TORUS_C3, tail),
        meta={"grids": (400,), "domains": (8.0,)})
    fit = weyl_fit(rep)
    assert fit.exponent == pytest.approx(q, abs=1e-3)
    assert fit.constant == pytest.approx(constant, rel=1e-3)
    assert fit.consistent is consistent


def test_cut_invariance_passes_for_essential_case():
    check = cut_invariance_check(circle_cfg(flux="0"))
    assert check.passed and list(check.variants) == ["Y0=1.0", "Y0=2.0"]
    vals = [e.value for e in check.variants.values()]
    assert all(abs(v - 0.25) <= 0.02 for v in vals)


def test_cut_invariance_pure_point_stable_counts():
    check = cut_invariance_check(circle_cfg(flux="0.5"))
    assert check.passed
    assert any("discrete spectrum" in n for n in check.notes)


def test_cut_invariance_needs_two_y0():
    for y0s in ((1.0,), (1.0, 1.0)):
        with pytest.raises(ConfigError, match="2 distinct values"):
            dataclasses.replace(circle_cfg(flux="0"), check_y0=y0s)


def test_perturbation_check_with_bump():
    check = perturbation_stability_check(circle_cfg(flux="0"))   # bump (2.5, 1, 5)
    assert check.passed
    base, bumped = check.variants["base"], check.variants["bumped"]
    assert abs(base.value - bumped.value) <= base.error + bumped.error


def test_perturbation_zero_bump_is_identity():
    cfg = dataclasses.replace(circle_cfg(flux="0"), check_bump=(2.5, 1.0, 0.0))
    check = perturbation_stability_check(cfg)
    assert check.passed
    assert check.variants["base"].value == check.variants["bumped"].value


def test_perturbation_negative_bump_on_pure_point():
    # a small negative dip cannot destabilize a confining problem
    cfg = dataclasses.replace(circle_cfg(flux="0.5"), check_bump=(2.5, 1.0, -0.1))
    check = perturbation_stability_check(cfg)
    assert check.passed
    assert check.variants["bumped"].no_growth


def test_log_regime_fit_runs():
    cfg = circle_cfg(p="0.5", flux="0.5", grids=(3000, 6000), domains=(40.0, 50.0),
                     lam=(10.0, 110.0, 12), scale="log")
    rep = global_counting(cfg)
    fit = weyl_fit(rep)
    assert rep.prediction.weyl_regime == LOG_LAW and fit.exponent == 1.0
    assert fit.constant == pytest.approx(0.5, rel=0.3)


def test_lambdas_must_increase_strictly():
    # lo < hi, but the window holds fewer doubles than the grid has points
    for scale in ("lin", "log"):
        cfg = circle_cfg(flux="0.5", lam=(1.0, 1.0 + 2.0**-52, 5), scale=scale)
        with pytest.raises(AssembleError, match="strictly increasing"):
            global_counting(cfg)


def test_counts_decreasing_in_lambda_are_an_internal_error(counts_reversed_in_lambda):
    cfg = circle_cfg(flux="0.5", lam=(0.5, 30.0, 12))
    with pytest.raises(AssembleError, match=r"counts decreased in lambda for mode "
                                            r"\S+ at grid=500, domain=8\.0"):
        global_counting(cfg)


def test_counts_falling_under_domain_growth_are_an_internal_error(
        counts_shrinking_with_domain):
    cfg = circle_cfg(flux="0", lam=(0.5, 6.0, 12))   # the k = 0 channel grows with T
    with pytest.raises(AssembleError, match=r"counts decreased under domain growth for "
                                            r"mode \S+ at grid=500, domain=16\.0"):
        global_counting(cfg)


# ---------------------------------------------------------------------------
# nested domains: one assembly and one pass per grid for p <= 1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("extras", [False, True], ids=["plain", "potential-flux"])
@pytest.mark.parametrize("y0", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("p", ["0.25", "0.5", "1"])
def test_shorter_domains_are_leading_blocks_and_one_pass_equals_per_combo_passes(
        p, y0, extras):
    potential = RadialPotential(poly=((0.5, 0.5),), bump=(2.5, 1.0, 5.0)) if extras else None
    cfg = circle_cfg(p=p, y0=y0, flux="0.25" if extras else None, potential=potential,
                     grids=(250, 500), domains=(8.0, 12.0, 16.0), lam=(0.5, 6.0, 9))
    rep = global_counting(cfg)
    lambdas = cfg.numerics.lambdas()
    ops = assemble._mode_operators(cfg, float(lambdas[-1]))
    assert ops
    mult = np.array([m.multiplicity for m, _ in ops])
    for g in cfg.numerics.grids:
        cells = {T: red.cells_for(g, T, 8.0) for T in cfg.numerics.domains}
        assert len({T / c for T, c in cells.items()}) == 1     # one mesh width
        diags, off, mass, _ = sturm.discretize_stack([op for _, op in ops], 16.0, cells[16.0])
        for T in (8.0, 12.0, 16.0):
            pens = [sturm.discretize(op, T, cells[T]) for _, op in ops]
            for pen, full in zip(pens, diags):
                n = pen.n
                assert n == cells[T] - 1
                assert np.array_equal(pen.diag, full[:n])
                assert np.array_equal(pen.offdiag, off[:n - 1])
                assert np.array_equal(pen.mass, mass[:n])
            counts, _ = sturm.count_below_stack(np.stack([pen.diag for pen in pens]),
                                                pens[0].offdiag, pens[0].mass, lambdas)
            assert np.array_equal(rep.totals_by_combo[(g, T)],
                                  (mult[:, None] * counts).sum(axis=0))


# ---------------------------------------------------------------------------
# one stack per nested group: shared mesh and weights, one potential row per mode
# ---------------------------------------------------------------------------

def _reference_pencil(op, length, cells):
    """P1 assembly of one operator written out: k = w1(midpoints)/h,
    diag = k[:-1] + k[1:] + q w0 lump.  At p <= 1 it is the normal form in z
    with unit weights and W = A_c y^(2p-2) + q, A_c = (c/2)(c/2 + p - 1) with
    c = (density_exp + stiffness_exp)/2; at p > 1 it is in y with w0 = y^density_exp
    and w1 = y^stiffness_exp."""
    t, y = red.mesh_for(op.p, op.y0, length, cells)
    if op.p <= 1.0:
        c_half = 0.5 * (op.density_exponent + op.stiffness_exponent) / 2.0
        terms = ((c_half * (c_half + op.p - 1.0), 2.0 * op.p - 2.0),) + op.potential_terms
        h, w1, w0 = np.diff(t), np.ones(cells), np.ones(cells + 1)
    else:
        terms = op.potential_terms
        h = np.diff(y)
        w1, w0 = (0.5 * (y[:-1] + y[1:])) ** op.stiffness_exponent, y ** op.density_exponent
    q = potential_values(y, terms, op.bump)
    lump = 0.5 * (h[:-1] + h[1:])
    k = w1 / h
    return k[:-1] + k[1:] + q[1:-1] * w0[1:-1] * lump, -k[1:-1], w0[1:-1] * lump


def _assert_stack_rows_are_the_single_pencils(cfg, domain, cells):
    ops = [op for _, op in assemble._mode_operators(cfg, float(cfg.numerics.lambdas()[-1]))]
    assert len(ops) > 1
    diags, off, mass, _ = sturm.discretize_stack(ops, domain, cells)
    assert diags.shape == (len(ops), cells - 1)
    for op, diag in zip(ops, diags):
        pen = sturm.discretize(op, domain, cells)
        assert np.array_equal(diag, pen.diag)
        assert np.array_equal(off, pen.offdiag)
        assert np.array_equal(mass, pen.mass)
        ref_diag, ref_off, ref_mass = _reference_pencil(op, domain, cells)
        assert np.array_equal(diag, ref_diag)
        assert np.array_equal(off, ref_off)
        assert np.array_equal(mass, ref_mass)


@pytest.mark.parametrize("extras", [False, True], ids=["plain", "poly-bump-flux"])
@pytest.mark.parametrize("y0", [1.0, 1.5])
@pytest.mark.parametrize("p", ["1/4", "1/2", "1", "2"])
def test_stack_rows_are_bit_identical_to_single_operator_pencils(p, y0, extras):
    potential = RadialPotential(poly=((0.5, 0.5),), bump=(2.5, 1.0, 5.0)) if extras else None
    cfg = circle_cfg(p=p, y0=y0, flux="0.25" if extras else "0", potential=potential,
                     grids=(200,), domains=(2.0, 3.0), lam=(0.5, 6.0, 4))
    _assert_stack_rows_are_the_single_pencils(cfg, 3.0, 300)


@pytest.mark.parametrize("p", ["1/4", "1", "2"])
def test_form_sector_stack_rows_are_bit_identical_to_single_operator_pencils(p):
    cfg = ProblemConfig(
        geometry=EndGeometry(3, p, 1.5),
        cross_section=builtin_cross_section("square_torus", side=TWO_PI, dim=2),
        degree=1, numerics=Numerics(grids=(200,), domains=(2.0, 3.0),
                                    lambda_grid=(0.5, 6.0, 4)))
    terms = [op.potential_terms for _, op in assemble._mode_operators(cfg, 6.0)]
    assert terms[0] == () and terms[1] != ()   # sector 1 carries the extra potential
    _assert_stack_rows_are_the_single_pencils(cfg, 3.0, 300)


BUMP = (2.5, 1.0, 5.0)
# rows of one stack: no term (the nu = 0 row), one term, an exponent repeated
# within a row, and, for the normal-form stack, the conjugation exponent 2p - 2
NORMAL_TERMS = ((), ((0.7, 0.5),), ((0.7, 0.5), (1.0, 0.5)), ((2.0, 0.5), (-0.3, -1.5)))
WEIGHTED_TERMS = ((), ((3.0, 4.0),), ((3.0, 4.0), (0.5, 4.0)), ((0.5, 1.0),))


@pytest.mark.parametrize("bump", [None, BUMP], ids=["no-bump", "bump"])
@pytest.mark.parametrize("op", [
    RadialOperator(density_exponent=-0.5, stiffness_exponent=0.0, p=0.25, y0=1.5),
    RadialOperator(density_exponent=-1.0, stiffness_exponent=1.0, p=1.0, y0=1.0),
    RadialOperator(density_exponent=-4.0, stiffness_exponent=0.0, p=2.0, y0=1.0),
], ids=["normal-p1/4", "normal-p1", "weighted-p2"])
def test_stacked_potential_rows_are_the_per_row_assembly(op, bump):
    terms = WEIGHTED_TERMS if op.p > 1.0 else NORMAL_TERMS
    ops = [dataclasses.replace(op, potential_terms=t, bump=bump) for t in terms]
    diags, off, mass, _ = sturm.discretize_stack(ops, 3.0, 300)
    for o, diag in zip(ops, diags):
        ref_diag, ref_off, ref_mass = _reference_pencil(o, 3.0, 300)
        assert diag.tobytes() == ref_diag.tobytes()
        assert off.tobytes() == ref_off.tobytes() and mass.tobytes() == ref_mass.tobytes()


@pytest.mark.parametrize("degree", [0, 2], ids=["functions", "2-forms"])
@pytest.mark.parametrize("p", ["1.3", "1.7"])
def test_p_above_one_pencils_are_meshed_at_the_configs_p(monkeypatch, p, degree):
    """At n = 3 the weight exponents do not give p back exactly (at p = 1.3,
    0.5 (-p - (-3p)) = 1.3000000000000003), so every pencil must be meshed at
    the config's own p: for function modes on the nodes that `_mode_cut`
    certified, bit for bit (796 of the 1001 nodes of length 3 differ)."""
    meshes, mesh_for = {"certified": set(), "counted": set()}, red.mesh_for

    def recorded(pm, y0, length, cells):
        t, y = mesh_for(pm, y0, length, cells)
        # the assembly counts a mesh, the mode cut certifies one
        caller = sys._getframe(1).f_globals["__name__"]
        kind = "counted" if caller == sturm.__name__ else "certified"
        meshes[kind].add((pm, length, cells, y.tobytes()))
        return t, y

    monkeypatch.setattr(red, "mesh_for", recorded)
    config = ProblemConfig(
        geometry=EndGeometry(3, p, 1.0), degree=degree,
        cross_section=builtin_cross_section("square_torus", side=TWO_PI, dim=2),
        numerics=Numerics(grids=(250, 500), domains=(1.5, 3.0), lambda_grid=(0.5, 5.0, 4)))
    assert global_counting(config).modes
    assert {(pm, cells) for pm, _, cells, _ in meshes["counted"]} == {
        (config.geometry.pf, cells) for cells in (250, 500, 1000)}
    if degree == 0:
        assert meshes["counted"] == meshes["certified"]


def _first_bad_node(op, length, cells):
    """The first node where the row's potential, at p <= 1 the normal form's,
    is not finite."""
    _, y = red.mesh_for(op.p, op.y0, length, cells)
    terms = red.liouville_transform(op) if op.p <= 1.0 else op.potential_terms
    with np.errstate(over="ignore", invalid="ignore"):
        return int(np.flatnonzero(~np.isfinite(potential_values(y, terms, op.bump)))[0])


P1_FLAT = RadialOperator(density_exponent=-1.0, stiffness_exponent=1.0, p=1.0, y0=1.0)
P2_WEIGHTED = RadialOperator(density_exponent=-4.0, stiffness_exponent=0.0, p=2.0, y0=1.0)


@pytest.mark.parametrize("op, b, length, node, what", [
    # y^2 = e^(2z) overflows from z = 354.9 on: at the last node of z <= 355
    (P1_FLAT, 2.0, 355.0, 100, "the normal-form potential"),
    (P1_FLAT, 2.0, 360.0, 99, "the normal-form potential"),
    # y^355 overflows at y = e^2, the end of a p = 2 domain of length 2 only
    (P2_WEIGHTED, 355.0, 2.0, 100, "the potential"),
], ids=["p1-end-node", "p1-inner-node", "p2-end-node"])
def test_a_potential_that_overflows_is_refused_at_its_first_bad_node(op, b, length, node,
                                                                     what):
    # the first row is finite everywhere; the second names its first bad node
    ops = [op, dataclasses.replace(op, potential_terms=((1.0, b),))]
    assert _first_bad_node(ops[1], length, 100) == node
    with pytest.raises(sturm.SturmError) as got:
        sturm.discretize_stack(ops, length, 100)
    assert str(got.value) == (f"overflow while evaluating {what} (first bad entry {node}); "
                              "shrink the domain or exponents")


def test_a_potential_past_the_largest_float_radius_gets_the_domain_end_line():
    ops = [P1_FLAT, dataclasses.replace(P1_FLAT, potential_terms=((1.0, 2.0),))]
    with pytest.raises(red.ReduceError) as want:
        red.domain_end(1.0, 1.0, 800.0)
    with pytest.raises(red.ReduceError) as got:
        sturm.discretize_stack(ops, 800.0, 100)
    assert str(got.value) == str(want.value)


@pytest.fixture
def work(monkeypatch):
    """Record `sturm.count_below_stack` passes and `sturm.discretize_stack` rows."""
    calls = {"passes": [], "stacks": []}
    count, assembly = sturm.count_below_stack, sturm.discretize_stack

    def counted_count(diags, offs, masses, lams, sizes=None, floors=None):
        calls["passes"].append((diags.shape[-1], sizes))
        return count(diags, offs, masses, lams, sizes, floors)

    def counted_assembly(ops, *args, **kwargs):
        calls["stacks"].append(len(ops))
        return assembly(ops, *args, **kwargs)

    monkeypatch.setattr(sturm, "count_below_stack", counted_count)
    monkeypatch.setattr(sturm, "discretize_stack", counted_assembly)
    return calls


def _distinct_operators(cfg):
    """The distinct mode operators of cfg: the rows of each of its stacks."""
    top = float(cfg.numerics.lambdas()[-1])
    return len({op for _, op in assemble._mode_operators(cfg, top)})


def _small_cfg(geometry, cross_section, degree=0):
    return ProblemConfig(geometry=geometry, cross_section=cross_section, degree=degree,
                         numerics=Numerics(grids=(200, 400), domains=(6.0, 12.0),
                                           lambda_grid=(0.5, 8.0, 6)))


@pytest.mark.parametrize("cfg, modes, rows", [
    # m and -m - 2 mu have one cross-eigenvalue when 2 mu is an integer
    (circle_cfg(flux="0.5", grids=(200, 400), domains=(6.0, 12.0), lam=(0.5, 8.0, 6)),
     6, 3),
    (circle_cfg(flux="0.375", grids=(200, 400), domains=(6.0, 12.0), lam=(0.5, 8.0, 6)),
     6, 6),
    # the sectors' operators differ by (n - 2k) p (2p - 1) y^(2p - 2)
    (_small_cfg(EndGeometry(3, "1", 1.0), builtin_cross_section(
        "table", volume=1.0, tables=[[(0.0, 1), (2.0, 1)], [(0.0, 2), (1.0, 2)],
                                     [(0.0, 1)]]), degree=1), 2, 2),
    # with no flux, the labels m and -m of a lattice torus share nu, and here
    # (3,1) and (2,2) do too, so four of the 51 modes share one row
    (_small_cfg(EndGeometry(3, "1", 1.0), builtin_cross_section(
        "lattice_torus", dual_basis=((0.1, 0.0), (0.025, 0.125)))), 51, 25),
    # kappa = (n - 2k) p (2p - 1) = 0 at n = 2k: the two sectors are one operator
    (_small_cfg(EndGeometry(4, "1/2", 1.0), builtin_cross_section(
        "square_torus", side=TWO_PI, dim=3), degree=2), 2, 1),
], ids=["flux-1/2", "flux-3/8", "table-forms", "lattice-torus", "middle-degree-forms"])
def test_modes_with_equal_operators_share_a_row(work, cfg, modes, rows):
    rep = global_counting(cfg, with_eigenvalues=True)
    assert len(rep.modes) == modes and _distinct_operators(cfg) == rows
    assert work["stacks"] == [rows] * len(cfg.numerics.grids)   # the domains nest
    # each mode reads what its own pencil gives, counted and listed alone
    num, lambdas = cfg.numerics, cfg.numerics.lambdas()
    ops = assemble._mode_operators(cfg, float(lambdas[-1]))
    totals = {}
    for g in num.grids:
        for T in num.domains:
            cells = red.cells_for(g, T, num.domains[0])
            totals[(g, T)] = 0
            for r, (m, op) in zip(rep.modes, ops):
                pen = sturm.discretize(op, T, cells)
                counts, settled = sturm.count_below_stack(pen.diag[None], pen.offdiag,
                                                          pen.mass, lambdas)
                totals[(g, T)] = totals[(g, T)] + m.multiplicity * counts[0]
                if (g, T) == (num.grids[-1], num.domains[-1]):
                    assert r.mode == m
                    assert np.array_equal(r.counts, counts[0])
                    assert np.array_equal(r.settled, settled[0])
                    assert r.eigenvalues == sturm.eigenvalues_below(pen, float(lambdas[-1]),
                                                                    num.tol)
    assert all(np.array_equal(rep.totals_by_combo[c], totals[c]) for c in totals)
    assert list(rep.totals_by_combo) == list(totals)
    # modes that share a row still own their listings
    assert len({id(r.eigenvalues) for r in rep.modes}) == modes
    assert sum(len(r.eigenvalues) > 0 for r in rep.modes) > 1


def test_nested_domains_take_one_assembly_and_one_pass_per_grid(work):
    cfg = circle_cfg(flux="0.5", y0=1.5, lam=(0.5, 30.0, 12))
    rep = global_counting(cfg)
    assert len(rep.modes) == 8 and _distinct_operators(cfg) == 4
    # domains 8, 16, 32 at 500 and 1000 cells on the first: one width per grid
    assert work["passes"] == [(1999, [499, 999, 1999]), (3999, [999, 1999, 3999])]
    assert work["stacks"] == [4] * 2


@pytest.mark.parametrize("cfg, modes, rows", [
    (circle_cfg(p="2", flux="0", grids=(200, 400), domains=(2.0, 3.0, 4.0),
                lam=(0.5, 6.0, 12)), 5, 3),
    (circle_cfg(flux="0.5", domains=(6.0, 8.0), lam=(0.5, 8.0, 4)), 6, 3),
], ids=["p>1", "widths-differ"])
def test_domains_that_do_not_nest_take_one_pass_per_combo(work, cfg, modes, rows):
    rep = global_counting(cfg)
    num = cfg.numerics
    combos = len(num.grids) * len(num.domains)
    assert [sizes for _, sizes in work["passes"]] == [[n] for n, _ in work["passes"]]
    assert len(work["passes"]) == combos
    assert len(rep.modes) == modes and _distinct_operators(cfg) == rows
    assert work["stacks"] == [rows] * combos


def test_partly_nested_domains_share_a_pass_and_stay_bracketed(work):
    # at 500 cells on 8, domain 11 has 688 cells (another width) while 8 and
    # 16 nest; at 1000 cells on 8 all three nest
    cfg = circle_cfg(flux="0", y0=1.5, domains=(8.0, 11.0, 16.0), lam=(0.05, 1.0, 12))
    rep = global_counting(cfg)
    assert work["passes"] == [(687, [687]), (999, [499, 999]), (1999, [999, 1374, 1999])]
    assert work["stacks"] == [len(rep.modes)] * 3
    # the three nest at 1000 cells: the group's raise found no count falling
    assert np.all(np.diff([rep.totals_by_combo[(1000, T)] for T in (8.0, 11.0, 16.0)],
                          axis=0) >= 0)
    assert list(rep.totals_by_combo) == [(g, T) for g in (500, 1000) for T in (8.0, 11.0, 16.0)]


@pytest.mark.parametrize("check, probes", [
    (threshold_probe, 1), (cut_invariance_check, 2), (perturbation_stability_check, 2)])
def test_the_threshold_verdicts_count_only_the_finest_grid(work, check, probes):
    cfg = circle_cfg(flux="0", y0=1.5, lam=(0.05, 1.0, 12))
    check(cfg)
    # grid 1000 of (500, 1000): one assembly per probe and one pass over the
    # probes' one nested group (8, 16, 32); nothing at 500 cells on the first domain
    assert work["passes"] == [(3999, [999, 1999, 3999])]
    assert len(work["stacks"]) == probes


@pytest.mark.parametrize("configs, offs, rows", [
    ([circle_cfg(flux="0"), circle_cfg(flux="0", y0=1.5)], [2], [True, True]),
    ([circle_cfg(flux="0"), circle_cfg(flux="0").with_bump((2.5, 1.0, 5.0))], [1],
     [True, True]),
    ([circle_cfg(p="2", flux="0", y0=y0, grids=(200, 400), domains=(2.0, 3.0, 4.0),
                 lam=(0.5, 6.0, 12)) for y0 in (1.0, 1.5)], [2] * 3, [True, True]),
    # at flux 1/2 no mode reaches 0.5 from Y0 = 1.5, so that probe has no rows
    ([circle_cfg(flux="0.5", y0=1.5), circle_cfg(flux="0.5")], [1], [False, True]),
    # the k = 0 lanes of flux 0 stay open above 1/4, those of flux 1/2 settle
    ([circle_cfg(flux="0.5"), circle_cfg(flux="0")], [1], [True, True]),
], ids=["cut-radii", "bump", "p=2-cut-radii", "no-rows", "fluxes"])
def test_stacked_probes_are_the_probes_one_by_one(monkeypatch, configs, offs, rows):
    reports, passes = [], []
    executor, count = assemble._spectrum_reports, sturm.count_below_stack

    def recorded(configs, *args):
        reports.append(executor(configs, *args))
        return reports[-1]

    def counted(diags, offs, *args, **kwargs):
        passes.append(np.ndim(offs))
        return count(diags, offs, *args, **kwargs)

    monkeypatch.setattr(assemble, "_spectrum_reports", recorded)
    monkeypatch.setattr(sturm, "count_below_stack", counted)
    stacked = assemble.threshold_probes(configs)
    # one pass per nested group, with one mesh per row only where the meshes differ
    assert passes == offs
    assert [bool(r.modes) for r in reports[0]] == rows
    alone = [threshold_probe(c) for c in configs]
    assert [dataclasses.asdict(e) for e in stacked] == [dataclasses.asdict(e) for e in alone]
    for together, (apart,) in zip(reports[0], reports[1:]):
        assert [r.mode for r in together.modes] == [r.mode for r in apart.modes]
        for a, b in zip(together.modes, apart.modes):
            assert np.array_equal(a.counts, b.counts) and np.array_equal(a.settled, b.settled)
        assert list(together.totals_by_combo) == list(apart.totals_by_combo)
        assert all(np.array_equal(t, apart.totals_by_combo[c])
                   for c, t in together.totals_by_combo.items())


@pytest.mark.parametrize("y0s", [(1.0, 1.5), (1.5, 1.0)])
def test_stacked_probes_raise_the_refusal_of_the_first_variant(monkeypatch, y0s):
    # Y0 = 1.5 refuses in its mode walk, before any assembly; Y0 = 1 refuses
    # only at its last domain, which p = 2 counts in its own group
    configs = [circle_cfg(p="2", flux="0", y0=y0, grids=(200, 400), domains=(2.0, 3.0, 4.0),
                          lam=(0.5, 6.0, 12)) for y0 in y0s]
    walk, assembly = red.enumerate_modes, sturm.discretize_stack

    def refused_walk(config, lambda_max):
        if config.geometry.y0 == 1.5:
            raise red.ReduceError("the walk of Y0 = 1.5")
        return walk(config, lambda_max)

    def refused_assembly(ops, length, cells):
        if ops[0].y0 == 1.0 and length == 4.0:
            raise sturm.SturmError("the last domain of Y0 = 1")
        return assembly(ops, length, cells)

    monkeypatch.setattr(red, "enumerate_modes", refused_walk)
    monkeypatch.setattr(sturm, "discretize_stack", refused_assembly)
    with pytest.raises(ValueError) as alone:
        for config in configs:
            threshold_probe(config)
    with pytest.raises(type(alone.value), match=str(alone.value)):
        assemble.threshold_probes(configs)
    assert str(alone.value).endswith(f"Y0 = {y0s[0]:g}")


WEYL_CFG = """\
geometry.n = 2
geometry.p = 1
cross_section.kind = circle
cross_section.length = 6.283185307179586
degree = 0
magnetic.flux = 0.5
numerics.grid = 300,600
numerics.domain_z = 5,6
numerics.lambda_grid = 100,1000,8
numerics.lambda_scale = log
"""


def test_weyl_counts_only_the_finest_grid(work, tmp_path, capsys):
    path = tmp_path / "weyl.cfg"
    path.write_text(WEYL_CFG)
    assert cli.main(["weyl", "--config", str(path)]) == 0
    assert "consistent: True" in capsys.readouterr().out
    # domains 5 and 6 at 600 and 720 cells nest: one assembly and one pass
    assert work["passes"] == [(719, [599, 719])]
    assert len(work["stacks"]) == 1


def test_middle_degree_sectors_share_one_row_of_both_multiplicities():
    """At n = 4, k = 2 on the 3-torus kappa = 0, so h0 and h1 are one operator
    and one stack row of multiplicity h^2 + h^1 = 3 + 3."""
    cfg = _small_cfg(EndGeometry(4, "1/2", 1.0),
                     builtin_cross_section("square_torus", side=TWO_PI, dim=3), degree=2)
    ops = assemble._mode_operators(cfg, 8.0)
    assert [m.name for m, _ in ops] == ["h0", "h1"] and ops[0][1] == ops[1][1]
    rows, row_of, mult = assemble._distinct_rows(ops)
    assert len(rows) == 1 and row_of == [0, 0] and mult.tolist() == [6]
