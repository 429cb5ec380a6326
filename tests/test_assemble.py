"""Aggregation: counting tables, probes, fits, invariance checks."""

import dataclasses
import math

import numpy as np
import pytest

from cusplab import assemble, sturm
from cusplab.assemble import (AssembleError, cut_invariance_check,
                              global_counting, perturbation_stability_check,
                              threshold_probe, weyl_fit)
from cusplab.criteria import LOG_LAW, POWER_HALF_P, POWER_N2
from cusplab.model import (ConfigError, EndGeometry, MagneticData, Numerics,
                           ProblemConfig, RadialPotential, builtin_cross_section)
from cusplab.reduce import CanonicalOperator

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
    # one stack per (grid, domain) combo, none again for the listing
    assert work["stacks"] == [len(rep.modes)] * 4
    cells = sturm.cells_for(1000, 8.0, 6.0)
    for r, (_, op) in zip(rep.modes, assemble._mode_operators(cfg, 8.0)):
        pen = sturm.discretize(op, 8.0, cells)
        assert r.eigenvalues == sturm.eigenvalues_below(pen, 8.0, cfg.numerics.tol)


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
        cells = {T: sturm.cells_for(g, T, 8.0) for T in cfg.numerics.domains}
        assert len({T / c for T, c in cells.items()}) == 1     # one mesh width
        diags, off, mass = sturm.discretize_stack([op for _, op in ops], 16.0, cells[16.0])
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
    diag = k[:-1] + k[1:] + q w0 lump; the normal form in z with W = op.q(y(z))."""
    t, y = sturm.mesh_for(op, length, cells)
    if isinstance(op, CanonicalOperator):
        h, w1, w0, q = np.diff(t), np.ones(cells), np.ones(cells + 1), op.q(y)
    else:
        h, w1, w0, q = np.diff(y), op.w1(0.5 * (y[:-1] + y[1:])), op.w0(y), op.q(y)
    lump = 0.5 * (h[:-1] + h[1:])
    k = w1 / h
    return k[:-1] + k[1:] + q[1:-1] * w0[1:-1] * lump, -k[1:-1], w0[1:-1] * lump


def _assert_stack_rows_are_the_single_pencils(cfg, domain, cells):
    ops = [op for _, op in assemble._mode_operators(cfg, float(cfg.numerics.lambdas()[-1]))]
    assert len(ops) > 1
    diags, off, mass = sturm.discretize_stack(ops, domain, cells)
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


@pytest.fixture
def work(monkeypatch):
    """Record `sturm.count_below_stack` passes and `sturm.discretize_stack` rows."""
    calls = {"passes": [], "stacks": []}
    count, assembly = sturm.count_below_stack, sturm.discretize_stack

    def counted_count(diags, offs, masses, lams, sizes=None):
        calls["passes"].append((diags.shape[-1], sizes))
        return count(diags, offs, masses, lams, sizes)

    def counted_assembly(ops, *args, **kwargs):
        calls["stacks"].append(len(ops))
        return assembly(ops, *args, **kwargs)

    monkeypatch.setattr(sturm, "count_below_stack", counted_count)
    monkeypatch.setattr(sturm, "discretize_stack", counted_assembly)
    return calls


def test_nested_domains_take_one_assembly_and_one_pass_per_grid(work):
    cfg = circle_cfg(flux="0.5", y0=1.5, lam=(0.5, 30.0, 12))
    rep = global_counting(cfg)
    assert len(rep.modes) > 1
    # domains 8, 16, 32 at 500 and 1000 cells on the first: one width per grid
    assert work["passes"] == [(1999, [499, 999, 1999]), (3999, [999, 1999, 3999])]
    assert work["stacks"] == [len(rep.modes)] * 2


@pytest.mark.parametrize("cfg", [
    circle_cfg(p="2", flux="0", grids=(200, 400), domains=(2.0, 3.0, 4.0),
               lam=(0.5, 6.0, 12)),
    circle_cfg(flux="0.5", domains=(6.0, 8.0), lam=(0.5, 8.0, 4)),
], ids=["p>1", "widths-differ"])
def test_domains_that_do_not_nest_take_one_pass_per_combo(work, cfg):
    rep = global_counting(cfg)
    num = cfg.numerics
    combos = len(num.grids) * len(num.domains)
    assert [sizes for _, sizes in work["passes"]] == [[n] for n, _ in work["passes"]]
    assert len(work["passes"]) == combos
    assert work["stacks"] == [len(rep.modes)] * combos


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
