"""Aggregation: counting tables, probes, fits, invariance checks."""

import math

import numpy as np
import pytest

from cusplab import assemble, reduce as red, sturm
from cusplab.assemble import (AssembleError, cut_invariance_check,
                              global_counting, perturbation_stability_check,
                              report_to_dict, report_two_column,
                              threshold_probe, weyl_fit)
from cusplab.criteria import LOG_LAW, POWER_N2
from cusplab.model import (EndGeometry, MagneticData, Numerics, ProblemConfig,
                           RadialPotential, builtin_cross_section)

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
        global_counting(cfg, with_eigenvalues=True, eigen_cap=0)


def test_eigenvalue_listing_reuses_the_finest_pencils(monkeypatch):
    cfg = circle_cfg(flux="0.5", lam=(0.5, 8.0, 4), domains=(6.0, 8.0))
    calls = []
    real = sturm.discretize

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(sturm, "discretize", counted)
    rep = global_counting(cfg, with_eigenvalues=True)
    monkeypatch.undo()
    # one assembly per mode and (grid, domain) combo, none again for the listing
    assert len(calls) == 2 * 2 * len(rep.modes)
    cells = sturm.cells_for(1000, 8.0, 6.0)
    for r in rep.modes:
        pen = assemble._discretize_mode(cfg, red.mode_operator(cfg, r.mode), 8.0, cells)
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


def test_probe_needs_three_domains():
    with pytest.raises(AssembleError, match="3 domain"):
        threshold_probe(circle_cfg(flux="0", domains=(8.0, 16.0)))


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
    fit = weyl_fit(rep, POWER_N2, 2, 1.0)
    assert 0.95 <= fit.exponent <= 1.15
    assert fit.constant == pytest.approx(0.5, rel=0.15)


def test_weyl_fit_requires_growth_and_span():
    cfg = circle_cfg(flux="0.5", lam=(0.05, 0.2, 5))
    rep = global_counting(cfg)
    with pytest.raises(AssembleError, match="no growth"):
        weyl_fit(rep, POWER_N2, 2, 1.0)
    cfg2 = circle_cfg(flux="0.5", grids=(1000, 2000), domains=(6.0, 8.0),
                      lam=(40.0, 80.0, 6), scale="log")
    rep2 = global_counting(cfg2)
    with pytest.raises(AssembleError, match="decade"):
        weyl_fit(rep2, POWER_N2, 2, 1.0)


def test_cut_invariance_passes_for_essential_case():
    check = cut_invariance_check(circle_cfg(flux="0"), (1.0, 2.0))
    assert check.passed
    vals = [e.value for e in check.variants.values()]
    assert all(abs(v - 0.25) <= 0.02 for v in vals)


def test_cut_invariance_pure_point_stable_counts():
    check = cut_invariance_check(circle_cfg(flux="0.5"), (1.0, 2.0))
    assert check.passed
    assert any("discrete spectrum" in n for n in check.notes)


def test_cut_invariance_needs_two_y0():
    with pytest.raises(AssembleError, match="2 values"):
        cut_invariance_check(circle_cfg(flux="0"), (1.0,))


def test_perturbation_check_with_bump():
    check = perturbation_stability_check(circle_cfg(flux="0"), (2.5, 1.0, 5.0))
    assert check.passed
    base, bumped = check.variants["base"], check.variants["bumped"]
    assert abs(base.value - bumped.value) <= base.error + bumped.error


def test_perturbation_zero_bump_is_identity():
    cfg = circle_cfg(flux="0")
    check = perturbation_stability_check(cfg, (2.5, 1.0, 0.0))
    assert check.passed
    assert check.variants["base"].value == check.variants["bumped"].value


def test_perturbation_negative_bump_on_pure_point():
    # a small negative dip cannot destabilize a confining problem
    check = perturbation_stability_check(circle_cfg(flux="0.5"), (2.5, 1.0, -0.1))
    assert check.passed
    assert check.variants["bumped"].no_growth


def test_report_csv_and_dump_shapes():
    cfg = circle_cfg(flux="0.5", lam=(0.5, 30.0, 12))
    rep = global_counting(cfg)
    dump = report_two_column(rep)
    assert len(dump.strip().split("\n")) == 12
    d = report_to_dict(rep)
    assert d["prediction"]["classification"] == "pure_point"
    assert len(d["N_total"]) == 12


def test_log_regime_fit_runs():
    cfg = circle_cfg(p="0.5", flux="0.5", grids=(3000, 6000), domains=(40.0, 50.0),
                     lam=(10.0, 110.0, 12), scale="log")
    rep = global_counting(cfg)
    fit = weyl_fit(rep, LOG_LAW, 2, 0.5)
    assert fit.exponent_fixed and fit.exponent == 1.0
    assert fit.constant == pytest.approx(0.5, rel=0.3)


def test_lambdas_must_increase_strictly():
    cfg = circle_cfg(flux="0.5")
    for lams in ([0.5, 0.5, 1.0], [1.0, 0.5], [0.5, float("nan")]):
        with pytest.raises(AssembleError, match="strictly increasing"):
            global_counting(cfg, lambdas=lams)


def test_counts_decreasing_in_lambda_are_an_internal_error(counts_reversed_in_lambda):
    cfg = circle_cfg(flux="0.5", lam=(0.5, 30.0, 12))
    with pytest.raises(AssembleError, match=r"counts decreased in lambda for mode "
                                            r"\S+ at grid=500, domain=8\.0"):
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
        longest = [assemble._discretize_mode(cfg, op, 16.0, cells[16.0]) for _, op in ops]
        for T in (8.0, 12.0, 16.0):
            pens = [assemble._discretize_mode(cfg, op, T, cells[T]) for _, op in ops]
            for pen, full in zip(pens, longest):
                n = pen.n
                assert n == cells[T] - 1
                assert np.array_equal(pen.diag, full.diag[:n])
                assert np.array_equal(pen.offdiag, full.offdiag[:n - 1])
                assert np.array_equal(pen.mass, full.mass[:n])
            counts = sturm.count_below_stack(np.stack([pen.diag for pen in pens]),
                                             pens[0].offdiag, pens[0].mass, lambdas)
            assert np.array_equal(rep.totals_by_combo[(g, T)],
                                  (mult[:, None] * counts).sum(axis=0))


@pytest.fixture
def work(monkeypatch):
    """Count `sturm.count_below_stack` passes and `sturm.discretize` calls."""
    calls = {"passes": [], "discretize": 0}
    stack, discretize = sturm.count_below_stack, sturm.discretize

    def counted_stack(diags, offs, masses, lams, sizes=None):
        calls["passes"].append((diags.shape[-1], sizes))
        return stack(diags, offs, masses, lams, sizes)

    def counted_discretize(*args, **kwargs):
        calls["discretize"] += 1
        return discretize(*args, **kwargs)

    monkeypatch.setattr(sturm, "count_below_stack", counted_stack)
    monkeypatch.setattr(sturm, "discretize", counted_discretize)
    return calls


def test_nested_domains_take_one_assembly_and_one_pass_per_grid(work):
    cfg = circle_cfg(flux="0.5", y0=1.5, lam=(0.5, 30.0, 12))
    rep = global_counting(cfg)
    assert len(rep.modes) > 1
    # domains 8, 16, 32 at 500 and 1000 cells on the first: one width per grid
    assert work["passes"] == [(1999, [499, 999, 1999]), (3999, [999, 1999, 3999])]
    assert work["discretize"] == 2 * len(rep.modes)


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
    assert work["discretize"] == combos * len(rep.modes)


def test_partly_nested_domains_share_a_pass_and_stay_bracketed(work):
    # at 500 cells on 8, domain 11 has 688 cells (another width) while 8 and
    # 16 nest; at 1000 cells on 8 all three nest
    cfg = circle_cfg(flux="0", y0=1.5, domains=(8.0, 11.0, 16.0), lam=(0.05, 1.0, 12))
    rep = global_counting(cfg)
    assert work["passes"] == [(687, [687]), (999, [499, 999]), (1999, [999, 1374, 1999])]
    assert work["discretize"] == 3 * len(rep.modes)
    assert rep.domain_monotone
    assert list(rep.totals_by_combo) == [(g, T) for g in (500, 1000) for T in (8.0, 11.0, 16.0)]
