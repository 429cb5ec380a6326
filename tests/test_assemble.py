"""Aggregation: counting tables, probes, fits, invariance checks."""

import math

import numpy as np
import pytest

from cusplab.assemble import (AssembleError, cut_invariance_check,
                              global_counting, perturbation_stability_check,
                              report_to_csv, report_to_dict, report_two_column,
                              threshold_probe, weyl_fit)
from cusplab.criteria import LOG_LAW, POWER_N2
from cusplab.model import (EndGeometry, MagneticData, Numerics, ProblemConfig,
                           builtin_cross_section)

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
    csv = report_to_csv(rep)
    lines = csv.strip().split("\n")
    assert lines[0].startswith("lambda,N_total,N_mode_")
    assert len(lines) == 1 + 12
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
