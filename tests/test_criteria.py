"""Analytic layer: predicates, thresholds, and counting constants."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cusplab import zeta
from cusplab.cli import _prediction_dict
from cusplab.criteria import (CriteriaError, classify, form_constants,
                              full_ellipticity_forms, magnetic_pure_point,
                              magnetic_schrodinger_bound,
                              thresholds_forms, vol_end, vol_sphere, weyl_constants,
                              weyl_regime, POWER_N2, LOG_LAW, POWER_HALF_P)
from cusplab.model import (EndGeometry, MagneticData, ProblemConfig,
                           RadialPotential, builtin_cross_section)
from cusplab.reduce import (enumerate_modes, min_cross_eigenvalue, mode_operator,
                            mode_threshold)

TWO_PI = 2 * math.pi


def circle_cfg(p, flux=None, potential=None, length=TWO_PI, y0=1.0, degree=0):
    return ProblemConfig(
        geometry=EndGeometry(2, p, y0),
        cross_section=builtin_cross_section("circle", length=length),
        degree=degree,
        magnetic=MagneticData(flux=(flux,)) if flux is not None else None,
        potential=potential)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def test_full_ellipticity_sphere_middle_degree():
    # 3-sphere cross-section of a 4-manifold, betti (1,0,0,1)
    assert full_ellipticity_forms(4, 2, (1, 0, 0, 1)) is True


def test_full_ellipticity_functions_never_on_closed_m():
    assert full_ellipticity_forms(2, 0, (1, 1)) is False


def test_full_ellipticity_torus_degree_one():
    assert full_ellipticity_forms(3, 1, (1, 2, 1)) is False


def test_form_constants_values():
    assert form_constants(2, 0, 1) == (-0.5, -1.5)
    assert form_constants(3, 1, 1) == (0.0, -1.0)
    assert form_constants(3, 1, 0.5) == (0.5 * 0.5 - 0.5, (-1.5 + 1.0) / 2.0)


def test_thresholds_torus_n3_k1():
    pred = thresholds_forms(3, 1, 1, (1, 2, 1))
    assert pred.thresholds == (0.0, 1.0)
    assert pred.essential_bottom == 0.0


def test_thresholds_scalar_quarter():
    pred = thresholds_forms(2, 0, 1, (1, 1))
    assert pred.essential_bottom == 0.25


def test_thresholds_p_above_one_pure_point():
    pred = thresholds_forms(2, 0, 2, (1, 1))
    assert pred.is_pure_point


def test_thresholds_p_below_one_zero():
    pred = thresholds_forms(2, 0, Fraction(1, 2), (1, 1))
    assert pred.thresholds == (0.0,)


@given(st.integers(min_value=2, max_value=8), st.data())
@settings(max_examples=60, deadline=None)
def test_threshold_set_hodge_duality(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    c0, c1 = form_constants(n, k, 1)
    d0, d1 = form_constants(n, n - k, 1)
    assert {c0 * c0, c1 * c1} == {d0 * d0, d1 * d1}


@given(st.integers(min_value=2, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_full_ellipticity_implies_pure_point_for_p_at_most_one(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    betti = tuple(data.draw(st.integers(min_value=0, max_value=3))
                  for _ in range(n))
    p = data.draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)]))
    if full_ellipticity_forms(n, k, betti):
        assert thresholds_forms(n, k, p, betti).is_pure_point


def test_magnetic_cases():
    pp = magnetic_pure_point(MagneticData(flux=("0.5",)), 2, 1)
    assert pp.is_pure_point
    ess = magnetic_pure_point(MagneticData(flux=("3",)), 2, 1)
    assert ess.essential_bottom == 0.25
    low = magnetic_pure_point(MagneticData(flux=("0",)), 2, Fraction(1, 2))
    assert low.essential_bottom == 0.0
    incomplete = magnetic_pure_point(MagneticData(flux=("2",)), 2, 2)
    assert incomplete.is_pure_point


def test_magnetic_nonclosed_or_nonconstant_is_pure_point():
    assert magnetic_pure_point(
        MagneticData(flux=("0",), theta0_closed=False), 2, 1).is_pure_point
    assert magnetic_pure_point(
        MagneticData(flux=("0",), phi0_constant=False), 2, 1).is_pure_point


@given(st.sampled_from(["0", "0.5", "0.25", "-1.75"]),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=30, deadline=None)
def test_magnetic_classification_invariant_under_integer_shift(flux, e):
    mag = MagneticData(flux=(flux,))
    base = magnetic_pure_point(mag, 2, 1)
    moved = magnetic_pure_point(MagneticData(flux=(mag.flux[0] + e,)), 2, 1)
    assert base.classification == moved.classification
    assert base.thresholds == moved.thresholds


def test_schrodinger_predicate_table():
    def classified(*poly):
        return classify(circle_cfg(1, flux="0", potential=RadialPotential(poly=poly)))

    assert classified((1.0, 2.0)).is_pure_point
    assert classified((0.0, 2.0)).thresholds == (0.25,)
    falling = classified((-0.1, 2.0))
    assert falling.thresholds == (0.25,)
    assert any("outside the certified criteria" in note for note in falling.notes)


@pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(1, 2), Fraction(1)])
@pytest.mark.parametrize("flux", ["0", "2"])
@pytest.mark.parametrize("poly", [
    ((0.5, 0.0),),
    ((0.1, 0.0), (0.3, 0.0), (-0.3, -1.0)),   # (1/4 + 0.1) + 0.3 != 1/4 + (0.1 + 0.3)
    ((0.7, 0.0), (3.0, -0.5), (-0.1, 0.0)),
])
def test_the_predicted_bottom_is_the_zero_modes_threshold_bit_for_bit(p, flux, poly):
    cfg = circle_cfg(p, flux=flux, potential=RadialPotential(poly=poly))
    (zero,) = [m for m in enumerate_modes(cfg, 10.0) if m.nu == 0.0]
    assert classify(cfg).essential_bottom == mode_threshold(mode_operator(cfg, zero))


def test_a_term_below_y2p_that_confines_certifies_no_counting_law():
    pred = classify(circle_cfg(Fraction(1, 4), potential=RadialPotential(poly=((1.0, 0.25),))))
    assert pred.is_pure_point
    assert pred.weyl_exponent is None and pred.weyl_constant is None and pred.c3_tail is None
    assert any("not certified" in note for note in pred.notes)


def test_magnetic_schrodinger_bound_enumeration_oracle():
    cs = builtin_cross_section("circle", length=TWO_PI)
    for mu in (Fraction(1, 2), Fraction(1, 4), Fraction(-3, 8)):
        oracle = min((m + float(mu)) ** 2 for m in range(-50, 51))
        assert magnetic_schrodinger_bound(cs, (mu,)) == pytest.approx(oracle, abs=0)
    assert magnetic_schrodinger_bound(cs, ("0.5",)) == 0.25
    assert magnetic_schrodinger_bound(cs, ("0.25",)) == 0.0625


def test_magnetic_schrodinger_bound_integral_flux_vacuous():
    cs = builtin_cross_section("circle", length=TWO_PI)
    with pytest.raises(CriteriaError, match="vacuous"):
        magnetic_schrodinger_bound(cs, ("1",))


def test_min_cross_eigenvalue_lattice_oracle():
    cs = builtin_cross_section("lattice_torus",
                               dual_basis=[[0.21, 0.04], [0.01, 0.17]])
    flux = (Fraction(1, 3), Fraction(-2, 5))
    brute = min(
        sum(v * v for v in
            (TWO_PI * (0.21 * (m1 + 1 / 3) + 0.04 * (m2 - 2 / 5)),
             TWO_PI * (0.01 * (m1 + 1 / 3) + 0.17 * (m2 - 2 / 5))))
        for m1 in range(-8, 9) for m2 in range(-8, 9))
    assert min_cross_eigenvalue(cs, flux) == pytest.approx(brute, rel=1e-12)


def test_min_cross_eigenvalue_3d_lattice_oracle():
    basis = [[0.19, 0.03, -0.02], [0.01, 0.23, 0.05], [-0.04, 0.02, 0.15]]
    cs = builtin_cross_section("lattice_torus", dual_basis=basis)
    flux = (Fraction(2, 7), Fraction(-1, 3), Fraction(5, 11))
    mu = [float(f) for f in flux]
    brute = min(
        sum((TWO_PI * sum(row[j] * (m[j] + mu[j]) for j in range(3))) ** 2
            for row in basis)
        for m in itertools.product(range(-6, 7), repeat=3))
    assert min_cross_eigenvalue(cs, flux) == pytest.approx(brute, rel=1e-12)


# ---------------------------------------------------------------------------
# regimes and constants
# ---------------------------------------------------------------------------

def test_weyl_regime_boundaries():
    assert weyl_regime(2, 1) == POWER_N2
    assert weyl_regime(2, Fraction(1, 2)) == LOG_LAW
    assert weyl_regime(2, Fraction(1, 4)) == POWER_HALF_P
    assert weyl_regime(3, Fraction(1, 3)) == LOG_LAW


def test_vol_sphere_values():
    assert vol_sphere(2) == pytest.approx(TWO_PI)
    assert vol_sphere(3) == pytest.approx(4 * math.pi)
    assert vol_sphere(4) == pytest.approx(2 * math.pi**2)


def test_vol_end_formula():
    assert vol_end(2, 1, 1.0, TWO_PI) == pytest.approx(TWO_PI)
    assert vol_end(2, 1, 2.0, TWO_PI) == pytest.approx(TWO_PI / 2.0)
    with pytest.raises(CriteriaError):
        vol_end(2, Fraction(1, 2), 1.0, TWO_PI)


def test_c1_is_length_over_4pi():
    consts = weyl_constants(circle_cfg(1, flux="0.5"))
    assert consts.constant == pytest.approx(TWO_PI / (4 * math.pi))
    consts2 = weyl_constants(circle_cfg(1, flux="0.5", length=3.0))
    assert consts2.constant == pytest.approx(3.0 / (4 * math.pi))


def test_c2_is_length_over_4pi():
    cfg = circle_cfg(Fraction(1, 2), flux="0.5")
    assert weyl_constants(cfg).constant == pytest.approx(0.5)
    assert classify(cfg).constants["C1"] is None


def test_c3_schrodinger_quarter_prefactor():
    # p = 1/4: prefactor Gamma(3/2) / (2 sqrt(pi) Gamma(2)) = 1/4 and the
    # mode weight is nu^(-3/2), so C3 = (1/4) sum (m^2+1)^(-3/2)
    cfg = circle_cfg(Fraction(1, 4), potential=RadialPotential(poly=((1.0, 0.5),)))
    consts = weyl_constants(cfg)
    brute = 1.0 + 2.0 * sum((m * m + 1.0) ** -1.5 for m in range(1, 200000))
    assert consts.constant == pytest.approx(0.25 * brute, rel=1e-9)
    assert consts.c3_tail < 1e-9 * consts.constant


def test_c3_pure_forms_excludes_zero_modes():
    cfg = circle_cfg(Fraction(1, 4))
    consts = weyl_constants(cfg)
    # degree 0 and degree -1: only the function zeta, zero mode excluded
    brute = 2.0 * sum(float(m * m) ** -1.5 for m in range(1, 200000))
    assert consts.constant == pytest.approx(0.25 * brute, rel=1e-8)


def test_c3_on_torus_forms_sums_the_lattice_zeta_once(monkeypatch):
    # degree 1 on the square 2-torus: degrees 0 and 1 share the function
    # zeta with weights binom(2, 0) + binom(2, 1) = 3
    calls = []
    lattice = zeta.lattice_zeta
    monkeypatch.setattr(zeta, "lattice_zeta", lambda *a: calls.append(a) or lattice(*a))
    cfg = ProblemConfig(
        geometry=EndGeometry(3, Fraction(1, 10), 1.0),
        cross_section=builtin_cross_section("square_torus", side=TWO_PI, dim=2),
        degree=1)
    consts = weyl_constants(cfg)
    assert len(calls) == 1
    base = lattice(*calls[0])
    pref = math.gamma(4.5) / (2.0 * math.sqrt(math.pi) * math.gamma(5.0))
    assert consts.constant == pytest.approx(3.0 * pref * base.value, rel=1e-14)
    assert consts.c3_tail == pytest.approx(3.0 * pref * base.tail, rel=1e-14)


def test_c3_magnetic_is_fit_only():
    consts = weyl_constants(circle_cfg(Fraction(1, 4), flux="0.5"))
    assert consts.constant is None
    assert any("fit-only" in n for n in consts.notes)


def test_c1_c2_ignore_flux_and_potential():
    base = weyl_constants(circle_cfg(1))
    with_flux = weyl_constants(circle_cfg(1, flux="0.3"))
    with_pot = weyl_constants(circle_cfg(1, potential=RadialPotential(poly=((5.0, 2.0),))))
    assert base.constant == with_flux.constant == with_pot.constant
    base2 = weyl_constants(circle_cfg(Fraction(1, 2)))
    fl2 = weyl_constants(circle_cfg(Fraction(1, 2), flux="0.3"))
    assert base2.constant == fl2.constant


# ---------------------------------------------------------------------------
# composite classification
# ---------------------------------------------------------------------------

def test_classify_positive_potential_wins():
    cfg = circle_cfg(1, flux="2", potential=RadialPotential(poly=((1.0, 2.0),)))
    assert classify(cfg).is_pure_point


def test_classify_magnetic_gap_note():
    cfg = circle_cfg(1, flux="0.5", potential=RadialPotential(poly=((-0.1, 2.0),)))
    pred = classify(cfg)
    assert pred.is_pure_point
    assert any("flux gap" in n for n in pred.notes)


def test_classify_gap_exceeded_warns():
    cfg = circle_cfg(1, flux="0.5", potential=RadialPotential(poly=((-0.3, 2.0),)))
    pred = classify(cfg)
    assert any("exceeds the flux gap" in n for n in pred.notes)


def test_classify_scalar_essential():
    pred = classify(circle_cfg(1, flux="0"))
    assert pred.essential_bottom == 0.25
    assert pred.weyl_regime == POWER_N2


@pytest.mark.parametrize("p, regime, exponent, name", [
    (1, POWER_N2, 1.0, "C1"),
    (Fraction(1, 2), LOG_LAW, 1.0, "C2"),
    (Fraction(1, 4), POWER_HALF_P, 2.0, "C3"),
])
def test_prediction_states_the_regime_law(p, regime, exponent, name):
    # a positive boundary potential V0 y^(2p) makes every regime pure point
    pred = classify(circle_cfg(p, potential=RadialPotential(poly=((1.0, 2 * float(p)),))))
    assert pred.weyl_regime == regime
    assert pred.weyl_exponent == exponent
    assert pred.weyl_constant is not None
    assert pred.constants[name] == pred.weyl_constant
    assert sum(c is not None for c in pred.constants.values()) == 1
    assert _prediction_dict(pred)["constants"] == {**pred.constants,
                                                   "C3_tail": pred.c3_tail}


def test_prediction_law_has_no_constant_where_c3_is_fit_only():
    for cfg in (circle_cfg(Fraction(1, 4), flux="0.5"),
                circle_cfg(Fraction(1, 4), potential=RadialPotential(poly=((-1.0, 0.5),)))):
        pred = classify(cfg)
        assert weyl_constants(cfg).constant is None
        assert pred.weyl_exponent == 2.0 and pred.weyl_constant is None
        assert pred.constants == {"C1": None, "C2": None, "C3": None}


def test_law_stays_out_of_the_prediction_report():
    pred = classify(circle_cfg(1, flux="0.5"))
    assert set(_prediction_dict(pred)) == {
        "classification", "essential_bottom", "thresholds", "weyl_regime",
        "constants", "notes"}


def test_classify_forms_path():
    cfg = ProblemConfig(
        geometry=EndGeometry(3, 1),
        cross_section=builtin_cross_section("square_torus", side=TWO_PI, dim=2),
        degree=1)
    pred = classify(cfg)
    assert pred.thresholds == (0.0, 1.0)
