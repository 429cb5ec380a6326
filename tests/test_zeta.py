"""Zeta sums against closed forms and brute-force partial sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cusplab.model import builtin_cross_section
from cusplab.zeta import (ZetaError, circle_zeta, form_zeta, lattice_zeta,
                          table_zeta)

TWO_PI = 2 * math.pi


def test_circle_zeta_closed_form():
    # sum over m != 0 of m^(-6) = 2 zeta(6) = 2 pi^6 / 945
    res = circle_zeta(TWO_PI, 3.0)
    exact = 2.0 * math.pi**6 / 945.0
    assert abs(res.value - exact) <= res.tail + 1e-13 * exact
    assert res.tail <= 1e-11 * exact


def test_circle_zeta_shifted_against_brute_force():
    res = circle_zeta(TWO_PI, 3.0, shift=1.0)
    ms = np.arange(1, 400_000, dtype=float)
    brute = 1.0 + 2.0 * float(np.sum((ms * ms + 1.0) ** -3.0))
    # value is a certified lower end; the terms brute leaves out sum below 1e-28
    assert -1e-13 <= brute - res.value <= res.tail + 1e-13


def test_circle_zeta_divergent_s_rejected():
    with pytest.raises(ZetaError, match="abscissa"):
        circle_zeta(TWO_PI, 0.4)


def test_slowly_convergent_s_keeps_certificate_honest():
    # near the abscissa a 1-D lattice still goes through the circle's
    # closed-form tail, so both certificates bracket the same value
    a = circle_zeta(TWO_PI, 0.8)
    b = lattice_zeta([[1.0 / TWO_PI]], 0.8)
    assert abs(a.value - b.value) <= a.tail + b.tail


def test_lattice_matches_table_on_square_torus():
    cs = builtin_cross_section("square_torus", side=TWO_PI, dim=2)
    res = lattice_zeta(cs.dual_basis, 3.0)
    # brute force over a large box stands in for the first ~1e4 eigenvalues
    table = {}
    for m1 in range(-60, 61):
        for m2 in range(-60, 61):
            e = float(m1 * m1 + m2 * m2)
            if e > 0:
                table[e] = table.get(e, 0) + 1
    tab = sorted(table.items())
    partial = table_zeta(tab, 3.0)
    # the box covers everything below 60^2; bound the remainder crudely
    remainder = 8 * sum(r ** (1 - 6) for r in range(60, 100000))
    assert abs(res.value - partial.value) <= remainder + res.tail + 1e-12


def test_circle_agrees_with_1d_lattice():
    for s in (1.5, 2.0, 3.0, 7.0):
        a = circle_zeta(TWO_PI, s)
        b = lattice_zeta([[1.0 / TWO_PI]], s)
        assert a.value == pytest.approx(b.value, rel=1e-10)


def test_large_s_dominated_by_smallest_eigenvalue():
    tab = [(0.0, 1), (2.0, 3), (5.0, 1)]
    res = table_zeta(tab, 50.0)
    assert res.value == pytest.approx(3.0 * 2.0**-50.0, rel=1e-10)


def test_empty_positive_spectrum_errors():
    with pytest.raises(ZetaError, match="empty positive spectrum"):
        table_zeta([(0.0, 2)], 3.0)


def test_negative_shift_rejected():
    with pytest.raises(ZetaError, match="shift"):
        circle_zeta(TWO_PI, 3.0, shift=-1.0)


@given(st.sampled_from([1.5, 2.0, 3.0]), st.sampled_from([0.0, 1.0, 2.0]))
@settings(max_examples=12, deadline=None)
def test_monotone_decreasing_in_s(s, shift):
    # decreasing in s requires every summed term at or above 1, i.e.
    # min positive eigenvalue + shift >= 1 (true here: circle of length
    # 2 pi has smallest positive eigenvalue 1); terms below 1 would grow
    v = circle_zeta(TWO_PI, s, shift).value
    assert circle_zeta(TWO_PI, s + 0.5, shift).value < v


@given(st.sampled_from([1.5, 2.0, 3.0]), st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=12, deadline=None)
def test_monotone_decreasing_in_shift(s, shift):
    # shifting up shrinks every positive term; compare within shift > 0
    # so the zero-mode term exists on both sides of the comparison
    v = circle_zeta(TWO_PI, s, shift).value
    assert circle_zeta(TWO_PI, s, shift + 0.5).value < v


def test_form_zeta_torus_multiplicity():
    cs = builtin_cross_section("square_torus", side=TWO_PI, dim=2)
    z0 = form_zeta(cs, (0,), 3.0)
    z1 = form_zeta(cs, (1,), 3.0)
    assert z1.value == pytest.approx(2.0 * z0.value, rel=1e-14)
    assert form_zeta(cs, (-1,), 3.0).value == 0.0
    assert form_zeta(cs, (5,), 3.0).value == 0.0
    # the listed degrees are summed: binom(2, 0) + binom(2, 1) = 3
    z01 = form_zeta(cs, (-1, 0, 1), 3.0)
    assert z01.value == pytest.approx(3.0 * z0.value, rel=1e-14)
    assert z01.tail == pytest.approx(3.0 * z0.tail, rel=1e-14)


def test_form_zeta_sums_table_degrees_one_by_one():
    cs = builtin_cross_section("table", volume=1.0, tables=(
        ((0.0, 1), (1.0, 2)), ((0.0, 1), (4.0, 3))))
    both = form_zeta(cs, (0, 1), 2.0)
    assert both.value == 2.0 + 3.0 / 16.0 and both.terms == 5 and both.tail == 0.0


def _capped_circle_zeta(length, s, shift):
    """The former direct sum: blocks up to 20 million terms per side, with
    the integral-test tail 2 W(M) (see `circle_zeta`); (value, tail)."""
    w = (2.0 * math.pi / length) ** 2
    total = shift ** (-s) if shift > 0 else 0.0
    m_done, block, cap = 0, 4096, 20_000_000
    while m_done < cap:
        hi = min(m_done + block, cap)
        ms = np.arange(m_done + 1, hi + 1, dtype=float)
        total += 2.0 * float(np.sum((w * ms * ms + shift) ** (-s)))
        m_done = hi
        tail = 2.0 * w ** (-s) * m_done ** (1.0 - 2.0 * s) / (2.0 * s - 1.0)
        if tail <= 1e-12 * total:
            break
        block = min(block * 2, 1 << 21)
    return total, tail


@pytest.mark.parametrize("length", [TWO_PI, 1.0])
@pytest.mark.parametrize("s", [0.6, 0.8, 1.5, 3.0])
@pytest.mark.parametrize("shift", [0.0, 1.0, 2.0])
def test_circle_zeta_certificate_meets_the_capped_sums_certificate(length, s, shift):
    res = circle_zeta(length, s, shift)
    old, old_tail = _capped_circle_zeta(length, s, shift)
    # both certificates hold the true value, so they share a point
    assert res.value <= old + old_tail and old <= res.value + res.tail
    # where the capped sum certified the wider interval, the new value is in
    # it; at s = 3 its 4096 terms per side leave a tail below 1e-18 relative
    if old_tail >= res.tail:
        assert old <= res.value
    assert res.tail <= 1e-12 * res.value


@pytest.mark.parametrize("length", [TWO_PI, 1.0])
@pytest.mark.parametrize("s, zeta_2s", [(1.0, math.pi**2 / 6.0), (2.0, math.pi**4 / 90.0),
                                        (3.0, math.pi**6 / 945.0)])
def test_circle_zeta_certificate_holds_the_closed_form(length, s, zeta_2s):
    res = circle_zeta(length, s)
    exact = 2.0 * zeta_2s * (length / TWO_PI) ** (2.0 * s)
    assert res.value <= exact <= res.value + res.tail
    assert res.tail <= 1e-12 * res.value


def test_circle_zeta_without_a_term_cap_still_stops_on_a_nan_tail():
    res = circle_zeta(TWO_PI, math.inf, 1.0)
    assert math.isnan(res.tail) and res.terms == 3


def test_circle_zeta_sums_thousands_of_terms_at_s_three_halves():
    # the criterion-7 zeta: s = 3/2, shift 1 on the circle of length 2 pi
    assert circle_zeta(TWO_PI, 1.5, 1.0).terms <= 5000


def test_lattice_convergence_guard():
    with pytest.raises(ZetaError, match="abscissa"):
        lattice_zeta([[1.0, 0.0], [0.0, 1.0]], 1.0)
