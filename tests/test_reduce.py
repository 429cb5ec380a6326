"""Mode enumeration, radial operators, and the separation-of-variables oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cusplab.model import (EndGeometry, MagneticData, Numerics, ProblemConfig,
                           RadialPotential, builtin_cross_section)
from cusplab.reduce import (ModeSpec, RadialOperator, ReduceError,
                            SECTOR_FORM_0, SECTOR_FORM_1, cross_eigenvalue,
                            enumerate_modes,
                            harmonic_form_radial_operator, liouville_transform,
                            mode_threshold, scalar_radial_operator, y_of_z,
                            z_of_y)
from cusplab.sturm import discretize, eigenvalues_below

TWO_PI = 2 * math.pi


def circle_cfg(p="1", flux=None, lam_grid=(0.05, 0.5, 10), y0=1.0,
               potential=None, degree=0, n=2, cs=None):
    return ProblemConfig(
        geometry=EndGeometry(n, p, y0),
        cross_section=cs or builtin_cross_section("circle", length=TWO_PI),
        degree=degree,
        magnetic=MagneticData(flux=flux) if flux is not None else None,
        potential=potential,
        numerics=Numerics(lambda_grid=lam_grid))


# ---------------------------------------------------------------------------
# cross-section eigenvalues
# ---------------------------------------------------------------------------

def test_cross_eigenvalue_circle_values():
    cs = builtin_cross_section("circle", length=TWO_PI)
    assert cross_eigenvalue(cs, (0,), (Fraction(1, 2),)) == 0.25
    assert cross_eigenvalue(cs, (-1,), (Fraction(1, 2),)) == 0.25
    assert cross_eigenvalue(cs, (0,), None) == 0.0
    assert cross_eigenvalue(cs, (3,), None) == pytest.approx(9.0)
    # length convention: nu = (2 pi (m+mu)/L)^2
    cs2 = builtin_cross_section("circle", length=1.0)
    assert cross_eigenvalue(cs2, (1,), None) == pytest.approx(TWO_PI**2)


def test_cross_eigenvalue_torus_matches_square_example():
    cs = builtin_cross_section("square_torus", side=TWO_PI, dim=2)
    assert cross_eigenvalue(cs, (3, -4), None) == pytest.approx(25.0)


def test_cross_eigenvalue_table_with_flux_unsupported():
    cs = builtin_cross_section("table", betti=(1, 1), volume=1.0,
                               tables=[[(0.0, 1), (1.0, 2)], [(0.0, 1)]])
    with pytest.raises(ReduceError, match="unsupported"):
        cross_eigenvalue(cs, (0,), (Fraction(1, 2),))


def test_circle_flux_spectrum_against_gauge_link_discretization():
    """Dense one-dimensional oracle: the twisted circle Laplacian built from
    gauge-covariant differences has spectrum converging to (m + mu)^2."""
    mu, m_pts = 0.5, 600
    h = TWO_PI / m_pts
    phase = np.exp(-1j * mu * h)
    a = np.zeros((m_pts, m_pts), dtype=complex)
    for j in range(m_pts):
        k = (j + 1) % m_pts
        a[j, j] += 2.0 / h**2
        a[j, k] += -phase / h**2
        a[k, j] += -np.conj(phase) / h**2
    got = np.sort(np.linalg.eigvalsh(a))[:5]
    want = np.sort([(m + mu) ** 2 for m in range(-10, 10)])[:5]
    assert np.allclose(got, want, rtol=2e-3, atol=2e-3)


@given(st.sampled_from(["0", "0.5", "0.25", "1.75"]),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-4, max_value=4))
@settings(max_examples=40, deadline=None)
def test_flux_shift_relabels_modes_exactly(flux, e, m):
    cs = builtin_cross_section("circle", length=TWO_PI)
    mag = MagneticData(flux=(flux,))
    assert cross_eigenvalue(cs, (m,), mag.flux) == \
        cross_eigenvalue(cs, (m - e,), mag.shifted([e]).flux)


@given(st.fractions(min_value=-3, max_value=3, max_denominator=16),
       st.integers(min_value=-5, max_value=5))
@settings(max_examples=50, deadline=None)
def test_noninteger_flux_keeps_modes_positive(mu, m):
    cs = builtin_cross_section("circle", length=TWO_PI)
    nu = cross_eigenvalue(cs, (m,), (mu,))
    if mu.denominator != 1:
        assert nu > 0.0


# ---------------------------------------------------------------------------
# mode enumeration
# ---------------------------------------------------------------------------

def test_enumerate_matches_direct_enumeration():
    cfg = circle_cfg(flux=("0",))
    modes = enumerate_modes(cfg, 10.0)
    assert sorted(m.label[0] for m in modes) == list(range(-3, 4))


def test_enumerate_half_flux_below_gap_is_empty():
    cfg = circle_cfg(flux=("0.5",))
    assert enumerate_modes(cfg, 0.2) == []


def test_enumerate_lambda_zero_keeps_zero_mode():
    cfg = circle_cfg(flux=("0",))
    modes = enumerate_modes(cfg, 0.0)
    assert [m.label for m in modes] == [(0,)]


def test_enumerate_scales_cutoff_with_y0():
    cfg = circle_cfg(flux=("0",), y0=2.0)
    # nu * Y0^(2p) <= lambda: with Y0=2, p=1 only nu <= 10/4
    modes = enumerate_modes(cfg, 10.0)
    assert sorted(m.label[0] for m in modes) == [-1, 0, 1]


def test_enumerate_with_negative_boundary_potential_widens_cut():
    pot = RadialPotential(poly=((-0.1, 2.0),))
    cfg = circle_cfg(flux=("0.5",), potential=pot)
    # joint floor (nu - 0.1) y^2 attains nu - 0.1 at Y0=1, so the cut moves
    # from nu <= 2.2 to nu <= 2.3, which picks up nu = 2.25
    assert {m.label[0] for m in enumerate_modes(cfg, 2.2)} == {-2, -1, 0, 1}
    cfg0 = circle_cfg(flux=("0.5",))
    assert {m.label[0] for m in enumerate_modes(cfg0, 2.2)} == {-1, 0}


def test_enumerate_mode_cap():
    cfg = circle_cfg(flux=("0",))
    cfg = ProblemConfig(
        geometry=cfg.geometry, cross_section=cfg.cross_section, degree=0,
        magnetic=cfg.magnetic,
        numerics=Numerics(mode_cap=5))
    with pytest.raises(ReduceError, match="cap"):
        enumerate_modes(cfg, 500.0)


def test_enumerate_form_sectors_carry_betti_multiplicity():
    cfg = circle_cfg(
        n=3, degree=1,
        cs=builtin_cross_section("square_torus", side=TWO_PI, dim=2))
    modes = enumerate_modes(cfg, 5.0)
    by_sector = {m.sector: m for m in modes}
    assert by_sector[SECTOR_FORM_0].multiplicity == 2   # h^1(T^2)
    assert by_sector[SECTOR_FORM_1].multiplicity == 1   # h^0(T^2)


def test_enumerate_form_sectors_empty_when_betti_vanish():
    cs = builtin_cross_section("table", betti=(1, 0, 0, 1), volume=1.0,
                               tables=[[(0.0, 1), (2.0, 3)], [(1.0, 2)],
                                       [(1.0, 2)], [(0.0, 1), (2.0, 3)]])
    cfg = circle_cfg(n=4, degree=2, cs=cs)
    assert enumerate_modes(cfg, 5.0) == []


def test_excluded_mode_cannot_reach_the_window():
    """Cutoff soundness: the first excluded mode's lowest Dirichlet
    eigenvalue exceeds lambda_max on every truncation."""
    geom = EndGeometry(2, 1, 1.0)
    assert enumerate_modes(circle_cfg(flux=("0.5",)), 0.2) == []
    op = scalar_radial_operator(ModeSpec(label=(0,), nu=0.25, multiplicity=1), geom)
    can = liouville_transform(op, 1.0)
    for T in (8.0, 16.0, 32.0):
        pen = discretize(can, T, 1500)
        lowest = eigenvalues_below(pen, 50.0, 1e-9)[0]
        assert lowest > 0.2


def test_table_cross_section_function_modes():
    cs = builtin_cross_section("table", betti=(1, 1), volume=1.0,
                               tables=[[(0.0, 1), (0.5, 2), (3.0, 1)], [(0.0, 1)]])
    cfg = circle_cfg(cs=cs)
    modes = enumerate_modes(cfg, 1.0)
    assert [(m.nu, m.multiplicity) for m in modes] == [(0.0, 1), (0.5, 2)]


def test_torus_mode_enumeration_counts():
    cfg = circle_cfg(n=3, degree=0,
                     cs=builtin_cross_section("square_torus", side=TWO_PI, dim=2))
    modes = enumerate_modes(cfg, 4.0)
    want = sorted((m1 * m1 + m2 * m2, (m1, m2))
                  for m1 in range(-2, 3) for m2 in range(-2, 3)
                  if m1 * m1 + m2 * m2 <= 4)
    assert [(m.nu, m.label) for m in modes] == [(float(nu), l) for nu, l in want]


# ---------------------------------------------------------------------------
# radial operators
# ---------------------------------------------------------------------------

def test_scalar_operator_exponents():
    geom = EndGeometry(3, "0.5", 1.0)
    op = scalar_radial_operator(ModeSpec(label=(0,), nu=0.0, multiplicity=1), geom)
    assert op.density_exponent == -1.5
    assert op.stiffness_exponent == -0.5


def test_scalar_operator_potential_terms():
    geom = EndGeometry(2, 1, 1.0)
    pot = RadialPotential(poly=((0.5, 0.0),))
    op = scalar_radial_operator(ModeSpec(label=(1,), nu=0.25, multiplicity=1),
                                geom, pot)
    assert op.potential_terms == ((0.25, 2.0), (0.5, 0.0))
    assert op.q(np.array([2.0]))[0] == pytest.approx(0.25 * 4.0 + 0.5)


def test_scalar_and_form_sector0_agree_at_degree_zero():
    geom = EndGeometry(2, 1, 1.0)
    sc = scalar_radial_operator(ModeSpec(label=(0,), nu=0.0, multiplicity=1), geom)
    fo = harmonic_form_radial_operator(2, 0, 1, 0)
    pen_s = discretize(sc, 8.0, 200)
    pen_f = discretize(fo, 8.0, 200)
    assert np.allclose(pen_s.diag, pen_f.diag, rtol=1e-14)
    assert np.allclose(pen_s.offdiag, pen_f.offdiag, rtol=1e-14)
    assert np.allclose(pen_s.mass, pen_f.mass, rtol=1e-14)


def test_form_sector_thresholds_n3_k1():
    s0 = harmonic_form_radial_operator(3, 1, 1, 0)
    s1 = harmonic_form_radial_operator(3, 1, 1, 1)
    assert mode_threshold(s0, 1.0) == 0.0
    assert mode_threshold(s1, 1.0) == 1.0


def test_mode_threshold_cases():
    geom = EndGeometry(2, 1, 1.0)
    confining = scalar_radial_operator(
        ModeSpec(label=(1,), nu=1.0, multiplicity=1), geom)
    assert mode_threshold(confining, 1.0) is None
    low = scalar_radial_operator(
        ModeSpec(label=(0,), nu=0.0, multiplicity=1), EndGeometry(2, "0.5", 1.0))
    assert mode_threshold(low, 0.5) == 0.0
    horn = scalar_radial_operator(
        ModeSpec(label=(0,), nu=0.0, multiplicity=1), EndGeometry(2, 2, 1.0))
    assert mode_threshold(horn, 2.0) is None


# ---------------------------------------------------------------------------
# Liouville normal form
# ---------------------------------------------------------------------------

def test_liouville_constant_quarter():
    geom = EndGeometry(2, 1, 1.0)
    op = scalar_radial_operator(ModeSpec(label=(0,), nu=0.0, multiplicity=1), geom)
    can = liouville_transform(op, 1.0)
    z = np.linspace(0.0, 30.0, 100)
    assert np.allclose(can.w(z), 0.25, atol=1e-14)


def test_liouville_potential_decays_for_p_below_one():
    geom = EndGeometry(2, "0.5", 1.0)
    op = scalar_radial_operator(ModeSpec(label=(0,), nu=0.0, multiplicity=1), geom)
    can = liouville_transform(op, 0.5)
    z = np.array([10.0, 100.0, 1000.0])
    w = can.w(z)
    assert np.all(np.abs(w) < np.abs(can.w(np.array([3.0]))))
    assert abs(w[-1]) < 1e-5


def test_liouville_exponential_wall():
    geom = EndGeometry(2, 1, 1.0)
    op = scalar_radial_operator(ModeSpec(label=(1,), nu=1.0, multiplicity=1), geom)
    can = liouville_transform(op, 1.0)
    z = np.array([0.0, 1.0, 2.0])
    assert np.allclose(can.w(z), np.exp(2 * z) + 0.25, rtol=1e-14)


def test_liouville_rejects_p_above_one():
    op = harmonic_form_radial_operator(2, 0, 2, 0)
    with pytest.raises(ReduceError, match="p > 1"):
        liouville_transform(op, 2.0)


@pytest.mark.parametrize("p,nu", [("1", 0.25), ("0.5", 1.0)])
def test_liouville_cross_check_eigenvalues(p, nu):
    """Weighted z-graded discretization and the canonical form agree below a
    fixed lambda, with the gap shrinking under refinement."""
    geom = EndGeometry(2, p, 1.0)
    op = scalar_radial_operator(ModeSpec(label=(0,), nu=nu, multiplicity=1), geom)
    can = liouville_transform(op, float(geom.p))
    lam, T = (10.0, 10.0)
    gaps = []
    for cells in (250, 500, 1000):
        ew = eigenvalues_below(discretize(op, T, cells), lam, 1e-10)
        ec = eigenvalues_below(discretize(can, T, cells), lam, 1e-10)
        assert len(ew) == len(ec) and len(ew) >= 1
        gaps.append(max(abs(a - b) for a, b in zip(ew, ec)))
    assert gaps[-1] <= 5e-3
    assert gaps[-1] < gaps[0]


def test_coordinate_maps_roundtrip():
    for p in (0.25, 0.5, 1.0, 2.0):
        y = np.linspace(1.0, 50.0, 17)
        z = z_of_y(y, p, 1.0)
        assert np.allclose(y_of_z(z, p, 1.0), y, rtol=1e-12)


# ---------------------------------------------------------------------------
# two-dimensional separation oracle
# ---------------------------------------------------------------------------

def test_2d_flux_laplacian_separates_into_radial_modes():
    """Assemble the twisted Laplacian of y^(-2)(dy^2 + dtheta^2) on a 2-d
    grid (gauge links in theta) and check its smallest eigenvalue equals the
    smallest eigenvalue over the discrete theta-modes of the 1-d radial
    pencils built by this package."""
    sparse = pytest.importorskip("scipy.sparse")
    splinalg = pytest.importorskip("scipy.sparse.linalg")

    mu = 0.5
    ny, mth = 220, 16
    y0, ymax = 1.0, 23.0
    hy = (ymax - y0) / ny
    hth = TWO_PI / mth
    ygrid = y0 + hy * np.arange(ny + 1)

    n_int = ny - 1
    idx = lambda i, j: (i - 1) * mth + (j % mth)
    rows, cols, vals = [], [], []
    diag = np.zeros(n_int * mth, dtype=complex)
    phase = np.exp(-1j * mu * hth)
    for i in range(1, ny):
        for j in range(mth):
            a = idx(i, j)
            diag[a] += 2.0 / hy**2 * hth * hy          # radial stiffness
            diag[a] += 2.0 / hth**2 * hth * hy         # angular stiffness
            if i + 1 <= ny - 1:
                rows.append(a); cols.append(idx(i + 1, j))
                vals.append(-1.0 / hy**2 * hth * hy)
            # gauge-covariant angular link
            rows.append(a); cols.append(idx(i, j + 1))
            vals.append(-phase / hth**2 * hth * hy)
    A = sparse.coo_matrix((vals, (rows, cols)), shape=(n_int * mth,) * 2).tocsr()
    A = A + A.conj().T + sparse.diags(diag)
    mass = np.repeat(ygrid[1:-1] ** -2.0, mth) * hth * hy
    s = 1.0 / np.sqrt(mass)
    std = sparse.diags(s) @ A @ sparse.diags(s)
    low2d = float(splinalg.eigsh(std, k=1, sigma=0.0, which="LM",
                                 return_eigenvectors=False)[0])

    # discrete theta-modes of the gauge-link stencil
    nu_disc = [(2.0 - 2.0 * math.cos((m + mu) * hth)) / hth**2
               for m in range(-mth // 2, mth // 2)]
    lows = []
    for nu in nu_disc:
        op = RadialOperator(density_exponent=-2.0, stiffness_exponent=0.0,
                            potential_terms=((nu, 2.0),), y0=1.0)
        pen = discretize(op, ymax - y0, ny, mesh="uniform-y")
        ev = eigenvalues_below(pen, 5000.0, 1e-9)
        if ev:
            lows.append(ev[0])
    assert low2d == pytest.approx(min(lows), rel=1e-7)
    # and the discrete mode values converge to the continuum (m + mu)^2
    assert min(nu_disc) == pytest.approx(0.25, rel=5e-3)
