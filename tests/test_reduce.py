"""Mode enumeration, radial operators, and the separation-of-variables oracle."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cusplab.model import (EndGeometry, MagneticData, Numerics, ProblemConfig,
                           RadialPotential, builtin_cross_section, potential_values)
from cusplab.reduce import (ModeSpec, ReduceError, _mode_cut, cells_for,
                            SECTOR_FORM_0, SECTOR_FORM_1, SECTOR_FUNCTION,
                            cross_eigenvalue, enumerate_modes, far_field,
                            liouville_transform, mesh_for, min_cross_eigenvalue,
                            mode_operator, mode_threshold, y_of_z, z_of_y)
from cusplab.sturm import (TridiagonalPencil, count_below_stack, discretize,
                           discretize_stack, eigenvalues_below)

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


def _op(p="1", nu=0.0, potential=None, n=2, degree=0, sector=SECTOR_FUNCTION):
    """`mode_operator` of one mode on the end of exponent p over the (n-1)-torus."""
    cs = builtin_cross_section("square_torus", side=TWO_PI, dim=n - 1)
    mode = ModeSpec(label=(1,) if sector == SECTOR_FORM_1 else (0,), nu=nu,
                    multiplicity=1, sector=sector)
    return mode_operator(circle_cfg(p=p, potential=potential, n=n, degree=degree, cs=cs),
                         mode)


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
    cs = builtin_cross_section("table", volume=1.0,
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
        cross_eigenvalue(cs, (m - e,), (mag.flux[0] + e,))


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


def test_the_label_walk_stops_once_the_mode_count_passes_the_cap(monkeypatch):
    # the cubic 3-torus box at 270 is within 64 cap labels (35,937) but
    # holds 18,579 modes; the walk refuses at mode 601
    from cusplab import reduce as red

    calls = []
    monkeypatch.setattr(red, "cross_eigenvalue",
                        lambda *args: calls.append(args) or cross_eigenvalue(*args))
    flux = tuple(str(1 / q) for q in (3, 5, 7))
    cfg = circle_cfg(n=4, flux=flux,
                     cs=builtin_cross_section("square_torus", side=TWO_PI, dim=3))
    with pytest.raises(ReduceError, match=re.escape(
            "mode count exceeds the cap (600); lower the top of numerics.lambda_grid")):
        enumerate_modes(cfg, 270.0)
    assert len(calls) <= 4000


def test_enumerate_form_sectors_carry_betti_multiplicity():
    cfg = circle_cfg(
        n=3, degree=1,
        cs=builtin_cross_section("square_torus", side=TWO_PI, dim=2))
    modes = enumerate_modes(cfg, 5.0)
    by_sector = {m.sector: m for m in modes}
    assert by_sector[SECTOR_FORM_0].multiplicity == 2   # h^1(T^2)
    assert by_sector[SECTOR_FORM_1].multiplicity == 1   # h^0(T^2)


def test_enumerate_form_sectors_empty_when_betti_vanish():
    cs = builtin_cross_section("table", volume=1.0,
                               tables=[[(0.0, 1), (2.0, 3)], [(1.0, 2)],
                                       [(1.0, 2)], [(0.0, 1), (2.0, 3)]])
    cfg = circle_cfg(n=4, degree=2, cs=cs)
    assert enumerate_modes(cfg, 5.0) == []


def test_excluded_mode_cannot_reach_the_window():
    """Cutoff soundness: the first excluded mode's lowest Dirichlet
    eigenvalue exceeds lambda_max on every truncation."""
    assert enumerate_modes(circle_cfg(flux=("0.5",)), 0.2) == []
    op = _op(nu=0.25)
    for T in (8.0, 16.0, 32.0):
        pen = discretize(op, T, 1500)
        lowest = eigenvalues_below(pen, 50.0, 1e-9)[0]
        assert lowest > 0.2


def test_table_cross_section_function_modes():
    cs = builtin_cross_section("table", volume=1.0,
                               tables=[[(0.0, 1), (0.5, 2), (3.0, 1)], [(0.0, 1)]])
    cfg = circle_cfg(cs=cs)
    modes = enumerate_modes(cfg, 1.0)
    assert [(m.nu, m.multiplicity) for m in modes] == [(0.0, 1), (0.5, 2)]


def test_torus_mode_enumeration_counts():
    cfg = circle_cfg(n=3, degree=0,
                     cs=builtin_cross_section("square_torus", side=TWO_PI, dim=2))
    # the cut is 4.1 / y_1^2 > 4 at the first node y_1 = e^0.008, so the
    # nu = 4 ring is in the window and nu = 5 is not
    modes = enumerate_modes(cfg, 4.1)
    want = sorted((m1 * m1 + m2 * m2, (m1, m2))
                  for m1 in range(-2, 3) for m2 in range(-2, 3)
                  if m1 * m1 + m2 * m2 <= 4)
    assert [(m.nu, m.label) for m in modes] == [(float(nu), l) for nu, l in want]


# ---------------------------------------------------------------------------
# the mode window and c, bit for bit against the earlier algorithms
# ---------------------------------------------------------------------------
# The oracles below are the algorithms `reduce` replaced: a bisection for
# the mode cut, one enumeration branch per cross-section kind, and a
# sup-norm shell search for the bottom c of a lattice torus.

def _oracle_shell(r, d):
    """Integer points with sup-norm exactly r, each listed once."""
    if r == 0:
        return np.zeros((1, d), dtype=np.int64)
    faces = []
    for axis in range(d):
        spans = [np.arange(-r, r + 1) if b < axis else np.arange(-r + 1, r)
                 if b > axis else np.array([-r, r]) for b in range(d)]
        grids = np.meshgrid(*spans, indexing="ij")
        faces.append(np.stack([g.ravel() for g in grids], axis=1))
    return np.concatenate(faces, axis=0)


def _oracle_min_cross_eigenvalue(cs, flux):
    if cs.kind == "circle":
        mu = float(flux[0])
        w = 2.0 * math.pi / cs.length
        lo = math.floor(-mu)
        return min((w * (m + mu)) ** 2 for m in (lo, lo + 1))
    basis = 2.0 * math.pi * np.asarray(cs.dual_basis, dtype=float)
    mu = np.array([float(f) for f in flux])
    d = len(mu)
    sigma_min = float(np.linalg.svd(basis, compute_uv=False)[-1])
    center = np.round(-mu).astype(int)
    best = math.inf
    r = 0
    while True:
        for off in _oracle_shell(r, d):
            v = basis @ (center + off + mu)
            best = min(best, float(v @ v))
        r += 1
        if sigma_min**2 * max(r - 1.0, 0.0) ** 2 > best and r >= 2:
            return best


def _oracle_nu_reach(config, lambda_max):
    """The cut by bisection on the floor min (nu y^(2p) + V(y)) over every
    interior node of every (grid, domain) mesh of the draw, each built
    from its own cell count."""
    geom, num = config.geometry, config.numerics
    p = geom.pf
    nodes = []
    for g in num.grids:
        for T in num.domains:
            cells = max(4, int(round(g * T / num.domains[0])))
            if p > 1.0:
                ymax = geom.y0 * math.exp(T)
                t = np.linspace(0.0, float(z_of_y(ymax, p, geom.y0)), cells + 1)
            else:
                t = float(z_of_y(geom.y0, p, geom.y0)) + (T / cells) * np.arange(cells + 1)
            nodes.append(y_of_z(t[1:-1], p, geom.y0))
    y = np.concatenate(nodes)
    pot = config.potential or RadialPotential()
    v = potential_values(y, pot.poly, pot.bump)
    ypow = y ** (2.0 * p)

    def floor(nu):
        return float(np.min(nu * ypow + v))

    if floor(0.0) > lambda_max:
        return -1.0
    hi = max(lambda_max / geom.y0 ** (2.0 * p), 1.0)
    while floor(hi) <= lambda_max:
        hi *= 2.0
        if hi > 1e18:
            raise ReduceError("no finite mode cut exists")
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if floor(mid) <= lambda_max:
            lo = mid
        else:
            hi = mid
    return hi


def _oracle_modes(config, lambda_max):
    """(label, nu) of every mode, by the per-kind branches."""
    cs, cap = config.cross_section, config.numerics.mode_cap
    flux = config.magnetic.flux
    nu_max = _oracle_nu_reach(config, lambda_max)
    modes = []
    if cs.kind == "circle":
        mu = float(flux[0])
        w = 2.0 * math.pi / cs.length
        reach = math.sqrt(nu_max) / w if nu_max >= 0 else -1.0
        lo = math.ceil(-mu - reach - 1e-12)
        hi = math.floor(-mu + reach + 1e-12)
        if hi - lo + 1 > 8 * cap:
            raise ReduceError("cap")
        for m in range(lo, hi + 1):
            nu = cross_eigenvalue(cs, (m,), flux)
            if nu <= nu_max + 1e-12:
                modes.append(((m,), nu))
    else:
        basis = 2.0 * math.pi * np.asarray(cs.dual_basis, dtype=float)
        sigma_min = float(np.linalg.svd(basis, compute_uv=False)[-1])
        mu = np.array([float(f) for f in flux])
        reach = math.sqrt(max(nu_max, 0.0)) / sigma_min
        lo = np.ceil(-mu - reach - 1e-12).astype(int)
        hi = np.floor(-mu + reach + 1e-12).astype(int)
        if math.prod(max(int(b - a) + 1, 0) for a, b in zip(lo, hi)) > 64 * cap:
            raise ReduceError("cap")
        for m in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            nu = cross_eigenvalue(cs, m, flux)
            if nu <= nu_max + 1e-12:
                modes.append((tuple(m), nu))
    modes.sort(key=lambda lm: (lm[1], lm[0]))
    if len(modes) > cap:
        raise ReduceError("cap")
    return modes


def _falls(config, nu):
    """nu y^(2p) + a y^b -> -oo, for the drawn potential's one term a y^b."""
    if config.potential is None or not config.potential.poly:
        return False
    ((a, b),) = config.potential.poly
    if b == 2.0 * config.geometry.pf:
        return nu + a < 0.0
    return nu == 0.0 and a < 0.0 and b > 0.0


@st.composite
def _window_configs(draw):
    """A cross-section with a rational flux, an end, a potential and a window top."""
    dim = draw(st.sampled_from([1, 2, 3]))
    if dim == 1:
        cs = builtin_cross_section("circle", length=draw(st.floats(0.5, 20.0)))
    else:
        diag = draw(st.lists(st.floats(0.15, 1.0), min_size=dim, max_size=dim))
        off = st.floats(-0.3, 0.3).map(lambda t: t * min(diag))
        basis = [[diag[i] if i == j else draw(off) for j in range(dim)]
                 for i in range(dim)]
        cs = builtin_cross_section("lattice_torus", dual_basis=basis)
    flux = tuple(draw(st.fractions(-2, 2, max_denominator=12)) for _ in range(dim))
    p = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)]))
    y0 = draw(st.sampled_from([1.0, 1.5]))
    kind = draw(st.sampled_from(["poly", "bump", None]))
    if kind == "poly":
        exponent = draw(st.sampled_from([0.0, float(p), 2.0 * float(p)])
                        | st.floats(-1.0, 2.0 * float(p)))
        potential = RadialPotential(poly=((draw(st.floats(-5.0, 5.0)), exponent),))
    elif kind == "bump":
        potential = RadialPotential(bump=(y0 + draw(st.floats(0.0, 5.0)),
                                          draw(st.floats(0.1, 2.0)),
                                          draw(st.floats(-50.0, 50.0))))
    else:
        potential = None
    domains = draw(st.sampled_from([(2.0, 4.0), (4.0, 8.0), (8.0, 16.0, 32.0)]))
    config = ProblemConfig(
        geometry=EndGeometry(dim + 1, p, y0), cross_section=cs, degree=0,
        magnetic=MagneticData(flux=flux), potential=potential,
        numerics=Numerics(domains=domains))
    if draw(st.booleans()):
        return config, draw(st.floats(0.0, 60.0 if dim == 3 else 200.0))
    # a window whose top is a mode's own eigenvalue puts labels on the box edge
    label = tuple(draw(st.integers(-3, 3)) for _ in range(dim))
    return config, y0 ** (2.0 * float(p)) * cross_eigenvalue(cs, label, flux)


@given(_window_configs())
# V = 5e-324 above a window top of 0: every ratio of the cut is negative, and
# one underflows to -0.0
@example((ProblemConfig(
    geometry=EndGeometry(2, Fraction(1, 4), 1.0),
    cross_section=builtin_cross_section("circle", length=1.0), degree=0,
    magnetic=MagneticData(flux=(Fraction(0),)),
    potential=RadialPotential(poly=((5e-324, 0.0),)),
    numerics=Numerics(domains=(2.0, 4.0))), 0.0))
# V = 5e-324 y^(1/4) at a window top of 5e-324: V rounds to the top at the
# nodes near y0, an exact ratio 0.0 that lists m0, and above it further out,
# where the negative ratios underflow to -0.0
@example((ProblemConfig(
    geometry=EndGeometry(2, Fraction(1, 4), 1.0),
    cross_section=builtin_cross_section("circle", length=1.0), degree=0,
    magnetic=MagneticData(flux=(Fraction(0),)),
    potential=RadialPotential(poly=((5e-324, 0.25),)),
    numerics=Numerics(domains=(2.0, 4.0))), 5e-324))
@settings(max_examples=300, deadline=None)
def test_mode_window_and_c_match_the_earlier_algorithms(case):
    config, lambda_max = case
    try:
        want = _oracle_modes(config, lambda_max)
    except ReduceError:
        with pytest.raises(ReduceError):
            enumerate_modes(config, lambda_max)
        return
    flux = config.magnetic.flux
    lowest = _oracle_min_cross_eigenvalue(config.cross_section, flux)
    assert min_cross_eigenvalue(config.cross_section, flux) == lowest
    if _falls(config, want[0][1] if want else lowest):
        with pytest.raises(ReduceError, match="falls to -oo"):
            enumerate_modes(config, lambda_max)
        return
    got = enumerate_modes(config, lambda_max)
    assert [(m.label, m.nu) for m in got] == want
    # the largest node ratio and the bisection agree on the cut to rounding
    cut = _oracle_nu_reach(config, lambda_max)
    assert _mode_cut(config, lambda_max) == pytest.approx(cut, rel=1e-12, abs=1e-12)


@st.composite
def _narrow_bumps(draw):
    """A circle end with a bump narrower than the mesh, centred on a node of
    the finest mesh, of either sign, and a window top."""
    p = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]))
    y0 = draw(st.sampled_from([1.0, 1.5]))
    numerics = Numerics(grids=(200, 400), domains=(1.0, 2.0),
                        lambda_grid=(0.1, draw(st.floats(0.5, 50.0)), 4))
    _, y = mesh_for(float(p), y0, 2.0, cells_for(400, 2.0, 1.0))
    center = float(y[draw(st.integers(1, len(y) - 2))])
    width = center * draw(st.floats(1e-9, 1e-6))
    height = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e3, 2e4))
    return ProblemConfig(
        geometry=EndGeometry(2, p, y0),
        cross_section=builtin_cross_section("circle", length=TWO_PI), degree=0,
        magnetic=MagneticData(flux=(draw(st.fractions(0, 1, max_denominator=8)),)),
        potential=RadialPotential(bump=(center, width, height)), numerics=numerics)


@given(_narrow_bumps())
# a positive bump and flux 1/2 at Y0 = 1.5: no label lies under the bound
@example(ProblemConfig(
    geometry=EndGeometry(2, Fraction(1), 1.5),
    cross_section=builtin_cross_section("circle", length=TWO_PI), degree=0,
    magnetic=MagneticData(flux=(Fraction(1, 2),)),
    potential=RadialPotential(bump=(1.5037546914086926, 9.71057692274267e-08, 1000.0)),
    numerics=Numerics(grids=(200, 400), domains=(1.0, 2.0), lambda_grid=(0.1, 0.5, 4))))
@settings(max_examples=40, deadline=None)
def test_every_mode_a_finest_pencil_puts_below_the_top_is_enumerated(config):
    """Brute force: every label with nu <= (top - min V) / Y0^(2p), beyond
    which q > top on the whole end, is assembled on the finest mesh and
    counted at the window top (`sturm.count_below_stack`, the stacked
    `count_below`); each one with a count is enumerated."""
    geom, top = config.geometry, float(config.numerics.lambdas()[-1])
    bound = (top - min(0.0, config.potential.bump[2])) / geom.y0 ** (2.0 * geom.pf)
    mu = float(config.magnetic.flux[0])
    reach = math.isqrt(int(bound)) + 2
    modes = [ModeSpec(label=(m,), nu=nu, multiplicity=1)
             for m in range(-reach, reach + 1)
             if (nu := cross_eigenvalue(config.cross_section, (m,), (mu,))) <= bound]
    ops = [mode_operator(config, m) for m in modes]
    cells = cells_for(config.numerics.grids[-1], 2.0, 1.0)
    reached = set()
    if ops:     # an empty stack has no mesh to assemble
        diags, off, mass, floors = discretize_stack(ops, 2.0, cells)
        counts, _ = count_below_stack(diags, off, mass, np.array([top]), None, floors)
        reached = {m.label for m, c in zip(modes, counts[:, 0]) if c > 0}
    assert reached <= {m.label for m in enumerate_modes(config, top)}


# ---------------------------------------------------------------------------
# radial operators
# ---------------------------------------------------------------------------

def test_function_mode_exponents():
    op = _op(p="0.5", n=3)
    assert op.density_exponent == -1.5
    assert op.stiffness_exponent == -0.5


def test_function_mode_potential_terms():
    pot = RadialPotential(poly=((0.5, 0.0),))
    op = _op(nu=0.25, potential=pot)
    assert op.potential_terms == ((0.25, 2.0), (0.5, 0.0))
    q = potential_values(np.array([2.0]), op.potential_terms, op.bump)
    assert q[0] == pytest.approx(0.25 * 4.0 + 0.5)


def test_function_mode_and_form_sector0_agree_at_degree_zero():
    fn, form = _op(), _op(sector=SECTOR_FORM_0)
    assert fn == form
    pen_s, pen_f = discretize(fn, 8.0, 200), discretize(form, 8.0, 200)
    assert np.array_equal(pen_s.diag, pen_f.diag)
    assert np.array_equal(pen_s.offdiag, pen_f.offdiag)
    assert np.array_equal(pen_s.mass, pen_f.mass)


@pytest.mark.parametrize("n, k, p", [(3, 1, "1"), (3, 1, "2"), (3, 2, "1/4"), (4, 1, "1/2"),
                                     (5, 1, "3/2")])
def test_form_sector_weights_and_extra_potential(n, k, p):
    """Both sectors act in L^2(y^((2k-n)p) dy) with stiffness y^((2k+2-n)p);
    sector 1 alone carries kappa y^(2p-2), kappa = (n - 2k) p (2p - 1)."""
    pf = float(Fraction(p))
    s0, s1 = (_op(p=p, n=n, degree=k, sector=s) for s in (SECTOR_FORM_0, SECTOR_FORM_1))
    for op in (s0, s1):
        assert op.density_exponent == (2 * k - n) * pf
        assert op.stiffness_exponent == (2 * k + 2 - n) * pf
        assert op.p == pf and op.bump is None
    assert s0.potential_terms == ()
    kappa = (n - 2 * k) * pf * (2.0 * pf - 1.0)
    assert s1.potential_terms == (((kappa, 2.0 * pf - 2.0),) if kappa else ())


@pytest.mark.parametrize("p", ["1/4", "1/2", "1", "2"])
def test_middle_degree_sectors_are_one_operator(p):
    """kappa = 0 at n = 2k: on the 3-torus the 2-form sectors h0 and h1 have
    equal operators, and multiplicities h^2 = h^1 = 3."""
    cfg = circle_cfg(p=p, n=4, degree=2,
                     cs=builtin_cross_section("square_torus", side=TWO_PI, dim=3))
    h0, h1 = enumerate_modes(cfg, 5.0)
    assert (h0.multiplicity, h1.multiplicity) == (3, 3)
    assert mode_operator(cfg, h0) == mode_operator(cfg, h1)


def test_form_sector_thresholds_n3_k1():
    s0 = _op(n=3, degree=1, sector=SECTOR_FORM_0)
    s1 = _op(n=3, degree=1, sector=SECTOR_FORM_1)
    assert mode_threshold(s0) == 0.0
    assert mode_threshold(s1) == 1.0


def test_mode_threshold_cases():
    assert mode_threshold(_op(nu=1.0)) is None              # confining
    assert mode_threshold(_op(p="0.5")) == 0.0
    assert mode_threshold(_op(p="2")) is None               # horn
    shifted = _op(potential=RadialPotential(poly=((0.5, 0.0),)))
    assert mode_threshold(shifted) == 0.75
    falling = _op(potential=RadialPotential(poly=((-1.0, 0.5),)))
    with pytest.raises(ReduceError, match="not bounded below"):
        mode_threshold(falling)


@pytest.mark.parametrize("terms, limit", [
    ((), 0.0),
    (((0.5, 0.0), (-0.2, 0.0), (3.0, -1.0)), 0.3),
    (((1.0, 0.5), (-5.0, 0.25)), math.inf),
    (((-1.0, 0.5), (5.0, 0.0)), -math.inf),
    # like powers are summed before the highest one decides
    (((1.0, 2.0), (-1.0, 2.0), (-0.1, 1.0)), -math.inf),
    (((1.0, 2.0), (-1.0, 2.0), (0.25, 0.0)), 0.25),
])
def test_far_field_is_decided_by_the_highest_surviving_power(terms, limit):
    assert far_field(terms) == pytest.approx(limit)


# ---------------------------------------------------------------------------
# Liouville normal form
# ---------------------------------------------------------------------------

def _w(op, z):
    """The normal-form potential W of op at z."""
    return potential_values(y_of_z(z, op.p, op.y0), liouville_transform(op), op.bump)


def test_liouville_terms_are_the_conjugation_term_then_q():
    op = _op(nu=0.25, potential=RadialPotential(poly=((0.5, 0.0),)))
    # n = 2, p = 1: c = -1, A_c = (c/2)(c/2 + p - 1) = 1/4
    assert liouville_transform(op) == ((0.25, 0.0), (0.25, 2.0), (0.5, 0.0))


def test_liouville_constant_quarter():
    z = np.linspace(0.0, 30.0, 100)
    assert np.allclose(_w(_op(), z), 0.25, atol=1e-14)


def test_liouville_potential_decays_for_p_below_one():
    op = _op(p="0.5")
    z = np.array([10.0, 100.0, 1000.0])
    w = _w(op, z)
    assert np.all(np.abs(w) < np.abs(_w(op, np.array([3.0]))))
    assert abs(w[-1]) < 1e-5


def test_liouville_exponential_wall():
    z = np.array([0.0, 1.0, 2.0])
    assert np.allclose(_w(_op(nu=1.0), z), np.exp(2 * z) + 0.25, rtol=1e-14)


def test_liouville_rejects_p_above_one():
    with pytest.raises(ReduceError, match="p > 1"):
        liouville_transform(_op(p="2"))


def _weighted_pencil(op, T, cells):
    """P1 assembly of op in y with its power weights, on the z-graded mesh."""
    _, y = mesh_for(op.p, op.y0, T, cells)
    h = np.diff(y)
    k = (0.5 * (y[:-1] + y[1:])) ** op.stiffness_exponent / h
    lump = 0.5 * (h[:-1] + h[1:])
    w0 = y[1:-1] ** op.density_exponent
    q = potential_values(y[1:-1], op.potential_terms, op.bump)
    return TridiagonalPencil(diag=k[:-1] + k[1:] + q * w0 * lump, offdiag=-k[1:-1],
                             mass=w0 * lump)


@pytest.mark.parametrize("p,nu", [("1", 0.25), ("0.5", 1.0)])
def test_liouville_cross_check_eigenvalues(p, nu):
    """Weighted z-graded discretization and the normal form agree below a
    fixed lambda, with the gap shrinking under refinement."""
    op = _op(p=p, nu=nu)
    lam, T = (10.0, 10.0)
    gaps = []
    for cells in (250, 500, 1000):
        ew = eigenvalues_below(_weighted_pencil(op, T, cells), lam, 1e-10)
        ec = eigenvalues_below(discretize(op, T, cells), lam, 1e-10)
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
    pencils: P1 elements on the same uniform y-mesh, lumped mass y^(-2),
    potential nu y^2, listed by this package's Sturm bisection."""
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
    y = np.linspace(y0, ymax, ny + 1)
    h = np.diff(y)
    stiff = 1.0 / h
    mass = y[1:-1] ** -2.0 * (0.5 * (h[:-1] + h[1:]))
    lows = []
    for nu in nu_disc:
        pen = TridiagonalPencil(diag=stiff[:-1] + stiff[1:] + nu * y[1:-1] ** 2.0 * mass,
                                offdiag=-stiff[1:-1], mass=mass)
        ev = eigenvalues_below(pen, 5000.0, 1e-9)
        if ev:
            lows.append(ev[0])
    assert low2d == pytest.approx(min(lows), rel=1e-7)
    # and the discrete mode values converge to the continuum (m + mu)^2
    assert min(nu_disc) == pytest.approx(0.25, rel=5e-3)
