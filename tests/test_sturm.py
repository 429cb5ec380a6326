"""Pencil assembly, inertia counts, bisection, and extrapolation."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cusplab import sturm
from cusplab.reduce import CanonicalOperator, RadialOperator
from cusplab.sturm import (SturmError, TridiagonalPencil, cells_for,
                           count_below, count_below_many,
                           count_below_stack, discretize, eigenvalues_below,
                           gershgorin_lower, observed_order, richardson)

PI2 = math.pi * math.pi
FLAT = CanonicalOperator(p=1.0, y0=1.0, z0=0.0, conj_coeff=0.0)


def dense_spectrum(pen):
    n = pen.n
    s = 1.0 / np.sqrt(pen.mass)
    a = np.diag(pen.diag * s * s)
    ij = np.arange(n - 1)
    a[ij, ij + 1] = a[ij + 1, ij] = pen.offdiag * s[:-1] * s[1:]
    return np.sort(np.linalg.eigvalsh(a))


def test_textbook_assembly_on_unit_interval():
    pen = discretize(FLAT, 1.0, 1000)
    h = 1.0 / 1000
    assert pen.n == 999
    assert np.allclose(pen.diag, 2.0 / h)
    assert np.allclose(pen.offdiag, -1.0 / h)
    assert np.allclose(pen.mass, h)


def test_count_below_unit_interval():
    pen = discretize(FLAT, 1.0, 2000)
    # pi^2 ~ 9.87 and 4 pi^2 ~ 39.5 lie below 50; 9 pi^2 ~ 88.8 does not
    assert count_below(pen, 50.0) == 2
    assert count_below(pen, 5.0) == 0


def test_count_below_gershgorin_floor():
    pen = discretize(FLAT, 1.0, 500)
    assert count_below(pen, gershgorin_lower(pen) - 1.0) == 0


def test_weighted_pencil_matches_flat_channel():
    """w1 = 1, w0 = y^-2 on (1, e^T): eigenvalues 1/4 + (k pi / T)^2."""
    op = RadialOperator(density_exponent=-2.0, stiffness_exponent=0.0, y0=1.0)
    T = 8.0
    pen = discretize(op, T, 4000)
    got = eigenvalues_below(pen, 1.0, 1e-10)
    want = [0.25 + (k * math.pi / T) ** 2 for k in range(1, len(got) + 1)]
    assert np.allclose(got, want, atol=2e-4)


def test_small_grid_rejected():
    with pytest.raises(SturmError, match="cells"):
        discretize(FLAT, 1.0, 3)
    with pytest.raises(SturmError, match="interior"):
        TridiagonalPencil(diag=np.ones(2), offdiag=-np.ones(1),
                          mass=np.ones(2), h=0.1) and discretize(FLAT, 1.0, 3)


def test_overflow_names_the_term():
    op = RadialOperator(density_exponent=0.0, stiffness_exponent=1600.0, y0=1.0)
    with pytest.raises(SturmError, match="overflow"):
        discretize(op, 8.0, 100)


def test_count_matches_dense_oracle_fixed_seed():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 120))
        pen = TridiagonalPencil(diag=rng.uniform(-2, 2, n),
                                offdiag=rng.uniform(-1, 1, n - 1),
                                mass=rng.uniform(0.5, 2.0, n), h=1.0)
        spec = dense_spectrum(pen)
        for lam in rng.uniform(spec[0] - 0.5, spec[-1] + 0.5, 8):
            assert count_below(pen, float(lam)) == int(np.sum(spec < lam))


@given(st.integers(min_value=3, max_value=40), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_count_nondecreasing_in_lambda(n, seed):
    rng = np.random.default_rng(seed)
    pen = TridiagonalPencil(diag=rng.uniform(-2, 2, n),
                            offdiag=rng.uniform(-1, 1, n - 1),
                            mass=rng.uniform(0.5, 2.0, n), h=1.0)
    lams = np.sort(rng.uniform(-6.0, 6.0, 12))
    counts = count_below_many(pen, lams)
    assert np.all(np.diff(counts) >= 0)
    assert counts[-1] <= n


def test_count_stack_matches_scalar_counts():
    rng = np.random.default_rng(3)
    n = 60
    off = rng.uniform(-1, 1, n - 1)
    mass = rng.uniform(0.5, 2.0, n)
    diags = rng.uniform(-2, 2, (4, n))
    lams = np.linspace(-3, 3, 7)
    stacked = count_below_stack(diags, off, mass, lams)
    for i in range(4):
        pen = TridiagonalPencil(diag=diags[i].copy(), offdiag=off.copy(),
                                mass=mass.copy(), h=1.0)
        assert np.array_equal(stacked[i], count_below_many(pen, lams))


def test_exact_pivot_hit_is_recorded_and_deterministic():
    pen = TridiagonalPencil(diag=np.ones(5), offdiag=np.zeros(4),
                            mass=np.ones(5), h=1.0)
    a = count_below(pen, 1.0)
    b = count_below(pen, 1.0)
    assert a == b == 0          # eigenvalues lie exactly at 1, not below
    assert pen.breakdowns >= 2  # every exact hit was shifted and recorded


def test_breakdown_at_the_shifted_lambda_raises():
    # the shift scale is 6, so lambda = 1 shifted down lands exactly on
    # diag[1]; the true count below 1 is 1, and no count is returned
    pen = TridiagonalPencil(diag=np.array([1.0, 1.0 - 6e-14, 5.0]),
                            offdiag=np.zeros(2), mass=np.ones(3), h=1.0)
    with pytest.raises(SturmError, match=r"breakdown at lambda = 1\.0 persists"):
        count_below(pen, 1.0)


def test_eigenvalues_below_multiplicity_from_clusters():
    # two decoupled identical 2x2 blocks: doubly degenerate eigenvalues
    diag = np.array([2.0, 2.0, 2.0, 2.0])
    off = np.array([-1.0, 0.0, -1.0])
    pen = TridiagonalPencil(diag=diag, offdiag=off, mass=np.ones(4), h=1.0)
    got = eigenvalues_below(pen, 10.0, 1e-12)
    assert np.allclose(got, [1.0, 1.0, 3.0, 3.0], atol=1e-10)


def test_eigenvalues_below_empty_window():
    pen = discretize(FLAT, 1.0, 200)
    assert eigenvalues_below(pen, 1.0, 1e-8) == []


def test_bisection_tolerance_validation():
    pen = discretize(FLAT, 1.0, 200)
    with pytest.raises(SturmError, match="tolerance"):
        eigenvalues_below(pen, 50.0, 0.0)


def test_richardson_and_order_on_unit_interval():
    cells = (250, 500, 1000)
    hs = [1.0 / c for c in cells]
    vals = [eigenvalues_below(discretize(FLAT, 1.0, c), 50.0, 1e-11)[0]
            for c in cells]
    assert abs(richardson(vals, hs) - PI2) < 1e-8
    assert observed_order(vals, hs) >= 1.9


def test_grid_refinement_monotone_from_above_consistent_mass():
    """Nested P1 spaces with consistent mass: eigenvalues only come down."""
    op = CanonicalOperator(p=1.0, y0=1.0, z0=0.0, conj_coeff=0.25)
    prev = None
    for cells in (200, 400, 800):
        pen = discretize(op, 8.0, cells, mass="consistent")
        evs = np.array(eigenvalues_below(pen, 1.2, 1e-11))
        if prev is not None:
            m = min(len(prev), len(evs))
            assert np.all(evs[:m] <= prev[:m] * (1 + 1e-12) + 1e-12)
        prev = evs
    # and the consistent-mass values stay above the continuum limit
    exact = np.array([0.25 + (k * math.pi / 8.0) ** 2 for k in range(1, len(prev) + 1)])
    assert np.all(prev >= exact - 1e-12)


def test_counts_grow_linearly_on_flat_channel():
    """Analytic law: N_T(lambda) = floor(T sqrt(lambda - 1/4) / pi)."""
    op = CanonicalOperator(p=1.0, y0=1.0, z0=0.0, conj_coeff=0.25)
    lam = 1.0
    for T in (8.0, 16.0, 32.0):
        pen = discretize(op, T, cells_for(1000, T, 8.0))
        want = math.floor(T * math.sqrt(lam - 0.25) / math.pi)
        assert abs(count_below(pen, lam) - want) <= 1


# ---------------------------------------------------------------------------
# the blocked kernel against the per-node recurrence
# ---------------------------------------------------------------------------

def _reference_pass(diag, off, mass, mass_off, lams):
    """The per-node LDL^T recurrence the blocked kernel must reproduce."""
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    mass = np.asarray(mass, dtype=float)
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    batch = diag.shape[:-1]
    n = diag.shape[-1]
    lam = lams.reshape((1,) * len(batch) + (-1,))
    counts = np.zeros(batch + (lams.size,), dtype=np.int64)
    broke = np.zeros(batch + (lams.size,), dtype=bool)
    d = diag[..., 0:1] - lam * mass[..., 0:1]
    counts += d < 0
    broke |= d == 0
    for i in range(1, n):
        e = off[..., i - 1:i]
        if mass_off is not None:
            e = e - lam * mass_off[..., i - 1:i]
        dsafe = np.where(d == 0, np.finfo(float).tiny, d)
        d = diag[..., i:i + 1] - lam * mass[..., i:i + 1] - e * e / dsafe
        counts += d < 0
        broke |= d == 0
    return counts, broke


def assert_matches_reference(diag, off, mass, mass_off, lams):
    # e*e/tiny overflows on broken lanes of the reference; those are discarded
    with np.errstate(over="ignore"):
        want, want_broke = _reference_pass(diag, off, mass, mass_off, lams)
    got, broke = sturm._sturm_pass(diag, off, mass, mass_off, lams)
    assert got.shape == want.shape and broke.shape == want_broke.shape
    assert np.array_equal(broke, want_broke)
    assert np.array_equal(got[~broke], want[~broke])
    return broke


@st.composite
def pass_inputs(draw):
    """Random or dyadic pencils; dyadic data gives exact pivot hits, zero
    offdiag entries and 0/0 on broken lanes."""
    n = draw(st.integers(min_value=1, max_value=40))
    rows = draw(st.sampled_from([None, 1, 3]))
    batch = () if rows is None else (rows,)
    dyadic = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    def values(shape, lo, hi, choices):
        if dyadic:
            return rng.choice(choices, shape)
        return rng.uniform(lo, hi, shape)

    diag = values(batch + (n,), -2.0, 2.0, [-2.0, -1.0, 0.0, 1.0, 2.0])
    off_batch = batch if draw(st.booleans()) else ()
    off = values(off_batch + (n - 1,), -1.0, 1.0, [-1.0, -0.5, 0.0, 0.5, 1.0])
    mass = values((n,), 0.5, 2.0, [0.5, 1.0, 2.0])
    mass_off = None
    if draw(st.booleans()):
        mass_off = values((n - 1,), 0.0, 0.2, [0.0, 0.125, 0.25])
    dyadic_lams = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0])
    lams = np.sort(np.array(draw(st.lists(dyadic_lams, min_size=1, max_size=12))))
    if not dyadic:
        lams = lams + rng.uniform(-0.1, 0.1, lams.size)
    return diag, off, mass, mass_off, lams


@given(pass_inputs(), st.sampled_from([8, 256, sturm._BLOCK_BYTES]))
@settings(max_examples=200, deadline=None)
def test_blocked_kernel_matches_reference(inputs, block_bytes):
    # 8 bytes makes every node its own block, so carries are exercised
    with mock.patch.object(sturm, "_BLOCK_BYTES", block_bytes):
        assert_matches_reference(*inputs)


def test_blocked_kernel_three_nodes_and_pivot_hits():
    diag = np.array([1.0, 2.0, 3.0])
    mass = np.ones(3)
    lams = np.array([0.5, 1.0, 2.0, 3.0, 4.0])
    # decoupled rows: every diag entry is hit exactly, including 0/0 after it
    broke = assert_matches_reference(diag, np.zeros(2), mass, None, lams)
    assert broke.tolist() == [False, True, True, True, False]
    broke = assert_matches_reference(diag, np.array([0.5, 0.0]), mass, None, lams)
    assert broke[1]
    # the pivot 1 - 49/49 is exactly 0; 1 - 49 * (1/49) would not be
    broke = assert_matches_reference(np.array([49.0, 1.0, 2.0]), np.array([7.0, 1.0]),
                                     mass, None, np.array([0.0]))
    assert broke[0]


def test_blocked_kernel_consistent_mass():
    pen = discretize(FLAT, 1.0, 300, mass="consistent")
    lams = np.linspace(-5.0, 400.0, 40)
    assert_matches_reference(pen.diag, pen.offdiag, pen.mass, pen.mass_offdiag, lams)


def test_blocked_kernel_carries_across_blocks():
    rng = np.random.default_rng(11)
    rows, n, lams = 5, 400, np.linspace(-3.0, 3.0, 64)
    assert n > sturm._BLOCK_BYTES // (8 * rows * lams.size)
    diags = rng.uniform(-2, 2, (rows, n))
    diags[2, 150] = 1.5       # exact hit for lambda = 1.5 behind a zero offdiag
    off = rng.uniform(-1, 1, (rows, n - 1))
    off[2, 149] = 0.0
    lams[50] = 1.5
    broke = assert_matches_reference(diags, off, np.ones(n), None, lams)
    assert broke[2, 50]
    assert_matches_reference(diags, off[0], rng.uniform(0.5, 2.0, n), None, lams)


def test_stack_breakdown_falls_back_to_per_row_counts():
    n = 6
    off = np.full(n - 1, -0.5)
    mass = np.ones(n)
    diags = np.full((3, n), 3.0)
    diags[1, 0] = 1.0         # lambda = 1 hits the first pivot of row 1 only
    lams = np.array([0.5, 1.0, 2.0])
    for offs in (off, np.tile(off, (3, 1))):
        stacked = count_below_stack(diags, offs, mass, lams)
        for i in range(3):
            pen = TridiagonalPencil(diag=diags[i], offdiag=off, mass=mass, h=1.0)
            assert stacked[i].tolist() == [count_below(pen, lam) for lam in lams]
            assert pen.breakdowns == (1 if i == 1 else 0)


def test_bisection_rejects_counts_that_decrease_in_lambda(counts_reversed_in_lambda):
    pen = TridiagonalPencil(diag=np.array([1.0, 3.0]), offdiag=np.zeros(1),
                            mass=np.ones(2), h=1.0)
    with pytest.raises(SturmError, match="decreased in lambda"):
        eigenvalues_below(pen, 10.0, 1e-8)
