"""Pencil assembly, inertia counts, bisection, and extrapolation."""

import ast
import math
import pathlib
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cusplab import assemble, sturm
from cusplab.model import (EndGeometry, MagneticData, Numerics, ProblemConfig, RadialPotential,
                           builtin_cross_section)
from cusplab.reduce import RadialOperator, ReduceError, cells_for
from cusplab.sturm import (SturmError, TridiagonalPencil, count_below,
                           count_below_many, count_below_stack, discretize,
                           discretize_stack, eigenvalues_below, gershgorin_lower,
                           observed_order, richardson)

PI2 = math.pi * math.pi
# at p = 1 these weights give no conjugation term: -d^2/dz^2 on (0, T)
FLAT = RadialOperator(density_exponent=-1.0, stiffness_exponent=1.0, p=1.0)
# w1 = 1, w0 = y^-2: the normal form is -d^2/dz^2 + 1/4
CHANNEL = RadialOperator(density_exponent=-2.0, stiffness_exponent=0.0, p=1.0)


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
    """w1 = 1, w0 = y^-2 on (1, e^T), assembled in its normal form:
    eigenvalues 1/4 + (k pi / T)^2."""
    T = 8.0
    pen = discretize(CHANNEL, T, 4000)
    got = eigenvalues_below(pen, 1.0, 1e-10)
    want = [0.25 + (k * math.pi / T) ** 2 for k in range(1, len(got) + 1)]
    assert np.allclose(got, want, atol=2e-4)


def test_small_grid_rejected():
    with pytest.raises(SturmError, match=r"4 mesh cells \(3 interior points\)"):
        discretize(FLAT, 1.0, 3)


WEIGHTED = RadialOperator(density_exponent=-2.0, stiffness_exponent=0.0, p=1.0,
                          potential_terms=((1.0, 2.0),), y0=1.0)


@pytest.mark.parametrize("first, other", [
    (WEIGHTED, replace(WEIGHTED, density_exponent=-1.0)),
    (WEIGHTED, replace(WEIGHTED, stiffness_exponent=1.0)),
    (WEIGHTED, replace(WEIGHTED, y0=1.5)),
    (WEIGHTED, replace(WEIGHTED, bump=(2.5, 1.0, 5.0))),
    (FLAT, replace(FLAT, y0=1.5)),
    (FLAT, replace(FLAT, p=0.5, density_exponent=-0.5, stiffness_exponent=0.5)),
    (FLAT, replace(FLAT, bump=(2.5, 1.0, 5.0))),
    (FLAT, CHANNEL),
], ids=["density", "stiffness", "y0", "bump", "flat-y0", "flat-p", "flat-bump",
        "flat-channel"])
def test_stack_refuses_operators_that_differ_beyond_the_potential(first, other):
    with pytest.raises(SturmError, match="differ only in their potential terms"):
        discretize_stack([first, first, other], 4.0, 40)


@pytest.mark.parametrize("op", [
    RadialOperator(density_exponent=-2.0, stiffness_exponent=1.0, p=1.0),
    RadialOperator(density_exponent=-1.0, stiffness_exponent=0.0, p=0.25),
], ids=["p1", "p0.25"])
def test_normal_form_refuses_weights_that_disagree_with_p(op):
    """At p <= 1 the pencil is the normal form's, which needs
    stiffness - density = 2p."""
    with pytest.raises(ReduceError, match="inconsistent with exponent p"):
        discretize(op, 4.0, 40)


def test_overflow_names_the_term():
    op = RadialOperator(density_exponent=0.0, stiffness_exponent=1600.0, p=800.0, y0=1.0)
    with pytest.raises(SturmError, match="overflow"):
        discretize(op, 8.0, 100)


def test_count_matches_dense_oracle_fixed_seed():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 120))
        pen = TridiagonalPencil(diag=rng.uniform(-2, 2, n),
                                offdiag=rng.uniform(-1, 1, n - 1),
                                mass=rng.uniform(0.5, 2.0, n))
        spec = dense_spectrum(pen)
        for lam in rng.uniform(spec[0] - 0.5, spec[-1] + 0.5, 8):
            assert count_below(pen, float(lam)) == int(np.sum(spec < lam))


@given(st.integers(min_value=3, max_value=40), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_count_nondecreasing_in_lambda(n, seed):
    rng = np.random.default_rng(seed)
    pen = TridiagonalPencil(diag=rng.uniform(-2, 2, n),
                            offdiag=rng.uniform(-1, 1, n - 1),
                            mass=rng.uniform(0.5, 2.0, n))
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
    stacked, _ = count_below_stack(diags, off, mass, lams)
    for i in range(4):
        pen = TridiagonalPencil(diag=diags[i].copy(), offdiag=off.copy(),
                                mass=mass.copy())
        assert np.array_equal(stacked[i], count_below_many(pen, lams))


def test_exact_pivot_hit_is_recorded_and_deterministic():
    pen = TridiagonalPencil(diag=np.ones(5), offdiag=np.zeros(4),
                            mass=np.ones(5))
    a = count_below(pen, 1.0)
    b = count_below(pen, 1.0)
    assert a == b == 0          # eigenvalues lie exactly at 1, not below
    assert pen.breakdowns >= 2  # every exact hit was shifted and recorded


def test_breakdown_at_the_shifted_lambda_raises():
    # the shift scale is 6, so lambda = 1 shifted down lands exactly on
    # diag[1]; the true count below 1 is 1, and no count is returned
    pen = TridiagonalPencil(diag=np.array([1.0, 1.0 - 6e-14, 5.0]),
                            offdiag=np.zeros(2), mass=np.ones(3))
    with pytest.raises(SturmError, match=r"breakdown at lambda = 1\.0 persists"):
        count_below(pen, 1.0)


def test_eigenvalues_below_multiplicity_from_clusters():
    # two decoupled identical 2x2 blocks: doubly degenerate eigenvalues
    diag = np.array([2.0, 2.0, 2.0, 2.0])
    off = np.array([-1.0, 0.0, -1.0])
    pen = TridiagonalPencil(diag=diag, offdiag=off, mass=np.ones(4))
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


def test_counts_grow_linearly_on_flat_channel():
    """Analytic law: N_T(lambda) = floor(T sqrt(lambda - 1/4) / pi)."""
    lam = 1.0
    for T in (8.0, 16.0, 32.0):
        pen = discretize(CHANNEL, T, cells_for(1000, T, 8.0))
        want = math.floor(T * math.sqrt(lam - 0.25) / math.pi)
        assert abs(count_below(pen, lam) - want) <= 1


# ---------------------------------------------------------------------------
# the blocked kernel against the per-node recurrence
# ---------------------------------------------------------------------------

def _reference_pass(diag, off, mass, lams):
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
        dsafe = np.where(d == 0, np.finfo(float).tiny, d)
        d = diag[..., i:i + 1] - lam * mass[..., i:i + 1] - e * e / dsafe
        counts += d < 0
        broke |= d == 0
    return counts, broke


#: every block on numpy, the default, and every block on Python floats
SCALAR_LANES = (0, sturm._SCALAR_LANES, 64)


def pass_at_each_scalar_width(diag, off, mass, lams, sizes=None):
    """`_sturm_pass` at each of SCALAR_LANES: counts, breakdown and settled
    masks must be equal, those of broken lanes too."""
    runs = []
    for lanes in SCALAR_LANES:
        with mock.patch.object(sturm, "_SCALAR_LANES", lanes):
            runs.append(sturm._sturm_pass(diag, off, mass, lams, sizes))
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert np.array_equal(got, want)
    return runs[0]


def assert_matches_reference(diag, off, mass, lams):
    # e*e/tiny overflows on broken lanes of the reference; those are discarded
    with np.errstate(over="ignore"):
        want, want_broke = _reference_pass(diag, off, mass, lams)
    got, broke, _ = pass_at_each_scalar_width(diag, off, mass, lams)
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
    dyadic_lams = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0])
    lams = np.sort(np.array(draw(st.lists(dyadic_lams, min_size=1, max_size=12))))
    if not dyadic:
        lams = lams + rng.uniform(-0.1, 0.1, lams.size)
    return diag, off, mass, lams


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
    broke = assert_matches_reference(diag, np.zeros(2), mass, lams)
    assert broke.tolist() == [False, True, True, True, False]
    broke = assert_matches_reference(diag, np.array([0.5, 0.0]), mass, lams)
    assert broke[1]
    # the pivot 1 - 49/49 is exactly 0; 1 - 49 * (1/49) would not be
    broke = assert_matches_reference(np.array([49.0, 1.0, 2.0]), np.array([7.0, 1.0]),
                                     mass, np.array([0.0]))
    assert broke[0]


def test_blocked_kernel_carries_across_blocks():
    rng = np.random.default_rng(11)
    rows, n, lams = 5, 400, np.linspace(-3.0, 3.0, 64)
    assert n > sturm._BLOCK_BYTES // (8 * rows * lams.size)
    diags = rng.uniform(-2, 2, (rows, n))
    diags[2, 150] = 1.5       # exact hit for lambda = 1.5 behind a zero offdiag
    off = rng.uniform(-1, 1, (rows, n - 1))
    off[2, 149] = 0.0
    lams[50] = 1.5
    broke = assert_matches_reference(diags, off, np.ones(n), lams)
    assert broke[2, 50]
    assert_matches_reference(diags, off[0], rng.uniform(0.5, 2.0, n), lams)


@pytest.fixture
def scalar_blocks(monkeypatch):
    """Record each `_scalar_block` call: the pivots carried into it, and
    whether a zero pivot sent the block back to the vector path."""
    calls = []
    real = sturm._scalar_block

    def recorded(a, e2, prev):
        calls.append((prev.tolist(), "sent back"))
        out = real(a, e2, prev)
        calls[-1] = (prev.tolist(), "ran")
        return out

    monkeypatch.setattr(sturm, "_scalar_block", recorded)
    return calls


# one row whose last node is never dominant, so no lane retires and the
# first block runs up to node N - 2 (or to the checkpoint's node N - 2)
@pytest.mark.parametrize("diag, off, lams, sizes, sent_back", [
    # a_1 = 2 - 2 makes pivot 1 exactly zero; node 2 divides 1 by it
    ([1.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0, 0.5], [0.0] + [-1.0] * 6, [2.0, 2.5], None, True),
    # -0.0 - 0 * 1 - 0 / inf is a -0.0 pivot at node 0
    ([-0.0, 3.0, 3.0, 3.0, 0.5], [-1.0] * 4, [0.0, 0.5], None, True),
    # 1e10 / 1e-300 overflows to inf on Python floats as in numpy, and
    # 1 - inf is a negative pivot, not a breakdown
    ([1e-300, 1.0, 3.0, 3.0, 0.5], [1e5, -1.0, -1.0, -1.0], [0.0, 0.5, 1.0], None, False),
    # 0 / 0 at node 2 is a nan pivot, carried into the block that starts at
    # node 3, two nodes before checkpoint 5
    ([1.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0, 0.5], [0.0, 0.0] + [-1.0] * 5, [2.0], [5, 8], True),
], ids=["zero-pivot", "negative-zero-pivot", "overflowing-quotient", "nan-pivot"])
def test_scalar_blocks_match_the_reference_on_special_pivots(scalar_blocks, diag, off, lams,
                                                             sizes, sent_back):
    diag, off, mass = np.array(diag), np.array(off), np.ones(len(diag))
    if sizes is None:
        assert_matches_reference(diag, off, mass, lams)
    else:
        assert_checkpoints_match_reference(diag, off, mass, lams, sizes)
    assert scalar_blocks and any(how == "sent back" for _, how in scalar_blocks) == sent_back
    nan_carried = any(math.isnan(d) for prev, how in scalar_blocks if how == "ran" for d in prev)
    assert nan_carried == (sizes is not None)


def test_stack_breakdown_falls_back_to_per_row_counts():
    n = 6
    off = np.full(n - 1, -0.5)
    mass = np.ones(n)
    diags = np.full((3, n), 3.0)
    diags[1, 0] = 1.0         # lambda = 1 hits the first pivot of row 1 only
    lams = np.array([0.5, 1.0, 2.0])
    for offs in (off, np.tile(off, (3, 1))):
        stacked, _ = count_below_stack(diags, offs, mass, lams)
        for i in range(3):
            pen = TridiagonalPencil(diag=diags[i], offdiag=off, mass=mass)
            assert stacked[i].tolist() == [count_below(pen, lam) for lam in lams]
            assert pen.breakdowns == (1 if i == 1 else 0)


def test_bisection_rejects_counts_that_decrease_in_lambda(counts_reversed_in_lambda):
    pen = TridiagonalPencil(diag=np.array([1.0, 3.0]), offdiag=np.zeros(1),
                            mass=np.ones(2))
    with pytest.raises(SturmError, match="decreased in lambda"):
        eigenvalues_below(pen, 10.0, 1e-8)


# ---------------------------------------------------------------------------
# the multisection listing against sequential bisection
# ---------------------------------------------------------------------------

def _reference_bisection(pencil, lam, tol):
    """Sequential bisection, one Sturm pass per sweep: the listing must equal it."""
    if tol <= 0:
        raise SturmError("tolerance must be > 0")
    k = sturm.count_below(pencil, lam)
    if k == 0:
        return []
    idx = np.arange(k)
    lo = np.full(k, gershgorin_lower(pencil))
    hi = np.full(k, float(lam))
    it = 0
    while float(np.max(hi - lo)) > tol:
        it += 1
        if it > sturm.MAX_BISECTION_SWEEPS:
            j = int(np.argmax(hi - lo))
            raise SturmError(
                f"bisection iteration cap hit for eigenvalue {j}: "
                f"bracket [{lo[j]}, {hi[j]}]")
        mid = 0.5 * (lo + hi)
        counts = sturm.count_below_many(pencil, mid)
        if np.any(np.diff(counts[np.argsort(mid, kind="stable")]) < 0):
            raise SturmError("internal error: counts decreased in lambda in a sweep")
        take_lo = counts <= idx
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    return [float(v) for v in 0.5 * (lo + hi)]


@st.composite
def listing_inputs(draw):
    """Random or dyadic pencils, N = 3..60.  Dyadic data puts tree points
    exactly on pivots (breakdown shifts); zero offdiag with repeated
    diagonals gives clusters and multiplicities; lambda may lie below the
    Gershgorin bound."""
    n = draw(st.integers(min_value=3, max_value=60))
    kind = draw(st.sampled_from(["random", "dyadic", "clustered"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "random":
        diag = rng.uniform(-2.0, 2.0, n)
        off = rng.uniform(-1.0, 1.0, n - 1)
        mass = rng.uniform(0.5, 2.0, n)
    elif kind == "dyadic":
        diag = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0], n)
        off = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], n - 1)
        mass = rng.choice([0.5, 1.0, 2.0], n)
    else:
        diag = rng.choice([-1.0, 0.5, 2.0], n)
        off = np.zeros(n - 1)
        mass = np.ones(n)
    pen = TridiagonalPencil(diag=diag, offdiag=off, mass=mass)
    # a negative offset puts lambda below the Gershgorin bound: k = 0
    lam = gershgorin_lower(pen) + draw(st.sampled_from([-0.25, 1.0, 4.0, 8.0, 12.0, 16.0]))
    if kind == "random":
        lam += rng.uniform(0.0, 0.1)
    tol = 10.0 ** -draw(st.sampled_from([3, 5, 8, 10, 12]))
    return pen, lam, tol


@given(listing_inputs(), st.sampled_from([sturm._PASS_LANES, 16, 3]))
@settings(max_examples=200, deadline=None)
def test_multisection_listing_equals_bisection(inputs, lanes):
    # with 3 lanes one bracket gets two levels and two or more get one, so
    # most listings exceed the lane budget and fall back to plain bisection
    pen, lam, tol = inputs
    want = _reference_bisection(pen, lam, tol)
    with mock.patch.object(sturm, "_PASS_LANES", lanes):
        assert eigenvalues_below(pen, lam, tol) == want


def test_listing_above_the_lane_budget_equals_bisection():
    rng = np.random.default_rng(5)
    n = 150
    pen = TridiagonalPencil(diag=rng.uniform(-2, 2, n), offdiag=rng.uniform(-1, 1, n - 1),
                            mass=rng.uniform(0.5, 2.0, n))
    got = eigenvalues_below(pen, 1.0, 1e-11)
    assert len(got) > sturm._PASS_LANES
    assert got == _reference_bisection(pen, 1.0, 1e-11)


@pytest.fixture
def count_passes(monkeypatch):
    """Count calls of `sturm.count_below_many`, the traced pass entry."""
    calls = []
    real = sturm.count_below_many

    def counted(pencil, lams):
        calls.append(np.size(lams))
        return real(pencil, lams)

    monkeypatch.setattr(sturm, "count_below_many", counted)
    return calls


def test_one_pass_resolves_six_levels_of_one_bracket(count_passes):
    pen = discretize(FLAT, 1.0, 400)
    assert count_below(pen, 20.0) == 1
    count_passes.clear()
    want = _reference_bisection(pen, 20.0, 1e-8)
    sweeps = len(count_passes) - 1          # the opening count is not a sweep
    count_passes.clear()
    assert eigenvalues_below(pen, 20.0, 1e-8) == want
    assert len(count_passes) <= math.ceil(sweeps / 6)
    assert count_passes[0] == sturm._PASS_LANES   # 63 tree points and lambda


def test_the_cap_counts_levels_and_names_the_widest_bracket(monkeypatch, count_passes):
    pen = discretize(FLAT, 1.0, 400)
    want = _reference_bisection(pen, 20.0, 1e-8)
    sweeps = len(count_passes) - 1
    monkeypatch.setattr(sturm, "MAX_BISECTION_SWEEPS", sweeps)
    assert eigenvalues_below(pen, 20.0, 1e-8) == want
    for cap in (sweeps - 1, 8, 6, 1):
        monkeypatch.setattr(sturm, "MAX_BISECTION_SWEEPS", cap)
        with pytest.raises(SturmError, match="iteration cap") as ref:
            _reference_bisection(pen, 20.0, 1e-8)
        with pytest.raises(SturmError, match="iteration cap") as got:
            eigenvalues_below(pen, 20.0, 1e-8)
        assert str(got.value) == str(ref.value)


def test_breakdown_shifts_apply_per_evaluated_point():
    # zero offdiag and dyadic diagonals: the tree of (0, 4) lands on 2, then
    # 1 and 3.  Bisection evaluates 2 for all four indices and 1 and 3 for
    # two each; the multisection evaluates each point once.
    pen, ref = (TridiagonalPencil(diag=np.array([0.0, 1.0, 2.0, 3.0]),
                                  offdiag=np.zeros(3), mass=np.ones(4))
                for _ in range(2))
    assert eigenvalues_below(pen, 4.0, 1e-8) == _reference_bisection(ref, 4.0, 1e-8)
    assert (pen.breakdowns, ref.breakdowns) == (3, 8)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-8])
def test_bisection_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    pen = discretize(FLAT, 1.0, 200)
    with pytest.raises(SturmError, match="tolerance must be finite and > 0"):
        eigenvalues_below(pen, 50.0, tol)


# ---------------------------------------------------------------------------
# checkpoint counts: one pass, every leading block
# ---------------------------------------------------------------------------

def assert_checkpoints_match_reference(diag, off, mass, lams, sizes):
    got, broke, _ = pass_at_each_scalar_width(diag, off, mass, lams, sizes)
    assert got.shape == broke.shape == (len(sizes),) + np.shape(diag)[:-1] + (len(lams),)
    for k, n in enumerate(sizes):
        with np.errstate(over="ignore"):
            want, want_broke = _reference_pass(diag[..., :n], off[..., :n - 1],
                                               mass[..., :n], lams)
        assert np.array_equal(broke[k], want_broke)
        assert np.array_equal(got[k][~broke[k]], want[~want_broke])
    return got, broke


@st.composite
def checkpoint_inputs(draw):
    """`pass_inputs` and an increasing checkpoint set; with probability 1/2
    it holds the last node, and with 8-byte blocks every node is a block."""
    diag, off, mass, lams = draw(pass_inputs())
    n = diag.shape[-1]
    sizes = draw(st.sets(st.integers(min_value=1, max_value=n), min_size=1, max_size=6))
    if draw(st.booleans()):
        sizes.add(n)
    return diag, off, mass, lams, sorted(sizes)


@given(checkpoint_inputs(), st.sampled_from([8, 24, 256, sturm._BLOCK_BYTES]))
@settings(max_examples=200, deadline=None)
def test_checkpoint_counts_match_the_reference_on_each_leading_block(inputs, block_bytes):
    with mock.patch.object(sturm, "_BLOCK_BYTES", block_bytes):
        assert_checkpoints_match_reference(*inputs)


def test_checkpoints_on_block_boundaries_and_the_last_node():
    rng = np.random.default_rng(13)
    n, lams = 23, np.linspace(-2.0, 2.0, 4)
    diags, off = rng.uniform(-2, 2, (2, n)), rng.uniform(-1, 1, n - 1)
    # 256 bytes over 2 x 4 lanes is a block of 4 nodes: starts 0, 4, 8, ...
    with mock.patch.object(sturm, "_BLOCK_BYTES", 256):
        for sizes in ([4, 8, 9, n], [1, 2, 3], [n], [3, 5, 20, 21, 22, 23]):
            assert_checkpoints_match_reference(diags, off, np.ones(n), lams, sizes)
            assert_checkpoints_match_reference(diags, np.tile(off, (2, 1)),
                                               np.ones(n), lams, sizes)
    full, _, _ = sturm._sturm_pass(diags, off, np.ones(n), lams)
    assert np.array_equal(sturm._sturm_pass(diags, off, np.ones(n), lams, [n])[0][0], full)


def test_pivot_hit_before_at_and_after_a_checkpoint():
    # decoupled rows: lambda = 2 makes the pivot of node 1 exactly zero
    diag, off, mass = np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(3), np.ones(4)
    lams = np.array([2.0, 2.5])
    got, broke = assert_checkpoints_match_reference(diag, off, mass, lams, [1, 2, 3, 4])
    assert broke[:, 0].tolist() == [False, True, True, True]
    assert not broke[:, 1].any()
    assert got[0, 0] == 1 and got[:, 1].tolist() == [1, 2, 2, 2]


def test_stack_checkpoints_fall_back_per_leading_block():
    n = 8
    off, mass = np.full(n - 1, -0.5), np.ones(n)
    off[3] = 0.0
    diags = np.full((3, n), 3.0)
    diags[1, 4] = 1.0         # lambda = 1 hits a pivot of row 1 at node 4 only
    lams = np.array([0.5, 1.0, 2.0])
    for offs in (off, np.tile(off, (3, 1))):
        with mock.patch.object(sturm, "_sturm_pass", wraps=sturm._sturm_pass) as kernel:
            stacked, _ = count_below_stack(diags, offs, mass, lams, sizes=[3, 5, n])
        # the hit lies behind checkpoint 3 and before 5 and n: two re-counts,
        # one pass each, over row 1's leading blocks at a lambda shifted below 1
        assert kernel.call_count == 3
        recounts = [call.args for call in kernel.call_args_list[1:]]
        assert [d.tolist() for d, *_ in recounts] == [diags[1, :5].tolist(), diags[1].tolist()]
        assert all(0.0 < 1.0 - float(lam[0]) < 1e-12 for *_, lam in recounts)
        for k, size in enumerate([3, 5, n]):
            for i in range(3):
                pen = TridiagonalPencil(diag=diags[i, :size], offdiag=off[:size - 1],
                                        mass=mass[:size])
                assert stacked[k, i].tolist() == [count_below(pen, lam) for lam in lams]


def test_stacked_meshes_count_as_one_pass_per_mesh():
    # two meshes, each row with its own off and mass; lambda = 1 hits the
    # first pivot of the second mesh's first row exactly (2 - 1 * 2 = 0)
    n, sizes = 8, [3, 8]
    meshes = [(np.full((2, n), 3.0), np.full(n - 1, -0.5), np.ones(n)),
              (np.full((2, n), 3.0), np.full(n - 1, -0.25), np.full(n, 2.0))]
    meshes[1][0][0, 0] = 2.0
    lams = np.array([0.5, 1.0, 2.0, 4.0])
    diags = np.concatenate([d for d, _, _ in meshes])
    offs = np.concatenate([np.tile(e, (2, 1)) for _, e, _ in meshes])
    masses = np.concatenate([np.tile(m, (2, 1)) for _, _, m in meshes])
    with mock.patch.object(sturm, "_sturm_pass", wraps=sturm._sturm_pass) as kernel:
        counts, settled = count_below_stack(diags, offs, masses, lams, sizes=sizes)
    # the hit lies behind both checkpoints: two re-counts, one pass each, over
    # row 2's leading blocks at a lambda shifted below 1
    assert kernel.call_count == 3
    recounts = [call.args for call in kernel.call_args_list[1:]]
    assert [d.tolist() for d, *_ in recounts] == [diags[2, :3].tolist(), diags[2].tolist()]
    assert all(0.0 < 1.0 - float(lam[0]) < 1e-12 for *_, lam in recounts)
    alone = [count_below_stack(*mesh, lams, sizes=sizes) for mesh in meshes]
    assert np.array_equal(counts, np.concatenate([c for c, _ in alone], axis=1))
    assert np.array_equal(settled, np.concatenate([s for _, s in alone], axis=1))
    assert settled.any() and not settled[:, 2, 1].any()
    for k, size in enumerate(sizes):
        for i, (d, e, m) in enumerate(zip(diags, offs, masses)):
            pen = TridiagonalPencil(diag=d[:size], offdiag=e[:size - 1], mass=m[:size])
            assert counts[k, i].tolist() == [count_below(pen, lam) for lam in lams]


@pytest.mark.parametrize("sizes", [[], [0, 3], [3, 3], [4, 2], [2, 7]])
def test_checkpoints_must_increase_within_the_pencil(sizes):
    with pytest.raises(SturmError, match="checkpoints must increase within 1..6"):
        sturm._sturm_pass(np.ones(6), np.zeros(5), np.ones(6), [0.5], sizes)


# ---------------------------------------------------------------------------
# lane retirement: the rest of a pencil is diagonally dominant
# ---------------------------------------------------------------------------

def _potential(kind, t, height, rng):
    """A potential profile on t in (0, 1]: it walls, dips and walls again,
    or carries a compact bump (of either sign) on a plateau."""
    if kind == "wall":
        return height * t * t
    if kind == "dip":
        centre, width = rng.uniform(0.3, 0.7), rng.uniform(0.03, 0.15)
        return height * (1.0 - np.exp(-t / 0.05)
                         - rng.uniform(0.5, 1.5) * np.exp(-((t - centre) / width) ** 2))
    centre, width = rng.uniform(0.2, 0.8), rng.uniform(0.02, 0.2)
    return height * (0.5 + rng.choice([-1.0, 1.0])
                     * np.clip(1.0 - ((t - centre) / width) ** 2, 0.0, None) ** 2)


@st.composite
def walled_inputs(draw):
    """P1 stacks in Liouville form, diag = 2/h + q h, off = -1/h, mass = h,
    one potential per row.  Lambdas are drawn from the potential's range,
    hit its node values exactly or within an ulp, or lie below it, so lanes
    retire early, late, never, or in the first block.  On the finest mesh
    1/h dwarfs (q - lambda) h: a margin relative to lambda would sit inside
    the rounding error of the pivots."""
    n = draw(st.integers(min_value=3, max_value=300))
    rows = draw(st.integers(min_value=1, max_value=3))
    h = draw(st.sampled_from([0.1, 1e-3, 1e-6]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    t = np.arange(1, n + 1) / n
    q = np.stack([_potential(draw(st.sampled_from(["wall", "dip", "bump"])), t,
                             rng.uniform(1.0, 50.0), rng) for _ in range(rows)])
    diags = 2.0 / h + q * h
    off, mass = np.full(n - 1, -1.0 / h), np.full(n, h)
    lams = np.concatenate([rng.uniform(q.min() - 1.0, q.max() + 1.0, 6),
                           rng.choice(q.ravel(), 3),
                           np.nextafter(rng.choice(q.ravel(), 2), np.inf),
                           [q.min() - 5.0]])
    return diags, off, mass, np.sort(lams)


@given(walled_inputs(), st.sampled_from([8, 256, sturm._BLOCK_BYTES]))
@settings(max_examples=150, deadline=None)
def test_retiring_kernel_matches_reference_on_walled_pencils(inputs, block_bytes):
    with mock.patch.object(sturm, "_BLOCK_BYTES", block_bytes):
        assert_matches_reference(*inputs)


@given(walled_inputs(), st.data())
@settings(max_examples=100, deadline=None)
def test_checkpoints_around_retirement_match_the_reference(inputs, data):
    # a lane certifies at its start node or at most a few nodes past it, so
    # checkpoints just before, at and after the start nodes straddle it
    diag, off, mass, lams = inputs
    n = diag.shape[-1]
    starts = sturm._dominance_starts(diag, off, mass, lams).ravel()
    near = sorted({int(k) + d for k in starts for d in (-1, 0, 1, 3)} & set(range(1, n + 1)))
    sizes = data.draw(st.sets(st.sampled_from(near or [n]), min_size=1, max_size=8))
    with mock.patch.object(sturm, "_BLOCK_BYTES", data.draw(st.sampled_from([8, 256, sturm._BLOCK_BYTES]))):
        assert_checkpoints_match_reference(diag, off, mass, lams, sorted(sizes))


@given(walled_inputs(), st.data())
@settings(max_examples=100, deadline=None)
def test_a_settled_lane_keeps_its_count_and_the_last_node_settles_none(inputs, data):
    # settled at a checkpoint of m nodes: retired at a block start s <= m - 2,
    # so the count is final there, in every later block and in the reference;
    # a lane whose certificate starts at the last row, m - 1, stays open
    diag, off, mass, lams = inputs
    n = diag.shape[-1]
    sizes = sorted(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=6)) | {n})
    block_bytes = data.draw(st.sampled_from([8, 256, sturm._BLOCK_BYTES]))
    with mock.patch.object(sturm, "_BLOCK_BYTES", block_bytes):
        got, broke, settled = pass_at_each_scalar_width(diag, off, mass, lams, sizes)
    starts = sturm._dominance_starts(diag, off, mass, lams)
    with np.errstate(over="ignore"):
        want = [_reference_pass(diag[..., :m], off[..., :m - 1], mass[..., :m], lams)[0]
                for m in sizes]
    for k, m in enumerate(sizes):
        assert not (settled[k] & (starts >= m - 1)).any()
        final = settled[k] & ~broke[k]
        for later in range(k, len(sizes)):
            assert settled[later][final].all()
            assert np.array_equal(got[later][final], got[k][final])
            assert np.array_equal(want[later][final], got[k][final])


def _certificate_nodes(diag, off, mass, lams):
    """First node c >= start of every (row, lambda) lane with d_(c-1) >= |e_c|,
    from the per-node pivots (d_(-1) = inf, e_0 = 0); N where there is none."""
    n = diag.shape[-1]
    starts = sturm._dominance_starts(diag, off, mass, lams)
    e = np.concatenate([[0.0], off])
    cert = np.full(starts.shape, n)
    prev = np.full(starts.shape, np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(n):
            cert[(cert == n) & (starts <= j) & (prev >= abs(e[j]))] = j
            prev = (diag[:, j:j + 1] - lams * mass[j]) - e[j] * e[j] / prev
    return cert


@given(walled_inputs(), st.data())
@settings(max_examples=100, deadline=None)
def test_a_lane_is_settled_by_its_own_certificate_node(inputs, data):
    # settled at m nodes exactly when the certificate node is at most m - 2:
    # for every block size, and for a row counted alone or in its stack
    diag, off, mass, lams = inputs
    n = diag.shape[-1]
    sizes = sorted(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=3)))
    last = sizes[-1]
    cert = _certificate_nodes(diag[:, :last], off[:last - 1], mass[:last], lams)
    want = np.stack([cert <= m - 2 for m in sizes])
    for block_bytes in (1 << 17, 1 << 9, 1 << 6):
        with mock.patch.object(sturm, "_BLOCK_BYTES", block_bytes):
            assert np.array_equal(pass_at_each_scalar_width(diag, off, mass, lams, sizes)[2],
                                  want)
            for r, row in enumerate(diag):
                alone = pass_at_each_scalar_width(row, off, mass, lams, sizes)[2]
                assert np.array_equal(alone, want[:, r])


def test_a_lane_settles_at_a_checkpoint_whose_node_m_minus_2_precedes_the_one_before():
    # rows 1.. are dominant, so the lane starts at node 1; its pivots 0.3,
    # -1.28, 2.83 first reach |e| = 1 at c = 3, where a block from node 2
    # would double to 4.  The pass stops at node 3 on its way to checkpoint
    # 4, and checkpoint 5 must still see the lane settled (3 <= 5 - 2)
    diag = np.array([0.3] + [2.05] * 7)
    off, mass, lams = np.full(7, -1.0), np.ones(8), np.zeros(1)
    assert _certificate_nodes(diag[None], off, mass, lams).tolist() == [[3]]
    assert sturm._sturm_pass(diag, off, mass, lams, [4, 5])[2].tolist() == [[False], [True]]


def _deep_lane(n):
    """One lane (lambda = 0) that starts at node 30 and certifies at node 38.

    Rows 0..28 are decoupled with diag -1; row 29 has pivot 1 - 7 delta
    against |e_30| = 1, and rows 30.. are 2 + delta with e = -1, dominant by
    delta.  Each node past 30 lifts d/|e| by about delta, so d_(c-1) >= |e_c|
    first at c = 38, whatever n is."""
    delta = 2.0**-20
    diag = np.full(n, 2.0 + delta)
    diag[:30] = -1.0
    diag[29] = 1.0 - 7.0 * delta
    off = np.full(n - 1, -1.0)
    off[:29] = 0.0
    return diag, off, np.ones(n), np.zeros(1)


@pytest.mark.parametrize("n, settled", [(40, True), (39, False)], ids=["c=N-2", "c=N-1"])
def test_a_block_doubling_past_a_deep_start_stops_at_the_checkpoint_node_n_minus_2(n, settled):
    # the lane is due at its start node 30 but certifies only at c = 38; a
    # block from 30 would double to 60, past N, unless it ends at N - 2
    diag, off, mass, lams = _deep_lane(n)
    assert sturm._dominance_starts(diag, off, mass, lams).tolist() == [[30]]
    assert _certificate_nodes(diag[None], off, mass, lams).tolist() == [[38]]
    for block_bytes in (8, 256, sturm._BLOCK_BYTES):
        with mock.patch.object(sturm, "_BLOCK_BYTES", block_bytes):
            assert_matches_reference(diag, off, mass, lams)
            assert pass_at_each_scalar_width(diag, off, mass, lams)[2].tolist() == [settled]
            sizes = [1, 29, 30, 31, 37, n - 1, n]
            assert_checkpoints_match_reference(diag, off, mass, lams, sizes)
            got = pass_at_each_scalar_width(diag, off, mass, lams, sizes)[2]
            assert got[:, 0].tolist() == [38 <= m - 2 for m in sizes]


@given(walled_inputs())
@settings(max_examples=60, deadline=None)
def test_listing_on_walled_pencils_equals_bisection_on_the_reference_recurrence(inputs):
    diags, off, mass, lams = inputs
    pen = TridiagonalPencil(diag=diags[0], offdiag=off, mass=mass)
    got = eigenvalues_below(pen, float(lams[-1]), 1e-9)

    def reference_kernel(diag, off, mass, lams, sizes=None, floors=None):
        assert sizes is None     # listings and their re-counts count whole pencils
        with np.errstate(over="ignore"):
            counts, broke = _reference_pass(diag, off, mass, lams)
        return counts, broke, np.zeros_like(broke)

    with mock.patch.object(sturm, "_sturm_pass", reference_kernel):
        assert got == _reference_bisection(replace(pen), float(lams[-1]), 1e-9)


def test_a_margin_relative_to_lambda_would_retire_a_lane_before_its_zero_pivot():
    # A fine mesh: the stiffness k = 2^20 dwarfs lambda * mass.  At node 1,
    # diag - lambda mass = k + 2^-34 exactly, which is dominant (rad = k) but
    # rounds to k, so the pivot there is k - k^2/k = 0.  A margin of a few
    # ulps of lambda would certify nodes 0.. (key 1.0 > lambda); the margin
    # of a few ulps of |diag| + |lambda| mass + rad starts the lane at node 2.
    k, m = 2.0**20, 2.0**-20
    lam = 1.0 - 2.0**-14
    diag = np.array([k + 2.0**-20, k + 2.0**-20, 1.0])
    off, mass = np.array([-k, 0.0]), np.full(3, m)
    assert sturm._dominance_starts(diag, off, mass, [lam]).tolist() == [[2]]
    broke = assert_matches_reference(diag, off, mass, [lam])
    assert broke.tolist() == [True]
    got, broke = assert_checkpoints_match_reference(diag, off, mass, [lam], [1, 2, 3])
    assert broke[:, 0].tolist() == [False, True, True]


def test_a_zero_pivot_before_retirement_keeps_its_breakdown_bit():
    # lambda = 1 zeroes the pivot of node 2; nodes 3.. are strongly dominant,
    # so the lane retires soon after with its breakdown bit set
    n = 40
    diag = np.full(n, 10.0)
    diag[:3] = [3.0, 3.0, 1.0]
    off = np.zeros(n - 1)
    off[0] = -1.0
    lams = np.array([0.5, 1.0, 1.5])
    starts = sturm._dominance_starts(diag, off, np.ones(n), lams)
    assert starts.tolist() == [[0, 3, 3]]
    for block_bytes in (8, 24, sturm._BLOCK_BYTES):
        with mock.patch.object(sturm, "_BLOCK_BYTES", block_bytes):
            broke = assert_matches_reference(diag, off, np.ones(n), lams)
            assert broke.tolist() == [False, True, False]
            _, broke = assert_checkpoints_match_reference(diag, off, np.ones(n), lams,
                                                          [2, 3, 4, n])
            assert broke[:, 1].tolist() == [False, True, True, True]


def test_every_lane_retires_in_the_first_block():
    # lambda far below a constant potential: every row is dominant, so every
    # lane starts at node 0 and leaves the pass before its first pivot
    rng = np.random.default_rng(17)
    n, h = 500, 1e-3
    diags = 2.0 / h + rng.uniform(5.0, 9.0, (3, n)) * h
    off, mass = np.full(n - 1, -1.0 / h), np.full(n, h)
    lams = np.linspace(-3.0, 4.0, 8)
    assert not sturm._dominance_starts(diags, off, mass, lams).any()
    got, broke, settled = sturm._sturm_pass(diags, off, mass, lams, [1, 250, n])
    assert not got.any() and not broke.any()
    # retired at node 0: settled in every block but the one-node block
    assert settled[1:].all() and not settled[0].any()
    assert_checkpoints_match_reference(diags, off, mass, lams, [1, 250, n])
    # with no potential on the first three nodes, the lanes with lambda >= 0
    # start at node 3 and leave after one short block
    diags[:, :3] = 2.0 / h
    starts = sturm._dominance_starts(diags, off, mass, lams)
    assert (starts == np.where(lams < 0, 0, 3)).all()
    assert_checkpoints_match_reference(diags, off, mass, lams, [1, 3, 4, n])


def _locate_config(flux):
    """The `spectrum-locate` config: p = 1 on the circle, grids 1000,2000 on
    domains 8,16,32, lambda 0.5..6 (12 points), tol 1e-8."""
    circle = builtin_cross_section("circle", length=2 * math.pi)
    return ProblemConfig(
        geometry=EndGeometry(2, "1", 1.0), cross_section=circle,
        magnetic=MagneticData(flux=(flux,)),
        numerics=Numerics(grids=(1000, 2000), domains=(8.0, 16.0, 32.0),
                          lambda_grid=(0.5, 6.0, 12)))


def _locate_stack(flux):
    """The finest `spectrum-locate` stack: grid 2000 on domain 32 (h = 1/250),
    one row per mode below lambda = 6."""
    ops = assemble._mode_operators(_locate_config(flux), 6.0)
    return [m.name for m, _ in ops], discretize_stack([op for _, op in ops], 32.0,
                                                      cells_for(2000, 32.0, 8.0))[:3]


def test_the_certificate_is_not_vacuous_on_the_spectrum_locate_stack():
    names, (diags, off, mass) = _locate_stack("0.5")
    assert diags.shape == (4, 7999)
    lams = np.concatenate([np.linspace(0.0, 6.0, 61), [4.665218848500144]])
    starts = sturm._dominance_starts(diags, off, mass, lams)
    assert starts.max() < 0.1 * 7999, dict(zip(names, starts.max(axis=1)))
    # integral flux: the k = 0 channel sits at 1/4 and never walls, so only
    # the last row, the one with a single neighbour, is dominant at lambda = 1
    names, (diags, off, mass) = _locate_stack("0")
    row = names.index("m0")
    assert sturm._dominance_starts(diags[row], off, mass, [1.0]).tolist() == [[7998]]


def test_one_live_lane_never_takes_the_vector_path(monkeypatch):
    # mode m-1 of the `spectrum-locate` stack, just above its eigenvalue
    # 4.6652188: the lane walls at node 359 of 7999
    names, (diags, off, mass) = _locate_stack("0.5")
    assert names[0] == "m-1"
    lams = [4.67]
    want = pass_at_each_scalar_width(diags[:1], off, mass, lams)
    vector = mock.Mock(wraps=sturm._vector_block)
    monkeypatch.setattr(sturm, "_vector_block", vector)
    got = sturm._sturm_pass(diags[:1], off, mass, lams)
    assert vector.call_count == 0
    assert all(np.array_equal(x, y) for x, y in zip(got, want))
    assert got[0].tolist() == [[1]]


def test_the_spectrum_locate_passes_stop_for_retirement_a_few_times_each(monkeypatch):
    # two stacked counting passes (one per grid) and five multisection tree
    # passes, none for the row that counts nothing below the window top; a
    # block from node s runs to 2s at least, so each pass stops
    # O(log N) times for retirement (a block ending at every lane's start
    # node would make 342 blocks here, in 5,113 node steps)
    passes, stacked, trees = (mock.Mock(wraps=f) for f in (
        sturm._sturm_pass, sturm.count_below_stack, sturm.count_below_many))
    blocks = [mock.Mock(wraps=f) for f in (sturm._vector_block, sturm._scalar_block)]
    for name, m in zip(("_sturm_pass", "count_below_stack", "count_below_many",
                        "_vector_block", "_scalar_block"), (passes, stacked, trees, *blocks)):
        monkeypatch.setattr(sturm, name, m)
    report = assemble.global_counting(_locate_config("0.5"), with_eigenvalues=True)
    assert report.modes[0].eigenvalues == report.modes[1].eigenvalues == [4.665218848500144]
    assert (passes.call_count, stacked.call_count, trees.call_count) == (7, 2, 5)
    calls = [c.args[0] for m in blocks for c in m.call_args_list]
    assert len(calls) <= 60
    assert sum(len(a) for a in calls) <= 6400


# ---------------------------------------------------------------------------
# tail floors: a row is keyed only where a lane can start
# ---------------------------------------------------------------------------

# exponents of both signs; y^100 can put |diag| past 2^400 at p >= 1
EXPONENTS = [-3.0, -1.5, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0, 100.0]


@st.composite
def floored_stacks(draw):
    """Stacks at p < 1, p = 1 and p > 1, cut at Y0 >= 1, whose rows carry
    power terms with coefficients and exponents of both signs and share a
    bump of either sign.  At p > 1 the density y^-150 takes the mass below
    2^-400 from about y = 6.4 on (a domain of length T reaches y = e^T Y0)."""
    p = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]))
    y0 = draw(st.sampled_from([1.0, 1.5, 3.0]))
    density = draw(st.sampled_from([-2.0 * p, -1.0] + ([-150.0] if p > 1.0 else [0.0])))
    coefficient = st.floats(0.05, 5.0) | st.floats(-5.0, -0.05)
    terms = st.lists(st.tuples(coefficient, st.sampled_from(EXPONENTS)), max_size=3)
    bump = draw(st.none() | st.tuples(st.floats(y0, y0 + 10.0), st.floats(0.1, 3.0),
                                      st.sampled_from([-50.0, -0.05, 2.0, 50.0])))
    base = RadialOperator(density_exponent=density, stiffness_exponent=density + 2.0 * p,
                          p=p, y0=y0, bump=bump)
    rows = draw(st.lists(terms, min_size=1, max_size=3))
    return ([replace(base, potential_terms=tuple(t)) for t in rows],
            draw(st.floats(0.5, 3.0)), draw(st.integers(8, 200)))


def _full_keys(diags, off, mass):
    n = diags.shape[1]
    return np.stack([sturm._keys(d, sturm._row_radius(off, n), mass, sturm._in_range(mass))
                     for d in diags])


@given(floored_stacks(), st.sampled_from([1, 3, 16, sturm._TAIL_SPACING]), st.data())
@settings(max_examples=200, deadline=None)
def test_tail_floors_bound_the_keys_and_cut_no_lane_start(stack, spacing, data):
    ops, length, cells = stack
    with mock.patch.object(sturm, "_TAIL_SPACING", spacing):
        try:
            diags, off, mass, floors = discretize_stack(ops, length, cells)
        except (SturmError, ReduceError):   # a potential or weight past the float range
            assume(False)
        keys = _full_keys(diags, off, mass)
        # each floor is at most every key of its row from its boundary on; rows
        # with a key outside [2^-400, 2^400] there (key -inf) have a floor of -inf
        tail_min = np.minimum.accumulate(keys[:, ::-1], axis=1)[:, ::-1]
        assert (floors <= tail_min[:, ::spacing]).all()
        # lambdas on keys and an ulp either side, so targets straddle them
        finite = np.unique(keys[np.isfinite(keys)])
        picks = data.draw(st.lists(st.sampled_from(finite.tolist()), min_size=1, max_size=6)
                          if finite.size else st.just([]))
        lams = np.array(sorted({float(f(x)) for x in picks
                                for f in (lambda v: v, lambda v: np.nextafter(v, -np.inf),
                                          lambda v: np.nextafter(v, np.inf))} | {-1e300, 0.0}))
        want = sturm._dominance_starts(diags, off, mass, lams)
        assert np.array_equal(sturm._dominance_starts(diags, off, mass, lams, floors), want)
        # each lambda alone sets the top target, so every cut is tried
        for j, lam in enumerate(lams):
            got = sturm._dominance_starts(diags, off, mass, [lam], floors)
            assert np.array_equal(got[:, 0], want[:, j])


def test_a_weyl_zeta_pass_keys_rows_only_where_their_lanes_can_start(monkeypatch):
    # criterion 7 scaled down: p = 1/4 on the circle with V = y^(1/2), the
    # `weyl-zeta` mesh widths (0.02 and 0.01) on domains and a window ten
    # times shorter.  A pass keys each row up to the first tail boundary
    # past its deepest lane start: at least that start, at most one boundary
    # spacing more, and far from rows x N
    config = ProblemConfig(
        geometry=EndGeometry(2, "1/4", 1.0),
        cross_section=builtin_cross_section("circle", length=2 * math.pi),
        potential=RadialPotential(poly=((1.0, 0.5),)),
        numerics=Numerics(grids=(7000, 14000), domains=(140.0, 168.0),
                          lambda_grid=(2.0, 20.0, 16), lambda_scale="log"))
    passes, keyed = [], []
    # a kernel that keys its rows some other way counts no keyed node here
    keys, sturm_pass = getattr(sturm, "_keys", None), sturm._sturm_pass

    def counted_keys(diag, *args):
        keyed[-1] += len(diag)
        return keys(diag, *args)

    def counted_pass(*args):
        passes.append(args)
        keyed.append(0)
        return sturm_pass(*args)

    monkeypatch.setattr(sturm, "_keys", counted_keys, raising=False)
    monkeypatch.setattr(sturm, "_sturm_pass", counted_pass)
    start = time.perf_counter()
    report = assemble.global_counting(config.with_finest_grid())    # what `weyl` counts
    seconds = time.perf_counter() - start
    monkeypatch.undo()
    assert len(passes) == 1 and report.n_total[-1] > 0
    for (diag, off, mass, lams, sizes, *_), count in zip(passes, keyed):
        last = sizes[-1]
        deepest = sturm._dominance_starts(diag[:, :last], off[:last - 1], mass[:last],
                                          lams).max(axis=1)
        assert count >= deepest.sum()
        assert count <= deepest.sum() + len(diag) * sturm._TAIL_SPACING
        assert count < 0.5 * len(diag) * last
    assert seconds < 1.0


# ---------------------------------------------------------------------------
# one count function: listings and single counts key and re-count as stacks do
# ---------------------------------------------------------------------------

def _outcome(fn, *args):
    """fn(*args), or the message of the SturmError it raises."""
    try:
        return fn(*args)
    except SturmError as exc:
        return str(exc)


@given(floored_stacks(), st.sampled_from([1, 3, 16, sturm._TAIL_SPACING]), st.data())
@settings(max_examples=80, deadline=None)
def test_a_pencil_with_its_floors_counts_and_lists_as_without_them(stack, spacing, data):
    ops, length, cells = stack
    with mock.patch.object(sturm, "_TAIL_SPACING", spacing):
        try:
            diags, off, mass, floors = discretize_stack(ops, length, cells)
        except (SturmError, ReduceError):   # a potential or weight past the float range
            assume(False)
        keys = _full_keys(diags, off, mass)
        finite = np.unique(keys[np.isfinite(keys)])
        picks = data.draw(st.lists(st.sampled_from(finite.tolist()), min_size=1, max_size=4)
                          if finite.size else st.just([]))
        lams = np.array(sorted({float(f(x)) for x in picks
                                for f in (lambda v: v, lambda v: np.nextafter(v, -np.inf),
                                          lambda v: np.nextafter(v, np.inf))} | {0.0}))
        for diag, floor in zip(diags, floors):
            got, want = (TridiagonalPencil(diag, off, mass, floors=f) for f in (floor, None))
            assert np.array_equal(count_below_many(got, lams), count_below_many(want, lams))
            # each lambda alone sets the top target, so every cut is tried
            assert ([count_below(got, lam) for lam in lams]
                    == [count_below(want, lam) for lam in lams])
            # a tolerance relative to the window keeps wide windows off the level cap
            lam = data.draw(st.sampled_from(lams.tolist()))
            tol = 1e-6 * max(1.0, abs(lam), abs(gershgorin_lower(want)))
            assert (_outcome(eigenvalues_below, got, lam, tol)
                    == _outcome(eigenvalues_below, want, lam, tol))
            assert got.breakdowns == want.breakdowns


def test_a_zero_pivot_in_a_listing_pass_adds_one_breakdown_per_whole_pencil_recount(
        monkeypatch):
    # the tree of (0, 4) lands on the pivots 2, 1 and 3 of a diagonal pencil
    pen = TridiagonalPencil(diag=np.array([0.0, 1.0, 2.0, 3.0]), offdiag=np.zeros(3),
                            mass=np.ones(4), floors=np.full(1, -np.inf))
    recounts, passes = [], []
    recount, many = sturm._recount, sturm.count_below_many

    def counted_recount(diag, off, mass, lam):
        recounts.append((diag, off, mass))
        return recount(diag, off, mass, lam)

    def counted_many(pencil, lams):
        before, made = pencil.breakdowns, len(recounts)
        result = many(pencil, lams)
        passes.append((pencil.breakdowns - before, len(recounts) - made))
        return result

    monkeypatch.setattr(sturm, "_recount", counted_recount)
    monkeypatch.setattr(sturm, "count_below_many", counted_many)
    assert eigenvalues_below(pen, 4.0, 1e-8) == pytest.approx([0.0, 1.0, 2.0, 3.0], abs=1e-8)
    assert pen.breakdowns == len(recounts) == 3
    assert all(added == made for added, made in passes) and passes[0] == (3, 3)
    for diag, off, mass in recounts:
        assert (np.array_equal(diag, pen.diag) and np.array_equal(off, pen.offdiag)
                and np.array_equal(mass, pen.mass))


def test_listing_passes_key_rows_only_where_their_lanes_can_start(monkeypatch):
    # p = 1/4 on the circle with V = y^(1/2): listing N = 60 eigenvalues below
    # 12 takes 45 passes over three rows of 8,399 nodes, none of whose lanes
    # starts past node 5,409.  A pass keys its row up to the first tail
    # boundary past its deepest lane start (166,656 row-nodes in all), not
    # over all N nodes (377,955)
    config = ProblemConfig(
        geometry=EndGeometry(2, "1/4", 1.0),
        cross_section=builtin_cross_section("circle", length=2 * math.pi),
        potential=RadialPotential(poly=((1.0, 0.5),)),
        numerics=Numerics(grids=(3500, 7000), domains=(70.0, 84.0),
                          lambda_grid=(2.0, 12.0, 8)))
    listing, keyed, depth = [], [], [0]
    keys, many = sturm._keys, sturm.count_below_many

    def counted_keys(diag, *args):
        if depth[0]:
            keyed[-1] += len(diag)
        return keys(diag, *args)

    def counted_many(pencil, lams):
        listing.append((pencil, np.array(lams)))
        keyed.append(0)
        depth[0] += 1
        try:
            return many(pencil, lams)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(sturm, "_keys", counted_keys)
    monkeypatch.setattr(sturm, "count_below_many", counted_many)
    report = assemble.global_counting(config, with_eigenvalues=True)
    monkeypatch.undo()
    assert sum(len(r.eigenvalues) * r.mode.multiplicity for r in report.modes) == 60
    assert len(listing) == len(keyed) > 10
    for (pencil, lams), count in zip(listing, keyed):
        assert pencil.floors is not None
        deepest = int(sturm._dominance_starts(pencil.diag, pencil.offdiag, pencil.mass,
                                              lams).max())
        assert deepest <= count <= deepest + sturm._TAIL_SPACING
    assert sum(keyed) < 0.5 * sum(pencil.n for pencil, _ in listing)


def _references(name):
    """`module.function` of each top-level definition of src/cusplab whose
    body refers to `name`, by name or as an attribute."""
    package = pathlib.Path(sturm.__file__).resolve().parent
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(getattr(sub, "id", None) == name or getattr(sub, "attr", None) == name
                   for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))):
                found.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    return found


def test_one_count_function_makes_every_pass_and_every_recount():
    assert _references("_sturm_pass") == {"sturm._counts", "sturm._recount"}
    assert _references("_recount") == {"sturm._counts"}
