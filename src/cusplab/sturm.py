"""Discretization and spectral slicing for the radial operators.

A RadialOperator or CanonicalOperator is assembled into a symmetric
tridiagonal pencil (A, B) by P1 finite elements on a mesh that is uniform
in the stretched variable z (for p <= 1 the Liouville variable, for p > 1
the finite arc-length variable).  The mass matrix is lumped by default so
that the standard-form reduction stays tridiagonal and Sylvester inertia
is exact; a consistent-mass variant is available because the variational
one-sided convergence statements hold for it.

Eigenvalue counts come from the LDL^T inertia of A - lambda B (a Sturm
sequence) and eigenvalues from bisection on the counts.  Counts are
integers computed by exact sign tests, so reports are bit-stable across
runs.  One blocked, node-major kernel computes them all, bit-identical to
the per-node LDL^T recurrence (see `_sturm_pass`).

Grid numbers mean mesh *cells*; a grid g on the base domain T0 fixes the
mesh width h = T0/g, and larger domains keep h fixed by scaling the cell
count.  Refining g -> 2g and growing the domain then both produce nested
meshes, which is what makes the monotonicity checks exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .reduce import CanonicalOperator, RadialOperator, y_of_z, z_of_y

#: relative pivot-breakdown shift applied to lambda, as documented
BREAKDOWN_SHIFT = 1e-14

#: bisection sweeps allowed before `eigenvalues_below` gives up
MAX_BISECTION_SWEEPS = 200


class SturmError(ValueError):
    pass


@dataclass
class TridiagonalPencil:
    """Symmetric tridiagonal pencil (A, B) with positive (lumped) mass.

    diag/offdiag hold A (stiffness plus lumped potential), mass holds the
    diagonal of B; mass_offdiag is only set for the consistent-mass
    variant.  n is the interior point count and h the mesh width in the
    meshed variable.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    mass: np.ndarray
    h: float
    mass_offdiag: Optional[np.ndarray] = None
    breakdowns: int = 0

    def __post_init__(self):
        if np.any(self.mass <= 0):
            raise SturmError("mass matrix must be strictly positive")

    @property
    def n(self) -> int:
        return len(self.diag)


def _check_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        bad = int(np.argmax(~np.isfinite(np.asarray(arr).ravel())))
        raise SturmError(f"overflow while evaluating {name} (first bad entry {bad}); "
                         "shrink the domain or exponents")


def mesh_for(op, length: float, cells: int, mesh: str = "auto"):
    """Mesh nodes for one operator and domain length.

    Returns (t_nodes, y_nodes): t is the meshed variable (z for canonical
    and p <= 1 weighted operators, arc length for p > 1), y the radial
    coordinate (None for canonical operators).  `length` is the z-length
    for p <= 1; for p > 1 it truncates at Ymax = y0 * e^length.  With
    mesh="uniform-y" a weighted operator is meshed directly in y on
    [y0, y0 + length] (the cross-check mesh).
    """
    if cells < 4:
        raise SturmError("need at least 4 mesh cells (3 interior points)")
    if isinstance(op, CanonicalOperator):
        t = np.linspace(op.z0, op.z0 + length, cells + 1)
        return t, None
    if not isinstance(op, RadialOperator):
        raise SturmError(f"cannot mesh {type(op).__name__}")
    if mesh == "uniform-y":
        y = np.linspace(op.y0, op.y0 + length, cells + 1)
        return y, y
    p = 0.5 * (op.stiffness_exponent - op.density_exponent)
    if p <= 1.0:
        z0 = float(z_of_y(op.y0, p, op.y0))
        t = np.linspace(z0, z0 + length, cells + 1)
        y = y_of_z(t, p, op.y0)
    else:
        ymax = op.y0 * math.exp(length)
        zmax = float(z_of_y(ymax, p, op.y0))
        t = np.linspace(0.0, zmax, cells + 1)
        y = y_of_z(t, p, op.y0)
        y[0], y[-1] = op.y0, ymax
    return t, y


def discretize(op, length: float, cells: int, mass: str = "lumped",
               mesh: str = "auto") -> TridiagonalPencil:
    """P1 assembly of the operator's quadratic form, Dirichlet both ends.

    Stiffness weights are evaluated at cell midpoints, the potential and
    the (lumped) mass at the nodes.  mass="consistent" assembles the exact
    P1 mass matrix instead (tridiagonal B).
    """
    if mass not in ("lumped", "consistent"):
        raise SturmError("mass must be 'lumped' or 'consistent'")
    t, y = mesh_for(op, length, cells, mesh)
    h = np.diff(t)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(op, CanonicalOperator):
            w1_mid = np.ones(len(t) - 1)
            w0_node = np.ones(len(t))
            w0_mid = w1_mid
            q_node = op.w(t)
            _check_finite("the normal-form potential", q_node)
        else:
            x = y
            xmid = 0.5 * (x[:-1] + x[1:])
            hx = np.diff(x)
            w1_mid = op.w1(xmid)
            w0_node = op.w0(x)
            w0_mid = op.w0(xmid)
            q_node = op.q(x)
            _check_finite("the stiffness weight", w1_mid)
            _check_finite("the density weight", w0_node)
            _check_finite("the potential", q_node)
            # assembly happens in the radial coordinate
            t = x
            h = hx
    lump = 0.5 * (h[:-1] + h[1:])
    k = w1_mid / h
    diag = k[:-1] + k[1:] + q_node[1:-1] * w0_node[1:-1] * lump
    off = -k[1:-1]
    _check_finite("the assembled stiffness", diag)
    if mass == "lumped":
        b = w0_node[1:-1] * lump
        pencil = TridiagonalPencil(diag=diag, offdiag=off, mass=b,
                                   h=float(h[0]))
    else:
        b = w0_mid[:-1] * h[:-1] / 3.0 + w0_mid[1:] * h[1:] / 3.0
        boff = w0_mid[1:-1] * h[1:-1] / 6.0
        pencil = TridiagonalPencil(diag=diag, offdiag=off, mass=b,
                                   h=float(h[0]), mass_offdiag=boff)
    if pencil.n < 3:
        raise SturmError("need at least 3 interior points")
    return pencil


# ---------------------------------------------------------------------------
# inertia counts
# ---------------------------------------------------------------------------

#: bytes of one block array in `_sturm_pass` (sized for cache and peak RSS)
_BLOCK_BYTES = 1 << 17


def _sturm_pass(diag, off, mass, mass_off, lams):
    """Vectorized LDL^T sign count of A - lambda B for a batch of lambdas.

    diag/mass: (..., N); off (and mass_off): (..., N-1) per row or shared;
    lams: (L,).  Returns (counts (..., L) int array, breakdown mask (..., L)).

    Node-major and blocked: inputs are viewed as (N, rows, 1) against lams
    (W = rows * L lanes; off padded so node i holds off[i-1]).  Per block,
    a = diag - lambda mass and e*e are formed whole; per node only one
    divide and one subtract on W lanes run, d_i = a_i - (e*e)_i / d_{i-1}:
    the IEEE operations of the per-node recurrence in its order, so counts
    are bit-identical to it.  Every caller discards the count of a lane
    with a zero pivot, so no tiny replaces the zero; that lane's inf/nan
    warnings are silenced.
    """
    diag = np.asarray(diag, dtype=float)
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    batch, n = diag.shape[:-1], diag.shape[-1]
    width = math.prod(batch) * lams.size
    block = max(1, _BLOCK_BYTES // (8 * max(1, width)))

    def node_major(x):
        x = np.asarray(x, dtype=float)
        return x.reshape(math.prod(x.shape[:-1]), x.shape[-1]).T[:, :, None]

    diag, mass = node_major(diag), node_major(mass)
    off = node_major(np.insert(off, 0, 0.0, axis=-1))
    if mass_off is not None:
        mass_off = node_major(np.insert(mass_off, 0, 0.0, axis=-1))
    counts = np.zeros(width, dtype=np.int64)
    broke = np.zeros(width, dtype=bool)
    tmp = np.empty(width)
    divide, subtract = np.divide, np.subtract
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s in range(0, n, block):
            a = diag[s:s + block] - lams * mass[s:s + block]
            e = off[s:s + block]
            if mass_off is not None:
                e = e - lams * mass_off[s:s + block]
            e2 = np.broadcast_to(e * e, a.shape).reshape(len(a), -1)
            a = a.reshape(len(a), -1)
            first = s == 0
            if first:
                prev = a[0]
            for a_j, e2_j in zip(a[first:], e2[first:]):
                divide(e2_j, prev, tmp)
                subtract(a_j, tmp, a_j)
                prev = a_j
            counts += (a < 0).sum(0)
            broke |= (a == 0).any(0)
    return counts.reshape(batch + (-1,)), broke.reshape(batch + (-1,))


def _scale(pencil: TridiagonalPencil, lam: float) -> float:
    s = float(np.max(np.abs(pencil.diag)))
    if len(pencil.offdiag):
        s += 2.0 * float(np.max(np.abs(pencil.offdiag)))
    s += abs(lam) * float(np.max(pencil.mass))
    return max(s, 1.0)


def count_below(pencil: TridiagonalPencil, lam: float) -> int:
    """Number of generalized eigenvalues strictly below lambda.

    Exact for the discrete pencil by Sylvester inertia.  An exact pivot hit
    (lambda on a Ritz value of a leading minor) is resolved by re-counting
    at lambda shifted down by 1e-14 * scale; the shift is recorded on the
    pencil's breakdown counter.  A second hit at the shifted lambda raises
    SturmError rather than return a count that may be wrong.
    """
    counts = count_below_many(pencil, np.array([lam]))
    return int(counts[0])


def count_below_many(pencil: TridiagonalPencil, lams) -> np.ndarray:
    lams = np.asarray(lams, dtype=float)
    counts, broke = _sturm_pass(pencil.diag, pencil.offdiag, pencil.mass,
                                pencil.mass_offdiag, lams)
    for j in np.nonzero(broke)[0]:
        lam = float(lams[j])
        shifted = lam - BREAKDOWN_SHIFT * _scale(pencil, lam)
        c, again = _sturm_pass(pencil.diag, pencil.offdiag, pencil.mass,
                               pencil.mass_offdiag, np.array([shifted]))
        pencil.breakdowns += 1
        if again[0]:
            raise SturmError(f"pivot breakdown at lambda = {lam!r} persists at the "
                             f"shifted lambda = {shifted!r}")
        counts[j] = c[0]
    return counts


def count_below_stack(diags, offs, masses, lams) -> np.ndarray:
    """Counts for a stack of pencils sharing one mesh: (M, L) integers.

    Used by the mode loop: all modes of one (grid, domain) combination have
    the same mesh, so the Sturm recurrence runs once over an (M, L) block.
    Exact pivot hits fall back to the per-pencil path.
    """
    counts, broke = _sturm_pass(diags, offs, masses, None, lams)
    if broke.any():
        offs = np.broadcast_to(offs, diags.shape[:-1] + np.shape(offs)[-1:])
        masses = np.broadcast_to(masses, diags.shape)
        for i, j in zip(*np.nonzero(broke)):
            pencil = TridiagonalPencil(diag=diags[i], offdiag=offs[i],
                                       mass=masses[i], h=1.0)
            counts[i, j] = count_below(pencil, float(lams[j]))
    return counts


def gershgorin_lower(pencil: TridiagonalPencil) -> float:
    """Certified lower bound for the generalized spectrum."""
    n = pencil.n
    radius = np.zeros(n)
    if n > 1:
        radius[:-1] += np.abs(pencil.offdiag)
        radius[1:] += np.abs(pencil.offdiag)
    if pencil.mass_offdiag is not None:
        bmin = np.min(pencil.mass) - 2.0 * np.max(np.abs(pencil.mass_offdiag))
        if bmin <= 0:
            bmin = np.min(pencil.mass) * 0.1
        bmax = np.max(pencil.mass) + 2.0 * np.max(np.abs(pencil.mass_offdiag))
    else:
        bmin = np.min(pencil.mass)
        bmax = np.max(pencil.mass)
    amin = float(np.min(pencil.diag - radius))
    return amin / bmax if amin >= 0 else amin / bmin


def eigenvalues_below(pencil: TridiagonalPencil, lam: float, tol: float) -> List[float]:
    """All generalized eigenvalues < lambda, each located within +-tol.

    Parallel bisection on the inertia count: every eigenvalue index keeps
    its own bracket [lo_j, hi_j] with count(lo_j) <= j < count(hi_j), and
    one vectorized Sturm pass refines all brackets per sweep.  Clusters
    narrower than tol come out as repeated values (multiplicity = count
    difference).  The schedule is deterministic.
    """
    if tol <= 0:
        raise SturmError("tolerance must be > 0")
    k = count_below(pencil, lam)
    if k == 0:
        return []
    idx = np.arange(k)
    lo = np.full(k, gershgorin_lower(pencil))
    hi = np.full(k, float(lam))
    it = 0
    while float(np.max(hi - lo)) > tol:
        it += 1
        if it > MAX_BISECTION_SWEEPS:
            j = int(np.argmax(hi - lo))
            raise SturmError(
                f"bisection iteration cap hit for eigenvalue {j}: "
                f"bracket [{lo[j]}, {hi[j]}]")
        mid = 0.5 * (lo + hi)
        counts = count_below_many(pencil, mid)
        if np.any(np.diff(counts[np.argsort(mid, kind="stable")]) < 0):
            raise SturmError("internal error: counts decreased in lambda in a sweep")
        take_lo = counts <= idx
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    return [float(v) for v in 0.5 * (lo + hi)]


# ---------------------------------------------------------------------------
# extrapolation and mesh scaling
# ---------------------------------------------------------------------------

def richardson(values: Sequence[float], hs: Sequence[float]) -> float:
    """Second-order Richardson extrapolation from the two finest grids."""
    if len(values) < 2:
        return float(values[-1])
    (hc, hf), (vc, vf) = hs[-2:], values[-2:]
    r = hc / hf
    return float((r * r * vf - vc) / (r * r - 1.0))


def observed_order(values: Sequence[float], hs: Sequence[float]) -> Optional[float]:
    """Convergence order estimated from the last three grids."""
    if len(values) < 3:
        return None
    v1, v2, v3 = values[-3:]
    h1, h2, h3 = hs[-3:]
    num, den = v1 - v2, v2 - v3
    if den == 0 or num == 0 or num / den <= 0:
        return None
    return float(math.log(num / den) / math.log(h2 / h3))


def cells_for(grid: int, domain: float, base_domain: float) -> int:
    """Cells for a domain at fixed mesh width h = base_domain/grid."""
    return max(4, int(round(grid * domain / base_domain)))

