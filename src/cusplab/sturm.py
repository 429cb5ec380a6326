"""Discretization and spectral slicing for the radial operators.

A `reduce.RadialOperator` is assembled into a symmetric tridiagonal
pencil (A, B) by P1 finite elements on a mesh that is uniform in the
stretched variable z (for p <= 1 the Liouville variable, for p > 1 the
finite arc-length variable).  For p <= 1 this is where the operator's
normal form is taken: it is assembled in z with unit weights and the
potential of `reduce.liouville_transform`; for p > 1 it is assembled in y
with its power weights.  The mass matrix is lumped, so the standard-form
reduction stays tridiagonal and Sylvester inertia is exact.
The modes of one config differ only in their potential terms, so
`discretize_stack` builds the mesh, weights, lumped mass and each power
of y once and adds one diagonal row per distinct operator; `discretize`
is its one-operator case.  Operators carry their config's p, so the mesh
is bit for bit the one `reduce` certified the mode cut on.

Eigenvalue counts come from the LDL^T inertia of A - lambda B (a Sturm
sequence) and eigenvalues from bisection on the counts.  Counts are
integers computed by exact sign tests, so reports are bit-stable across
runs.  One blocked, node-major kernel computes them all, bit-identical to
the per-node LDL^T recurrence (see `_sturm_pass`); a block of a few lanes
runs that recurrence on Python floats, a wide one on numpy rows, with the
same IEEE operations in the same order.  A (pencil row, lambda) lane
leaves the pass once the rest of its pencil is diagonally dominant,
diag - lambda mass - rad > a few ulps of |diag| + |lambda| mass + rad with
rad the Gershgorin radius, and its last pivot is at least the next
off-diagonal: then no later pivot is negative or zero, so its count and
breakdown bit are already final and stay bit-identical.  Past a mode's
potential wall no eigenvalue can appear, and that is where most of the
node x lane work lay.  Each lane's start node comes from one dominance key
per row node (`_dominance_starts`).  A row's key is its potential up to a
few ulps of its scale, so `discretize_stack` also returns a lambda-free
floor of each row's keys on every tail [J, n), J a multiple of
_TAIL_SPACING: the least value of its power terms over the tail's y range,
each at an end since a y^b is monotone (`model.potential_bounds`), plus a
negative bump where it reaches the tail, less a rounding margin.  A
pass keys a row only up to the first J whose floor beats every lane's
target, so keying costs about the rows' deepest lane starts, not rows x N
nodes; a `TridiagonalPencil` carries its row's floors, so listings key by
the same rule.  Blocks double, so a pass stops O(log N) times to retire
lanes, each by twice its certificate node.  A wider pass costs
little more than a narrow one, so bisection runs as a multisection: each
pass counts at several levels of every bracket's bisection tree at once,
and the listing stays bit-identical to one-level-per-pass bisection.
Every count is one call of `_counts`: a pass, then for each lane that hits
an exact zero pivot one more (`_recount`) at lambda shifted down by
BREAKDOWN_SHIFT times the scale of the leading block it broke in.

Grid numbers mean mesh *cells*; a grid g on the base domain T0 fixes the
mesh width h = T0/g, and larger domains keep h fixed by scaling the cell
count (`reduce.cells_for`).  For p <= 1 the nodes are z0 + h*k
(`reduce.mesh_for`), so two domains whose widths T/cells are the same
double nest by construction: the shorter pencil is, bit for bit, the
leading block of the longer one.  The negative pivots among the first n
LDL^T pivots count the eigenvalues of that n x n block (the Sturm sequence
property), so one pass over the longest pencil gives every nested domain's
counts at checkpoints (`count_below_stack(sizes=...)`).  For p > 1 the
mesh spans [0, zmax] with zmax depending on e^T, so no two domains nest.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from . import reduce as red
from .model import potential_bounds, potential_values

#: relative pivot-breakdown shift applied to lambda, as documented
BREAKDOWN_SHIFT = 1e-14

#: bisection levels allowed before `eigenvalues_below` gives up
MAX_BISECTION_SWEEPS = 200


class SturmError(ValueError):
    pass


@dataclass
class TridiagonalPencil:
    """Symmetric tridiagonal pencil (A, B) with positive lumped mass.

    diag/offdiag hold A (stiffness plus lumped potential), mass holds the
    diagonal of B, which is diagonal.  n is the interior point count.
    floors, the row's tail floors from `discretize_stack`, only saves work.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    mass: np.ndarray
    breakdowns: int = 0
    floors: Optional[np.ndarray] = None

    def __post_init__(self):
        if np.any(self.mass <= 0):
            raise SturmError("mass matrix must be strictly positive")

    @property
    def n(self) -> int:
        return self.diag.shape[-1]


def _check_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        bad = int(np.argmax(~np.isfinite(np.asarray(arr).ravel())))
        raise SturmError(f"overflow while evaluating {name} (first bad entry {bad}); "
                         "shrink the domain or exponents")


def discretize_stack(ops, length: float, cells: int):
    """P1 assembly of operators that differ only in their potential terms.

    Returns (diags (M, n), offdiag, mass, floors (M, K)): row m is the
    diagonal of ops[m]'s pencil; the mesh (`reduce.mesh_for`), stiffness
    and lumped mass are built once and shared.  Dirichlet both ends;
    stiffness weights are evaluated at cell midpoints, the potential and
    the mass at the nodes.  At p <= 1 the operators are assembled in z with
    unit weights and the terms of their normal forms
    (`reduce.liouville_transform`, which refuses weights that disagree with
    p), at p > 1 in y with their power weights.  Operators that differ in
    anything but `potential_terms` are refused.

    Each distinct power y^b and the shared bump are evaluated once per
    stack, at the interior nodes, and so is each product a y^b that more
    than one row holds; `model.potential_values` sums them in its term
    order straight into each row, and the row is assembled in place, so a
    row is bit for bit the one its potential alone would give.  The
    potential at the two end nodes enters no row but is evaluated too: a
    potential that is not finite at any node is refused by
    `reduce.domain_end` when the domain ends past the largest float
    radius, else as an overflow naming the first bad node.

    floors[m, k] bounds row m's dominance key (`_dominance_starts`) from
    below on the rows [k _TAIL_SPACING, n), for every lambda; see
    `_tail_floors`.
    """
    op = ops[0]
    if cells < 4:
        raise SturmError("need at least 4 mesh cells (3 interior points)")
    normal = op.p <= 1.0
    y, mass, lump, density, stiffness, off = _mesh(ops, length, cells)
    inner, ends = y[1:-1], y[[0, -1]]
    row_terms = [red.liouville_transform(o) if normal else o.potential_terms for o in ops]
    # each power of y, each product two rows share and the bump, once per stack
    at_inner, at_ends = _shared_products(inner, row_terms), {}
    diags = np.empty((len(ops), len(inner)))
    for row, o, terms in zip(diags, ops, row_terms):
        # row = stiffness + q w0 lump, the potential summed into the row itself
        with np.errstate(over="ignore", invalid="ignore"):
            potential_values(inner, terms, o.bump, row, at_inner)
            at_end = potential_values(ends, terms, o.bump, shared=at_ends)
            if density is not None:
                row *= density
            row *= lump
            row += stiffness
        if not (np.all(np.isfinite(row)) and np.all(np.isfinite(at_end))):
            _refuse(o, length, y, terms, row)
    return diags, off, mass, _tail_floors(inner, stiffness, mass, off, row_terms, op.bump)


def _mesh(ops, length: float, cells: int):
    """The mesh and weights that the pencils of `ops` share:
    (y, mass, lump, density, stiffness, off).  density is the weight w0 at
    the interior nodes, None for the unit weights of p <= 1, where the
    mass is the lump itself; the temporaries die here, before any row is
    assembled."""
    op = ops[0]
    t, y = red.mesh_for(op.p, op.y0, length, cells)
    if any(replace(o, potential_terms=op.potential_terms) != op for o in ops[1:]):
        raise SturmError("stacked operators may differ only in their potential terms")
    normal = op.p <= 1.0
    x = t if normal else y
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = np.diff(x)
        if normal:      # unit weights: k = 1/h and mass = lump, with no weight arrays
            k, density = 1.0 / h, None
        else:
            w1_mid = (0.5 * (x[:-1] + x[1:])) ** op.stiffness_exponent
            w0 = x ** op.density_exponent
            _check_finite("the stiffness weight", w1_mid)
            _check_finite("the density weight", w0)
            # nodes that round together leave h = 0 and k = inf, both refused below
            k, density = w1_mid / h, w0[1:-1]
    lump = 0.5 * (h[:-1] + h[1:])
    mass = lump if normal else density * lump
    if np.any(mass <= 0):
        raise SturmError("mass matrix must be strictly positive")
    return y, mass, lump, density, k[:-1] + k[1:], -k[1:-1]


def _shared_products(inner, row_terms) -> dict:
    """A `model.potential_values` cache for the rows' terms at the nodes
    `inner`: each product a y^b that the rows hold more than once, and a
    power y^b only where a product held once needs it too."""
    uses = Counter(term for terms in row_terms for term in terms)
    single = {b for (a, b), n in uses.items() if n == 1}
    shared = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for (a, b), n in uses.items():
            if n > 1:
                if b in single and b not in shared:
                    shared[b] = inner**b
                shared[a, b] = a * (shared[b] if b in shared else inner**b)
    return shared


def _refuse(op, length, y, terms, row):
    """Raise the error of op's row that is not finite: `reduce.domain_end`'s
    when the potential (`terms`, at the nodes y) is not finite at some node
    and the domain ends past the largest float radius, else an overflow
    naming the potential's first bad node or, where the potential is
    finite, the assembled row's."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = potential_values(y, terms, op.bump)
    if not np.all(np.isfinite(q)):
        red.domain_end(op.p, op.y0, length)
        _check_finite("the normal-form potential" if op.p <= 1.0 else "the potential", q)
    _check_finite("the assembled stiffness", row)


#: nodes between the boundaries J at which `discretize_stack` bounds each
#: row's dominance keys on the rows [J, n).  A row is keyed up to the first
#: boundary whose floor beats every lane's target, so up to about this many
#: nodes past its deepest lane start (keying costs about 13 ns a node), and
#: its floors cost a few ufunc calls per power term on n / _TAIL_SPACING
#: entries.  On the 10-row `weyl-zeta` stack of 168k nodes (657 boundaries)
#: that is at most 2,560 extra keyed nodes, about 0.03 ms, against floors of
#: about 0.05 ms a row after 0.6 ms of mesh-wide reductions, both far below
#: the 14 ms that keying its rows in full took.
_TAIL_SPACING = 256

#: relative rounding margin of a tail floor, per potential term.  In exact
#: arithmetic the key of a row j is its potential q_j less 8 ulps of
#: (|diag_j| + rad_j) / mass_j <= 2 stiffness_j / mass_j + |q_j|.  In
#: floating point the assembly's products and sums and the key's subtraction
#: and division add a few ulps of that scale, each power y^b at a node and
#: at a tail end may be off by up to 4 ulps, and the products and the sums
#: of the row's terms and of the floor's add a few ulps of sum |a y^b| + |h|.
#: All of it stays below (20 len(terms) + 50) 2^-53 (2 max(stiffness / mass)
#: + sum |a y^b| + |h|), which 2^-40 (len(terms) + 1) of the same scale
#: exceeds more than a hundredfold.
_FLOOR_MARGIN = 2.0**-40


def _tail_floors(inner, stiffness, mass, off, row_terms, bump) -> np.ndarray:
    """Per row of the stack (its potential terms in `row_terms`, the bump
    shared), a lower bound of its dominance key on the rows [J, n) at every
    boundary J = k _TAIL_SPACING, for every lambda: the potential's floor
    over the least and largest y of those rows (`model.potential_bounds`)
    less the rounding margin, and -inf where a key may leave the range
    `_keys` certifies."""
    bounds = np.arange(0, len(inner), _TAIL_SPACING)
    lo = np.minimum.accumulate(np.minimum.reduceat(inner, bounds)[::-1])[::-1]
    hi = np.maximum.accumulate(np.maximum.reduceat(inner, bounds)[::-1])[::-1]
    mass_top = float(np.max(mass))
    # every key is in range where the mass is, rad >= min |off| (each row has
    # a neighbour) is at least 2^-400, and 2 stiffness + |q| mass, which bounds
    # |diag| + rad up to a few ulps, is at most 2^399
    mesh_ok = (_in_range(np.array([np.min(mass), mass_top])).all()
               and np.min(np.abs(off)) >= 2.0**-400)
    room = 2.0**399 - 2.0 * float(np.max(stiffness)) if mesh_ok else -math.inf
    floors = np.empty((len(row_terms), len(bounds)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        reach = 2.0 * float(np.max(stiffness / mass))     # bounds 2 stiffness_j / mass_j
        for floor, terms in zip(floors, row_terms):
            low, size = potential_bounds(lo, hi, terms, bump)
            floor[:] = np.where(size * mass_top <= room,
                                low - _FLOOR_MARGIN * (len(terms) + 1) * (reach + size),
                                -math.inf)
    return floors


def discretize(op, length: float, cells: int) -> TridiagonalPencil:
    """The pencil of one operator, with its tail floors: a one-row `discretize_stack`."""
    (diag,), off, mass, (floors,) = discretize_stack([op], length, cells)
    return TridiagonalPencil(diag=diag, offdiag=off, mass=mass, floors=floors)


# ---------------------------------------------------------------------------
# inertia counts
# ---------------------------------------------------------------------------

#: bytes of one block array in `_sturm_pass` (sized for cache and peak RSS)
_BLOCK_BYTES = 1 << 17

#: live lanes up to which a block runs on Python floats (`_scalar_block`)
_SCALAR_LANES = 8


def _row_radius(off, n: int) -> np.ndarray:
    """Gershgorin radius |e_(j-1)| + |e_j| of each of the first n rows of a
    pencil with off-diagonal `off`, which holds at least n - 1 entries."""
    e = np.abs(off[:n])
    radius = np.zeros(n)
    radius[:len(e)] += e
    radius[1:] += e[:n - 1]
    return radius


def _rows(x) -> np.ndarray:
    """x as (rows, nodes): a shared vector is one row."""
    x = np.asarray(x, dtype=float)
    return x.reshape(math.prod(x.shape[:-1]), x.shape[-1])


#: relative dominance margin of `_keys`: 8 ulps of 1
_KEY_EPS = 8 * np.finfo(float).eps


def _in_range(x) -> np.ndarray:
    """Where x lies in [2^-400, 2^400], the range a dominance key certifies in."""
    return (x >= 2.0**-400) & (x <= 2.0**400)


def _keys(diag, rad, mass, mass_ok) -> np.ndarray:
    """Dominance key (diag - rad - eps (|diag| + rad)) / mass of each row,
    -inf where the row's scale |diag| + rad or its mass (mass_ok false)
    leaves [2^-400, 2^400]; see `_dominance_starts`."""
    scale = np.abs(diag) + rad
    with np.errstate(over="ignore", invalid="ignore"):
        key = (diag - rad - _KEY_EPS * scale) / mass
    key[~(_in_range(scale) & mass_ok)] = -np.inf
    return key


def _dominance_starts(diag, off, mass, lams, floors=None) -> np.ndarray:
    """First node of permanent dominance of every (row, lambda) lane.

    diag, off, mass as in `_sturm_pass`; returns (rows, L) node indices.
    Lane (r, lambda) starts at the least i such that every row j >= i of
    A_r - lambda B_r is dominant with a margin,

        diag_j - lambda mass_j - rad_j > eps (|diag_j| + |lambda| mass_j + rad_j),

    with rad_j = |e_j| + |e_(j+1)| and eps = 8 ulps of 1; it is N where no
    such i exists.  The test is rearranged per row into key_j > lambda +
    eps |lambda| with key_j = (diag_j - rad_j - eps (|diag_j| + rad_j)) /
    mass_j (`_keys`), so a lane starts at 1 + the last node whose key is at
    or below its target, or 0: one reverse cumulative minimum of the keys
    and one searchsorted give every lane's start, row by row.  Rows whose
    scale |diag_j| + rad_j or mass leaves [2^-400, 2^400] never certify, so
    no underflow or overflow can exceed the margin's rounding bound.

    floors, from `discretize_stack`, bounds each row's keys from below on
    the rows [k _TAIL_SPACING, N) at every k.  A row is then keyed only up
    to the first such boundary whose floor exceeds the top target: every
    key past it is above every target, so no lane can start later, and the
    starts are those of the full keys bit for bit.
    """
    diag, off, mass = _rows(diag), _rows(off), _rows(mass)
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    rows, n = diag.shape
    with np.errstate(over="ignore", invalid="ignore"):
        target = lams + _KEY_EPS * np.abs(lams)
    cuts = np.full(rows, n)
    if floors is not None and target.size:
        above = _rows(floors) > np.max(target)     # a nan target cuts no row
        cuts = np.minimum(np.where(above.any(axis=1), np.argmax(above, axis=1) * _TAIL_SPACING,
                                   n), n)
    starts = np.empty((rows, lams.size), dtype=np.int64)
    for r, cut in enumerate(cuts.tolist()):
        m = mass[r % len(mass), :cut]     # a shared off or mass row is one row
        key = _keys(diag[r, :cut], _row_radius(off[r % len(off)], cut), m, _in_range(m))
        suffix_min = np.minimum.accumulate(key[::-1])[::-1]
        starts[r] = np.searchsorted(suffix_min, target, side="right")
    return starts


def _vector_block(a, e2, prev):
    """Pivots d_j = a_j - e2_j / d_(j-1) of one block, written over `a` in place.

    a, e2: (nodes, lanes); prev: (lanes,) pivots of the node before the
    block.  Returns (negative-pivot counts, zero-pivot mask, last pivots).
    """
    divide, subtract = np.divide, np.subtract
    tmp = np.empty(a.shape[1])
    for a_j, e2_j in zip(a, e2):
        divide(e2_j, prev, tmp)
        subtract(a_j, tmp, a_j)
        prev = a_j
    return (a < 0).sum(0), (a == 0).any(0), prev


def _scalar_block(a, e2, prev):
    """`_vector_block` lane by lane on Python floats, leaving `a` as it is;
    e2 may be one column that every lane shares.

    Raises ZeroDivisionError when it would divide by a zero pivot, the
    carried one included, so only a last pivot can be zero when it returns.
    """
    negative, last = [], []
    e2_cols = e2.T.tolist()
    if len(e2_cols) == 1:   # one off row: its floats are made once, not once per lane
        e2_cols = e2_cols * a.shape[1]
    for d, a_col, e2_col in zip(prev.tolist(), a.T.tolist(), e2_cols):
        neg = 0
        for a_j, e2_j in zip(a_col, e2_col):
            d = a_j - e2_j / d
            if d < 0.0:
                neg += 1
        negative.append(neg)
        last.append(d)
    last = np.array(last)
    return negative, last == 0, last


def _sturm_pass(diag, off, mass, lams, sizes=None, floors=None):
    """Blocked LDL^T sign count of A - lambda B for a batch of lambdas.

    diag/mass: (..., N); off: (..., N-1) per row or shared; lams: (L,).
    Returns (counts (..., L) int array, breakdown mask (..., L), settled
    mask (..., L)).  A lane is settled when it retired (below) at a block
    start s <= N - 2: its count is final and the pencil past s walls it.
    The last row has one neighbour only, so it is dominant at nearly every
    lambda, and a lane that retires there alone is open.  The settled bit
    depends on the lane alone (see Retirement).

    `floors`, the tail floors of the pencils' `discretize_stack`, lets
    `_dominance_starts` key each row only where a lane can start; the
    starts, and so every result, are the same without them.

    With `sizes`, increasing checkpoints in 1..N, all three come back with
    a leading (S,) axis: entry s holds them for the leading sizes[s] x
    sizes[s] block, with N = sizes[s] in the settled rule.  The pivots of a
    leading block are the first pivots of the whole pencil, so its
    negative-pivot count is the running count at that node (the Sturm
    sequence property); the pass ends at the last checkpoint.

    Node-major and blocked over the (row, lambda) lanes still live.  Per
    block, a = diag - lambda mass and e*e are gathered for those lanes and
    formed whole; per node only one divide and one subtract run,
    d_i = a_i - (e*e)_i / d_(i-1) with d_(-1) = inf: the IEEE operations of
    the per-node recurrence in its order, so counts are bit-identical to it.
    Blocks end at every checkpoint, where the counts and masks are copied
    out, and two nodes before it.  Callers discard the count of a lane with
    a zero pivot, so no tiny replaces the zero; its inf/nan warnings are off.

    Scalar blocks.  A numpy node step costs two ufunc dispatches whatever
    its width, and since lanes retire most steps of a pass carry a few
    lanes only.  A block with at most _SCALAR_LANES live lanes therefore
    runs each lane as d = a_j - e2_j / d on Python floats, over `.tolist()`
    columns of the same gathered a and e*e (`_scalar_block`).  Python's
    float divide and subtract are the same correctly rounded IEEE
    operations as numpy's, applied to the same doubles in the same order,
    and the counts (d < 0), breakdown bits (d == 0) and the carried pivot
    come out bit-identical; the block schedule does not change, so neither
    does the settled mask.  They part only at a zero pivot (-0.0
    included): Python raises ZeroDivisionError at the next node where
    numpy carries +-inf or nan on, and the block is then re-run on numpy
    rows (`_vector_block`).  An overflowing quotient gives +-inf on both,
    as CPython's float division raises only on a zero divisor, and a nan
    pivot carried into a block stays nan on both.

    Retirement.  A lane leaves the pass at a block start s once s is at
    least its `_dominance_starts` node (every row j >= s of the last
    checkpoint's block is dominant with the margin) and d_(s-1) >= |e_s|.
    By induction d_j >= |e_(j+1)| and d_j > 0 for every j >= s, in floating
    point too: fl(fl(e*e)/d_(j-1)) exceeds |e_j| by at most two roundings,
    a_j = fl(diag_j - fl(lambda mass_j)) is off by at most two roundings of
    |diag_j| + |lambda| mass_j, and the 8-ulp margin covers both and the
    rounding of the dominance test itself.  (A zero pivot followed by
    e_s = 0 gives nan pivots, which are never counted either.)  So no later
    pivot is negative or zero: the lane's count and breakdown bit are final
    at this checkpoint and at every later one, those of the full pass bit
    for bit.  The certificate d_(s-1) >= |e_s| thus holds at every node
    from the first one c >= start on, so a lane retires at the first block
    start at or past c.  As a block starts at sizes[s] - 2 for every
    checkpoint, also one the pass reaches while working towards an earlier
    checkpoint, the lane is settled exactly when c <= N - 2, whatever the
    block sizes and whichever lanes share the pass.  So the schedule moves
    only where a lane is tested, never what it returns: a block from s ends
    at max(2s, s + 1, the least start node of a live lane) unless the block
    budget or a checkpoint boundary comes first.  A pass stops O(log N)
    times for retirement, and a lane with certificate node c retires by
    node 2c, at most twice as deep as it must; blocks grow as lanes leave.
    The margin is a few ulps of |diag| + |lambda| mass + rad, not of
    lambda: on fine meshes the stiffness ~1/h dwarfs (q - lambda) h, so a
    margin relative to lambda can sit inside the rounding error of a_j.
    """
    diag, off, mass = (np.asarray(x, dtype=float) for x in (diag, off, mass))
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    batch, n = diag.shape[:-1], diag.shape[-1]
    stops = (n,) if sizes is None else tuple(int(k) for k in sizes)
    if not stops or stops[0] < 1 or stops[-1] > n or any(
            a >= b for a, b in zip(stops, stops[1:])):
        raise SturmError(f"checkpoints must increase within 1..{n}, got {stops}")
    last = stops[-1]
    start = _dominance_starts(diag[..., :last], off[..., :last - 1], mass[..., :last],
                              lams, floors).ravel()
    # node-major views: node i of `off` holds off[i-1], and off[-1] = 0
    diag, mass = _rows(diag).T, _rows(mass).T
    off = _rows(np.insert(off, 0, 0.0, axis=-1)).T
    counts = np.zeros(start.size, dtype=np.int64)
    broke = np.zeros(start.size, dtype=bool)
    retired = np.full(start.size, last)     # the block start each lane left at
    # the live lanes: lane k is (row k // L, lambda k % L), prev is its last pivot
    live = np.arange(start.size)
    row, lam = live // lams.size, lams[live % lams.size]
    prev = np.full(start.size, np.inf)

    def gather(x, nodes):       # a node-major slice, one column per live lane
        x = x[nodes]
        return x if x.shape[-1] == 1 else x[..., row]

    snapshots = []
    s = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for stop in stops:
            while s < stop and live.size:
                due = start <= s
                if due.any():
                    keep = ~due | (prev < np.abs(gather(off, s)))
                    retired[live[~keep]] = s
                    live, row, lam, prev, start = (x[keep] for x in (live, row, lam, prev, start))
                    if not live.size:
                        break
                end = min(stop, s + max(1, _BLOCK_BYTES // (8 * live.size)),
                          max(2 * s, s + 1, int(start.min())),
                          *(k - 2 for k in stops if k - 2 > s))
                a = gather(diag, slice(s, end)) - lam * gather(mass, slice(s, end))
                e = gather(off, slice(s, end))
                if live.size <= _SCALAR_LANES:
                    e2 = e * e      # one column when the lanes share an off row
                    try:
                        negative, zero, prev = _scalar_block(a, e2, prev)
                    except ZeroDivisionError:   # a zero pivot on Python floats
                        negative, zero, prev = _vector_block(a, e2, prev)
                else:
                    # a ufunc on a broadcast (1,) row runs slower than on a full one
                    e2 = np.multiply(e, e, out=np.empty_like(a))
                    negative, zero, prev = _vector_block(a, e2, prev)
                counts[live] += negative
                broke[live] |= zero
                s = end
            snapshots.append((counts.copy(), broke.copy(), retired <= stop - 2))
    shape = batch + (-1,) if sizes is None else (len(stops),) + batch + (-1,)
    return tuple(np.stack(arrs).reshape(shape) for arrs in zip(*snapshots))


def _recount(diag, off, mass, lam: float) -> int:
    """The count at lam of a lane that broke on the pencil (or leading block)
    diag, off, mass: one pass at lam shifted down by BREAKDOWN_SHIFT times
    its scale, the pivot shift of Barth, Martin & Wilkinson (1967).  A
    second hit raises rather than return a count that may be wrong."""
    scale = (float(np.max(np.abs(diag))) + 2.0 * float(np.max(np.abs(off), initial=0.0))
             + abs(lam) * float(np.max(mass)))
    shifted = lam - BREAKDOWN_SHIFT * max(scale, 1.0)
    count, again, _ = _sturm_pass(diag, off, mass, np.array([shifted]))
    if again[0]:
        raise SturmError(f"pivot breakdown at lambda = {lam!r} persists at the "
                         f"shifted lambda = {shifted!r}")
    return int(count[0])


def count_below(pencil: TridiagonalPencil, lam: float) -> int:
    """Number of generalized eigenvalues strictly below lambda.

    Exact for the discrete pencil by Sylvester inertia.  An exact pivot hit
    (lambda on a Ritz value of a leading minor) is re-counted at a shifted
    lambda (`_recount`) and recorded on the pencil's breakdown counter.
    """
    return int(count_below_many(pencil, np.array([lam]))[0])


def count_below_many(pencil: TridiagonalPencil, lams) -> np.ndarray:
    """`count_below` at each of lams: the one-row case of `_counts`."""
    counts, _, recounted = _counts(pencil.diag[None], pencil.offdiag, pencil.mass, lams,
                                   floors=pencil.floors)
    pencil.breakdowns += recounted
    return counts[0]


def count_below_stack(diags, offs, masses, lams, sizes=None, floors=None):
    """Counts for a stack of M pencils of one size: (M, L) integers.

    offs and masses are one row that every pencil shares (the modes of one
    mesh) or one row per pencil (configs stacked on meshes that differ); the
    Sturm recurrence runs once over the (M, L) block.  With `sizes`
    (increasing leading-block sizes, see `_sturm_pass`) the result is
    (S, M, L): the counts of every nested domain from one pass.  Returns
    (counts, settled) of `_counts`.  `floors`, the tail floors of
    `discretize_stack` (one row per pencil), only saves work.
    """
    return _counts(diags, offs, masses, lams, sizes, floors)[:2]


def _counts(diags, offs, masses, lams, sizes=None, floors=None):
    """The one Sturm count: `_sturm_pass` over the stack diags (M, N), then
    `_recount` for each lane with an exact pivot hit, on the leading block
    of the checkpoint it broke at; such a lane is open.  Returns (counts,
    settled) as `_sturm_pass` shapes them and the number of re-counts."""
    counts, broke, settled = _sturm_pass(diags, offs, masses, lams, sizes, floors)
    settled &= ~broke
    offs, masses = _rows(offs), _rows(masses)     # a shared row is one row
    stops = (diags.shape[-1],) if sizes is None else tuple(sizes)
    by_stop = counts.reshape((len(stops),) + broke.shape[-2:])
    for k, i, j in zip(*np.nonzero(broke.reshape(by_stop.shape))):
        n = stops[k]
        by_stop[k, i, j] = _recount(diags[i, :n], offs[i % len(offs), :n - 1],
                                    masses[i % len(masses), :n], float(lams[j]))
    return by_stop.reshape(counts.shape), settled, int(broke.sum())


def gershgorin_lower(pencil: TridiagonalPencil) -> float:
    """Certified lower bound for the generalized spectrum."""
    radius = _row_radius(pencil.offdiag, pencil.n)
    bmin = np.min(pencil.mass)
    bmax = np.max(pencil.mass)
    amin = float(np.min(pencil.diag - radius))
    return amin / bmax if amin >= 0 else amin / bmin


#: lanes one multisection pass aims at: on an 8k-node pencil a pass of 64
#: lanes takes about as long as a pass of one
_PASS_LANES = 64


def _tree_pass(pencil: TridiagonalPencil, lo, hi, extra=()):
    """Counts at the first levels of each bracket's bisection tree, in one pass.

    lo, hi: (u,) brackets.  Node n of a tree has children 2n+1 (lower half)
    and 2n+2 (upper half), and its point is 0.5*(a+b) of its bracket
    (a, b), the midpoint bisection computes there.  The depth is the
    largest d with u*(2**d - 1) <= _PASS_LANES, at least 1.  Returns the
    points and counts, both (u, 2**d - 1), and the counts at `extra`.
    """
    depth = max(1, (_PASS_LANES // len(lo) + 1).bit_length() - 1)
    points = np.empty((len(lo), 2**depth - 1))
    ends = np.stack([lo, hi], axis=1)   # a level's brackets, end to end
    for level in range(depth):
        mid = 0.5 * (ends[:, :-1] + ends[:, 1:])
        points[:, 2**level - 1:2**(level + 1) - 1] = mid
        finer = np.empty((len(lo), 2 * ends.shape[1] - 1))
        finer[:, ::2], finer[:, 1::2] = ends, mid
        ends = finer
    lams = np.concatenate([points.ravel(), extra])
    counts = count_below_many(pencil, lams)
    if np.any(np.diff(counts[np.argsort(lams, kind="stable")]) < 0):
        raise SturmError("internal error: counts decreased in lambda in a pass")
    return points, counts[:points.size].reshape(points.shape), counts[points.size:]


def eigenvalues_below(pencil: TridiagonalPencil, lam: float, tol: float) -> List[float]:
    """All generalized eigenvalues < lambda, each located within +-tol.

    Bisection on the inertia count: every eigenvalue index j keeps its own
    bracket [lo_j, hi_j] with count(lo_j) <= j < count(hi_j), and each
    level halves every bracket at 0.5*(lo_j + hi_j) while the widest is
    wider than tol.  Levels run as a multisection: one Sturm pass counts
    at the first levels of the bisection tree of every distinct bracket
    (`_tree_pass`), about _PASS_LANES points, and the indices then walk
    down those levels.  The points are the midpoints plain bisection
    would compute, so the result is bit-identical to it; with one bracket
    a pass resolves six levels, and from 22 distinct brackets on it
    resolves one.  The first pass also counts at lambda itself.  Clusters
    narrower than tol come out as repeated values (multiplicity = count
    difference).  The schedule is deterministic.

    Breakdown shifts apply per evaluated point: an exact pivot hit at a
    tree point no index walks through still counts toward
    `TridiagonalPencil.breakdowns`, and a midpoint that several indices
    share is counted, and shifted, once.  The cap MAX_BISECTION_SWEEPS
    counts levels, not passes.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise SturmError("tolerance must be finite and > 0")
    lo, hi = np.array([gershgorin_lower(pencil)]), np.array([float(lam)])
    # the first pass also counts at lambda itself, which gives k
    points, counts, (k,) = _tree_pass(pencil, lo, hi, hi)
    if k == 0:
        return []
    idx = np.arange(k)
    lo, hi = np.repeat(lo, k), np.repeat(hi, k)
    which, node = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
    it = 0
    while float(np.max(hi - lo)) > tol:
        it += 1
        if it > MAX_BISECTION_SWEEPS:
            j = int(np.argmax(hi - lo))
            raise SturmError(
                f"bisection iteration cap hit for eigenvalue {j}: "
                f"bracket [{lo[j]}, {hi[j]}]")
        if node[0] >= points.shape[1]:   # the walk has left the trees
            # with counts monotone the walk keeps brackets sorted in j, so
            # equal ones are neighbours (missed ones only cost lanes)
            new = np.concatenate([[True], (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])])
            points, counts, _ = _tree_pass(pencil, lo[new], hi[new])
            which, node = np.cumsum(new) - 1, np.zeros(k, dtype=np.int64)
        mid = points[which, node]
        take_lo = counts[which, node] <= idx
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
        node = 2 * node + 1 + take_lo
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
