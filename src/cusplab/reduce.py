"""Separation of variables: cross-section modes and radial operators.

On the end [Y0, oo) x M the Laplacian splits over eigenmodes of the
(flux-twisted) cross-section Laplacian.  Functions and k-forms give one
weighted Sturm-Liouville family, mode by mode: in degree k (k = 0 for
functions) it acts on L^2(y^((2k-n)p) dy) with stiffness weight
y^((2k+2-n)p), and `mode_operator` builds every mode's `RadialOperator`
from that one formula.  In degree k >= 1 only the two harmonic sectors
can reach down to the essential spectrum.  The coupled high-frequency
tower has compact resolvent and is deliberately not built; its counting
content is carried analytically by the binomial factor in the C1
constant.

`liouville_transform` gives the power terms of the normal form
-d^2/dz^2 + W(z) with flat measure in the stretched variable z (z = log y
for p = 1, y^(1-p)/(1-p) for p < 1); `sturm` assembles p <= 1 operators
in it, and `mode_threshold` reads a mode's essential bottom from it.

This module owns the flux-twisted spectrum of M and the meshes it is
counted on.  `enumerate_modes` lists the modes that can reach the top
lambda of the window: circle and lattice torus labels come from one box
walk, and `min_cross_eigenvalue` gives `criteria` the bottom c of the same
spectrum by that walk.  The mode cut is certified by the pencils that are
counted: a mode reaches lambda on a mesh only if
nu <= (lambda - V(y_i)) / y_i^(2p) at one of its interior nodes y_i, so
the cut is the largest such ratio over the nodes of every mesh that
`numerics` counts (`nested_groups`, `mesh_for`).  `domain_end` gives the
radial end of a domain and refuses an end past the largest float.

It also owns what a potential does at infinity.  `far_field` is the one
rule: `mode_threshold` reads a mode's essential bottom from it,
`enumerate_modes` refuses a mode whose potential falls to -oo, and
`criteria.classify` predicts from it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .model import (CIRCLE, TABLE, CrossSection, ProblemConfig, RadialPotential,
                    betti_number, potential_values)

SECTOR_FUNCTION = "function"
SECTOR_FORM_0 = "form_harmonic_0"
SECTOR_FORM_1 = "form_harmonic_1"


class ReduceError(ValueError):
    pass


@dataclass(frozen=True)
class ModeSpec:
    """One cross-section mode: label, cross-eigenvalue, multiplicity."""

    label: tuple
    nu: float
    multiplicity: int
    sector: str = SECTOR_FUNCTION

    def __post_init__(self):
        if self.nu < 0:
            raise ReduceError("cross-eigenvalue must be >= 0")
        if self.multiplicity < 1:
            raise ReduceError("multiplicity must be >= 1")

    @property
    def name(self) -> str:
        if self.sector == SECTOR_FORM_0:
            return "h0"
        if self.sector == SECTOR_FORM_1:
            return "h1"
        if len(self.label) == 1:
            return f"m{self.label[0]}"
        return "m(" + ",".join(str(c) for c in self.label) + ")"


@dataclass(frozen=True)
class RadialOperator:
    """Weighted Sturm-Liouville operator on [y0, oo), Dirichlet ends.

    Quadratic form  Q(f) = Int w1 |f'|^2 dy + Int q w0 |f|^2 dy  against the
    measure w0 dy, with power weights w0 = y^density_exponent,
    w1 = y^stiffness_exponent and potential (relative to the measure)
    q(y) = sum a_j y^(b_j) + bump (`model.potential_values`).  The operator
    is the Friedrichs extension of this form on compactly supported smooth
    functions.  Its meshes are built at p, the end's exponent
    (`EndGeometry.pf`); for p <= 1 it is assembled in its normal form
    (`liouville_transform`).
    """

    density_exponent: float
    stiffness_exponent: float
    p: float
    potential_terms: tuple = ()
    bump: Optional[tuple] = None
    y0: float = 1.0


# ---------------------------------------------------------------------------
# coordinate maps
# ---------------------------------------------------------------------------

def z_of_y(y, p: float, y0: float = 1.0):
    """Stretched variable: the coordinate in which the operator is flat.

    p = 1: log y.  p < 1: y^(1-p)/(1-p) (increasing, unbounded).
    p > 1: metric arc length from y0, (y0^(1-p) - y^(1-p))/(p-1), which is
    bounded by the total arc length y0^(1-p)/(p-1) of the end.
    """
    y = np.asarray(y, dtype=float)
    if p == 1.0:
        return np.log(y)
    if p < 1.0:
        return y ** (1.0 - p) / (1.0 - p)
    return (y0 ** (1.0 - p) - y ** (1.0 - p)) / (p - 1.0)


def y_of_z(z, p: float, y0: float = 1.0):
    z = np.asarray(z, dtype=float)
    if p == 1.0:
        return np.exp(z)
    with np.errstate(divide="ignore", over="ignore"):
        if p < 1.0:
            return ((1.0 - p) * z) ** (1.0 / (1.0 - p))
        return (y0 ** (1.0 - p) - (p - 1.0) * z) ** (1.0 / (1.0 - p))


# ---------------------------------------------------------------------------
# cross-section eigenvalues and mode enumeration
# ---------------------------------------------------------------------------

def cross_eigenvalue(cross_section: CrossSection, m: Sequence[int],
                     flux=None) -> float:
    """Eigenvalue of the flux-twisted function Laplacian at lattice label m.

    Circle of circumference L: (2 pi (m + mu) / L)^2.  Torus with dual
    basis B*: |2 pi B* (m + mu)|^2.  Tables carry no lattice labels, so a
    flux there is unsupported.
    """
    if cross_section.kind == TABLE:
        if flux is not None and any(float(f) != 0.0 for f in flux):
            raise ReduceError("table cross-sections with flux are unsupported")
        raise ReduceError("table cross-sections have no lattice labels")
    mu = [0.0] * cross_section.b1 if flux is None else [float(f) for f in flux]
    if cross_section.kind == CIRCLE:
        (m0,) = m
        return (2.0 * math.pi * (m0 + mu[0]) / cross_section.length) ** 2
    basis = 2.0 * math.pi * np.asarray(cross_section.dual_basis, dtype=float)
    v = basis @ (np.asarray(m, dtype=float) + np.asarray(mu))
    return float(v @ v)


def _function_modes(cross_section: CrossSection, flux, nu_max: float,
                    cap: int) -> List[ModeSpec]:
    """All modes with nu <= nu_max, sorted by (nu, label).

    Circle and lattice torus walk one box of labels: nu = |2 pi B* (m + mu)|^2
    >= sigma_min^2 |m + mu|^2, with sigma_min the smallest singular value of
    2 pi B* (2 pi / L on the circle), so every mode lies in the box
    |m_i + mu_i| <= sqrt(nu_max) / sigma_min.  A box of more than 8 cap
    labels (circle) or 64 cap labels (torus) is refused before it is
    walked, and the walk stops at the first mode past the cap.  A cubic
    3-torus box holds only about two labels per mode, so a wider bound
    would only walk longer before the mode count is refused.
    """
    advice = "lower the top of numerics.lambda_grid or raise numerics.mode_cap"
    too_many = f"mode count exceeds the cap ({cap}); {advice}"
    modes = []
    if cross_section.kind == TABLE:
        if flux is not None and any(float(f) != 0.0 for f in flux):
            raise ReduceError("table cross-sections with flux are unsupported")
        for i, (e, mult) in enumerate(cross_section.tables[0]):
            if e <= nu_max + 1e-12:
                modes.append(ModeSpec(label=(i,), nu=float(e), multiplicity=mult))
    else:
        d = cross_section.dim
        if cross_section.kind == CIRCLE:
            sigma_min = 2.0 * math.pi / cross_section.length
        else:
            basis = 2.0 * math.pi * np.asarray(cross_section.dual_basis, dtype=float)
            sigma_min = float(np.linalg.svd(basis, compute_uv=False)[-1])
        mu = [0.0] * d if flux is None else [float(f) for f in flux]
        reach = math.sqrt(max(nu_max, 0.0)) / sigma_min
        lo = [math.ceil(-c - reach - 1e-12) for c in mu]
        hi = [math.floor(-c + reach + 1e-12) for c in mu]
        if math.prod(max(b - a + 1, 0) for a, b in zip(lo, hi)) > 8 ** min(d, 2) * cap:
            raise ReduceError(f"mode count would exceed the cap ({cap}); {advice}")
        for m in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            nu = cross_eigenvalue(cross_section, m, flux)
            if nu <= nu_max + 1e-12:
                modes.append(ModeSpec(label=m, nu=nu, multiplicity=1))
                if len(modes) > cap:
                    raise ReduceError(too_many)
    modes.sort(key=lambda sp: (sp.nu, sp.label))
    if len(modes) > cap:
        raise ReduceError(too_many)
    return modes


def min_cross_eigenvalue(cross_section: CrossSection, flux) -> float:
    """Smallest eigenvalue c of the flux-twisted function Laplacian on M.

    Circle: the better of the two labels around -mu, (w (m + mu))^2 with
    w = 2 pi / L, in closed form (`cross_eigenvalue` rounds its circle
    formula differently in the last ulp for some fluxes).  Lattice torus:
    `_function_modes` lists every mode up to the eigenvalue at the label
    nearest -mu, and c is the first.
    """
    if cross_section.kind == TABLE:
        raise ReduceError("table cross-sections with flux are unsupported")
    if cross_section.kind == CIRCLE:
        mu = float(flux[0])
        w = 2.0 * math.pi / cross_section.length
        lo = math.floor(-mu)
        return min((w * (m + mu)) ** 2 for m in (lo, lo + 1))
    return _lowest_mode(cross_section, flux).nu


def _lowest_mode(cross_section: CrossSection, flux) -> ModeSpec:
    """The function mode of least cross-eigenvalue: the first of every mode
    up to the eigenvalue at the label nearest -mu (the first table entry)."""
    if cross_section.kind == TABLE:
        top = cross_section.tables[0][0][0]
    else:
        nearest = [round(-float(f)) for f in flux or (0,) * cross_section.dim]
        top = cross_eigenvalue(cross_section, nearest, flux)
    # |nearest + mu| <= sqrt(d)/2, so the box is at most
    # sqrt(d) sigma_max / sigma_min + 1 labels a side and needs no cap
    return _function_modes(cross_section, flux, top, math.inf)[0]


def domain_end(p: float, y0: float, length: float) -> float:
    """Radial end Ymax of the computational domain of length T.

    p > 1: Y0 e^T (T is a log-length; the arc length of the end is finite).
    p <= 1: y(z0 + T) (T is a length in the Liouville variable z).  An end
    past the largest float is refused.
    """
    if p > 1.0:
        try:
            ymax = y0 * math.exp(length)
        except OverflowError:
            ymax = math.inf
    else:
        with np.errstate(over="ignore"):
            ymax = float(y_of_z(float(z_of_y(y0, p, y0)) + length, p, y0))
    if not math.isfinite(ymax):
        raise ReduceError(f"a domain of length {length!r} ends past the largest "
                          "float radius; shorten numerics.domain_z")
    return ymax


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

def cells_for(grid: int, domain: float, base_domain: float) -> int:
    """Cells for a domain at fixed mesh width h = base_domain/grid."""
    return max(4, int(round(grid * domain / base_domain)))


def nested_groups(numerics, p: float, grid: int):
    """The planner: the domains of one grid, grouped so that their meshes nest.

    A domain T gets cells_for(grid, T, T0) cells.  For p <= 1 its mesh is
    z0 + (T/cells)*k (`mesh_for`), so two domains nest exactly when their
    widths T/cells are the same double.  For p > 1 the mesh of T spans
    [0, zmax(e^T)], so every domain is its own group.  Returns lists of
    (domain, cells), each ascending, ordered by their longest domain.
    """
    domains = numerics.domains
    groups = {}
    for T in domains:
        cells = cells_for(grid, T, domains[0])
        groups.setdefault(T / cells if p <= 1.0 else T, []).append((T, cells))
    return sorted(groups.values(), key=lambda group: group[-1][0])


def mesh_for(p: float, y0: float, length: float, cells: int):
    """Mesh nodes of a domain of length `length` with `cells` cells.

    Returns (t_nodes, y_nodes): t is the meshed variable, y the radial
    coordinate at the same nodes.  For p <= 1, t is the Liouville variable
    and the nodes are z0 + h*k for k = 0..cells, with z0 = z(Y0) and
    h = length/cells rounded once.  Every node depends on z0, h and k only,
    so a mesh with the same h is a prefix of this one; np.linspace(z0,
    z0 + length) would step by ((z0 + length) - z0)/cells, which differs
    from h in the last ulp whenever z0 != 0.  For p > 1, t is the arc
    length on [0, zmax] with zmax = z(`domain_end`); zmax depends on
    e^length, so meshes of different lengths never nest, and the end
    points are pinned exactly instead.
    """
    if p <= 1.0:
        t = float(z_of_y(y0, p, y0)) + (length / cells) * np.arange(cells + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            return t, y_of_z(t, p, y0)
    ymax = domain_end(p, y0, length)
    t = np.linspace(0.0, float(z_of_y(ymax, p, y0)), cells + 1)
    y = y_of_z(t, p, y0)
    y[0], y[-1] = y0, ymax
    return t, y


def _mode_cut(config: ProblemConfig, lambda_max: float) -> float:
    """Largest cross-eigenvalue nu whose mode can reach lambda_max on a
    mesh that `config.numerics` counts, certified at the mesh nodes.

    A mode's pencil at lambda is K + diag((W - lambda) lump) in z for
    p <= 1 and K + diag((q - lambda) w0 lump) in y for p > 1, with K the
    Dirichlet stiffness, which is positive definite, and lump, w0 > 0.
    Here q = nu y^(2p) + V, and W = q + A_c y^(2p-2) with A_c >= 0 for
    every function mode at p <= 1.  So where q(y_i) >= lambda at every
    interior node y_i the pencil is positive definite, and the mode has no
    eigenvalue below lambda.  The cut is the largest (lambda - V(y_i)) /
    y_i^(2p) over the interior nodes of each nested group's longest mesh
    (the shorter meshes are its prefixes), and -1 when it is negative (no
    mode reaches the window).  A cut that is not finite or exceeds 1e18 is
    refused: the potential then holds every mode down.
    """
    geom, num = config.geometry, config.numerics
    p, potential = geom.pf, config.potential or RadialPotential()
    with np.errstate(over="ignore"):
        if np.isinf(np.float64(geom.y0) ** (2.0 * p)):
            raise ReduceError(f"Y0^(2p) at the cut radius Y0 = {geom.y0!r} exceeds "
                              "the largest float; lower geometry.y0 or checks.y0")
    cut = -math.inf
    for grid in num.grids:
        for group in nested_groups(num, p, grid):
            y = mesh_for(p, geom.y0, *group[-1])[1][1:-1]
            with np.errstate(over="ignore", invalid="ignore"):
                gap = lambda_max - potential_values(y, potential.poly, potential.bump)
                # a negative gap is -1, not a ratio that may underflow to -0.0,
                # which fmax need not order below an exact 0.0
                ratio = np.where(gap < 0.0, -1.0, gap / y ** (2.0 * p))
            # fmax skips nan, a node where y^(2p) and V both overflow
            cut = float(np.fmax.reduce(ratio, initial=cut))
    if not cut <= 1e18:
        raise ReduceError("potential keeps every mode below the top of "
                          "numerics.lambda_grid; no finite mode cut exists")
    return max(cut, -1.0)


def enumerate_modes(config: ProblemConfig, lambda_max: float) -> List[ModeSpec]:
    """Every mode whose pencils can have an eigenvalue below lambda_max.

    Soundness: a function mode is dropped only when its potential
    nu y^(2p) + V(y) is at least lambda_max at every interior node of every
    mesh that `config.numerics` counts (`_mode_cut`).  Each of its pencils
    is then positive definite at lambda_max, so it has no eigenvalue below
    it, and no mode that a counted pencil puts in the window is omitted.
    The verdict commands pass `config.with_finest_grid()` and so cut at the
    finest meshes; `count`, `spectrum` and the `reduce` command cut at
    every grid.  For k >= 1 the two harmonic sectors are returned (the
    coexact tower has compact resolvent and only enters the counting
    constants analytically).

    Every numeric command passes through here with the top of
    `numerics.lambda_grid` as lambda_max, so this is where data outside the
    modelled class is refused: magnetic data other than closed tangential
    forms with a constant, pure-gauge radial coefficient, a potential on
    k-forms (the harmonic-sector operators carry none), and a potential
    that falls to -oo on the lowest mode (`far_field`), whether or not the
    window lists it.  Refusals of the counted meshes themselves, such as a
    domain that ends past the largest float radius, are `sturm`'s: the
    `reduce` command lists the modes of `count`'s own report.
    """
    if lambda_max < 0:
        raise ReduceError(f"the top of numerics.lambda_grid must be >= 0, got {lambda_max!r}")
    mag = config.magnetic
    if mag is not None and not (mag.theta0_closed and mag.phi0_constant):
        why = ("non-closed tangential form" if not mag.theta0_closed
               else "non-constant radial coefficient")
        raise ReduceError(f"{why} is outside the numerically modelled class; "
                          "the analytic criteria classify it as pure point")
    geom = config.geometry
    k = config.degree
    if k >= 1 and config.potential is not None and not config.potential.is_zero:
        raise ReduceError(f"a potential on {k}-forms is outside the numerically "
                          "modelled class; only criteria classifies it")
    if k == 0:
        flux = config.magnetic.flux if config.magnetic is not None else None
        modes = _function_modes(config.cross_section, flux, _mode_cut(config, lambda_max),
                                config.numerics.mode_cap)
        poly = config.potential.poly if config.potential is not None else ()
        if far_field(poly) == -math.inf:
            # nu y^(2p) only lifts the far field, so the lowest mode falls if
            # any mode does, listed in the window or not
            low = _lowest_mode(config.cross_section, flux)
            if far_field(((low.nu, 2.0 * geom.pf),) + poly) == -math.inf:
                raise ReduceError(f"the potential of mode {low.name} falls to -oo as "
                                  "y -> oo; a potential unbounded below is outside the "
                                  "numerically modelled class")
        return modes
    modes = []
    h_k = betti_number(config.cross_section.betti, k)
    h_k1 = betti_number(config.cross_section.betti, k - 1)
    if h_k > 0:
        modes.append(ModeSpec(label=(0,), nu=0.0, multiplicity=h_k,
                              sector=SECTOR_FORM_0))
    if h_k1 > 0:
        modes.append(ModeSpec(label=(1,), nu=0.0, multiplicity=h_k1,
                              sector=SECTOR_FORM_1))
    return modes


# ---------------------------------------------------------------------------
# radial operators
# ---------------------------------------------------------------------------

def mode_operator(config: ProblemConfig, mode: ModeSpec) -> RadialOperator:
    """The radial operator of one enumerated mode, from the degree-k formula.

    In form degree k (k = 0 for functions) every mode acts in
    L^2(y^((2k-n)p) dy) with stiffness weight y^((2k+2-n)p): the Dirichlet
    energy of the warped metric restricted to the mode.  A function mode
    with cross-eigenvalue nu has

        Q(f) = Int (|f'|^2 + nu |f|^2) y^((2-n)p) dy + Int V |f|^2 y^(-np) dy,

    so q = nu y^(2p) + V(y), the bump included.  Of the degree-k modes only
    the two harmonic sectors (nu = 0) can reach down to the essential
    spectrum.  Expanding their factorized form (a first-order operator
    built from the sector constant c0, plus the sector constant squared)
    leaves sector 0 with no zero-order term and sector 1 with
    (c1^2 - c0^2) y^(2p-2), where

        kappa = c1^2 - c0^2 = (n - 2k) p (2p - 1).

    A potential on k >= 1 forms is refused by `enumerate_modes`.
    """
    n, k, p = config.geometry.n, config.degree, config.geometry.pf
    terms = [(mode.nu, 2.0 * p)] if mode.nu != 0.0 else []
    if mode.sector == SECTOR_FORM_1:
        kappa = (n - 2 * k) * p * (2.0 * p - 1.0)
        if kappa != 0.0:
            terms.append((kappa, 2.0 * p - 2.0))
    potential = config.potential or RadialPotential()
    return RadialOperator(
        density_exponent=(2 * k - n) * p,
        stiffness_exponent=(2 * k + 2 - n) * p,
        p=p,
        potential_terms=tuple(terms) + potential.poly,
        bump=potential.bump,
        y0=config.geometry.y0)


def liouville_transform(op: RadialOperator) -> tuple:
    """The power terms (a, b) of the normal form -d^2/dz^2 + W(z) of op.

    Substituting dz = sqrt(w0/w1) dy (= y^(-p) dy for every operator built
    by `mode_operator`) and renormalizing by m = sqrt(w0 w1) gives flat
    measure and W(z) = q(y(z)) + A_c y^(2p-2) with the conjugation
    coefficient

        A_c = (c/2) (c/2 + p - 1),   c = (density_exp + stiffness_exp)/2.

    Returns the conjugation term first, then q's terms; q's bump is op's.
    The spectrum is preserved exactly (the Liouville transformation).  p > 1
    is rejected: there the operator is assembled with its weights on the
    finite arc-length variable instead.
    """
    if op.p > 1.0:
        raise ReduceError("Liouville normal form unsupported for p > 1; "
                          "use the direct weighted discretization")
    gap = op.stiffness_exponent - op.density_exponent
    if abs(gap - 2.0 * op.p) > 1e-10:
        raise ReduceError("operator weights are inconsistent with exponent p")
    c_half = 0.5 * (op.density_exponent + op.stiffness_exponent) / 2.0
    conj = c_half * (c_half + op.p - 1.0)
    return ((conj, 2.0 * op.p - 2.0),) + op.potential_terms


def far_field(terms) -> float:
    """The limit of sum a_j y^(b_j) as y -> oo, for terms (a_j, b_j).

    Like powers are summed first, in term order.  The highest power b > 0
    whose summed coefficient is nonzero decides: +oo or -oo by its sign.
    Without one, the limit is the summed coefficient of y^0 (0.0 if there
    is none); powers b < 0 decay.
    """
    sums = {}
    for a, b in terms:
        sums[b] = sums.get(b, 0.0) + a
    top = max((b for b, a in sums.items() if b > 0.0 and a != 0.0), default=None)
    if top is not None:
        return math.copysign(math.inf, sums[top])
    return sums.get(0.0, 0.0)


def mode_threshold(op: RadialOperator) -> Optional[float]:
    """Bottom of the essential spectrum of one radial operator, if any.

    Every p > 1 operator has empty essential spectrum (None).  Otherwise the
    threshold is the limit of the normal-form potential W(z) (`far_field`):
    None for a confining mode, where W grows to +oo.  A W that falls to
    -oo is refused.
    """
    if op.p > 1.0:
        return None
    limit = far_field(liouville_transform(op))
    if limit == -math.inf:
        raise ReduceError("the potential falls to -oo as y -> oo: the operator "
                          "is not bounded below")
    return None if limit == math.inf else limit

