"""Separation of variables: cross-section modes and radial operators.

On the end [Y0, oo) x M the Laplacian splits over eigenmodes of the
(flux-twisted) cross-section Laplacian.  A function mode with
cross-eigenvalue nu produces the weighted Sturm-Liouville form

    Q(f) = Int (|f'|^2 + nu |f|^2) y^((2-n)p) dy + Int V |f|^2 y^(-np) dy

on L^2(y^(-np) dy).  In form degree k only the two harmonic sectors can
reach down to the essential spectrum; in y-coordinates both live on
L^2(y^((2k-n)p) dy) with stiffness weight y^((2k+2-n)p), sector 0 with no
zero-order term and sector 1 with the extra potential

    (n - 2k) p (2p - 1) y^(2p - 2)

(the difference c1^2 - c0^2 of the sector constants, times y^(2p-2)).
The coupled high-frequency tower has compact resolvent and is deliberately
not built; its counting content is carried analytically by the binomial
factor in the C1 constant.

`liouville_transform` rewrites any of these power-weight operators in the
stretched variable z (z = log y for p = 1, y^(1-p)/(1-p) for p < 1) as
-d^2/dz^2 + W(z) with flat measure, which is what the discretizer prefers
for p <= 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .model import (CIRCLE, TABLE, TORUS, CrossSection, EndGeometry,
                    ProblemConfig, RadialPotential, potential_values)

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
    q(y) = sum a_j y^(b_j) + bump.  The operator is the Friedrichs
    extension of this form on compactly supported smooth functions.
    """

    density_exponent: float
    stiffness_exponent: float
    potential_terms: tuple = ()
    bump: Optional[tuple] = None
    y0: float = 1.0

    def w0(self, y):
        return np.asarray(y, dtype=float) ** self.density_exponent

    def w1(self, y):
        return np.asarray(y, dtype=float) ** self.stiffness_exponent

    def q(self, y):
        return potential_values(y, self.potential_terms, self.bump)


@dataclass(frozen=True)
class CanonicalOperator:
    """-d^2/dz^2 + W(z) on [z0, oo) with flat measure (Liouville form).

    W(z) = q(y(z)) + A_c y(z)^(2p-2) where A_c collects the conjugation
    terms of the normal-form substitution; see `liouville_transform`.
    """

    p: float
    y0: float
    z0: float
    conj_coeff: float
    potential_terms: tuple = ()
    bump: Optional[tuple] = None

    def y_of_z(self, z):
        return y_of_z(np.asarray(z, dtype=float), self.p, self.y0)

    def w(self, z):
        y = self.y_of_z(z)
        conj = ((self.conj_coeff, 2.0 * self.p - 2.0),)
        return potential_values(y, conj + self.potential_terms, self.bump)


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
    """All lattice modes with nu <= nu_max, sorted by (nu, label)."""
    modes = []
    if cross_section.kind == CIRCLE:
        mu = 0.0 if flux is None else float(flux[0])
        w = 2.0 * math.pi / cross_section.length
        reach = math.sqrt(nu_max) / w if nu_max >= 0 else -1.0
        lo = math.ceil(-mu - reach - 1e-12)
        hi = math.floor(-mu + reach + 1e-12)
        if hi - lo + 1 > 8 * cap:
            raise ReduceError(
                f"mode count would exceed the cap ({cap}); lower lambda_max")
        for m in range(lo, hi + 1):
            nu = cross_eigenvalue(cross_section, (m,), flux)
            if nu <= nu_max + 1e-12:
                modes.append(ModeSpec(label=(m,), nu=nu, multiplicity=1))
    elif cross_section.kind == TORUS:
        d = cross_section.dim
        basis = 2.0 * math.pi * np.asarray(cross_section.dual_basis, dtype=float)
        sigma_min = float(np.linalg.svd(basis, compute_uv=False)[-1])
        mu = np.zeros(d) if flux is None else np.array([float(f) for f in flux])
        reach = math.sqrt(max(nu_max, 0.0)) / sigma_min
        lo = np.ceil(-mu - reach - 1e-12).astype(int)
        hi = np.floor(-mu + reach + 1e-12).astype(int)
        box = 1
        for a, b in zip(lo, hi):
            box *= max(b - a + 1, 0)
        if box > 64 * cap:
            raise ReduceError(
                f"mode count would exceed the cap ({cap}); lower lambda_max")
        for m in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            nu = cross_eigenvalue(cross_section, m, flux)
            if nu <= nu_max + 1e-12:
                modes.append(ModeSpec(label=tuple(m), nu=nu, multiplicity=1))
    else:  # table
        if flux is not None and any(float(f) != 0.0 for f in flux):
            raise ReduceError("table cross-sections with flux are unsupported")
        for i, (e, mult) in enumerate(cross_section.tables[0]):
            if e <= nu_max + 1e-12:
                modes.append(ModeSpec(label=(i,), nu=float(e), multiplicity=mult))
    modes.sort(key=lambda sp: (sp.nu, sp.label))
    if len(modes) > cap:
        raise ReduceError(
            f"{len(modes)} modes exceed the cap ({cap}); lower lambda_max")
    return modes


def _nu_reach(config: ProblemConfig, lambda_max: float) -> float:
    """Largest cross-eigenvalue whose mode can reach lambda_max.

    The mode operator with cross-eigenvalue nu is bounded below by the
    minimum of its full potential nu y^(2p) + V(y) over the computational
    domain, which is non-decreasing in nu; bisection on that sampled floor
    gives the cut.  (With V = 0 this reduces to nu Y0^(2p) <= lambda_max.)
    """
    geom = config.geometry
    p = geom.pf
    tmax = max(config.numerics.domains)
    if p > 1.0:
        ymax = geom.y0 * math.exp(tmax)
    else:
        zmax = float(z_of_y(geom.y0, p, geom.y0)) + tmax
        ymax = float(y_of_z(zmax, p, geom.y0))
    y = np.geomspace(geom.y0, max(ymax, geom.y0 * (1 + 1e-9)), 4096)
    v = config.potential(y)
    ypow = y ** (2.0 * p)

    def floor(nu):
        return float(np.min(nu * ypow + v))

    if floor(0.0) > lambda_max:
        return -1.0
    hi = max(lambda_max / geom.y0 ** (2.0 * p), 1.0)
    while floor(hi) <= lambda_max:
        hi *= 2.0
        if hi > 1e18:
            raise ReduceError("potential keeps every mode below lambda_max; "
                              "no finite mode cut exists")
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if floor(mid) <= lambda_max:
            lo = mid
        else:
            hi = mid
    return hi


def enumerate_modes(config: ProblemConfig, lambda_max: float) -> List[ModeSpec]:
    """Every mode that can contribute spectrum at or below lambda_max.

    Soundness: a function mode with cross-eigenvalue nu is bounded below by
    min over y of (nu y^(2p) + V(y)) >= nu Y0^(2p) + floor(V), because
    y^(2p) is increasing and >= 1 on the end (this is why Y0 >= 1 is an
    invariant).  Modes above the bound have no spectrum in the window and
    are dropped; no mode below it is omitted.  For k >= 1 the two harmonic
    sectors are returned (the coexact tower has compact resolvent and only
    enters the counting constants analytically).

    Every numeric command passes through here, so this is where magnetic
    data outside the modelled class (only closed tangential forms with a
    constant, pure-gauge radial coefficient are discretized) is refused.
    """
    if lambda_max < 0:
        raise ReduceError("lambda_max must be >= 0")
    mag = config.magnetic
    if mag is not None and not (mag.theta0_closed and mag.phi0_constant):
        why = ("non-closed tangential form" if not mag.theta0_closed
               else "non-constant radial coefficient")
        raise ReduceError(f"{why} is outside the numerically modelled class; "
                          "the analytic criteria classify it as pure point")
    geom = config.geometry
    k = config.degree
    if k == 0:
        flux = config.magnetic.flux if config.magnetic is not None else None
        if config.potential is None or config.potential.is_zero:
            nu_max = lambda_max / geom.y0 ** (2.0 * geom.pf)
        else:
            nu_max = _nu_reach(config, lambda_max)
        return _function_modes(config.cross_section, flux, nu_max,
                               config.numerics.mode_cap)
    modes = []
    h_k = config.cross_section.betti_at(k)
    h_k1 = config.cross_section.betti_at(k - 1)
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

def scalar_radial_operator(mode: ModeSpec, geometry: EndGeometry,
                           potential: Optional[RadialPotential] = None) -> RadialOperator:
    """Radial operator of a function mode with cross-eigenvalue nu.

    Measure weight y^(-np), stiffness weight y^((2-n)p), potential
    q = nu y^(2p) + V(y); the quadratic form is the restriction of the
    Dirichlet energy of the warped metric to the mode.
    """
    if mode.sector != SECTOR_FUNCTION:
        raise ReduceError("scalar operator is defined for function modes only")
    n, p = geometry.n, geometry.pf
    terms = []
    if mode.nu != 0.0:
        terms.append((mode.nu, 2.0 * p))
    bump = None
    if potential is not None:
        terms.extend(potential.poly)
        bump = potential.bump
    return RadialOperator(
        density_exponent=-n * p,
        stiffness_exponent=(2.0 - n) * p,
        potential_terms=tuple(terms),
        bump=bump,
        y0=geometry.y0)


def harmonic_form_radial_operator(n: int, k: int, p, sector: int,
                                  y0: float = 1.0) -> RadialOperator:
    """Radial operator of a degree-k harmonic sector (sector 0 or 1).

    Both sectors act in L^2(y^((2k-n)p) dy) with stiffness weight
    y^((2k+2-n)p).  Expanding the factorized form (first-order operator
    built from c0, plus the sector constant squared) leaves sector 0 with
    no zero-order term and sector 1 with (c1^2 - c0^2) y^(2p-2), where
    c1^2 - c0^2 = (n - 2k) p (2p - 1).
    """
    if not (0 <= k <= n):
        raise ReduceError(f"degree k = {k} out of range 0..{n}")
    if sector not in (0, 1):
        raise ReduceError("sector must be 0 or 1")
    pf = float(p)
    terms = ()
    if sector == 1:
        kappa = (n - 2 * k) * pf * (2.0 * pf - 1.0)
        if kappa != 0.0:
            terms = ((kappa, 2.0 * pf - 2.0),)
    return RadialOperator(
        density_exponent=(2 * k - n) * pf,
        stiffness_exponent=(2 * k + 2 - n) * pf,
        potential_terms=terms,
        y0=float(y0))


def liouville_transform(op: RadialOperator, p) -> CanonicalOperator:
    """Normal form -d^2/dz^2 + W(z) of a power-weight radial operator.

    Substituting dz = sqrt(w0/w1) dy (= y^(-p) dy for every operator built
    by this module) and renormalizing by m = sqrt(w0 w1) gives
    W(z) = q(y(z)) + A_c y^(2p-2) with the conjugation coefficient

        A_c = (c/2) (c/2 + p - 1),   c = (density_exp + stiffness_exp)/2.

    The spectrum is preserved exactly; p > 1 is rejected (there the direct
    weighted discretization on the finite-length variable is used instead).
    """
    pf = float(p)
    if pf > 1.0:
        raise ReduceError("Liouville normal form unsupported for p > 1; "
                          "use the direct weighted discretization")
    gap = op.stiffness_exponent - op.density_exponent
    if abs(gap - 2.0 * pf) > 1e-10:
        raise ReduceError("operator weights are inconsistent with exponent p")
    c_half = 0.5 * (op.density_exponent + op.stiffness_exponent) / 2.0
    conj = c_half * (c_half + pf - 1.0)
    return CanonicalOperator(
        p=pf,
        y0=op.y0,
        z0=float(z_of_y(op.y0, pf, op.y0)),
        conj_coeff=conj,
        potential_terms=op.potential_terms,
        bump=op.bump)


def mode_threshold(op: RadialOperator, p) -> Optional[float]:
    """Bottom of the essential spectrum of one radial operator, if any.

    Confining modes (potential growing at infinity) and every p > 1
    operator have empty essential spectrum (None).  Otherwise the
    threshold is the limit of the normal-form potential W(z).
    """
    pf = float(p)
    if pf > 1.0:
        return None
    can = liouville_transform(op, pf)
    lim = 0.0
    if pf == 1.0:
        lim += can.conj_coeff
    for a, b in can.potential_terms:
        if a == 0.0:
            continue
        if b > 0.0:
            return None  # confining
        if b == 0.0:
            lim += a
        elif pf == 1.0 and b == 2.0 * pf - 2.0:
            lim += a
    return lim


def mode_operator(config: ProblemConfig, mode: ModeSpec) -> RadialOperator:
    """The radial operator attached to one enumerated mode."""
    if mode.sector == SECTOR_FUNCTION:
        return scalar_radial_operator(mode, config.geometry, config.potential)
    sector = 0 if mode.sector == SECTOR_FORM_0 else 1
    k = config.degree
    return harmonic_form_radial_operator(config.geometry.n, k, config.geometry.p,
                                         sector, y0=config.geometry.y0)
