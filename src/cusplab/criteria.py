"""Analytic predictions: spectrum type, thresholds, and counting constants.

Everything in this module is closed-form arithmetic on a ProblemConfig; no
discretization happens here.  The outputs are what the numerical pipeline
(`assemble`) is later checked against.

Conventions.  On the end [Y0, oo) x M with metric y^(-2p)(dy^2 + h), the
degree-k Laplacian decomposes over cross-section modes.  Only harmonic
modes of M can generate essential spectrum; the two harmonic sectors carry
the constants

    c0 = ((2k + 2 - n) p - 1) / 2,      c1 = ((2k - 2 - n) p + 1) / 2,

and for p = 1 the essential-spectrum branches start at c0^2 (active when
h^k(M) != 0) and c1^2 (active when h^(k-1)(M) != 0).  For p < 1 every
active branch starts at 0; for p > 1 (warped-product end) the spectrum is
purely discrete.

An electric potential V = sum a_j y^(b_j) enters through its limit at
infinity, by the rule `reduce.far_field` that the numerics read too:
V -> +oo confines every mode (pure point; with V0 = 0 no counting law is
certified), a finite limit L shifts every threshold by L, and V -> -oo is
outside the certified criteria.

Counting asymptotics N(lambda) for pure-point problems:

    p > 1/n : C1 lambda^(n/2)
    p = 1/n : C2 lambda^(n/2) log lambda
    p < 1/n : C3 lambda^(1/(2p))

with C1, C2 determined by volumes alone (independent of flux and electric
potential) and C3 by spectral-zeta values of the cross-section.  Note that
C3 weights a cross-eigenvalue nu by nu^(-(1-p)/(2p)): the exponent is half
of 1/p - 1 because the one-dimensional mode operator confines with the
potential nu y^(2p), whose phase-space volume below lambda is

    (1/pi) * Integral sqrt(lambda - nu y^(2p)) y^(-p) dy
        = B(3/2, (1-p)/(2p)) / (2 p pi) * lambda^(1/(2p)) * nu^(-(1-p)/(2p)),

and the Beta/Gamma identity turns the prefactor into
Gamma((1-p)/(2p)) / (2 sqrt(pi) Gamma(1/(2p))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from . import zeta as zeta_mod
from .model import CrossSection, MagneticData, ProblemConfig, betti_number
from .reduce import far_field, min_cross_eigenvalue

PURE_POINT = "pure_point"
ESSENTIAL = "essential_from"

POWER_N2 = "power_n2"          # p > 1/n
LOG_LAW = "log_law"            # p = 1/n
POWER_HALF_P = "power_half_p"  # p < 1/n


class CriteriaError(ValueError):
    pass


#: the name the paper gives each regime's counting constant
CONSTANT_NAMES = {POWER_N2: "C1", LOG_LAW: "C2", POWER_HALF_P: "C3"}


@dataclass(frozen=True)
class Prediction:
    """Analytic output for one problem.

    `thresholds` lists the bottoms of all essential branches, sorted; it is
    empty exactly when the spectrum is pure point, and otherwise the
    essential spectrum is [min, oo).  `classify` states the regime's law
    N ~ C lambda^q (times log lambda in the log regime): weyl_exponent q and
    weyl_constant C (None when not defined or not certified); c3_tail
    certifies the zeta truncation of C3.
    """

    thresholds: tuple
    weyl_regime: str
    weyl_exponent: Optional[float] = None
    weyl_constant: Optional[float] = None
    c3_tail: Optional[float] = None
    notes: tuple = ()

    @property
    def is_pure_point(self) -> bool:
        return not self.thresholds

    @property
    def classification(self) -> str:
        return PURE_POINT if self.is_pure_point else ESSENTIAL

    @property
    def essential_bottom(self) -> Optional[float]:
        return None if self.is_pure_point else min(self.thresholds)

    @property
    def constants(self) -> dict:
        """C1, C2 and C3 by name: the regime's constant under its own, None elsewhere."""
        own = CONSTANT_NAMES[self.weyl_regime]
        return {name: self.weyl_constant if name == own else None
                for name in CONSTANT_NAMES.values()}


def weyl_regime(n: int, p: Fraction) -> str:
    p = Fraction(p)
    if p > Fraction(1, n):
        return POWER_N2
    if p == Fraction(1, n):
        return LOG_LAW
    return POWER_HALF_P


def form_constants(n: int, k: int, p) -> tuple:
    """The two harmonic-sector constants (c0, c1)."""
    pf = float(p)
    c0 = ((2 * k + 2 - n) * pf - 1.0) / 2.0
    c1 = ((2 * k - 2 - n) * pf + 1.0) / 2.0
    return c0, c1


def full_ellipticity_forms(n: int, k: int, betti: Sequence[int]) -> bool:
    """True iff degrees k and k-1 of the cross-section carry no cohomology.

    `betti` lists h^0..h^(n-1) of the (n-1)-dimensional cross-section,
    e.g. (1, 1) for the circle at n = 2 and (1, 0, 0, 1) for S^3 at n = 4;
    degrees outside that range count as 0.
    """
    if not (0 <= k <= n):
        raise CriteriaError(f"degree k = {k} out of range 0..{n}")
    return betti_number(betti, k) == 0 and betti_number(betti, k - 1) == 0


def thresholds_forms(n: int, k: int, p, betti: Sequence[int]) -> Prediction:
    """Threshold set and classification for the degree-k form Laplacian."""
    p = Fraction(p)
    if p <= 0:
        raise CriteriaError("p must be > 0")
    regime = weyl_regime(n, p)
    if p > 1:
        return Prediction((), regime,
                          notes=("warped-product end with p > 1: "
                                 "all self-adjoint extensions have discrete spectrum",))
    if full_ellipticity_forms(n, k, betti):
        return Prediction((), regime,
                          notes=("harmonic sectors empty (h^k = h^(k-1) = 0): "
                                 "discrete spectrum",))
    if p < 1:
        return Prediction((0.0,), regime,
                          notes=("p < 1: every active harmonic branch starts at 0",))
    c0, c1 = form_constants(n, k, p)
    thresholds = set()
    if betti_number(betti, k) != 0:
        thresholds.add(c0 * c0)
    if betti_number(betti, k - 1) != 0:
        thresholds.add(c1 * c1)
    return Prediction(tuple(sorted(thresholds)), regime,
                      notes=("p = 1: thresholds are the squared harmonic-sector "
                             "constants of the active degrees",))


def magnetic_pure_point(magnetic: MagneticData, n: int, p) -> Prediction:
    """Classification of the magnetic function Laplacian.

    The spectrum is pure point unless the radial coefficient is constant,
    the tangential form is closed, and the flux class is integral; in the
    integral case the essential spectrum matches the flux-free scalar
    Laplacian: [0, oo) for p < 1 and [((n-1)/2)^2, oo) for p = 1.
    """
    p = Fraction(p)
    regime = weyl_regime(n, p)
    trivial = (magnetic.phi0_constant and magnetic.theta0_closed
               and magnetic.flux_is_integral)
    if not trivial:
        why = []
        if not magnetic.phi0_constant:
            why.append("non-constant radial coefficient")
        if not magnetic.theta0_closed:
            why.append("non-closed tangential form")
        if not magnetic.flux_is_integral:
            why.append("non-integral flux")
        return Prediction((), regime, notes=("pure point: " + ", ".join(why),))
    if p > 1:
        return Prediction((), regime, notes=("integral flux, p > 1: discrete spectrum",))
    bottom = 0.0 if p < 1 else ((n - 1) / 2.0) ** 2
    return Prediction((bottom,), regime,
                      notes=("integral flux is gauge-trivial on the end: scalar "
                             "essential spectrum survives",))


def magnetic_schrodinger_bound(cross_section: CrossSection, flux) -> float:
    """Electric-potential margin c > 0 preserved by a non-integral flux.

    Over the radial frequency the normal family is (xi + phi0)^2 plus the
    twisted cross Laplacian; its infimum over xi is attained at xi = -phi0,
    so c is simply the smallest twisted cross-eigenvalue.  Boundary
    potentials with |V0| < c keep the spectrum pure point.
    """
    if all(Fraction(f).denominator == 1 for f in flux):
        raise CriteriaError("bound is zero; criterion vacuous for integral flux")
    c = min_cross_eigenvalue(cross_section, flux)
    if c <= 0:
        raise CriteriaError("twisted cross spectrum touches zero; bound is vacuous")
    return c


# ---------------------------------------------------------------------------
# counting constants
# ---------------------------------------------------------------------------

def vol_sphere(n: int) -> float:
    """Volume of the unit (n-1)-sphere, 2 pi^(n/2) / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def vol_end(n: int, p, y0: float, vol_m: float) -> float:
    """Volume of the end: Vol(M) * Y0^(1-np) / (np - 1), finite for p > 1/n."""
    pf = float(p)
    if n * pf <= 1.0:
        raise CriteriaError("end volume diverges for p <= 1/n")
    return vol_m * y0 ** (1.0 - n * pf) / (n * pf - 1.0)


@dataclass(frozen=True)
class WeylConstants:
    exponent: Optional[float]    # the regime's law: N ~ constant * lambda^exponent
    constant: Optional[float]    # its C1, C2 or C3
    c3_tail: Optional[float]
    notes: tuple


def weyl_constants(config: ProblemConfig) -> WeylConstants:
    """C1/C2/C3 for the counting law in the regime selected by p.

    C1 and C2 depend only on the metric (they ignore flux and potential).
    C3 sums cross-section zeta values at s = (1/p - 1)/2, the exponent the
    mode potential nu y^(2p) produces (see the module docstring); for a
    boundary potential V0 the spectrum is shifted by V0, and for a
    non-integral flux no closed form is certified, so C3 is left to fits.
    """
    n = config.geometry.n
    k = config.degree
    p = config.geometry.p
    cs = config.cross_section
    regime = weyl_regime(n, p)
    notes = []
    c3_tail = constant = None
    binom = math.comb(n, k)

    if regime == POWER_N2:
        exponent = n / 2.0
        constant = (binom * vol_end(n, p, config.geometry.y0, cs.volume)
                    * vol_sphere(n) / (n * (2.0 * math.pi) ** n))
    elif regime == LOG_LAW:
        exponent = n / 2.0
        constant = binom * cs.volume * vol_sphere(n) / (2.0 * (2.0 * math.pi) ** n)
    else:
        pf = float(p)
        exponent = 1.0 / (2.0 * pf)
        s_half = float((Fraction(1, 1) / p - 1) / 2)
        if not s_half > (n - 1) / 2.0:
            raise CriteriaError("zeta argument at or below the convergence abscissa")
        if config.magnetic is not None and not config.magnetic.flux_is_integral:
            notes.append("C3 for non-integral flux is not certified: fit-only")
        else:
            shift = config.potential.v0(p) if config.potential is not None else 0.0
            if shift < 0:
                notes.append("C3 undefined for negative boundary potential: fit-only")
            else:
                pref = (math.gamma((1.0 - pf) / (2.0 * pf))
                        / (2.0 * math.sqrt(math.pi) * math.gamma(1.0 / (2.0 * pf))))
                z = zeta_mod.form_zeta(cs, (k - 1, k), s_half, shift)
                constant, c3_tail = pref * z.value, pref * z.tail
                if shift > 0:
                    notes.append("C3 uses the boundary-potential-shifted cross "
                                 "spectrum (derived interpretation)")
                if config.magnetic is not None:
                    notes.append("integral flux removed by gauge before C3")
    return WeylConstants(exponent=exponent, constant=constant, c3_tail=c3_tail,
                         notes=tuple(notes))


# ---------------------------------------------------------------------------
# composite classification
# ---------------------------------------------------------------------------

def classify(config: ProblemConfig) -> Prediction:
    """Full analytic prediction for a validated config.

    The potential V decides first, by its limit at infinity
    (`reduce.far_field`).  V -> +oo confines every mode, so the spectrum is
    pure point for any degree and any magnetic data.  Otherwise magnetic
    data decides degree 0 (with the |V0| < c margin for non-integral
    flux), and the form-threshold table the rest; a finite limit L of V
    shifts every threshold by L, and V -> -oo is outside the certified
    criteria.
    """
    n = config.geometry.n
    p = config.geometry.p
    k = config.degree
    cs = config.cross_section
    notes = []

    poly = config.potential.poly if config.potential is not None else ()
    v0 = config.potential.v0(p) if config.potential is not None else 0.0
    limit = far_field(poly)

    magnetic = config.magnetic     # only ever set for degree 0
    confined_below = limit == math.inf and not v0 > 0   # by a term below y^(2p) only
    if limit == math.inf:
        why = ("a potential term below y^(2p) grows to +oo and confines every mode"
               if confined_below else
               "boundary potential is nonnegative and somewhere positive")
        base = Prediction((), weyl_regime(n, p), notes=("pure point: " + why,))
    elif magnetic is not None and not magnetic.flux_is_integral:
        # no zero mode: every mode has nu >= c, the margin of the potential
        base = magnetic_pure_point(magnetic, n, p)
        if config.potential is not None:
            c = min_cross_eigenvalue(cs, magnetic.flux)
            if abs(v0) < c:
                notes.append(f"boundary potential within the flux gap |V0| < {c:g}")
            else:
                notes.append("boundary potential exceeds the flux gap; "
                             "classification reflects the potential-free operator")
    else:
        base = (magnetic_pure_point(magnetic, n, p) if magnetic is not None
                else thresholds_forms(n, k, p, cs.betti))
        if limit == -math.inf:
            notes.append("a potential that falls to -oo at infinity is outside the "
                         "certified criteria; the prediction shown is for the "
                         "potential-free operator")
        else:
            # each threshold t becomes the limit of t + V, summed as
            # `reduce.mode_threshold` sums the zero mode's
            base = replace(base, thresholds=tuple(sorted(
                {far_field(((t, 0.0),) + poly) for t in base.thresholds})))
            if limit != 0.0:
                notes.append(f"the potential tends to {limit!r} at infinity and "
                             "shifts every threshold by it")

    consts = (WeylConstants(None, None, None, (
        "the counting law is not certified when only a potential term below "
        "y^(2p) confines the end",)) if confined_below else weyl_constants(config))
    notes.extend(consts.notes)
    if not base.is_pure_point:
        notes.append("counting constants describe the full-manifold asymptotics "
                     "and apply only if the spectrum were discrete")
    return Prediction(
        thresholds=base.thresholds, weyl_regime=base.weyl_regime,
        weyl_exponent=consts.exponent, weyl_constant=consts.constant,
        c3_tail=consts.c3_tail, notes=base.notes + tuple(notes))
