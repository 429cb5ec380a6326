"""Spectral zeta values zeta(D, s) = sum' lambda_j^(-s) with certified tails.

The primed sum runs over the positive spectrum (zero modes excluded); a
non-negative `shift` turns D into D + shift, in which case formerly-zero
modes contribute shift^(-s).  Every value carries an explicit certificate,
true value in [value, value + tail], and `assemble.weyl_fit` reads all of it.

Circles (and one-dimensional lattices) bound their tail in closed form and
always meet tail <= REL_TOL * value.  Lattices keep their shell caps: their
integral-test tail falls only like R^(d - 2s) in the radius R, so near the
abscissa d/2, where the C3 argument s = (1/p - 1)/2 lies for 1/(n + 1) < p
< 1/n, they miss it: the tail is 11% of the value on the square 2-torus of
side 2 pi at n = 3, p = 0.3, and 1.1% on the unit 3-torus at n = 4, p = 0.2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .model import CIRCLE, TABLE, CrossSection

#: target relative size of the certified tail
REL_TOL = 1e-12
#: most sup-norm shells `lattice_zeta` visits in dimension 2 and in dimension
#: >= 3, to keep the loops affordable; a loop cut short reports an honest tail
LATTICE_MAX_RADIUS_2D = 4000
LATTICE_MAX_RADIUS = 300


class ZetaError(ValueError):
    pass


@dataclass(frozen=True)
class ZetaResult:
    value: float
    tail: float
    terms: int


def _check_args(s, shift, abscissa, what):
    if shift < 0:
        raise ZetaError("shift must be >= 0")
    if s <= abscissa:
        raise ZetaError(
            f"{what}: s = {s} is at or below the convergence abscissa {abscissa}")


def circle_zeta(length: float, s: float, shift: float = 0.0) -> ZetaResult:
    """sum over m in Z of ((2 pi m / L)^2 + shift)^(-s), zero modes excluded.

    Convergence needs s > 1/2.  f(x) = (w x^2 + shift)^(-s), w = (2 pi / L)^2,
    is convex where (2s+1) w x^2 >= shift; from there the terms |m| <= M are
    summed, and Hermite-Hadamard with 1 - s u <= (1+u)^(-s) <= 1 bounds the
    rest, with W(x) = w^(-s) x^(1-2s) / (2s-1):

        W(M+1) - s shift w^(-s-1) (M+1)^(-1-2s) / (2s+1) + f(M+1) / 2
            <= sum_{m > M} f(m) <= W(M + 1/2).

    `value` adds the lower end on both sides and `tail` is twice the width;
    M doubles until tail <= REL_TOL * value.
    """
    _check_args(s, shift, 0.5, "circle zeta")
    if length <= 0:
        raise ZetaError("circle length must be > 0")
    w = (2.0 * math.pi / length) ** 2
    total = shift ** (-s) if shift > 0 else 0.0
    m_done, m = 0, max(1, math.ceil(math.sqrt(shift / ((2.0 * s + 1.0) * w))))
    while True:
        ms = np.arange(m_done + 1, m + 1, dtype=float)
        total += 2.0 * float(np.sum((w * ms * ms + shift) ** (-s)))
        x = m + 1.0
        far = w ** (-s) * x ** (1.0 - 2.0 * s) / (2.0 * s - 1.0)          # W(M+1)
        near = far * math.expm1((1.0 - 2.0 * s) * math.log1p(-0.5 / x))  # W(M+1/2) - W(M+1)
        bend = s * shift * w ** (-s - 1.0) * x ** (-1.0 - 2.0 * s) / (2.0 * s + 1.0)
        half = 0.5 * (w * x * x + shift) ** (-s)
        value = total + 2.0 * (far - bend + half)
        # near + bend - half cancels: 32 ulps of its parts outweigh its roundings
        tail = 2.0 * (near + bend - half + 32 * math.ulp(1.0) * (near + bend + half))
        if not tail > REL_TOL * value:      # a nan from s = inf stops here too
            return ZetaResult(value=value, tail=tail, terms=2 * m + (1 if shift > 0 else 0))
        m_done, m = m, 2 * m


def _shell(r: int, d: int) -> np.ndarray:
    """Integer points with sup-norm exactly r, each listed once."""
    if r == 0:
        return np.zeros((1, d), dtype=np.int64)
    faces = []
    for axis in range(d):
        spans = []
        for b in range(d):
            if b < axis:
                spans.append(np.arange(-r, r + 1))
            elif b > axis:
                spans.append(np.arange(-r + 1, r))
            else:
                spans.append(np.array([-r, r]))
        grids = np.meshgrid(*spans, indexing="ij")
        faces.append(np.stack([g.ravel() for g in grids], axis=1))
    return np.concatenate(faces, axis=0)


def lattice_zeta(dual_basis, s: float, shift: float = 0.0) -> ZetaResult:
    """sum over m in Z^d of (|2 pi B* m|^2 + shift)^(-s), zero modes excluded.

    Summation proceeds over sup-norm shells; the tail after radius R uses
    |2 pi B* m| >= sigma_min |m|_2 >= sigma_min |m|_inf and the shell count
    bound (2r+1)^d - (2r-1)^d <= 2 d (3r)^(d-1), giving

        tail <= 2 d 3^(d-1) sigma_min^(-2s) R^(d-2s) / (2s - d).
    """
    basis = 2.0 * math.pi * np.asarray(dual_basis, dtype=float)
    d = basis.shape[0]
    if basis.shape != (d, d):
        raise ZetaError("dual basis must be square")
    _check_args(s, shift, d / 2.0, "lattice zeta")
    sigma_min = float(np.linalg.svd(basis, compute_uv=False)[-1])
    if sigma_min <= 0:
        raise ZetaError("degenerate lattice: dual basis has determinant 0")
    if d == 1:      # a one-dimensional lattice is a circle
        return circle_zeta(2.0 * math.pi / abs(float(basis[0, 0])), s, shift)
    max_radius = LATTICE_MAX_RADIUS_2D if d == 2 else LATTICE_MAX_RADIUS

    total = shift ** (-s) if shift > 0 else 0.0
    terms = 1 if shift > 0 else 0
    tail = math.inf
    for r in range(1, max_radius + 1):
        pts = _shell(r, d).astype(float) @ basis.T
        total += float(np.sum((np.einsum("ij,ij->i", pts, pts) + shift) ** (-s)))
        terms += pts.shape[0]
        tail = (2.0 * d * 3.0 ** (d - 1) * sigma_min ** (-2.0 * s)
                * r ** (d - 2.0 * s) / (2.0 * s - d))
        if tail <= REL_TOL * total:
            break
    return ZetaResult(value=total, tail=tail, terms=terms)


def table_zeta(table, s: float, shift: float = 0.0) -> ZetaResult:
    """Zeta of an explicit (eigenvalue, multiplicity) table.

    The table is taken to be the complete positive spectrum, so the tail is
    zero; truncation error of a user-supplied table is the caller's burden.
    """
    _check_args(s, shift, 0.0, "table zeta")
    total = 0.0
    terms = 0
    for e, mult in table:
        x = float(e) + shift
        if x <= 0.0:
            continue
        total += mult * x ** (-s)
        terms += mult
    if terms == 0:
        raise ZetaError("empty positive spectrum: no terms to sum")
    return ZetaResult(value=total, tail=0.0, terms=terms)


def form_zeta(cross_section: CrossSection, degrees, s: float,
              shift: float = 0.0) -> ZetaResult:
    """Zeta of the form Laplacians of `degrees` on the cross-section, summed.

    Degrees outside 0..dim contribute 0.  A flat torus's form Laplacian acts
    diagonally on constant frames, so its (and a circle's) degree-j zeta is
    binom(dim, j) times the function zeta, which is summed once.
    """
    dim = cross_section.dim
    degrees = [j for j in degrees if 0 <= j <= dim]
    parts = []     # (multiplicity, zeta) per degree, added in order
    if cross_section.kind == TABLE:
        parts = [(1, table_zeta(cross_section.tables[j], s, shift)) for j in degrees]
    elif degrees:
        base = (circle_zeta(cross_section.length, s, shift) if cross_section.kind == CIRCLE
                else lattice_zeta(cross_section.dual_basis, s, shift))
        parts = [(math.comb(dim, j), base) for j in degrees]
    return ZetaResult(value=sum((c * z.value for c, z in parts), 0.0),
                      tail=sum((c * z.tail for c, z in parts), 0.0),
                      terms=sum(c * z.terms for c, z in parts))
