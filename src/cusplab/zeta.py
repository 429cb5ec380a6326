"""Spectral zeta values zeta(D, s) = sum' lambda_j^(-s) with certified tails.

The primed sum runs over the positive spectrum (zero modes excluded); a
non-negative `shift` turns D into D + shift, in which case formerly-zero
modes contribute shift^(-s).  Sums are evaluated by direct block summation
with an integral-comparison tail bound, so every returned value carries an
explicit certificate:  true value in [value, value + tail].

The summation targets tail <= 1e-12 * value within a term budget, but the
tail falls only like R^(d - 2s) in the summation radius R, so near the
abscissa d/2 the target is missed.  The C3 argument s = (1/p - 1)/2 lies
(1/p - n)/2 above it, below 1/2 for 1/(n + 1) < p < 1/n: the tail is 11%
of the value on the square 2-torus of side 2 pi at n = 3, p = 0.3, and
1.1% on the unit 3-torus at n = 4, p = 0.2.  Only [value, value + tail]
is certified; `assemble.weyl_fit` reads all of it.  ROADMAP item 20
sharpens this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .model import CIRCLE, TORUS, CrossSection

#: target relative size of the certified tail
REL_TOL = 1e-12
#: most terms `circle_zeta` sums, and most sup-norm shells `lattice_zeta`
#: visits in dimension 2 and in dimension >= 3; these keep the loops
#: affordable, and a loop cut short still reports an honest tail
CIRCLE_MAX_TERMS = 20_000_000
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

    Convergence needs s > 1/2.  The tail beyond |m| > M is bounded by the
    integral test:  2 (L/2 pi)^(2s) M^(1-2s) / (2s-1).
    """
    _check_args(s, shift, 0.5, "circle zeta")
    if length <= 0:
        raise ZetaError("circle length must be > 0")
    w = (2.0 * math.pi / length) ** 2
    total = shift ** (-s) if shift > 0 else 0.0
    terms = 1 if shift > 0 else 0
    m_done = 0
    block = 4096
    tail = math.inf
    while m_done < CIRCLE_MAX_TERMS:
        hi = min(m_done + block, CIRCLE_MAX_TERMS)
        ms = np.arange(m_done + 1, hi + 1, dtype=float)
        total += 2.0 * float(np.sum((w * ms * ms + shift) ** (-s)))
        terms += 2 * len(ms)
        m_done = hi
        tail = 2.0 * w ** (-s) * m_done ** (1.0 - 2.0 * s) / (2.0 * s - 1.0)
        if tail <= REL_TOL * total:
            break
        block = min(block * 2, 1 << 21)
    return ZetaResult(value=total, tail=tail, terms=terms)


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
    if d == 1:
        # one-dimensional lattices are circles: reuse the block summation
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


def form_zeta(cross_section: CrossSection, degree: int, s: float,
              shift: float = 0.0) -> ZetaResult:
    """Zeta of the degree-`degree` form Laplacian on the cross-section.

    Degrees outside 0..dim have empty spectrum and contribute 0.  On a flat
    torus the form Laplacian acts diagonally on constant-coefficient frames,
    so the degree-j zeta is binom(dim, j) times the function zeta; on the
    circle degrees 0 and 1 share the function spectrum.
    """
    dim = cross_section.dim
    if degree < 0 or degree > dim:
        return ZetaResult(value=0.0, tail=0.0, terms=0)
    if cross_section.kind == CIRCLE:
        return circle_zeta(cross_section.length, s, shift)
    if cross_section.kind == TORUS:
        base = lattice_zeta(cross_section.dual_basis, s, shift)
        mult = math.comb(dim, degree)
        return ZetaResult(value=mult * base.value, tail=mult * base.tail,
                          terms=mult * base.terms)
    return table_zeta(cross_section.tables[degree], s, shift)
