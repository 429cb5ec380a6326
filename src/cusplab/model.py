"""Domain types and configuration for one cusp-end spectral problem.

A problem is the metric end  [Y0, oo) x M  carrying the warped metric
g = y^(-2p) (dy^2 + h),  together with a form degree k, optional magnetic
data (an Aharonov-Bohm flux on M plus a radial connection coefficient) and
an optional radial electric potential.  The cross-section M enters only
through its spectral data: Betti numbers, volume, and the eigenvalues of
its (flux-twisted) Laplacians.

Everything here is plain data, and configs are immutable after validation.
The text format is line-oriented ``key = value`` with dotted section names;
see `parse_config`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence


class ConfigError(ValueError):
    """Rejected configuration.  Message names the violated invariant."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _as_fraction(x) -> Fraction:
    """Exact rational from user input.  Decimal strings stay exact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(x)


def _fraction_str(x: Fraction) -> str:
    """Decimal rendering of a parse-produced fraction (denominator 2^a 5^b)."""
    den = x.denominator
    if den == 1:
        return str(x.numerator)
    k2 = k5 = 0
    d = den
    while d % 2 == 0:
        d //= 2
        k2 += 1
    while d % 5 == 0:
        d //= 5
        k5 += 1
    if d != 1:
        # Not a terminating decimal; fall back to float repr (round-trips).
        return repr(float(x))
    shift = max(k2, k5)
    scaled = x.numerator * 10**shift // den
    s = str(abs(scaled)).rjust(shift + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{s[:-shift]}.{s[-shift:]}" if shift else f"{sign}{s}"


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EndGeometry:
    """The end [Y0, oo) of an n-manifold with metric y^(-2p)(dy^2 + h).

    p is kept as an exact rational so regime comparisons (p = 1, p = 1/n)
    never hinge on floating-point round-off.
    """

    n: int
    p: Fraction
    y0: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "p", _as_fraction(self.p))
        if self.n < 2:
            raise ConfigError("invariant violated: dimension n must be >= 2")
        if self.p <= 0:
            raise ConfigError("invariant violated: exponent p must be > 0")
        if self.y0 < 1.0:
            raise ConfigError("invariant violated: inner radius Y0 must be >= 1")

    @property
    def pf(self) -> float:
        return float(self.p)

    @property
    def complete(self) -> bool:
        """The metric is complete exactly when p <= 1."""
        return self.p <= 1


# ---------------------------------------------------------------------------
# cross-section
# ---------------------------------------------------------------------------

CIRCLE = "circle"
TORUS = "torus"
TABLE = "table"


@dataclass(frozen=True)
class CrossSection:
    """Spectral model of the closed (n-1)-manifold M.

    kind = "circle": one circle of circumference `length`.
    kind = "torus":  flat torus given by a dual-lattice basis (rows of
                     `dual_basis`); function eigenvalues are |2 pi B* m|^2.
    kind = "table":  explicit per-degree (eigenvalue, multiplicity) tables.

    `betti` lists h^0 .. h^(dim); `volume` is Vol(M, h).
    """

    kind: str
    dim: int
    betti: tuple
    volume: float
    length: Optional[float] = None
    dual_basis: Optional[tuple] = None
    tables: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in (CIRCLE, TORUS, TABLE):
            raise ConfigError(f"unknown cross-section kind {self.kind!r}")
        if len(self.betti) != self.dim + 1:
            raise ConfigError(
                "invariant violated: betti must list h^0..h^dim "
                f"({self.dim + 1} numbers, got {len(self.betti)})")
        if any((not isinstance(b, int)) or b < 0 for b in self.betti):
            raise ConfigError("invariant violated: Betti numbers are non-negative integers")
        if not (self.volume > 0):
            raise ConfigError("invariant violated: cross-section volume must be > 0")
        if self.kind == CIRCLE:
            if self.dim != 1:
                raise ConfigError("invariant violated: a circle cross-section has dim 1")
            if self.length is None or self.length <= 0:
                raise ConfigError("invariant violated: circle needs length > 0")
        if self.kind == TORUS:
            if self.dual_basis is None:
                raise ConfigError("torus cross-section needs a dual-lattice basis")
            rows = self.dual_basis
            if len(rows) != self.dim or any(len(r) != self.dim for r in rows):
                raise ConfigError("dual-lattice basis must be a square (dim x dim) matrix")
            if abs(_det(rows)) < 1e-300:
                raise ConfigError("degenerate lattice: dual basis has determinant 0")
        if self.kind == TABLE:
            if self.tables is None or len(self.tables) != self.dim + 1:
                raise ConfigError("table cross-section needs one eigenvalue table per degree 0..dim")
            for j, tab in enumerate(self.tables):
                eigs = [e for e, _ in tab]
                if any(e < 0 for e in eigs):
                    raise ConfigError(f"invariant violated: degree-{j} eigenvalues must be >= 0")
                if eigs != sorted(eigs):
                    raise ConfigError(f"invariant violated: degree-{j} eigenvalue table must be sorted")
                if any(m < 1 for _, m in tab):
                    raise ConfigError(f"invariant violated: degree-{j} multiplicities must be >= 1")
                zero_mult = sum(m for e, m in tab if e == 0.0)
                if zero_mult != self.betti[j]:
                    raise ConfigError(
                        "invariant violated: multiplicity of eigenvalue 0 in degree "
                        f"{j} is {zero_mult}, expected betti[{j}] = {self.betti[j]}")

    def betti_at(self, j: int) -> int:
        """h^j(M), with degrees outside 0..dim counting as 0."""
        if 0 <= j <= self.dim:
            return self.betti[j]
        return 0

    @property
    def b1(self) -> int:
        return self.betti_at(1)


def _det(rows) -> float:
    n = len(rows)
    a = [list(map(float, r)) for r in rows]
    det = 1.0
    for i in range(n):
        piv = max(range(i, n), key=lambda r: abs(a[r][i]))
        if abs(a[piv][i]) == 0.0:
            return 0.0
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            for c in range(i, n):
                a[r][c] -= f * a[i][c]
    return det


def builtin_cross_section(name: str, **params) -> CrossSection:
    """Construct one of the built-in cross-sections.

    circle(length)                  -- betti (1, 1), volume = length
    square_torus(side, dim)         -- side-length s torus, dual basis I/s
    lattice_torus(dual_basis, dim)  -- explicit dual-lattice rows
    table(dim, betti, volume, tables)
    """
    if name == "circle":
        length = float(params.get("length", 2 * math.pi))
        return CrossSection(kind=CIRCLE, dim=1, betti=(1, 1), volume=length, length=length)
    if name == "square_torus":
        dim = int(params.get("dim", 2))
        side = float(params.get("side", 2 * math.pi))
        if side <= 0:
            raise ConfigError("square torus needs side > 0")
        basis = tuple(tuple(1.0 / side if i == j else 0.0 for j in range(dim))
                      for i in range(dim))
        betti = tuple(math.comb(dim, j) for j in range(dim + 1))
        return CrossSection(kind=TORUS, dim=dim, betti=betti, volume=side**dim,
                            dual_basis=basis)
    if name == "lattice_torus":
        basis = tuple(tuple(float(x) for x in row) for row in params["dual_basis"])
        dim = len(basis)
        det = _det(basis)
        if abs(det) < 1e-300:
            raise ConfigError("degenerate lattice: dual basis has determinant 0")
        betti = tuple(math.comb(dim, j) for j in range(dim + 1))
        volume = params.get("volume")
        if volume is None:
            volume = 1.0 / abs(det)
        return CrossSection(kind=TORUS, dim=dim, betti=betti, volume=float(volume),
                            dual_basis=basis)
    if name == "table":
        tables = tuple(tuple((float(e), int(m)) for e, m in tab) for tab in params["tables"])
        betti = tuple(int(b) for b in params["betti"])
        return CrossSection(kind=TABLE, dim=len(betti) - 1, betti=betti,
                            volume=float(params["volume"]), tables=tables)
    raise ConfigError(f"unknown cross-section name {name!r}")


# ---------------------------------------------------------------------------
# magnetic and potential data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MagneticData:
    """Aharonov-Bohm data on the end.

    `flux` is the class of the tangential connection form in units where the
    integral lattice is exactly Z^b1; entries are exact rationals so the
    integrality predicate is arithmetic, not a float comparison.  `phi0` is
    the constant radial coefficient; it is pure gauge, so the numerics
    ignore it.  A non-constant radial coefficient or a non-closed tangential
    form is outside the numerically modelled class: `reduce.enumerate_modes`
    refuses it, while the analytic criteria still classify it.
    """

    flux: tuple
    phi0: float = 0.0
    phi0_constant: bool = True
    theta0_closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "flux", tuple(_as_fraction(f) for f in self.flux))

    @property
    def flux_is_integral(self) -> bool:
        return all(f.denominator == 1 for f in self.flux)

    def shifted(self, shift: Sequence[int]) -> "MagneticData":
        """Equivalent data with flux translated by an integer vector."""
        if len(shift) != len(self.flux):
            raise ConfigError("flux shift has wrong length")
        return replace(self, flux=tuple(f + int(s) for f, s in zip(self.flux, shift)))


@dataclass(frozen=True)
class RadialPotential:
    """Radial electric potential V(y) = sum_j a_j y^(b_j) + optional bump.

    The admissible class is bounded multiples of y^(2p); the coefficient of
    y^(2p) is the boundary value V0 that decides the pure-point criteria.
    The bump (center, width, height) is the usual smooth compactly supported
    mollifier on [center - width, center + width].
    """

    poly: tuple = ()
    bump: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "poly",
                           tuple((float(a), float(b)) for a, b in self.poly))
        if self.bump is not None:
            c, w, h = self.bump
            if w <= 0:
                raise ConfigError("invariant violated: bump width must be > 0")
            object.__setattr__(self, "bump", (float(c), float(w), float(h)))

    def validate_for(self, p: Fraction):
        two_p = 2 * float(p)
        for _, b in self.poly:
            if b > two_p + 1e-12:
                raise ConfigError(
                    "invariant violated: potential exponent "
                    f"{b} exceeds 2p = {two_p} (V must be O(y^2p))")

    def v0(self, p: Fraction) -> float:
        """Coefficient of y^(2p): the boundary value of y^(-2p) V."""
        two_p = 2 * float(p)
        return sum(a for a, b in self.poly if abs(b - two_p) <= 1e-12)

    def __call__(self, y):
        return potential_values(y, self.poly, self.bump)

    @property
    def is_zero(self) -> bool:
        return not self.poly and self.bump is None


def potential_values(y, terms, bump):
    """sum_j a_j y^(b_j) + bump(y), added left to right onto zero.

    Every radial potential is evaluated here, so one term order fixes the
    rounding of every assembled pencil.
    """
    import numpy as np

    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    for a, b in terms:
        out += a * y**b
    if bump is not None:
        out += bump_values(y, bump)
    return out


def bump_values(y, bump):
    """Smooth bump h * exp(1 - 1/(1-t^2)), t = (y-c)/w, supported on |t| < 1."""
    import numpy as np

    c, w, h = bump
    y = np.asarray(y, dtype=float)
    t = (y - c) / w
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = h * np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


# ---------------------------------------------------------------------------
# numerics block
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Numerics:
    """Discretization controls.

    grids       mesh cells on the first (shortest) domain; cells scale with
                the domain so the mesh width is fixed per grid level and
                successive domains nest node-for-node.
    domains     transformed-variable lengths: z-interval lengths for p <= 1;
                for p > 1 a domain T truncates at Ymax = Y0 * e^T.
    lambda_grid (lo, hi, count) spectral-parameter grid, linear by default.
    """

    grids: tuple = (1000, 2000)
    domains: tuple = (8.0, 16.0, 32.0)
    tol: float = 1e-8
    lambda_grid: tuple = (0.05, 0.5, 46)
    lambda_scale: str = "lin"
    lambda_max: float = 1.0
    mode_cap: int = 600
    rho_min_factor: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "grids", tuple(int(g) for g in self.grids))
        object.__setattr__(self, "domains", tuple(float(d) for d in self.domains))
        lo, hi, cnt = self.lambda_grid
        object.__setattr__(self, "lambda_grid", (float(lo), float(hi), int(cnt)))
        if any(g < 4 for g in self.grids):
            raise ConfigError("invariant violated: each grid needs at least 4 cells")
        if any(d <= 0 for d in self.domains):
            raise ConfigError("invariant violated: domain lengths must be > 0")
        if list(self.domains) != sorted(self.domains):
            raise ConfigError("invariant violated: domain lengths must be increasing")
        if self.tol <= 0:
            raise ConfigError("invariant violated: tolerance must be > 0")
        if self.lambda_scale not in ("lin", "log"):
            raise ConfigError("numerics.lambda_scale must be 'lin' or 'log'")
        if not (lo < hi) or cnt < 2:
            raise ConfigError("invariant violated: lambda grid needs lo < hi and count >= 2")
        if self.lambda_scale == "log" and lo <= 0:
            raise ConfigError("invariant violated: log lambda grid needs lo > 0")

    def lambdas(self):
        import numpy as np

        lo, hi, cnt = self.lambda_grid
        if self.lambda_scale == "log":
            return np.geomspace(lo, hi, cnt)
        return np.linspace(lo, hi, cnt)


# ---------------------------------------------------------------------------
# the full problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemConfig:
    """One validated spectral problem.  Immutable after construction."""

    geometry: EndGeometry
    cross_section: CrossSection
    degree: int = 0
    magnetic: Optional[MagneticData] = None
    potential: Optional[RadialPotential] = None
    numerics: Numerics = field(default_factory=Numerics)
    orientable: Optional[bool] = None
    h1_x: Optional[int] = None
    zeta_s: Optional[float] = None
    zeta_shift: float = 0.0
    check_y0: Optional[tuple] = None
    check_bump: Optional[tuple] = None

    def __post_init__(self):
        n = self.geometry.n
        cs = self.cross_section
        if cs.dim != n - 1:
            raise ConfigError(
                f"invariant violated: cross-section dimension {cs.dim} "
                f"must equal n - 1 = {n - 1}")
        if not (0 <= self.degree <= n):
            raise ConfigError(f"invariant violated: degree k must lie in 0..{n}")
        if self.magnetic is not None:
            if self.degree != 0:
                raise ConfigError("magnetic data requires k=0")
            if len(self.magnetic.flux) != cs.b1:
                raise ConfigError(
                    f"invariant violated: flux vector length {len(self.magnetic.flux)} "
                    f"must equal b1(M) = {cs.b1}")
        if self.potential is not None:
            self.potential.validate_for(self.geometry.p)
        # Topology consistency: in dimension 3 an orientable X with H^1(X) = 0
        # forces h^1(M) = 0 (Poincare duality plus the long exact sequence of
        # the pair), so the combination below cannot describe any manifold.
        if (n == 3 and self.orientable is True and self.h1_x == 0
                and cs.betti_at(1) != 0):
            raise ConfigError(
                "inconsistent topology: dim X = 3 with X orientable and "
                "H1(X) = 0 forces h1(M) = 0, but the cross-section has "
                f"h1 = {cs.betti_at(1)}; these assumptions cannot be "
                "simultaneously fulfilled")
        if self.check_y0 is not None:
            object.__setattr__(self, "check_y0", tuple(float(v) for v in self.check_y0))
            if any(v < 1.0 for v in self.check_y0):
                raise ConfigError("invariant violated: checks.y0 values must be >= 1")
        if self.check_bump is not None:
            c, w, h = self.check_bump
            object.__setattr__(self, "check_bump", (float(c), float(w), float(h)))

    def with_y0(self, y0: float) -> "ProblemConfig":
        return replace(self, geometry=replace(self.geometry, y0=float(y0)))

    def with_bump(self, bump) -> "ProblemConfig":
        pot = self.potential if self.potential is not None else RadialPotential()
        return replace(self, potential=replace(pot, bump=tuple(bump) if bump else None))

    def with_flux(self, flux) -> "ProblemConfig":
        if self.magnetic is None:
            return replace(self, magnetic=MagneticData(flux=tuple(flux)))
        return replace(self, magnetic=replace(self.magnetic, flux=tuple(flux)))


# ---------------------------------------------------------------------------
# parsing / rendering
# ---------------------------------------------------------------------------

_BOOL = {"true": True, "false": False}

# Every key the parser accepts; anything else is an error.
_KNOWN_KEYS = {
    "geometry.n", "geometry.p", "geometry.y0",
    "cross_section.kind", "cross_section.length", "cross_section.side",
    "cross_section.dim", "cross_section.dual_basis", "cross_section.volume",
    "cross_section.betti",
    "degree",
    "magnetic.flux", "magnetic.phi0", "magnetic.phi0_constant",
    "magnetic.theta0_closed",
    "potential.poly", "potential.bump",
    "topology.orientable", "topology.h1_x",
    "numerics.grid", "numerics.domain_z", "numerics.tol",
    "numerics.lambda_grid", "numerics.lambda_scale", "numerics.lambda_max",
    "numerics.mode_cap", "numerics.rho_min_factor",
    "zeta.s", "zeta.shift",
    "checks.y0", "checks.bump",
}

# Table cross-sections also take one key per degree j = 0..dim; the
# degrees are checked once the dimension is known.
_TABLE_PREFIX = "cross_section.eigenvalues."


def _parse_float(tok: str, line: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ConfigError(f"expected a decimal number, got {tok!r}", line)


def _parse_int(tok: str, line: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ConfigError(f"expected an integer, got {tok!r}", line)


def _parse_exact(tok: str, line: int) -> Fraction:
    """Exact rational from a decimal token (no slash-rationals, per format)."""
    tok = tok.strip()
    if "/" in tok:
        raise ConfigError(f"expected a decimal number, got {tok!r}", line)
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"expected a decimal number, got {tok!r}", line)


def _parse_bool(tok: str, line: int) -> bool:
    try:
        return _BOOL[tok.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected true/false, got {tok!r}", line)


def _parse_pairs(tok: str, line: int):
    """Parse '(a,b);(c,d);...' pair lists."""
    out = []
    for piece in tok.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        if not (piece.startswith("(") and piece.endswith(")")):
            raise ConfigError(f"expected '(a,b)' pairs separated by ';', got {piece!r}", line)
        inner = piece[1:-1].split(",")
        if len(inner) != 2:
            raise ConfigError(f"pair {piece!r} must have exactly two entries", line)
        out.append((_parse_float(inner[0], line), _parse_float(inner[1], line)))
    return out


def parse_config(text: str) -> ProblemConfig:
    """Parse and fully validate a config document.

    Raises ConfigError with a line number for syntax problems and with the
    violated invariant named for semantic ones.
    """
    raw = {}
    lines = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", ln)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS and not key.startswith(_TABLE_PREFIX):
            raise ConfigError(f"unknown key {key!r}", ln)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", ln)
        raw[key] = value
        lines[key] = ln

    def need(key):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")
        return raw[key]

    def line(key):
        return lines.get(key)

    n = _parse_int(need("geometry.n"), line("geometry.n"))
    p = _parse_exact(need("geometry.p"), line("geometry.p"))
    y0 = _parse_float(raw.get("geometry.y0", "1.0"), line("geometry.y0"))
    geometry = EndGeometry(n=n, p=p, y0=y0)

    kind = need("cross_section.kind")
    if kind == "circle":
        cs = builtin_cross_section(
            "circle", length=_parse_float(need("cross_section.length"),
                                          line("cross_section.length")))
    elif kind == "square_torus":
        cs = builtin_cross_section(
            "square_torus",
            side=_parse_float(need("cross_section.side"), line("cross_section.side")),
            dim=_parse_int(raw.get("cross_section.dim", str(n - 1)),
                           line("cross_section.dim")))
    elif kind == "lattice_torus":
        rows = []
        ln = line("cross_section.dual_basis")
        for row in need("cross_section.dual_basis").split(";"):
            rows.append([_parse_float(x, ln) for x in row.split(",")])
        vol = None
        if "cross_section.volume" in raw:
            vol = _parse_float(raw["cross_section.volume"], line("cross_section.volume"))
        cs = builtin_cross_section("lattice_torus", dual_basis=rows, volume=vol)
    elif kind == "table":
        ln = line("cross_section.betti")
        betti = [_parse_int(b, ln) for b in need("cross_section.betti").split(",")]
        tables = []
        for j in range(len(betti)):
            key = f"{_TABLE_PREFIX}{j}"
            if key not in raw:
                raise ConfigError(f"missing required key {key!r} for table cross-section")
            tables.append([(e, int(m)) for e, m in _parse_pairs(raw[key], lines[key])])
        cs = builtin_cross_section(
            "table", betti=betti, tables=tables,
            volume=_parse_float(need("cross_section.volume"), line("cross_section.volume")))
    else:
        raise ConfigError(f"unknown cross-section kind {kind!r}", line("cross_section.kind"))
    table_keys = ({f"{_TABLE_PREFIX}{j}" for j in range(cs.dim + 1)}
                  if cs.kind == TABLE else set())
    for key in raw:
        if key.startswith(_TABLE_PREFIX) and key not in table_keys:
            where = (f"degrees 0..{cs.dim}" if cs.kind == TABLE
                     else "table cross-sections only")
            raise ConfigError(f"unknown key {key!r} (eigenvalue tables: {where})",
                              lines[key])

    degree = _parse_int(raw.get("degree", "0"), line("degree"))

    magnetic = None
    if any(k.startswith("magnetic.") for k in raw):
        ln = line("magnetic.flux")
        flux_tok = need("magnetic.flux")
        flux = tuple(_parse_exact(t, ln) for t in flux_tok.split(","))
        magnetic = MagneticData(
            flux=flux,
            phi0=_parse_float(raw.get("magnetic.phi0", "0.0"), line("magnetic.phi0")),
            phi0_constant=_parse_bool(raw.get("magnetic.phi0_constant", "true"),
                                      line("magnetic.phi0_constant")),
            theta0_closed=_parse_bool(raw.get("magnetic.theta0_closed", "true"),
                                      line("magnetic.theta0_closed")))

    potential = None
    if any(k.startswith("potential.") for k in raw):
        poly = ()
        bump = None
        if "potential.poly" in raw:
            poly = tuple(_parse_pairs(raw["potential.poly"], lines["potential.poly"]))
        if "potential.bump" in raw:
            ln = lines["potential.bump"]
            vals = [_parse_float(t, ln) for t in raw["potential.bump"].split(",")]
            if len(vals) != 3:
                raise ConfigError("potential.bump needs center,width,height", ln)
            bump = tuple(vals)
        potential = RadialPotential(poly=poly, bump=bump)

    num_kwargs = {}
    if "numerics.grid" in raw:
        ln = lines["numerics.grid"]
        num_kwargs["grids"] = tuple(_parse_int(t, ln) for t in raw["numerics.grid"].split(","))
    if "numerics.domain_z" in raw:
        ln = lines["numerics.domain_z"]
        num_kwargs["domains"] = tuple(_parse_float(t, ln)
                                      for t in raw["numerics.domain_z"].split(","))
    if "numerics.tol" in raw:
        num_kwargs["tol"] = _parse_float(raw["numerics.tol"], lines["numerics.tol"])
    if "numerics.lambda_grid" in raw:
        ln = lines["numerics.lambda_grid"]
        vals = raw["numerics.lambda_grid"].split(",")
        if len(vals) != 3:
            raise ConfigError("numerics.lambda_grid needs lo,hi,count", ln)
        num_kwargs["lambda_grid"] = (_parse_float(vals[0], ln), _parse_float(vals[1], ln),
                                     _parse_int(vals[2], ln))
    if "numerics.lambda_scale" in raw:
        num_kwargs["lambda_scale"] = raw["numerics.lambda_scale"]
    if "numerics.lambda_max" in raw:
        num_kwargs["lambda_max"] = _parse_float(raw["numerics.lambda_max"],
                                                lines["numerics.lambda_max"])
    if "numerics.mode_cap" in raw:
        num_kwargs["mode_cap"] = _parse_int(raw["numerics.mode_cap"],
                                            lines["numerics.mode_cap"])
    if "numerics.rho_min_factor" in raw:
        num_kwargs["rho_min_factor"] = _parse_float(raw["numerics.rho_min_factor"],
                                                    lines["numerics.rho_min_factor"])
    numerics = Numerics(**num_kwargs)

    orientable = None
    if "topology.orientable" in raw:
        orientable = _parse_bool(raw["topology.orientable"], lines["topology.orientable"])
    h1_x = None
    if "topology.h1_x" in raw:
        h1_x = _parse_int(raw["topology.h1_x"], lines["topology.h1_x"])

    zeta_s = None
    if "zeta.s" in raw:
        zeta_s = _parse_float(raw["zeta.s"], lines["zeta.s"])
    zeta_shift = _parse_float(raw.get("zeta.shift", "0.0"), line("zeta.shift"))

    check_y0 = None
    if "checks.y0" in raw:
        ln = lines["checks.y0"]
        check_y0 = tuple(_parse_float(t, ln) for t in raw["checks.y0"].split(","))
    check_bump = None
    if "checks.bump" in raw:
        ln = lines["checks.bump"]
        vals = [_parse_float(t, ln) for t in raw["checks.bump"].split(",")]
        if len(vals) != 3:
            raise ConfigError("checks.bump needs center,width,height", ln)
        check_bump = tuple(vals)

    return ProblemConfig(
        geometry=geometry, cross_section=cs, degree=degree, magnetic=magnetic,
        potential=potential, numerics=numerics, orientable=orientable, h1_x=h1_x,
        zeta_s=zeta_s, zeta_shift=zeta_shift, check_y0=check_y0, check_bump=check_bump)


def render_config(config: ProblemConfig) -> str:
    """Serialize a config so that parse_config(render_config(c)) == c.

    All defaulted fields are written out explicitly, so the rendered text is
    also the record of the defaults in force.
    """
    g = config.geometry
    cs = config.cross_section
    out = [
        f"geometry.n = {g.n}",
        f"geometry.p = {_fraction_str(g.p)}",
        f"geometry.y0 = {g.y0!r}",
    ]
    if cs.kind == CIRCLE:
        out += ["cross_section.kind = circle",
                f"cross_section.length = {cs.length!r}"]
    elif cs.kind == TORUS:
        rows = ";".join(",".join(repr(x) for x in row) for row in cs.dual_basis)
        out += ["cross_section.kind = lattice_torus",
                f"cross_section.dual_basis = {rows}",
                f"cross_section.volume = {cs.volume!r}"]
    else:
        out += ["cross_section.kind = table",
                f"cross_section.volume = {cs.volume!r}",
                "cross_section.betti = " + ",".join(str(b) for b in cs.betti)]
        for j, tab in enumerate(cs.tables):
            pairs = ";".join(f"({e!r},{m})" for e, m in tab)
            out.append(f"cross_section.eigenvalues.{j} = {pairs}")
    out.append(f"degree = {config.degree}")
    if config.magnetic is not None:
        m = config.magnetic
        out += ["magnetic.flux = " + ",".join(_fraction_str(f) for f in m.flux),
                f"magnetic.phi0 = {m.phi0!r}",
                f"magnetic.phi0_constant = {str(m.phi0_constant).lower()}",
                f"magnetic.theta0_closed = {str(m.theta0_closed).lower()}"]
    if config.potential is not None:
        pot = config.potential
        if pot.poly:
            out.append("potential.poly = "
                       + ";".join(f"({a!r},{b!r})" for a, b in pot.poly))
        if pot.bump is not None:
            out.append("potential.bump = " + ",".join(repr(v) for v in pot.bump))
        if not pot.poly and pot.bump is None:
            out.append("potential.poly = ")
    num = config.numerics
    out += [
        "numerics.grid = " + ",".join(str(gr) for gr in num.grids),
        "numerics.domain_z = " + ",".join(repr(d) for d in num.domains),
        f"numerics.tol = {num.tol!r}",
        "numerics.lambda_grid = " + ",".join(
            [repr(num.lambda_grid[0]), repr(num.lambda_grid[1]), str(num.lambda_grid[2])]),
        f"numerics.lambda_scale = {num.lambda_scale}",
        f"numerics.lambda_max = {num.lambda_max!r}",
        f"numerics.mode_cap = {num.mode_cap}",
        f"numerics.rho_min_factor = {num.rho_min_factor!r}",
    ]
    if config.orientable is not None:
        out.append(f"topology.orientable = {str(config.orientable).lower()}")
    if config.h1_x is not None:
        out.append(f"topology.h1_x = {config.h1_x}")
    if config.zeta_s is not None:
        out.append(f"zeta.s = {config.zeta_s!r}")
    if config.zeta_shift != 0.0:
        out.append(f"zeta.shift = {config.zeta_shift!r}")
    if config.check_y0 is not None:
        out.append("checks.y0 = " + ",".join(repr(v) for v in config.check_y0))
    if config.check_bump is not None:
        out.append("checks.bump = " + ",".join(repr(v) for v in config.check_bump))
    return "\n".join(out) + "\n"
