"""Domain types and configuration for one cusp-end spectral problem.

A problem is the metric end  [Y0, oo) x M  carrying the warped metric
g = y^(-2p) (dy^2 + h),  together with a form degree k, optional magnetic
data (an Aharonov-Bohm flux on M plus a radial connection coefficient) and
an optional radial electric potential.  The cross-section M enters only
through its spectral data: Betti numbers, volume, and the eigenvalues of
its (flux-twisted) Laplacians.

Everything here is plain data, and configs are immutable after validation.
`parse_config` reads the line-oriented ``key = value`` text format with
dotted section names; nothing in the package writes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np


class ConfigError(ValueError):
    """Rejected configuration.  Message names the violated invariant."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


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
        object.__setattr__(self, "p", Fraction(self.p))
        _check_domains(self)

    @property
    def pf(self) -> float:
        return float(self.p)


# ---------------------------------------------------------------------------
# cross-section
# ---------------------------------------------------------------------------

CIRCLE = "circle"
TORUS = "lattice_torus"
TABLE = "table"


def betti_number(betti: Sequence[int], j: int) -> int:
    """h^j of the Betti numbers (h^0, h^1, ...); degrees outside them count as 0."""
    return betti[j] if 0 <= j < len(betti) else 0


@dataclass(frozen=True)
class CrossSection:
    """Spectral model of the closed (n-1)-manifold M.

    kind = "circle":        one circle of circumference `length`.
    kind = "lattice_torus": flat torus given by a dual-lattice basis (rows of
                            `dual_basis`); function eigenvalues are |2 pi B* m|^2.
    kind = "table":         explicit per-degree (eigenvalue, multiplicity) tables.

    A config's square_torus builds a lattice_torus.

    `betti` lists h^0 .. h^(dim) and `volume` is Vol(M, h); both are derived
    by `builtin_cross_section` except a table's volume.
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
        if not (self.volume > 0):
            raise ConfigError("invariant violated: cross-section volume must be > 0")
        if self.kind == CIRCLE:
            if self.dim != 1:
                raise ConfigError("invariant violated: a circle cross-section has dim 1")
            if self.length is None or self.length <= 0:
                raise ConfigError("invariant violated: circle needs length > 0")
        if self.kind == TABLE:
            for j, tab in enumerate(self.tables):
                eigs = [e for e, _ in tab]
                if any(e < 0 for e in eigs):
                    raise ConfigError(f"invariant violated: degree-{j} eigenvalues must be >= 0")
                if eigs != sorted(eigs):
                    raise ConfigError(f"invariant violated: degree-{j} eigenvalue table must be sorted")

    @property
    def b1(self) -> int:
        return betti_number(self.betti, 1)


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
    """Construct one of the built-in cross-sections from the parameters
    `_KINDS` and `_DERIVED` declare for it:

    circle(length)             -- betti (1, 1), volume = length
    square_torus(side, dim)    -- side-length s torus, dual basis I/s, volume s^dim
    lattice_torus(dual_basis)  -- explicit dual-lattice rows; volume 1/|det|
    table(volume, tables)      -- h^j is the multiplicity of 0 in table j (Hodge)

    A torus has betti (dim choose j); its basis is checked here, once.
    """
    if name not in _KINDS:
        raise ConfigError(f"unknown cross-section name {name!r}")
    takes = [f.attr for f in _KINDS[name]] + list(_DERIVED.get(name, ()))
    if set(params) != set(takes):
        raise ConfigError(f"a {name} cross-section takes {', '.join(takes)}; "
                          f"got {', '.join(params)}")
    if name == "circle":
        length = float(params["length"])
        return CrossSection(kind=CIRCLE, dim=1, betti=(1, 1), volume=length, length=length)
    if name == TABLE:
        tables = tuple(tuple((float(e), int(m)) for e, m in tab) for tab in params["tables"])
        betti = tuple(sum(m for e, m in tab if e == 0.0) for tab in tables)
        return CrossSection(kind=TABLE, dim=len(tables) - 1, betti=betti,
                            volume=float(params["volume"]), tables=tables)
    if name == "square_torus":
        dim = int(params["dim"])
        side = float(params["side"])
        if side <= 0:
            raise ConfigError("square torus needs side > 0")
        basis = tuple(tuple(1.0 / side if i == j else 0.0 for j in range(dim))
                      for i in range(dim))
        volume = side**dim
    else:
        basis = tuple(tuple(float(x) for x in row) for row in params["dual_basis"])
        dim = len(basis)
    if any(len(row) != dim for row in basis):
        raise ConfigError("dual-lattice basis must be a square (dim x dim) matrix")
    det = _det(basis)
    if abs(det) < 1e-300:
        raise ConfigError("degenerate lattice: dual basis has determinant 0")
    if name == TORUS:
        volume = 1.0 / abs(det)
    betti = tuple(math.comb(dim, j) for j in range(dim + 1))
    return CrossSection(kind=TORUS, dim=dim, betti=betti, volume=volume, dual_basis=basis)


# ---------------------------------------------------------------------------
# magnetic and potential data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MagneticData:
    """Aharonov-Bohm data on the end.

    `flux` is the class of the tangential connection form in units where the
    integral lattice is exactly Z^b1; entries are exact rationals so the
    integrality predicate is arithmetic, not a float comparison.  A constant
    radial coefficient is pure gauge, so only `phi0_constant` is kept.  A
    non-constant radial coefficient or a non-closed tangential form is
    outside the numerically modelled class: `reduce.enumerate_modes`
    refuses it, while the analytic criteria still classify it.
    """

    flux: tuple
    phi0_constant: bool = True
    theta0_closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "flux", tuple(Fraction(f) for f in self.flux))

    @property
    def flux_is_integral(self) -> bool:
        return all(f.denominator == 1 for f in self.flux)


@dataclass(frozen=True)
class RadialPotential:
    """Radial electric potential V(y) = sum_j a_j y^(b_j) + optional bump.

    The admissible class is bounded multiples of y^(2p); the coefficient of
    y^(2p) is the boundary value V0.  What V does at infinity, and so what
    it does to the spectrum, is decided by all its terms together
    (`reduce.far_field`).
    The bump (center, width, height) is the usual smooth compactly supported
    mollifier on [center - width, center + width].
    """

    poly: tuple = ()
    bump: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "poly",
                           tuple((float(a), float(b)) for a, b in self.poly))
        if self.bump is not None:
            object.__setattr__(self, "bump", tuple(float(v) for v in self.bump))
        _check_domains(self)

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

    @property
    def is_zero(self) -> bool:
        return not self.poly and self.bump is None


def potential_values(y, terms, bump, out=None, shared=None):
    """sum_j a_j y^(b_j) + bump(y), added left to right onto zero.

    Every radial potential is evaluated here, so one term order fixes the
    rounding of every assembled pencil.  The sum is written into `out`
    when given.  `shared` is a dict that a caller keeps across potentials
    at the same nodes y: it holds y^b under b and the bump's values under
    the bump, so each is computed once, and a product a y^b that a caller
    put there under (a, b) is added as it is.
    """
    y = np.asarray(y, dtype=float)
    values = {} if shared is None else shared
    if out is None:
        out = np.zeros_like(y)
    else:
        out[...] = 0.0
    scratch = None
    for a, b in terms:
        product = values.get((a, b))
        if product is None:
            if b not in values:
                values[b] = y**b
            if scratch is None:
                scratch = np.empty_like(y)
            product = np.multiply(a, values[b], out=scratch)
        out += product
    if bump is not None:
        if bump not in values:
            values[bump] = bump_values(y, bump)
        out += values[bump]
    return out


def potential_bounds(lo, hi, terms, bump):
    """Bounds of `potential_values` over y in [lo, hi], for arrays of
    interval ends 0 < lo <= hi.

    Returns (floor, size).  A power term a y^b is monotone in y > 0, so on
    [lo, hi] it lies between its values at the two ends; the bump lies
    between 0 and h, and is 0 where its support misses the interval.  floor
    sums each term's lesser end value and min(h, 0) where the support meets
    [lo, hi]; size sums each term's larger |end value| and |h| there.  Both
    are floating-point sums of the values `potential_values` would compute
    at the ends, so they bound the potential and the sum of its |terms| at
    every y in [lo, hi] up to a few ulps of size per term; a caller covers
    those with a margin.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    floor, size = np.zeros_like(lo), np.zeros_like(lo)
    for a, b in terms:
        at_lo, at_hi = a * lo**b, a * hi**b
        floor += np.minimum(at_lo, at_hi)
        size += np.maximum(np.abs(at_lo), np.abs(at_hi))
    if bump is not None:
        c, w, h = bump
        # t = (y - c)/w is monotone in y as computed, so the nodes of [lo, hi]
        # have t between its values at the ends
        t_lo, t_hi = (lo - c) / w, (hi - c) / w
        meets = (np.minimum(t_lo, t_hi) < 1.0) & (np.maximum(t_lo, t_hi) > -1.0)
        floor += np.where(meets, min(h, 0.0), 0.0)
        size += np.where(meets, abs(h), 0.0)
    return floor, size


def bump_values(y, bump):
    """Smooth bump h * exp(1 - 1/(1-t^2)), t = (y-c)/w, supported on |t| < 1."""
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

    grids       strictly increasing mesh cells on the first (shortest)
                domain, so the last grid is the finest; cells scale with
                the domain so the mesh width is fixed per grid level.  For
                p <= 1, domains whose widths T/cells are the same double
                nest node for node and are counted in one Sturm pass; for
                p > 1 (zmax depends on e^T) no two domains nest.  `count`
                and `spectrum` count every grid; the verdict commands only
                the finest (`ProblemConfig.with_finest_grid`).
    domains     strictly increasing transformed-variable lengths: z-lengths
                for p <= 1; for p > 1 a domain T truncates at Ymax = Y0 * e^T.
    lambda_grid (lo, hi, count) spectral-parameter grid, linear by default;
                hi is the one spectral window of every numeric command.
    """

    grids: tuple = (1000, 2000)
    domains: tuple = (8.0, 16.0, 32.0)
    tol: float = 1e-8
    lambda_grid: tuple = (0.05, 0.5, 46)
    lambda_scale: str = "lin"
    mode_cap: int = 600

    def __post_init__(self):
        object.__setattr__(self, "grids", tuple(int(g) for g in self.grids))
        object.__setattr__(self, "domains", tuple(float(d) for d in self.domains))
        lo, hi, cnt = self.lambda_grid
        object.__setattr__(self, "lambda_grid", (float(lo), float(hi), int(cnt)))
        _check_domains(self)
        if not (lo < hi) or cnt < 2:
            raise ConfigError("invariant violated: lambda grid needs lo < hi and count >= 2")
        if self.lambda_scale == "log" and lo <= 0:
            raise ConfigError("invariant violated: log lambda grid needs lo > 0")

    def lambdas(self):
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
    check_y0: Optional[tuple] = None     # cut-check radii; None means (Y0, 2 Y0)
    check_bump: Optional[tuple] = None   # perturb-check bump; None means (Y0 + 1.5, 1, 5)

    def __post_init__(self):
        y0 = self.geometry.y0
        object.__setattr__(self, "check_y0", tuple(
            float(v) for v in self.check_y0 or (y0, 2.0 * y0)))
        object.__setattr__(self, "check_bump", tuple(
            float(v) for v in self.check_bump or (y0 + 1.5, 1.0, 5.0)))
        _check_domains(self)
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
                and cs.b1 != 0):
            raise ConfigError(
                "inconsistent topology: dim X = 3 with X orientable and "
                "H1(X) = 0 forces h1(M) = 0, but the cross-section has "
                f"h1 = {cs.b1}; these assumptions cannot be "
                "simultaneously fulfilled")

    def with_y0(self, y0: float) -> "ProblemConfig":
        return replace(self, geometry=replace(self.geometry, y0=float(y0)))

    def with_bump(self, bump) -> "ProblemConfig":
        pot = self.potential if self.potential is not None else RadialPotential()
        return replace(self, potential=replace(pot, bump=tuple(bump) if bump else None))

    def with_finest_grid(self) -> "ProblemConfig":
        """This config with its finest grid, the last of `numerics.grids`, alone."""
        return replace(self, numerics=replace(self.numerics, grids=self.numerics.grids[-1:]))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------
#
# Token readers turn one value string into a value or raise ValueError with
# the reason; the parser adds the line number.

def _real(tok: str) -> float:
    """A plain decimal; nan and inf are refused."""
    try:
        value = float(tok)
    except ValueError:
        raise ValueError(f"expected a decimal number, got {tok!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"reals must be finite, got {tok!r}")
    return value


def _integer(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"expected an integer, got {tok!r}") from None


def _exact(tok: str) -> Fraction:
    """Exact rational from a decimal token (no slash-rationals, per format)."""
    tok = tok.strip()
    if "/" not in tok:
        try:
            return Fraction(tok)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"expected a decimal number, got {tok!r}")


def _flag(tok: str) -> bool:
    try:
        return {"true": True, "false": False}[tok.strip().lower()]
    except KeyError:
        raise ValueError(f"expected true/false, got {tok!r}") from None


def _list(read):
    """Reader of a comma list, each token through `read`."""
    return lambda tok: tuple(read(t) for t in tok.split(","))


def _fixed(names: str, *reads):
    """Reader of exactly len(reads) comma-separated tokens, named `names`."""
    def read(tok):
        parts = tok.split(",")
        if len(parts) != len(reads):
            raise ValueError(f"expected {names}, got {tok!r}")
        return tuple(r(t) for r, t in zip(reads, parts))
    return read


def _pairs(tok: str) -> tuple:
    """Parse '(a,b);(c,d);...' pair lists."""
    out = []
    for piece in tok.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        if not (piece.startswith("(") and piece.endswith(")")):
            raise ValueError(f"expected '(a,b)' pairs separated by ';', got {piece!r}")
        inner = piece[1:-1].split(",")
        if len(inner) != 2:
            raise ValueError(f"pair {piece!r} must have exactly two entries")
        out.append((_real(inner[0]), _real(inner[1])))
    return tuple(out)


def _table(tok: str) -> tuple:
    """An eigenvalue table '(e,m);...' whose multiplicities are integers >= 1."""
    pairs = _pairs(tok)
    for _, m in pairs:
        if m < 1 or m != int(m):
            raise ValueError(f"multiplicity must be a positive integer, got {m!r}")
    return tuple((e, int(m)) for e, m in pairs)


def _flux(tok: str) -> tuple:
    """The flux vector; empty for a cross-section with b1 = 0."""
    return _list(_exact)(tok) if tok else ()


def _positive(x) -> bool:
    return math.isfinite(x) and x > 0


def _rising(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


_BUMP = _fixed("center,width,height", _real, _real, _real)


class _Field(NamedTuple):
    """One config key that holds a single value.

    `attr` is the field it sets: on the dataclass of its section (see
    `_SECTIONS`), else on ProblemConfig itself; a cross_section.* key (see
    `_KINDS`) sets the builtin_cross_section parameter of that name.  `read`
    parses the value and `ok` is its domain, enforced where the key is read
    and by the owning dataclass: "invariant violated: <rule>".  A `required`
    key must be present whenever its section is built (geometry always is);
    every key a cross-section kind declares is required.
    """

    key: str
    attr: str
    read: Callable[[str], Any]
    ok: Optional[Callable[[Any], bool]] = None
    rule: str = ""
    required: bool = False

    @property
    def section(self) -> str:
        return self.key.partition(".")[0]


_FIELDS = (
    _Field("geometry.n", "n", _integer, ok=lambda n: n >= 2,
           rule="dimension n must be >= 2", required=True),
    _Field("geometry.p", "p", _exact, lambda p: p > 0,
           "exponent p must be > 0", required=True),
    _Field("geometry.y0", "y0", _real, ok=lambda y: y >= 1,
           rule="inner radius Y0 must be >= 1"),
    _Field("degree", "degree", _integer),
    _Field("magnetic.flux", "flux", _flux, required=True),
    _Field("magnetic.phi0_constant", "phi0_constant", _flag),
    _Field("magnetic.theta0_closed", "theta0_closed", _flag),
    _Field("potential.poly", "poly", _pairs),
    _Field("potential.bump", "bump", _BUMP, lambda b: b[1] > 0,
           "bump width must be > 0"),
    _Field("numerics.grid", "grids", _list(_integer),
           lambda grids: _rising(grids) and all(g >= 4 for g in grids),
           "grids must be strictly increasing, with at least 4 cells each"),
    _Field("numerics.domain_z", "domains", _list(_real),
           lambda domains: _rising(domains) and all(_positive(d) for d in domains),
           "domain lengths must be finite, > 0 and strictly increasing"),
    _Field("numerics.tol", "tol", _real, ok=_positive,
           rule="tolerance must be finite and > 0"),
    _Field("numerics.lambda_grid", "lambda_grid", _fixed("lo,hi,count", _real, _real, _integer),
           lambda g: math.isfinite(g[0]) and math.isfinite(g[1]),
           "lambda grid bounds must be finite"),
    _Field("numerics.lambda_scale", "lambda_scale", str, lambda s: s in ("lin", "log"),
           "numerics.lambda_scale must be 'lin' or 'log'"),
    _Field("numerics.mode_cap", "mode_cap", _integer, ok=lambda cap: cap >= 1,
           rule="mode_cap must be >= 1"),
    _Field("topology.orientable", "orientable", _flag),
    _Field("topology.h1_x", "h1_x", _integer, ok=lambda h: h >= 0,
           rule="topology.h1_x must be >= 0"),
    _Field("zeta.s", "zeta_s", _real),
    _Field("zeta.shift", "zeta_shift", _real),
    _Field("checks.y0", "check_y0", _list(_real),
           lambda ys: len(set(ys)) >= 2 and all(y >= 1 for y in ys),
           "checks.y0 needs at least 2 distinct values, each >= 1"),
    _Field("checks.bump", "check_bump", _BUMP, lambda b: b[1] > 0,
           "checks.bump width must be > 0"),
)

#: sections whose keys fill one ProblemConfig component of this type
_SECTIONS = {"geometry": EndGeometry, "magnetic": MagneticData,
             "potential": RadialPotential, "numerics": Numerics}

#: cross_section.kind -> the keys it reads, each one required
_KINDS = {
    CIRCLE: (_Field("cross_section.length", "length", _real),),
    "square_torus": (_Field("cross_section.side", "side", _real),),
    TORUS: (_Field("cross_section.dual_basis", "dual_basis",
                   lambda tok: tuple(_list(_real)(row) for row in tok.split(";"))),),
    TABLE: (_Field("cross_section.volume", "volume", _real),),
}
#: the builtin_cross_section parameters that are no config key: parse_config
#: sets dim to geometry.n - 1 and reads the tables, one key per degree 0..n-1
_DERIVED = {"square_torus": ("dim",), TABLE: ("tables",)}
_TABLE_PREFIX = "cross_section.eigenvalues."
_KNOWN_KEYS = ({f.key for f in _FIELDS} | {"cross_section.kind"}
               | {f.key for fields in _KINDS.values() for f in fields})

#: removed keys -> what replaces them; parse_config refuses them with this reason
_REMOVED_KEYS = {
    "numerics.lambda_max": "reduce lists the modes up to the top of numerics.lambda_grid",
    "numerics.rho_min_factor": "the probe reads the lanes the Sturm pass settled; delete the line",
    "magnetic.phi0": "a constant radial coefficient is pure gauge; delete the line",
    "cross_section.dim": "a square torus has dimension geometry.n - 1",
    "cross_section.betti": "the Betti numbers are read off the zero eigenvalues of the "
                           "tables; delete the line",
}


def _check_domains(obj) -> None:
    """Refuse a field of `obj` that lies outside its declared domain."""
    for f in _FIELDS:
        if f.ok is not None and _SECTIONS.get(f.section, ProblemConfig) is type(obj):
            value = getattr(obj, f.attr)
            if value is not None and not f.ok(value):
                raise ConfigError(f"invariant violated: {f.rule}")


def _read(read, tok: str, line: Optional[int]):
    try:
        return read(tok)
    except ValueError as exc:
        raise ConfigError(str(exc), line) from None


def parse_config(text: str) -> ProblemConfig:
    """Parse and fully validate a config document.

    Raises ConfigError with a line number for a value that is malformed or
    outside its key's domain, otherwise with the violated invariant named.
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
        if key in _REMOVED_KEYS:
            raise ConfigError(f"key {key!r} was removed: {_REMOVED_KEYS[key]}", ln)
        if key not in _KNOWN_KEYS and not key.startswith(_TABLE_PREFIX):
            raise ConfigError(f"unknown key {key!r}", ln)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", ln)
        raw[key] = value
        lines[key] = ln

    # section -> {attr: value} for the keys present
    given = {}
    for f in _FIELDS:
        if f.key in raw:
            value = _read(f.read, raw[f.key], lines[f.key])
            if f.ok is not None and not f.ok(value):
                raise ConfigError(f"invariant violated: {f.rule}", lines[f.key])
            given.setdefault(f.section, {})[f.attr] = value

    def build(section):
        kwargs = given.get(section, {})
        for f in _FIELDS:
            if f.section == section and f.required and f.attr not in kwargs:
                raise ConfigError(f"missing required key {f.key!r}")
        return _SECTIONS[section](**kwargs)

    geometry = build("geometry")
    cs = _parse_cross_section(raw, lines, geometry.n)
    top = {attr: v for section, kwargs in given.items() if section not in _SECTIONS
           for attr, v in kwargs.items()}
    return ProblemConfig(
        geometry=geometry, cross_section=cs, numerics=build("numerics"),
        magnetic=build("magnetic") if "magnetic" in given else None,
        potential=build("potential") if "potential" in given else None, **top)


def _parse_cross_section(raw, lines, n) -> CrossSection:
    def value(read, key, missing=""):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}{missing}")
        return _read(read, raw[key], lines[key])

    kind = value(str, "cross_section.kind")
    if kind not in _KINDS:
        raise ConfigError(f"unknown cross-section kind {kind!r}", lines["cross_section.kind"])
    fields = {f.key: f for f in _KINDS[kind]}
    params = {f.attr: value(f.read, key) for key, f in fields.items()}
    # a table cross-section reads one eigenvalue key per degree 0..n-1
    tables = [f"{_TABLE_PREFIX}{j}" for j in range(n if kind == TABLE else 0)]
    known = {*fields, *tables, "cross_section.kind"}
    for key in raw:
        if key.startswith(_TABLE_PREFIX) and key not in tables:
            where = f"degrees 0..{len(tables) - 1}" if tables else "table cross-sections only"
            raise ConfigError(f"unknown key {key!r} (eigenvalue tables: {where})", lines[key])
        if key.startswith("cross_section.") and key not in known:
            raise ConfigError(f"key {key!r} is not read by cross_section.kind = {kind}",
                              lines[key])
    if kind == "square_torus":
        params["dim"] = n - 1
    if tables:
        params["tables"] = [value(_table, key, " for table cross-section") for key in tables]
    return builtin_cross_section(kind, **params)

