"""Config parsing and validation."""

import math
import pathlib
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cusplab.model import (_FIELDS, _KINDS, _KNOWN_KEYS, _TABLE_PREFIX, ConfigError,
                           EndGeometry,
                           MagneticData, Numerics, ProblemConfig, RadialPotential,
                           builtin_cross_section, parse_config)

TWO_PI = 2 * math.pi

VALID = """\
geometry.n = 2
geometry.p = 1
geometry.y0 = 1.0
cross_section.kind = circle
cross_section.length = 6.283185307
degree = 0
magnetic.flux = 0.5
"""


def test_parse_valid_circle_config():
    cfg = parse_config(VALID)
    assert cfg.geometry.n == 2
    assert cfg.geometry.p == 1
    assert cfg.geometry.y0 == 1.0
    assert cfg.cross_section.kind == "circle"
    assert cfg.cross_section.length == pytest.approx(6.283185307)
    assert cfg.degree == 0
    assert cfg.magnetic.flux == (Fraction(1, 2),)


def test_magnetic_requires_degree_zero():
    text = VALID.replace("degree = 0", "degree = 1")
    with pytest.raises(ConfigError, match="magnetic data requires k=0"):
        parse_config(text)


def test_dimension_three_topology_contradiction():
    text = "\n".join([
        "geometry.n = 3",
        "geometry.p = 1",
        "cross_section.kind = square_torus",
        "cross_section.side = 6.283185307179586",
        "degree = 0",
        "topology.orientable = true",
        "topology.h1_x = 0",
    ])
    with pytest.raises(ConfigError, match="simultaneously"):
        parse_config(text)


def test_unknown_key_reports_line():
    text = VALID + "geometry.bogus = 3\n"
    with pytest.raises(ConfigError, match=r"line 8: unknown key"):
        parse_config(text)


def test_syntax_error_reports_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("not a key value pair")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(VALID + "degree = 0\n")


def test_missing_required_key():
    with pytest.raises(ConfigError, match="geometry.n"):
        parse_config("geometry.p = 1")


def test_geometry_invariants():
    with pytest.raises(ConfigError, match="n must be >= 2"):
        EndGeometry(1, 1)
    with pytest.raises(ConfigError, match="p must be > 0"):
        EndGeometry(2, 0)
    with pytest.raises(ConfigError, match="Y0"):
        EndGeometry(2, 1, 0.5)


def test_builtin_circle():
    cs = builtin_cross_section("circle", length=TWO_PI)
    assert cs.betti == (1, 1)
    assert cs.volume == pytest.approx(TWO_PI)
    assert cs.dim == 1


def test_builtin_square_torus():
    cs = builtin_cross_section("square_torus", side=TWO_PI, dim=2)
    assert cs.betti == (1, 2, 1)
    assert cs.volume == pytest.approx(TWO_PI**2)


def test_degenerate_lattice_rejected():
    with pytest.raises(ConfigError, match="degenerate lattice"):
        builtin_cross_section("lattice_torus", dual_basis=[[1.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("rows", ["1.0,0.0;1.0", "1.0;1.0,0.0"])
def test_a_ragged_dual_basis_is_a_config_error(rows):
    # the determinant used to index past the short row (IndexError)
    with pytest.raises(ConfigError, match="square"):
        parse_config("geometry.n = 3\ngeometry.p = 1\ncross_section.kind = lattice_torus\n"
                     f"cross_section.dual_basis = {rows}\n")


def test_unknown_cross_section_name():
    with pytest.raises(ConfigError, match="unknown cross-section"):
        builtin_cross_section("klein_bottle")


@pytest.mark.parametrize("name, params", [
    ("circle", dict(length=TWO_PI, volume=3.0)),
    ("circle", dict(length=TWO_PI, dim=1)),
    ("circle", dict()),
    ("square_torus", dict(side=TWO_PI)),
    ("square_torus", dict(side=TWO_PI, dim=2, volume=1.0)),
    ("lattice_torus", dict(dual_basis=[[1.0]], dim=1)),
    ("table", dict(betti=(1, 1), volume=1.0)),
    ("lattice_torus", dict(dual_basis=[[1.0]], volume=1.0)),
])
def test_a_builtin_cross_section_takes_only_its_declared_parameters(name, params):
    with pytest.raises(ConfigError, match=f"a {name} cross-section takes "):
        builtin_cross_section(name, **params)


@pytest.mark.parametrize("text, name, params", [
    ("cross_section.kind = circle\ncross_section.length = 1.5\n",
     "circle", dict(length=1.5)),
    ("cross_section.kind = lattice_torus\ncross_section.dual_basis = 2.0\n",
     "lattice_torus", dict(dual_basis=[[2.0]])),
    ("cross_section.kind = square_torus\ncross_section.side = 1.5\n",
     "square_torus", dict(side=1.5, dim=1)),
    ("cross_section.kind = table\ncross_section.volume = 2.0\n"
     "cross_section.eigenvalues.0 = (0.0,1);(1.0,2)\ncross_section.eigenvalues.1 = (0.0,1)\n",
     "table", dict(volume=2.0, tables=[[(0.0, 1), (1.0, 2)], [(0.0, 1)]])),
], ids=["circle", "lattice_torus", "square_torus", "table"])
def test_every_kind_parses_to_its_cross_section(text, name, params):
    cfg = parse_config("geometry.n = 2\ngeometry.p = 1\n" + text)
    assert cfg == ProblemConfig(geometry=EndGeometry(2, 1),
                                cross_section=builtin_cross_section(name, **params))


def test_table_betti_numbers_are_the_multiplicities_of_zero():
    cs = builtin_cross_section("table", volume=1.0,
                               tables=[[(0.0, 2), (1.0, 1)], [(1.0, 3)], [(0.0, 1)]])
    assert (cs.dim, cs.betti) == (2, (2, 0, 1))


def test_table_must_be_sorted():
    with pytest.raises(ConfigError, match="sorted"):
        builtin_cross_section(
            "table", volume=1.0, tables=[[(1.0, 1), (0.0, 1)], [(0.0, 1)]])


def test_potential_exponent_capped_by_2p():
    cfg_kwargs = dict(
        geometry=EndGeometry(2, 1),
        cross_section=builtin_cross_section("circle", length=TWO_PI),
        degree=0)
    ProblemConfig(potential=RadialPotential(poly=((1.0, 2.0),)), **cfg_kwargs)
    with pytest.raises(ConfigError, match="exceeds 2p"):
        ProblemConfig(potential=RadialPotential(poly=((1.0, 2.5),)), **cfg_kwargs)


def test_v0_is_coefficient_of_y_2p():
    pot = RadialPotential(poly=((3.0, 2.0), (-1.0, 0.0)))
    assert pot.v0(Fraction(1)) == 3.0
    assert pot.v0(Fraction(1, 2)) == 0.0


def test_flux_length_must_match_b1():
    with pytest.raises(ConfigError, match="b1"):
        ProblemConfig(
            geometry=EndGeometry(3, 1),
            cross_section=builtin_cross_section("square_torus", side=1.0, dim=2),
            degree=0,
            magnetic=MagneticData(flux=("0.5",)))


@pytest.mark.parametrize("n", [3, 4])
def test_square_torus_has_dimension_n_minus_one(n):
    cfg = parse_config(f"geometry.n = {n}\ngeometry.p = 1\n"
                       "cross_section.kind = square_torus\ncross_section.side = 2.0\n")
    assert cfg.cross_section.dim == n - 1
    assert cfg.cross_section.betti == tuple(math.comb(n - 1, j) for j in range(n))


def test_numerics_invariants():
    with pytest.raises(ConfigError, match="increasing"):
        Numerics(domains=(16.0, 8.0))
    with pytest.raises(ConfigError, match="grid"):
        Numerics(grids=(2,))
    with pytest.raises(ConfigError, match="lambda"):
        Numerics(lambda_grid=(1.0, 0.5, 10))


@pytest.mark.parametrize("grids", ["2000,1000", "1000,1000"])
def test_a_grid_list_that_is_not_strictly_increasing_is_refused(grids):
    # the last grid is the finest: a falling list would make a coarser grid
    # "the finest", and a repeated grid would be counted twice
    with pytest.raises(ConfigError, match="^line 8: invariant violated: grids must be "
                                          "strictly increasing, with at least 4 cells each$"):
        parse_config(VALID + f"numerics.grid = {grids}\n")
    with pytest.raises(ConfigError, match="grids must be strictly increasing"):
        Numerics(grids=tuple(int(g) for g in grids.split(",")))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_numerics_rejects_non_finite_domains(bad):
    with pytest.raises(ConfigError, match="domain lengths must be finite"):
        Numerics(domains=(bad, 8.0))
    with pytest.raises(ConfigError, match="domain lengths must be finite"):
        Numerics(domains=(4.0, bad))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_numerics_rejects_non_finite_tol_and_lambda_grid(bad):
    with pytest.raises(ConfigError, match="tolerance must be finite and > 0"):
        Numerics(tol=bad)
    with pytest.raises(ConfigError, match="lambda grid bounds must be finite"):
        Numerics(lambda_grid=(0.5, bad, 4))
    with pytest.raises(ConfigError, match="lambda grid bounds must be finite"):
        Numerics(lambda_grid=(bad, 0.5, 4))


def test_valid_parses_field_by_field():
    assert parse_config(VALID) == ProblemConfig(
        geometry=EndGeometry(2, 1, 1.0),
        cross_section=builtin_cross_section("circle", length=6.283185307),
        degree=0, magnetic=MagneticData(flux=("0.5",)))


def _table_text(n):
    betti = [1] + [0] * (n - 2) + [1]
    lines = ["geometry.n = %d" % n, "geometry.p = 1", "cross_section.kind = table",
             "cross_section.volume = 1.0"]
    for j, b in enumerate(betti):
        lines.append(f"cross_section.eigenvalues.{j} = "
                     + ("(0.0,1);(1.0,2)" if b else "(1.0,1)"))
    return "\n".join(lines) + "\n"


def test_table_accepts_every_degree_up_to_dim():
    cfg = parse_config(_table_text(9))
    assert cfg.cross_section.dim == 8
    assert len(cfg.cross_section.tables) == 9
    betti = (1,) + (0,) * 7 + (1,)
    assert cfg.cross_section.betti == betti
    tables = [[(0.0, 1), (1.0, 2)] if b else [(1.0, 1)] for b in betti]
    assert cfg == ProblemConfig(geometry=EndGeometry(9, 1), cross_section=builtin_cross_section(
        "table", volume=1.0, tables=tables))


@pytest.mark.parametrize("pairs, shown", [
    ("(0.0,1);(1.0,2.5)", "2.5"), ("(0.0,1);(1.0,-1)", "-1.0"),
    ("(0.0,1);(1.0,-0.5)", "-0.5"), ("(0.0,1);(1.0,1e-9)", "1e-09"),
    ("(0.0,1);(1.0,0)", "0.0"), ("(0.0,0);(1.0,1)", "0.0")])
def test_table_multiplicities_must_be_positive_integers(tmp_path, capsys, pairs, shown):
    from cusplab import cli

    text = _table_text(2).replace("eigenvalues.0 = (0.0,1);(1.0,2)",
                                  f"eigenvalues.0 = {pairs}")
    message = f"line 5: multiplicity must be a positive integer, got {shown}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text)
    path = tmp_path / "table.cfg"
    path.write_text(text)
    assert cli.main(["criteria", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error[config]: {message}\n"


def test_integral_table_multiplicities_may_be_written_as_reals():
    text = _table_text(2).replace("(0.0,1);(1.0,2)", "(0.0,1.0);(1.0,2.0)")
    assert parse_config(text) == parse_config(_table_text(2))


def test_table_rejects_degrees_beyond_dim():
    text = _table_text(2) + "cross_section.eigenvalues.5 = (1.0,1)\n"
    with pytest.raises(ConfigError, match=r"line 7: unknown key "
                       r"'cross_section\.eigenvalues\.5'.*0\.\.1"):
        parse_config(text)
    with pytest.raises(ConfigError, match=r"line 8: unknown key .*table cross-sections only"):
        parse_config(VALID + "cross_section.eigenvalues.0 = (0.0,1)\n")


def test_check_variants_default_from_the_cut_radius():
    cfg = parse_config(VALID.replace("geometry.y0 = 1.0", "geometry.y0 = 1.5"))
    assert cfg.geometry.y0 == 1.5
    assert cfg.check_y0 == (1.5, 3.0)
    assert cfg.check_bump == (3.0, 1.0, 5.0)
    chosen = parse_config(VALID + "checks.y0 = 1,4\nchecks.bump = 2,0.5,-1\n")
    assert chosen.check_y0 == (1.0, 4.0)
    assert chosen.check_bump == (2.0, 0.5, -1.0)


def test_table_and_extras_parse():
    text = """\
geometry.n = 2
geometry.p = 0.25
geometry.y0 = 1.5
degree = 1
potential.poly = (0.5,0.5)
potential.bump = 2.0,1.0,3.0
numerics.grid = 100,200
numerics.domain_z = 4.0,8.0
numerics.lambda_grid = 0.1,2.0,5
numerics.lambda_scale = log
topology.orientable = false
topology.h1_x = 2
zeta.s = 3.0
zeta.shift = 1.0
checks.y0 = 1.0,2.0
checks.bump = 2.5,1.0,5.0
cross_section.kind = table
cross_section.volume = 2.5
cross_section.eigenvalues.0 = (0.0,1);(1.25,2)
cross_section.eigenvalues.1 = (0.0,1);(2.0,1)
"""
    assert parse_config(text) == ProblemConfig(
        geometry=EndGeometry(2, "0.25", 1.5),
        cross_section=builtin_cross_section(
            "table", volume=2.5, tables=[[(0.0, 1), (1.25, 2)], [(0.0, 1), (2.0, 1)]]),
        degree=1,
        potential=RadialPotential(poly=((0.5, 0.5),), bump=(2.0, 1.0, 3.0)),
        numerics=Numerics(grids=(100, 200), domains=(4.0, 8.0),
                          lambda_grid=(0.1, 2.0, 5), lambda_scale="log"),
        orientable=False, h1_x=2, zeta_s=3.0, zeta_shift=1.0,
        check_y0=(1.0, 2.0), check_bump=(2.5, 1.0, 5.0))


#: a cross-section with b1 = 0, where magnetic data has the empty flux ()
NO_B1 = builtin_cross_section("table", volume=1.0, tables=[[(0.0, 1), (1.0, 2)], [(1.0, 1)]])


def test_empty_flux_parses():
    text = ("geometry.n = 2\ngeometry.p = 1\nmagnetic.flux =\ncross_section.kind = table\n"
            "cross_section.volume = 1.0\n"
            "cross_section.eigenvalues.0 = (0.0,1);(1.0,2)\n"
            "cross_section.eigenvalues.1 = (1.0,1)\n")
    assert parse_config(text) == ProblemConfig(geometry=EndGeometry(2, "1"), cross_section=NO_B1,
                                               magnetic=MagneticData(flux=()))
    # with b1 > 0 the flux-length invariant refuses the empty flux
    with pytest.raises(ConfigError, match="flux vector length 0"):
        parse_config(VALID.replace("magnetic.flux = 0.5", "magnetic.flux ="))


@pytest.mark.parametrize("key", ["numerics.grid", "numerics.domain_z", "checks.y0",
                                 "potential.bump", "numerics.lambda_grid"])
def test_every_other_list_key_refuses_an_empty_value(key):
    with pytest.raises(ConfigError, match="line 8: expected"):
        parse_config(VALID + f"{key} =\n")


@given(st.text(max_size=200))
@settings(max_examples=80, deadline=None)
def test_rejection_never_panics(text):
    # arbitrary text either parses or raises ConfigError, nothing else
    try:
        parse_config(text)
    except ConfigError:
        pass


def test_integer_flux_shift_gives_same_eigenvalue_multiset():
    from cusplab.reduce import cross_eigenvalue

    cs = builtin_cross_section("circle", length=TWO_PI)
    mag = MagneticData(flux=("0.5",))
    shifted = (mag.flux[0] + 2,)
    base = sorted(cross_eigenvalue(cs, (m,), mag.flux) for m in range(-6, 7))
    moved = sorted(cross_eigenvalue(cs, (m - 2,), shifted) for m in range(-6, 7))
    assert base == moved


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# header\n\n" + VALID)
    assert cfg.geometry.n == 2


def _readme_config_block():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    return readme.read_text(encoding="utf-8").split("## Config format")[1].split("```")[1]


def test_readme_config_block_lists_exactly_the_accepted_keys():
    block = _readme_config_block()
    documented = {re.sub(r"\.\d+$", ".j", key) for key in
                  re.findall(r"\b(?:degree\b|[a-z_]+(?:\.[a-z0-9_]+)+)", block)}
    assert documented == _KNOWN_KEYS | {_TABLE_PREFIX + "j"}
    # every numerics key states its domain
    assert all("#" in row for row in block.splitlines() if row.startswith("numerics."))


def test_readme_lists_the_keys_each_kind_declares():
    block = _readme_config_block()
    rows = dict(re.findall(r"^# ([a-z_]+): +(.*)$", block, re.M))
    assert set(_KINDS) <= set(rows)
    declared = {f.key for fields in _KINDS.values() for f in fields}
    accepted = {f.key for f in _FIELDS} | declared | {"cross_section.kind"}
    assert accepted == _KNOWN_KEYS
    for kind, fields in _KINDS.items():
        # every key a kind reads is required: the README marks none optional
        assert "[" not in rows[kind]
        named = set(re.findall(r"cross_section\.[a-z_.]+", rows[kind]))
        tables = {_TABLE_PREFIX + "j"} if kind == "table" else set()
        assert named == {f.key for f in fields} | tables
