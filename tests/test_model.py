"""Config parsing, validation, and round-trip properties."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cusplab.model import (ConfigError, EndGeometry, MagneticData, Numerics,
                           ProblemConfig, RadialPotential,
                           builtin_cross_section, parse_config, render_config)

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


@pytest.mark.parametrize("p,complete", [("0.5", True), ("1", True), ("1.5", False)])
def test_completeness_flag_is_p_at_most_one(p, complete):
    assert EndGeometry(2, p).complete is complete


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


def test_unknown_cross_section_name():
    with pytest.raises(ConfigError, match="unknown cross-section"):
        builtin_cross_section("klein_bottle")


def test_table_zero_modes_must_match_betti():
    with pytest.raises(ConfigError, match="betti"):
        builtin_cross_section(
            "table", betti=(1, 1), volume=1.0,
            tables=[[(0.0, 2), (1.0, 1)], [(0.0, 1)]])


def test_table_must_be_sorted():
    with pytest.raises(ConfigError, match="sorted"):
        builtin_cross_section(
            "table", betti=(1, 1), volume=1.0,
            tables=[[(1.0, 1), (0.0, 1)], [(0.0, 1)]])


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


def test_numerics_invariants():
    with pytest.raises(ConfigError, match="increasing"):
        Numerics(domains=(16.0, 8.0))
    with pytest.raises(ConfigError, match="grid"):
        Numerics(grids=(2,))
    with pytest.raises(ConfigError, match="lambda"):
        Numerics(lambda_grid=(1.0, 0.5, 10))


def test_round_trip_field_by_field():
    cfg = parse_config(VALID)
    again = parse_config(render_config(cfg))
    assert again == cfg


def _table_text(n):
    betti = [1] + [0] * (n - 2) + [1]
    lines = ["geometry.n = %d" % n, "geometry.p = 1", "cross_section.kind = table",
             "cross_section.volume = 1.0",
             "cross_section.betti = " + ",".join(str(b) for b in betti)]
    for j, b in enumerate(betti):
        lines.append(f"cross_section.eigenvalues.{j} = "
                     + ("(0.0,1);(1.0,2)" if b else "(1.0,1)"))
    return "\n".join(lines) + "\n"


def test_table_accepts_every_degree_up_to_dim():
    cfg = parse_config(_table_text(9))
    assert cfg.cross_section.dim == 8
    assert len(cfg.cross_section.tables) == 9
    assert parse_config(render_config(cfg)) == cfg


def test_table_rejects_degrees_beyond_dim():
    text = _table_text(2) + "cross_section.eigenvalues.5 = (1.0,1)\n"
    with pytest.raises(ConfigError, match=r"line 8: unknown key "
                       r"'cross_section\.eigenvalues\.5'.*0\.\.1"):
        parse_config(text)
    with pytest.raises(ConfigError, match=r"line 8: unknown key .*table cross-sections only"):
        parse_config(VALID + "cross_section.eigenvalues.0 = (0.0,1)\n")


def test_round_trip_table_and_extras():
    cfg = ProblemConfig(
        geometry=EndGeometry(2, "0.25", 1.5),
        cross_section=builtin_cross_section(
            "table", betti=(1, 1), volume=2.5,
            tables=[[(0.0, 1), (1.25, 2)], [(0.0, 1), (2.0, 1)]]),
        degree=1,
        potential=RadialPotential(poly=((0.5, 0.5),), bump=(2.0, 1.0, 3.0)),
        numerics=Numerics(grids=(100, 200), domains=(4.0, 8.0),
                          lambda_grid=(0.1, 2.0, 5), lambda_scale="log"),
        orientable=False, h1_x=2, zeta_s=3.0, zeta_shift=1.0,
        check_y0=(1.0, 2.0), check_bump=(2.5, 1.0, 5.0))
    again = parse_config(render_config(cfg))
    assert again == cfg


@st.composite
def configs(draw):
    n = draw(st.sampled_from([2, 3]))
    p = draw(st.sampled_from(["0.25", "0.5", "1", "2"]))
    y0 = draw(st.sampled_from([1.0, 1.5, 2.0]))
    geometry = EndGeometry(n, p, y0)
    if n == 2:
        cs = builtin_cross_section("circle", length=draw(st.sampled_from([1.0, TWO_PI])))
    else:
        cs = builtin_cross_section("square_torus", side=TWO_PI, dim=2)
    degree = draw(st.integers(min_value=0, max_value=n))
    magnetic = None
    if degree == 0 and draw(st.booleans()):
        flux = tuple(draw(st.sampled_from(["0", "0.5", "1.25", "-0.75"]))
                     for _ in range(cs.b1))
        magnetic = MagneticData(flux=flux, phi0=draw(st.sampled_from([0.0, 1.5])))
    return ProblemConfig(geometry=geometry, cross_section=cs, degree=degree,
                         magnetic=magnetic)


@given(configs())
@settings(max_examples=40, deadline=None)
def test_round_trip_property(cfg):
    assert parse_config(render_config(cfg)) == cfg


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
    shifted = mag.shifted([2])
    base = sorted(cross_eigenvalue(cs, (m,), mag.flux) for m in range(-6, 7))
    moved = sorted(cross_eigenvalue(cs, (m - 2,), shifted.flux) for m in range(-6, 7))
    assert base == moved


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# header\n\n" + VALID)
    assert cfg.geometry.n == 2
