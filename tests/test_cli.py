"""Command-line front end: subcommands, formats, exit codes, determinism."""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from cusplab import assemble, selftest, sturm
from cusplab.assemble import ThresholdEstimate, WeylFit
from cusplab.cli import _SUBCOMMANDS, UsageError, _build_parser, _emit, main
from cusplab.model import _FIELDS, _KNOWN_KEYS

AB_CFG = """\
geometry.n = 2
geometry.p = 1
geometry.y0 = 1.0
cross_section.kind = circle
cross_section.length = 6.283185307179586
degree = 0
magnetic.flux = 0.5
numerics.grid = 500,1000
numerics.domain_z = 8,16,32
numerics.lambda_grid = 0.05,0.5,46
zeta.s = 3.0
"""

ESS_CFG = AB_CFG.replace("magnetic.flux = 0.5", "magnetic.flux = 0")

TORUS_CFG = """\
geometry.n = 3
geometry.p = 1
geometry.y0 = 1.0
cross_section.kind = square_torus
cross_section.side = 6.283185307179586
degree = 0
magnetic.flux = 0.5,0.25
numerics.grid = 100,200
numerics.domain_z = 4,8
numerics.lambda_grid = 0.5,6,4
"""

BAD_CFG = """\
geometry.n = 2
geometry.p = 1
cross_section.kind = circle
cross_section.length = 6.283185307179586
degree = 1
magnetic.flux = 0.5
"""


# the p = 1 circle with flux 0: essential spectrum from 1/4, a small study
PROBE_CFG = (ESS_CFG.replace("500,1000", "200,400").replace("0.05,0.5,46", "0.5,6,12")
             .replace("zeta.s = 3.0\n", ""))

# the same study on a tabulated cross-section with h^0 = h^1 = 1
TABLE_CFG = PROBE_CFG.replace(
    "kind = circle\ncross_section.length = 6.283185307179586",
    "kind = table\ncross_section.volume = 2.5\n"
    "cross_section.eigenvalues.0 = (0.0,1);(1.0,2)\n"
    "cross_section.eigenvalues.1 = (0.0,1);(1.0,2)")


def with_line(text, line):
    """`text` with `line` in place of any line that sets the same key."""
    key = line.split(" = ")[0]
    return "".join(row for row in text.splitlines(True)
                   if row.split(" = ")[0] != key) + line + "\n"


@pytest.fixture
def cfg_path(tmp_path):
    def write(text, name="cfg.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def test_criteria_text(cfg_path, capsys):
    assert main(["criteria", "--config", cfg_path(AB_CFG)]) == 0
    out = capsys.readouterr().out
    assert "pure_point" in out
    assert "non-integral flux" in out


def test_criteria_json_fields(cfg_path, capsys):
    assert main(["criteria", "--config", cfg_path(AB_CFG), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["classification"] == "pure_point"
    assert data["constants"]["C1"] == pytest.approx(0.5)


def test_invalid_config_exits_one(cfg_path, capsys):
    assert main(["criteria", "--config", cfg_path(BAD_CFG)]) == 1
    assert "magnetic data requires k=0" in capsys.readouterr().err


def test_unknown_flag_exits_one(cfg_path, capsys):
    assert main(["criteria", "--config", cfg_path(AB_CFG), "--bogus"]) == 1
    assert "error[usage]" in capsys.readouterr().err
    assert main(["count", "--config", cfg_path(AB_CFG), "--jobs", "2"]) == 1
    assert "error[usage]" in capsys.readouterr().err


def test_the_parser_is_built_once_and_parses_each_call_afresh(cfg_path, capsys):
    assert _build_parser() is _build_parser()
    path = cfg_path(AB_CFG)
    assert main(["criteria", "--config", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["classification"] == "pure_point"
    # reduce has no text format; its refusal is the line a new parser gives
    argv = ["reduce", "--config", path, "--format", "text"]
    assert main(argv) == 1
    with pytest.raises(UsageError) as fresh:
        _build_parser.__wrapped__().parse_args(argv)
    assert capsys.readouterr().err == f"error[usage]: {fresh.value}\n"
    # each subcommand falls back to its own default format
    assert main(["reduce", "--config", path]) == 0
    assert capsys.readouterr().out.startswith("mode,nu,multiplicity,")
    assert main(["criteria", "--config", path]) == 0
    assert capsys.readouterr().out.startswith("classification: pure_point\n")


def test_missing_file_exits_one(capsys):
    assert main(["criteria", "--config", "/nonexistent.cfg"]) == 1
    assert "error[config]" in capsys.readouterr().err


def test_reduce_csv_header(cfg_path, capsys):
    path = cfg_path(with_line(AB_CFG, "numerics.lambda_grid = 0.5,10,4"))
    assert main(["reduce", "--config", path]) == 0
    out = capsys.readouterr().out
    head = out.splitlines()[0]
    assert head == ("mode,nu,multiplicity,density_exp,stiffness_exp,"
                    "potential_terms,threshold")
    assert "m0,0.25,1," in out


def test_reduce_quotes_bump_terms_and_types_json(cfg_path, capsys):
    path = cfg_path(with_line(ESS_CFG + "potential.bump = 2.5,1.0,5.0\n",
                              "numerics.lambda_grid = 0.5,10,4"))
    args = ["reduce", "--config", path]
    assert main(args + ["--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert all(len(row) == 7 for row in rows)
    assert rows[1][5].endswith("+bump(2.5,1.0,5.0)")
    assert main(args + ["--format", "json"]) == 0
    recs = {r["mode"]: r for r in json.loads(capsys.readouterr().out)}
    assert recs["m0"]["threshold"] == 0.25
    assert recs["m1"]["threshold"] is None and recs["m-1"]["threshold"] is None
    assert recs["m1"]["nu"] == 1.0 and recs["m1"]["multiplicity"] == 1
    assert recs["m0"]["density_exp"] == -2.0


def test_count_csv_and_determinism(cfg_path, capsys):
    path = cfg_path(AB_CFG)
    args = ["count", "--config", path, "--format", "csv"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[0].startswith("lambda,N_total")


def test_report_csv_and_dump_shapes(cfg_path, capsys):
    path = cfg_path(AB_CFG.replace("0.05,0.5,46", "0.5,30.0,12"))
    assert main(["count", "--config", path]) == 0
    dump = capsys.readouterr().out.split("# lambda  N\n")[1]
    assert len(dump.strip().split("\n")) == 12
    assert main(["count", "--config", path, "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["prediction"]["classification"] == "pure_point"
    assert len(d["N_total"]) == 12


def test_count_csv_one_row_per_lambda(cfg_path, capsys):
    path = cfg_path(AB_CFG.replace("0.05,0.5,46", "0.5,30.0,12"))
    assert main(["count", "--config", path, "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][:2] == ["lambda", "N_total"]
    assert rows[0][2].startswith("N_mode_")
    assert len(rows) == 1 + 12
    assert all(len(row) == len(rows[0]) for row in rows)
    assert float(rows[-1][0]) == 30.0


def test_csv_writer_contract(capsys):
    args = argparse.Namespace(format="csv", out=None)
    _emit(args, None, None, ("a", "b", "c"),
          [{"a": None, "b": 0.1 + 0.2, "c": "m(0,1)", "unlisted": 1}])
    assert capsys.readouterr().out == 'a,b,c\n,0.30000000000000004,"m(0,1)"\n'


@pytest.mark.parametrize("command", ["count", "spectrum"])
def test_torus_mode_labels_are_quoted_in_csv(cfg_path, capsys, command):
    assert main([command, "--config", cfg_path(TORUS_CFG), "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) > 1
    assert all(len(row) == len(rows[0]) for row in rows)
    labels = rows[0][2:] if command == "count" else [row[0] for row in rows[1:]]
    assert any("," in label for label in labels)


@pytest.mark.parametrize("line", [
    "numerics.tol = nan",
    "numerics.tol = inf",
    "numerics.lambda_grid = 0.5,inf,4",
])
def test_non_finite_numerics_in_the_config_exit_one(cfg_path, capsys, line):
    # a nan tol used to stop bisection before its first sweep and list
    # wrong eigenvalues with exit 0; an inf grid bound printed warnings
    key = line.split(" = ")[0]
    text = "".join(row for row in AB_CFG.splitlines(True)
                   if not row.startswith(key)) + line + "\n"
    assert main(["spectrum", "--config", cfg_path(text)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error[config]") and err.count("\n") == 1
    assert "must be finite" in err


FLAGS = {
    "selftest": set(),
    **{cmd: {"--config", "--format", "--out"}
       for cmd in ("criteria", "zeta", "reduce", "count", "spectrum", "essspec", "weyl",
                   "cut-check", "perturb-check")},
}
FORMATS = {
    "reduce": ("csv", "json"), "cut-check": ("text", "json"),
    "perturb-check": ("text", "json"), "selftest": None,
    **{cmd: ("text", "csv", "json")
       for cmd in ("criteria", "zeta", "count", "spectrum", "essspec", "weyl")},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == set(FLAGS)
    for name, parser in sub.choices.items():
        actions = {o: a for a in parser._actions for o in a.option_strings
                   if o not in ("-h", "--help")}
        assert set(actions) == FLAGS[name], name
        fmt = actions.get("--format")
        assert (tuple(fmt.choices) if fmt else None) == FORMATS[name], name
        assert fmt is None or fmt.default == FORMATS[name][0]
    assert sum(len(flags) for flags in FLAGS.values()) == 27


def test_readme_command_table_lists_each_subcommand_and_its_formats():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line")[1].split("\n## ")[0]
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    assert rows[0] == ["command", "formats", "what it does"]
    assert {row[0].strip("`"): row[1] for row in rows[2:]} == {
        name: ", ".join(formats) or "-" for name, (_, formats) in _SUBCOMMANDS.items()}


@pytest.mark.parametrize("argv", [
    ["criteria", "--grids", "2"],
    ["zeta", "--domains", "8,16"],
    ["count", "--lambda-max", "99"],
    ["reduce", "--lambda-max", "10"],
    ["reduce", "--grids", "400,800"],
    ["reduce", "--domains", "8,16"],
    ["count", "--domains", "8,16"],
    ["weyl", "--grids", "400,800"],
    ["reduce", "--format", "text"],
    ["cut-check", "--format", "csv"],
    ["perturb-check", "--lambda-max", "1"],
])
def test_removed_flags_and_formats_exit_one(cfg_path, capsys, argv):
    assert main(argv[:1] + ["--config", cfg_path(AB_CFG)] + argv[1:]) == 1
    assert "error[usage]" in capsys.readouterr().err


#: a removed config key set to its old default, on a config it applied to,
#: and words of the reason the refusal gives
REMOVED_KEYS = {
    "numerics.lambda_max": (PROBE_CFG, "1.0", "top of numerics.lambda_grid"),
    "numerics.rho_min_factor": (PROBE_CFG, "0.5", "reads the lanes the Sturm pass settled"),
    "magnetic.phi0": (PROBE_CFG, "0.0", "pure gauge"),
    "cross_section.dim": (TORUS_CFG, "2", "geometry.n - 1"),
    "cross_section.betti": (TABLE_CFG, "1,1", "zero eigenvalues of the tables"),
}


@pytest.mark.parametrize("command", ["criteria", "reduce", "count"])
@pytest.mark.parametrize("key", sorted(REMOVED_KEYS))
def test_a_removed_config_key_is_refused_with_its_replacement(cfg_path, capsys, command, key):
    base, value, replacement = REMOVED_KEYS[key]
    assert main([command, "--config", cfg_path(with_line(base, f"{key} = {value}"))]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error[config]: line ") and err.count("\n") == 1
    assert f"{key!r} was removed" in err and replacement in err


#: one config of every cross_section.kind, and a valid value of every
#: cross_section.* key; each kind reads only its own keys
KIND_CFGS = {
    "circle": PROBE_CFG,
    "square_torus": TORUS_CFG,
    "lattice_torus": TORUS_CFG.replace(
        "kind = square_torus\ncross_section.side = 6.283185307179586",
        "kind = lattice_torus\ncross_section.dual_basis = 0.5,0.0;0.25,1.0"),
    "table": TABLE_CFG,
}
CS_VALUES = {"length": "1.0", "side": "1.0", "dual_basis": "1.0,0.0;0.0,1.0", "volume": "99"}
READS = {"circle": {"length"}, "square_torus": {"side"},
         "lattice_torus": {"dual_basis"}, "table": {"volume"}}
UNREAD = [(kind, "cross_section." + name) for kind in KIND_CFGS for name in CS_VALUES
          if name not in READS[kind]]


def test_every_cross_section_key_has_a_test_value():
    keys = {"cross_section." + name for name in CS_VALUES} | {"cross_section.kind"}
    assert keys == {key for key in _KNOWN_KEYS if key.startswith("cross_section.")}
    assert len(UNREAD) == 12


@pytest.mark.parametrize("kind, key", UNREAD, ids=[f"{k}-{key}" for k, key in UNREAD])
def test_a_cross_section_key_the_kind_does_not_read_is_refused(cfg_path, capsys, kind, key):
    assert main(["criteria", "--config", cfg_path(KIND_CFGS[kind])]) == 0
    capsys.readouterr()
    text = KIND_CFGS[kind] + f"{key} = {CS_VALUES[key.partition('.')[2]]}\n"
    assert main(["criteria", "--config", cfg_path(text)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error[config]: line {text.count(chr(10))}: key {key!r} is not read "
                   f"by cross_section.kind = {kind}\n")


LAMBDA_TOP = "numerics.lambda_grid"
MODE_CAP = "numerics.mode_cap"
CAP_TORUS_CFG = with_line(with_line(TORUS_CFG, "numerics.mode_cap = 1"),
                          "numerics.lambda_grid = 0.5,20,4")


@pytest.mark.parametrize("command, text, keys, fixes", [
    # 771 eigenvalues below 1000 against the listing cap of 400
    ("spectrum", with_line(PROBE_CFG, "numerics.lambda_grid = 100,1000,8"), (LAMBDA_TOP,),
     ["numerics.lambda_grid = 100,200,8"]),
    # the circle's bound on the label range, 8 * mode_cap
    ("count", with_line(with_line(PROBE_CFG, "numerics.mode_cap = 1"),
                        "numerics.lambda_grid = 0.5,100,4"), (LAMBDA_TOP, MODE_CAP),
     ["numerics.lambda_grid = 0.05,0.5,4", "numerics.mode_cap = 21"]),
    # the torus's bound on the label box, 64 * mode_cap
    ("count", CAP_TORUS_CFG, (LAMBDA_TOP, MODE_CAP),
     ["numerics.lambda_grid = 0.05,0.3,4", "numerics.mode_cap = 100"]),
    # 5 modes (m0, m-1, m1, m-2, m2) against a cap of 3
    ("count", with_line(PROBE_CFG, "numerics.mode_cap = 3"), (LAMBDA_TOP, MODE_CAP),
     ["numerics.lambda_grid = 0.5,3,12", "numerics.mode_cap = 5"]),
    ("count", with_line(PROBE_CFG, "numerics.lambda_grid = -5,-1,4"), (LAMBDA_TOP,),
     ["numerics.lambda_grid = -5,1,4"]),
], ids=["listing-cap", "circle-label-range", "torus-label-box", "mode-cap", "negative-top"])
def test_a_window_error_names_the_keys_that_clear_it(cfg_path, capsys, command, text,
                                                     keys, fixes):
    assert main([command, "--config", cfg_path(text)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error[invalid]: ") and err.count("\n") == 1
    assert "lambda_max" not in err
    assert all(key in err for key in keys), err
    for fix in fixes:
        assert main([command, "--config", cfg_path(with_line(text, fix))]) == 0, fix
        assert capsys.readouterr().err == ""


#: configs on which reduce and count must enumerate the same modes: the
#: potentials go through the node cut, the torus has form sectors.  The
#: narrow bump is 0.004 wide and holds the node e^1.1 = 3.00417 of the
#: grid-400 mesh, which pulls m-3 and m3 below 0.5.
REDUCE_VS_COUNT = {
    "circle": PROBE_CFG,
    "circle-potential": PROBE_CFG + "potential.poly = (0.5,1.0);(-0.2,0)\n"
                                    "potential.bump = 2.5,1.0,5.0\n",
    "narrow-bump": PROBE_CFG + "potential.bump = 3.0042,0.004,-1000.0\n",
    "torus-forms": with_line(TORUS_CFG.replace("magnetic.flux = 0.5,0.25\n", ""),
                             "degree = 1"),
}


@pytest.mark.parametrize("name", sorted(REDUCE_VS_COUNT))
def test_reduce_lists_exactly_the_modes_count_reports(cfg_path, capsys, name):
    path = cfg_path(REDUCE_VS_COUNT[name])
    assert main(["reduce", "--config", path, "--format", "json"]) == 0
    listed = [record["mode"] for record in json.loads(capsys.readouterr().out)]
    assert main(["count", "--config", path, "--format", "json"]) == 0
    counted = [mode["label"] for mode in json.loads(capsys.readouterr().out)["modes"]]
    assert listed == counted
    if name.startswith("circle"):
        assert listed == ["m0", "m-1", "m1", "m-2", "m2"]
    if name == "narrow-bump":
        assert {"m-3", "m3"} <= set(listed)


def test_selftest_takes_no_flags(tmp_path, capsys):
    out_file = tmp_path / "st.json"
    assert main(["selftest", "--format", "json", "--out", str(out_file)]) == 1
    assert "error[usage]" in capsys.readouterr().err
    assert not out_file.exists()


def test_selftest_reports_each_criterion_and_survives_a_crash(monkeypatch, capsys):
    def crash():
        raise ValueError("boom")

    battery = [("passes", lambda: (True, "fine")), ("crashes", crash),
               ("fails", lambda: (False, "off"))]
    monkeypatch.setattr(selftest, "CRITERIA", battery)
    assert main(["selftest"]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    assert [re.sub(r" \(\d+\.\ds\)$", "", line) for line in out.splitlines()] == [
        "[PASS] criterion  1 - passes: fine",
        "[FAIL] criterion  2 - crashes: raised ValueError: boom",
        "[FAIL] criterion  3 - fails: off"]
    monkeypatch.setattr(selftest, "CRITERIA", battery[:1])
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.startswith("[PASS] criterion  1 - passes: fine (")


@pytest.mark.parametrize("flag, reason", [
    ("magnetic.theta0_closed", "non-closed tangential form"),
    ("magnetic.phi0_constant", "non-constant radial coefficient"),
])
def test_magnetic_outside_the_numeric_class_is_refused(cfg_path, capsys, flag, reason):
    path = cfg_path(ESS_CFG + f"{flag} = false\n")
    assert main(["essspec", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "error[invalid]" in err and reason in err
    assert main(["criteria", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "pure_point" in out and reason in out


# n = 3, k = 1 with a potential: the harmonic-sector operators carry none
FORMS_POTENTIAL_CFG = (TORUS_CFG.replace("degree = 0", "degree = 1")
                       .replace("magnetic.flux = 0.5,0.25", "potential.poly = (1.0,2.0)")
                       .replace("100,200", "200,400").replace("4,8\n", "8,16,32\n")
                       .replace("0.5,6,4", "0.005,1.3,40"))


@pytest.mark.parametrize("command", ["essspec", "reduce"])
def test_a_potential_on_forms_is_refused_by_the_numeric_commands(cfg_path, capsys,
                                                                 command):
    path = cfg_path(FORMS_POTENTIAL_CFG)
    assert main([command, "--config", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error[invalid]: a potential on 1-forms is outside the numerically "
                   "modelled class; only criteria classifies it\n")
    assert main(["criteria", "--config", path]) == 0


@pytest.mark.parametrize("text", [
    FORMS_POTENTIAL_CFG,
    FORMS_POTENTIAL_CFG.replace("potential.poly = (1.0,2.0)\n", ""),
], ids=["with-potential", "bump-only"])
def test_perturb_check_on_forms_names_its_own_bump(cfg_path, capsys, text):
    # the check adds checks.bump, a potential, whether or not the config sets one
    assert main(["perturb-check", "--config", cfg_path(text)]) == 1
    assert capsys.readouterr() == ("", (
        "error[invalid]: perturb-check on 1-forms is refused: its bump perturbation "
        "(checks.bump) is a potential, and potentials on k-forms are outside the "
        "numerically modelled class\n"))


def test_weyl_on_forms_is_refused_before_counting(cfg_path, capsys):
    # a harmonic-only table judged against the full-form law exited 2 here
    text = (TORUS_CFG.replace("geometry.p = 1", "geometry.p = 2")
            .replace("degree = 0", "degree = 1").replace("magnetic.flux = 0.5,0.25\n", "")
            .replace("100,200", "2000,4000").replace("4,8\n", "8,16\n")
            .replace("0.5,6,4", "10,20000,16") + "numerics.lambda_scale = log\n")
    assert main(["weyl", "--config", cfg_path(text)]) == 1
    assert capsys.readouterr() == ("", (
        "error[invalid]: weyl on 1-forms is refused: form counts cover the harmonic "
        "sectors only, so the counting law cannot be judged until the coexact tower "
        "is counted\n"))


def test_essspec_consistent_threshold(cfg_path, capsys):
    assert main(["essspec", "--config", cfg_path(ESS_CFG)]) == 0
    out = capsys.readouterr().out
    assert "0.25" in out and "consistent: True" in out


def test_essspec_pure_point_no_growth(cfg_path, capsys):
    assert main(["essspec", "--config", cfg_path(AB_CFG)]) == 0
    assert "no essential spectrum" in capsys.readouterr().out


def test_spectrum_lists_eigenvalues(cfg_path, capsys):
    text = AB_CFG.replace("numerics.lambda_grid = 0.05,0.5,46",
                          "numerics.lambda_grid = 0.5,8.0,4")
    text = text.replace("numerics.domain_z = 8,16,32", "numerics.domain_z = 6,8")
    assert main(["spectrum", "--config", cfg_path(text), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "mode,multiplicity,eigenvalue"
    assert len(out.splitlines()) > 1


def test_weyl_consistent(cfg_path, capsys):
    text = AB_CFG.replace("numerics.lambda_grid = 0.05,0.5,46",
                          "numerics.lambda_grid = 120,1200,16")
    text = text.replace("numerics.domain_z = 8,16,32", "numerics.domain_z = 6.5,8.5")
    text = text.replace("numerics.grid = 500,1000", "numerics.grid = 2500,5000")
    text += "numerics.lambda_scale = log\n"
    assert main(["weyl", "--config", cfg_path(text), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["consistent"] is True
    assert data["exponent"] == pytest.approx(1.0, abs=0.05)


# the p = 1 Weyl window on domains far too short for the counts to settle
UNSETTLED_WEYL_CFG = (AB_CFG.replace("0.05,0.5,46", "120,1200,16")
                      + "numerics.lambda_scale = log\n")


@pytest.mark.parametrize("domains", ["1,1.5", "4,5"])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_weyl_on_an_unsettled_pure_point_table_exits_one(cfg_path, capsys, domains, fmt):
    path = cfg_path(with_line(UNSETTLED_WEYL_CFG, f"numerics.domain_z = {domains}"))
    assert main(["weyl", "--config", path, "--format", fmt]) == 1
    out, err = capsys.readouterr()
    if fmt == "json":
        data = json.loads(out)
        assert data["stable"] is False and data["consistent"] is None
    elif fmt == "csv":
        assert next(csv.DictReader(io.StringIO(out)))["consistent"] == ""
    else:
        assert "stable: False\n" in out and out.endswith("consistent: None\n")
    assert err.startswith("error[inconclusive]: ") and err.count("\n") == 1
    assert "not domain-stable" in err


@pytest.mark.parametrize("command, study", [
    ("weyl", "weyl"), ("essspec", "threshold probe"), ("cut-check", "threshold probe"),
    ("perturb-check", "threshold probe")])
def test_a_one_domain_study_is_refused_before_counting(cfg_path, capsys, monkeypatch,
                                                       command, study):
    def counting(*args, **kwargs):
        raise AssertionError("counted a one-domain study")

    monkeypatch.setattr(assemble, "global_counting", counting)
    path = cfg_path(with_line(UNSETTLED_WEYL_CFG, "numerics.domain_z = 8"))
    assert main([command, "--config", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error[invalid]: {study} needs at least 2 domain lengths in "
                   "numerics.domain_z\n")


def test_weyl_refuses_a_prediction_without_a_certified_law(cfg_path, capsys):
    # only a term below y^(2p) confines the end: no regime's law is certified
    text = with_line(with_line(PROBE_CFG, "potential.poly = (1.0,1.0)"),
                     "numerics.lambda_grid = 10,100,8")
    assert main(["weyl", "--config", cfg_path(text)]) == 1
    assert capsys.readouterr() == ("", "error[invalid]: the prediction certifies no counting "
                                       "law to fit; the criteria command notes why\n")


def test_weyl_on_an_essential_spectrum_table_stays_informational(cfg_path, capsys):
    text = with_line(UNSETTLED_WEYL_CFG.replace("magnetic.flux = 0.5", "magnetic.flux = 0"),
                     "numerics.domain_z = 1,1.5")
    assert main(["weyl", "--config", cfg_path(text), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["stable"] is False and data["truncation_dependent"] is True
    assert data["consistent"] is True


def test_zeta_value_and_tail(cfg_path, capsys):
    assert main(["zeta", "--config", cfg_path(AB_CFG), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == pytest.approx(2 * math.pi**6 / 945, rel=1e-11)
    assert 0 <= data["tail_bound"] < 1e-11


def test_zeta_needs_s(cfg_path, capsys):
    text = AB_CFG.replace("zeta.s = 3.0\n", "")
    assert main(["zeta", "--config", cfg_path(text)]) == 1


# the circle of length 2 pi as a lattice torus: C1 = 1/2 from the volume
# 1/|det|; with cross_section.volume = 1.0 the prediction was 1/(4 pi) and
# weyl exited 2 against the fitted 0.474
LATTICE_WEYL_CFG = """\
geometry.n = 2
geometry.p = 1
cross_section.kind = lattice_torus
cross_section.dual_basis = 0.15915494309189535
magnetic.flux = 0.5
numerics.grid = 2500,5000
numerics.domain_z = 6.5,8.5
numerics.lambda_grid = 120,1200,16
numerics.lambda_scale = log
"""


def test_a_lattice_torus_is_judged_against_the_volume_of_its_basis(cfg_path, capsys):
    assert main(["weyl", "--config", cfg_path(LATTICE_WEYL_CFG), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["predicted_constant"] == 0.5
    text = LATTICE_WEYL_CFG + "cross_section.volume = 1.0\n"
    assert main(["weyl", "--config", cfg_path(text)]) == 1
    assert capsys.readouterr() == ("", "error[config]: line 10: key 'cross_section.volume' is not "
                                       "read by cross_section.kind = lattice_torus\n")


def test_out_writes_file(cfg_path, tmp_path, capsys):
    out_file = tmp_path / "pred.json"
    assert main(["criteria", "--config", cfg_path(AB_CFG),
                 "--format", "json", "--out", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out_file.read_text())["classification"] == "pure_point"


@pytest.mark.parametrize("command", ["criteria", "cut-check"])
def test_an_unwritable_out_is_one_usage_line(cfg_path, tmp_path, capsys, command):
    # it used to print an OSError traceback, for the checks after all the work
    out_file = tmp_path / "missing" / "report.json"
    assert main([command, "--config", cfg_path(PROBE_CFG), "--format", "json",
                 "--out", str(out_file)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error[usage]: cannot write --out {str(out_file)!r}: "
                   "No such file or directory\n")


def test_cut_check_command(cfg_path, capsys):
    text = ESS_CFG + "checks.y0 = 1,2\n"
    assert main(["cut-check", "--config", cfg_path(text)]) == 0
    assert "passed: True" in capsys.readouterr().out


def test_perturb_check_command(cfg_path, capsys):
    text = ESS_CFG + "checks.bump = 2.5,1.0,5.0\n"
    assert main(["perturb-check", "--config", cfg_path(text)]) == 0
    assert "passed: True" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["count", "spectrum", "essspec"])
def test_counts_decreasing_in_lambda_exit_one(cfg_path, capsys, command,
                                              counts_reversed_in_lambda):
    cfg = cfg_path(AB_CFG.replace("0.05,0.5,46", "0.5,6,12"))
    assert main([command, "--config", cfg]) == 1
    assert "decreased in lambda" in capsys.readouterr().err


def test_a_listing_that_disagrees_with_its_count_is_an_internal_error(cfg_path, capsys,
                                                                      monkeypatch):
    # each listed row lists as many eigenvalues as its finest count at the top
    cfg = cfg_path(AB_CFG.replace("0.05,0.5,46", "0.5,6,12"))
    assert main(["spectrum", "--config", cfg]) == 0
    capsys.readouterr()
    real = sturm.eigenvalues_below
    monkeypatch.setattr(sturm, "eigenvalues_below",
                        lambda pencil, lam, tol: real(pencil, lam, tol)[:-1])
    assert main(["spectrum", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[invalid]: internal error: mode ")


def test_spectrum_with_no_mode_in_the_window_lists_nothing(cfg_path, capsys):
    # no mode's threshold is below 0.1, so the report has no row to list
    cfg = cfg_path(AB_CFG.replace("0.05,0.5,46", "0.01,0.1,4"))
    assert main(["spectrum", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, line", [
    # each of these used to run: exit 2 with a verdict drawn from a nan or
    # inf, exit 0 with a nan result or an ignored input, or a late error
    ("essspec", "geometry.y0 = nan"),
    ("cut-check", "checks.y0 = 1,nan"),
    ("zeta", "zeta.s = nan"),
    ("essspec", "potential.bump = 2.5,nan,5"),
    ("perturb-check", "checks.bump = 2.5,nan,5"),
    ("count", "numerics.mode_cap = 0"),
])
def test_out_of_domain_config_values_exit_one(cfg_path, capsys, command, line):
    assert main([command, "--config", cfg_path(with_line(PROBE_CFG, line))]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error[config]") and err.count("\n") == 1


@pytest.mark.parametrize("command, line, reason", [
    # each used to run and compare a domain or a cut with itself: essspec
    # exited 2 with "counts stable" and cut-check passed vacuously
    ("essspec", "numerics.domain_z = 8,16,16",
     "invariant violated: domain lengths must be finite, > 0 and strictly increasing"),
    ("cut-check", "checks.y0 = 1.0,1.0",
     "invariant violated: checks.y0 needs at least 2 distinct values, each >= 1"),
], ids=["domain_z", "checks.y0"])
def test_repeated_domains_or_cuts_are_config_errors(cfg_path, capsys, command, line, reason):
    text = with_line(PROBE_CFG, line)
    assert main([command, "--config", cfg_path(text)]) == 1
    # the line is the last of the config
    assert capsys.readouterr() == ("", f"error[config]: line {len(text.splitlines())}: {reason}\n")


@pytest.mark.parametrize("line, reason", [
    ("numerics.domain_z = 16,8", "invariant violated: domain lengths must be finite, > 0 and strictly increasing"),
    ("numerics.mode_cap = 0", "invariant violated: mode_cap must be >= 1"),
    ("checks.y0 = 1,1", "invariant violated: checks.y0 needs at least 2 distinct values, "
                        "each >= 1"),
])
def test_a_value_outside_its_keys_domain_names_its_line(cfg_path, capsys, line, reason):
    text = with_line(PROBE_CFG, line)
    assert main(["count", "--config", cfg_path(text)]) == 1
    assert capsys.readouterr() == ("", f"error[config]: line {len(text.splitlines())}: {reason}\n")


@pytest.mark.parametrize("command", ["count", "weyl"])
def test_a_falling_grid_list_is_a_line_numbered_config_error(cfg_path, capsys, command):
    # "2000,1000" used to run, with grid 1000 taken as the finest
    path = cfg_path(PROBE_CFG.replace("numerics.grid = 200,400", "numerics.grid = 2000,1000"))
    assert main([command, "--config", path]) == 1
    assert capsys.readouterr() == ("", "error[config]: line 8: invariant violated: grids must "
                                       "be strictly increasing, with at least 4 cells each\n")


NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"])
NOT_A_NUMBER = st.sampled_from(["", "abc", "1/2", "0x10"])


def reals(**bounds):
    return st.floats(allow_nan=False, **bounds).map(repr)


#: tokens outside each numerics.* and checks.* key's domain, listed here
#: rather than read from the table they test
OUT_OF_DOMAIN = {
    "numerics.grid": st.one_of(st.integers(max_value=3).map(str), NOT_A_NUMBER,
                               st.sampled_from(["400,3", "2.5", "400,", "nan"])),
    "numerics.domain_z": st.one_of(reals(max_value=0), NON_FINITE, NOT_A_NUMBER,
                                   st.sampled_from(["16,8", "8,8", "8,nan", "8,-1", "8,inf"])),
    "numerics.tol": st.one_of(reals(max_value=0), NON_FINITE, NOT_A_NUMBER),
    "numerics.lambda_grid": st.one_of(
        st.tuples(reals(min_value=-10, max_value=10), reals(min_value=-10, max_value=10))
        .filter(lambda g: float(g[0]) >= float(g[1])).map(lambda g: f"{g[0]},{g[1]},12"),
        st.integers(max_value=1).map(lambda n: f"0.5,6,{n}"),
        NON_FINITE.map(lambda x: f"0.5,{x},12"), NON_FINITE.map(lambda x: f"{x},6,12"),
        st.sampled_from(["0.5,6", "0.5,6,12,1", "0.5,6,2.5", "0.5,abc,12"])),
    "numerics.lambda_scale": st.text("abcdefghijklmnopqrstuvwxyz", max_size=6)
    .filter(lambda s: s not in ("lin", "log")),
    "numerics.mode_cap": st.one_of(st.integers(max_value=0).map(str), NOT_A_NUMBER,
                                   st.sampled_from(["2.5", "nan"])),
    "checks.y0": st.one_of(reals(max_value=1, exclude_max=True).map(lambda y: f"1,{y}"),
                           NON_FINITE.map(lambda x: f"1,{x}"),
                           st.sampled_from(["1", "2", "1,1", "1,,2", "1,abc"])),
    "checks.bump": st.one_of(reals(max_value=0).map(lambda w: f"2.5,{w},5"),
                             NON_FINITE.map(lambda x: f"2.5,1,{x}"),
                             NON_FINITE.map(lambda x: f"{x},1,5"),
                             NON_FINITE.map(lambda x: f"2.5,{x},5"),
                             st.sampled_from(["2.5,1", "2.5,1,5,6", "2.5,abc,5"])),
}


def test_out_of_domain_strategies_cover_every_numerics_and_checks_key():
    assert set(OUT_OF_DOMAIN) == {f.key for f in _FIELDS
                                  if f.section in ("numerics", "checks")}


@given(st.sampled_from(sorted(OUT_OF_DOMAIN)).flatmap(
           lambda key: st.tuples(st.just(key), OUT_OF_DOMAIN[key])),
       st.sampled_from(["count", "spectrum", "essspec", "weyl", "reduce",
                        "cut-check", "perturb-check"]))
@settings(max_examples=150, deadline=None)
def test_any_out_of_domain_numerics_or_checks_value_is_a_config_error(item, command):
    key, token = item
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(with_line(PROBE_CFG, f"{key} = {token}"))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", path])
    assert code == 1, (key, token, err.getvalue())
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error[config]") and err.getvalue().count("\n") == 1


INCONCLUSIVE = "instability without sustained growth: inconclusive"
OPEN_LANE = "is still open at domain 32.0: the mode walls beyond it"


@pytest.mark.parametrize("command, fmt", [
    ("essspec", "text"), ("essspec", "json"), ("cut-check", "text"),
    ("cut-check", "json"), ("perturb-check", "text"), ("perturb-check", "json")])
def test_an_inconclusive_probe_exits_one_after_its_report(cfg_path, capsys, command, fmt):
    # p = 1/4 with flux 1/2: every mode walls, but from lambda = 2.5 on only
    # beyond z = 32, so every probe (cut radius, bump) is inconclusive
    path = cfg_path(with_line(with_line(PROBE_CFG, "geometry.p = 0.25"),
                              "magnetic.flux = 0.5"))
    assert main([command, "--config", path, "--format", fmt]) == 1
    out, err = capsys.readouterr()
    verdict = "consistent" if command == "essspec" else "passed"
    if fmt == "json":
        data = json.loads(out)
        assert data[verdict] is None
        assert all(OPEN_LANE in note for note in data["notes"])
    else:
        assert f"{verdict}: None" in out
    assert err.startswith("error[inconclusive]: ") and err.count("\n") == 1
    lanes = re.findall(r"mode (m0|m-1) at lambda = (\S+) " + re.escape(OPEN_LANE), err)
    assert lanes and all(float(lam) >= 2.5 for _, lam in lanes)
    if command == "cut-check":
        assert "Y0=1.0: " in err and "Y0=2.0: " in err
    if command == "perturb-check":
        assert "base: " in err and "bumped: " in err


GROWTH = ThresholdEstimate(0.25, 0.1, 0.25, 6.0, False)
SHIFTED = ThresholdEstimate(1.0, 0.1, 0.25, 6.0, False)
STABLE = ThresholdEstimate(None, 0.1, 0.25, 6.0, False, ("counts stable",))
UNSURE = ThresholdEstimate(0.25, 0.1, 0.25, 6.0, True, (INCONCLUSIVE,))
UNPREDICTED = ThresholdEstimate(0.25, 0.1, None, 6.0, False)   # growth, pure point predicted


def _weyl_fit(consistent, notes=()):
    return WeylFit(1.0, 0.5, 0.01, (10.0, 100.0), (5, 50), "N = C l^a",
                   consistent, notes)


@pytest.mark.parametrize("command, probes, code", [
    ("essspec", [GROWTH], 0),
    ("essspec", [SHIFTED], 2),
    ("essspec", [UNSURE], 1),
    ("essspec", [UNPREDICTED], 2),
    ("cut-check", [GROWTH, GROWTH], 0),
    ("cut-check", [STABLE, STABLE], 0),
    ("cut-check", [GROWTH, STABLE], 2),
    ("cut-check", [GROWTH, SHIFTED], 2),
    ("cut-check", [GROWTH, STABLE, UNSURE], 2),
    ("cut-check", [UNSURE, GROWTH, GROWTH], 1),
    ("cut-check", [STABLE, UNSURE], 1),
    ("perturb-check", [GROWTH, GROWTH], 0),
    ("perturb-check", [STABLE, STABLE], 0),
    ("perturb-check", [STABLE, GROWTH], 2),
    ("perturb-check", [GROWTH, SHIFTED], 2),
    ("perturb-check", [GROWTH, UNSURE], 1),
    ("weyl", [_weyl_fit(True)], 0),
    ("weyl", [_weyl_fit(False)], 2),
    ("weyl", [_weyl_fit(None, (INCONCLUSIVE,))], 1),
])
def test_exit_two_only_for_a_conclusive_mismatch(cfg_path, capsys, monkeypatch,
                                                 command, probes, code):
    calls = iter(probes)   # cut radii in order; base, then bumped
    monkeypatch.setattr(assemble, "threshold_probes",
                        lambda configs: [next(calls) for _ in configs])
    monkeypatch.setattr(assemble, "weyl_fit", lambda report: next(calls))
    y0s = ",".join(str(i + 1) for i in range(max(2, len(probes))))
    path = cfg_path(with_line(ESS_CFG, f"checks.y0 = {y0s}"))
    assert main([command, "--config", path, "--format", "json"]) == code
    out, err = capsys.readouterr()
    verdict = json.loads(out)["passed" if command.endswith("-check") else "consistent"]
    assert verdict == {0: True, 1: None, 2: False}[code]
    if code == 1:
        assert err.startswith("error[inconclusive]: ") and err.count("\n") == 1
        assert INCONCLUSIVE in err
    else:
        assert err == ""


#: the circle at p = 1 with grid 1000,2000, edited per case below
BOUND_CFG = AB_CFG.replace("500,1000", "1000,2000").replace("zeta.s = 3.0\n", "")


@pytest.mark.parametrize("commands, lines", [
    (["essspec"], ["magnetic.flux = 0", "numerics.lambda_grid = 0.3,1.0,46"]),
    (["essspec"], ["magnetic.flux = 2", "numerics.domain_z = 6,8",
                   "numerics.lambda_grid = 0.1,3.1,12"]),
    (["essspec"], ["geometry.p = 0.5", "geometry.y0 = 2", "magnetic.flux = 2",
                   "numerics.grid = 400,800", "numerics.domain_z = 6,8",
                   "numerics.lambda_grid = 0.5,1.5,46"]),
    (["cut-check", "perturb-check"], [
        "geometry.p = 0.25", "magnetic.flux = 2", "potential.bump = 4.0,1.0,5.0",
        "numerics.domain_z = 6,8", "numerics.lambda_grid = 0.5,1.5,46"]),
    (["perturb-check"], ["geometry.y0 = 1.5", "magnetic.flux = 0", "numerics.grid = 400,800",
                         "numerics.domain_z = 6,8", "numerics.lambda_grid = 0.01,0.41,24"]),
    (["essspec"], ["geometry.p = 0.25", "geometry.y0 = 2", "magnetic.flux = 1",
                   "potential.poly = (1.0,-1.0)", "numerics.grid = 400,800",
                   "numerics.domain_z = 8,16", "numerics.lambda_grid = 0.05,1.23,41"]),
], ids=["first-lambda", "near-domains", "near-domains-p-half", "bounds-across-variants",
        "growth-near-the-top", "p-below-one"])
def test_growth_that_only_bounds_the_bottom_agrees(cfg_path, capsys, commands, lines):
    # each exited 2 although the true bottom lies in every interval the counts
    # certify: growth from the first lambda or on domains less than a factor 2
    # apart or at p < 1 (where the channel potential stays above its limit
    # across the domain) bounds the bottom from above only, and growth within
    # an error bar of the window top does not contradict no growth
    text = BOUND_CFG
    for line in lines:
        text = with_line(text, line)
    for command in commands:
        assert main([command, "--config", cfg_path(text)]) == 0
    assert capsys.readouterr()[1] == ""


@pytest.mark.parametrize("poly, window, shown", [
    ("(0.5,0)", "0.05,1.0,39", "essential spectrum: [0.75, oo)\n"),
    ("(1.0,0.5)", "0.05,0.5,46", "classification: pure_point\n"),
], ids=["limit-shifts-the-bottom", "term-below-y2p-confines"])
def test_a_potential_term_below_y2p_is_predicted_from_its_far_field(cfg_path, capsys, poly,
                                                                    window, shown):
    # both exited 2 while criteria read a potential through its y^(2p) term only
    text = with_line(with_line(with_line(BOUND_CFG, "magnetic.flux = 0"),
                               f"potential.poly = {poly}"), f"numerics.lambda_grid = {window}")
    path = cfg_path(text)
    assert main(["criteria", "--config", path]) == 0
    assert shown in capsys.readouterr().out
    assert main(["essspec", "--config", path]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("text, poly", [
    (PROBE_CFG, "(-1.0,0.5)"),
    # 10 - y^0.01 stays above the window on every domain, so no mode is listed
    (PROBE_CFG, "(10.0,0);(-1.0,0.01)"),
    (TABLE_CFG, "(10.0,0);(-1.0,0.01)"),
], ids=["listed", "below-the-window", "table-below-the-window"])
def test_a_potential_that_falls_to_minus_infinity_is_refused_by_the_numerics(cfg_path, capsys,
                                                                             text, poly):
    path = cfg_path(with_line(text, f"potential.poly = {poly}"))
    for command in ("reduce", "count", "essspec"):
        assert main([command, "--config", path]) == 1
        assert capsys.readouterr() == ("", (
            "error[invalid]: the potential of mode m0 falls to -oo as y -> oo; a potential "
            "unbounded below is outside the numerically modelled class\n"))
    assert main(["criteria", "--config", path]) == 0
    assert "outside the certified criteria" in capsys.readouterr().out


@pytest.mark.parametrize("thresholds", [(0.4,), ()], ids=["shifted", "pure-point"])
def test_a_wrong_prediction_still_exits_two(cfg_path, capsys, monkeypatch, thresholds):
    real = assemble.classify
    monkeypatch.setattr(assemble, "classify",
                        lambda config: dataclasses.replace(real(config), thresholds=thresholds))
    assert main(["essspec", "--config", cfg_path(ESS_CFG)]) == 2
    assert "consistent: False" in capsys.readouterr()[0]


# a p = 2 end of log-length 800 ends at Y0 e^800, past the largest float
LONG_CFG = """\
geometry.n = 2
geometry.p = 2
geometry.y0 = 1.0
cross_section.kind = circle
cross_section.length = 6.283185307179586
degree = 0
magnetic.flux = 0
numerics.grid = 200,400
numerics.domain_z = 8,800
numerics.lambda_grid = 1,10,10
"""
LONG_POLY_CFG = LONG_CFG.replace("magnetic.flux = 0", "potential.poly = (1.0,2.0)")
NO_CUT_CFG = (AB_CFG.replace("500,1000", "200,400").replace("8,16,32", "8,16")
              .replace("0.05,0.5,46", "1,10,10").replace("zeta.s = 3.0\n", "")
              + "potential.poly = (-1e300,2.0)\n")
DOMAIN_END = ("error[invalid]: a domain of length 800.0 ends past the largest float "
              "radius; shorten numerics.domain_z\n")
# domains that end below the largest float radius, where a pencil row overflows
P1_OVERFLOW_CFG = with_line(with_line(LONG_CFG, "geometry.p = 1"), "numerics.domain_z = 8,360")
P2_OVERFLOW_CFG = with_line(with_line(LONG_CFG, "magnetic.flux = 0.5"),
                            "numerics.domain_z = 8,200")


def _overflow(what, entry):
    return (f"error[invalid]: overflow while evaluating the {what} (first bad entry "
            f"{entry}); shrink the domain or exponents\n")


@pytest.mark.parametrize("command, text, err", [
    ("count", LONG_CFG, DOMAIN_END),
    # at p = 1 only the mesh meets the end, as a potential row that overflows
    ("count", LONG_CFG.replace("geometry.p = 2", "geometry.p = 1"), DOMAIN_END),
    ("reduce", LONG_POLY_CFG, DOMAIN_END),
    ("count", LONG_POLY_CFG.replace("geometry.p = 2", "geometry.p = 1"), DOMAIN_END),
    # the listing refuses what the count would, before any mesh reaches a row
    ("reduce", LONG_POLY_CFG.replace("geometry.p = 2", "geometry.p = 1"), DOMAIN_END),
    ("reduce", LONG_CFG.replace("geometry.p = 2", "geometry.p = 1"), DOMAIN_END),
    ("reduce", NO_CUT_CFG, "error[invalid]: potential keeps every mode below the top of "
                           "numerics.lambda_grid; no finite mode cut exists\n"),
    # reduce lists the modes of count's own report, so it refuses with count's line
    *((command, text, err) for text, err in (
        (with_line(P1_OVERFLOW_CFG, "magnetic.flux = 0.5"),
         _overflow("normal-form potential", 8873)),
        (P1_OVERFLOW_CFG, _overflow("normal-form potential", 8873)),
        (P2_OVERFLOW_CFG, _overflow("potential", 5000))) for command in ("reduce", "count")),
    # Y0^(2p) = 1e400 overflows a float before any mode is listed
    ("cut-check", with_line(LONG_CFG.replace("8,800", "8,16"), "checks.y0 = 1e100,1"),
     "error[invalid]: Y0^(2p) at the cut radius Y0 = 1e+100 exceeds the largest float; "
     "lower geometry.y0 or checks.y0\n"),
    # at z ~ 2e50 the mesh nodes round together: zero cell widths, no warning
    ("cut-check", with_line(with_line(LONG_CFG.replace("8,800", "2,3,700"),
                                      "geometry.p = 0.5"), "checks.y0 = 1e100,1"),
     "error[invalid]: mass matrix must be strictly positive\n"),
], ids=["p2-flux", "p1-flux", "p2-poly", "p1-poly", "p1-poly-reduce", "p1-flux-reduce",
        "no-finite-cut", "p1-half-flux-overflow-reduce", "p1-half-flux-overflow-count",
        "p1-overflow-reduce", "p1-overflow-count", "p2-overflow-reduce", "p2-overflow-count",
        "p2-huge-cut", "p-half-huge-cut"])
def test_an_unrepresentable_window_is_one_error_line(cfg_path, capsys, command, text, err):
    assert main([command, "--config", cfg_path(text)]) == 1
    assert capsys.readouterr() == ("", err)


def test_a_p1_domain_past_the_largest_float_lists_and_counts_a_mode_finite_there(cfg_path,
                                                                                capsys):
    # below lambda = 1 only m0 is listed, and with no flux and no potential
    # its Liouville potential is the constant 1/4, finite at y = oo
    text = (LONG_CFG.replace("geometry.p = 2", "geometry.p = 1")
            .replace("numerics.lambda_grid = 1,10,10", "numerics.lambda_grid = 0.1,0.5,4"))
    assert main(["reduce", "--config", cfg_path(text)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["m0,0.0,1,-2.0,0.0,0,0.25"]
    assert main(["count", "--config", cfg_path(text)]) == 0
    assert capsys.readouterr().out.endswith("0.5 127\n")


def test_a_p1_domain_past_the_largest_float_counts_where_no_row_overflows(cfg_path, capsys):
    # the harmonic sectors' Liouville potential is constant at p = 1, so the
    # y = inf nodes of domain 800 never reach a pencil row
    text = (LONG_CFG.replace("geometry.p = 2", "geometry.p = 1")
            .replace("degree = 0", "degree = 1").replace("magnetic.flux = 0\n", ""))
    assert main(["count", "--config", cfg_path(text)]) == 0
    assert capsys.readouterr() == ("""\
classification: essential_from
essential spectrum: [0.25, oo)
thresholds: 0.25
weyl regime: power_n2
C1 = 1.0
note: p = 1: thresholds are the squared harmonic-sector constants of the active degrees
note: counting constants describe the full-manifold asymptotics and apply only if the \
spectrum were discrete
note: prediction has essential spectrum: counts are truncation-dependent and grow with \
the domain
note: form counts cover the harmonic sectors only; the coexact tower is discrete and \
enters constants analytically
stable across domains: False
# lambda  N
1.0 440
2.0 672
3.0 844
4.0 986
5.0 1110
6.0 1220
7.0 1322
8.0 1418
9.0 1506
10.0 1590
""", "")


# a bump that binds eight eigenvalues below 0, so N > 0 at lambda = 0
BOUND_BELOW_ZERO_CFG = """\
geometry.n = 2
geometry.p = 1
geometry.y0 = 1.0
cross_section.kind = circle
cross_section.length = 6.283185307179586
degree = 0
magnetic.flux = 0.5
potential.bump = 1.5,0.5,-60
numerics.grid = 1500,3000
numerics.domain_z = 6,8
numerics.lambda_grid = 0,1200,16
"""


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_weyl_fits_past_a_window_that_starts_at_zero(cfg_path, capsys, fmt):
    assert main(["weyl", "--config", cfg_path(BOUND_BELOW_ZERO_CFG), "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if fmt == "json":
        fit = json.loads(out)
        assert fit["lambda_range"][0] > 0 and fit["consistent"] is True
        assert fit["exponent"] == pytest.approx(1.0009, abs=1e-4)
        assert fit["constant"] == pytest.approx(0.4840, abs=1e-4)
    else:
        assert "consistent: True\n" in out
