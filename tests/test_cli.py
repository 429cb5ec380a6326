"""Command-line front end: subcommands, formats, exit codes, determinism."""

import csv
import io
import json
import math

import pytest

from cusplab.cli import main

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

BAD_CFG = """\
geometry.n = 2
geometry.p = 1
cross_section.kind = circle
cross_section.length = 6.283185307179586
degree = 1
magnetic.flux = 0.5
"""


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


def test_missing_file_exits_one(capsys):
    assert main(["criteria", "--config", "/nonexistent.cfg"]) == 1
    assert "error[config]" in capsys.readouterr().err


def test_reduce_csv_header(cfg_path, capsys):
    assert main(["reduce", "--config", cfg_path(AB_CFG), "--lambda-max", "10"]) == 0
    out = capsys.readouterr().out
    head = out.splitlines()[0]
    assert head == ("mode,nu,multiplicity,density_exp,stiffness_exp,"
                    "potential_terms,threshold")
    assert "m0,0.25,1," in out


def test_reduce_quotes_bump_terms_and_types_json(cfg_path, capsys):
    path = cfg_path(ESS_CFG + "potential.bump = 2.5,1.0,5.0\n")
    args = ["reduce", "--config", path, "--lambda-max", "10"]
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
    args = ["count", "--config", path, "--format", "csv",
            "--lambda-max", "1.0"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[0].startswith("lambda,N_total")


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


def test_zeta_value_and_tail(cfg_path, capsys):
    assert main(["zeta", "--config", cfg_path(AB_CFG), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == pytest.approx(2 * math.pi**6 / 945, rel=1e-11)
    assert 0 <= data["tail_bound"] < 1e-11


def test_zeta_needs_s(cfg_path, capsys):
    text = AB_CFG.replace("zeta.s = 3.0\n", "")
    assert main(["zeta", "--config", cfg_path(text)]) == 1


def test_out_writes_file(cfg_path, tmp_path, capsys):
    out_file = tmp_path / "pred.json"
    assert main(["criteria", "--config", cfg_path(AB_CFG),
                 "--format", "json", "--out", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out_file.read_text())["classification"] == "pure_point"


def test_cut_check_command(cfg_path, capsys):
    text = ESS_CFG + "checks.y0 = 1,2\n"
    assert main(["cut-check", "--config", cfg_path(text)]) == 0
    assert "passed: True" in capsys.readouterr().out


def test_perturb_check_command(cfg_path, capsys):
    text = ESS_CFG + "checks.bump = 2.5,1.0,5.0\n"
    assert main(["perturb-check", "--config", cfg_path(text)]) == 0
    assert "passed: True" in capsys.readouterr().out


def test_domains_and_grids_overrides(cfg_path, capsys):
    assert main(["count", "--config", cfg_path(AB_CFG), "--format", "json",
                 "--domains", "8,16", "--grids", "400,800"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["meta"]["domains"] == [8.0, 16.0]
    assert data["meta"]["grids"] == [400, 800]


@pytest.mark.parametrize("command", ["count", "spectrum", "essspec"])
def test_counts_decreasing_in_lambda_exit_one(cfg_path, capsys, command,
                                              counts_reversed_in_lambda):
    cfg = cfg_path(AB_CFG.replace("0.05,0.5,46", "0.5,6,12"))
    assert main([command, "--config", cfg]) == 1
    assert "decreased in lambda" in capsys.readouterr().err
