"""Smoke tests of the study scripts: each runs on its smallest arguments."""

import importlib.util
import pathlib
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _module(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(name):
    return _module(name).main


@pytest.mark.parametrize("name, argv, variants", [
    ("flux_switch_scan", ["--steps", "1"], 2),  # flux 0 and 1
    ("invariance_study", ["--y0", "1", "--heights", "0"], 2),  # one cut, one bump
    ("weyl_regimes_study", ["--regime", "p1"], 1),
])
def test_script_runs(capsys, name, argv, variants):
    assert _main(name)(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    # the table scripts print a header line, then one row per variant; the
    # regime study opens each variant's block with a "---" line
    if name == "weyl_regimes_study":
        rows = [line for line in lines if line.startswith("---")]
    else:
        rows = lines[1:]
    assert len(rows) == variants


def test_verdict_sweep_runs(capsys):
    assert _main("verdict_sweep")(["--configs", "3"]) == 0
    summary = capsys.readouterr().out.splitlines()[-3:]
    assert [line.split(":")[0] for line in summary] == ["essspec", "cut-check", "perturb-check"]
    assert all(line.endswith(" of 3 configs") for line in summary)


def test_a_fixed_verdict_sweep_sample_has_no_exit_two(capsys):
    # the sweep's fixed seed, 60 configs: every exit 1 has one reason line,
    # every report parses, and no verdict conclusively disagrees
    assert _main("verdict_sweep")(["--configs", "60"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert not [line for line in lines if " exit 2: " in line]
    assert [line.split(" on ")[1].split("/")[2] for line in lines[-3:]] == [
        "0 of 60 configs"] * 3


def test_verdict_sweep_fails_an_exit_one_without_one_reason(capsys, monkeypatch):
    sweep = _module("verdict_sweep")

    def two_lines(argv):
        print("error[inconclusive]: a\nerror[inconclusive]: b", file=sys.stderr)
        return 1

    monkeypatch.setattr(sweep, "cli_main", two_lines)
    assert sweep.main(["--configs", "1"]) == 1
    assert "essspec exit 1 without one expected reason" in capsys.readouterr().out
