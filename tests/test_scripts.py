"""Smoke tests of the study scripts: each runs on its smallest arguments."""

import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


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
