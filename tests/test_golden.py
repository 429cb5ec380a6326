"""Golden reports: each case's report file must match its recorded bytes.

The recorded files live in tests/golden/, one per case, named
<case>.<format>.  After a deliberate change of a report, rewrite them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import os
import sys

import pytest

from cusplab.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CIRCLE = """\
geometry.n = 2
geometry.y0 = 1.0
cross_section.kind = circle
cross_section.length = 6.283185307179586
degree = 0
"""

C1 = CIRCLE + "geometry.p = 1\nmagnetic.flux = 0.5\n"
ESSENTIAL = CIRCLE + "geometry.p = 1\nmagnetic.flux = 0\n"
C2 = CIRCLE + "geometry.p = 0.5\nmagnetic.flux = 0.5\n"
C3_TAIL = CIRCLE + "geometry.p = 0.25\npotential.poly = (1.0,0.5)\n"
C3_FIT_ONLY = CIRCLE + "geometry.p = 0.25\nmagnetic.flux = 0.5\n"
TORUS_FORMS = """\
geometry.n = 3
geometry.p = 1
geometry.y0 = 1.0
cross_section.kind = square_torus
cross_section.side = 6.283185307179586
degree = 1
"""
LATTICE = """\
geometry.n = 3
geometry.p = 1
geometry.y0 = 1.0
cross_section.kind = lattice_torus
cross_section.dual_basis = 0.5,0.0;0.25,1.0
degree = 0
magnetic.flux = 0.5,0.25
"""
TABLE = """\
geometry.n = 2
geometry.p = 0.25
geometry.y0 = 1.0
cross_section.kind = table
cross_section.volume = 2.5
cross_section.eigenvalues.0 = (0.0,1);(1.0,2);(4.0,2)
cross_section.eigenvalues.1 = (0.0,1);(1.0,2)
degree = 0
potential.poly = (1.0,0.5)
"""

PROBE = ("numerics.grid = 200,400\nnumerics.domain_z = 8,16,32\n"
         "numerics.lambda_grid = 0.5,6,12\n")
BELOW = PROBE.replace("0.5,6,12", "0.05,0.2,16")   # the window ends below 1/4
LATTICE_WINDOW = PROBE.replace("0.5,6,12", "0.5,40,8")
# the bump holds one node of the grid-400 mesh, e^1.1, and pulls m-3 and m3
# into the window; every mode up to m10 reaches 6 at that node
NARROW_BUMP = "potential.bump = 3.0042,0.004,-1000.0\n"
# p = 2 is assembled in y on the finite arc length, not in normal form
P2_FLUX = CIRCLE + "geometry.p = 2\nmagnetic.flux = 0.25\n"
P2_FORMS = TORUS_FORMS.replace("geometry.p = 1", "geometry.p = 2")
P2_PROBE = ("numerics.grid = 200,400\nnumerics.domain_z = 2,3\n"
            "numerics.lambda_grid = 0.5,20,8\n")
WEYL = ("numerics.grid = 300,600\nnumerics.domain_z = 5,6\n"
        "numerics.lambda_grid = 100,1000,8\nnumerics.lambda_scale = log\n")

#: case -> (command, config text, formats, exit code)
CASES = {
    "criteria-c1": ("criteria", C1, ("text", "csv", "json"), 0),
    "criteria-essential": ("criteria", ESSENTIAL, ("text", "csv", "json"), 0),
    "criteria-c2": ("criteria", C2, ("text", "csv", "json"), 0),
    "criteria-c3-tail": ("criteria", C3_TAIL, ("text", "csv", "json"), 0),
    "criteria-c3-fit-only": ("criteria", C3_FIT_ONLY, ("text", "csv", "json"), 0),
    "criteria-torus-forms": ("criteria", TORUS_FORMS, ("text", "csv", "json"), 0),
    # the volume comes from the determinant of the dual basis
    "criteria-lattice-torus": ("criteria", LATTICE, ("text", "csv", "json"), 0),
    "criteria-table": ("criteria", TABLE, ("text", "csv", "json"), 0),
    "weyl-c1": ("weyl", C1 + WEYL, ("json",), 0),
    "essspec-essential": ("essspec", ESSENTIAL + PROBE, ("json",), 0),
    "essspec-pure-point": ("essspec", C1 + PROBE, ("json",), 0),
    "cut-check-default-y0": ("cut-check", ESSENTIAL + PROBE, ("json",), 0),
    "perturb-check-default-bump": ("perturb-check", ESSENTIAL + PROBE, ("json",), 0),
    "reduce-essential": ("reduce", ESSENTIAL + PROBE, ("csv", "json"), 0),
    "reduce-narrow-bump": ("reduce", ESSENTIAL + PROBE + NARROW_BUMP, ("csv", "json"), 0),
    "count-pure-point": ("count", C1 + PROBE, ("text", "csv", "json"), 0),
    "spectrum-pure-point": ("spectrum", C1 + PROBE, ("json",), 0),
    # p = 1/4 walls every mode: the poly lanes all settle inside domain 32,
    # the flux lanes from lambda = 2.5 on only beyond it (inconclusive)
    "essspec-walled-poly": ("essspec", C3_TAIL + PROBE, ("json",), 0),
    "cut-check-walled-poly": ("cut-check", C3_TAIL + PROBE, ("json",), 0),
    "essspec-walled-flux": ("essspec", C3_FIT_ONLY + PROBE, ("json",), 1),
    "cut-check-walled-flux": ("cut-check", C3_FIT_ONLY + PROBE, ("json",), 1),
    "essspec-below-window": ("essspec", ESSENTIAL + BELOW, ("json",), 0),
    "reduce-lattice-torus": ("reduce", LATTICE + LATTICE_WINDOW, ("csv", "json"), 0),
    "criteria-lattice-torus-gap": ("criteria", LATTICE + "potential.poly = (-0.1,2.0)\n",
                                   ("text", "json"), 0),
    "spectrum-p2-flux": ("spectrum", P2_FLUX + P2_PROBE, ("json",), 0),
    # the harmonic sectors h0 and h1 of 1-forms on the 3-torus
    "count-torus-forms": ("count", TORUS_FORMS + PROBE, ("text", "csv", "json"), 0),
    "spectrum-torus-forms": ("spectrum", TORUS_FORMS + PROBE, ("json",), 0),
    "essspec-torus-forms": ("essspec", TORUS_FORMS + PROBE, ("json",), 0),
    "spectrum-p2-torus-forms": ("spectrum", P2_FORMS + P2_PROBE, ("json",), 0),
    # p > 1 has no essential spectrum to locate: one error[inconclusive] line
    "essspec-p2-torus-forms": ("essspec", P2_FORMS + P2_PROBE, ("json",), 1),
}

RUNS = [(case, fmt) for case, (_, _, formats, _) in CASES.items() for fmt in formats]


def _report(tmp_dir, case, fmt):
    """(exit code, report bytes) of one case in one format."""
    command, text, _, _ = CASES[case]
    config = os.path.join(tmp_dir, case + ".cfg")
    out = os.path.join(tmp_dir, f"{case}.{fmt}")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(text)
    code = main([command, "--config", config, "--format", fmt, "--out", out])
    with open(out, "rb") as fh:
        return code, fh.read()


@pytest.mark.parametrize("case, fmt", RUNS, ids=[f"{c}.{f}" for c, f in RUNS])
def test_report_matches_its_golden_file(tmp_path, case, fmt):
    code, got = _report(str(tmp_path), case, fmt)
    assert code == CASES[case][3]
    with open(os.path.join(GOLDEN, f"{case}.{fmt}"), "rb") as fh:
        assert got == fh.read()


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case, fmt in RUNS:
            code, got = _report(tmp, case, fmt)
            with open(os.path.join(GOLDEN, f"{case}.{fmt}"), "wb") as fh:
                fh.write(got)
            print(f"{case}.{fmt}: exit {code}", file=sys.stderr)
