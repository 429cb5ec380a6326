"""Acceptance suite: every advertised guarantee at its pinned tolerance.

One test per criterion; each prints its PASS/FAIL line with the measured
numbers (run pytest with -s or -v to see them stream).  The criterion
implementations live in cusplab.selftest so the same battery backs the
`cusplab selftest` subcommand.
"""

from dataclasses import replace

import pytest

from cusplab import assemble, selftest


def _run(index):
    name, fn = selftest.CRITERIA[index - 1]
    ok, detail = fn()
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {index:2d} - {name}: {detail}")
    assert ok, f"criterion {index} ({name}): {detail}"


def test_criterion_01_discretization_sanity():
    _run(1)


def test_criterion_02_dense_oracle_equivalence():
    _run(2)


def test_criterion_03_scalar_threshold_p1():
    _run(3)


def test_criterion_04_flux_switch():
    _run(4)


def test_criterion_05_weyl_law_p1():
    _run(5)


def test_criterion_06_log_regime():
    _run(6)


def test_criterion_07_power_regime():
    _run(7)


def test_criterion_08_form_thresholds():
    _run(8)


def test_criterion_09_p_above_one_discreteness():
    _run(9)


def test_criterion_10_cut_and_perturbation_invariance():
    _run(10)


def test_criterion_11_predicate_table():
    _run(11)


def test_criterion_12_magnetic_schrodinger_margin():
    _run(12)


@pytest.mark.parametrize("index", [3, 4, 8, 10])
def test_a_criterion_refuses_an_inconclusive_probe(monkeypatch, index):
    real = assemble.threshold_probe
    monkeypatch.setattr(assemble, "threshold_probe",
                        lambda *args, **kw: replace(real(*args, **kw), inconclusive=True))
    ok, _ = selftest.CRITERIA[index - 1][1]()
    assert not ok
