"""Acceptance suite: every advertised guarantee at its pinned tolerance.

One test per criterion; each prints its PASS/FAIL line with the measured
numbers (run pytest with -s or -v to see them stream).  The criterion
implementations live in cusplab.selftest so the same battery backs the
`cusplab selftest` subcommand.

Each criterion's detail string must also match tests/golden/selftest.txt
(one `index<TAB>detail` line per criterion; timings are not part of it).
Criterion 2 is pinned by its pass only: its worst deviation is LAPACK's
`eigvalsh`, not cusplab's.  After a deliberate change, rewrite the file with

    PYTHONPATH=src python tests/test_acceptance.py

and review the diff.
"""

import os
from dataclasses import replace

import pytest

from cusplab import assemble, selftest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "selftest.txt")
UNPINNED = {2}


def _golden_details():
    with open(GOLDEN, encoding="utf-8") as fh:
        return {int(index): detail for index, detail in
                (line.rstrip("\n").split("\t", 1) for line in fh)}


def _run(index):
    name, fn = selftest.CRITERIA[index - 1]
    ok, detail = fn()
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {index:2d} - {name}: {detail}")
    assert ok, f"criterion {index} ({name}): {detail}"
    if index not in UNPINNED:
        assert detail == _golden_details()[index]


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
    real = assemble.threshold_probes
    monkeypatch.setattr(assemble, "threshold_probes", lambda configs: [
        replace(est, inconclusive=True) for est in real(configs)])
    ok, _ = selftest.CRITERIA[index - 1][1]()
    assert not ok


@pytest.mark.parametrize("index", [3, 4, 8, 10])
def test_a_criterion_fails_when_the_essspec_verdict_does(monkeypatch, index):
    # each reads `consistent`, the verdict `essspec` exits on, not its own comparison
    monkeypatch.setattr(assemble.ThresholdEstimate, "consistent", property(lambda est: False))
    ok, _ = selftest.CRITERIA[index - 1][1]()
    assert not ok


@pytest.mark.parametrize("index", [8, 10])
def test_a_probe_without_growth_is_shown_not_raised(monkeypatch, index):
    real = assemble.threshold_probes
    monkeypatch.setattr(assemble, "threshold_probes", lambda configs: [
        replace(est, value=None, notes=(assemble._COUNTS_STABLE,)) for est in real(configs)])
    ok, detail = selftest.CRITERIA[index - 1][1]()
    assert not ok and "no growth" in detail


def test_criterion_10_fails_with_a_failing_invariance_check(monkeypatch):
    # criterion 10 must read the verdict that cut-check and perturb-check exit on
    real = assemble._invariance_check
    monkeypatch.setattr(assemble, "_invariance_check",
                        lambda *args: replace(real(*args), passed=False))
    ok, _ = selftest.criterion_10()
    assert not ok


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        for index, (_, fn) in enumerate(selftest.CRITERIA, start=1):
            if index not in UNPINNED:
                fh.write(f"{index}\t{fn()[1]}\n")
