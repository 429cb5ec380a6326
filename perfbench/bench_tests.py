"""Tests of the benchmark itself.

Run: python3 -m pytest -q perfbench/bench_tests.py   (about a minute)

The file name keeps these out of the default test collection: the work
counts below are pinned to the seed commit, and a later change that cuts
Sturm passes is meant to move them.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads

run.prepare()

from cusplab import assemble, cli, sturm  # noqa: E402
from cusplab import reduce as red  # noqa: E402
from tracer import TARGETS, Tracer, study_layers  # noqa: E402

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")

WORK_COUNTS = ("sturm.passes", "sturm.node_steps", "sturm.node_lambdas",
               "sturm.bisect_sweeps", "sturm.eigenvalues", "sturm.discretize_calls",
               "sturm.nodes_assembled", "sturm.breakdown_retries", "reduce.modes",
               "assemble.combos")

# Work counts of one study, traced at the seed commit.
SEED_TRACE = {
    "weyl-zeta": {
        "sturm.passes": 4, "sturm.node_steps": 461996,
        "sturm.node_lambdas": 140446784, "sturm.bisect_sweeps": 0,
        "sturm.eigenvalues": 0, "sturm.discretize_calls": 76,
        "sturm.nodes_assembled": 8777924, "sturm.breakdown_retries": 0,
        "reduce.modes": 19, "assemble.combos": 4},
    "mu=0/8,y0=1.0:2.0,h=5.0": {
        "sturm.passes": 24, "sturm.node_steps": 83976,
        "sturm.node_lambdas": 3862896, "sturm.bisect_sweeps": 0,
        "sturm.eigenvalues": 0, "sturm.discretize_calls": 24,
        "sturm.nodes_assembled": 83976, "sturm.breakdown_retries": 0,
        "reduce.modes": 4, "assemble.combos": 24},
    # at Y0 = 2 no mode of flux 1/2 reaches the window, so that probe makes no pass
    "mu=4/8,y0=1.0:2.0,h=5.0": {
        "sturm.passes": 18, "sturm.node_steps": 62982,
        "sturm.node_lambdas": 5794344, "sturm.bisect_sweeps": 0,
        "sturm.eigenvalues": 0, "sturm.discretize_calls": 36,
        "sturm.nodes_assembled": 125964, "sturm.breakdown_retries": 0,
        "reduce.modes": 6, "assemble.combos": 24},
    "spectrum-locate": {
        "sturm.passes": 70, "sturm.node_steps": 532930,
        "sturm.node_lambdas": 1519648, "sturm.bisect_sweeps": 64,
        "sturm.eigenvalues": 2, "sturm.discretize_calls": 28,
        "sturm.nodes_assembled": 115972, "sturm.breakdown_retries": 0,
        "reduce.modes": 4, "assemble.combos": 6},
}


def _study(key):
    if key in ("weyl-zeta", "spectrum-locate"):
        return key, workloads.studies(key, 0)[0]
    return "invariance-scan", next(s for s in workloads.invariance_variants() if s.key == key)


def _traced_counts(workload, study, workdir):
    runner = run.Runner(workload, [study], str(workdir))
    tracer = Tracer()
    tracer.study = 0
    with tracer:
        runner.run(0)
    assert runner.failures == []
    layers = study_layers(tracer.spans)
    return {name: layers[name] for name in WORK_COUNTS}


def test_same_seed_gives_same_study_list():
    for workload in workloads.WORKLOADS:
        first = [(s.key, s.config) for s in workloads.studies(workload, 7)]
        again = [(s.key, s.config) for s in workloads.studies(workload, 7)]
        assert first == again
    scan = [s.key for s in workloads.studies("invariance-scan", 7)]
    assert scan != [s.key for s in workloads.studies("invariance-scan", 8)]
    assert sorted(scan) == sorted(s.key for s in workloads.invariance_variants())
    assert len(set(scan)) == 81


def test_wrappers_are_restored_even_after_an_error():
    originals = [(module, attr, getattr(module, attr)) for module, attr, *_ in TARGETS]
    kernel = sturm.count_below_stack
    with pytest.raises(RuntimeError):
        with Tracer():
            assert sturm.count_below_stack is not kernel
            raise RuntimeError("boom")
    for module, attr, original in originals:
        assert getattr(module, attr) is original
    assert {m for m, *_ in TARGETS} == {assemble, cli, red, sturm}


@pytest.mark.parametrize("key", list(SEED_TRACE))
def test_traced_work_counts_repeat_and_match_the_seed(key, tmp_path):
    workload, study = _study(key)
    first = _traced_counts(workload, study, tmp_path)
    second = _traced_counts(workload, study, tmp_path)
    assert first == second == SEED_TRACE[key]


def test_check_rejects_wrong_answers():
    expected = workloads.load_expected()
    study = workloads.studies("weyl-zeta", 0)[0]
    good = {"consistent": True, "n_range": list(expected["weyl-zeta"]["n_range"])}
    assert workloads.check("weyl-zeta", study, [good], expected) is None
    assert workloads.check("weyl-zeta", study, [dict(good, consistent=False)], expected)
    assert workloads.check("weyl-zeta", study, [dict(good, n_range=[109, 4957])], expected)
    variant = next(s for s in workloads.invariance_variants() if s.flux == 1)
    outs = [{"passed": True, "variants": {name: dict(probe, error=0.02)
                                         for name, probe in want.items()}}
            for want in expected["invariance-scan"][variant.key].values()]
    assert workloads.check("invariance-scan", variant, outs, expected) is None
    outs[1]["variants"]["bumped"].update(estimate=0.305)
    assert "prediction" in workloads.check("invariance-scan", variant, outs, expected)
    assert expected["wrong_at_record"] == {}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    samples = [float(i) for i in range(40)]
    value, pct = run.tail(samples)
    assert value == 29.0 and pct == 75.0
    assert sum(s > value for s in samples) == 10


def _run_bench(trace, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "invariance-scan", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_metric_is_printed_with_its_unit(trace, section):
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    done = _run_bench(trace, run.ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = _run_bench(0, tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
