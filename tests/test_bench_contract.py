"""The benchmark's tracer wraps program functions by name; keep them there."""

import importlib.util
import inspect
import math
import pathlib
import sys

import numpy as np

from cusplab import assemble, cli, sturm
from cusplab import reduce as red
from cusplab.model import (EndGeometry, MagneticData, Numerics, ProblemConfig,
                           builtin_cross_section)

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations there
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists_and_is_callable():
    for module, attr, name, _, _ in _load("tracer").TARGETS:
        assert callable(getattr(module, attr, None)), f"{name}: {module.__name__}.{attr}"


def test_traced_signatures_keep_their_positional_arguments():
    def leading(fn, k):
        return list(inspect.signature(fn).parameters)[:k]

    assert leading(sturm.count_below_stack, 4) == ["diags", "offs", "masses", "lams"]
    assert leading(sturm.count_below_many, 2) == ["pencil", "lams"]
    assert leading(assemble.global_counting, 1) == ["config"]


def test_eigenvalue_listing_passes_go_through_the_traced_count(monkeypatch):
    """The tracer counts `bisect_sweeps`, `node_steps` and `node_lambdas` at
    `sturm.count_below_many`; a Sturm pass made around it would go uncounted."""
    depth, passes = [0], []
    count_below_many, sturm_pass = sturm.count_below_many, sturm._sturm_pass

    def traced(pencil, lams):
        depth[0] += 1
        try:
            return count_below_many(pencil, lams)
        finally:
            depth[0] -= 1

    def kernel(*args):
        passes.append(depth[0] > 0)
        return sturm_pass(*args)

    monkeypatch.setattr(sturm, "count_below_many", traced)
    monkeypatch.setattr(sturm, "_sturm_pass", kernel)
    # tree points land on the diagonal, so breakdown re-counts happen too
    pen = sturm.TridiagonalPencil(diag=np.array([0.0, 1.0, 2.0, 3.0]),
                                  offdiag=np.zeros(3), mass=np.ones(4))
    assert len(sturm.eigenvalues_below(pen, 4.0, 1e-8)) == 4
    assert pen.breakdowns > 0
    assert len(passes) > pen.breakdowns and all(passes)


def test_counting_passes_go_through_the_traced_stack_count(monkeypatch):
    """The tracer counts `passes`, `node_steps` and `node_lambdas` of the
    counting tables at `sturm.count_below_stack`, from its arguments; a pass
    made around it by `global_counting` would go uncounted."""
    depth, passes = [0], []
    count_below_stack, sturm_pass = sturm.count_below_stack, sturm._sturm_pass

    def traced(diags, offs, masses, lams, *args, **kwargs):
        depth[0] += 1
        try:
            return count_below_stack(diags, offs, masses, lams, *args, **kwargs)
        finally:
            depth[0] -= 1

    def kernel(*args):
        passes.append(depth[0] > 0)
        return sturm_pass(*args)

    monkeypatch.setattr(sturm, "count_below_stack", traced)
    monkeypatch.setattr(sturm, "_sturm_pass", kernel)
    circle = builtin_cross_section("circle", length=2 * math.pi)
    for p, y0, domains in (("1", 1.5, (8.0, 16.0, 32.0)), ("1", 1.0, (6.0, 8.0)),
                           ("2", 1.0, (2.0, 3.0))):
        config = ProblemConfig(
            geometry=EndGeometry(2, p, y0), cross_section=circle,
            magnetic=MagneticData(flux=("0.5",)),
            numerics=Numerics(grids=(200, 400), domains=domains,
                              lambda_grid=(0.5, 6.0, 12)))
        assemble.global_counting(config)
    assert passes and all(passes)


def test_counting_reaches_the_operator_layer_through_the_traced_attributes(monkeypatch):
    """The tracer times `reduce.operator_s` at `reduce.mode_operator` and
    `reduce.liouville_transform`.  At p <= 1 the normal forms are taken inside
    `sturm.discretize_stack`, so it must look `liouville_transform` up on the
    `reduce` module at call time; a name bound at import would go untimed."""
    calls = {"mode_operator": 0, "liouville_transform": 0}

    def counting(name):
        original = getattr(red, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(red, name, counting(name))
    for p in ("1", "1/2"):
        config = ProblemConfig(
            geometry=EndGeometry(2, p, 1.0),
            cross_section=builtin_cross_section("circle", length=2 * math.pi),
            magnetic=MagneticData(flux=("0.5",)),
            numerics=Numerics(grids=(200, 400), domains=(6.0, 8.0),
                              lambda_grid=(0.5, 6.0, 12)))
        before = dict(calls)
        modes = assemble.global_counting(config).modes
        assert modes and calls["mode_operator"] - before["mode_operator"] == len(modes)
        assert calls["liouville_transform"] > before["liouville_transform"]


def test_cli_accepts_the_benchmark_argv():
    workloads = _load("workloads")
    commands = {cmd for w in workloads.WORKLOADS
                for study in workloads.studies(w, 0) for cmd in study.commands}
    assert commands == {"weyl", "spectrum", "cut-check", "perturb-check"}
    config, out = "study.cfg", "out.json"
    for cmd in sorted(commands):
        args = cli._build_parser().parse_args(
            [cmd, "--config", config, "--format", "json", "--out", out])
        assert (args.command, args.config, args.format, args.out) == (
            cmd, config, "json", out)
