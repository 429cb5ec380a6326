"""The benchmark's tracer wraps program functions by name; keep them there."""

import importlib.util
import inspect
import pathlib
import sys

from cusplab import assemble, sturm

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations there
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists_and_is_callable():
    for module, attr, name, _, _ in _tracer().TARGETS:
        assert callable(getattr(module, attr, None)), f"{name}: {module.__name__}.{attr}"


def test_traced_signatures_keep_their_positional_arguments():
    def leading(fn, k):
        return list(inspect.signature(fn).parameters)[:k]

    assert leading(sturm.count_below_stack, 4) == ["diags", "offs", "masses", "lams"]
    assert leading(sturm.count_below_many, 2) == ["pencil", "lams"]
    assert leading(assemble.global_counting, 1) == ["config"]
