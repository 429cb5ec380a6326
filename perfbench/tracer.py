"""Spans around calls into cusplab's layers, recorded from outside the program.

`Tracer` replaces module attributes that the program looks up at call
time with timing wrappers and puts the originals back on exit.  Each call
becomes a `Span` with a name, start, end, parent and study id; spans stay
in memory until the benchmark writes them out.  Work counts (passes, node
steps, modes, ...) are read from the call's arguments and result at the
same boundary.

Limit: `criteria.classify` and `criteria.weyl_constants` bind
`zeta.form_zeta` as a default argument when `criteria` is imported, so
replacing `zeta.form_zeta` afterwards changes nothing.  Zeta time is only
visible inside `criteria.classify_s`.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from cusplab import assemble, cli, sturm
from cusplab import reduce as red


@dataclass
class Span:
    name: str
    study: Optional[int]
    parent: Optional[int]
    start: float
    end: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


# Work counters, read from (args, kwargs, result, snapshot taken before the call).

def _stack_counts(args, kwargs, result, before):
    diags, lams = args[0], args[3]
    rows, nodes = np.shape(diags)
    return {"passes": 1, "node_steps": nodes,
            "node_lambdas": rows * nodes * np.size(lams)}


def _many_counts(args, kwargs, result, before):
    pencil, lams = args[0], args[1]
    retries = pencil.breakdowns - before
    nodes = pencil.n
    # each breakdown re-runs the pass at one shifted lambda
    return {"passes": 1 + retries, "node_steps": nodes * (1 + retries),
            "node_lambdas": nodes * (np.size(lams) + retries),
            "breakdown_retries": retries}


def _breakdowns_before(args, kwargs):
    return args[0].breakdowns


def _global_counting_counts(args, kwargs, result, before):
    num = (args[0] if args else kwargs["config"]).numerics
    return {"combos": len(num.grids) * len(num.domains)}


# (module, attribute, span name, counter, snapshot)
TARGETS = (
    (cli, "main", "cli.main", None, None),
    (cli, "parse_config", "model.parse_config", None, None),
    (assemble, "classify", "criteria.classify", None, None),
    (assemble, "global_counting", "assemble.global_counting", _global_counting_counts, None),
    (assemble, "threshold_probe", "assemble.threshold_probe", None, None),
    (assemble, "cut_invariance_check", "assemble.cut_invariance_check", None, None),
    (assemble, "perturbation_stability_check", "assemble.perturbation_stability_check",
     None, None),
    (assemble, "weyl_fit", "assemble.weyl_fit", None, None),
    (red, "enumerate_modes", "reduce.enumerate_modes",
     lambda a, k, r, b: {"modes": len(r)}, None),
    (red, "mode_operator", "reduce.mode_operator", None, None),
    (red, "liouville_transform", "reduce.liouville_transform", None, None),
    (sturm, "discretize", "sturm.discretize",
     lambda a, k, r, b: {"nodes": r.n}, None),
    (sturm, "count_below_stack", "sturm.count_below_stack", _stack_counts, None),
    (sturm, "count_below_many", "sturm.count_below_many", _many_counts, _breakdowns_before),
    (sturm, "count_below", "sturm.count_below", None, None),
    (sturm, "eigenvalues_below", "sturm.eigenvalues_below",
     lambda a, k, r, b: {"eigenvalues": len(r)}, None),
)


class Tracer:
    """Context manager that records spans while it is active.

    Set `study` before each study so its spans carry the study id.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.study: Optional[int] = None
        self._stack: List[int] = []
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        for module, attr, name, count, snapshot in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count, snapshot))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn: Callable, name: str, count, snapshot) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = snapshot(args, kwargs) if snapshot else None
            span = Span(name, self.study, stack[-1] if stack else None,
                        time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result, before)
            return result

        return traced


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

COUNT_SPANS = ("sturm.count_below_stack", "sturm.count_below_many", "sturm.count_below")
PASS_SPANS = ("sturm.count_below_stack", "sturm.count_below_many")
ASSEMBLE_SPANS = ("assemble.global_counting", "assemble.threshold_probe",
                  "assemble.cut_invariance_check",
                  "assemble.perturbation_stability_check", "assemble.weyl_fit")

#: per-layer metric name -> unit, in report order
LAYER_UNITS = {
    "sturm.count_s": "s", "sturm.passes": "count", "sturm.node_steps": "count",
    "sturm.node_lambdas": "count", "sturm.ns_per_node_step": "ns",
    "sturm.lanes_per_step": "count", "sturm.bisect_s": "s",
    "sturm.bisect_sweeps": "count", "sturm.eigenvalues": "count",
    "sturm.discretize_s": "s", "sturm.discretize_calls": "count",
    "sturm.nodes_assembled": "count", "sturm.breakdown_retries": "count",
    "reduce.enumerate_s": "s", "reduce.operator_s": "s", "reduce.modes": "count",
    "criteria.classify_s": "s", "assemble.self_s": "s", "assemble.combos": "count",
    "assemble.fit_s": "s", "model.parse_s": "s", "cli.self_s": "s",
}


def study_layers(spans: List[Span], offset: int = 0) -> Dict[str, float]:
    """Per-layer metrics of one study's spans.

    `spans` is the study's slice of the tracer's list and `offset` the index
    of its first span there, so that parent indices resolve.  Self time is a
    span's duration minus its children's; calls are sequential, so children
    never overlap.
    """
    def parent(span):
        return None if span.parent is None else spans[span.parent - offset]

    def inside(span, name):
        p = parent(span)
        while p is not None:
            if p.name == name:
                return True
            p = parent(p)
        return False

    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent - offset] += span.seconds
    self_s = [s.seconds - c for s, c in zip(spans, child_s)]

    def total(names, key=None, where=lambda s: True):
        names = (names,) if isinstance(names, str) else names
        return sum((s.counts.get(key, 0) if key else s.seconds)
                   for s in spans if s.name in names and where(s))

    def self_total(names):
        return sum(t for s, t in zip(spans, self_s) if s.name in names)

    def called(name, under):
        return sum(1 for s in spans if s.name == name
                   and parent(s) is not None and parent(s).name == under)

    node_steps = total(PASS_SPANS, "node_steps")
    node_lambdas = total(PASS_SPANS, "node_lambdas")
    kernel_s = self_total(PASS_SPANS)
    return {
        "sturm.count_s": total(COUNT_SPANS, where=lambda s: (
            parent(s) is None or parent(s).name not in COUNT_SPANS)
            and not inside(s, "sturm.eigenvalues_below")),
        "sturm.passes": total(PASS_SPANS, "passes"),
        "sturm.node_steps": node_steps,
        "sturm.node_lambdas": node_lambdas,
        "sturm.ns_per_node_step": 1e9 * kernel_s / node_steps if node_steps else 0.0,
        "sturm.lanes_per_step": node_lambdas / node_steps if node_steps else 0.0,
        "sturm.bisect_s": total("sturm.eigenvalues_below"),
        "sturm.bisect_sweeps": total(PASS_SPANS, "passes",
                                     where=lambda s: inside(s, "sturm.eigenvalues_below")),
        "sturm.eigenvalues": total("sturm.eigenvalues_below", "eigenvalues"),
        "sturm.discretize_s": total("sturm.discretize"),
        "sturm.discretize_calls": sum(1 for s in spans if s.name == "sturm.discretize"),
        "sturm.nodes_assembled": total("sturm.discretize", "nodes"),
        "sturm.breakdown_retries": (total("sturm.count_below_many", "breakdown_retries")
                                    + called("sturm.count_below", "sturm.count_below_stack")),
        "reduce.enumerate_s": total("reduce.enumerate_modes"),
        "reduce.operator_s": total(("reduce.mode_operator", "reduce.liouville_transform")),
        "reduce.modes": total("reduce.enumerate_modes", "modes"),
        "criteria.classify_s": total("criteria.classify"),
        "assemble.self_s": self_total(ASSEMBLE_SPANS),
        "assemble.combos": total("assemble.global_counting", "combos"),
        "assemble.fit_s": total("assemble.weyl_fit"),
        "model.parse_s": total("model.parse_config"),
        "cli.self_s": self_total(("cli.main",)),
    }


def layer_medians(spans: List[Span]) -> Dict[str, float]:
    """Median over studies of each per-layer metric."""
    by_study: Dict[int, list] = {}
    for i, span in enumerate(spans):
        if span.study is not None:
            by_study.setdefault(span.study, []).append(i)
    per_study = [study_layers(spans[idx[0]:idx[-1] + 1], idx[0])
                 for idx in by_study.values()]
    return {name: statistics.median(m[name] for m in per_study) for name in LAYER_UNITS}
