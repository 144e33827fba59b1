"""Spans around the calls bellsteer's modules make into one another.

A ``Tracer`` replaces module attributes with timing wrappers, from the
benchmark's side only: nothing under ``src/`` changes. The hot leaf calls
(``rhs``, ``control_field``, the per-sample diagnostics) are only counted and
timed, in place; every other wrapped call keeps a span in memory with its
parent and the leaf calls made inside it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from time import perf_counter

#: (module, attribute, span name, leaf). The module is the one that looks the
#: attribute up at call time, so the wrapper sits on the caller's side of the
#: layer boundary.
LAYER_CALLS = (
    ("experiments", "run_sweep", "experiments.run_sweep", False),
    ("experiments", "run_scenario", "experiments.run_scenario", False),
    ("experiments", "hamiltonians", "model.hamiltonians", False),
    ("experiments", "integrate", "dynamics.integrate", False),
    ("experiments", "build_report", "experiments.build_report", False),
    ("experiments", "peak_report", "metrics.peak_report", False),
    ("experiments", "convergence_report", "metrics.convergence_report", False),
    ("experiments", "write_trajectory_csv", "experiments.write_csv", False),
    ("experiments", "preset_scenarios", "experiments.preset_scenarios", False),
    ("experiments", "parse_config_text", "experiments.parse_config_text", False),
    ("experiments", "sweep_from_mapping", "experiments.sweep_from_mapping", False),
    ("dynamics", "rhs", "dynamics.rhs", True),
    ("dynamics", "control_field", "control.control_field", True),
    ("dynamics", "lyapunov_value", "control.lyapunov_value", True),
    ("dynamics", "subspace_populations", "model.subspace_populations", True),
    ("metrics", "concurrence", "metrics.concurrence", True),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    child_s: float  # time covered by wrapped children
    leaf_calls: dict[str, int]  # leaf calls made inside the span

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Use as a context manager; the wrapped attributes are restored on exit."""

    def __init__(self, bs, only: tuple[str, ...] | None = None):
        self.spans: list[Span] = []
        #: leaf name -> [calls, total seconds]
        self.leaves: dict[str, list] = {}
        #: spans whose wrapped children add up to more than the span itself
        self.nesting_violations = 0
        self._child_s: list[float] = []  # one accumulator per open call
        self._open: list[int] = []  # indices of open spans
        self._patches = []
        for module, attr, name, leaf in LAYER_CALLS:
            if only is None or name in only:
                self._patch(getattr(bs, module), attr, name, leaf)

    def __enter__(self) -> "Tracer":
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _patch(self, module, attr: str, name: str, leaf: bool) -> None:
        fn = getattr(module, attr)
        wrapper = self._leaf(fn, name) if leaf else self._span(fn, name)
        self._patches.append((module, attr, fn, wrapper))

    def _leaf(self, fn, name: str):
        stat = self.leaves.setdefault(name, [0, 0.0])
        child_s = self._child_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stat[0] += 1
                stat[1] += dur
                if child_s:
                    child_s[-1] += dur

        return wrapper

    def _span(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            before = {k: v[0] for k, v in self.leaves.items()}
            self._child_s.append(0.0)
            self._open.append(len(self.spans))
            self.spans.append(Span(name, 0.0, 0.0, parent, 0.0, {}))
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                span = self.spans[self._open.pop()]
                span.start, span.end = t0, t1
                span.child_s = self._child_s.pop()
                span.leaf_calls = {k: v[0] - before[k] for k, v in self.leaves.items()}
                if span.child_s > span.duration:
                    self.nesting_violations += 1
                if self._child_s:
                    self._child_s[-1] += span.duration

        return wrapper

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def mean_ms(self, name: str) -> float:
        spans = self.named(name)
        return 1e3 * sum(s.duration for s in spans) / len(spans) if spans else 0.0

    def leaf_calls(self, name: str) -> int:
        return self.leaves.get(name, [0, 0.0])[0]

    def leaf_us(self, name: str) -> float:
        calls, total = self.leaves.get(name, [0, 0.0])
        return 1e6 * total / calls if calls else 0.0
