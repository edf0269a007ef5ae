"""In-memory span tracer that wraps library functions from outside.

Only the traced run imports this module.  `Tracer.install` replaces named
module attributes with timing wrappers and `uninstall` restores them, so
nothing in the library changes.  A span records its name, start, end,
parent span and solve id (the index of the top-level span it belongs to);
spans stay in memory until the run writes them out.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    solve: int


# (module, attribute, span name).  The first three are the library entry
# points the benchmark calls; the rest are the names those entry points look
# up at call time, so wrapping them in their calling module is enough.
TARGETS = (
    ("hjb_pi", "build_benchmark", "benchmarks.build"),
    ("hjb_pi", "run_policy_iteration", "howard.run"),
    ("hjb_pi", "bellman_residual", "scheme.residual"),
    ("hjb_pi.howard", "policy_evaluate", "howard.evaluate"),
    ("hjb_pi.howard", "policy_improve", "howard.improve"),
    ("hjb_pi.howard", "assemble_evaluation_system", "linsolve.assemble"),
    ("hjb_pi.howard", "solve_sor", "linsolve.sor"),
    ("hjb_pi.howard", "solve_tridiagonal", "linsolve.thomas"),
    ("hjb_pi.linsolve", "policy_cost_and_drift", "problems.cost_drift"),
)


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the others as absent."""
        self.absent = []
        for module_name, attr, span_name in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = Span(name, 0.0, 0.0, parent, spans[parent].solve if stack else index)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for span, children in zip(self.spans, child_time):
            totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start - children)
        return totals

    def iteration_seconds(self) -> list[float]:
        """Per outer iteration of every traced solve: evaluate plus the improve after it."""
        evaluate: dict[int, list[float]] = {}
        improve: dict[int, list[float]] = {}
        for span in self.spans:
            if span.name == "howard.evaluate":
                evaluate.setdefault(span.parent, []).append(span.end - span.start)
            elif span.name == "howard.improve":
                improve.setdefault(span.parent, []).append(span.end - span.start)
        out = []
        for parent, evals in evaluate.items():
            imps = improve.get(parent, [])
            out.extend(e + (imps[k] if k < len(imps) else 0.0) for k, e in enumerate(evals))
        return out

    def to_json(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.solve] for s in self.spans]
