"""Per-layer timing by wrapping the solver's module functions from outside.

The solvers reach each other through module globals (``bnb`` calls the
``greedy`` it imported, ``bnb1d`` the ``priority_score`` it imported from
``bnb``, and so on), so a function is wrapped in every ``rectcover`` module
that binds it, and every binding is restored on exit.

Only calls made inside a span the benchmark opens (``setup`` around instance
generation, ``solve`` around each solver call) are counted.  Every counted
call is timed on one stack: a call's self time is its duration minus the
durations of the wrapped calls made inside it, so the self times of all
layers plus the remainder of the enclosing ``solve`` span add up to the
span's duration.  Per-node functions are only aggregated (calls, total
and self seconds, work counts), which keeps memory bounded at hundreds of
thousands of nodes; per-solve boundaries also record a span (name, start,
end, parent span, root span) that is kept in memory and written out at the
end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: ``(module, attribute, layer name, spanned)``.  An attribute written as
#: ``Class.method`` is a static method patched on its class.
TARGETS = (
    ("rectcover.instgen", "generate", "instgen.generate", True),
    ("rectcover.instgen", "generate_1d", "instgen.generate", True),
    ("rectcover.greedy", "greedy", "greedy.greedy", True),
    ("rectcover.bnb", "CandidateGrids.from_instance", "bnb.CandidateGrids.from_instance", True),
    ("rectcover.reward", "build_reward_matrix", "reward.build_reward_matrix", True),
    ("rectcover.reward", "solve_single_zone", "reward.solve_single_zone", False),
    ("rectcover.reward", "covered_reward", "reward.covered_reward", False),
    ("rectcover.reward", "planar_form", "reward.planar_form", False),
    ("rectcover.critical", "inner_demand_grid", "critical.inner_demand_grid", False),
    ("rectcover.bnb", "upper_bound", "bnb.upper_bound", False),
    ("rectcover.bnb", "branch", "bnb.branch", False),
    ("rectcover.bnb", "partition", "bnb.partition", False),
    ("rectcover.bnb", "priority_score", "bnb.priority_score", False),
    ("rectcover.bnb1d", "upper_bound_1d", "bnb1d.upper_bound_1d", False),
    ("rectcover.bnb1d", "branch_1d", "bnb1d.branch_1d", False),
)

_BOUNDS = ("bnb.upper_bound", "bnb1d.upper_bound_1d")


def _work_counts(layer: str, result: Any, caller: str | None) -> tuple[tuple[str, int], ...]:
    """Work counts a finished call adds, by layer."""
    if layer in ("bnb.branch", "bnb1d.branch_1d"):
        return ((f"{layer}.children", len(result)),)
    if layer == "reward.build_reward_matrix":
        return (("reward.build_reward_matrix.cells", int(result.entries.size)),)
    if layer == "critical.inner_demand_grid":
        return (("critical.grid_values", len(result.values)),)
    if layer == "reward.covered_reward" and caller in _BOUNDS:
        return (("bnb.leaves", 1),)
    return ()


class Tracer:
    """Aggregated call statistics and spans of one traced run."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        #: ``[id, name, start, end, parent id, root id]`` per span.
        self.spans: list[list[Any]] = []
        # Open frames: [name, child seconds, id of the nearest span, start].
        self._stack: list[list[Any]] = []

    def _enter(self, name: str, spanned: bool) -> list[Any]:
        parent = self._stack[-1] if self._stack else None
        span = parent[2] if parent else None
        if spanned:
            root = self.spans[span][5] if span is not None else len(self.spans)
            self.spans.append([len(self.spans), name, 0.0, 0.0, span, root])
            span = len(self.spans) - 1
        frame = [name, 0.0, span, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list[Any], spanned: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, child_s, span, start = frame
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][1] += duration
        if spanned:
            self.spans[span][2:4] = [start, end]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around code of the benchmark itself (``solve``, ``setup``)."""
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame, True)

    def _wrap(self, fn: Callable, layer: str, spanned: bool) -> Callable:
        def wrapper(*args, **kwargs):
            if not self._stack:
                # Outside every ``solve`` and ``setup`` span: the benchmark's
                # own answer checks, which are not the solver's work.
                return fn(*args, **kwargs)
            frame = self._enter(layer, spanned)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, spanned)
            caller = self._stack[-1][0] if self._stack else None
            for key, n in _work_counts(layer, result, caller):
                self.counts[key] += n
            return result

        return wrapper

    @contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Wrap every binding of every target; restore all of them on exit."""
        undo: list[tuple[Any, str, Any]] = []
        try:
            for module_name, attr, layer, spanned in TARGETS:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = vars(cls)[method]
                    undo.append((cls, method, original))
                    setattr(cls, method, staticmethod(self._wrap(original.__func__, layer, spanned)))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(original, layer, spanned)
                for owner in rectcover_modules():
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            undo.append((owner, key, original))
                            setattr(owner, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, root in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "root": root}) + "\n")


def rectcover_modules() -> list[Any]:
    return [m for name, m in sys.modules.items() if name == "rectcover" or name.startswith("rectcover.")]


def bindings() -> dict[tuple[str, str], Any]:
    """Every attribute of every loaded ``rectcover`` module and class, for restore checks."""
    out: dict[tuple[str, str], Any] = {}
    for module in rectcover_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for ckey, cvalue in vars(value).items():
                    out[(f"{module.__name__}.{key}", ckey)] = cvalue
    return out
