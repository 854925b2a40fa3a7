"""Outside-in span tracer for the benchmark.

The tracer times calls into the program's public functions and methods by
swapping them for thin wrappers for the duration of one traced pass.  Nothing
under ``src/`` changes: a module function is replaced in every module that
imported it (``from x import f`` binds ``f`` in the importer too), a method is
replaced on the class that defines it, and :meth:`Tracer.unpatch` puts every
original object back, including references picked up by modules that were
first imported while the wrappers were installed.

Spans are kept in memory as parallel ``array('q')`` columns (name, start,
end, parent) so a pass with half a million calls costs tens of megabytes,
and are reduced to per-name call counts, self time and inclusive time after
the pass.  Self time is a span's duration minus the durations of its direct
children; the workloads are single-threaded, so children never overlap
and the self times of a tree sum exactly to its root's duration.
"""

from __future__ import annotations

import array
import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

_BENCH_DIR = Path(__file__).resolve().parent

#: ``observe(tracer, args, kwargs, result)`` — records counters after a call.
Observer = Callable[["Tracer", tuple, dict, Any], None]


@dataclass
class SpanTotals:
    """Per-name reduction of the recorded spans."""

    calls: int = 0
    self_ns: int = 0
    incl_ns: int = 0


def _importer_modules():
    """Modules whose globals may hold a patched function: the program's and ours."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if name == "repro" or name.startswith("repro."):
            yield module
            continue
        file = getattr(module, "__file__", None)
        if file and Path(file).resolve().parent == _BENCH_DIR:
            yield module


class Tracer:
    """Records nested spans and counters from wrappers it installs."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.sets: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[Any, str, Any]] = []
        self._owners: list[Any] = []
        # id(wrapper) -> (wrapper, original); holding the wrapper keeps its id unique.
        self._wrappers: dict[int, tuple[Callable, Callable]] = {}

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(-1)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def duration_ns(self, index: int) -> int:
        return self.end[index] - self.start[index]

    def child_ns(self) -> list[int]:
        """Summed duration of each span's direct children."""
        covered = [0] * len(self.names)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[index] - self.start[index]
        return covered

    def within(self, ancestors: set[str]) -> list[bool]:
        """Whether each span has an ancestor whose name is in ``ancestors``."""
        flags = [False] * len(self.names)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                flags[index] = flags[parent] or self.names[parent] in ancestors
        return flags

    def totals(self, keep: Callable[[int], bool] | None = None) -> dict[str, SpanTotals]:
        """Calls, self time and inclusive time per span name (optionally filtered)."""
        covered = self.child_ns()
        out: dict[str, SpanTotals] = defaultdict(SpanTotals)
        for index, name in enumerate(self.names):
            if keep is not None and not keep(index):
                continue
            duration = self.end[index] - self.start[index]
            entry = out[name]
            entry.calls += 1
            entry.self_ns += duration - covered[index]
            entry.incl_ns += duration
        return out

    def durations_ns(self, name: str) -> list[int]:
        return [self.end[i] - self.start[i] for i, n in enumerate(self.names) if n == name]

    def violations(self) -> list[str]:
        """Span-tree invariants; an empty list means the tree is well formed.

        Every span closed, every child inside its parent, every self time
        non-negative, and the self times of each root's tree summing to the
        root's duration.
        """
        problems: list[str] = []
        covered = self.child_ns()
        root_of = [0] * len(self.names)
        tree_self: dict[int, int] = defaultdict(int)
        for index, parent in enumerate(self.parent):
            start, end = self.start[index], self.end[index]
            if end < start:
                problems.append(f"span {index} ({self.names[index]}) never closed")
                continue
            if parent >= 0 and not (self.start[parent] <= start and end <= self.end[parent]):
                problems.append(f"span {index} ({self.names[index]}) leaves its parent {parent}")
            own = end - start - covered[index]
            if own < 0:
                problems.append(f"span {index} ({self.names[index]}) has negative self time")
            root_of[index] = index if parent < 0 else root_of[parent]
            tree_self[root_of[index]] += own
        for root, total in tree_self.items():
            if total != self.duration_ns(root):
                problems.append(f"self times under root {root} sum to {total}, not its duration")
        return problems

    # -- wrappers ------------------------------------------------------

    def _wrap(self, fn: Callable, name: str | Callable | None, observe: Observer | None) -> Callable:
        tracer, open_, close = self, self.open, self.close
        if name is None:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(tracer, args, kwargs, result)
                return result
        elif callable(name):
            def wrapper(*args, **kwargs):
                index = open_(name(args, kwargs))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(index)
                if observe is not None:
                    observe(tracer, args, kwargs, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                index = open_(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(index)
                if observe is not None:
                    observe(tracer, args, kwargs, result)
                return result
        functools.update_wrapper(wrapper, fn)
        self._wrappers[id(wrapper)] = (wrapper, fn)
        return wrapper

    def patch(self, owner, attr: str, name, observe: Observer | None = None) -> None:
        """Wrap ``owner.attr`` in place.

        ``owner`` is the class that defines the attribute (a function, static
        or class method, or property) or a module holding a function.  ``name`` is the span name, a callable ``(args, kwargs) -> name``, or
        ``None`` for a counter-only probe that records no span.
        """
        raw = vars(owner)[attr]  # probes name the class that defines the attribute
        if isinstance(raw, staticmethod):
            new: Any = staticmethod(self._wrap(raw.__func__, name, observe))
        elif isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, name, observe))
        elif isinstance(raw, property):
            new = property(self._wrap(raw.fget, name, observe), raw.fset, raw.fdel, raw.__doc__)
        else:
            new = self._wrap(raw, name, observe)
        self._patches.append((owner, attr, raw))
        self._owners.append(owner)
        setattr(owner, attr, new)

    def patch_everywhere(self, module, attr: str, name, observe: Observer | None = None) -> None:
        """Wrap a module-level function in its module and in every importer."""
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, observe)
        for holder in _importer_modules():
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def unpatch(self) -> None:
        """Restore every original, newest patch first, then sweep stray wrappers."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for holder in _importer_modules():
            for key, value in list(vars(holder).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(holder, key, entry[1])

    def leftovers(self) -> list[str]:
        """Attributes that still hold one of this tracer's wrappers."""
        found = []
        for holder in [*self._owners, *_importer_modules()]:
            for key, value in list(vars(holder).items()):
                for inner in (value, getattr(value, "__func__", None), getattr(value, "fget", None)):
                    entry = self._wrappers.get(id(inner))
                    if entry is not None and entry[0] is inner:
                        found.append(f"{getattr(holder, '__name__', holder)}.{key}")
        return found
