"""Outside-in span tracer for the wall-clock benchmark.

The traced run patches the public entry points of each ``repro`` layer
from here -- module attributes and class methods -- and restores them
afterwards; no program file is changed.  Every call through a patched
entry point records one span ``[name, start, end, parent]`` in memory.
A span's *self time* is its duration minus the durations of its direct
children (spans on one thread nest, so children never overlap).
Generator functions are timed per ``next()``, so a lazily consumed path
enumeration is charged to the layer only while it actually runs.

Counts come from deltas of the public stats objects the program already
exposes (``Podem.stats``, ``Solver.stats``, ``ProofEngine.counters``),
taken across each outermost call of that layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span-name prefixes a SAT call is attributed to, nearest ancestor wins.
SAT_CALLERS = ("timing", "atpg")


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        #: (owner, attribute, original, had_own_attribute)
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        #: wrapper object id -> original, for the restore sweep
        self._wrappers: Dict[int, Any] = {}

    # -- spans ------------------------------------------------------------ #

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.spans[index][0]!r} closed out of order"
            )

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def inside(self, name: str) -> bool:
        """Is a span called ``name`` open on the stack?"""
        return any(self.spans[i][0] == name for i in self._stack)

    # -- wrapping --------------------------------------------------------- #

    def wrap(
        self,
        fn: Callable,
        name: str,
        stats: Optional[Callable[[tuple], Optional[Dict[str, float]]]] = None,
        prefix: str = "",
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """A traced stand-in for ``fn``.

        ``stats(args)`` returns the stats dict whose deltas across the
        outermost call are added to ``counts`` under ``prefix``;
        ``on_result(result)`` sees each return value.  Generator
        functions come back as per-``next()`` timed iterators.
        """
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return _TracedIterator(tracer, name, fn(*args, **kwargs))

            self._wrappers[id(gen_wrapper)] = fn
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = stats is not None and not tracer.inside(name)
            before = dict(stats(args) or {}) if outermost else None
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
                if outermost:
                    after = stats(args) or {}
                    for key, value in after.items():
                        delta = value - before.get(key, 0)
                        if delta:
                            tracer.counts[prefix + key] += delta
            tracer.counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(result)
            return result

        self._wrappers[id(wrapper)] = fn
        return wrapper

    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` (a module or class) with ``wrapper``."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, wrapper)

    def patch_everywhere(self, fn: Callable, wrapper: Callable) -> None:
        """Patch every ``repro`` module attribute bound to ``fn``
        (``from x import fn`` copies the binding into each importer)."""
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first, then sweep ``repro`` for any
        wrapper a module imported while the patches were live."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                original = self._wrappers.get(id(value))
                if original is not None:
                    setattr(module, attr, original)

    def is_wrapper(self, value: Any) -> bool:
        return id(value) in self._wrappers

    # -- analysis --------------------------------------------------------- #

    def self_times(self) -> List[float]:
        """Self time of every span, by span index."""
        selfs = [
            (end if end is not None else start) - start
            for _name, start, end, _parent in self.spans
        ]
        for name, start, end, parent in self.spans:
            if parent >= 0:
                selfs[parent] -= (end if end is not None else start) - start
        return selfs

    def roots(self) -> List[int]:
        """Index of the outermost ancestor of every span (a parent is
        always opened, so indexed, before its children)."""
        out: List[int] = []
        for index, (_name, _start, _end, parent) in enumerate(self.spans):
            out.append(index if parent < 0 else out[parent])
        return out

    def layer_self_times(self, under: str) -> Dict[str, float]:
        """Self seconds summed per span name, over the spans inside a
        top-level span whose name starts with ``under`` (``"op:"`` for the
        timed operations, so set-up work is left out).  ``sat.solve`` is
        split by the nearest ``timing.*``/``atpg.*`` ancestor."""
        out: Dict[str, float] = defaultdict(float)
        roots = self.roots()
        for index, seconds in enumerate(self.self_times()):
            name = self.spans[index][0]
            if not self.spans[roots[index]][0].startswith(under):
                continue
            if name == "sat.solve":
                name = f"sat.solve.{self._sat_caller(index)}"
            out[name] += seconds
        return dict(out)

    def total_time(self, name: str, under: str) -> float:
        """Seconds spent in spans called ``name`` (outermost ones only,
        children included) inside top-level spans starting ``under``."""
        roots = self.roots()
        total = 0.0
        for index, (span_name, start, end, parent) in enumerate(self.spans):
            if span_name != name or end is None:
                continue
            if not self.spans[roots[index]][0].startswith(under):
                continue
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def _sat_caller(self, index: int) -> str:
        parent = self.spans[index][3]
        while parent >= 0:
            head = self.spans[parent][0].split(".", 1)[0]
            if head in SAT_CALLERS:
                return head
            parent = self.spans[parent][3]
        return "other"

    def dump(self, path: str) -> None:
        """Write every span (and the counts) out as JSON."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                handle,
            )


def _repro_modules() -> List[Any]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro."))
    ]


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> "_Span":
        self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.close(self.index)


class _TracedIterator:
    """Generator proxy: each ``next()`` is one span."""

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        index = self._tracer.open(self._name)
        try:
            return next(self._inner)
        finally:
            self._tracer.close(index)

    def close(self) -> None:
        self._inner.close()
