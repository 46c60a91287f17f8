"""Span recording around the simulator's public callables (traced runs only).

The traced run swaps each callable listed in :data:`TARGETS` for a wrapper
that records a span — name, parent, start, end — and puts the original
back on exit. Nothing under ``src/`` is edited. Calls made once per
simulated instruction or more often (``hot`` targets) would produce
millions of spans per pass, so each hot callable keeps one aggregate span
per parent span: its duration is the sum of the calls' durations and it
counts the calls. Calls on one thread never overlap, so self time (a
span's duration minus its children's) stays exact for aggregates too.

A target that no longer exists is recorded in :attr:`SpanRecorder.absent`
and its layer reports zero; the run does not fail.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

from arith import self_times

#: ``(layer, "module:qualname", hot)``. Only names the planned deletions
#: keep: no event-core or batching internals.
TARGETS: tuple[tuple[str, str, bool], ...] = (
    ("workloads", "repro.workloads.suite:load_trace", False),
    ("vm", "repro.vm.trace:Trace.analysis", True),
    ("core", "repro.core.pipeline:Pipeline.run", False),
    ("frontend", "repro.frontend.fetch:FrontEnd.next_ready", True),
    ("frontend", "repro.frontend.fetch:FrontEnd.pop_next", True),
    ("frontend", "repro.frontend.fetch:FrontEnd.resume", True),
    ("rename", "repro.rename.renamer:Renamer.rename", True),
    ("rename", "repro.rename.freelist:FreeList.release", True),
    ("predict", "repro.predict.degree_of_use:DegreeOfUsePredictor.predict", True),
    ("predict", "repro.predict.degree_of_use:DegreeOfUsePredictor.train", True),
    ("predict",
     "repro.predict.degree_of_use:DegreeOfUsePredictor.record_outcome", True),
    ("regfile", "repro.regfile.register_cache:RegisterCache.lookup", True),
    ("regfile", "repro.regfile.register_cache:RegisterCache.write", True),
    ("regfile",
     "repro.regfile.register_cache:RegisterCache.record_filtered_write", True),
    ("regfile", "repro.regfile.register_cache:RegisterCache.invalidate", True),
    ("regfile", "repro.regfile.backing:BackingFile.schedule_read", True),
    ("regfile", "repro.regfile.backing:BackingFile.record_write", True),
    ("regfile", "repro.regfile.two_level:TwoLevelRegisterFile.tick", True),
    ("regfile", "repro.regfile.two_level:TwoLevelRegisterFile.allocate", True),
    ("regfile", "repro.regfile.two_level:TwoLevelRegisterFile.free", True),
    ("regfile",
     "repro.regfile.two_level:TwoLevelRegisterFile.consumer_executed", True),
    ("memory", "repro.memory.hierarchy:MemoryHierarchy.load", True),
    ("memory", "repro.memory.hierarchy:MemoryHierarchy.store", True),
    ("memory", "repro.memory.hierarchy:MemoryHierarchy.ifetch", True),
    ("oracle", "repro.testing.oracle:validate_stats", False),
    ("stats.to_dict", "repro.core.stats:SimStats.to_dict", False),
    ("stats.from_dict", "repro.core.stats:SimStats.from_dict", False),
    ("engine", "repro.analysis.engine:ExperimentEngine.run", False),
    ("analysis.aggregate", "repro.core.simulator:mean_ipc", True),
    ("analysis.aggregate",
     "repro.analysis.metrics:aggregate_cache_metrics", True),
    ("analysis.aggregate", "repro.core.lifetimes:phase_summary", True),
    ("analysis.aggregate", "repro.core.lifetimes:mean_phase_summary", True),
    ("analysis.aggregate", "repro.core.lifetimes:allocated_cdf", True),
    ("analysis.aggregate", "repro.core.lifetimes:live_cdf", True),
    ("analysis.aggregate", "repro.core.lifetimes:concatenate_records", True),
    ("analysis.render", "repro.analysis.report:render", False),
)


class Span:
    """One recorded span, or the aggregate of a hot callable under one parent."""

    __slots__ = ("name", "parent", "start", "end", "total", "calls", "hot")

    def __init__(self, name: str, parent: int | None, start: float) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.total = 0.0
        self.calls = 0
        #: Aggregate child spans of hot callables, by name.
        self.hot: dict[str, int] = {}


class SpanRecorder:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.layer_of: dict[str, str] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        #: Aggregate spans of hot callables called outside any span.
        self._roots: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around a block of harness code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, parent, self.clock()))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = self.clock()
        span.total = span.end - span.start
        span.calls = 1
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, hot: bool) -> Callable:
        """A callable that records *name* spans around calls to *fn*."""
        spans = self.spans
        stack = self._stack
        clock = self.clock

        if not hot:
            def traced(*args, **kwargs):
                index = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(index)
            return traced

        def traced_hot(*args, **kwargs):
            parent = stack[-1] if stack else None
            siblings = spans[parent].hot if parent is not None else self._roots
            index = siblings.get(name)
            start = clock()
            if index is None:
                index = siblings[name] = len(spans)
                spans.append(Span(name, parent, start))
            span = spans[index]
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                span.total += end - start
                span.end = end
                span.calls += 1
                stack.pop()

        return traced_hot

    # -- installing ----------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for layer, target, hot in targets:
            module_name, qualname = target.split(":")
            self.layer_of[qualname] = layer
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(target)
                continue
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = None if owner is None else owner.__dict__.get(attr)
                if raw is None:
                    self.absent.append(target)
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(qualname, raw.__func__, hot))
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(self.wrap(qualname, raw.__func__, hot))
                else:
                    wrapped = self.wrap(qualname, raw, hot)
                self._patch(owner, attr, wrapped)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(target)
                continue
            wrapped = self.wrap(qualname, original, hot)
            # ``from module import name`` copies the binding, so patch
            # every loaded repro module that holds the same object.
            for loaded in list(sys.modules.values()):
                if (getattr(loaded, "__name__", "").startswith("repro")
                        and getattr(loaded, attr, None) is original):
                    self._patch(loaded, attr, wrapped)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every original callable back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------

    def self_times(self) -> list[float]:
        return self_times(
            [(span.name, span.parent, span.total) for span in self.spans]
        )

    def by_layer(self) -> dict[str, dict[str, float]]:
        """Summed total, self time and calls per layer (harness spans excluded)."""
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            layer = self.layer_of.get(span.name)
            if layer is None:
                continue
            row = out.setdefault(layer, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            row["total_s"] += span.total
            row["self_s"] += own
            row["calls"] += span.calls
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines of name, parent, start, end, calls."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "name": span.name, "parent": span.parent,
                    "start": span.start, "end": span.end,
                    "duration": span.total, "calls": span.calls,
                }) + "\n")
