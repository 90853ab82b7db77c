"""In-memory spans for the traced benchmark run.

A span is recorded around one call into an rsat layer, from the
benchmark's own code; the package itself is not instrumented.  Spans keep
their parent and the trial they belong to, so a layer's self time is its
duration minus the time its child spans cover.  Garbage collections are
spans too, under whichever span was open when the collector ran: a
collection is triggered by allocation counts, so its pause otherwise lands
in whichever layer happens to allocate next.  Nothing is written until the
run ends.
"""

from __future__ import annotations

import gc
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL = nullcontext()


class NoTrace:
    """Stand-in used by the untraced run: spans cost one attribute lookup."""

    enabled = False

    def span(self, name: str):
        return _NULL

    def gc_spans(self):
        return _NULL

    def count(self, name: str, value: float) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, trial id or -1]
        self.spans: list[list] = []
        self.counts: dict[str, list[float]] = {}
        self.trial = -1
        self._trials = 0
        self._stack: list[int] = []
        self._gc_open: list | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, perf_counter(), 0.0, parent, self.trial]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def trial_span(self):
        """Root span of the next trial; spans opened inside carry its id."""
        self.trial = self._trials
        self._trials += 1
        try:
            with self.span("trial"):
                yield
        finally:
            self.trial = -1

    @contextmanager
    def gc_spans(self):
        """Record every garbage collection as a ``gc.collect`` span."""
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            parent = self._stack[-1] if self._stack else -1
            self._gc_open = ["gc.collect", perf_counter(), 0.0, parent, self.trial]
        elif self._gc_open is not None:
            self._gc_open[2] = perf_counter()
            self.spans.append(self._gc_open)
            self._gc_open = None

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(value)

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds, index-aligned with ``spans``."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent != -1:
                own[parent] -= end - start
        return own

    def by_name(self) -> dict[str, list[float]]:
        """Self times grouped by span name."""
        out: dict[str, list[float]] = {}
        for rec, own in zip(self.spans, self.self_times()):
            out.setdefault(rec[0], []).append(own)
        return out

    def per_trial(self, name: str, own: bool = False, outside=frozenset()) -> dict[int, float]:
        """Per trial, the summed duration (or with ``own``, self time) of the
        spans called ``name`` whose parent's name is not in ``outside``."""
        times = self.self_times() if own else [end - start for _, start, end, _, _ in self.spans]
        out: dict[int, float] = {}
        for (span_name, _, _, parent, trial), t in zip(self.spans, times):
            if span_name == name and trial != -1:
                if parent == -1 or self.spans[parent][0] not in outside:
                    out[trial] = out.get(trial, 0.0) + t
        return out


def median_ms(values_s: list[float]) -> float:
    """Median of second-valued samples in milliseconds; 0.0 when none exist."""
    return 1e3 * statistics.median(values_s) if values_s else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    That is the 11th-largest sample, at percentile 100*(N-10)/N.  With ten
    samples or fewer no such percentile exists and the maximum is returned
    at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]
