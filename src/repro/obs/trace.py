"""Per-query tracing: named spans with wall time and work counters.

A :class:`Trace` answers "where did this query's 40 ms go".  The search
pipeline threads an optional trace through every layer; each layer that
does meaningful work records a span.  Tracing is off by default — every
instrumentation site is literally ``if trace is not None:``, so the
disabled cost is one pointer comparison per site.

Spans come in two kinds, and the distinction carries the accounting
contract:

``phase``
    An *exclusive* top-level segment of the query's wall time: the phases
    recorded by one engine call partition it, so ``sum(phases)`` must land
    within ~10% of the measured wall time (the acceptance gate; the gap is
    Python dispatch between phases).  Phase names per engine are listed in
    ``docs/observability.md``.

``detail``
    Overlapping or nested measurements — per-shard engine time inside a
    concurrent scatter, heap-offer counts.  Details
    never enter the phase sum; they explain it.

Counters ride on any span as keyword arguments (``leaves=12``,
``offers=4096``) and surface verbatim in :meth:`Trace.to_dict`, which is
what the slow-query log and the HTTP ``"trace"`` payload serialize.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Span", "Trace"]


@dataclass
class Span:
    """One named measurement inside a trace."""

    name: str
    seconds: float
    kind: str = "phase"  # "phase" (exclusive) or "detail" (overlapping)
    counters: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        entry = {"name": self.name, "seconds": self.seconds,
                 "kind": self.kind}
        if self.counters:
            entry["counters"] = {
                key: (int(value) if isinstance(value, (int, bool))
                      else float(value))
                for key, value in self.counters.items()}
        return entry


class Trace:
    """A thread-safe, append-only list of spans for one query.

    The lock only matters for detail spans recorded from worker threads
    (concurrent shard futures); phases are appended from the single thread
    driving the query.
    """

    __slots__ = ("_lock", "_spans")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: "list[Span]" = []

    # ------------------------------------------------------------ recording

    def add_phase(self, name: str, seconds: float, **counters) -> None:
        """Record one exclusive top-level segment of the query's wall time."""
        with self._lock:
            self._spans.append(Span(name, float(seconds), "phase", counters))

    def add_detail(self, name: str, seconds: float = 0.0, **counters) -> None:
        """Record an overlapping/nested measurement (excluded from the sum)."""
        with self._lock:
            self._spans.append(Span(name, float(seconds), "detail", counters))

    @contextmanager
    def phase(self, name: str, **counters):
        """Time a ``with`` block as a phase span."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add_phase(name, time.perf_counter() - start, **counters)

    @contextmanager
    def detail(self, name: str, **counters):
        """Time a ``with`` block as a detail span."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add_detail(name, time.perf_counter() - start, **counters)

    # ------------------------------------------------------------ reporting

    @property
    def spans(self) -> "list[Span]":
        with self._lock:
            return list(self._spans)

    def breakdown(self) -> "dict[str, float]":
        """Phase seconds merged by name, in first-recorded order."""
        merged: "dict[str, float]" = {}
        for span in self.spans:
            if span.kind == "phase":
                merged[span.name] = merged.get(span.name, 0.0) + span.seconds
        return merged

    def phase_seconds(self) -> float:
        """Total time across phase spans — compare against wall time."""
        return sum(self.breakdown().values())

    def to_dict(self) -> dict:
        """JSON-ready form: span list plus the merged phase breakdown."""
        return {
            "spans": [span.to_dict() for span in self.spans],
            "phases": self.breakdown(),
            "phase_seconds": self.phase_seconds(),
        }
