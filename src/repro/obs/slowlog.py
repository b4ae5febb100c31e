"""Structured slow-query log: one JSON line per over-threshold query.

Latency histograms say *that* the p99 moved; the slow-query log says
*why*, one query at a time.  :meth:`SlowQueryLog.observe` is called by the
serving layer after every query with its wall time, its
:class:`~repro.index.search.SearchStats`, and (when the request was
traced) its :class:`~repro.obs.trace.Trace`; queries at or above the
threshold produce an entry that is kept in a bounded in-memory ring
(:meth:`recent`, for tests and ad-hoc inspection) and, when a path is
configured, appended as one JSON line to a file an operator can tail.

Entry format (all times in seconds)::

    {"ts": ..., "index": "lendb", "k": 5, "wall_time_s": 0.041,
     "timed_out": false, "partial": false,
     "breakdown": {"approximate_s": ..., "traversal_s": ...,
                   "refinement_s": ..., "engine_wall_s": ...},
     "work": {"leaves_visited": ..., "series_lower_bounds": ...,
              "exact_distances": ...},
     "phases": {...}, "spans": [...]}        # only when traced
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path

from repro.core.errors import InvalidParameterError

__all__ = ["SlowQueryLog"]


class SlowQueryLog:
    """Record queries whose wall time meets ``threshold_s``.

    Parameters
    ----------
    threshold_s:
        Queries at or above this wall time are logged.
    path:
        Optional file to append one JSON line per slow query to.  Opened
        per write — slow queries are rare by construction, and per-write
        opens survive log rotation without any signal handling.
    capacity:
        Size of the in-memory ring served by :meth:`recent`.
    """

    def __init__(self, threshold_s: float, path: "str | Path | None" = None,
                 capacity: int = 256) -> None:
        if not (threshold_s > 0):
            raise InvalidParameterError(
                f"slow-query threshold must be > 0, got {threshold_s}")
        if capacity < 1:
            raise InvalidParameterError(
                f"slow-query log capacity must be >= 1, got {capacity}")
        self.threshold_s = float(threshold_s)
        self._path = Path(path) if path is not None else None
        self._entries: "deque[dict]" = deque(maxlen=int(capacity))
        self._lock = threading.Lock()
        self._logged = 0

    def observe(self, *, index: str, wall_time_s: float, k: int,
                stats=None, trace=None) -> "dict | None":
        """Log the query if slow; returns the entry, or ``None`` if fast."""
        if wall_time_s < self.threshold_s:
            return None
        entry = {
            "ts": time.time(),
            "index": index,
            "k": int(k),
            "wall_time_s": float(wall_time_s),
        }
        if stats is not None:
            entry.update({
                "timed_out": bool(stats.timed_out),
                "partial": bool(stats.partial),
                "breakdown": {
                    "approximate_s": float(stats.approximate_time),
                    "traversal_s": float(stats.traversal_time),
                    "refinement_s": float(stats.refinement_time),
                    "engine_wall_s": float(stats.wall_time_s),
                },
                "work": {
                    "leaves_visited": int(stats.leaves_visited),
                    "series_lower_bounds": int(stats.series_lower_bounds),
                    "exact_distances": int(stats.exact_distances),
                },
            })
        if trace is not None:
            traced = trace.to_dict()
            entry["phases"] = traced["phases"]
            entry["spans"] = traced["spans"]
        line = json.dumps(entry, separators=(",", ":"))
        with self._lock:
            self._entries.append(entry)
            self._logged += 1
            if self._path is not None:
                try:
                    with self._path.open("a", encoding="utf-8") as handle:
                        handle.write(line + "\n")
                except OSError:
                    # Telemetry must never fail the query it describes.
                    pass
        return entry

    def recent(self) -> "list[dict]":
        """The most recent entries, oldest first."""
        with self._lock:
            return list(self._entries)

    @property
    def logged(self) -> int:
        """Total slow queries observed (including ones evicted from the ring)."""
        with self._lock:
            return self._logged
