"""Spans recorded from outside the program, and the arithmetic over them.

The traced pass replaces the public entry points of each layer with timing
shims (plain attribute replacement; a function imported by name is patched on
the module that *consumes* it).  Every shim appends one record

    (id, name, start, end, parent, thread, phase, round, attrs)

to an in-memory list that is written out when the run ends.  ``parent`` is
the span that was open on the same thread when this one started; work that
hops threads (handler thread → micro-batch drainer → shard scatter pool) is
linked afterwards by interval containment, see :func:`link_cross_thread`.

A layer's **self time** is its span's duration minus the part of that
interval its child spans cover.  The per-request budget weights every span
of a coalesced engine batch by the number of requests that rode in it, so
the layer shares add up to the latency the callers observed.

Worker processes are not patched.  Their share is the ``wall_time_s`` they
already report in the ``stats`` of each RPC answer; the remainder of the
coordinator-side RPC span is codec + transport + worker HTTP.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from bisect import bisect_right
from collections import defaultdict
from contextlib import contextmanager

# Indices into a span record.
SID, NAME, START, END, PARENT, THREAD, PHASE, ROUND, ATTRS = range(9)


class Recorder:
    """In-memory span and counter store shared by every shim.

    ``phase`` gates recording: shims are a plain call-through while it is
    ``None``, so verification never pollutes the record.  Counters count
    only during the timed part of round 0 — rounds differ in their data and
    their number depends on the clock, the first one always runs — so that
    counts repeat exactly from run to run.
    """

    def __init__(self) -> None:
        self.spans: "list[tuple]" = []
        self.counters: "dict[str, float]" = defaultdict(float)
        self.phase: "str | None" = None
        self.round_index = 0
        self._ids = itertools.count()
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.phase == "round" and self.round_index == 0:
            self.counters[name] += amount

    @contextmanager
    def in_phase(self, phase: str, round_index: int):
        self.phase, self.round_index = phase, round_index
        try:
            yield
        finally:
            self.phase = None

    def dump(self, path) -> None:
        """Write the spans as JSON lines; ``request`` is the id shared by
        every span of one request (of one coalesced batch, for riders)."""
        roots = tree_roots(link_cross_thread(self.spans))
        with open(path, "w") as stream:
            for span in self.spans:
                stream.write(json.dumps({
                    "id": span[SID], "name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT],
                    "request": roots[span[SID]][SID],
                    "thread": span[THREAD], "phase": span[PHASE],
                    "round": span[ROUND], **span[ATTRS]}) + "\n")


def _shim(recorder: Recorder, name: str, function, attrs=None):
    def shim(*args, **kwargs):
        phase = recorder.phase
        if phase is None:
            return function(*args, **kwargs)
        stack = recorder.stack()
        sid = next(recorder._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter()
        failed = True
        try:
            result = function(*args, **kwargs)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if failed:
                extra = {"failed": True}
            else:   # attributes are read off the span's clock
                extra = attrs(args, result) if attrs is not None else {}
            recorder.spans.append((sid, name, start, end, parent,
                                   threading.get_ident(), phase,
                                   recorder.round_index, extra))

    shim.__wrapped__ = function
    return shim


# ---- what is patched -------------------------------------------------------

def _rows_second(args, _result):      # kernel(query, collection, ...)
    return {"rows": int(args[1].shape[0])}


def _rows_cross(args, _result):       # kernel(queries, collection, ...)
    return {"rows": int(args[0].shape[0]) * int(args[1].shape[0])}


def _rows_first(args, _result):       # kernel(pairs, ...)
    return {"rows": int(args[0].shape[0])}


def _batch_size(args, _result):       # method(self, queries, ...)
    return {"n": len(args[1])}


def _dynamic_read(args, result):
    engine = args[0]
    attrs = {"delta_rows": int(engine.delta_count),
             "tombstones": int(engine.num_tombstones)}
    if isinstance(result, list):
        attrs["n"] = len(result)
    return attrs


def _worker_wall(_args, payload):
    stats = payload.get("stats", {})
    if isinstance(stats, list):       # batched RPC: every entry carries the
        stats = stats[0] if stats else {}   # batch's wall time
    return {"worker_s": float(stats.get("wall_time_s", 0.0))}


#: Functions imported by name: (consuming module, attribute, span, attrs).
FUNCTION_PATCHES = (
    ("repro.index.search", "batch_lower_bound", "core.simd.lb", _rows_second),
    ("repro.index.tree", "batch_lower_bound", "core.simd.lb", _rows_second),
    ("repro.transforms.base", "batch_lower_bound", "core.simd.lb",
     _rows_second),
    ("repro.index.tree", "batch_lower_bound_multi", "core.simd.lb",
     _rows_cross),
    ("repro.index.batch_search", "batch_lower_bound_multi", "core.simd.lb",
     _rows_cross),
    ("repro.index.batch_search", "batch_lower_bound_pairs", "core.simd.lb",
     _rows_first),
    ("repro.index.search", "squared_euclidean_batch", "core.distance.ed",
     _rows_second),
    ("repro.index.search", "squared_euclidean_batch_abandon",
     "core.distance.ed", _rows_second),
    ("repro.index.batch_search", "pairwise_squared_euclidean",
     "core.distance.ed", _rows_cross),
    # Imported lazily (inside functions) by their callers, so patching the
    # defining module is patching the consumer's lookup.
    ("repro.index.persistence", "save_index", "index.persistence.save", None),
    ("repro.index.persistence", "save_dynamic", "index.persistence.save",
     None),
    ("repro.index.persistence", "load_index", "index.persistence.load", None),
    ("repro.index.persistence", "load_dynamic", "index.persistence.load",
     None),
)

#: Methods: (module, class, method, span, attrs).
METHOD_PATCHES = (
    ("repro.transforms.sfa", "SFA", "fit", "transforms.sfa_fit", None),
    ("repro.transforms.sfa", "SFA", "transform_batch",
     "transforms.sfa_transform_batch", None),
    ("repro.transforms.sfa", "SFA", "transform", "transforms.sfa_transform",
     None),
    ("repro.index.tree", "TreeIndex", "build", "index.tree.build", None),
    ("repro.index.tree", "TreeIndex", "leaf_lower_bounds", "index.tree.query",
     None),
    ("repro.index.tree", "TreeIndex", "series_lower_bounds",
     "index.tree.query", None),
    ("repro.index.tree", "TreeIndex", "all_series_lower_bounds",
     "index.tree.query", None),
    ("repro.index.tree", "TreeIndex", "approximate_leaf", "index.tree.query",
     None),
    ("repro.index.search", "ExactSearcher", "knn", "index.search.knn", None),
    ("repro.index.batch_search", "BatchSearcher", "knn_batch",
     "index.batch_search.knn_batch", _batch_size),
    ("repro.index.dynamic", "DynamicIndex", "insert_batch",
     "index.dynamic.insert", None),
    ("repro.index.dynamic", "DynamicIndex", "delete", "index.dynamic.delete",
     None),
    ("repro.index.dynamic", "DynamicIndex", "knn", "index.dynamic.knn",
     _dynamic_read),
    ("repro.index.dynamic", "DynamicIndex", "knn_batch", "index.dynamic.knn",
     _dynamic_read),
    ("repro.index.dynamic", "DynamicIndex", "compact",
     "index.dynamic.compact", None),
    ("repro.index.dynamic", "DynamicIndex", "recover",
     "index.dynamic.recover", None),
    ("repro.index.wal", "WriteAheadLog", "append_insert", "index.wal.append",
     None),
    ("repro.index.wal", "WriteAheadLog", "append_delete", "index.wal.append",
     None),
    ("repro.index.wal", "WriteAheadLog", "append_compact", "index.wal.append",
     None),
    ("repro.index.sharded", "ShardedIndex", "knn", "index.sharded.knn", None),
    ("repro.index.sharded", "ShardedIndex", "knn_batch", "index.sharded.knn",
     _batch_size),
    ("repro.cluster.client", "RemoteShardClient", "knn_once",
     "cluster.client.rpc", _worker_wall),
    ("repro.cluster.client", "RemoteShardClient", "knn_batch_once",
     "cluster.client.rpc", _worker_wall),
    ("repro.cluster.cluster_index", "ClusterIndex", "launch",
     "cluster.supervisor.launch", None),
    ("repro.serve.batching", "KnnBatcher", "submit", "serve.batching.submit",
     None),
    ("repro.serve.app", "SearchApp", "knn", "serve.app.knn", None),
    ("repro.serve.app", "SearchApp", "insert", "serve.app.insert", None),
    ("repro.serve.app", "SearchApp", "delete", "serve.app.delete", None),
    ("repro.serve.app", "SearchApp", "compact", "serve.app.compact", None),
)


def _counting_connection(recorder: Recorder, base):
    """``HTTPConnection`` for the shard RPC client that counts its traffic."""

    class CountingHTTPConnection(base):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            recorder.count("cluster.client.connections_opened")

        def request(self, method, url, body=None, headers=None, **kwargs):
            if body is not None:
                recorder.count("cluster.client.request_bytes", len(body))
            return super().request(method, url, body=body,
                                   headers=headers or {}, **kwargs)

        def getresponse(self):
            response = super().getresponse()
            recorder.count("cluster.client.response_bytes",
                           response.length or 0)
            return response

    return CountingHTTPConnection


@contextmanager
def installed(recorder: Recorder):
    """Install every shim; restore the originals on exit."""
    undo = []

    def replace(owner, attribute, value):
        # ``__dict__`` keeps a classmethod object intact for the restore.
        undo.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    try:
        for module_name, attribute, span, attrs in FUNCTION_PATCHES:
            module = importlib.import_module(module_name)
            replace(module, attribute,
                    _shim(recorder, span, getattr(module, attribute), attrs))
        for module_name, class_name, method, span, attrs in METHOD_PATCHES:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = vars(owner)[method]
            if isinstance(original, classmethod):
                shim = classmethod(_shim(recorder, span, original.__func__,
                                         attrs))
            else:
                shim = _shim(recorder, span, original, attrs)
            replace(owner, method, shim)
        client = importlib.import_module("repro.cluster.client")
        replace(client, "HTTPConnection",
                _counting_connection(recorder, client.HTTPConnection))
        yield recorder
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)


# ---- arithmetic ------------------------------------------------------------

def covered(intervals, low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


#: A scatter runs its per-shard attempts on pool threads while the thread
#: that called it blocks.
SCATTER, ATTEMPT = "index.sharded.knn", "cluster.client.rpc"

#: Coalesced-batch roots; a blocked ``submit`` overlaps the batch it rode in.
BATCH_ROOTS = ("index.batch_search.knn_batch", "index.dynamic.knn",
               "index.sharded.knn", "index.search.knn")


def link_cross_thread(spans: "list[tuple]") -> "list[tuple]":
    """Give every shard attempt the scatter that waited for it as parent.

    An attempt's root span lies inside exactly one scatter span (scatters on
    one coordinator thread never overlap), so containment identifies it.
    """
    scatters = sorted((span for span in spans if span[NAME] == SCATTER),
                      key=lambda span: span[START])
    if not scatters:
        return spans
    starts = [scatter[START] for scatter in scatters]
    linked = []
    for span in spans:
        if span[PARENT] == -1 and span[NAME] == ATTEMPT:
            position = bisect_right(starts, span[START]) - 1
            if position >= 0 and scatters[position][END] >= span[END]:
                span = (span[:PARENT] + (scatters[position][SID],)
                        + span[PARENT + 1:])
        linked.append(span)
    return linked


def self_times(spans: "list[tuple]") -> "dict[int, float]":
    """Self time of every span: duration minus what its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] != -1:
            children[span[PARENT]].append((span[START], span[END]))
    return {
        span[SID]: (span[END] - span[START])
        - covered(children.get(span[SID], ()), span[START], span[END])
        for span in spans
    }


def tree_roots(spans: "list[tuple]") -> "dict[int, tuple]":
    """The root span of every span's tree (after cross-thread linking)."""
    by_id = {span[SID]: span for span in spans}
    roots: "dict[int, tuple]" = {}
    for span in spans:
        chain = []
        node = span
        while node[SID] not in roots and node[PARENT] in by_id:
            chain.append(node)
            node = by_id[node[PARENT]]
        root = roots.get(node[SID], node)
        roots[node[SID]] = root
        for member in chain:
            roots[member[SID]] = root
    return roots
