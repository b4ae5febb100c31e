"""HTTP-free serving logic: named indexes, request limits, stats, hot reload.

:class:`SearchApp` is the application layer of the server — everything the
HTTP routes do except sockets and JSON framing, so the full serving contract
(typed errors, batching, limits, generation swaps) is testable without a
network.  It holds a registry of named :class:`ServedIndex` entries:

* **read-only** entries wrap a static index (usually loaded from a snapshot
  with ``mmap=True``, so the payload stays on disk); writes to them raise a
  typed :class:`~repro.core.errors.ReadOnlyIndexError` (HTTP 409),
* **writable** entries wrap a :class:`~repro.index.dynamic.DynamicIndex` and
  accept ``insert``/``delete``/``compact``.

``knn`` requests flow through one :class:`~repro.serve.batching.KnnBatcher`
per index (when :attr:`ServeConfig.batching` is on), coalescing concurrent
clients into shared batched-engine calls.  ``compact`` relies on the dynamic
index's atomic generation swap — in-flight queries finish on the old
generation — then bumps the served generation counter and, for
snapshot-backed entries, re-saves the snapshot in place (the persistence
layer writes generation-suffixed payload files and unlinks the stale ones
only after the manifest commit, so concurrent mmap readers keep their data
alive through the swap).
"""

from __future__ import annotations

import threading
from typing import Any, Callable

import numpy as np

from repro.core.errors import (
    ReadOnlyIndexError,
    SearchError,
    UnknownIndexError,
    ValidationError,
)
from repro.index.dynamic import DynamicIndex
from repro.index.search import (
    SearchResult,
    SearchStats,
    stats_to_payload,
    validated_count,
    validated_queries,
    validated_query,
    validated_row,
)
from repro.index.sharded import ShardedIndex, shard_answer, shard_probe
from repro.index.stats import summarize_search_stats
from repro.obs.metrics import get_registry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import Trace
from repro.serve.batching import KnnBatcher, engine_series_length, engine_tree
from repro.serve.config import ServeConfig

_REGISTRY = get_registry()
_QUERY_SECONDS = _REGISTRY.histogram(
    "repro_query_seconds",
    "Caller-observed /knn latency, per served index.",
    labelnames=("index",))
_QUERIES = _REGISTRY.counter(
    "repro_queries_total", "Answered /knn requests.", labelnames=("index",))
_QUERY_TIMEOUTS = _REGISTRY.counter(
    "repro_query_timeouts_total",
    "Queries whose budget expired (still well-formed answers).",
    labelnames=("index",))
_QUERY_PARTIALS = _REGISTRY.counter(
    "repro_query_partials_total",
    "Sharded queries answered from a subset of shards.",
    labelnames=("index",))
_SLOW_QUERIES = _REGISTRY.counter(
    "repro_slow_queries_total",
    "Queries over the configured slow-query threshold.",
    labelnames=("index",))
_QUERY_WORK = _REGISTRY.counter(
    "repro_query_work_total",
    "Search work performed answering queries, by kind.",
    labelnames=("index", "kind"))
_WAL_DEPTH_GAUGE = _REGISTRY.gauge(
    "repro_wal_depth",
    "WAL records since the last checkpoint, per writable index.",
    labelnames=("index",))
_DELTA_PENDING_GAUGE = _REGISTRY.gauge(
    "repro_delta_pending",
    "Buffered delta rows awaiting compaction, per writable index.",
    labelnames=("index",))
_TOMBSTONES_GAUGE = _REGISTRY.gauge(
    "repro_tombstones",
    "Deleted-but-not-compacted rows, per writable index.",
    labelnames=("index",))
_GENERATION_GAUGE = _REGISTRY.gauge(
    "repro_index_generation",
    "Serving generation (bumped by every successful compact).",
    labelnames=("index",))


class _StatsAccumulator:
    """Fold per-query :class:`SearchStats` into running ``/stats`` totals.

    Accumulates the :func:`~repro.index.stats.summarize_search_stats` fields
    incrementally so the app never retains per-query objects (a long-lived
    server would otherwise grow without bound).
    """

    _COUNTERS = ("queries", "timed_out", "partial_answers", "series_served",
                 "series_lower_bounds", "exact_distances", "leaves_visited",
                 "shards_total", "shards_answered", "engine_time_s",
                 "wall_time_s")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals = {key: 0 for key in self._COUNTERS}
        self._totals["engine_time_s"] = 0.0
        self._totals["wall_time_s"] = 0.0
        self._max_wall = 0.0

    def add(self, stats: SearchStats) -> None:
        part = summarize_search_stats([stats])
        with self._lock:
            for key in self._COUNTERS:
                self._totals[key] += part[key]
            self._max_wall = max(self._max_wall, part["max_wall_time_s"])

    def report(self) -> dict:
        with self._lock:
            totals = dict(self._totals)
            totals["max_wall_time_s"] = self._max_wall
        served = totals["series_served"]
        totals["pruning_ratio"] = (
            1.0 - totals["exact_distances"] / served if served else 0.0)
        totals["coverage"] = (
            totals["shards_answered"] / totals["shards_total"]
            if totals["shards_total"] else 1.0)
        return totals


class ServedIndex:
    """One named index the app serves: engine, role, generation, telemetry."""

    def __init__(self, name: str, engine: Any, *, path=None,
                 batcher: "KnnBatcher | None" = None) -> None:
        self.name = name
        self.engine = engine
        self.path = path
        self.batcher = batcher
        if isinstance(engine, DynamicIndex):
            self.read_only = False
        elif isinstance(engine, ShardedIndex):
            self.read_only = not engine.writable
        else:
            self.read_only = True
        #: Monotonic serving generation; bumped by every successful compact.
        self.generation = 1
        self.search_stats = _StatsAccumulator()
        # Registry children resolved once per entry, not per request.
        self._m_latency = _QUERY_SECONDS.labels(index=name)
        self._m_queries = _QUERIES.labels(index=name)
        self._m_timeouts = _QUERY_TIMEOUTS.labels(index=name)
        self._m_partials = _QUERY_PARTIALS.labels(index=name)
        self._m_slow = _SLOW_QUERIES.labels(index=name)
        self._m_exact = _QUERY_WORK.labels(index=name, kind="exact_distances")
        self._m_lower = _QUERY_WORK.labels(index=name,
                                           kind="series_lower_bounds")
        self._m_leaves = _QUERY_WORK.labels(index=name, kind="leaves_visited")

    def observe_query(self, stats: SearchStats) -> None:
        """Fold one answered query into this entry's stats and metrics."""
        self.search_stats.add(stats)
        self._m_latency.observe(stats.wall_time_s)
        self._m_queries.inc()
        if stats.timed_out:
            self._m_timeouts.inc()
        if stats.shards_total and stats.partial:
            self._m_partials.inc()
        if stats.exact_distances:
            self._m_exact.inc(stats.exact_distances)
        if stats.series_lower_bounds:
            self._m_lower.inc(stats.series_lower_bounds)
        if stats.leaves_visited:
            self._m_leaves.inc(stats.leaves_visited)

    @property
    def index_type(self) -> str:
        if isinstance(self.engine, DynamicIndex):
            return f"dynamic[{self.engine.index_type}]"
        if isinstance(self.engine, ShardedIndex):
            return (f"sharded[{self.engine.index_type}]"
                    f"x{self.engine.num_shards}")
        return type(self.engine).__name__.removesuffix("Index").lower()

    @property
    def num_series(self) -> int:
        if isinstance(self.engine, (DynamicIndex, ShardedIndex)):
            return self.engine.num_surviving
        return engine_tree(self.engine).num_series

    def describe(self) -> dict:
        info = {
            "name": self.name,
            "type": self.index_type,
            "num_series": int(self.num_series),
            "series_length": int(engine_series_length(self.engine)),
            "read_only": self.read_only,
            "generation": self.generation,
            "batching": self.batcher is not None,
        }
        if isinstance(self.engine, ShardedIndex):
            health = self.engine.health_report()
            info["shards"] = {
                "total": health["shards_total"],
                "quarantined": health["quarantined"],
                "states": [entry["state"] for entry in health["shards"]],
                "quarantine_trips": sum(entry["quarantine_trips"]
                                        for entry in health["shards"]),
                "readmits": sum(entry["readmits"]
                                for entry in health["shards"]),
            }
        return info


def _candidates_payload(ids: np.ndarray, squared: np.ndarray) -> dict:
    """JSON form of one query's shard candidates: local ids and their
    canonical distances² (``repr`` round-trips the float64 bits)."""
    return {"ids": ids.tolist(), "squared": squared.tolist()}


class SearchApp:
    """The server's application layer: routes minus HTTP.

    All public methods take and return JSON-ready Python values and raise
    only :class:`~repro.core.errors.ReproError` subclasses, so the HTTP layer
    is a thin translation: call the method, serialize the dict, map a typed
    failure through :func:`repro.serve.errors.status_for`.
    """

    def __init__(self, config: "ServeConfig | None" = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self._indexes: "dict[str, ServedIndex]" = {}
        self._registry_lock = threading.Lock()
        self._closed = False
        #: The front door's open-connection count, attached by
        #: :class:`~repro.serve.routes.IndexServer`: it bounds how many
        #: ``/knn`` requests can be in flight, so the micro-batch window
        #: closes once that many are queued.  ``None`` (no server attached)
        #: keeps the fixed ``batch_max_wait_s`` window.  In-process callers
        #: of :meth:`knn` are not connections: with a server attached they
        #: coalesce only with requests already queued.
        self.open_connections: "Callable[[], int] | None" = None
        self.slow_log = (
            SlowQueryLog(self.config.slow_query_s,
                         path=self.config.slow_query_log_path)
            if self.config.slow_query_s is not None else None)

    # ------------------------------------------------------------ registry

    def add_index(self, name: str, engine: Any, *, path=None) -> ServedIndex:
        """Register a built engine under ``name`` (replacing any previous one).

        ``engine`` is a built :class:`~repro.index.sofa.SofaIndex` /
        :class:`~repro.index.messi.MessiIndex` /
        :class:`~repro.index.tree.TreeIndex` (served read-only) or a
        :class:`~repro.index.dynamic.DynamicIndex` (served writable).
        ``path`` marks the entry snapshot-backed: compact re-saves there, so
        a restart resumes from the compacted state.
        """
        if not name or "/" in name:
            raise ValidationError(
                f"index names must be non-empty and slash-free, got {name!r}")
        entry = ServedIndex(name, engine, path=path)
        if self.config.batching:
            # The closures read entry.engine and the attached server per
            # batch, so a future engine swap (hot reload) or a server
            # attached after this call takes effect without a new queue.
            entry.batcher = KnnBatcher(
                lambda: entry.engine,
                max_batch=self.config.batch_max_size,
                max_wait_s=self.config.batch_max_wait_s,
                name=f"knn-{name}",
                max_pending=self.config.max_pending,
                callers=self._knn_callers)
        with self._registry_lock:
            previous = self._indexes.get(name)
            self._indexes[name] = entry
        if previous is not None and previous.batcher is not None:
            previous.batcher.close()
        # Callback gauges read the *current* entry on every scrape, so a
        # replacement under the same name re-points them automatically.
        _GENERATION_GAUGE.labels(index=name).set_function(
            lambda: entry.generation)
        if isinstance(engine, DynamicIndex):
            _WAL_DEPTH_GAUGE.labels(index=name).set_function(
                lambda: entry.engine.wal_depth)
            _DELTA_PENDING_GAUGE.labels(index=name).set_function(
                lambda: entry.engine.delta_count)
            _TOMBSTONES_GAUGE.labels(index=name).set_function(
                lambda: entry.engine.num_tombstones)
        return entry

    def load_snapshot(self, name: str, path, *, writable: bool = False,
                      mmap: bool = True, verify: str = "lazy",
                      **options) -> ServedIndex:
        """Load a snapshot directory and serve it under ``name``.

        ``writable=False`` (default) serves the snapshot read-only through
        the static loader — with ``mmap=True`` the payload arrays stay on
        disk.  ``writable=True`` loads it into a
        :class:`~repro.index.dynamic.DynamicIndex` (static snapshots take
        the upgrade path: compacted index, empty delta) and remembers
        ``path`` so compact re-saves in place; ``options`` reach the dynamic
        constructor.
        """
        from repro.index.persistence import load_dynamic, load_index

        if writable:
            engine = load_dynamic(path, mmap=mmap, verify=verify, **options)
            return self.add_index(name, engine, path=path)
        return self.add_index(name, load_index(path, mmap=mmap, verify=verify),
                              path=path)

    def load_sharded(self, name: str, path, **options) -> ServedIndex:
        """Load a sharded index directory and serve it under ``name``.

        ``options`` reach :meth:`~repro.index.sharded.ShardedIndex.load`
        unchanged (``degraded`` policy, retry/health policies, ``writable``,
        ``verify``, ...).  The entry is writable whenever the engine is, and
        its per-shard health shows up in ``/healthz`` and ``/indexes``.
        """
        engine = ShardedIndex.load(path, **options)
        return self.add_index(name, engine, path=path)

    def _knn_callers(self) -> "int | None":
        """Bound on concurrent ``/knn`` submitters; ``None`` if unknown."""
        count = self.open_connections
        return None if count is None else count()

    def _entry(self, name: str) -> ServedIndex:
        with self._registry_lock:
            entry = self._indexes.get(name)
            available = sorted(self._indexes)
        if entry is None:
            raise UnknownIndexError(
                f"no index named {name!r} is being served "
                f"(available: {available or 'none'})")
        return entry

    def _writable(self, name: str) -> ServedIndex:
        entry = self._entry(name)
        if entry.read_only:
            raise ReadOnlyIndexError(
                f"index {name!r} is served read-only; load it with "
                f"writable=True (a DynamicIndex) to accept writes")
        return entry

    # -------------------------------------------------------------- routes

    def list_indexes(self) -> dict:
        with self._registry_lock:
            entries = list(self._indexes.values())
        return {"indexes": [entry.describe() for entry in entries]}

    def healthz(self) -> dict:
        """Liveness plus shard health.

        Stays exactly ``{"status": "ok", "indexes": n}`` while every served
        index is fully healthy and read-only.  When a sharded index has
        quarantined shards the status flips to ``"degraded"`` and a
        ``shards`` section carries each degraded index's per-shard states —
        still HTTP 200, because a degraded server keeps answering (with
        ``partial`` results) and a load balancer should not eject it for a
        recoverable shard fault.  When writable (dynamic) indexes are served
        a ``writers`` section reports each one's write-path debt: WAL records
        since the last checkpoint, buffered delta rows, and tombstones.
        """
        with self._registry_lock:
            entries = list(self._indexes.values())
        payload = {"status": "ok", "indexes": len(entries)}
        degraded = {}
        writers = {}
        for entry in entries:
            if isinstance(entry.engine, ShardedIndex):
                health = entry.engine.health_report()
                if health["status"] != "ok":
                    degraded[entry.name] = health
            elif isinstance(entry.engine, DynamicIndex):
                writers[entry.name] = {
                    "wal_depth": int(entry.engine.wal_depth),
                    "delta_pending": int(entry.engine.delta_count),
                    "tombstones": int(entry.engine.num_tombstones),
                }
        if degraded:
            payload["status"] = "degraded"
            payload["shards"] = degraded
        if writers:
            payload["writers"] = writers
        return payload

    def readyz(self) -> dict:
        """Readiness, as distinct from :meth:`healthz`'s liveness.

        A server is *ready* when it can actually answer queries: it is not
        draining, at least one index is loaded, and every batching index's
        micro-batch drainer thread is running.  An orchestrator (or the
        cluster supervisor) routes traffic only to ready workers — a warming
        process is alive but not yet ready, and a draining one stops being
        ready before it stops being alive.  The HTTP layer renders unready
        as 503 so load balancers need no body parsing.
        """
        with self._registry_lock:
            entries = list(self._indexes.values())
            closed = self._closed
        reasons = []
        if closed:
            reasons.append("the app is draining")
        if not entries:
            reasons.append("no index is loaded yet")
        for entry in entries:
            if entry.batcher is not None and not entry.batcher.drainer_alive:
                reasons.append(
                    f"the micro-batch drainer of index {entry.name!r} "
                    f"is not running")
        payload = {"ready": not reasons, "indexes": len(entries)}
        if reasons:
            payload["reasons"] = reasons
        return payload

    def stats(self) -> dict:
        """Aggregated serving statistics, per index.

        Search counters come from the engines' per-query
        :class:`~repro.index.search.SearchStats` (folded through
        :func:`~repro.index.stats.summarize_search_stats`); batching counters
        from each index's micro-batch queue.
        """
        with self._registry_lock:
            entries = list(self._indexes.values())
        payload = {}
        for entry in entries:
            report = {
                "generation": entry.generation,
                "search": entry.search_stats.report(),
                "batching": (entry.batcher.stats
                             if entry.batcher is not None else None),
            }
            if isinstance(entry.engine, ShardedIndex):
                health = entry.engine.health_report()
                report["shards"] = {
                    "total": health["shards_total"],
                    "quarantined": health["quarantined"],
                    "states": [s["state"] for s in health["shards"]],
                }
            payload[entry.name] = report
        return {"indexes": payload}

    def metrics_text(self) -> str:
        """The process-wide metrics registry in Prometheus text exposition."""
        return get_registry().render()

    def slow_queries(self) -> dict:
        """The in-memory tail of the slow-query log (empty when disabled)."""
        if self.slow_log is None:
            return {"threshold_s": None, "logged": 0, "slow_queries": []}
        return {
            "threshold_s": self.config.slow_query_s,
            "logged": self.slow_log.logged,
            "slow_queries": self.slow_log.recent(),
        }

    def knn(self, name: str, query, k: int = 1,
            timeout_s: "float | None" = None, trace: bool = False) -> dict:
        """Answer one exact k-NN request against index ``name``.

        Validates and bounds the request (``k`` against
        :attr:`ServeConfig.max_k`, ``timeout_s`` clamped to
        :attr:`ServeConfig.max_timeout_s`), answers through the index's
        micro-batcher when batching is on, records the query's stats, and
        returns a JSON-ready payload.  A budget expiry is a *well-formed
        answer* (``timed_out: true``, exact distances over what was refined),
        never an error.

        ``trace=True`` (when :attr:`ServeConfig.tracing` allows it) records a
        per-query span breakdown and attaches it to the payload under
        ``"trace"``.  Traced requests bypass the micro-batcher — a coalesced
        batch has no single-query phase structure — which never changes the
        answer (``knn`` and ``knn_batch`` are bit-identical by contract),
        only its latency profile.
        """
        entry = self._entry(name)
        k = validated_count(k)
        if k > self.config.max_k:
            raise SearchError(
                f"k={k} exceeds this server's limit max_k={self.config.max_k}")
        timeout_s = self.config.clamp_timeout(timeout_s)
        query = validated_query(query, engine_series_length(entry.engine))
        query_trace = Trace() if (trace and self.config.tracing) else None
        if entry.batcher is not None and query_trace is None:
            result = entry.batcher.submit(query, k, timeout_s)
        else:
            result = entry.engine.knn(query, k=k, timeout_s=timeout_s,
                                      trace=query_trace)
        entry.observe_query(result.stats)
        if self.slow_log is not None:
            logged = self.slow_log.observe(
                index=name, wall_time_s=result.stats.wall_time_s, k=k,
                stats=result.stats, trace=query_trace)
            if logged is not None:
                entry._m_slow.inc()
        payload = self._result_payload(entry, k, result)
        if query_trace is not None:
            payload["trace"] = query_trace.to_dict()
            payload["wall_time_s"] = float(result.stats.wall_time_s)
        return payload

    @staticmethod
    def _result_payload(entry: ServedIndex, k: int,
                        result: SearchResult) -> dict:
        payload = {
            "index": entry.name,
            "generation": entry.generation,
            "k": k,
            "ids": [int(row) for row in result.indices],
            "distances": [float(d) for d in result.distances],
            "timed_out": bool(result.stats.timed_out),
        }
        if result.stats.shards_total:
            payload["partial"] = bool(result.stats.partial)
            payload["coverage"] = float(result.stats.coverage)
        return payload

    # ------------------------------------------------------ shard worker RPC

    def shard_knn(self, name: str, query, k: int = 1,
                  timeout_s: "float | None" = None) -> dict:
        """One shard's contribution to a cluster scatter (worker-mode RPC).

        JSON-encodes :func:`~repro.index.sharded.shard_answer` — the very
        function an in-process scatter attempt calls: shard-*local*
        candidate ids and their canonical squared distances, computed here
        with the coordinator's normalization, so the coordinator ranks the
        very bits an in-process shard would hand it.
        """
        entry = self._entry(name)
        k = validated_count(k)
        timeout_s = self.config.clamp_timeout(timeout_s)
        query = validated_query(query, engine_series_length(entry.engine))
        ids, squared, stats, surviving = shard_answer(
            entry.engine, query, k, timeout_s)
        entry.observe_query(stats[0])
        return {**_candidates_payload(ids[0], squared[0]),
                "stats": stats_to_payload(stats[0]),
                "surviving": surviving}

    def shard_knn_batch(self, name: str, queries, k: int = 1,
                        timeout_s: "float | None" = None) -> dict:
        """Batched shard RPC: :func:`~repro.index.sharded.shard_answer` of a
        query matrix, JSON-encoded.

        Every query's candidates come back as the same
        ``{"ids", "squared"}`` entry :meth:`shard_knn` returns, ready for
        the coordinator's per-query ranking.
        """
        entry = self._entry(name)
        k = validated_count(k)
        timeout_s = self.config.clamp_timeout(timeout_s)
        matrix = validated_queries(queries,
                                   engine_series_length(entry.engine))
        ids, squared, stats, surviving = shard_answer(
            entry.engine, matrix, k, timeout_s)
        for part in stats:
            entry.observe_query(part)
        return {"results": [_candidates_payload(rows, distances)
                            for rows, distances in zip(ids, squared)],
                "stats": [stats_to_payload(part) for part in stats],
                "surviving": surviving}

    def shard_probe(self, name: str) -> dict:
        """Answer a shard-local 1-NN probe (the cluster readmission check).

        Runs :func:`~repro.index.sharded.shard_probe`, the probe an
        in-process :meth:`~repro.index.sharded.ShardedIndex.probe_shard`
        runs, so a passing probe means the worker actually serves, not
        merely accepts connections.
        """
        return {"ok": True,
                "surviving": shard_probe(self._entry(name).engine)}

    def insert(self, name: str, series) -> dict:
        """Buffer one series (1-D) or a batch (2-D) into a writable index."""
        entry = self._writable(name)
        ids = entry.engine.insert_batch(series)
        return {
            "index": name,
            "generation": entry.generation,
            "ids": [int(row) for row in ids],
            "num_surviving": int(entry.engine.num_surviving),
            "needs_compaction": bool(
                getattr(entry.engine, "needs_compaction", False)),
        }

    def delete(self, name: str, row) -> dict:
        """Tombstone one global row id in a writable index."""
        entry = self._writable(name)
        row = validated_row(row)
        entry.engine.delete(row)
        return {
            "index": name,
            "generation": entry.generation,
            "deleted": row,
            "num_surviving": int(entry.engine.num_surviving),
            "needs_compaction": bool(
                getattr(entry.engine, "needs_compaction", False)),
        }

    def compact(self, name: str) -> dict:
        """Merge a writable index's delta, swap generations, re-save in place.

        The engine's rebuild ends in an atomic state swap — queries in flight
        keep answering on the old generation and never observe a torn index.
        For snapshot-backed entries the compacted state is then re-saved to
        the same directory: the snapshot writer commits via atomic manifest
        rename and only afterwards unlinks the previous generation's payload
        files, which stays safe under concurrent mmap readers (their mapped
        inodes outlive the unlink).
        """
        entry = self._writable(name)
        outcome = entry.engine.compact()
        entry.generation += 1
        sharded = isinstance(entry.engine, ShardedIndex)
        if sharded:
            # The sharded engine persists itself (per-shard snapshots plus
            # the shard manifest live under its own directory).
            entry.engine.save()
            dropped = int(sum(outcome.values()))
            remapped = int(entry.engine.num_surviving) + dropped
        elif entry.path is not None:
            entry.engine.save(entry.path)
        if not sharded:
            remapped = int(outcome.shape[0])
            dropped = int((outcome < 0).sum())
        payload = {
            "index": name,
            "generation": entry.generation,
            "num_surviving": int(entry.engine.num_surviving),
            "remapped_rows": remapped,
            "dropped_rows": dropped,
            "saved": sharded or entry.path is not None,
        }
        if sharded:
            payload["shards_compacted"] = len(outcome)
        return payload

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Drain and close every index's batching queue (idempotent)."""
        with self._registry_lock:
            if self._closed:
                return
            self._closed = True
            entries = list(self._indexes.values())
        for entry in entries:
            if entry.batcher is not None:
                entry.batcher.close()
