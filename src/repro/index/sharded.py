"""Fault-tolerant sharded scatter-gather over independent snapshot shards.

:class:`ShardedIndex` partitions a collection into ``N`` contiguous shards,
each an independently built and persisted snapshot directory served by its
own :class:`~repro.index.dynamic.DynamicIndex`.  Queries scatter over the
shards, search each one with the established exact engines, and gather the
per-shard candidates into one answer under the global ``(distance², row)``
total order.  The design goals, in order:

* **Bit-identity when healthy.**  With every shard answering, ``knn`` /
  ``knn_batch`` return exactly what one unsharded index over the same rows
  returns — same ids, same distances, same tie order.  The merge never
  trusts refinement-time distances: it ranks the candidate union through
  :func:`~repro.index.search.ranked_result`, the very function
  :func:`~repro.index.search.finalize_result` packages one index's winners
  with (per-row results are independent of which other rows sit in the
  matrix), so selecting the top ``k`` of the union *is* the unsharded
  finalization.
* **Cross-shard pruning.**  Single-query ``knn`` searches every shard on a
  :class:`~repro.index.search.BestSoFar` whose parent is one shared
  cross-shard heap: one shard's tightened best-so-far prunes every other
  shard's remaining work, exactly like the intra-query parallel engine's
  shared BSF — admissible because the published threshold never drops below
  the true global k-th distance and the tie-tolerant filters keep
  candidates *at* the threshold.
* **One attempt path.**  What one shard contributes to a scatter is computed
  by :func:`shard_answer` — in this process, or inside a worker process that
  ships the same tuple back (:mod:`repro.cluster`); everything after it
  (seqlock retry, deadline slices, id translation, the gather) is
  :meth:`ShardedIndex._attempt` and :meth:`ShardedIndex._gather`, whichever
  side of a process boundary the engine lives on.
* **Fault isolation.**  A shard failure is retried with deterministic
  capped-exponential backoff (:class:`~repro.index.shard_health.RetryPolicy`)
  inside a per-shard slice of the query deadline; persistent failures
  (:class:`~repro.core.errors.CorruptionError`) and repeated transient ones
  trip the ``healthy → suspect → quarantined`` state machine
  (:class:`~repro.index.shard_health.ShardHealthBoard`), excluding the shard
  from subsequent scatters until a background probe readmits it.  Under the
  ``degraded="allow"`` policy the surviving shards still answer — flagged
  ``partial=True`` with ``coverage < 1`` — bit-identical to an index over
  just the surviving shards' rows; ``degraded="forbid"`` raises a typed
  :class:`~repro.core.errors.PartialResultError` instead.  No failure mode
  escapes the gather as an untyped exception, and a shard that hangs past
  the deadline is abandoned, never waited on.

Row identity: shard ``i`` owns the contiguous global ids
``offsets[i]..offsets[i+1]-1`` at build time; inserted rows take fresh
globally increasing ids in arrival order, so global ids match what one
unsharded :class:`~repro.index.dynamic.DynamicIndex` ingesting the same
sequence hands out.  Every shard keeps a sorted ``local id → global id``
array; shard-local compaction rewrites it through the engine's row mapping
(global ids are *stable* under sharded compaction) behind a seqlock-style
version counter, so a query racing a compaction retries with consistent ids
instead of mistranslating.
"""

from __future__ import annotations

import functools
import json
import operator
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from pathlib import Path

import numpy as np

from repro.core import fsio
from repro.core.errors import (
    CorruptionError,
    IndexError_,
    InvalidParameterError,
    PartialResultError,
    ReadOnlyIndexError,
    SearchError,
    ShardError,
    ValidationError,
)
from repro.core.normalization import znormalize, znormalize_batch
from repro.core.series import Dataset
from repro.index.dynamic import DynamicIndex, _resolve_tree
from repro.index.search import (
    BestSoFar,
    SearchResult,
    SearchStats,
    ranked_result,
    resolve_deadline,
    validated_count,
    validated_queries,
    validated_query,
)
from repro.index.shard_health import (
    QUARANTINED,
    HealthPolicy,
    RetryPolicy,
    ShardHealthBoard,
)
from repro.index.stats import merge_search_stats
from repro.obs.metrics import get_registry
from repro.parallel.pool import WorkerPool

_REGISTRY = get_registry()
_SHARD_SCATTERS = _REGISTRY.counter(
    "repro_shard_scatters_total",
    "Scatter rounds issued by sharded queries (contamination reruns "
    "count as separate rounds).")
_SHARD_OUTCOMES = _REGISTRY.counter(
    "repro_shard_outcomes_total",
    "Per-shard scatter outcomes: answered, failed, or skipped "
    "(quarantined).", labelnames=("shard", "status"))
_SHARD_RETRIES = _REGISTRY.counter(
    "repro_shard_retries_total",
    "Transient-failure retries attempted against a shard.",
    labelnames=("shard",))
_SHARD_QUARANTINES = _REGISTRY.counter(
    "repro_shard_quarantines_total",
    "Times a shard entered quarantine.", labelnames=("shard",))
_SHARD_READMITS = _REGISTRY.counter(
    "repro_shard_readmits_total",
    "Times a quarantined shard passed a probe and was readmitted.",
    labelnames=("shard",))

_MANIFEST_NAME = "sharded.json"
_FORMAT_NAME = "repro-sharded-index"
SHARDED_FORMAT_VERSION = 1

#: Degraded-answer policies: ``allow`` serves partial answers (flagged in the
#: stats), ``forbid`` raises :class:`~repro.core.errors.PartialResultError`.
DEGRADED_MODES = ("allow", "forbid")


def _shard_dirname(index: int) -> str:
    return f"shard-{index:03d}"


class _Shard:
    """Runtime record of one shard: lazy engine, id map, seqlock version."""

    __slots__ = ("index", "path", "engine", "remote", "lock", "version",
                 "globals_map", "num_surviving_hint")

    def __init__(self, index: int, path: Path, globals_map: np.ndarray,
                 num_surviving_hint: int) -> None:
        self.index = index
        self.path = path
        self.engine: "DynamicIndex | None" = None
        # Set when the shard's engine lives in a worker process: an object
        # with ``answer`` (:func:`shard_answer` over RPC) and ``probe``.
        self.remote = None
        self.lock = threading.Lock()
        # Seqlock: odd while a compaction rewrites the id map.  Readers
        # capture the (even) version, do their work, and retry when it moved.
        self.version = 0
        # Sorted local→global id map covering base + delta rows (tombstoned
        # ones included).  Replaced wholesale, never mutated in place, so a
        # reader's reference is always internally consistent.
        self.globals_map = globals_map
        self.num_surviving_hint = num_surviving_hint


class _Outcome:
    """What one shard contributed to one scatter: answer, failure, or skip."""

    __slots__ = ("shard", "status", "payload", "stats", "surviving", "error")

    def __init__(self, shard: int, status: str, payload=None, stats=None,
                 surviving: int = 0, error: "BaseException | None" = None) -> None:
        self.shard = shard
        self.status = status  # "answered" | "failed" | "skipped"
        self.payload = payload
        self.stats = stats
        self.surviving = surviving
        self.error = error

    @property
    def answered(self) -> bool:
        return self.status == "answered"


def shard_answer(engine, queries: np.ndarray, k: int,
                 timeout_s: "float | None" = None,
                 best: "BestSoFar | None" = None):
    """One shard's contribution to a scatter, from a DynamicIndex-like engine.

    A 1-D ``queries`` is one query searched on ``best`` (the caller's
    :class:`~repro.index.search.BestSoFar`, floored or parented as the
    deployment needs); a 2-D one goes to the batched engine, which keeps its
    own schedule (no cross-shard best-so-far).  ``k`` is clamped to the
    shard's surviving rows.  Returns ``(ids, values, stats, surviving)``
    with one entry per query in the first three: shard-local candidate ids,
    their raw served values, and the search stats.
    """
    single = queries.ndim == 1
    surviving = int(engine.num_surviving)
    effective_k = min(k, surviving)
    if effective_k == 0:
        count = 1 if single else queries.shape[0]
        return ([np.empty(0, dtype=np.int64)] * count,
                [np.empty((0, queries.shape[-1]))] * count,
                [SearchStats(num_series=0) for _ in range(count)], surviving)
    if single:
        results = [engine.knn(queries, k=effective_k, num_workers=1,
                              timeout_s=timeout_s, shared_best=best)]
    else:
        results = engine.knn_batch(queries, k=effective_k, num_workers=1,
                                   timeout_s=timeout_s)
    ids = [result.indices for result in results]
    values = [engine.gather_values(rows) for rows in ids]
    return ids, values, [result.stats for result in results], surviving


def shard_probe(engine) -> int:
    """The readmission probe: a real shard-local 1-NN over the shard's own
    first row, so passing means the shard actually serves, not merely loads.
    Returns the shard's surviving-row count."""
    surviving = int(engine.num_surviving)
    if surviving > 0:
        engine.knn(np.asarray(engine.tree.dataset.values)[0], k=1,
                   num_workers=1)
    return surviving


def _slice_timeout(shard: _Shard, slice_deadline: "float | None",
                   waiting: str = "") -> "float | None":
    """Seconds left in a shard's deadline slice; raises once it is spent."""
    if slice_deadline is None:
        return None
    timeout_s = slice_deadline - time.monotonic()
    if timeout_s <= 0:
        raise TimeoutError(
            f"shard {shard.index}: deadline slice expired{waiting}")
    return timeout_s


class ShardedIndex:
    """Scatter-gather serving over independently persisted shards.

    Construct with :meth:`build` (partition + parallel build + persist) or
    :meth:`load` (attach to an existing sharded directory).  See the module
    docstring for the identity and degradation contracts.
    """

    def __init__(self, path, shards: "list[_Shard]", *, series_length: int,
                 next_global: int, index_type: str = "sofa",
                 degraded: str = "allow", retry: "RetryPolicy | None" = None,
                 health: "HealthPolicy | None" = None, verify: str = "eager",
                 mmap: bool = True, writable: bool = True,
                 gather_grace_s: float = 0.25,
                 engine_options: "dict | None" = None) -> None:
        if degraded not in DEGRADED_MODES:
            raise InvalidParameterError(
                f"degraded must be one of {DEGRADED_MODES}, got {degraded!r}")
        if not shards:
            raise InvalidParameterError("a sharded index needs at least one shard")
        self.path = Path(path)
        self._shards = shards
        self._series_length = int(series_length)
        self._next_global = int(next_global)
        self._index_type = index_type
        self._degraded = degraded
        self.retry = retry if retry is not None else RetryPolicy()
        self._health = health if health is not None else HealthPolicy()
        self._board = ShardHealthBoard(len(shards), self._health)
        self._verify = verify
        self._mmap = bool(mmap)
        self._writable = bool(writable)
        self._gather_grace_s = float(gather_grace_s)
        self._engine_options = dict(engine_options or {})
        self._write_lock = threading.Lock()
        self._next_insert_shard = 0
        self._executor: "ThreadPoolExecutor | None" = None
        self._executor_lock = threading.Lock()
        self._closed = False
        self._probe_thread: "threading.Thread | None" = None
        self._probe_thread_lock = threading.Lock()
        self._probe_wake = threading.Event()
        self._close_event = threading.Event()

    # ------------------------------------------------------------ build/load

    @classmethod
    def build(cls, values, path, *, num_shards: int, index_factory=None,
              num_workers: "int | None" = None, **load_options) -> "ShardedIndex":
        """Partition ``values`` into contiguous shards, build and persist each.

        Shards are built in parallel through the established
        :class:`~repro.parallel.pool.WorkerPool` (each shard's own build runs
        single-threaded, so the fan-out is the parallelism).  Every shard
        normalizes its rows exactly as one unsharded build over the full
        matrix would — per-series z-normalization is row-independent — which
        is half of the bit-identity contract; the other half is the gather
        (see :meth:`knn`).  ``index_factory`` supplies the per-shard index
        (default :class:`~repro.index.sofa.SofaIndex` with its defaults);
        ``load_options`` are forwarded to :meth:`load`.
        """
        matrix = np.asarray(values, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ValidationError(
                f"build expects a non-empty 2-D matrix of series, got shape "
                f"{matrix.shape}")
        try:
            num_shards = operator.index(num_shards)
        except TypeError:
            raise InvalidParameterError(
                f"num_shards must be an integer, got {num_shards!r}") from None
        if num_shards < 1:
            raise InvalidParameterError(
                f"num_shards must be >= 1, got {num_shards}")
        if matrix.shape[0] < num_shards:
            raise InvalidParameterError(
                f"cannot split {matrix.shape[0]} series into {num_shards} "
                f"non-empty shards")
        if index_factory is None:
            from repro.index.sofa import SofaIndex

            index_factory = SofaIndex
        path = Path(path)
        fsio.mkdir(path)
        counts = np.full(num_shards, matrix.shape[0] // num_shards,
                         dtype=np.int64)
        counts[: matrix.shape[0] % num_shards] += 1
        offsets = np.concatenate([[0], np.cumsum(counts)])
        index_types: "list[str]" = [""] * num_shards

        def build_one(shard_index: int) -> None:
            from repro.index.persistence import save_index

            rows = matrix[offsets[shard_index]:offsets[shard_index + 1]]
            index = index_factory()
            index.build(Dataset(rows), num_workers=1)
            index_types[shard_index] = _resolve_tree(index)[1]
            save_index(index, path / _shard_dirname(shard_index))

        WorkerPool(num_workers).map(build_one, range(num_shards))
        shards = [_Shard(i, path / _shard_dirname(i),
                         np.arange(offsets[i], offsets[i + 1], dtype=np.int64),
                         int(counts[i]))
                  for i in range(num_shards)]
        cls._write_manifest(path, cls._manifest_dict(
            shards, int(matrix.shape[1]), index_types[0],
            int(matrix.shape[0])))
        return cls.load(path, **load_options)

    @classmethod
    def load(cls, path, *, degraded: str = "allow",
             retry: "RetryPolicy | None" = None,
             health: "HealthPolicy | None" = None, verify: str = "eager",
             mmap: bool = True, writable: bool = True, lazy: bool = True,
             gather_grace_s: float = 0.25, **engine_options) -> "ShardedIndex":
        """Attach to a sharded directory written by :meth:`build` / :meth:`save`.

        Shard engines load lazily by default: a shard that is corrupt on disk
        becomes a query-time failure that quarantines it (the fault-tolerant
        path) instead of failing the whole load.  ``lazy=False`` loads every
        engine up front — failures still quarantine rather than raise.
        ``engine_options`` are forwarded to every shard's
        :func:`~repro.index.persistence.load_dynamic` call.
        """
        sharded = cls._attach(path, degraded=degraded, retry=retry,
                              health=health, verify=verify, mmap=mmap,
                              writable=writable,
                              gather_grace_s=gather_grace_s,
                              engine_options=engine_options)
        if not lazy:
            for shard in sharded._shards:
                try:
                    sharded._engine(shard)
                except CorruptionError as error:
                    sharded._board.record_persistent(shard.index, error)
                    sharded._note_quarantine(shard.index)
                except Exception as error:  # noqa: BLE001 — quarantine, don't fail the load
                    sharded._board.record_transient(shard.index, error)
        return sharded

    @classmethod
    def _attach(cls, path, **options):
        """Construct ``cls`` over the shards a sharded manifest describes."""
        path = Path(path)
        manifest = cls._read_manifest(path)
        shards = []
        for index, entry in enumerate(manifest["shards"]):
            globals_map = cls._globals_from_manifest(entry["globals"])
            shards.append(_Shard(index, path / entry["dir"], globals_map,
                                 int(entry.get("num_surviving",
                                               globals_map.shape[0]))))
        return cls(path, shards,
                   series_length=int(manifest["series_length"]),
                   next_global=int(manifest["next_global"]),
                   index_type=manifest.get("index_type", "sofa"), **options)

    # ------------------------------------------------------------ inspection

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def series_length(self) -> int:
        return self._series_length

    @property
    def index_type(self) -> str:
        return self._index_type

    @property
    def writable(self) -> bool:
        return self._writable

    @property
    def degraded(self) -> str:
        return self._degraded

    @property
    def num_surviving(self) -> int:
        """Live rows across all shards (loaded engines exactly; unloaded ones
        from their last persisted count)."""
        total = 0
        for shard in self._shards:
            engine = shard.engine
            total += engine.num_surviving if engine is not None \
                else shard.num_surviving_hint
        return total

    def __len__(self) -> int:
        return self.num_surviving

    def shard_states(self) -> "list[str]":
        return [entry["state"] for entry in self._board.report()]

    def health_report(self) -> dict:
        """JSON-ready per-shard health: the ``/healthz`` payload's substance."""
        shards = self._board.report()
        for entry, shard in zip(shards, self._shards):
            entry["loaded"] = shard.engine is not None
            entry["rows"] = int(shard.globals_map.shape[0])
        quarantined = sum(1 for entry in shards
                          if entry["state"] == QUARANTINED)
        return {
            "status": "degraded" if quarantined else "ok",
            "shards_total": len(shards),
            "quarantined": quarantined,
            "shards": shards,
        }

    # -------------------------------------------------------------- engines

    def _engine(self, shard: _Shard) -> DynamicIndex:
        engine = shard.engine
        if engine is not None:
            return engine
        with shard.lock:
            return self._engine_locked(shard)

    def _engine_locked(self, shard: _Shard) -> DynamicIndex:
        """Load (or return) a shard's engine; caller holds ``shard.lock``."""
        if shard.engine is None:
            engine = DynamicIndex.load(shard.path, mmap=self._mmap,
                                       verify=self._verify,
                                       **self._engine_options)
            expected = int(shard.globals_map.shape[0])
            actual = engine.num_base + engine.delta_count
            if actual != expected:
                engine.close()
                raise CorruptionError(
                    f"shard {shard.index} holds {actual} rows but the sharded "
                    f"manifest maps {expected}")
            shard.engine = engine
        return shard.engine

    # -------------------------------------------------------------- scatter

    def _executor_pool(self) -> ThreadPoolExecutor:
        executor = self._executor
        if executor is None:
            with self._executor_lock:
                executor = self._executor
                if executor is None:
                    executor = ThreadPoolExecutor(
                        max_workers=max(4, 2 * len(self._shards)),
                        thread_name_prefix="repro-shard")
                    self._executor = executor
        return executor

    def _scatter(self, attempt, deadline: "float | None",
                 presets: "dict[int, _Outcome] | None" = None) -> "list[_Outcome]":
        """Run ``attempt(shard, slice_deadline)`` on every eligible shard.

        Quarantined shards (and any with a preset outcome) are skipped.  The
        gather waits until the query deadline plus a small grace and then
        *abandons* unfinished shards — a wedged engine cannot hang the query;
        its thread is left to die on its own and the shard is charged a
        transient failure.  Every outcome is typed; nothing raises out of the
        scatter except through :meth:`_run_with_retries` re-packaging.
        """
        outcomes: "dict[int, _Outcome]" = dict(presets or {})
        tasks = {}
        executor = self._executor_pool()
        for shard in self._shards:
            if shard.index in outcomes:
                continue
            if self._board.is_quarantined(shard.index):
                outcomes[shard.index] = _Outcome(
                    shard.index, "skipped",
                    error=ShardError(f"shard {shard.index} is quarantined"))
                continue
            abandoned = threading.Event()
            future = executor.submit(self._run_with_retries, shard, attempt,
                                     deadline, abandoned)
            tasks[future] = (shard, abandoned)
        if tasks:
            timeout = None
            if deadline is not None:
                timeout = max(0.0, deadline - time.monotonic()) \
                    + self._gather_grace_s
            done, not_done = futures_wait(set(tasks), timeout=timeout)
            for future in done:
                shard, _ = tasks[future]
                try:
                    outcomes[shard.index] = future.result()
                except Exception as error:  # pragma: no cover - retries are total
                    outcomes[shard.index] = _Outcome(
                        shard.index, "failed",
                        error=self._wrap_error(shard.index, error))
            for future in not_done:
                shard, abandoned = tasks[future]
                abandoned.set()
                future.cancel()
                error = ShardError(
                    f"shard {shard.index} did not answer before the query "
                    f"deadline")
                if self._board.record_transient(shard.index, error) \
                        == QUARANTINED:
                    self._note_quarantine(shard.index)
                outcomes[shard.index] = _Outcome(shard.index, "failed",
                                                 error=error)
        ordered = [outcomes[index] for index in range(len(self._shards))]
        _SHARD_SCATTERS.inc()
        for outcome in ordered:
            _SHARD_OUTCOMES.labels(shard=str(outcome.shard),
                                   status=outcome.status).inc()
        return ordered

    def _run_with_retries(self, shard: _Shard, attempt,
                          deadline: "float | None",
                          abandoned: threading.Event) -> _Outcome:
        """One shard's attempt loop: classify, back off, retry, escalate.

        Transient failures retry up to ``retry.max_attempts`` times with
        deterministic backoff clamped to the remaining deadline; persistent
        ones (corruption) quarantine immediately and mark the engine for a
        reload.  Once the orchestrator abandons this task, health recording
        stops (the orchestrator already charged the shard) and the loop exits.
        Never raises: every exit path is a typed :class:`_Outcome`.
        """
        policy = self.retry
        last_error: "BaseException | None" = None
        for attempt_number in range(policy.max_attempts):
            if abandoned.is_set():
                break
            if self._board.is_quarantined(shard.index):
                return _Outcome(
                    shard.index, "skipped",
                    error=ShardError(
                        f"shard {shard.index} was quarantined mid-query"))
            slice_deadline = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # The *query's* budget ran out before this attempt — the
                    # shard did nothing wrong, so its health is not charged.
                    error = last_error or TimeoutError(
                        f"shard {shard.index}: query deadline expired before "
                        f"the shard could answer")
                    return _Outcome(shard.index, "failed",
                                    error=self._wrap_error(shard.index, error))
                attempts_left = policy.max_attempts - attempt_number
                slice_deadline = time.monotonic() + remaining / attempts_left
            try:
                payload, stats, surviving = attempt(shard, slice_deadline)
            except CorruptionError as error:
                with shard.lock:
                    shard.engine = None  # reload from disk before readmission
                if not abandoned.is_set():
                    self._board.record_persistent(shard.index, error)
                    self._note_quarantine(shard.index)
                return _Outcome(shard.index, "failed", error=error)
            except Exception as error:  # noqa: BLE001 — classified as transient
                last_error = error
                if abandoned.is_set():
                    break
                state = self._board.record_transient(shard.index, error)
                if state == QUARANTINED:
                    self._note_quarantine(shard.index)
                    return _Outcome(shard.index, "failed",
                                    error=self._wrap_error(shard.index, error))
                if attempt_number + 1 < policy.max_attempts:
                    limit = None
                    if deadline is not None:
                        limit = deadline - time.monotonic()
                    if limit is None or limit > 0:
                        time.sleep(policy.backoff_s(attempt_number, shard.index,
                                                    limit=limit))
                    _SHARD_RETRIES.labels(shard=str(shard.index)).inc()
                    continue
                return _Outcome(shard.index, "failed",
                                error=self._wrap_error(shard.index, error))
            else:
                if not abandoned.is_set():
                    self._board.record_success(shard.index)
                return _Outcome(shard.index, "answered", payload=payload,
                                stats=stats, surviving=surviving)
        error = last_error or ShardError(
            f"shard {shard.index} was abandoned by the gather")
        return _Outcome(shard.index, "failed",
                        error=self._wrap_error(shard.index, error))

    def _wrap_error(self, shard_index: int,
                    error: BaseException) -> ShardError:
        if isinstance(error, ShardError):
            return error
        wrapped = ShardError(
            f"shard {shard_index} failed after retries: "
            f"{type(error).__name__}: {error}")
        wrapped.__cause__ = error
        return wrapped

    # -------------------------------------------------------------- queries

    def knn(self, query, k: int = 1, num_workers: "int | None" = None,
            timeout_s: "float | None" = None,
            degraded: "str | None" = None,
            trace=None) -> SearchResult:
        """Exact k-NN by scatter-gather with cross-shard best-so-far pruning.

        All shards healthy: bit-identical to one unsharded index over the
        same rows.  ``K`` of ``N`` shards failed (after retries) under
        ``degraded="allow"``: bit-identical to an index over the surviving
        shards' rows, with ``stats.partial=True`` and ``stats.coverage ==
        (N-K)/N``; under ``"forbid"`` a typed
        :class:`~repro.core.errors.PartialResultError` raises instead (as it
        always does when *no* shard answers).  ``num_workers`` is accepted
        for engine-interface compatibility; the scatter itself is the
        parallelism (each shard searches single-threaded).

        If a shard attempt fails *after* contributing candidates to the
        shared best-so-far, its offers may have over-tightened the pruning
        bound — for the survivors, and (offered twice) once its own retry
        succeeds; the gather detects that and re-scatters the answering
        shards with a fresh heap (within the deadline), keeping the identity
        guarantees.

        ``trace`` records the scatter's phase spans (normalize, scatter,
        merge) plus one detail span per shard with its status and engine
        time; tracing never changes the answer.
        """
        wall_start = time.perf_counter()
        k = validated_count(k)
        query = validated_query(query, self._series_length)
        deadline = resolve_deadline(timeout_s)
        mode = self._degraded_mode(degraded)
        query_normalized = znormalize(query)
        if trace is not None:
            trace.add_phase("normalize", time.perf_counter() - wall_start)
            scatter_start = time.perf_counter()
        outcomes: "list[_Outcome]" = []
        presets: "dict[int, _Outcome] | None" = None
        for _ in range(3):  # initial scatter + bounded contamination reruns
            # Every attempt's heap, per shard: the gather reads their
            # ``offered`` flags even while an abandoned attempt still runs.
            heaps: "list[list[BestSoFar]]" = [[] for _ in self._shards]
            outcomes = self._scatter(
                functools.partial(self._attempt, queries=query, k=k,
                                  global_best=BestSoFar(k), heaps=heaps),
                deadline, presets=presets)
            # Contaminated: an attempt that did not end up as its shard's
            # answer (a failure, or one a successful retry re-offered over)
            # left offers in the shared heap.
            if not any(heap.offered for o in outcomes for heap in
                       (heaps[o.shard][:-1] if o.answered
                        else heaps[o.shard])):
                break
            answered = [o for o in outcomes if o.answered]
            if not answered:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break  # out of budget: serve what we have (timed-out answer)
            # Freeze the failures, re-ask only the shards that answered.
            presets = {o.shard: o for o in outcomes if not o.answered}
        if trace is not None:
            trace.add_phase("scatter", time.perf_counter() - scatter_start,
                            shards=len(outcomes),
                            answered=sum(1 for o in outcomes if o.answered))
            for outcome in outcomes:
                trace.add_detail(
                    f"shard{outcome.shard}",
                    outcome.stats[0].total_time if outcome.stats is not None
                    else 0.0,
                    answered=int(outcome.answered))
            merge_start = time.perf_counter()
        result = self._gather(query_normalized[None, :], k, outcomes, mode)[0]
        if trace is not None:
            trace.add_phase("merge", time.perf_counter() - merge_start,
                            candidates=int(result.indices.size))
        result.stats.wall_time_s = time.perf_counter() - wall_start
        return result

    def nearest_neighbor(self, query, num_workers: "int | None" = None,
                         timeout_s: "float | None" = None,
                         degraded: "str | None" = None) -> SearchResult:
        """Exact 1-NN over the surviving shards (see :meth:`knn`)."""
        return self.knn(query, k=1, num_workers=num_workers,
                        timeout_s=timeout_s, degraded=degraded)

    def _attempt(self, shard: _Shard, slice_deadline: "float | None", *,
                 queries: np.ndarray, k: int,
                 global_best: "BestSoFar | None" = None,
                 heaps: "list[list[BestSoFar]] | None" = None):
        """One attempt of one shard: ask it, translate its ids.

        The single path behind ``knn`` (one query, searched on a heap whose
        parent is ``global_best``) and ``knn_batch`` (a query matrix, no
        cross-shard heap), whether the shard's engine is in this process
        (:func:`shard_answer`) or a worker's (``shard.remote.answer``, the
        same tuple over RPC).

        The seqlock dance: capture the shard's (even) version, run the
        query, and retry if a compaction moved it — the id translation and
        gathered values must come from one consistent generation.
        """
        remote = shard.remote
        ask = remote.answer if remote is not None \
            else functools.partial(shard_answer, self._engine(shard))
        while True:
            version = shard.version
            if version & 1:  # compaction in progress: brief, bounded wait
                _slice_timeout(shard, slice_deadline,
                               " waiting for a compaction")
                time.sleep(0.0005)
                continue
            timeout_s = _slice_timeout(shard, slice_deadline)
            best = None
            if global_best is not None:
                # Rows are translated through the shard's *live* id map: an
                # insert maps its rows before the engine can surface them.
                best = BestSoFar(k, parent=global_best,
                                 row_map=lambda rows: shard.globals_map[rows])
                heaps[shard.index].append(best)
            ids, values, stats, surviving = ask(queries, k, timeout_s, best)
            globals_map = shard.globals_map
            if shard.version != version:
                continue
            # Exact surviving-row bookkeeping even while the engine lives
            # elsewhere: num_surviving sums these hints.
            shard.num_surviving_hint = surviving
            return ([(globals_map[rows], block)
                     for rows, block in zip(ids, values)], stats, surviving)

    def _gather(self, normalized: np.ndarray, k: int,
                outcomes: "list[_Outcome]", mode: str) -> "list[SearchResult]":
        """Merge per-shard candidates into one canonical answer per query."""
        answered = [o for o in outcomes if o.answered]
        total = len(outcomes)
        partial = len(answered) < total
        if partial and (mode == "forbid" or not answered):
            raise self._partial_error(outcomes, mode)
        surviving_total = sum(o.surviving for o in answered)
        if k > surviving_total and not partial:
            raise SearchError(
                f"k={k} exceeds the number of surviving series "
                f"({surviving_total})")
        results = []
        for position, query in enumerate(normalized):
            rows = np.concatenate([o.payload[position][0] for o in answered])
            values = np.concatenate([o.payload[position][1] for o in answered],
                                    axis=0)
            stats = self._merged_stats([o.stats[position] for o in answered],
                                       surviving_total, total, len(answered))
            # Per-row canonical distances are independent of the other rows
            # in the matrix, so the top k of the union are exactly
            # finalize_result's output for one index over the union — the
            # bit-identity argument.
            order = np.argsort(rows)
            results.append(ranked_result(query, rows[order], values[order],
                                         stats, k))
        return results

    def knn_batch(self, queries, k: int = 1, num_workers: "int | None" = None,
                  timeout_s: "float | None" = None,
                  degraded: "str | None" = None) -> "list[SearchResult]":
        """Batched scatter-gather: one ``knn_batch`` per shard, merged per query.

        No cross-shard best-so-far here (the per-shard batched engines keep
        their own schedules); answers are still exact and bit-identical to
        the unsharded batch through the same candidate-union ranking.
        """
        wall_start = time.perf_counter()
        k = validated_count(k)
        matrix = validated_queries(queries, self._series_length)
        deadline = resolve_deadline(timeout_s)
        mode = self._degraded_mode(degraded)
        if matrix.shape[0] == 0:
            return []
        outcomes = self._scatter(
            functools.partial(self._attempt, queries=matrix, k=k), deadline)
        results = self._gather(znormalize_batch(matrix), k, outcomes, mode)
        # Every result carries the batch's caller-observed wall time, the
        # same convention as BatchSearcher.knn_batch.
        wall_time = time.perf_counter() - wall_start
        for result in results:
            result.stats.wall_time_s = wall_time
        return results

    def _merged_stats(self, parts: "list[SearchStats]", surviving_total: int,
                      shards_total: int, shards_answered: int) -> SearchStats:
        stats = SearchStats(num_series=surviving_total,
                            num_workers=max(1, shards_answered),
                            shards_total=shards_total,
                            shards_answered=shards_answered,
                            partial=shards_answered < shards_total)
        merge_search_stats(stats, parts)
        stats.approximate_time = sum(part.approximate_time for part in parts)
        stats.traversal_time = sum(part.traversal_time for part in parts)
        return stats

    def _partial_error(self, outcomes: "list[_Outcome]",
                       mode: str) -> PartialResultError:
        answered = sum(1 for o in outcomes if o.answered)
        failures = {o.shard: str(o.error) for o in outcomes if not o.answered}
        total = len(outcomes)
        if answered == 0:
            message = f"no shard answered (0 of {total})"
        else:
            message = (f"{total - answered} of {total} shards failed to "
                       f"answer and degraded results are forbidden by policy")
        return PartialResultError(message, shards_total=total,
                                  shards_answered=answered, failures=failures)

    def _degraded_mode(self, override: "str | None") -> str:
        mode = self._degraded if override is None else override
        if mode not in DEGRADED_MODES:
            raise InvalidParameterError(
                f"degraded must be one of {DEGRADED_MODES}, got {mode!r}")
        return mode

    # --------------------------------------------------------------- writes

    def _require_writable(self) -> None:
        if not self._writable:
            raise ReadOnlyIndexError(
                "this sharded index was loaded read-only; reload with "
                "writable=True to insert/delete/compact")

    def insert(self, series) -> int:
        """Route one series to a healthy shard; returns its global row id."""
        series = np.asarray(series, dtype=np.float64)
        if series.ndim != 1:
            raise IndexError_(
                f"insert expects a single 1-D series, got shape "
                f"{series.shape}; use insert_batch for matrices")
        return int(self.insert_batch(series[None, :])[0])

    def insert_batch(self, series_matrix) -> np.ndarray:
        """Route a batch to one healthy shard; returns the global row ids.

        Shards take turns (round-robin) so ingest spreads; a shard that
        fails the write is charged on the health board and the next healthy
        shard is tried, so a single bad shard cannot block ingest.  Global
        ids are handed out in arrival order — the same ids one unsharded
        dynamic index ingesting the same sequence would assign.
        """
        self._require_writable()
        try:
            matrix = np.asarray(series_matrix, dtype=np.float64)
        except (TypeError, ValueError) as error:
            raise ValidationError(
                f"inserted series are not numeric: {error}") from None
        if matrix.ndim == 1:
            matrix = matrix[None, :]
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ValidationError(
                f"insert_batch expects a non-empty 2-D matrix of series, "
                f"got shape {matrix.shape}")
        with self._write_lock:
            order = [(self._next_insert_shard + step) % len(self._shards)
                     for step in range(len(self._shards))]
            last_error: "BaseException | None" = None
            for shard_index in order:
                if self._board.is_quarantined(shard_index):
                    continue
                shard = self._shards[shard_index]
                try:
                    ids = self._insert_into(shard, matrix)
                except ValidationError:
                    raise  # caller mistake, not a shard failure
                except CorruptionError as error:
                    last_error = error
                    with shard.lock:
                        shard.engine = None
                    self._board.record_persistent(shard_index, error)
                    self._note_quarantine(shard_index)
                except Exception as error:  # noqa: BLE001 — try the next shard
                    last_error = error
                    if self._board.record_transient(shard_index, error) \
                            == QUARANTINED:
                        self._note_quarantine(shard_index)
                else:
                    self._next_insert_shard = \
                        (shard_index + 1) % len(self._shards)
                    return ids
            error = ShardError(
                "no healthy shard could accept the insert"
                + (f" (last failure: {last_error})" if last_error else ""))
            if last_error is not None:
                error.__cause__ = last_error
            raise error

    def _insert_into(self, shard: _Shard, matrix: np.ndarray) -> np.ndarray:
        with shard.lock:
            engine = self._engine_locked(shard)
            count = matrix.shape[0]
            new_globals = self._next_global + np.arange(count, dtype=np.int64)
            previous = shard.globals_map
            # Extend the id map *before* the engine buffers the rows: a
            # concurrent query translating freshly visible local ids must
            # always find them mapped.
            shard.globals_map = np.concatenate([previous, new_globals])
            try:
                engine.insert_batch(matrix)
            except BaseException:
                shard.globals_map = previous
                raise
            self._next_global += count
            return new_globals

    def delete(self, row: int) -> None:
        """Tombstone a row by its global id (routed to its owning shard)."""
        self._require_writable()
        row = operator.index(row)
        with self._write_lock:
            for shard in self._shards:
                globals_map = shard.globals_map
                position = int(np.searchsorted(globals_map, row))
                if position < globals_map.shape[0] \
                        and int(globals_map[position]) == row:
                    with shard.lock:
                        engine = self._engine_locked(shard)
                        engine.delete(position)
                    return
            raise IndexError_(
                f"row {row} is not mapped by any shard of this index")

    def compact(self, num_workers: "int | None" = None) -> "dict[int, int]":
        """Compact every healthy shard in place; global ids are *stable*.

        Each shard's engine rebuild renumbers its local rows; the shard's
        id map is rewritten through the returned mapping behind the seqlock,
        so the global ids of surviving rows never change (unlike an
        unsharded compact) and racing queries retry instead of
        mistranslating.  Quarantined shards are skipped (they compact after
        readmission); shards with no surviving rows keep their tombstones.
        Returns ``{shard: rows dropped}`` for the shards compacted.
        """
        self._require_writable()
        dropped: "dict[int, int]" = {}
        with self._write_lock:
            for shard in self._shards:
                if self._board.is_quarantined(shard.index):
                    continue
                with shard.lock:
                    engine = self._engine_locked(shard)
                    if engine.num_surviving == 0:
                        continue
                    previous = shard.globals_map
                    shard.version += 1  # odd: queries wait out the rewrite
                    try:
                        mapping = engine.compact(num_workers=num_workers)
                        surviving_old = np.flatnonzero(mapping >= 0)
                        rewritten = np.empty(surviving_old.shape[0],
                                             dtype=np.int64)
                        rewritten[mapping[surviving_old]] = \
                            previous[surviving_old]
                        shard.globals_map = rewritten
                        shard.num_surviving_hint = engine.num_surviving
                    finally:
                        shard.version += 1  # even again, changed iff rewritten
                    dropped[shard.index] = int(previous.shape[0]
                                               - shard.globals_map.shape[0])
        return dropped

    # --------------------------------------------------------- health/probe

    def probe_shard(self, index: int) -> bool:
        """Probe one shard and readmit it on success; returns the verdict.

        Persistent failures reload the engine from disk first (a corrupt
        snapshot can only recover through a repair + reload); transient ones
        re-exercise the existing engine.  A passing probe answers a 1-NN
        query (:func:`shard_probe`; a remote shard runs it in its worker),
        so readmission means the shard actually serves again.
        """
        shard = self._shards[index]
        with shard.lock:
            if shard.remote is None and self._board.needs_reload(index):
                engine, shard.engine = shard.engine, None
                if engine is not None:
                    try:
                        engine.close()
                    except Exception:  # noqa: BLE001 — closing damaged state
                        pass
            try:
                if shard.remote is not None:
                    shard.remote.probe()
                else:
                    shard_probe(self._engine_locked(shard))
            except CorruptionError as error:
                shard.engine = None
                self._board.record_persistent(index, error)
                return False
            except Exception as error:  # noqa: BLE001 — probe failed, stay out
                self._board.record_transient(index, error)
                return False
        self._board.readmit(index)
        _SHARD_READMITS.labels(shard=str(index)).inc()
        return True

    def _note_quarantine(self, shard_index: "int | None" = None) -> None:
        """A shard just tripped: count it, make sure the probe loop runs."""
        if shard_index is not None:
            _SHARD_QUARANTINES.labels(shard=str(shard_index)).inc()
        if self._closed or not self._health.auto_probe:
            return
        with self._probe_thread_lock:
            if self._probe_thread is None or not self._probe_thread.is_alive():
                self._probe_thread = threading.Thread(
                    target=self._probe_loop, name="repro-shard-probe",
                    daemon=True)
                self._probe_thread.start()
        self._probe_wake.set()

    def _probe_loop(self) -> None:
        while not self._closed:
            quarantined = self._board.quarantined_indices()
            if not quarantined:
                self._probe_wake.wait()
                self._probe_wake.clear()
                continue
            for index in quarantined:
                if self._closed:
                    return
                try:
                    self.probe_shard(index)
                except Exception:  # noqa: BLE001 — the loop must survive
                    pass
            self._close_event.wait(self._health.probe_interval_s)

    # ---------------------------------------------------------- persistence

    def save(self) -> "ShardedIndex":
        """Persist every loaded shard's snapshot and the root manifest."""
        with self._write_lock:
            for shard in self._shards:
                if shard.engine is not None:
                    with shard.lock:
                        shard.engine.save(shard.path)
                        shard.num_surviving_hint = shard.engine.num_surviving
            self._write_manifest(self.path, self._manifest_dict(
                self._shards, self._series_length, self._index_type,
                self._next_global))
        return self

    @staticmethod
    def _manifest_dict(shards: "list[_Shard]", series_length: int,
                       index_type: str, next_global: int) -> dict:
        return {
            "format": _FORMAT_NAME,
            "version": SHARDED_FORMAT_VERSION,
            "num_shards": len(shards),
            "series_length": series_length,
            "index_type": index_type,
            "next_global": next_global,
            "shards": [
                {
                    "dir": shard.path.name,
                    "globals": ShardedIndex._globals_to_manifest(
                        shard.globals_map),
                    "num_surviving": int(shard.num_surviving_hint),
                }
                for shard in shards
            ],
        }

    @staticmethod
    def _read_manifest(path: Path) -> dict:
        manifest_path = Path(path) / _MANIFEST_NAME
        try:
            payload = json.loads(manifest_path.read_text())
        except FileNotFoundError:
            raise IndexError_(
                f"no sharded index at {path}: missing {_MANIFEST_NAME}"
            ) from None
        except (OSError, ValueError) as error:
            raise CorruptionError(
                f"unreadable sharded manifest at {manifest_path}: {error}"
            ) from None
        if not isinstance(payload, dict) \
                or payload.get("format") != _FORMAT_NAME:
            raise CorruptionError(
                f"{manifest_path} is not a sharded index manifest")
        if int(payload.get("version", 0)) > SHARDED_FORMAT_VERSION:
            raise IndexError_(
                f"sharded manifest version {payload.get('version')} is newer "
                f"than this library supports ({SHARDED_FORMAT_VERSION})")
        return payload

    @staticmethod
    def _write_manifest(path: Path, manifest: dict) -> None:
        # Temp-sibling + atomic rename: a crash leaves the old complete
        # manifest or the new one, never a torn mix (same protocol as the
        # snapshot layer, built from the fsio primitives so fault tests can
        # sweep it).
        temp = Path(path) / (_MANIFEST_NAME + ".tmp")
        final = Path(path) / _MANIFEST_NAME
        fsio.write_bytes(temp, json.dumps(manifest, indent=2).encode())
        fsio.fsync_path(temp)
        fsio.rename(temp, final)
        fsio.fsync_dir(path)

    @staticmethod
    def _globals_from_manifest(spec: dict) -> np.ndarray:
        if "ids" in spec:
            return np.asarray(spec["ids"], dtype=np.int64)
        start = int(spec["start"])
        return np.arange(start, start + int(spec["count"]), dtype=np.int64)

    @staticmethod
    def _globals_to_manifest(globals_map: np.ndarray) -> dict:
        globals_map = np.asarray(globals_map, dtype=np.int64)
        if globals_map.size == 0:
            return {"start": 0, "count": 0}
        start = int(globals_map[0])
        if np.array_equal(globals_map,
                          np.arange(start, start + globals_map.size)):
            return {"start": start, "count": int(globals_map.size)}
        return {"ids": [int(value) for value in globals_map]}

    def close(self) -> None:
        """Stop the probe loop, the scatter pool, and every loaded engine."""
        self._closed = True
        self._probe_wake.set()
        self._close_event.set()
        thread = self._probe_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=1.0)
        executor = self._executor
        if executor is not None:
            executor.shutdown(wait=False)
        for shard in self._shards:
            engine = shard.engine
            if engine is not None:
                try:
                    engine.close()
                except Exception:  # noqa: BLE001 — best-effort teardown
                    pass
