"""Dynamic index maintenance: buffered inserts, tombstone deletes, compaction.

The tree indexes of this library (:class:`~repro.index.sofa.SofaIndex`,
:class:`~repro.index.messi.MessiIndex`, the bare
:class:`~repro.index.tree.TreeIndex`) are read-optimized and build-once:
serving freshly arriving series would otherwise require a full rebuild.
:class:`DynamicIndex` layers a *write path* over a built tree, the way
MESSI-lineage systems serve continuously arriving data:

* :meth:`~DynamicIndex.insert` / :meth:`~DynamicIndex.insert_batch` append
  series to an unsorted **delta buffer**.  Their symbolic words come from the
  existing vectorized summarization (one ``words`` + ``intervals`` call per
  batch) — no tree surgery; the buffer is an amortized-doubling
  :class:`~repro.core.series.GrowableArray`, so an ingest stream costs O(1)
  copies per row.
* :meth:`~DynamicIndex.delete` records a **tombstone** for a base-tree or
  delta row.  Tombstoned rows are masked out of every refinement step with a
  ``+inf`` lower bound, so they are never refined and never answered.
* :meth:`~DynamicIndex.knn` / :meth:`~DynamicIndex.knn_batch` answer over
  *tree ∪ delta − tombstones*: both search engines fuse the delta into their
  BSF refinement loops (the delta is lower-bounded with the same
  :func:`~repro.core.simd.batch_lower_bound` kernels as leaf series, so
  GEMINI pruning applies to it too) and the answers are **bit-identical to a
  scratch rebuild** on the surviving rows.  (Bit-identity is stated for a
  rebuild over the same served values — z-normalization applied once, as
  when both sides ingest the same raw rows; re-normalizing already
  normalized values drifts them by an ulp and is not the same collection.)
* :meth:`~DynamicIndex.compact` merges the delta: the surviving series are
  rebuilt through the two-stage build pipeline
  (:meth:`~repro.index.tree.TreeIndex.clone_unbuilt` + ``build``), and the
  new tree replaces the old one in a single atomic reference swap — readers
  either see the complete old generation (tree + delta + tombstones) or the
  complete new one, never a mix.  :meth:`~DynamicIndex.compact_in_background`
  runs the merge on a daemon thread
  (:class:`~repro.parallel.pool.BackgroundTask`) while queries keep serving
  the old generation.

Row identity: base rows keep their dataset positions ``0..num_base-1``;
buffered series get ids ``num_base, num_base+1, ...`` in insert order.
Compaction renumbers the survivors compactly (preserving their relative
order, so tie-breaking by row id is unchanged) and returns the old→new
mapping.

Persistence: :meth:`~DynamicIndex.save` writes a dynamic snapshot that
round-trips the delta buffer and both tombstone sets alongside the base tree,
so a serving process can restart mid-ingest; format-v1 snapshots (and static
v2+ snapshots) load as a compacted index with an empty delta.  See
:mod:`repro.index.persistence`.

Durability: pass ``wal_dir`` to attach a :class:`~repro.index.wal.WriteAheadLog`
— every ``insert``/``insert_batch``/``delete`` then appends a checksummed log
record *before* mutating in-memory state and acking, so
:meth:`~DynamicIndex.recover` can replay a crash-lost session over the last
snapshot bit-identically.  ``save`` records the covered WAL position in the
manifest and checkpoints the log; ``compact`` writes a logged barrier and
rotates the segment with the generation swap.
"""

from __future__ import annotations

import numbers
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.errors import IndexError_, InvalidParameterError, ValidationError
from repro.core.normalization import znormalize_batch
from repro.core.series import Dataset, GrowableArray
from repro.index.batch_search import BatchSearcher
from repro.index.facade import TreeFacade
from repro.index.search import ExactSearcher, SearchResult, validated_row
from repro.index.tree import TreeIndex
from repro.index.wal import OP_COMPACT, OP_DELETE, OP_INSERT, WriteAheadLog
from repro.index.wal import read_records as _read_wal_records
from repro.obs.metrics import get_registry
from repro.parallel.pool import BackgroundTask

_REGISTRY = get_registry()
_COMPACTIONS = _REGISTRY.counter(
    "repro_compactions_total",
    "Completed dynamic-index compactions (identity no-ops excluded).")
_COMPACTION_SECONDS = _REGISTRY.histogram(
    "repro_compaction_phase_seconds",
    "Latency of dynamic-index compaction phases: concat (gathering "
    "survivors), rebuild (the tree build), swap (generation swap + WAL "
    "rotation).",
    labelnames=("phase",))


def numeric_series(values) -> np.ndarray:
    """Inserted series as a float64 array; typed failure if not numeric."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as error:
        raise ValidationError(
            f"inserted series are not numeric: {error}") from None


def _gather_rows(base_values: np.ndarray, delta_values: np.ndarray,
                 num_base: int, rows) -> np.ndarray:
    """Stack the series values of global ``rows`` (base or delta)."""
    rows = np.asarray(rows, dtype=np.int64)
    in_delta = rows >= num_base
    if not in_delta.any():
        return base_values[rows]
    gathered = np.empty((rows.shape[0], base_values.shape[1]),
                        dtype=np.float64)
    gathered[~in_delta] = base_values[rows[~in_delta]]
    gathered[in_delta] = delta_values[rows[in_delta] - num_base]
    return gathered


@dataclass(frozen=True)
class DeltaView:
    """A consistent snapshot of a dynamic index's write-side state.

    Captured once per query (or per query batch) and handed to the search
    engines, which fuse it into their refinement loops.  The payload arrays
    (``values``/``lower``/``upper``) are zero-copy views of the append
    buffers — safe because appended rows are never mutated and buffer growth
    reallocates instead of overwriting — while the small aliveness masks are
    copies, so a concurrent ``delete`` cannot tear a query's view.
    """

    #: Number of rows of the base tree; delta ids start here.
    num_base: int
    #: Number of live rows across base and delta (the k-NN capacity).
    num_surviving: int
    #: Global row ids of every delta row, tombstoned ones included.
    rows: np.ndarray
    #: Buffered (normalized) series values, one per delta row.
    values: np.ndarray
    #: Per-series quantization intervals of the buffered words.
    lower: np.ndarray
    upper: np.ndarray
    #: Aliveness of every delta row (False = tombstoned).
    alive: np.ndarray
    #: Aliveness of every base row, or ``None`` when no base row is deleted.
    base_alive: np.ndarray | None

    def gather(self, base_values: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Stack the series values of global ``rows`` (base or delta)."""
        return _gather_rows(base_values, self.values, self.num_base, rows)


class _DynamicState:
    """One generation of a dynamic index: a base tree plus its write buffers.

    A generation's tree never changes; compaction builds a *new* generation
    and the owning :class:`DynamicIndex` swaps the reference atomically.  The
    search engines of a generation are bound to its tree and capture its
    delta through :meth:`capture`, so a query that grabbed a generation
    always sees matching (tree, delta, tombstones).
    """

    def __init__(self, tree: TreeIndex, index_type: str) -> None:
        self.tree = tree
        self.index_type = index_type
        self.num_base = tree.num_series
        series_length = tree.dataset.series_length
        word_length = int(np.asarray(tree.summarization.weights).shape[0])
        self.base_alive = np.ones(self.num_base, dtype=bool)
        self.base_dead = 0
        self.delta_values = GrowableArray((series_length,))
        self.delta_lower = GrowableArray((word_length,))
        self.delta_upper = GrowableArray((word_length,))
        self.delta_alive = GrowableArray((), dtype=bool)
        self.delta_dead = 0
        # Read-path caches, rebuilt lazily and invalidated by the write path
        # (see `invalidate_tombstone_cache`): an immutable copy of the base
        # aliveness mask with its live count, and the delta row-id range.
        # Without them every query would pay an O(num_base) copy + sum.
        self._base_alive_cache: "tuple[np.ndarray, int] | None" = None
        self._rows_cache = np.empty(0, dtype=np.int64)
        self.searcher = ExactSearcher(tree, delta_source=self.capture)
        self.batch_searcher = BatchSearcher(tree, delta_source=self.capture)

    @property
    def delta_count(self) -> int:
        """Number of buffered rows (tombstoned ones included)."""
        return len(self.delta_alive)

    @property
    def num_total(self) -> int:
        return self.num_base + self.delta_count

    @property
    def num_surviving(self) -> int:
        return self.num_total - self.base_dead - self.delta_dead

    def invalidate_tombstone_cache(self) -> None:
        """Called by the write path after mutating ``base_alive``."""
        self._base_alive_cache = None

    def capture(self) -> DeltaView | None:
        """Snapshot the current delta for one query (``None`` = no writes).

        The aliveness buffer is appended to *last* on insert, so reading its
        length first guarantees every captured payload row already exists.
        Between writes this is O(delta): the base tombstone mask is an
        immutable cached copy, not a fresh O(num_base) copy per query.
        """
        count = len(self.delta_alive)
        if count == 0 and self.base_dead == 0:
            return None
        alive = self.delta_alive.view[:count].copy()
        if self.base_dead:
            cached = self._base_alive_cache
            if cached is None:
                snapshot = self.base_alive.copy()
                snapshot.flags.writeable = False
                cached = (snapshot, int(snapshot.sum()))
                self._base_alive_cache = cached
            base_alive, base_live = cached
        else:
            base_alive, base_live = None, self.num_base
        rows = self._rows_cache
        if rows.shape[0] != count:
            rows = self.num_base + np.arange(count, dtype=np.int64)
            rows.flags.writeable = False
            self._rows_cache = rows
        return DeltaView(
            num_base=self.num_base,
            num_surviving=base_live + int(alive.sum()),
            rows=rows,
            values=self.delta_values.view[:count],
            lower=self.delta_lower.view[:count],
            upper=self.delta_upper.view[:count],
            alive=alive,
            base_alive=base_alive,
        )


def _resolve_tree(index) -> tuple[TreeIndex, str]:
    """The underlying tree and persistence type name of a supported index."""
    if isinstance(index, TreeIndex):
        return index, "tree"
    if isinstance(index, TreeFacade):
        return index.tree, index.index_type
    raise IndexError_(
        f"DynamicIndex cannot wrap an object of type {type(index).__name__}; "
        "expected SofaIndex, MessiIndex or TreeIndex"
    )


class DynamicIndex:
    """A mutable serving layer over a read-optimized tree index.

    Parameters
    ----------
    index:
        A *built* :class:`~repro.index.sofa.SofaIndex`,
        :class:`~repro.index.messi.MessiIndex` or bare
        :class:`~repro.index.tree.TreeIndex` to serve and mutate.  The tree
        is adopted, not copied; the original wrapper keeps answering
        base-only queries.
    compact_threshold:
        Pending-write fraction (buffered inserts plus base tombstones,
        relative to the base size) above which :attr:`needs_compaction`
        turns true.  Callers poll it and call :meth:`compact` or
        :meth:`compact_in_background` themselves.
    wal_dir:
        Directory of a :class:`~repro.index.wal.WriteAheadLog` to attach.
        Writes append a checksummed record *before* mutating state and
        acking; after a crash, :meth:`recover` replays the log over the last
        snapshot.  Attaching to a log that already holds records raises a
        typed :class:`~repro.core.errors.WalError` (replay them first).
    wal_fsync:
        Log fsync policy: ``"always"`` (acked writes survive power loss),
        ``"batch"`` (default; acked writes survive process crashes) or
        ``"off"``.

    Inserted series and queries are z-normalized, the same convention as
    :class:`~repro.core.series.Dataset`, which normalizes the base collection
    on construction.

    Reads are lock-free: a query atomically grabs the current generation
    (tree + searchers) and captures a consistent :class:`DeltaView`.  Writes
    (insert, delete, compact, save) serialize on one lock; the WAL append
    happens inside it, so log order is apply order.
    """

    def __init__(self, index, *, compact_threshold: float = 0.25,
                 wal_dir=None, wal_fsync: str = "batch") -> None:
        tree, index_type = _resolve_tree(index)
        if not tree.is_built:
            raise IndexError_(
                "DynamicIndex requires a built index; call build() first"
            )
        if not (isinstance(compact_threshold, numbers.Real)
                and compact_threshold > 0):
            raise InvalidParameterError(
                f"compact_threshold must be positive, got {compact_threshold!r}"
            )
        self.compact_threshold = float(compact_threshold)
        self._state = _DynamicState(tree, index_type)
        self._write_lock = threading.Lock()
        self._compaction_lock = threading.Lock()
        self._compaction_task: BackgroundTask | None = None
        self._wal: WriteAheadLog | None = None
        if wal_dir is not None:
            self._wal = WriteAheadLog(wal_dir, fsync=wal_fsync,
                                      expect_empty=True)

    # ---------------------------------------------------------- inspection

    @property
    def tree(self) -> TreeIndex:
        """The currently served base tree (changes on compaction)."""
        return self._state.tree

    @property
    def index_type(self) -> str:
        """Persistence type of the wrapped index: ``sofa``/``messi``/``tree``."""
        return self._state.index_type

    @property
    def num_base(self) -> int:
        """Rows of the base tree (the last compacted generation)."""
        return self._state.num_base

    @property
    def delta_count(self) -> int:
        """Buffered inserts awaiting compaction (tombstoned ones included)."""
        return self._state.delta_count

    @property
    def num_surviving(self) -> int:
        """Live rows over *tree ∪ delta − tombstones* (the k-NN capacity)."""
        return self._state.num_surviving

    @property
    def delta_fraction(self) -> float:
        """Pending writes (buffered inserts + base tombstones) / base size."""
        state = self._state
        return (state.delta_count + state.base_dead) / max(1, state.num_base)

    @property
    def needs_compaction(self) -> bool:
        """Whether pending writes exceed ``compact_threshold``."""
        return self.delta_fraction >= self.compact_threshold

    @property
    def wal_depth(self) -> int:
        """WAL records since the last checkpoint (0 without a WAL).

        The replay debt a crash would incur right now; ``/healthz`` and the
        ``repro_wal_depth`` gauge surface it per served index.
        """
        wal = self._wal
        return wal.records_pending if wal is not None else 0

    @property
    def num_tombstones(self) -> int:
        """Deleted-but-not-yet-compacted rows (base and delta together)."""
        state = self._state
        return state.base_dead + state.delta_dead

    def __len__(self) -> int:
        return self.num_surviving

    # --------------------------------------------------------------- writes

    def insert(self, series: np.ndarray) -> int:
        """Buffer one series for serving; returns its global row id."""
        series = numeric_series(series)
        if series.ndim != 1:
            raise IndexError_(
                f"insert expects a single 1-D series, got shape {series.shape}; "
                "use insert_batch for matrices"
            )
        return int(self.insert_batch(series[None, :])[0])

    def insert_batch(self, series_matrix: np.ndarray) -> np.ndarray:
        """Buffer a batch of series (one per row); returns their row ids.

        The symbolic words of the batch are computed with the vectorized
        summarization of the served tree and their quantization intervals are
        stored next to the values, so queries lower-bound buffered series
        exactly like indexed ones.  No tree surgery happens here; the rows
        become eligible for tree placement at the next :meth:`compact`.
        """
        matrix = numeric_series(series_matrix)
        if matrix.ndim == 1:
            matrix = matrix[None, :]
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ValidationError(
                f"insert_batch expects a non-empty 2-D matrix of series, "
                f"got shape {matrix.shape}"
            )
        expected = self._state.tree.dataset.series_length
        if matrix.shape[1] != expected:
            raise ValidationError(
                f"inserted series have length {matrix.shape[1]}, but the "
                f"index was built over series of length {expected}"
            )
        if not np.isfinite(matrix).all():
            raise ValidationError("inserted series contain NaN or infinite values")
        return self._insert_normalized(znormalize_batch(matrix), log=True)

    def _insert_normalized(self, matrix: np.ndarray, log: bool) -> np.ndarray:
        """Append already-normalized rows (the write path and WAL replay).

        With ``log=True`` the batch is appended to the WAL *before* the
        buffers mutate — if the log append fails (disk full, simulated
        crash), the exception propagates with the in-memory state untouched
        and nothing acked.  Replay calls with ``log=False``: the record's
        rows are the exact bytes the original call buffered, so appending
        them (bypassing normalization) reproduces the buffers bit-identically.
        """
        with self._write_lock:
            state = self._state  # re-read: compaction may have swapped it
            summarization = state.tree.summarization
            words = summarization.words(matrix)
            lower, upper = summarization.bins.intervals(words)
            if log and self._wal is not None:
                self._wal.append_insert(matrix)
            start = state.delta_values.append(matrix)
            state.delta_lower.append(lower)
            state.delta_upper.append(upper)
            # Aliveness last: readers derive the visible row count from it.
            state.delta_alive.append(np.ones(matrix.shape[0], dtype=bool))
            return state.num_base + start + np.arange(matrix.shape[0],
                                                      dtype=np.int64)

    def delete(self, row: int) -> None:
        """Tombstone a row (base or buffered) by its global id.

        Raises a typed :class:`~repro.core.errors.IndexError_` when the row
        is not an integer, out of range or already tombstoned — never a
        silent no-op, so double deletes surface instead of masking
        bookkeeping bugs.
        """
        self._delete_row(validated_row(row), log=True)

    def _delete_row(self, row: int, log: bool) -> None:
        """Validate and tombstone one row (write path and WAL replay).

        The WAL record is appended after validation but before the mask
        flips: an invalid delete is never logged, a logged delete is always
        applied.
        """
        with self._write_lock:
            state = self._state
            if row < 0 or row >= state.num_total:
                raise IndexError_(
                    f"row {row} is out of range for an index with "
                    f"{state.num_total} rows ({state.num_base} base + "
                    f"{state.delta_count} buffered)"
                )
            if row < state.num_base:
                if not state.base_alive[row]:
                    raise IndexError_(f"row {row} is already deleted")
                if log and self._wal is not None:
                    self._wal.append_delete(row)
                state.base_alive[row] = False
                state.base_dead += 1
                state.invalidate_tombstone_cache()
            else:
                position = row - state.num_base
                alive = state.delta_alive.view
                if not alive[position]:
                    raise IndexError_(f"row {row} is already deleted")
                if log and self._wal is not None:
                    self._wal.append_delete(row)
                alive[position] = False
                state.delta_dead += 1

    # -------------------------------------------------------------- queries

    def knn(self, query: np.ndarray, k: int = 1,
            timeout_s: "float | None" = None,
            trace=None) -> SearchResult:
        """Exact k-NN over *tree ∪ delta − tombstones*.

        Bit-identical to a scratch rebuild on the surviving rows (answers are
        reported under the same global row ids this index hands out).
        ``timeout_s`` bounds the search: on expiry the best-so-far is
        finalized with ``stats.timed_out=True``.  ``trace`` records phase
        spans (including the delta-fusion phase) without changing the
        answer; see :meth:`~repro.index.search.ExactSearcher.knn`.
        """
        return self._state.searcher.knn(query, k=k, timeout_s=timeout_s,
                                        trace=trace)

    def gather_values(self, rows) -> np.ndarray:
        """Stack the served (normalized) values of global ``rows``.

        Resolves base rows against the tree's dataset and delta rows against
        the append buffer — the same gather the search engines finalize with,
        exposed so a shard can report its candidates' canonical distances
        (:func:`~repro.index.sharded.shard_answer`).  Safe against
        concurrent inserts (append-only buffers);
        callers racing a compaction must re-validate their row ids.
        """
        state = self._state
        return np.asarray(
            _gather_rows(np.asarray(state.tree.dataset.values),
                         state.delta_values.view, state.num_base, rows),
            dtype=np.float64)

    def nearest_neighbor(self, query: np.ndarray,
                         timeout_s: "float | None" = None) -> SearchResult:
        """Exact 1-NN over the surviving rows.

        ``timeout_s`` bounds the search like :meth:`knn` does: on expiry the
        best-so-far is finalized with ``stats.timed_out=True``.
        """
        return self.knn(query, k=1, timeout_s=timeout_s)

    def knn_batch(self, queries: np.ndarray, k: int = 1,
                  timeout_s: "float | None" = None) -> "list[SearchResult]":
        """Batched exact k-NN over the surviving rows (same answers as knn)."""
        return self._state.batch_searcher.knn_batch(queries, k=k,
                                                    timeout_s=timeout_s)

    # ----------------------------------------------------------- compaction

    def compact(self) -> np.ndarray:
        """Merge the delta and drop tombstones by rebuilding the tree.

        The surviving series (base order first, then insert order) are fed
        through the two-stage build pipeline — re-learning the
        summarization on the union, exactly like a fresh build — and the new
        generation replaces the old one atomically; in-flight queries finish
        on the old tree.  Returns the row remapping: ``mapping[old_id]`` is
        the new id of each previously valid global id, ``-1`` for tombstoned
        rows.  With nothing pending this is a cheap identity remap.
        """
        with self._write_lock:
            return self._compact_locked(log=True)

    def compact_in_background(self) -> BackgroundTask:
        """Run :meth:`compact` on a daemon thread and return its handle.

        Queries keep serving the pre-compaction generation until the atomic
        swap; inserts and deletes block for the duration of the rebuild (the
        write lock guards the merge against concurrent remapping).
        ``task.wait()`` returns the row remapping or re-raises the rebuild's
        failure.  If a merge is already running its handle is returned
        instead of starting a second one, and the failure of a finished
        earlier merge re-raises here rather than being dropped.
        """
        with self._compaction_lock:
            task = self._compaction_task
            if task is not None:
                if not task.done():
                    # A merge is already in flight; share its handle instead
                    # of dropping it (its outcome must stay observable).
                    return task
                self._compaction_task = None
                task.wait()  # surfaces a failed earlier merge, never drops it
            task = BackgroundTask(self.compact)
            self._compaction_task = task
        return task

    def _compact_locked(self, log: bool = True) -> np.ndarray:
        state = self._state
        mapping = np.full(state.num_total, -1, dtype=np.int64)
        if state.delta_count == 0 and state.base_dead == 0:
            mapping[:] = np.arange(state.num_total)
            return mapping
        surviving_base = np.flatnonzero(state.base_alive)
        surviving_delta = np.flatnonzero(state.delta_alive.view)
        if surviving_base.size + surviving_delta.size == 0:
            raise IndexError_(
                "cannot compact an index whose rows are all deleted; "
                "insert new series first"
            )
        if log and self._wal is not None:
            # Logged (and fsynced) only after the checks above, so a logged
            # compact always replays cleanly; rebuilds are deterministic, so
            # replaying the record reproduces this very tree and the
            # renumbering every later record's row ids assume.
            self._wal.append_compact()
        phase_start = time.perf_counter()
        values = np.concatenate(
            [np.asarray(state.tree.dataset.values)[surviving_base],
             state.delta_values.view[surviving_delta]], axis=0)
        base_dataset = state.tree.dataset
        dataset = Dataset(values, name=base_dataset.name, normalize=False,
                          metadata=dict(base_dataset.metadata), validate=False)
        _COMPACTION_SECONDS.labels(phase="concat").observe(
            time.perf_counter() - phase_start)
        phase_start = time.perf_counter()
        tree = state.tree.clone_unbuilt()
        tree.build(dataset)
        _COMPACTION_SECONDS.labels(phase="rebuild").observe(
            time.perf_counter() - phase_start)
        phase_start = time.perf_counter()
        mapping[surviving_base] = np.arange(surviving_base.size)
        mapping[state.num_base + surviving_delta] = (
            surviving_base.size + np.arange(surviving_delta.size))
        # Atomic generation swap: a single reference assignment, so readers
        # see either the complete old state or the complete new one.
        self._state = _DynamicState(tree, state.index_type)
        if self._wal is not None:
            # A segment never spans a generation swap; old segments stay
            # until the next durable snapshot checkpoints them.
            self._wal.rotate()
        _COMPACTION_SECONDS.labels(phase="swap").observe(
            time.perf_counter() - phase_start)
        _COMPACTIONS.inc()
        return mapping

    # ---------------------------------------------------------- persistence

    def save(self, path) -> "DynamicIndex":
        """Write a dynamic snapshot including the delta and tombstones.

        A process restarted from the snapshot resumes serving mid-ingest:
        same surviving rows, same global ids, same answers.  With a WAL
        attached, the manifest records the covered log position and — once
        the snapshot is durably committed — the log is checkpointed (old
        segments dropped; a crash in between is harmless, replay skips
        covered records).  Returns ``self`` for chaining.
        """
        from repro.index.persistence import save_dynamic

        with self._write_lock:
            save_dynamic(self, path)
            if self._wal is not None:
                self._wal.checkpoint()
        return self

    @classmethod
    def load(cls, path, mmap: bool = True, **options) -> "DynamicIndex":
        """Load a snapshot into a serving dynamic index.

        Dynamic snapshots restore the delta buffer and tombstone sets;
        static snapshots — format v1, or ones written by ``save_index`` —
        load as a compacted index with an empty delta (the upgrade path).
        ``options`` are forwarded to the constructor.  To replay a
        write-ahead log on top, use :meth:`recover`.
        """
        from repro.index.persistence import load_dynamic

        return load_dynamic(path, mmap=mmap, **options)

    @classmethod
    def recover(cls, snapshot_path, wal_dir, *, mmap: bool = True,
                verify: str = "lazy", wal_fsync: str = "batch",
                **options) -> "DynamicIndex":
        """Restore a crashed session: snapshot + WAL replay, bit-identically.

        Loads the snapshot, replays every log record it does not cover
        (``lsn > wal.applied_lsn`` from the manifest) in order — inserts
        append the exact logged rows, deletes re-tombstone, compact records
        re-run the deterministic rebuild — and re-attaches the log for
        future writes.  The result equals the index the crashed process
        held at its last acked write: same rows, same ids, same answers.
        A torn tail record (a crash mid-append; never acked) is truncated;
        a checksum-corrupt record raises a typed
        :class:`~repro.core.errors.CorruptionError`.
        """
        from repro.index.persistence import load_dynamic, read_manifest

        manifest = read_manifest(snapshot_path)
        applied = int((manifest.get("wal") or {}).get("applied_lsn", 0))
        dynamic = load_dynamic(snapshot_path, mmap=mmap, manifest=manifest,
                               verify=verify, **options)
        for record in _read_wal_records(wal_dir, after_lsn=applied):
            dynamic._apply_wal_record(record)
        # Attach for future writes only after replay: the constructor path
        # (expect_empty) refuses un-replayed records for exactly this reason.
        dynamic._wal = WriteAheadLog(wal_dir, fsync=wal_fsync)
        return dynamic

    def _apply_wal_record(self, record) -> None:
        """Re-apply one decoded log record during recovery (never re-logged)."""
        if record.op == OP_INSERT:
            self._insert_normalized(record.values, log=False)
        elif record.op == OP_DELETE:
            self._delete_row(int(record.row), log=False)
        elif record.op == OP_COMPACT:
            with self._write_lock:
                self._compact_locked(log=False)
        else:  # pragma: no cover - read_records rejects unknown ops first
            raise IndexError_(f"cannot replay WAL record with op {record.op}")

    def close(self) -> None:
        """Release the write-ahead log's file handle (flushing it first)."""
        if self._wal is not None:
            self._wal.close()

    @classmethod
    def _restore(cls, tree: TreeIndex, index_type: str, *,
                 base_alive: np.ndarray, delta_values: np.ndarray,
                 delta_lower: np.ndarray, delta_upper: np.ndarray,
                 delta_alive: np.ndarray, **options) -> "DynamicIndex":
        """Rebuild a dynamic index from snapshot state (see persistence)."""
        dynamic = cls(tree, **options)
        state = dynamic._state
        state.index_type = index_type
        if base_alive.shape[0] != state.num_base:
            raise IndexError_(
                f"snapshot tombstones cover {base_alive.shape[0]} base rows, "
                f"but the tree holds {state.num_base}"
            )
        state.base_alive = np.ascontiguousarray(base_alive, dtype=bool)
        state.base_dead = int((~state.base_alive).sum())
        if delta_values.shape[0]:
            state.delta_values.append(delta_values)
            state.delta_lower.append(delta_lower)
            state.delta_upper.append(delta_upper)
            state.delta_alive.append(np.ascontiguousarray(delta_alive,
                                                          dtype=bool))
            state.delta_dead = int((~state.delta_alive.view).sum())
        return dynamic
