"""Exact GEMINI similarity search over a :class:`~repro.index.tree.TreeIndex`.

The algorithm follows Section IV-C of the paper:

1. *Approximate search*: descend the tree along the query's own word to reach
   one leaf and compute the real distances to the series stored there.  The
   best of these is the initial best-so-far (BSF) answer.
2. *Pruning traversal*: walk every root subtree; any node whose lower-bound
   distance to the query exceeds the BSF is pruned together with its whole
   subtree; surviving leaves are placed in a priority queue keyed by their
   lower-bound distance.
3. *Refinement*: pop leaves in increasing lower-bound order.  As soon as the
   popped lower bound exceeds the BSF the search stops (everything left in the
   queue is worse).  Otherwise the per-series lower bounds inside the leaf are
   evaluated with the vectorized SIMD-style kernel; only series that survive
   that filter have their true Euclidean distance computed (with early
   abandoning against the BSF).

k-NN uses the same machinery with the BSF being the k-th best distance found
so far.  The searcher records per-leaf processing costs so the virtual-core
simulator can estimate multi-worker query times.

``knn(..., num_workers=n)`` answers a *single* query with MESSI-style
intra-query parallelism: after the approximate descent seeds the BSF, the
lower-bound-ordered surviving-leaf queue is drained by ``n`` threads — each
runs the same batched lower-bound + blocked ED refinement kernels (NumPy
releases the GIL inside them) against one shared, thread-safe k-NN heap
(:class:`BestSoFar`) whose threshold is re-read between blocks, so one
worker's tightened best-so-far prunes every other worker's remaining work.
Because the bounded heap retains the k smallest offers under the total order
(distance², row) regardless of offer order, and this engine refines a given
row with the same kernel at every worker count, the answers are
**bit-identical for every worker count**.  ``num_workers=None`` falls back to the ``REPRO_NUM_WORKERS``
process default, like index construction.

Whole query workloads should go through :meth:`ExactSearcher.knn_batch`,
which delegates to the batched multi-query engine
(:class:`~repro.index.batch_search.BatchSearcher`): same exact answers,
several times the throughput once a few dozen queries are batched together.
When the batch is smaller than the worker pool, that engine falls back to the
intra-query parallelism of this module so no core idles.

Both engines optionally fuse a *dynamic overlay* into the refinement loop: a
:class:`~repro.index.dynamic.DynamicIndex` layers a write path (buffered
inserts, tombstone deletes) over the read-optimized tree and passes the
engines a ``delta_source`` callable returning the current
:class:`~repro.index.dynamic.DeltaView`.  Delta series are lower-bounded with
the same :func:`~repro.core.simd.batch_lower_bound` kernel as leaf series (so
pruning applies to them too) and refined as one extra pseudo-leaf — right
after the seed leaf sequentially, or as just another work item on the shared
queue when workers drain it in parallel; tombstoned rows have their lower
bounds forced to ``+inf``, so they are never refined and never enter the
answer heap.  Answers over *tree ∪ delta − tombstones* stay bit-identical to
a scratch rebuild on the surviving rows.
"""

from __future__ import annotations

import heapq
import numbers
import operator
import threading
import time
from dataclasses import dataclass, field, fields

import numpy as np

from repro.core.distance import (
    squared_euclidean_batch,
    squared_euclidean_batch_abandon,
)
from repro.core.errors import InvalidParameterError, SearchError, ValidationError
from repro.core.normalization import znormalize
from repro.core.simd import batch_lower_bound
from repro.index.node import LeafNode
from repro.index.tree import TreeIndex
from repro.parallel.pool import WorkerPool, resolve_num_workers


@dataclass
class SearchStats:
    """Work counters and per-work-item timings of one exact query.

    ``num_workers`` records how many threads served the query.  With more
    than one worker the counters are the deterministic merge (worker order,
    see :func:`repro.index.stats.merge_search_stats`) of the per-worker
    reports; ``leaf_times`` then holds per-work-item *CPU* times across all
    workers, so :attr:`refinement_time` measures aggregate refinement work,
    not elapsed wall clock.
    """

    num_series: int = 0
    num_workers: int = 1
    leaves_visited: int = 0
    leaves_pruned_in_queue: int = 0
    nodes_pruned: int = 0
    series_lower_bounds: int = 0
    exact_distances: int = 0
    approximate_time: float = 0.0
    traversal_time: float = 0.0
    leaf_times: list[float] = field(default_factory=list)
    #: True when a ``timeout_s`` budget expired before refinement finished:
    #: the answer is the best-so-far at expiry (every reported distance is a
    #: true distance, but a closer unrefined series may exist).
    timed_out: bool = False
    #: Scatter-gather accounting of a sharded query (0/0 on unsharded
    #: engines): how many shards the query was scattered over, and how many
    #: contributed their candidates to the gather.
    shards_total: int = 0
    shards_answered: int = 0
    #: True when at least one shard was excluded (quarantined, failed, or out
    #: of deadline): every reported distance is still exact, but the answer
    #: covers only the surviving shards' rows.
    partial: bool = False
    #: Wall-clock seconds of the whole engine call, set at the public entry
    #: points (:meth:`ExactSearcher.knn`, the batched engine, the sharded
    #: scatter) — the caller-observed latency, as opposed to the aggregate
    #: per-work-item CPU time of :attr:`total_time`.  For a batched call
    #: every result carries the batch's wall time (the latency each caller
    #: actually waited).  Merging per-worker stats keeps the target's value
    #: (wall time is a whole-query property, like the sequential phases);
    #: summarizing across queries sums it.
    wall_time_s: float = 0.0

    @property
    def coverage(self) -> float:
        """Answered fraction of the scatter (1.0 for unsharded queries)."""
        if self.shards_total == 0:
            return 1.0
        return self.shards_answered / self.shards_total

    @property
    def refinement_time(self) -> float:
        return float(sum(self.leaf_times))

    @property
    def total_time(self) -> float:
        return self.approximate_time + self.traversal_time + self.refinement_time

    @property
    def pruning_ratio(self) -> float:
        """Fraction of indexed series whose exact distance was never computed."""
        if self.num_series == 0:
            return 0.0
        return 1.0 - self.exact_distances / self.num_series


@dataclass
class SearchResult:
    """Exact k-NN answer: indices, distances (ascending) and work statistics."""

    indices: np.ndarray
    distances: np.ndarray
    stats: SearchStats

    @property
    def nearest_index(self) -> int:
        return int(self.indices[0])

    @property
    def nearest_distance(self) -> float:
        return float(self.distances[0])


def validated_query(query: np.ndarray, expected_length: int) -> np.ndarray:
    """Convert and validate one query series at the API boundary.

    Raises a typed :class:`~repro.core.errors.ValidationError` (an
    :class:`~repro.core.errors.IndexError_` *and* a
    :class:`~repro.core.errors.SearchError`) on non-numeric input, wrong
    shape/length, or NaN/infinite values — never a numpy error downstream or
    a silently garbage distance.
    """
    try:
        query = np.asarray(query, dtype=np.float64)
    except (TypeError, ValueError) as error:
        raise ValidationError(f"query is not numeric: {error}") from None
    if query.ndim != 1 or query.shape[0] != expected_length:
        raise ValidationError(
            f"query must be a series of length {expected_length}, "
            f"got shape {query.shape}"
        )
    if not np.isfinite(query).all():
        raise ValidationError("query contains NaN or infinite values")
    return query


def validated_queries(queries: np.ndarray, expected_length: int) -> np.ndarray:
    """Convert and validate a query batch (one series per row).

    The batched counterpart of :func:`validated_query`, shared by every
    ``knn_batch`` entry point: one 1-D series is a batch of one, an empty
    ``(0, l)`` batch is valid, and malformed input raises the same typed
    :class:`~repro.core.errors.ValidationError`.
    """
    try:
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    except (TypeError, ValueError) as error:
        raise ValidationError(f"queries are not numeric: {error}") from None
    if queries.ndim != 2 or queries.shape[1] != expected_length:
        raise ValidationError(
            f"queries must be rows of length {expected_length}, "
            f"got shape {queries.shape}"
        )
    if not np.isfinite(queries).all():
        raise ValidationError("queries contain NaN or infinite values")
    return queries


def validated_count(value, name: str = "k") -> int:
    """Validate an integer count parameter (``k``, refinement budgets) at the
    API boundary.

    Raises a typed :class:`~repro.core.errors.ValidationError` on
    non-integral values (``"3"``, ``2.5``) — never a bare ``TypeError`` from
    a downstream comparison — and a :class:`~repro.core.errors.SearchError`
    on counts below one, the established contract of the search entry points.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(
            f"{name} must be an integer, got {value!r} of type "
            f"{type(value).__name__}"
        ) from None
    if value < 1:
        raise SearchError(f"{name} must be >= 1, got {value}")
    return value


def resolve_deadline(timeout_s: "float | None") -> "float | None":
    """Turn an optional per-call time budget into a monotonic deadline.

    Non-numeric budgets raise a typed
    :class:`~repro.core.errors.ValidationError`, non-positive (or NaN) ones
    the established :class:`~repro.core.errors.InvalidParameterError` — the
    entry points never leak a bare ``TypeError`` from the comparison below.
    """
    if timeout_s is None:
        return None
    if isinstance(timeout_s, bool) or not isinstance(timeout_s, numbers.Real):
        raise ValidationError(
            f"timeout_s must be a number of seconds, got {timeout_s!r} of "
            f"type {type(timeout_s).__name__}"
        )
    budget = float(timeout_s)
    if not budget > 0:
        raise InvalidParameterError(
            f"timeout_s must be positive, got {timeout_s}")
    return time.monotonic() + budget


def deadline_expired(deadline: "float | None") -> bool:
    """Whether a search budget has run out (``None`` = no budget)."""
    return deadline is not None and time.monotonic() >= deadline


def canonical_squared(query: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Canonical squared distances of candidate ``values`` to ``query``.

    One elementwise pass per row: a row's result is independent of which
    other rows sit in the matrix, which is what lets a shard, the sharded
    gather and an unsharded index report bit-identical distances.
    """
    difference = values - query
    return np.einsum("ij,ij->i", difference, difference)


def ranked_result(query: np.ndarray, rows: np.ndarray, values: np.ndarray,
                  stats: SearchStats, k: "int | None" = None
                  ) -> SearchResult:
    """The ``k`` best of candidate ``rows`` (ascending) and their ``values``.

    The one canonical finalization: distances are recomputed with
    :func:`canonical_squared` and answers sorted by (distance, row), the
    same tie order as the refinement heap.  :func:`finalize_result` calls it
    on one index's winners, the sharded gather on the union of the shards'
    candidates — so selecting the top ``k`` of the union *is* the unsharded
    finalization.
    """
    squared = canonical_squared(query, values)
    order = np.lexsort((rows, squared))[:k]
    return SearchResult(indices=rows[order], distances=np.sqrt(squared[order]),
                        stats=stats)


def finalize_result(query: np.ndarray, values: np.ndarray, rows: np.ndarray,
                    stats: SearchStats, delta=None) -> SearchResult:
    """Package the winning rows of a search into a :class:`SearchResult`.

    The reported distances come from one final elementwise recomputation over
    the winning rows in ascending-row order.  Refinement-time distance values
    can drift by an ulp depending on how candidates were blocked into BLAS
    kernel calls, so recomputing on a canonical row order makes per-query and
    batched searches return bit-identical results.

    ``delta`` (a :class:`~repro.index.dynamic.DeltaView`) resolves rows at or
    beyond the base collection to buffered delta series; the row-wise
    recomputation is unchanged, so dynamic answers stay bit-identical to a
    scratch rebuild on the union.
    """
    rows = np.sort(np.asarray(rows, dtype=np.int64))
    winners = values[rows] if delta is None else delta.gather(values, rows)
    return ranked_result(query, rows, winners, stats)


class BestSoFar:
    """The best-so-far of one search: a bounded, thread-safe k-NN heap.

    Keeps the k smallest offers under the total order (distance², row): on
    tied distances the smaller row wins.  A total order makes the retained
    set independent of the order candidates were offered in, which is what
    lets the batched engine (whose refinement schedule differs) and the
    intra-query parallel engine (whose offer interleaving depends on thread
    timing) select the same k answers.

    Offers serialize on a mutex; the pruning threshold is published as a
    plain attribute that workers read lock-free (an atomic attribute load
    under the GIL; a stale value is merely a looser bound, and the threshold
    only ever tightens, so pruning against it stays conservative) and re-read
    between refinement blocks — which is how one worker's tightened
    best-so-far prunes every other worker's remaining work.

    ``floor`` is a frozen external bound that caps only the published
    threshold: searches prune against it, but offers are still retained
    against the heap's own k-th best (refinement-time distances drift by an
    ulp from the canonical ones a floor is computed from, so a candidate
    *at* the floor — a cross-shard tie — must not be dropped here).  A shard
    worker searches under the cluster coordinator's cross-shard threshold
    this way — admissible because the live bound only tightens afterwards,
    so the forwarded value is merely looser and no global winner is lost.

    ``parent`` couples this heap to a live cross-shard best-so-far: the
    threshold is the tighter of the two, and every offered block is forwarded
    to the parent with its rows translated by ``row_map`` (a callable from
    this heap's rows to the parent's), so the parent's tie order is the
    *global* (distance², row) order.  Pruning against the parent is
    admissible because a true global top-k candidate has ``bound <= distance
    <= global k-th <= published threshold`` and the tie-tolerant
    ``_admissible`` filter keeps candidates *at* the threshold.  ``offered``
    records that this heap forwarded anything at all — what the sharded
    gather needs to tell whether a failed shard tightened the shared bound.
    """

    def __init__(self, k: int, floor: float = np.inf,
                 parent: "BestSoFar | None" = None, row_map=None) -> None:
        self.k = k
        self.offered = False
        self._heap: list[tuple[float, int]] = []  # (-distance², -row)
        self._lock = threading.Lock()
        self._floor = float(floor)
        self._kth = np.inf  # this heap's own k-th best: what offers must beat
        self._threshold = self._floor  # published: min(floor, k-th best)
        self._parent = parent
        self._row_map = row_map

    @property
    def threshold(self) -> float:
        """The k-th best squared distance, capped by the floor and the parent."""
        if self._parent is None:
            return self._threshold
        return min(self._threshold, self._parent.threshold)

    def offer_block(self, squared: np.ndarray, rows: np.ndarray) -> None:
        """Offer a whole candidate block at once.

        The vectorized comparison against this heap's own k-th best drops
        candidates that cannot displace it before the per-row loop runs; a
        candidate at exactly that value still passes (it can win the
        smaller-row tie-break under the total order), so the retained set is
        unchanged — offers above it were no-ops anyway.  Survivors are
        re-checked under the lock against the heap's (possibly tighter) top.
        """
        self.offered = True
        if self._parent is not None:
            self._parent.offer_block(
                squared, rows if self._row_map is None else self._row_map(rows))
        surviving = squared <= self._kth
        if not surviving.any():
            return
        heap, k = self._heap, self.k
        with self._lock:
            for distance, row in zip(squared[surviving].tolist(),
                                     rows[surviving].tolist()):
                entry = (-distance, -row)
                if len(heap) < k:
                    heapq.heappush(heap, entry)
                elif entry > heap[0]:
                    heapq.heapreplace(heap, entry)
            if len(heap) == k:
                self._kth = -heap[0][0]
                self._threshold = min(self._floor, self._kth)

    def sorted_items(self) -> list[tuple[float, int]]:
        """The retained (distance², row) pairs, ascending."""
        with self._lock:
            return sorted((-negative_squared, -negative_row)
                          for negative_squared, negative_row in self._heap)


def stats_to_payload(stats: SearchStats) -> dict:
    """JSON-ready dict of one :class:`SearchStats` (the shard RPC wire form).

    Derived from the dataclass fields, so a field added later travels
    without further edits.  Round-trips exactly through
    :func:`stats_from_payload`: counters are ints, timings floats (JSON
    preserves float64 bit patterns via shortest round-trip repr),
    ``leaf_times`` the full per-work-item list — so merged cluster stats
    equal the in-process scatter's merged stats.
    """
    return {spec.name: _wire_value(spec, getattr(stats, spec.name))
            for spec in fields(SearchStats)}


def stats_from_payload(payload: dict) -> SearchStats:
    """Rebuild a :class:`SearchStats` from :func:`stats_to_payload` output."""
    return SearchStats(**{spec.name: _wire_value(spec, payload[spec.name])
                          for spec in fields(SearchStats)
                          if spec.name in payload})


def _wire_value(spec, value):
    """Coerce one stats field to its declared plain-Python type."""
    if isinstance(value, (list, tuple)):
        return [float(item) for item in value]
    return type(spec.default)(value)


#: Series length at or above which exact refinement switches to the blocked
#: early-abandoning ED kernel.  For short series the expanded-form BLAS
#: kernel wins outright; for long series most candidates blow past the BSF
#: within the first column chunks and abandoning skips the tail.  The choice
#: depends only on the build, never on the schedule, so every engine and
#: worker count refines a given row with the same kernel and sees the same
#: value (part of the bit-identity contract).
EARLY_ABANDON_MIN_LENGTH = 1024

#: Average leaf size below which both engines filter-and-refine over the flat
#: per-series directory instead of walking leaves (see
#: :class:`ExactSearcher`'s ``flat_refinement_threshold``).
FLAT_REFINEMENT_THRESHOLD = 4.0


class ExactSearcher:
    """Answers exact 1-NN and k-NN queries over a built :class:`TreeIndex`.

    Parameters
    ----------
    index:
        A built tree index.
    normalize_queries:
        z-normalize incoming queries (the paper's setting).
    flat_refinement_threshold:
        When the average leaf size falls below this value the tree has
        degenerated into (near-)singleton leaves — a scale artefact of small
        collections where the symbolic words of almost every series differ in
        some top bit — and provides no grouping at all; the searcher then
        filters and refines over the flat per-series directory instead of
        walking leaves one by one.  Both paths compute the same lower bounds
        and return identical exact answers.  The default
        (:data:`FLAT_REFINEMENT_THRESHOLD`) and an explicit value alike are
        shared with the batched engine behind :meth:`knn_batch`.
    delta_source:
        Optional zero-argument callable returning the current
        :class:`~repro.index.dynamic.DeltaView` of a dynamic index (or
        ``None`` when there are no pending writes).  When set, every query
        answers over *tree ∪ delta − tombstones*: the delta is refined as an
        extra pseudo-leaf and tombstoned rows are masked out of every
        refinement step.
    early_abandon_length:
        Series length at which refinement switches to the blocked
        early-abandoning ED kernel
        (:func:`~repro.core.distance.squared_euclidean_batch_abandon`);
        ``None`` keeps the default :data:`EARLY_ABANDON_MIN_LENGTH`.
    """

    def __init__(self, index: TreeIndex, normalize_queries: bool = True,
                 flat_refinement_threshold: float = FLAT_REFINEMENT_THRESHOLD,
                 delta_source=None,
                 early_abandon_length: int | None = None) -> None:
        if not index.is_built:
            raise SearchError("the index must be built before searching")
        self.index = index
        self.normalize_queries = normalize_queries
        self._delta_source = delta_source
        self.flat_refinement_threshold = flat_refinement_threshold
        self.early_abandon_length = (EARLY_ABANDON_MIN_LENGTH
                                     if early_abandon_length is None
                                     else early_abandon_length)
        self._early_abandon = (
            index.dataset.series_length >= self.early_abandon_length)
        self._batch_searcher = None
        self._intra_pools: dict[int, WorkerPool] = {}
        self._intra_pools_lock = threading.Lock()
        # Hoisted out of the per-leaf refinement loops: the summarization's
        # bins and lower-bound weights are fixed for a given build, and the
        # chained attribute lookups showed up when profiling refinement
        # rounds over many small leaves.  `_refresh_summarization_cache`
        # re-captures them once per query in case the tree was rebuilt in
        # place (fit assigns fresh bins/weights objects).
        self._bins = index.summarization.bins
        self._weights = index.summarization.weights

    def _refresh_summarization_cache(self) -> None:
        summarization = self.index.summarization
        if summarization.bins is not self._bins:
            self._bins = summarization.bins
        if summarization.weights is not self._weights:
            self._weights = summarization.weights

    def _worker_pool(self, num_workers: int) -> WorkerPool:
        """The searcher's persistent intra-query pool for one worker count.

        Persistence matters here: one parallel query's whole refinement phase
        can be shorter than starting threads, so each pool keeps its executor
        alive between queries.  Pools are cached per worker count so callers
        that alternate counts (benchmarks, mixed workloads) never churn
        executors, and creation is locked so concurrent queries on one
        searcher (the dynamic index serves reads lock-free) cannot race two
        pools into existence.
        """
        pool = self._intra_pools.get(num_workers)
        if pool is None:
            with self._intra_pools_lock:
                pool = self._intra_pools.get(num_workers)
                if pool is None:
                    pool = WorkerPool(num_workers, persistent=True)
                    self._intra_pools[num_workers] = pool
        return pool

    # ------------------------------------------------------------- public

    def knn(self, query: np.ndarray, k: int = 1,
            num_workers: "int | None" = None,
            timeout_s: "float | None" = None,
            shared_best: "BestSoFar | None" = None,
            trace=None) -> SearchResult:
        """Exact k nearest neighbours of ``query`` under the (z-)ED.

        ``num_workers`` threads drain the query's own surviving-leaf queue
        against a shared best-so-far (``None`` = the ``REPRO_NUM_WORKERS``
        process default), cutting single-query latency on multi-core
        machines; the answer is bit-identical for every worker count.

        ``timeout_s`` bounds the query's wall time: when the budget expires
        mid-refinement the current best-so-far is finalized and returned with
        ``stats.timed_out=True`` (every reported distance is exact; the set
        may miss a closer unrefined series) instead of running to completion.

        ``shared_best`` is a caller-built :class:`BestSoFar` (capacity at
        least ``k``) to run this search on instead of a fresh one: the
        sharded engine hands each shard a heap whose parent is the same
        global bound, so one shard's tightened threshold prunes every other
        shard's remaining work — PR 5's broadcast, lifted across shards —
        and a cluster worker one floored at the coordinator's threshold.

        ``trace`` (a :class:`~repro.obs.trace.Trace`) records the query's
        phase spans — summarize, approximate, delta, traversal, refinement,
        finalize — purely observationally: tracing never changes which rows
        are refined or offered, so answers are bit-identical with tracing on
        or off.
        """
        start = time.perf_counter()
        k = validated_count(k)
        deadline = resolve_deadline(timeout_s)
        num_workers = resolve_num_workers(num_workers)
        delta = self._delta_source() if self._delta_source is not None else None
        result = self._knn_under_delta(query, k, num_workers, delta,
                                       deadline=deadline,
                                       shared_best=shared_best, trace=trace)
        result.stats.wall_time_s = time.perf_counter() - start
        return result

    def _knn_under_delta(self, query: np.ndarray, k: int, num_workers: int,
                         delta, deadline: "float | None" = None,
                         shared_best: "BestSoFar | None" = None,
                         trace=None) -> SearchResult:
        """The engine behind :meth:`knn`, with the dynamic overlay pinned.

        The batched engine's intra-query fallback calls this directly so a
        whole batch answers over one consistent delta snapshot.
        """
        setup_start = time.perf_counter() if trace is not None else 0.0
        available = self.index.num_series if delta is None else delta.num_surviving
        if k > available:
            raise SearchError(
                f"k={k} exceeds the number of "
                f"{'indexed' if delta is None else 'surviving'} series ({available})"
            )
        query = validated_query(query, self.index.dataset.series_length)
        if self.normalize_queries:
            query = znormalize(query)

        self._refresh_summarization_cache()
        summarization = self.index.summarization
        query_summary = summarization.transform(query)
        query_word = self._bins.symbols(query_summary)

        stats = SearchStats(num_series=available, num_workers=num_workers)
        heap = shared_best if shared_best is not None else BestSoFar(k)
        if trace is not None:
            # Validation, z-normalization and the SFA transform of the query.
            trace.add_phase("summarize", time.perf_counter() - setup_start)

        if self.index.average_leaf_size < self.flat_refinement_threshold:
            # Degenerate tree (typical at reproduction scale when the selected
            # summary components carry little signal and the root fan-out
            # shatters the data into near-singleton leaves): skip the per-leaf
            # machinery and filter-and-refine over the flat series directory.
            flat_start = time.perf_counter() if trace is not None else 0.0
            if num_workers > 1:
                delta_time = self._flat_search_parallel(
                    query, query_summary, heap, stats, delta, num_workers,
                    deadline=deadline)
            else:
                delta_time = self._flat_search(query, query_summary, heap,
                                               stats, delta=delta,
                                               deadline=deadline)
            if trace is not None:
                flat_wall = time.perf_counter() - flat_start
                # The flat path computes all per-series bounds in one call
                # (recorded as traversal; the pending delta's share is its
                # own phase) and refines the survivors; split the phase
                # accordingly so the taxonomy matches the tree path.
                directory_time = min(stats.traversal_time, flat_wall)
                trace.add_phase(
                    "traversal", directory_time - delta_time,
                    series_lower_bounds=stats.series_lower_bounds)
                if delta is not None:
                    trace.add_phase("delta", delta_time,
                                    delta_rows=int(delta.rows.size))
                trace.add_phase(
                    "refinement", flat_wall - directory_time,
                    exact_distances=stats.exact_distances)
        else:
            start = time.perf_counter()
            seed_leaf = self.index.approximate_leaf(query_word, query_summary)
            if seed_leaf is not None:
                # The seed refinement ignores the deadline: without at least
                # one refined leaf there is no best-so-far to finalize.
                self._refine_leaves(query, query_summary, [seed_leaf], heap,
                                    stats, record_time=False, delta=delta)
            stats.approximate_time = time.perf_counter() - start
            if trace is not None:
                trace.add_phase("approximate", stats.approximate_time,
                                seeded=int(seed_leaf is not None))

            if num_workers > 1:
                start = time.perf_counter()
                ordered_leaves, ordered_bounds = self._collect_leaves(
                    query_summary, heap.threshold, stats, skip_leaf=seed_leaf)
                stats.traversal_time = time.perf_counter() - start
                if trace is not None:
                    trace.add_phase("traversal", stats.traversal_time,
                                    leaves_queued=len(ordered_leaves),
                                    nodes_pruned=stats.nodes_pruned)
                    refine_start = time.perf_counter()
                self._drain_queue_parallel(query, query_summary, ordered_leaves,
                                           ordered_bounds, heap, stats, delta,
                                           num_workers, deadline=deadline)
                if trace is not None:
                    # Wall time around the parallel drain; the merged
                    # per-worker CPU time lands in a detail span below.
                    trace.add_phase("refinement",
                                    time.perf_counter() - refine_start,
                                    workers=num_workers)
                    trace.add_detail("refinement_cpu", stats.refinement_time,
                                     leaves_visited=stats.leaves_visited)
            else:
                # The delta is one extra pseudo-leaf, refined right after the
                # seed so its series help tighten the BSF before traversal
                # prunes.
                if delta is not None:
                    delta_start = time.perf_counter() if trace is not None else 0.0
                    self._refine_delta(query, query_summary, heap, stats, delta,
                                       deadline=deadline)
                    if trace is not None:
                        trace.add_phase("delta",
                                        time.perf_counter() - delta_start,
                                        delta_rows=int(delta.rows.size))

                start = time.perf_counter()
                ordered_leaves, ordered_bounds = self._collect_leaves(
                    query_summary, heap.threshold, stats, skip_leaf=seed_leaf)
                stats.traversal_time = time.perf_counter() - start
                if trace is not None:
                    trace.add_phase("traversal", stats.traversal_time,
                                    leaves_queued=len(ordered_leaves),
                                    nodes_pruned=stats.nodes_pruned)
                    refine_start = time.perf_counter()

                self._process_queue(query, query_summary, ordered_leaves,
                                    ordered_bounds, heap, stats, delta=delta,
                                    deadline=deadline)
                if trace is not None:
                    trace.add_phase("refinement",
                                    time.perf_counter() - refine_start,
                                    leaves_visited=stats.leaves_visited)

        final_start = time.perf_counter() if trace is not None else 0.0
        rows = np.array([index for _, index in heap.sorted_items()], dtype=np.int64)
        result = finalize_result(query, self.index.dataset.values, rows, stats,
                                 delta=delta)
        if trace is not None:
            trace.add_phase("finalize", time.perf_counter() - final_start,
                            answers=int(rows.size))
            trace.add_detail("heap", offers=stats.exact_distances,
                             series_lower_bounds=stats.series_lower_bounds)
        return result

    def nearest_neighbor(self, query: np.ndarray,
                         num_workers: "int | None" = None,
                         timeout_s: "float | None" = None) -> SearchResult:
        """Exact 1-NN of ``query`` (convenience wrapper around :meth:`knn`).

        ``timeout_s`` bounds the search exactly like :meth:`knn` does: on
        expiry the best-so-far is finalized with ``stats.timed_out=True``.
        """
        return self.knn(query, k=1, num_workers=num_workers,
                        timeout_s=timeout_s)

    def approximate_knn(self, query: np.ndarray, k: int = 1,
                        max_refined_series: int = 256) -> SearchResult:
        """Approximate k-NN: refine only the most promising candidates.

        The paper lists approximate search with SFA as future work; this method
        implements the natural variant: the query descends to its own leaf (the
        same first step as exact search), and then only the
        ``max_refined_series`` candidates with the smallest per-series lower
        bounds are refined with true distances.  The answer is not guaranteed
        to be exact, but the candidates are chosen by the same lower bounds
        that drive exact pruning, so recall is high when the summarization is
        tight.  Increasing ``max_refined_series`` trades time for recall and
        converges to the exact answer at ``max_refined_series >= num_series``.
        """
        wall_start = time.perf_counter()
        k = validated_count(k)
        max_refined_series = validated_count(max_refined_series,
                                             "max_refined_series")
        if max_refined_series < k:
            raise SearchError("max_refined_series must be at least k")
        if self._delta_source is not None and self._delta_source() is not None:
            raise SearchError(
                "approximate_knn does not answer over a pending dynamic delta; "
                "compact() the index first"
            )
        query = validated_query(query, self.index.dataset.series_length)
        if self.normalize_queries:
            query = znormalize(query)

        summarization = self.index.summarization
        query_summary = summarization.transform(query)

        stats = SearchStats(num_series=self.index.num_series)
        heap = BestSoFar(k)

        start = time.perf_counter()
        bounds, rows = self.index.all_series_lower_bounds(query_summary)
        budget = min(max_refined_series, bounds.shape[0])
        candidates = np.argpartition(bounds, budget - 1)[:budget]
        candidates = candidates[np.argsort(bounds[candidates])]
        stats.series_lower_bounds += bounds.shape[0]
        stats.traversal_time = time.perf_counter() - start

        start = time.perf_counter()
        candidate_rows = rows[candidates]
        squared = squared_euclidean_batch(query, self.index.dataset.values[candidate_rows])
        stats.exact_distances += candidate_rows.shape[0]
        heap.offer_block(squared, candidate_rows)
        stats.leaf_times.append(time.perf_counter() - start)

        rows_ = np.array([index for _, index in heap.sorted_items()], dtype=np.int64)
        result = finalize_result(query, self.index.dataset.values, rows_, stats)
        result.stats.wall_time_s = time.perf_counter() - wall_start
        return result

    def knn_batch(self, queries: np.ndarray, k: int = 1,
                  num_workers: "int | None" = None,
                  timeout_s: "float | None" = None) -> list[SearchResult]:
        """Exact k-NN of a batch of queries (one per row), answered together.

        Delegates to the :class:`~repro.index.batch_search.BatchSearcher`,
        which vectorizes lower-bound and distance kernels across the whole
        workload instead of looping over :meth:`knn`; the answers are the same
        exact k-NN sets either way.  ``num_workers > 1`` shards the batch over
        a thread pool (the underlying BLAS kernels release the GIL), falling
        back to intra-query workers when the batch is smaller than the pool;
        ``None`` means the ``REPRO_NUM_WORKERS`` process default.
        """
        from repro.index.batch_search import BatchSearcher

        if self._batch_searcher is None:
            # This searcher (and its persistent intra-query pool) doubles as
            # the batched engine's small-batch fallback engine.
            self._batch_searcher = BatchSearcher(
                self.index, normalize_queries=self.normalize_queries,
                flat_refinement_threshold=self.flat_refinement_threshold,
                delta_source=self._delta_source, intra_searcher=self)
        return self._batch_searcher.knn_batch(queries, k=k,
                                              num_workers=num_workers,
                                              timeout_s=timeout_s)

    # ------------------------------------------------------ flat refinement

    def _flat_directory(self, query_summary: np.ndarray, delta
                        ) -> tuple[np.ndarray, np.ndarray, float]:
        """Per-series lower bounds and global rows of the flat directory.

        A dynamic ``delta`` appends its buffered series as extra directory
        entries (same kernel, global row ids) and masks tombstoned rows —
        base and delta alike — to ``+inf`` so they are never refined.  The
        third value is the seconds spent on the pending delta's entries
        (what a trace reports as the ``delta`` phase).
        """
        bounds, rows = self.index.all_series_lower_bounds(query_summary)
        delta_time = 0.0
        if delta is not None:
            if delta.base_alive is not None:
                # Fresh kernel output per call, so in-place masking is safe.
                bounds[~delta.base_alive[rows]] = np.inf
            if delta.rows.size:
                start = time.perf_counter()
                delta_bounds = batch_lower_bound(query_summary, delta.lower,
                                                 delta.upper, self._weights)
                delta_bounds[~delta.alive] = np.inf
                bounds = np.concatenate([bounds, delta_bounds])
                rows = np.concatenate([rows, delta.rows])
                delta_time = time.perf_counter() - start
        return bounds, rows, delta_time

    def _flat_search(self, query: np.ndarray, query_summary: np.ndarray, heap,
                     stats: SearchStats, delta=None, block_size: int = 128,
                     deadline: "float | None" = None) -> float:
        """Filter-and-refine over the flat per-series directory.

        The per-series lower bounds are computed in one vectorized call and
        the candidates refined through the shared blocked best-so-far loop
        (:meth:`_refine_candidates`) — the same GEMINI logic as the leaf-wise
        path, without per-leaf overhead.  Per-block times are recorded as the
        parallel work items for the virtual-core simulation.  Returns
        :meth:`_flat_directory`'s delta seconds.
        """
        start = time.perf_counter()
        bounds, rows, delta_time = self._flat_directory(query_summary, delta)
        stats.series_lower_bounds += bounds.shape[0]
        stats.traversal_time = time.perf_counter() - start

        self._refine_candidates(query, rows, bounds,
                                self._flat_gather(rows, delta), heap, stats,
                                block_size=block_size, time_blocks=True,
                                deadline=deadline)
        return delta_time

    def _flat_gather(self, rows: np.ndarray, delta):
        """Value gather over flat-directory candidate positions."""
        values = self.index.dataset.values
        if delta is None:
            return lambda block: values[rows[block]]
        return lambda block: delta.gather(values, rows[block])

    def _flat_search_parallel(self, query: np.ndarray, query_summary: np.ndarray,
                              heap: BestSoFar, stats: SearchStats, delta,
                              num_workers: int, block_size: int = 128,
                              deadline: "float | None" = None) -> float:
        """Flat filter-and-refine with the sorted directory drained by workers.

        Same bounds and candidates as :meth:`_flat_search`; the bound-sorted
        directory is cut into fixed blocks which workers claim in
        ascending-bound order, so the earliest blocks tighten the shared
        best-so-far and later blocks are pruned by the threshold re-reads of
        the shared refinement loop — each claimed block goes through the same
        :meth:`_refine_candidates` helper as every other candidate source.
        """
        from repro.index.stats import merge_search_stats

        start = time.perf_counter()
        bounds, rows, delta_time = self._flat_directory(query_summary, delta)
        candidates = np.flatnonzero(bounds < np.inf)
        order = candidates[np.argsort(bounds[candidates])]
        stats.series_lower_bounds += bounds.shape[0]
        stats.traversal_time = time.perf_counter() - start

        gather = self._flat_gather(rows, delta)
        blocks = [order[position:position + block_size]
                  for position in range(0, order.size, block_size)]

        def process(block: np.ndarray, worker_stats: SearchStats) -> None:
            if deadline_expired(deadline):
                worker_stats.timed_out = True
                return
            self._refine_candidates(query, rows[block], bounds[block],
                                    lambda selected: gather(block[selected]),
                                    heap, worker_stats,
                                    block_size=block_size, time_blocks=True,
                                    deadline=deadline)

        merge_search_stats(stats, self._worker_pool(num_workers).map_shared(
            process, blocks, make_state=SearchStats))
        return delta_time

    # -------------------------------------------------------- leaf queueing

    def _collect_leaves(self, query_summary: np.ndarray, best_so_far: float,
                        stats: SearchStats, skip_leaf: LeafNode | None
                        ) -> tuple[list[LeafNode], np.ndarray]:
        """Order every surviving leaf by its lower bound to the query.

        All leaf lower bounds come from one vectorized kernel call over the
        index's leaf directory; surviving leaves are returned sorted by lower
        bound, which plays the role of MESSI's priority queues — drained
        sequentially by :meth:`_process_queue` or by the worker threads of
        :meth:`_drain_queue_parallel`.
        """
        bounds = self.index.leaf_lower_bounds(query_summary)
        surviving = np.flatnonzero(self._admissible(bounds, best_so_far))
        stats.nodes_pruned += len(self.index.leaf_nodes) - surviving.size
        if skip_leaf is not None:
            surviving = surviving[surviving != self.index.leaf_position(skip_leaf)]
        order = surviving[np.argsort(bounds[surviving])]
        leaves = self.index.leaf_nodes
        ordered_leaves = [leaves[position] for position in order]
        return ordered_leaves, bounds[order]

    # ----------------------------------------------------------- refinement

    @staticmethod
    def _admissible(bounds: np.ndarray, threshold: float) -> np.ndarray:
        """Mask of candidates that may still contain an answer.

        A candidate whose lower bound *equals* the threshold is kept: its
        true distance can equal the k-th best exactly, in which case it can
        still win the smaller-row tie-break under the total order.  Keeping
        it is what makes pruning against the live shared threshold
        schedule-independent — a true top-k candidate has
        ``bound <= distance <= final threshold <= current threshold`` and
        therefore can never be dropped, no matter which worker tightened the
        threshold first; with a strict filter, a tie candidate's fate would
        depend on thread timing.  ``+inf`` bounds (masked tombstones) are
        always excluded, even while the threshold is still infinite.
        """
        if np.isfinite(threshold):
            return bounds <= threshold
        return bounds < np.inf

    def _exact_block(self, query: np.ndarray, values: np.ndarray,
                     threshold: float) -> np.ndarray:
        """True squared distances of one refinement block.

        Long series (``early_abandon_length`` and up) use the blocked
        early-abandoning kernel: rows whose partial sum already exceeds the
        best-so-far stop accumulating, and their (already disqualifying)
        partial sums are dropped by the heap's ``<= threshold`` pre-filter.
        The kernel choice depends only on the build, never on the schedule,
        so every worker count sees identical values for a given row.
        """
        if self._early_abandon:
            return squared_euclidean_batch_abandon(query, values, threshold)
        return squared_euclidean_batch(query, values)

    def _refine_candidates(self, query: np.ndarray, rows: np.ndarray,
                           bounds: np.ndarray, gather, heap,
                           stats: SearchStats, block_size: int = 32,
                           time_blocks: bool = False,
                           deadline: "float | None" = None) -> None:
        """Blocked best-so-far refinement shared by every candidate source.

        This is the one copy of the BSF-refresh loop that used to be
        duplicated across the leaf, group and delta refinement paths:
        candidates whose lower bound beats the (possibly shared) heap's
        threshold are visited most-promising-first in blocks; each block
        costs one batched ED kernel call, the threshold is re-read between
        blocks so the remaining tail can be abandoned wholesale (the blend
        of vectorization and early abandoning of Algorithm 3), and only
        survivors of the heap's vectorized ``<= threshold`` pre-filter reach
        the per-row offer loop.

        ``rows`` holds the candidates' global row ids, ``bounds`` their lower
        bounds, and ``gather(block)`` returns the series values of candidate
        positions ``block``.  ``time_blocks`` records one work-item time per
        block (the flat path's virtual-core granularity) instead of leaving
        timing to the caller.  An expired ``deadline`` stops between blocks
        with ``stats.timed_out`` set — the heap keeps every distance already
        refined, which is the best-so-far the timed-out query finalizes.
        """
        threshold = heap.threshold
        candidates = np.flatnonzero(self._admissible(bounds, threshold))
        if candidates.size == 0:
            return
        # Visit the most promising candidates first so the BSF tightens fast.
        candidates = candidates[np.argsort(bounds[candidates])]
        for block_start in range(0, candidates.size, block_size):
            if deadline_expired(deadline):
                stats.timed_out = True
                return
            threshold = heap.threshold
            block = candidates[block_start:block_start + block_size]
            block = block[self._admissible(bounds[block], threshold)]
            if block.size == 0:
                # Candidates are ordered by lower bound, so everything that
                # remains is at least as far away: abandon it wholesale.
                break
            block_timer = time.perf_counter() if time_blocks else 0.0
            squared = self._exact_block(query, gather(block), threshold)
            stats.exact_distances += block.size
            heap.offer_block(squared, rows[block])
            if time_blocks:
                stats.leaf_times.append(time.perf_counter() - block_timer)

    def _process_queue(self, query: np.ndarray, query_summary: np.ndarray,
                       ordered_leaves: list[LeafNode], ordered_bounds: np.ndarray,
                       heap, stats: SearchStats, delta=None,
                       deadline: "float | None" = None) -> None:
        """Visit leaves in lower-bound order and refine them in small groups.

        Consecutive small leaves (frequent at reproduction scale, where root
        fan-out can shatter a dataset into single-series leaves) are refined
        together so that each group costs one batched kernel call rather than
        one call per leaf; the best-so-far is refreshed between groups, which
        preserves MESSI's early-abandoning behaviour.
        """
        position = 0
        total = len(ordered_leaves)
        while position < total:
            if deadline_expired(deadline):
                stats.timed_out = True
                return
            threshold = heap.threshold
            if ordered_bounds[position] > threshold:
                # Leaves are ordered by lower bound, so everything that
                # remains is strictly farther away: abandon it wholesale.  A
                # leaf *at* the threshold is still refined — it can hold a
                # smaller-row tie winner (see ``_admissible``).
                stats.leaves_pruned_in_queue += total - position
                return
            group, position = self._take_group(ordered_leaves, ordered_bounds,
                                               position, threshold)
            self._refine_leaves(query, query_summary, group, heap, stats,
                                record_time=True, delta=delta,
                                deadline=deadline)

    def _take_group(self, ordered_leaves: list[LeafNode],
                    ordered_bounds: np.ndarray, position: int,
                    threshold: float = np.inf
                    ) -> tuple[list[LeafNode], int]:
        """Accumulate consecutive queue leaves into one refinement group.

        The single copy of the grouping rule shared by the sequential queue
        walk (which caps the group at the live ``threshold``) and the
        parallel work-item builder (which passes ``inf`` — its items are
        fixed up front and pruned at claim time instead): consecutive
        leaves are taken until the group reaches the size target, so small
        leaves share one batched kernel call.
        """
        group_target = max(self.index.leaf_size, 64)
        total = len(ordered_leaves)
        group = [ordered_leaves[position]]
        group_size = group[0].size
        position += 1
        while (position < total and group_size < group_target
               and ordered_bounds[position] <= threshold):
            group.append(ordered_leaves[position])
            group_size += ordered_leaves[position].size
            position += 1
        return group, position

    def _drain_queue_parallel(self, query: np.ndarray, query_summary: np.ndarray,
                              ordered_leaves: list[LeafNode],
                              ordered_bounds: np.ndarray, heap: BestSoFar,
                              stats: SearchStats, delta,
                              num_workers: int,
                              deadline: "float | None" = None) -> None:
        """Drain the lower-bound-ordered leaf queue with ``num_workers`` threads.

        The queue is cut into work items up front — static groups of
        consecutive leaves built to the same size target as the sequential
        grouping (but fixed in advance rather than re-grouped under the live
        threshold), with the dynamic delta pseudo-leaf as just another item
        at the head of the queue.  Workers claim items most-promising-first
        and re-check the shared best-so-far at claim time and between
        refinement blocks, so one worker's tightened threshold prunes every
        other worker's remaining work — the MESSI refinement structure the
        paper's Figure 10 core scaling measures.  Per-worker stats are merged
        in worker order (deterministic, independent of completion timing).
        """
        from repro.index.stats import merge_search_stats

        items: list["tuple[float, list[LeafNode]] | None"] = []
        if delta is not None and delta.rows.size:
            items.append(None)  # the delta pseudo-leaf rides the same queue
        position = 0
        while position < len(ordered_leaves):
            min_bound = float(ordered_bounds[position])
            group, position = self._take_group(ordered_leaves, ordered_bounds,
                                               position)
            items.append((min_bound, group))

        def process(item, worker_stats: SearchStats) -> None:
            if deadline_expired(deadline):
                # Checked at claim time: workers stop picking up new items
                # once the budget is gone, and the shared heap keeps every
                # already-refined distance as the finalized best-so-far.
                worker_stats.timed_out = True
                return
            if item is None:
                self._refine_delta(query, query_summary, heap, worker_stats,
                                   delta, deadline=deadline)
                return
            min_bound, group = item
            if min_bound > heap.threshold:
                # Strictly worse than the shared BSF; a group *at* the
                # threshold may hold a smaller-row tie winner and is refined
                # (see ``_admissible`` for why this is what keeps answers
                # schedule-independent).
                worker_stats.leaves_pruned_in_queue += len(group)
                return
            self._refine_leaves(query, query_summary, group, heap, worker_stats,
                                record_time=True, delta=delta,
                                deadline=deadline)

        merge_search_stats(stats, self._worker_pool(num_workers).map_shared(
            process, items, make_state=SearchStats))

    def _refine_leaves(self, query: np.ndarray, query_summary: np.ndarray,
                       leaves: list[LeafNode], heap, stats: SearchStats,
                       record_time: bool, delta=None,
                       deadline: "float | None" = None) -> None:
        """Filter leaves by per-series lower bound, then refine exactly.

        One leaf or a whole group: several consecutive small leaves cost one
        concatenated lower-bound kernel call rather than one per leaf, and
        the surviving candidates go through the shared blocked refinement
        loop (:meth:`_refine_candidates`).
        """
        start = time.perf_counter()
        stats.leaves_visited += len(leaves)
        if len(leaves) == 1:
            leaf = leaves[0]
            lower, upper, indices = leaf.lower, leaf.upper, leaf.indices
        else:
            lower = np.vstack([leaf.lower for leaf in leaves])
            upper = np.vstack([leaf.upper for leaf in leaves])
            indices = np.concatenate([leaf.indices for leaf in leaves])
        bounds = batch_lower_bound(query_summary, lower, upper, self._weights)
        if delta is not None and delta.base_alive is not None:
            bounds[~delta.base_alive[indices]] = np.inf
        stats.series_lower_bounds += indices.shape[0]
        values = self.index.dataset.values
        self._refine_candidates(query, indices, bounds,
                                lambda block: values[indices[block]],
                                heap, stats, deadline=deadline)
        if record_time:
            stats.leaf_times.append(time.perf_counter() - start)

    def _refine_delta(self, query: np.ndarray, query_summary: np.ndarray,
                      heap, stats: SearchStats, delta,
                      deadline: "float | None" = None) -> None:
        """Refine the dynamic delta buffer as one extra pseudo-leaf.

        The buffered series are filtered with the same per-series lower-bound
        kernel as leaf series — GEMINI pruning applies to the delta too — and
        tombstoned entries are masked to ``+inf`` so they are never refined.
        """
        if delta.rows.size == 0:
            return
        start = time.perf_counter()
        bounds = batch_lower_bound(query_summary, delta.lower, delta.upper,
                                   self._weights)
        bounds[~delta.alive] = np.inf
        stats.series_lower_bounds += delta.rows.shape[0]
        self._refine_candidates(query, delta.rows, bounds,
                                lambda block: delta.values[block], heap, stats,
                                deadline=deadline)
        stats.leaf_times.append(time.perf_counter() - start)
