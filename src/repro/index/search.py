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
so far.  The searcher times each phase once per query (approximate search,
traversal, refinement) next to its work counters.

On a tree shattered into near-singleton leaves (:func:`uses_flat_refinement`)
a lower bound costs more than the distance, so both engines take the
*certified* flat path instead (:func:`certified_candidates`): a BLAS estimate
of every distance, a proven error margin, and canonical distances for the few
rows the margin cannot rule out.

Every query runs on one thread: in this Python reproduction the GIL turns the
paper's MESSI-style parallel refinement (threads draining one query's leaf
queue against a shared best-so-far) into a net loss, so the system's
parallelism is :mod:`repro.cluster`'s shard processes instead.

:meth:`ExactSearcher.knn_batch` answers a query workload in one call
(:class:`~repro.index.batch_search.BatchSearcher`).  On the flat path the
whole batch shares one GEMM estimate; on the tree path each query runs this
module's engine, so a batch costs what a loop of :meth:`ExactSearcher.knn`
costs and reports the same answers and work counters.

Both engines optionally fuse a *dynamic overlay* into the refinement loop: a
:class:`~repro.index.dynamic.DynamicIndex` layers a write path (buffered
inserts, tombstone deletes) over the read-optimized tree and passes the
engines a ``delta_source`` callable returning the current
:class:`~repro.index.dynamic.DeltaView`.  Delta series are one extra
pseudo-leaf on the tree path (same lower-bound kernel, refined right after
the seed leaf) and one extra row block on the flat path; tombstoned rows get
``+inf`` bounds, so they never enter the answer heap.  Answers over
*tree ∪ delta − tombstones* stay bit-identical to a scratch rebuild on the
surviving rows.
"""

from __future__ import annotations

import heapq
import numbers
import operator
import time
from dataclasses import dataclass, fields
from typing import NamedTuple

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


@dataclass
class SearchStats:
    """Work counters and phase timings of one exact query.

    The phase times are wall clock.  A sharded query's stats are the
    deterministic merge (shard order, see
    :func:`repro.index.stats.merge_search_stats`) of the per-shard reports.
    """

    num_series: int = 0
    leaves_visited: int = 0
    leaves_pruned_in_queue: int = 0
    nodes_pruned: int = 0
    series_lower_bounds: int = 0
    exact_distances: int = 0
    approximate_time: float = 0.0
    traversal_time: float = 0.0
    #: On the flat path the batched engine charges each query an equal share
    #: of the batch's canonical-distance pass.
    refinement_time: float = 0.0
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
    #: scatter) — the caller-observed latency, as opposed to the summed
    #: phase times of :attr:`total_time`.  For a batched call
    #: every result carries the batch's wall time (the latency each caller
    #: actually waited).  Merging per-shard stats keeps the target's value
    #: (wall time is a whole-query property); summarizing across queries
    #: sums it.
    wall_time_s: float = 0.0

    @property
    def coverage(self) -> float:
        """Answered fraction of the scatter (1.0 for unsharded queries)."""
        if self.shards_total == 0:
            return 1.0
        return self.shards_answered / self.shards_total

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


def _validated_integer(value, what: str) -> int:
    """``operator.index(value)``, or a typed error for non-integral values.

    Booleans are refused too: ``True`` is an ``int`` to Python, but a ``k``
    or a row id of ``true`` is a caller's mistake, not a 1.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(
        f"{what}, got {value!r} of type {type(value).__name__}")


def validated_count(value) -> int:
    """Validate the neighbour count ``k`` at the API boundary.

    Raises a typed :class:`~repro.core.errors.ValidationError` on
    non-integral values (``"3"``, ``2.5``, ``True``) — never a bare
    ``TypeError`` from a downstream comparison — and a
    :class:`~repro.core.errors.SearchError` on counts below one, the
    established contract of the search entry points.
    """
    value = _validated_integer(value, "k must be an integer")
    if value < 1:
        raise SearchError(f"k must be >= 1, got {value}")
    return value


def validated_row(value) -> int:
    """Validate a global row id at the write boundary (``delete``).

    Raises a typed :class:`~repro.core.errors.ValidationError` on
    non-integral values (``"3"``, ``2.5``, ``True``) instead of a bare
    ``TypeError`` or a silent row 1; range checks stay with the index that
    owns the row.
    """
    return _validated_integer(value, "row must be an integer id")


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
    gather and an unsharded index report bit-identical distances.  ``query``
    is one series, or one per row of ``values``.
    """
    difference = values - query
    return np.einsum("ij,ij->i", difference, difference)


def ranked_result(rows: np.ndarray, squared: np.ndarray, stats: SearchStats,
                  k: "int | None" = None) -> SearchResult:
    """The ``k`` best of candidate ``rows`` by their canonical ``squared``.

    The one canonical ranking: answers sorted by (distance², row), the same
    tie order as the refinement heap, over distances computed by
    :func:`canonical_squared`.  :func:`finalize_result` calls it on one
    index's winners, the sharded gather on the union of the distances the
    shards computed for their candidates — per-row distances do not depend
    on the other rows, so selecting the top ``k`` of the union *is* the
    unsharded finalization.
    """
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
    return ranked_result(
        rows, canonical_squared(query, gather_values(values, rows, delta)),
        stats)


def gather_values(values: np.ndarray, rows: np.ndarray, delta=None
                  ) -> np.ndarray:
    """Series values of global ``rows``; ``delta`` resolves buffered rows."""
    return values[rows] if delta is None else delta.gather(values, rows)


class BestSoFar:
    """The best-so-far of one search: a bounded k-NN heap.

    Keeps the k smallest offers under the total order (distance², row): on
    tied distances the smaller row wins.  A total order makes the retained
    set independent of the order and the blocks candidates were offered in,
    which is what lets every engine, and every shard of a scatter, select
    the same k answers as one unsharded search.  ``threshold`` is the k-th
    best squared distance (``inf`` until the heap is full): what the search
    prunes against, and what an offer must not exceed.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self.threshold = np.inf
        self._heap: list[tuple[float, int]] = []  # (-distance², -row)

    def offer_block(self, squared: np.ndarray, rows: np.ndarray) -> None:
        """Offer a whole candidate block at once.

        The vectorized comparison against the threshold drops candidates
        that cannot displace the k-th best before the per-row loop runs; a
        candidate at exactly that value still passes (it can win the
        smaller-row tie-break under the total order), so the retained set is
        unchanged — offers above it were no-ops anyway.
        """
        surviving = squared <= self.threshold
        if not surviving.any():
            return
        heap, k = self._heap, self.k
        for distance, row in zip(squared[surviving].tolist(),
                                 rows[surviving].tolist()):
            entry = (-distance, -row)
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)
        if len(heap) == k:
            self.threshold = -heap[0][0]

    def sorted_items(self) -> list[tuple[float, int]]:
        """The retained (distance², row) pairs, ascending."""
        return sorted((-negative_squared, -negative_row)
                      for negative_squared, negative_row in self._heap)


def stats_to_payload(stats: SearchStats) -> dict:
    """JSON-ready dict of one :class:`SearchStats` (the shard RPC wire form).

    Derived from the dataclass fields, so a field added later travels
    without further edits.  Every value is a scalar, so the payload's size
    does not grow with the work a query did.  Round-trips exactly through
    :func:`stats_from_payload`: counters are ints, timings floats (JSON
    preserves float64 bit patterns via shortest round-trip repr) — so merged
    cluster stats equal the in-process scatter's merged stats.
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
    return type(spec.default)(value)


#: Series length at or above which exact refinement switches to the blocked
#: early-abandoning ED kernel.  For short series the expanded-form BLAS
#: kernel wins outright; for long series most candidates blow past the BSF
#: within the first column chunks and abandoning skips the tail.  The choice
#: depends only on the build, never on the schedule, so every engine refines
#: a given row with the same kernel and sees the same value (part of the
#: bit-identity contract).
EARLY_ABANDON_MIN_LENGTH = 1024

#: Average leaf size below which both engines take the certified flat path
#: instead of walking leaves (see :func:`uses_flat_refinement`).
FLAT_REFINEMENT_THRESHOLD = 4.0

#: The certified flat path's (query, row) pairs per estimate block (blocks
#: that stay in cache; the deadline is checked between them), sampled rows
#: per wanted neighbour for its first limit, and its margin's ``c``
#: (:func:`certified_candidates` proves ``c >= 8``).
_ESTIMATE_BLOCK_CELLS = 2 ** 17
_SAMPLE_PER_COUNT = 64
_MARGIN_FACTOR = 8


def uses_flat_refinement(index: TreeIndex) -> bool:
    """Whether both engines search ``index`` by the certified flat path.

    Below :data:`FLAT_REFINEMENT_THRESHOLD` series per leaf the tree has
    shattered into (near-)singleton leaves — a scale artefact of small
    collections — and groups nothing, so the engines estimate every
    distance with BLAS (:func:`certified_candidates`) instead.  Both paths
    return identical exact answers.  The constant is read on every call, so
    patching it forces one path for both engines.
    """
    return index.average_leaf_size < FLAT_REFINEMENT_THRESHOLD


class CertifiedCandidates(NamedTuple):
    """What :func:`certified_candidates` found for a query block."""

    queries: np.ndarray  # query (block row) of each candidate, ascending
    rows: np.ndarray     # global row of each candidate, ascending per query
    estimated: int       # rows estimated per query, tombstones included
    timed_out: bool      # the deadline cut the estimate short
    delta_time: float    # seconds spent on the pending delta's rows


def certified_bounds(queries: np.ndarray, values: np.ndarray,
                     norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``fl(est − δ)`` and ``fl(est + δ)`` of every (query, row) pair.

    One GEMV (one query) or GEMM over the rows' squared ``norms``;
    :func:`certified_candidates` proves ``lower <= canonical <= upper``.
    """
    sums = np.einsum("ij,ij->i", queries, queries)[:, None] + norms
    # Scaling by -2 is exact, so this is -2·fl(qᵀx) in any summation order.
    upper = (-2.0 * queries) @ values.T
    upper += sums
    sums *= _MARGIN_FACTOR * (queries.shape[1] + 2) * 2.0 ** -53
    lower = upper - sums
    upper += sums
    return lower, upper


def certified_candidates(queries: np.ndarray, values: np.ndarray,
                         norms: np.ndarray, count: int, delta=None,
                         deadline: "float | None" = None
                         ) -> CertifiedCandidates:
    """Rows that may be among the ``count`` nearest of each query row.

    :func:`certified_bounds` estimates ``est = fl(fl(‖q‖² + ‖x‖²) −
    2·fl(qᵀx))`` for every (query ``q``, row ``x``) pair, with margin ``δ =
    fl(c·(n+2)·u · fl(‖q‖² + ‖x‖²))``, ``c`` = :data:`_MARGIN_FACTOR`, ``n``
    the series length and ``u = 2⁻⁵³``.  With ``U`` the ``count``-th
    smallest ``fl(est + δ)`` of a query, its candidates are the live rows
    with ``fl(est − δ) <= U``; the caller computes :func:`canonical_squared`
    on them only.

    *Proof.*  Let ``S = ‖q‖² + ‖x‖²``, ``D = ‖q − x‖²`` (exact), ``r`` the
    :func:`canonical_squared` value, ``γⱼ = ju/(1 − ju)``, and assume
    ``(n+2)u <= 0.01`` and no overflow or underflow (z-normalized series
    have squared norms 0 or ``n``).  (1) A dot product computed in any
    order, with or without FMA, is off by at most ``γₙ |a|ᵀ|b|`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, §3.1), so the norms
    are off by ``γₙ‖q‖²`` and ``γₙ‖x‖²`` and ``qᵀx`` by ``γₙ S/2``; the
    doubling is exact, so before the two outer roundings the estimate is
    off by ``2γₙ S``.  (2) Each operand is at most ``(1+γₙ)S`` in size, so
    the two roundings add at most ``3u(1+u)(1+γₙ)S <= 3.04uS``.  (3) The
    canonical sum has nonnegative terms, each carrying the rounding of a
    difference, a square and ``n − 1`` additions, so ``|r − D| <=
    γₙ₊₂ D <= 2γₙ₊₂ S`` (``D <= 2S``).  Together ``|est − r| <=
    (2γₙ + 2γₙ₊₂ + 3.04u) S <= 4.05(n+2)uS``.  (4) ``c·(n+2)u`` is an
    integer times a power of two, so ``δ >= c(n+2)uS(1−u)²(1−γₙ) >=
    7.9(n+2)uS`` at ``c = 8``, which leaves at least ``3.85(n+2)uS >=
    11.5uS`` of slack; rounding ``est ± δ`` (``|est ± δ| <= 2.2S``) costs
    at most ``2.2uS`` of it.  Hence ``fl(est − δ) <= r <= fl(est + δ)`` for
    every row.  ``c = 4`` covers only the first-order terms.

    *Selection.*  ``count`` rows have ``r <= fl(est + δ) <= U``, so the
    ``count``-th smallest canonical value ``r₍ₖ₎`` is at most ``U``; a row
    tied at or below ``r₍ₖ₎`` has ``fl(est − δ) <= r <= U``.  So ranking
    the candidates by (``r``, row) picks exactly the canonical top
    ``count``, ties included.  ``U`` is found without a selection over every
    row: the ``count``-th smallest upper end ``T`` of a strided sample of
    the first block is at least ``U``, so the ``count`` rows that define
    ``U`` all have ``fl(est − δ) <= T``, and ``U`` is the ``count``-th
    smallest upper end among those survivors.

    Rows go in blocks of :data:`_ESTIMATE_BLOCK_CELLS` pairs, the pending
    ``delta``'s rows last; tombstoned rows get ``est = +inf``.  The deadline
    is checked before every block but the first and after the last; on
    expiry the estimated blocks' candidates come back with ``timed_out``
    set, so a timed-out answer holds the best of at least the first block,
    every distance exact.
    """
    num_queries = queries.shape[0]
    survivors = []   # per block: (query, row, lower, upper) below the limits
    limits = None

    def estimate(block, block_norms, block_rows, alive):
        nonlocal limits
        lower, upper = certified_bounds(queries, block, block_norms)
        if alive is not None:
            lower[:, ~alive] = np.inf
            upper[:, ~alive] = np.inf
        if limits is None:
            sample = upper[:, ::max(1, upper.shape[1] // (_SAMPLE_PER_COUNT
                                                          * count))]
            limits = np.full(num_queries, np.inf)
            if count <= sample.shape[1]:
                limits = np.partition(sample, count - 1, axis=1)[:, count - 1]
            # +inf rows (tombstones) never qualify, even without a limit.
            limits = np.minimum(limits, np.finfo(np.float64).max)
        # 1-D flatnonzero: far cheaper than a 2-D nonzero on few hits.
        query_of, column_of = np.divmod(
            np.flatnonzero(lower <= limits[:, None]), lower.shape[1])
        survivors.append((query_of, block_rows[column_of],
                          lower[query_of, column_of],
                          upper[query_of, column_of]))

    num_base = values.shape[0]
    base_alive = None if delta is None else delta.base_alive
    block_rows = max(1, _ESTIMATE_BLOCK_CELLS // num_queries)
    estimated = 0
    for start in range(0, num_base, block_rows):
        if start and deadline_expired(deadline):
            break
        stop = min(start + block_rows, num_base)
        estimate(values[start:stop], norms[start:stop],
                 np.arange(start, stop),
                 None if base_alive is None else base_alive[start:stop])
        estimated = stop
    delta_time = 0.0
    if delta is not None and delta.rows.size and not deadline_expired(deadline):
        delta_start = time.perf_counter()
        estimate(delta.values,
                 np.einsum("ij,ij->i", delta.values, delta.values),
                 delta.rows, delta.alive)
        estimated += delta.rows.shape[0]
        delta_time = time.perf_counter() - delta_start
    # An expired deadline stays expired, so this also reports a cut above.
    timed_out = deadline_expired(deadline)

    query_of, rows, lower, upper = (np.concatenate(parts)
                                    for parts in zip(*survivors))
    sizes = np.bincount(query_of, minlength=num_queries)
    ranked = upper[np.lexsort((upper, query_of))]
    limits = np.full(num_queries, np.inf)
    filled = sizes >= count
    limits[filled] = ranked[(np.cumsum(sizes) - sizes + count - 1)[filled]]
    keep = np.flatnonzero(lower <= limits[query_of])
    keep = keep[np.argsort(query_of[keep], kind="stable")]
    return CertifiedCandidates(query_of[keep], rows[keep], estimated,
                               timed_out, delta_time)


class ExactSearcher:
    """Answers exact 1-NN and k-NN queries over a built :class:`TreeIndex`.

    Parameters
    ----------
    index:
        A built tree index.  Queries are z-normalized (the paper's setting),
        and :func:`uses_flat_refinement` picks the flat or the tree path.
    delta_source:
        Optional zero-argument callable returning the current
        :class:`~repro.index.dynamic.DeltaView` of a dynamic index (or
        ``None`` when there are no pending writes).  When set, every query
        answers over *tree ∪ delta − tombstones*: the delta is refined as an
        extra pseudo-leaf (estimated as one more row block on the flat path)
        and tombstoned rows are masked out of every refinement step.
    """

    def __init__(self, index: TreeIndex, delta_source=None) -> None:
        if not index.is_built:
            raise SearchError("the index must be built before searching")
        self.index = index
        self._delta_source = delta_source
        self._early_abandon = (
            index.dataset.series_length >= EARLY_ABANDON_MIN_LENGTH)
        self._batch_searcher = None
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

    # ------------------------------------------------------------- public

    def knn(self, query: np.ndarray, k: int = 1,
            timeout_s: "float | None" = None,
            trace=None) -> SearchResult:
        """Exact k nearest neighbours of ``query`` under the (z-)ED.

        ``timeout_s`` bounds the query's wall time: when the budget expires
        mid-refinement the current best-so-far is finalized and returned with
        ``stats.timed_out=True`` (every reported distance is exact; the set
        may miss a closer unrefined series) instead of running to completion.

        ``trace`` (a :class:`~repro.obs.trace.Trace`) records the query's
        phase spans — summarize, approximate, delta, traversal, refinement,
        finalize — purely observationally: tracing never changes which rows
        are refined or offered, so answers are bit-identical with tracing on
        or off.
        """
        start = time.perf_counter()
        k = validated_count(k)
        deadline = resolve_deadline(timeout_s)
        delta = self._delta_source() if self._delta_source is not None else None
        result = self._knn_under_delta(query, k, delta, deadline=deadline,
                                       trace=trace)
        result.stats.wall_time_s = time.perf_counter() - start
        return result

    def _knn_under_delta(self, query: np.ndarray, k: int, delta,
                         deadline: "float | None" = None,
                         trace=None) -> SearchResult:
        """The engine behind :meth:`knn`, with the dynamic overlay pinned."""
        setup_start = time.perf_counter() if trace is not None else 0.0
        available = self.index.num_series if delta is None else delta.num_surviving
        if k > available:
            raise SearchError(
                f"k={k} exceeds the number of "
                f"{'indexed' if delta is None else 'surviving'} series ({available})"
            )
        query = znormalize(
            validated_query(query, self.index.dataset.series_length))
        flat = uses_flat_refinement(self.index)
        if not flat:
            self._refresh_summarization_cache()
            query_summary = self.index.summarization.transform(query)
            query_word = self._bins.symbols(query_summary)

        stats = SearchStats(num_series=available)
        heap = BestSoFar(k)
        if trace is not None:
            # Validation, z-normalization and (tree path) the SFA transform.
            trace.add_phase("summarize", time.perf_counter() - setup_start)

        if flat:
            self._certified_search(query, heap, stats, delta, deadline, trace)
        else:
            start = time.perf_counter()
            seed_leaf = self.index.approximate_leaf(query_word, query_summary)
            if seed_leaf is not None:
                # The seed refinement ignores the deadline: without at least
                # one refined leaf there is no best-so-far to finalize.
                self._refine_leaves(query, query_summary, [seed_leaf], heap,
                                    stats, delta=delta)
            stats.approximate_time = time.perf_counter() - start
            if trace is not None:
                trace.add_phase("approximate", stats.approximate_time,
                                seeded=int(seed_leaf is not None))

            if delta is not None:
                # The delta is one extra pseudo-leaf, refined right after the
                # seed so its series help tighten the BSF before traversal
                # prunes.
                start = time.perf_counter()
                self._refine_delta(query, query_summary, heap, stats, delta,
                                   deadline=deadline)
                delta_time = time.perf_counter() - start
                stats.refinement_time += delta_time
                if trace is not None:
                    trace.add_phase("delta", delta_time,
                                    delta_rows=int(delta.rows.size))

            start = time.perf_counter()
            ordered_leaves, ordered_bounds = self._collect_leaves(
                query_summary, heap.threshold, stats, skip_leaf=seed_leaf)
            stats.traversal_time = time.perf_counter() - start
            if trace is not None:
                trace.add_phase("traversal", stats.traversal_time,
                                leaves_queued=len(ordered_leaves),
                                nodes_pruned=stats.nodes_pruned)

            start = time.perf_counter()
            self._process_queue(query, query_summary, ordered_leaves,
                                ordered_bounds, heap, stats, delta=delta,
                                deadline=deadline)
            refine_time = time.perf_counter() - start
            stats.refinement_time += refine_time
            if trace is not None:
                trace.add_phase("refinement", refine_time,
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
                         timeout_s: "float | None" = None) -> SearchResult:
        """Exact 1-NN of ``query`` (convenience wrapper around :meth:`knn`).

        ``timeout_s`` bounds the search exactly like :meth:`knn` does: on
        expiry the best-so-far is finalized with ``stats.timed_out=True``.
        """
        return self.knn(query, k=1, timeout_s=timeout_s)

    def knn_batch(self, queries: np.ndarray, k: int = 1,
                  timeout_s: "float | None" = None) -> list[SearchResult]:
        """Exact k-NN of a batch of queries (one per row), answered together.

        Delegates to the :class:`~repro.index.batch_search.BatchSearcher`:
        one shared GEMM estimate on the flat path, :meth:`knn`'s engine per
        query on the tree path; the answers are :meth:`knn`'s either way.
        """
        from repro.index.batch_search import BatchSearcher

        if self._batch_searcher is None:
            self._batch_searcher = BatchSearcher(
                self.index, delta_source=self._delta_source)
        return self._batch_searcher.knn_batch(queries, k=k,
                                              timeout_s=timeout_s)

    # -------------------------------------------------- certified flat path

    def _certified_search(self, query: np.ndarray, heap, stats: SearchStats,
                          delta, deadline: "float | None", trace) -> None:
        """Estimate every row, then offer the candidates' canonical distances.

        The candidates' canonical distances are offered in one block.
        Every estimated row counts as a lower bound (``fl(est − δ)`` is
        one).
        """
        start = time.perf_counter()
        found = certified_candidates(
            query[None, :], self.index.dataset.values,
            self.index.squared_norms, heap.k, delta=delta, deadline=deadline)
        rows = found.rows
        stats.series_lower_bounds += found.estimated
        stats.timed_out = found.timed_out
        stats.traversal_time = time.perf_counter() - start

        start = time.perf_counter()
        if rows.size:
            heap.offer_block(canonical_squared(
                query, gather_values(self.index.dataset.values, rows, delta)),
                rows)
        stats.exact_distances += rows.size
        stats.refinement_time = time.perf_counter() - start
        if trace is not None:
            trace.add_phase("traversal", stats.traversal_time - found.delta_time,
                            series_lower_bounds=stats.series_lower_bounds)
            if delta is not None:
                trace.add_phase("delta", found.delta_time,
                                delta_rows=int(delta.rows.size))
            trace.add_phase("refinement", stats.refinement_time,
                            exact_distances=stats.exact_distances)

    # -------------------------------------------------------- leaf queueing

    def _collect_leaves(self, query_summary: np.ndarray, best_so_far: float,
                        stats: SearchStats, skip_leaf: LeafNode | None
                        ) -> tuple[list[LeafNode], np.ndarray]:
        """Order every surviving leaf by its lower bound to the query.

        All leaf lower bounds come from one vectorized kernel call over the
        index's leaf directory; surviving leaves are returned sorted by lower
        bound, which plays the role of MESSI's priority queues, drained by
        :meth:`_process_queue`.
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
        still win the smaller-row tie-break under the total order.  A true
        top-k candidate has ``bound <= distance <= final threshold <=
        current threshold`` and therefore is never dropped, however the
        candidates were blocked; with a strict filter, a tie candidate's
        fate would depend on the refinement order.  ``+inf`` bounds (masked
        tombstones) are always excluded, even while the threshold is still
        infinite.
        """
        if np.isfinite(threshold):
            return bounds <= threshold
        return bounds < np.inf

    def _exact_block(self, query: np.ndarray, values: np.ndarray,
                     threshold: float) -> np.ndarray:
        """True squared distances of one refinement block.

        Long series (:data:`EARLY_ABANDON_MIN_LENGTH` and up) use the blocked
        early-abandoning kernel: rows whose partial sum already exceeds the
        best-so-far stop accumulating, and their (already disqualifying)
        partial sums are dropped by the heap's ``<= threshold`` pre-filter.
        The kernel choice depends only on the build, never on the schedule,
        so every engine sees identical values for a given row.
        """
        if self._early_abandon:
            return squared_euclidean_batch_abandon(query, values, threshold)
        return squared_euclidean_batch(query, values)

    def _refine_candidates(self, query: np.ndarray, rows: np.ndarray,
                           bounds: np.ndarray, gather, heap,
                           stats: SearchStats, block_size: int = 32,
                           deadline: "float | None" = None) -> None:
        """Blocked best-so-far refinement shared by every candidate source.

        This is the one copy of the BSF-refresh loop that used to be
        duplicated across the leaf, group and delta refinement paths:
        candidates whose lower bound beats the heap's threshold are visited
        most-promising-first in blocks; each block costs one batched ED
        kernel call, the threshold is re-read between
        blocks so the remaining tail can be abandoned wholesale (the blend
        of vectorization and early abandoning of Algorithm 3), and only
        survivors of the heap's vectorized ``<= threshold`` pre-filter reach
        the per-row offer loop.

        ``rows`` holds the candidates' global row ids, ``bounds`` their lower
        bounds, and ``gather(block)`` returns the series values of candidate
        positions ``block``.  An expired ``deadline`` stops between blocks
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
            squared = self._exact_block(query, gather(block), threshold)
            stats.exact_distances += block.size
            heap.offer_block(squared, rows[block])

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
                                delta=delta, deadline=deadline)

    def _take_group(self, ordered_leaves: list[LeafNode],
                    ordered_bounds: np.ndarray, position: int,
                    threshold: float) -> tuple[list[LeafNode], int]:
        """Accumulate consecutive queue leaves into one refinement group.

        Consecutive leaves whose bound is within the live ``threshold`` are
        taken until the group reaches the size target, so small leaves share
        one batched kernel call.
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

    def _refine_leaves(self, query: np.ndarray, query_summary: np.ndarray,
                       leaves: list[LeafNode], heap, stats: SearchStats,
                       delta=None, deadline: "float | None" = None) -> None:
        """Filter leaves by per-series lower bound, then refine exactly.

        One leaf or a whole group: several consecutive small leaves cost one
        concatenated lower-bound kernel call rather than one per leaf, and
        the surviving candidates go through the shared blocked refinement
        loop (:meth:`_refine_candidates`).
        """
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
        bounds = batch_lower_bound(query_summary, delta.lower, delta.upper,
                                   self._weights)
        bounds[~delta.alive] = np.inf
        stats.series_lower_bounds += delta.rows.shape[0]
        self._refine_candidates(query, delta.rows, bounds,
                                lambda block: delta.values[block], heap, stats,
                                deadline=deadline)
