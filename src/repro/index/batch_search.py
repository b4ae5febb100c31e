"""Batched exact search: one call answers a whole query workload.

:class:`BatchSearcher` returns, for every row of a query batch, the answer
:meth:`~repro.index.search.ExactSearcher.knn` returns for it, and takes one
of the two paths :func:`~repro.index.search.uses_flat_refinement` picks:

* **Certified flat path** (a tree shattered into near-singleton leaves): one
  GEMM estimates every (query, row) distance for the whole batch
  (:func:`~repro.index.search.certified_candidates`) and each query ranks the
  canonical distances of its few candidates — the same values and the same
  ranking the per-query engine's finalization uses.  This is where batching
  pays: the estimate is one matrix product instead of ``Q`` vector products.
* **Tree path**: each query runs the single-query GEMINI engine
  (``ExactSearcher._knn_under_delta``: seed leaf, delta pseudo-leaf, leaf
  queue ordered by lower bound, refinement) under the batch's one overlay
  capture and one deadline.  Every answer and every work counter therefore
  equals ``knn``'s by construction, and a tree-path batch costs what the
  same loop of ``knn`` calls costs.

Per-query :class:`~repro.index.search.SearchStats` are produced either way.
On the flat path the timing fields hold each query's *share* of the shared
calls (elapsed time divided by the number of queries), so summing per-query
totals recovers the batch's engine time; on the tree path they are the
query's own phase times.

A batch runs on the calling thread.  Only a workload whose dense
``query x series`` estimate would exceed a fixed cell budget is split, into
query shards searched one after another.

Like the per-query engine, the batched engine fuses a dynamic overlay
(:class:`~repro.index.dynamic.DeltaView`, provided by a ``delta_source``
callable), captured once per batch so every query answers over the same
snapshot of *tree ∪ delta − tombstones*.  Answers remain bit-identical to a
scratch rebuild on the surviving rows.
"""

from __future__ import annotations

import time

import numpy as np

# ``perf/spans.py`` times the kernels by patching these names in this module
# (checked by ``tests/integration/test_perf_seam.py``); no engine here calls
# them any more, and they stay imported until the benchmark's seam changes.
from repro.core.distance import pairwise_squared_euclidean  # noqa: F401
from repro.core.errors import SearchError
from repro.core.normalization import znormalize_batch
from repro.core.simd import (  # noqa: F401
    batch_lower_bound_multi,
    batch_lower_bound_pairs,
)
from repro.index.search import (
    ExactSearcher,
    SearchResult,
    SearchStats,
    canonical_squared,
    certified_candidates,
    gather_values,
    ranked_result,
    resolve_deadline,
    uses_flat_refinement,
    validated_count,
    validated_queries,
)
from repro.index.tree import TreeIndex
from repro.parallel.pool import chunk_indices

#: Cap on ``num_queries x num_series`` cells a single engine pass may cover.
#: The certified flat path's candidate gather grows with the number of
#: queries, so very large workloads over very large collections are
#: transparently split into query shards that respect this budget.
_MAX_SHARD_CELLS = 4_000_000


class BatchSearcher:
    """Answers exact k-NN queries for whole query batches over a built tree.

    Parameters
    ----------
    index:
        A built :class:`~repro.index.tree.TreeIndex`.  Queries are
        z-normalized (the paper's setting), and
        :func:`~repro.index.search.uses_flat_refinement` picks the flat or
        the tree path, as for the per-query engine.
    delta_source:
        Optional zero-argument callable returning the current
        :class:`~repro.index.dynamic.DeltaView` of a dynamic index (or
        ``None`` when there are no pending writes).  When set, every batch
        answers over *tree ∪ delta − tombstones*.
    """

    def __init__(self, index: TreeIndex, delta_source=None) -> None:
        if not index.is_built:
            raise SearchError("the index must be built before searching")
        self.index = index
        self._delta_source = delta_source
        # The tree path's engine; the overlay is passed to it per batch.
        self._searcher = ExactSearcher(index)

    # ------------------------------------------------------------- public

    def knn_batch(self, queries: np.ndarray, k: int = 1,
                  timeout_s: "float | None" = None) -> list[SearchResult]:
        """Exact k nearest neighbours of every query row, answered as a batch.

        Returns one :class:`~repro.index.search.SearchResult` per query, in
        input order, identical to calling
        :meth:`~repro.index.search.ExactSearcher.knn` per query.

        ``timeout_s`` bounds the whole batch: once the budget runs out the
        remaining queries finalize their best-so-far with
        ``stats.timed_out=True`` (reported distances stay exact; a timed-out
        set may miss a closer unrefined series).  Queries that finished
        before the deadline are unaffected.

        An **empty batch** (shape ``(0, l)``) is answered with ``[]`` — a
        contractual no-op, validated like any other batch so malformed empty
        inputs still raise typed errors.

        Every returned result carries the *batch's* wall time in
        ``stats.wall_time_s``: the latency each caller of the batched call
        actually observed (a micro-batched server request waits for its whole
        batch), as opposed to the per-query phase times.
        """
        wall_start = time.perf_counter()
        results = self._knn_batch_timed(queries, k, timeout_s)
        wall_time = time.perf_counter() - wall_start
        for result in results:
            result.stats.wall_time_s = wall_time
        return results

    def _knn_batch_timed(self, queries: np.ndarray, k: int,
                         timeout_s: "float | None") -> list[SearchResult]:
        k = validated_count(k)
        deadline = resolve_deadline(timeout_s)
        # Capture the dynamic overlay once per batch so every shard answers
        # over the same consistent snapshot.
        delta = self._delta_source() if self._delta_source is not None else None
        available = self.index.num_series if delta is None else delta.num_surviving
        if k > available:
            raise SearchError(
                f"k={k} exceeds the number of "
                f"{'indexed' if delta is None else 'surviving'} series ({available})"
            )
        queries = validated_queries(queries, self.index.dataset.series_length)
        num_queries = queries.shape[0]
        if num_queries == 0:
            return []
        # Keep each pass under the _MAX_SHARD_CELLS budget.
        cell_cap = max(1, _MAX_SHARD_CELLS // max(1, self.index.num_series))
        num_shards = min(num_queries, -(-num_queries // cell_cap))
        if num_shards == 1:
            return self._search_shard(queries, k, delta, deadline)
        return [result for shard in chunk_indices(num_queries, num_shards)
                for result in self._search_shard(queries[shard], k, delta,
                                                 deadline)]

    # -------------------------------------------------------------- engine

    def _search_shard(self, queries: np.ndarray, k: int, delta=None,
                      deadline: "float | None" = None) -> list[SearchResult]:
        if uses_flat_refinement(self.index):
            return self._certified_search(znormalize_batch(queries), k, delta,
                                          deadline)
        # The raw rows: the single-query engine normalizes them itself,
        # exactly as ``knn`` does.
        return [self._searcher._knn_under_delta(query, k, delta,
                                                deadline=deadline)
                for query in queries]

    # -------------------------------------------------- certified flat path

    def _certified_search(self, queries: np.ndarray, k: int, delta=None,
                          deadline: "float | None" = None
                          ) -> list[SearchResult]:
        """One GEMM estimate for the batch, canonical distances per query.

        :func:`~repro.index.search.certified_candidates` selects each query's
        candidates; their :func:`~repro.index.search.canonical_squared`
        distances ranked by :func:`~repro.index.search.ranked_result` are
        what :func:`~repro.index.search.finalize_result` reports for the
        per-query engine's winners, so the answers are bit-identical.
        """
        num_queries = queries.shape[0]
        num_available = (self.index.num_series if delta is None
                         else delta.num_surviving)
        values = self.index.dataset.values
        start = time.perf_counter()
        found = certified_candidates(queries, values, self.index.squared_norms,
                                     k, delta=delta, deadline=deadline)
        estimate_share = (time.perf_counter() - start) / num_queries
        start = time.perf_counter()
        squared = canonical_squared(queries[found.queries],
                                    gather_values(values, found.rows, delta))
        sizes = np.bincount(found.queries, minlength=num_queries)
        results = []
        for stop, size in zip(np.cumsum(sizes).tolist(), sizes.tolist()):
            stat = SearchStats(num_series=num_available,
                               series_lower_bounds=found.estimated,
                               exact_distances=size,
                               traversal_time=estimate_share,
                               timed_out=found.timed_out)
            mine = slice(stop - size, stop)
            results.append(ranked_result(found.rows[mine], squared[mine], stat,
                                         k))
        refine_share = (time.perf_counter() - start) / num_queries
        for result in results:
            result.stats.refinement_time = refine_share
        return results
