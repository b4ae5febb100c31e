"""Batched multi-query exact search: one engine pass for a whole workload.

:class:`~repro.index.search.ExactSearcher` answers queries one at a time, so a
workload of ``Q`` queries pays the Python-level orchestration (tree descent,
leaf queueing, kernel launches) ``Q`` times even though the underlying NumPy
kernels would happily process all queries at once.  At reproduction scale that
per-query interpreter overhead — not kernel arithmetic — dominates wall-clock.

:class:`BatchSearcher` vectorizes across *queries* as well as candidates, the
NumPy analogue of packing several queries into the SIMD lanes of the paper's
AVX kernels:

1. all queries are z-normalized and summarized in one pass;
2. the full ``query x leaf`` lower-bound matrix comes from a single
   multi-query kernel call (:func:`repro.core.simd.batch_lower_bound_multi`),
   and each query's private leaf visiting order is derived from it once;
3. every query keeps a running top-k frontier (its best-so-far, BSF); each
   round the still-active queries nominate the next window of their own
   unvisited leaves below their BSF — exactly the leaves the per-query engine
   would visit — and queries whose remaining leaves all exceed their BSF drop
   out of the batch;
4. the nominated (query, leaf) pairs of a round are evaluated together: one
   ragged pair kernel call (:func:`repro.core.simd.batch_lower_bound_pairs`)
   filters per-series lower bounds with *no* cross-product amplification, and
   one shared ``pairwise_squared_euclidean`` BLAS GEMM refines every
   surviving candidate of every query at once.

The answers are the same exact k-NN sets the sequential searcher returns —
per query, the visited/pruned decisions follow the identical GEMINI logic —
and the reported results are bit-identical because both engines package their
winners through :func:`repro.index.search.finalize_result`, which recomputes
distances on a canonical row order.

Per-query :class:`~repro.index.search.SearchStats` are still produced; work
counters (lower bounds, exact distances, visited/pruned leaves) are exact per
query, while the timing fields hold each query's *share* of the shared
batched calls (elapsed time divided by the number of queries served), so
summing per-query totals recovers the batch wall-clock.

A batch runs on the calling thread.  Only a workload whose dense
``query x series`` state would exceed a fixed cell budget is split, into
query shards searched one after another.

Like the per-query engine, the batched engine can fuse a dynamic overlay
(:class:`~repro.index.dynamic.DeltaView`, provided by a ``delta_source``
callable): buffered delta series join every query's candidate set through the
same multi-query lower-bound kernels (one extra shared refinement round right
after the seed round), and tombstoned rows are masked to ``+inf`` so they are
never nominated.  Answers remain bit-identical to a scratch rebuild on the
surviving rows.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.distance import pairwise_squared_euclidean
from repro.core.errors import SearchError
from repro.core.normalization import znormalize_batch
from repro.core.simd import batch_lower_bound_multi, batch_lower_bound_pairs
from repro.index.search import (
    SearchResult,
    SearchStats,
    deadline_expired,
    finalize_result,
    resolve_deadline,
    uses_flat_refinement,
    validated_count,
    validated_queries,
)
from repro.index.tree import TreeIndex
from repro.parallel.pool import chunk_indices

#: Cap on ``num_queries x num_series`` cells a single engine pass may hold.
#: The flat path materializes a few dense matrices of that shape (bounds,
#: visiting orders), so very large workloads over very large collections are
#: transparently split into query shards that respect this budget instead of
#: allocating O(Q x N) at once.
_MAX_SHARD_CELLS = 4_000_000

#: Per-query candidate nomination budget per round on the flat path (matches
#: the sequential flat search's block size).
_FLAT_BLOCK_SIZE = 128


def _round_window(base_window: int, num_queries: int, num_active: int,
                  num_items: int) -> int:
    """Adaptive per-round window width.

    The round's total budget (``base_window`` items for each query of the
    batch) is shared by the remaining active queries: straggler queries get
    proportionally wider windows, so the tail of the batch finishes in a few
    large rounds instead of many tiny ones.
    """
    return min(num_items, max(base_window, (base_window * num_queries) // num_active))


def _nominate_window(orders: np.ndarray, sorted_bounds: np.ndarray,
                     pointers: np.ndarray, active_queries: np.ndarray,
                     num_items: int, window: int, thresholds: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One round of frontier nominations for the active queries.

    Each active query examines the next ``window`` entries of its private
    visiting order (``orders``/``sorted_bounds`` rows) starting at its
    pointer.  Because bounds are ascending within a row, the count of window
    bounds below the query's BSF is also the index of its first prunable
    entry — everything before it is nominated, and a count short of the
    window means the query is finished.

    Returns ``(pair_query, pair_item, cuts)``: the nominated (query, item)
    pairs in query-major order, plus each active query's consumed-entry count.
    """
    window_range = np.arange(window)
    window_index = pointers[active_queries, None] + window_range[None, :]
    valid = window_index < num_items
    clipped = np.minimum(window_index, num_items - 1)
    positions = np.take_along_axis(orders[active_queries], clipped, axis=1)
    window_bounds = np.where(
        valid, np.take_along_axis(sorted_bounds[active_queries], clipped, axis=1),
        np.inf)
    cuts = (window_bounds < thresholds[:, None]).sum(axis=1)
    eligible = window_range[None, :] < cuts[:, None]
    pair_query_row, pair_window_column = np.nonzero(eligible)
    return (active_queries[pair_query_row],
            positions[pair_query_row, pair_window_column], cuts)


def _expand_pairs(pair_query: np.ndarray, pair_leaf: np.ndarray,
                  leaf_offsets: np.ndarray, leaf_sizes: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Expand (query, leaf) pairs into (query, series-directory-column) pairs.

    Every nominated leaf contributes one instance per stored series; the
    returned arrays stay query-major so downstream per-query grouping keeps
    working on contiguous slices.
    """
    sizes = leaf_sizes[pair_leaf]
    ends = np.cumsum(sizes)
    instance_query = np.repeat(pair_query, sizes)
    instance_column = (np.arange(ends[-1]) - np.repeat(ends - sizes, sizes)
                       + np.repeat(leaf_offsets[pair_leaf], sizes))
    return instance_query, instance_column


class _QueryFrontier:
    """Running top-k tables of every query in the batch.

    ``squared[q]`` holds query ``q``'s k best squared distances in ascending
    order (padded with ``inf`` until k answers exist), so the BSF threshold is
    an O(1) lookup of the last column.  Merging a batch of offers is one
    lexicographic sort under (distance², row), the same total order as the
    sequential searcher's bounded heap — on tied distances the smaller
    dataset row wins in both engines, so the selected sets match no matter
    how the refinement schedules differ.
    """

    def __init__(self, num_queries: int, k: int) -> None:
        self.k = k
        self.squared = np.full((num_queries, k), np.inf, dtype=np.float64)
        self.rows = np.full((num_queries, k), -1, dtype=np.int64)

    def threshold(self, query: int) -> float:
        return float(self.squared[query, -1])

    def thresholds(self, queries: np.ndarray) -> np.ndarray:
        return self.squared[queries, -1]

    def offer_pairs(self, pair_query: np.ndarray, squared: np.ndarray,
                    rows: np.ndarray) -> None:
        """Merge a round's candidate pairs into every affected query's top-k.

        ``pair_query`` must be sorted (pairs are produced query-major).  The
        ragged per-query offers are padded into one rectangle so the whole
        round costs a single sort instead of one Python-level merge per query.
        """
        unique_queries, counts = np.unique(pair_query, return_counts=True)
        width = int(counts.max())
        ends = np.cumsum(counts)
        # Column of each pair inside its query's padded row.
        slot = np.arange(pair_query.shape[0]) - np.repeat(ends - counts, counts)
        padded_squared = np.full((unique_queries.shape[0], self.k + width), np.inf)
        padded_rows = np.full((unique_queries.shape[0], self.k + width), -1,
                              dtype=np.int64)
        padded_squared[:, : self.k] = self.squared[unique_queries]
        padded_rows[:, : self.k] = self.rows[unique_queries]
        query_of_pair = np.repeat(np.arange(unique_queries.shape[0]), counts)
        padded_squared[query_of_pair, self.k + slot] = squared
        padded_rows[query_of_pair, self.k + slot] = rows
        order = np.lexsort((padded_rows, padded_squared), axis=1)[:, : self.k]
        self.squared[unique_queries] = np.take_along_axis(padded_squared, order, axis=1)
        self.rows[unique_queries] = np.take_along_axis(padded_rows, order, axis=1)


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
        # Hoisted out of the per-shard / per-round paths; re-captured once
        # per batch in case the tree was rebuilt in place (fit assigns fresh
        # weight arrays).
        self._summarization = index.summarization
        self._weights = index.summarization.weights

    # ------------------------------------------------------------- public

    def knn_batch(self, queries: np.ndarray, k: int = 1,
                  timeout_s: "float | None" = None) -> list[SearchResult]:
        """Exact k nearest neighbours of every query row, answered as a batch.

        Returns one :class:`~repro.index.search.SearchResult` per query, in
        input order, identical to calling
        :meth:`~repro.index.search.ExactSearcher.knn` per query.

        ``timeout_s`` bounds the whole batch: once the budget runs out the
        still-active queries stop nominating leaves and finalize their
        best-so-far with ``stats.timed_out=True`` (reported distances stay
        exact; a timed-out set may miss a closer unrefined series).  Queries
        that finished before the deadline are unaffected.

        An **empty batch** (shape ``(0, l)``) is answered with ``[]`` — a
        contractual no-op, validated like any other batch so malformed empty
        inputs still raise typed errors.

        Every returned result carries the *batch's* wall time in
        ``stats.wall_time_s``: the latency each caller of the batched call
        actually observed (a micro-batched server request waits for its whole
        batch), as opposed to the per-query share encoded in the timing
        fields.
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
        self._summarization = self.index.summarization
        if self._summarization.weights is not self._weights:
            self._weights = self._summarization.weights
        # Keep each pass's dense query x series state under the
        # _MAX_SHARD_CELLS budget.
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
        queries = znormalize_batch(queries)
        num_queries = queries.shape[0]
        num_available = (self.index.num_series if delta is None
                         else delta.num_surviving)
        summaries = self._summarization.transform_batch(queries)
        stats = [SearchStats(num_series=num_available) for _ in range(num_queries)]
        frontier = _QueryFrontier(num_queries, k)

        if uses_flat_refinement(self.index):
            self._flat_search(queries, summaries, frontier, stats, delta,
                              deadline)
        else:
            self._tree_search(queries, summaries, frontier, stats, delta,
                              deadline)

        values = self.index.dataset.values
        results = []
        for query_index, query in enumerate(queries):
            rows = frontier.rows[query_index]
            if stats[query_index].timed_out:
                # A timed-out query may not have filled its top-k yet; drop
                # the -1 padding so finalization only sees real winners.
                rows = rows[rows >= 0]
            results.append(finalize_result(query, values, rows,
                                           stats[query_index], delta=delta))
        return results

    # ------------------------------------------------------------ tree path

    def _tree_search(self, queries: np.ndarray, summaries: np.ndarray,
                     frontier: _QueryFrontier, stats: list[SearchStats],
                     delta=None, deadline: "float | None" = None) -> None:
        index = self.index
        num_leaves = len(index.leaf_nodes)
        num_queries = queries.shape[0]
        series_lower, series_upper, series_rows, leaf_offsets, leaf_sizes = (
            index.series_directory())
        weights = self._weights

        visited = np.zeros(num_queries, dtype=np.int64)
        checked = np.zeros(num_queries, dtype=np.int64)

        # ---- traversal: the full query x leaf bound matrix in one kernel
        # call, plus each query's private leaf visiting order.
        start = time.perf_counter()
        leaf_bounds = index.leaf_lower_bounds(summaries)
        orders = np.argsort(leaf_bounds, axis=1, kind="stable")
        sorted_bounds = np.take_along_axis(leaf_bounds, orders, axis=1)
        traversal_share = (time.perf_counter() - start) / max(1, num_queries)
        for stat in stats:
            stat.traversal_time = traversal_share

        # ---- seed: refine every query's most promising leaf (the first of
        # its visiting order) in one shared call.  The sequential searcher
        # seeds by descending the tree along the query's own word; any seed
        # yields the same exact answer, and the smallest-lower-bound leaf is
        # at least as promising, so the batched engine seeds straight from the
        # bound matrix instead of Q Python tree walks.  The BSF is still
        # infinite, so every series of a seed leaf is refined.
        start = time.perf_counter()
        seed_positions = orders[:, 0].copy()
        instance_query, instance_column = _expand_pairs(
            np.arange(num_queries), seed_positions, leaf_offsets, leaf_sizes)
        if delta is not None and delta.base_alive is not None:
            alive = delta.base_alive[series_rows[instance_column]]
            instance_query = instance_query[alive]
            instance_column = instance_column[alive]
        if instance_query.size:
            self._refine_pairs(queries, instance_query, series_rows[instance_column],
                               frontier, stats, delta)
        visited += 1
        checked += np.bincount(instance_query, minlength=num_queries)

        # The delta buffer is one shared extra refinement round right after
        # the seed: every query's surviving delta series (same multi-query
        # lower-bound kernel, tombstones masked to +inf) are refined together,
        # so the BSF is tight before the leaf rounds start nominating.
        if delta is not None and delta.rows.size:
            delta_bounds = batch_lower_bound_multi(summaries, delta.lower,
                                                   delta.upper, weights)
            delta_bounds[:, ~delta.alive] = np.inf
            checked += delta.rows.shape[0]
            pair_query_delta, pair_delta_column = np.nonzero(
                delta_bounds < frontier.thresholds(
                    np.arange(num_queries))[:, None])
            if pair_query_delta.size:
                self._refine_pairs(queries, pair_query_delta,
                                   delta.rows[pair_delta_column],
                                   frontier, stats, delta)
        seed_share = (time.perf_counter() - start) / max(1, num_queries)
        initial_thresholds = frontier.thresholds(np.arange(num_queries))
        below_initial = (sorted_bounds < initial_thresholds[:, None]).sum(axis=1)
        for query_index, stat in enumerate(stats):
            stat.nodes_pruned = num_leaves - int(below_initial[query_index])
            stat.approximate_time = seed_share

        # ---- shared refinement rounds.  Each round every active query
        # consumes the next window of its own leaf order (below its BSF), and
        # the union of nominated (query, leaf) pairs is evaluated with one
        # pair kernel call and one GEMM.
        average_leaf = max(1.0, float(leaf_sizes.mean()) if leaf_sizes.size else 1.0)
        # Each query contributes about as many series to a shared round as
        # the sequential searcher's leaf grouping puts into one group.
        group_target = max(index.leaf_size, 64)
        base_window = max(4, int(np.ceil(group_target / average_leaf)))
        pointers = np.ones(num_queries, dtype=np.int64)  # position 0 was the seed
        active = np.ones(num_queries, dtype=bool)
        while True:
            active_queries = np.flatnonzero(active)
            if active_queries.size == 0:
                break
            if deadline_expired(deadline):
                # The seed round above already refined every query's most
                # promising leaf, so each still-active query finalizes the
                # best-so-far it has instead of an empty answer.
                for query_index in active_queries:
                    stats[query_index].timed_out = True
                break
            round_start = time.perf_counter()
            window = _round_window(base_window, num_queries, active_queries.size,
                                   num_leaves)
            pair_query, pair_leaf, cuts = _nominate_window(
                orders, sorted_bounds, pointers, active_queries, num_leaves,
                window, frontier.thresholds(active_queries))
            if pair_leaf.size:
                visited += np.bincount(pair_query, minlength=num_queries)
                instance_query, instance_column = _expand_pairs(
                    pair_query, pair_leaf, leaf_offsets, leaf_sizes)
                bounds = batch_lower_bound_pairs(summaries[instance_query],
                                                 series_lower[instance_column],
                                                 series_upper[instance_column], weights)
                checked += np.bincount(instance_query, minlength=num_queries)
                survivors = bounds < frontier.thresholds(instance_query)
                if delta is not None and delta.base_alive is not None:
                    survivors &= delta.base_alive[series_rows[instance_column]]
                if survivors.any():
                    self._refine_pairs(queries, instance_query[survivors],
                                       series_rows[instance_column[survivors]],
                                       frontier, stats, delta)
            pointers[active_queries] += cuts
            finished = active_queries[cuts < window]
            for query_index in finished:
                stats[query_index].leaves_pruned_in_queue += max(
                    0, int(below_initial[query_index]) - int(pointers[query_index]))
            active[finished] = False
            round_share = (time.perf_counter() - round_start) / active_queries.size
            for query_index in active_queries:
                stats[query_index].refinement_time += round_share
        for query_index, stat in enumerate(stats):
            stat.leaves_visited += int(visited[query_index])
            stat.series_lower_bounds += int(checked[query_index])

    # ------------------------------------------------------------ flat path

    def _flat_search(self, queries: np.ndarray, summaries: np.ndarray,
                     frontier: _QueryFrontier, stats: list[SearchStats],
                     delta=None, deadline: "float | None" = None) -> None:
        """Filter-and-refine over the flat directory, batched across queries.

        The per-series bounds of every query come from one multi-query kernel
        call; rounds then work like the tree path with each directory entry
        acting as a singleton leaf whose bound is already known, so no pair
        kernel is needed inside the rounds.  A dynamic ``delta`` appends its
        buffered series as extra directory columns (same multi-query kernel)
        and masks tombstoned entries to ``+inf``.
        """
        index = self.index
        num_queries = queries.shape[0]
        start = time.perf_counter()
        bounds, rows = index.all_series_lower_bounds(summaries)
        if delta is not None:
            if delta.base_alive is not None:
                bounds[:, ~delta.base_alive[rows]] = np.inf
            if delta.rows.size:
                delta_bounds = batch_lower_bound_multi(summaries, delta.lower,
                                                       delta.upper, self._weights)
                delta_bounds[:, ~delta.alive] = np.inf
                bounds = np.concatenate([bounds, delta_bounds], axis=1)
                rows = np.concatenate([rows, delta.rows])
        orders = np.argsort(bounds, axis=1, kind="stable")
        sorted_bounds = np.take_along_axis(bounds, orders, axis=1)
        num_entries = rows.shape[0]
        traversal_share = (time.perf_counter() - start) / max(1, num_queries)
        for stat in stats:
            stat.traversal_time = traversal_share
            stat.series_lower_bounds += num_entries

        pointers = np.zeros(num_queries, dtype=np.int64)
        active = np.ones(num_queries, dtype=bool)
        first_round = True
        while True:
            active_queries = np.flatnonzero(active)
            if active_queries.size == 0:
                return
            if not first_round and deadline_expired(deadline):
                # The first round always runs (the flat path's counterpart of
                # the tree path's seed-leaf refinement), so even a zero budget
                # finalizes a real best-so-far instead of an empty answer.
                for query_index in active_queries:
                    stats[query_index].timed_out = True
                return
            first_round = False
            round_start = time.perf_counter()
            window = _round_window(_FLAT_BLOCK_SIZE, num_queries,
                                   active_queries.size, num_entries)
            pair_query, pair_column, cuts = _nominate_window(
                orders, sorted_bounds, pointers, active_queries, num_entries,
                window, frontier.thresholds(active_queries))
            if pair_column.size:
                self._refine_pairs(queries, pair_query, rows[pair_column],
                                   frontier, stats, delta)
            pointers[active_queries] += cuts
            active[active_queries[cuts < window]] = False
            round_share = (time.perf_counter() - round_start) / active_queries.size
            for query_index in active_queries:
                stats[query_index].refinement_time += round_share

    # ------------------------------------------------------- shared refine

    def _refine_pairs(self, queries: np.ndarray, pair_query: np.ndarray,
                      pair_rows: np.ndarray, frontier: _QueryFrontier,
                      stats: list[SearchStats], delta=None) -> None:
        """True distances for the surviving (query, series) pairs of a round.

        When many queries share candidates, one ``pairwise_squared_euclidean``
        GEMM covers the distinct queries against the distinct candidate series
        and each pair's distance is gathered from the rectangle.  When sharing
        is low the rectangle mostly computes distances nobody asked for, so
        the pairs are instead evaluated directly with one elementwise kernel
        over the gathered (query, series) rows.  ``pair_query`` must be sorted
        (pairs are produced query-major).  ``pair_rows`` may point into the
        dynamic delta buffer; ``delta.gather`` resolves those rows.
        """
        values = self.index.dataset.values
        unique_queries, counts = np.unique(pair_query, return_counts=True)
        unique_rows, column_of_pair = np.unique(pair_rows, return_inverse=True)
        if 4 * pair_rows.shape[0] >= unique_queries.shape[0] * unique_rows.shape[0]:
            candidates = (values[unique_rows] if delta is None
                          else delta.gather(values, unique_rows))
            squared = pairwise_squared_euclidean(queries[unique_queries],
                                                 candidates)
            row_of_pair = np.searchsorted(unique_queries, pair_query)
            distances = squared[row_of_pair, column_of_pair]
        else:
            gathered = (values[pair_rows] if delta is None
                        else delta.gather(values, pair_rows))
            difference = gathered - queries[pair_query]
            distances = np.einsum("ij,ij->i", difference, difference)
        # Vectorized pre-filter: pairs strictly above their query's current
        # k-th best can never enter that query's top-k (a pair *at* the
        # threshold still can, by winning the smaller-row tie-break), so
        # dropping them shrinks the padded merge rectangle without changing
        # the retained sets.
        surviving = distances <= frontier.thresholds(pair_query)
        if surviving.any():
            frontier.offer_pairs(pair_query[surviving], distances[surviving],
                                 pair_rows[surviving])
        for position, query_index in enumerate(unique_queries):
            stats[query_index].exact_distances += int(counts[position])
