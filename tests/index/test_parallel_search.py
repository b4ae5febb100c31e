"""Tests for the intra-query parallel exact search engine.

The contract under test: ``knn(..., num_workers=n)`` returns, for every
worker count, *bit-identical* results to the sequential single-worker engine
— identical neighbour indices and distances — on the tree path, the flat
path, exact-tie datasets, long-series (early-abandoning kernel) builds and
dynamic indexes mid-ingest; and the shared best-so-far heap keeps the k
smallest offers under the total order (distance², row) no matter how many
threads hammer it.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.messi import MessiIndex
from repro.index.search import BestSoFar, ExactSearcher, SearchStats
from repro.index.sofa import SofaIndex
from repro.index.stats import merge_search_stats

WORKER_COUNTS = (2, 3, 5)


def _assert_identical(reference, candidate):
    assert np.array_equal(reference.indices, candidate.indices)
    assert np.array_equal(reference.distances, candidate.distances)


@pytest.fixture(scope="module")
def built_indexes(clustered_index_and_queries):
    index_set, queries = clustered_index_and_queries
    return {
        "SOFA": SofaIndex(leaf_size=40).build(index_set),
        "MESSI": MessiIndex(leaf_size=40).build(index_set),
    }, queries


class TestWorkerCountDeterminism:
    @pytest.mark.parametrize("label", ["SOFA", "MESSI"])
    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_tree_path_bit_identical(self, built_indexes, label, k):
        indexes, queries = built_indexes
        index = indexes[label]
        for query in queries.values[:8]:
            reference = index.knn(query, k=k, num_workers=1)
            for num_workers in WORKER_COUNTS:
                _assert_identical(reference,
                                  index.knn(query, k=k, num_workers=num_workers))

    @pytest.mark.parametrize("k", [1, 7])
    def test_flat_path_bit_identical(self, built_indexes, k):
        indexes, queries = built_indexes
        searcher = ExactSearcher(indexes["SOFA"].tree,
                                 flat_refinement_threshold=np.inf)
        for query in queries.values[:8]:
            reference = searcher.knn(query, k=k, num_workers=1)
            for num_workers in WORKER_COUNTS:
                _assert_identical(reference,
                                  searcher.knn(query, k=k,
                                               num_workers=num_workers))

    def test_exact_ties_bit_identical(self):
        """Duplicated series force exact distance ties; every worker count
        must keep the same rows (smaller row wins under the total order)."""
        rng = np.random.default_rng(7)
        base = rng.normal(size=(40, 64)).cumsum(axis=1)
        data = np.vstack([base, base, base])
        queries = base[:10] + rng.normal(scale=0.05, size=(10, 64))
        index = SofaIndex(leaf_size=20).build(data)
        for query in queries:
            reference = index.knn(query, k=5, num_workers=1)
            for num_workers in WORKER_COUNTS:
                _assert_identical(reference,
                                  index.knn(query, k=5,
                                            num_workers=num_workers))

    def test_indexed_series_query_is_exact_tie_at_zero(self, built_indexes):
        """A query equal to an indexed series: distance 0, tight lower bound."""
        indexes, _ = built_indexes
        index = indexes["SOFA"]
        query = np.asarray(index.tree.dataset.values[17])
        for num_workers in (1,) + WORKER_COUNTS:
            result = index.knn(query, k=3, num_workers=num_workers)
            assert result.nearest_index == 17
            assert result.nearest_distance == pytest.approx(0.0, abs=1e-9)

    def test_long_series_use_early_abandon_kernel(self):
        """Long-series builds refine through the blocked early-abandoning
        kernel; answers stay bit-identical across worker counts and match a
        searcher forced onto the plain kernel."""
        rng = np.random.default_rng(21)
        data = rng.normal(size=(90, 1100)).cumsum(axis=1)
        index = SofaIndex(leaf_size=30).build(data)
        abandoning = ExactSearcher(index.tree)
        assert abandoning._early_abandon  # 1100 >= the default length gate
        plain = ExactSearcher(index.tree, early_abandon_length=10_000)
        assert not plain._early_abandon
        queries = data[:5] + rng.normal(scale=0.05, size=(5, 1100))
        for query in queries:
            reference = abandoning.knn(query, k=4, num_workers=1)
            _assert_identical(reference, plain.knn(query, k=4, num_workers=1))
            for num_workers in WORKER_COUNTS:
                _assert_identical(reference,
                                  abandoning.knn(query, k=4,
                                                 num_workers=num_workers))

    def test_duplicate_query_ties_at_zero_across_workers(self):
        """Regression: hundreds of exact copies of the query make lower bound
        == distance == final threshold == 0 span many work items; strict
        pruning against the live shared threshold used to let thread timing
        decide whether a smaller-row tie winner was refined at all.  The
        tie-tolerant admission (``_admissible``) must keep every worker
        count — and every trial — on the sequential answer."""
        rng = np.random.default_rng(13)
        length = 1100  # long series: the early-abandoning kernel is live too
        noise = rng.normal(size=(50, length)).cumsum(axis=1)
        probe = rng.normal(size=length).cumsum()
        data = np.vstack([noise, np.tile(probe, (300, 1))])
        index = SofaIndex(leaf_size=20).build(data)
        for flat_threshold in (0.0, np.inf):  # tree path and flat path
            searcher = ExactSearcher(index.tree,
                                     flat_refinement_threshold=flat_threshold)
            expected = searcher.knn(probe, k=3, num_workers=1)
            # The duplicates sit at distance 0; smallest rows win the tie.
            assert expected.indices.tolist() == [50, 51, 52]
            for _ in range(10):
                for num_workers in (2, 4):
                    _assert_identical(expected,
                                      searcher.knn(probe, k=3,
                                                   num_workers=num_workers))

    @given(seed=st.integers(min_value=0, max_value=10_000),
           k=st.integers(min_value=1, max_value=8),
           num_workers=st.sampled_from(WORKER_COUNTS),
           dynamic=st.booleans(),
           flat=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_property_bit_identical_across_workers(self, seed, k, num_workers,
                                                   dynamic, flat):
        """Random data with duplicate rows (exact ties), optionally flat
        refinement and a mid-ingest dynamic overlay with tombstones on both
        sides of the base/delta boundary: every worker count answers like the
        sequential engine, bit for bit."""
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(50, 64)).cumsum(axis=1)
        data = np.vstack([base, base[:20]])  # duplicates force exact ties
        threshold = np.inf if flat else 0.0
        index = SofaIndex(leaf_size=20).build(data)
        if dynamic:
            target = index.dynamic()
            target.insert_batch(rng.normal(size=(15, 64)).cumsum(axis=1))
            target.delete(int(rng.integers(0, 70)))        # base tombstone
            target.delete(70 + int(rng.integers(0, 15)))   # delta tombstone
            searcher = ExactSearcher(target.tree, flat_refinement_threshold=threshold,
                                     delta_source=target._state.capture)
        else:
            searcher = ExactSearcher(index.tree,
                                     flat_refinement_threshold=threshold)
        queries = base[:4] + rng.normal(scale=0.05, size=(4, 64))
        for query in queries:
            reference = searcher.knn(query, k=k, num_workers=1)
            _assert_identical(reference,
                              searcher.knn(query, k=k, num_workers=num_workers))


class TestDynamicParallel:
    """The delta pseudo-leaf is just another work item on the shared queue."""

    @pytest.fixture()
    def mid_ingest(self, clustered_index_and_queries):
        index_set, queries = clustered_index_and_queries
        dynamic = SofaIndex(leaf_size=40).build(index_set).dynamic()
        rng = np.random.default_rng(3)
        dynamic.insert_batch(rng.normal(size=(40, index_set.series_length))
                             .cumsum(axis=1))
        dynamic.delete(5)
        dynamic.delete(index_set.num_series + 7)
        return dynamic, queries

    @pytest.mark.parametrize("k", [1, 6])
    def test_mid_ingest_bit_identical(self, mid_ingest, k):
        dynamic, queries = mid_ingest
        for query in queries.values[:8]:
            reference = dynamic.knn(query, k=k, num_workers=1)
            for num_workers in WORKER_COUNTS:
                _assert_identical(reference,
                                  dynamic.knn(query, k=k,
                                              num_workers=num_workers))

    def test_inserted_series_found_by_parallel_search(self, mid_ingest):
        dynamic, _ = mid_ingest
        probe = dynamic._state.delta_values.view[3]
        result = dynamic.knn(probe, k=1, num_workers=4)
        assert result.nearest_index == dynamic.num_base + 3
        assert result.nearest_distance == pytest.approx(0.0, abs=1e-9)

    def test_tombstoned_rows_never_answered(self, mid_ingest):
        dynamic, queries = mid_ingest
        dead = {5, dynamic.num_base + 7}
        for num_workers in (1,) + WORKER_COUNTS:
            for query in queries.values[:5]:
                result = dynamic.knn(query, k=10, num_workers=num_workers)
                assert not dead.intersection(result.indices.tolist())


class TestBatchFallback:
    """knn_batch puts spare workers on intra-query parallelism."""

    def test_small_batch_matches_per_query(self, built_indexes):
        indexes, queries = built_indexes
        index = indexes["SOFA"]
        small_batch = queries.values[:2]
        looped = [index.knn(query, k=4) for query in small_batch]
        batched = index.knn_batch(small_batch, k=4, num_workers=8)
        for reference, candidate in zip(looped, batched):
            _assert_identical(reference, candidate)

    def test_single_query_batch_with_pool(self, built_indexes):
        indexes, queries = built_indexes
        index = indexes["MESSI"]
        batched = index.knn_batch(queries.values[:1], k=3, num_workers=4)
        assert len(batched) == 1
        _assert_identical(index.knn(queries[0], k=3), batched[0])

    def test_fallback_records_worker_count(self, built_indexes):
        indexes, queries = built_indexes
        index = indexes["SOFA"]
        batched = index.knn_batch(queries.values[:2], k=2, num_workers=6)
        for result in batched:
            assert result.stats.num_workers == 6

    def test_large_batch_still_shards(self, built_indexes):
        """Batches at least as large as the pool keep the sharded engine."""
        indexes, queries = built_indexes
        index = indexes["SOFA"]
        batched = index.knn_batch(queries.values, k=3, num_workers=4)
        looped = [index.knn(query, k=3) for query in queries.values]
        for reference, candidate in zip(looped, batched):
            _assert_identical(reference, candidate)


class TestSharedHeapStress:
    def test_concurrent_offers_keep_k_smallest(self):
        """Many threads hammering one shared heap retain exactly the k
        smallest (distance², row) pairs."""
        rng = np.random.default_rng(0)
        k = 16
        num_blocks, block_size = 300, 64
        rows = rng.permutation(num_blocks * block_size).reshape(num_blocks,
                                                               block_size)
        # A coarse distance grid forces plenty of exact ties across blocks.
        squared = (rng.integers(0, 40, size=(num_blocks, block_size))
                   .astype(np.float64) / 7.0)

        shared = BestSoFar(k)
        tickets = iter(range(num_blocks))
        lock = threading.Lock()

        def hammer():
            while True:
                with lock:
                    block = next(tickets, None)
                if block is None:
                    return
                shared.offer_block(squared[block], rows[block])

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        expected = sorted(zip(squared.ravel(), rows.ravel()))[:k]
        assert shared.sorted_items() == [(d, int(r)) for d, r in expected]


class TestStatsMerging:
    def test_merge_is_deterministic_and_additive(self):
        into = SearchStats(num_series=100, num_workers=3, approximate_time=0.5,
                           traversal_time=0.25)
        parts = [
            SearchStats(leaves_visited=2, exact_distances=10,
                        series_lower_bounds=20, refinement_time=0.125),
            SearchStats(leaves_visited=1, leaves_pruned_in_queue=4,
                        exact_distances=5, series_lower_bounds=5,
                        refinement_time=0.25),
        ]
        merged = merge_search_stats(into, parts)
        assert merged is into
        assert merged.leaves_visited == 3
        assert merged.leaves_pruned_in_queue == 4
        assert merged.exact_distances == 15
        assert merged.series_lower_bounds == 25
        assert merged.refinement_time == 0.375
        # The sequential phases belong to the query-level stats.
        assert merged.approximate_time == 0.5
        assert merged.traversal_time == 0.25
        assert merged.num_workers == 3

    def test_parallel_stats_report_all_work(self, built_indexes):
        indexes, queries = built_indexes
        index = indexes["SOFA"]
        result = index.knn(queries[0], k=3, num_workers=3)
        stats = result.stats
        assert stats.num_workers == 3
        assert stats.leaves_visited >= 1
        assert stats.exact_distances >= 3
        assert stats.series_lower_bounds >= stats.exact_distances
        assert stats.num_series == index.tree.num_series


class TestMeasuredPhaseTimes:
    """Phase times are wall clock, one pair per phase: every phase of a query
    lies inside its engine call, so they never sum past ``wall_time_s`` —
    with several workers too, because the drain is timed once by its caller
    rather than summed over the work items its workers claimed."""

    @staticmethod
    def _assert_phases_inside_wall(searcher, queries, num_workers):
        for query in queries.values[:4]:
            stats = searcher.knn(query, k=3, num_workers=num_workers).stats
            assert stats.exact_distances >= 3
            assert stats.refinement_time > 0.0
            assert stats.total_time <= stats.wall_time_s

    @pytest.mark.parametrize("label", ["SOFA", "MESSI"])
    @pytest.mark.parametrize("num_workers", [1, 3])
    def test_tree_path_phases_fit_inside_wall_time(self, built_indexes, label,
                                                   num_workers):
        indexes, queries = built_indexes
        searcher = ExactSearcher(indexes[label].tree, flat_refinement_threshold=0.0)
        self._assert_phases_inside_wall(searcher, queries, num_workers)

    @pytest.mark.parametrize("num_workers", [1, 3])
    def test_flat_path_phases_fit_inside_wall_time(self, built_indexes, num_workers):
        indexes, queries = built_indexes
        searcher = ExactSearcher(indexes["SOFA"].tree,
                                 flat_refinement_threshold=np.inf)
        self._assert_phases_inside_wall(searcher, queries, num_workers)
