"""Tests for the batched multi-query search engine.

The contract under test: :class:`repro.index.batch_search.BatchSearcher`
returns, for every query of a batch, *exactly* the result the per-query
:class:`repro.index.search.ExactSearcher` returns — identical neighbour
indices and bit-identical distances — on both the tree path and the
degenerate flat path, for 1-NN and k-NN, with and without worker sharding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index.search
from repro.core.errors import SearchError
from repro.index.batch_search import BatchSearcher
from repro.index.messi import MessiIndex
from repro.index.search import ExactSearcher
from repro.index.sofa import SofaIndex


@pytest.fixture(scope="module")
def built_tree(clustered_index_and_queries):
    index_set, queries = clustered_index_and_queries
    return SofaIndex(leaf_size=40).build(index_set).tree, queries


def _force_path(monkeypatch, threshold):
    """Force both engines onto the tree (``0.0``) or flat (``inf``) path."""
    monkeypatch.setattr(repro.index.search, "FLAT_REFINEMENT_THRESHOLD",
                        threshold)


def _assert_results_identical(batched, looped):
    assert len(batched) == len(looped)
    for batched_result, looped_result in zip(batched, looped):
        assert np.array_equal(batched_result.indices, looped_result.indices)
        assert np.array_equal(batched_result.distances, looped_result.distances)


class TestExactEquivalence:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_tree_path_matches_per_query(self, built_tree, k, monkeypatch):
        tree, queries = built_tree
        _force_path(monkeypatch, 0.0)
        searcher = ExactSearcher(tree)
        batcher = BatchSearcher(tree)
        batched = batcher.knn_batch(queries.values, k=k)
        looped = [searcher.knn(query, k=k) for query in queries.values]
        _assert_results_identical(batched, looped)

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_flat_path_matches_per_query(self, built_tree, k, monkeypatch):
        tree, queries = built_tree
        _force_path(monkeypatch, np.inf)
        searcher = ExactSearcher(tree)
        batcher = BatchSearcher(tree)
        batched = batcher.knn_batch(queries.values, k=k)
        looped = [searcher.knn(query, k=k) for query in queries.values]
        _assert_results_identical(batched, looped)

    def test_paths_agree_with_each_other(self, built_tree, monkeypatch):
        """Tree-path and flat-path batched answers are themselves identical."""
        tree, queries = built_tree
        batcher = BatchSearcher(tree)
        _force_path(monkeypatch, 0.0)
        via_tree = batcher.knn_batch(queries.values, k=5)
        _force_path(monkeypatch, np.inf)
        via_flat = batcher.knn_batch(queries.values, k=5)
        _assert_results_identical(via_tree, via_flat)

    def test_tied_distances_select_identical_neighbours(self):
        """Duplicate series force exact distance ties; both engines must keep
        the same rows (smaller dataset row wins under the shared total order)."""
        rng = np.random.default_rng(7)
        base = rng.normal(size=(40, 64)).cumsum(axis=1)
        data = np.vstack([base, base, base])
        queries = base[:10] + rng.normal(scale=0.05, size=(10, 64))
        index = SofaIndex(leaf_size=20).build(data)
        batched = index.knn_batch(queries, k=5)
        looped = [index.knn(query, k=5) for query in queries]
        _assert_results_identical(batched, looped)

    def test_messi_batch_matches_per_query(self, clustered_index_and_queries):
        index_set, queries = clustered_index_and_queries
        messi = MessiIndex(leaf_size=40).build(index_set)
        batched = messi.knn_batch(queries.values[:8], k=3)
        looped = [messi.knn(query, k=3) for query in queries.values[:8]]
        _assert_results_identical(batched, looped)

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=7),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=15, deadline=None)
    def test_property_random_batches(self, built_tree, seed, k, batch_size):
        """Any random sub-batch and k: batched == per-query, bit for bit."""
        tree, queries = built_tree
        rng = np.random.default_rng(seed)
        chosen = rng.choice(queries.num_series, size=batch_size, replace=False)
        workload = queries.values[chosen]
        searcher = ExactSearcher(tree)
        batcher = BatchSearcher(tree)
        batched = batcher.knn_batch(workload, k=k)
        looped = [searcher.knn(query, k=k) for query in workload]
        _assert_results_identical(batched, looped)


class TestApiAndStats:
    def test_single_query_row_is_promoted(self, built_tree):
        tree, queries = built_tree
        batcher = BatchSearcher(tree)
        results = batcher.knn_batch(queries[0], k=2)
        assert len(results) == 1
        assert results[0].distances.shape == (2,)

    def test_empty_batch_returns_empty_list(self, built_tree):
        tree, _ = built_tree
        batcher = BatchSearcher(tree)
        assert batcher.knn_batch(np.empty((0, tree.dataset.series_length))) == []

    def test_validation_errors(self, built_tree):
        tree, queries = built_tree
        batcher = BatchSearcher(tree)
        with pytest.raises(SearchError):
            batcher.knn_batch(queries.values, k=0)
        with pytest.raises(SearchError):
            batcher.knn_batch(queries.values, k=tree.num_series + 1)
        with pytest.raises(SearchError):
            batcher.knn_batch(np.zeros((2, 3)))

    def test_unbuilt_index_rejected(self):
        with pytest.raises(SearchError):
            BatchSearcher(SofaIndex(leaf_size=40).tree)

    def test_stats_are_populated_per_query(self, built_tree, monkeypatch):
        tree, queries = built_tree
        _force_path(monkeypatch, 0.0)
        batcher = BatchSearcher(tree)
        results = batcher.knn_batch(queries.values[:6], k=3)
        for result in results:
            stats = result.stats
            assert stats.num_series == tree.num_series
            assert stats.exact_distances >= 3
            assert stats.series_lower_bounds >= stats.exact_distances
            assert 0.0 <= stats.pruning_ratio < 1.0
            assert stats.total_time > 0.0

    def test_results_are_sorted_and_exact_against_scan(self, built_tree):
        """Batched distances agree with a brute-force scan (exactness)."""
        tree, queries = built_tree
        values = tree.dataset.values
        batcher = BatchSearcher(tree)
        results = batcher.knn_batch(queries.values[:5], k=4)
        from repro.core.normalization import znormalize

        for row, result in enumerate(results):
            assert np.all(np.diff(result.distances) >= 0)
            query = znormalize(queries.values[row])
            brute = np.sqrt(np.sort(np.sum((values - query) ** 2, axis=1)))[:4]
            assert np.allclose(np.sort(result.distances), brute, atol=1e-8)


class TestMeasuredRoundShares:
    @pytest.mark.parametrize("threshold", [0.0, np.inf], ids=["tree", "flat"])
    def test_per_query_shares_sum_within_batch_wall_time(self, built_tree, threshold,
                                                         monkeypatch):
        """Each query is charged its share of every round it took part in,
        so the shares of one batch add up to no more than the batch's wall
        time (which every result carries)."""
        tree, queries = built_tree
        _force_path(monkeypatch, threshold)
        batcher = BatchSearcher(tree)
        results = batcher.knn_batch(queries.values, k=3)
        walls = {result.stats.wall_time_s for result in results}
        assert len(walls) == 1
        wall = walls.pop()
        assert all(result.stats.refinement_time > 0.0 for result in results)
        assert sum(result.stats.total_time for result in results) <= wall
