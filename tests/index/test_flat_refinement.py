"""Tests for the flat filter-and-refine path and the grouped leaf refinement.

The exact searcher has three refinement strategies (per-leaf, grouped leaves,
and a flat per-series path used when the tree degenerates into singleton
leaves).  These tests pin down that all strategies return identical, exact
answers and that the degenerate-tree detection behaves as documented.
"""

import numpy as np
import pytest

import repro.index.search
from repro.baselines.serial_scan import SerialScan
from repro.core.series import Dataset
from repro.datasets.registry import load_dataset
from repro.datasets.synthetic import clustered, smooth_signal
from repro.index.search import ExactSearcher
from repro.index.sofa import SofaIndex
from repro.index.tree import TreeIndex
from repro.transforms.sfa import SFA


@pytest.fixture(scope="module")
def degenerate_setup():
    """A smooth dataset on which the SFA tree shatters into singleton leaves."""
    values = clustered(smooth_signal, 500, 128, num_clusters=25,
                       within_cluster_noise=0.25, seed=5, cutoff_fraction=0.05)
    dataset = Dataset(values, name="smooth-degenerate")
    index_set, queries = dataset.split(15, rng=np.random.default_rng(1))
    tree = TreeIndex(SFA(word_length=16, alphabet_size=256, sample_fraction=1.0),
                     leaf_size=50)
    tree.build(index_set)
    return tree, index_set, queries


class TestFlatPathExactness:
    def test_tree_is_actually_degenerate(self, degenerate_setup):
        tree, _, _ = degenerate_setup
        assert tree.average_leaf_size < 1.5

    def test_flat_and_leafwise_paths_agree(self, degenerate_setup, monkeypatch):
        tree, index_set, queries = degenerate_setup
        searcher = ExactSearcher(tree)
        for query in queries.values:
            monkeypatch.setattr(repro.index.search,
                                "FLAT_REFINEMENT_THRESHOLD", 1.5)
            flat_result = searcher.knn(query, k=3)
            monkeypatch.setattr(repro.index.search,
                                "FLAT_REFINEMENT_THRESHOLD", 0.0)
            leafwise_result = searcher.knn(query, k=3)
            assert np.allclose(flat_result.distances, leafwise_result.distances)
            assert np.array_equal(flat_result.indices, leafwise_result.indices)

    def test_flat_path_matches_brute_force(self, degenerate_setup):
        tree, index_set, queries = degenerate_setup
        searcher = ExactSearcher(tree)
        scan = SerialScan().build(index_set)
        for query in queries.values:
            _, expected = scan.knn(query, k=5)
            result = searcher.knn(query, k=5)
            assert np.allclose(result.distances, expected, atol=1e-8)

    def test_flat_path_has_no_duplicate_answers(self, degenerate_setup):
        tree, _, queries = degenerate_setup
        searcher = ExactSearcher(tree)
        result = searcher.knn(queries[0], k=10)
        assert len(set(result.indices.tolist())) == 10

    def test_flat_path_records_block_work(self, degenerate_setup, monkeypatch):
        tree, _, queries = degenerate_setup
        monkeypatch.setattr(repro.index.search, "FLAT_REFINEMENT_THRESHOLD", 1.5)
        searcher = ExactSearcher(tree)
        stats = searcher.knn(queries[0], k=1).stats
        assert stats.series_lower_bounds == tree.num_series
        assert stats.exact_distances >= 1
        assert stats.refinement_time > 0.0


class TestAllSeriesLowerBounds:
    def test_bounds_are_valid_for_every_series(self, degenerate_setup):
        from repro.core.distance import squared_euclidean_batch

        tree, index_set, queries = degenerate_setup
        query = queries[0]
        summary = tree.summarization.transform(query)
        bounds, rows = tree.all_series_lower_bounds(summary)
        true = squared_euclidean_batch(query, index_set.values[rows])
        assert bounds.shape == rows.shape
        assert np.all(bounds <= true + 1e-9)

    def test_rows_cover_every_series_once(self, degenerate_setup):
        tree, _, queries = degenerate_setup
        summary = tree.summarization.transform(queries[0])
        _, rows = tree.all_series_lower_bounds(summary)
        assert np.array_equal(np.sort(rows), np.arange(tree.num_series))


class TestGroupedRefinement:
    def test_grouped_path_is_exact_on_clustered_data(self):
        """On a dataset with many small (but not singleton) leaves the grouped
        refinement path is taken and must stay exact."""
        dataset = load_dataset("OBS", num_series=800, seed=9)
        index_set, queries = dataset.split(10, rng=np.random.default_rng(2))
        index = SofaIndex(leaf_size=100).build(index_set)
        scan = SerialScan().build(index_set)
        for query in queries.values:
            _, expected = scan.nearest_neighbor(query)
            assert index.nearest_neighbor(query).nearest_distance == pytest.approx(
                expected, abs=1e-8)

    def test_threshold_zero_disables_flat_path(self, degenerate_setup,
                                               monkeypatch):
        tree, _, queries = degenerate_setup
        monkeypatch.setattr(repro.index.search, "FLAT_REFINEMENT_THRESHOLD", 0.0)
        searcher = ExactSearcher(tree)
        stats = searcher.knn(queries[0], k=1).stats
        # The leaf-wise path reports visited leaves; the flat path does not.
        assert stats.leaves_visited >= 1
