"""Tests for the scan and brute-force baselines."""

import numpy as np
import pytest

from repro.baselines.flatl2 import FlatL2Index
from repro.baselines.serial_scan import SerialScan
from repro.baselines.ucr_suite import UcrSuiteScan
from repro.core.errors import SearchError, ValidationError


class TestSerialScan:
    def test_requires_build(self):
        with pytest.raises(SearchError):
            SerialScan().knn(np.zeros(8))

    def test_self_query_returns_zero_distance(self, walk_dataset):
        scan = SerialScan().build(walk_dataset)
        index, distance = scan.nearest_neighbor(walk_dataset[5])
        assert index == 5
        assert distance == pytest.approx(0.0, abs=1e-9)

    def test_knn_distances_sorted(self, walk_dataset):
        scan = SerialScan().build(walk_dataset)
        _, distances = scan.knn(walk_dataset[0], k=10)
        assert np.all(np.diff(distances) >= 0)

    def test_invalid_k(self, walk_dataset):
        scan = SerialScan().build(walk_dataset)
        with pytest.raises(SearchError):
            scan.knn(walk_dataset[0], k=0)


class TestUcrSuiteScan:
    def test_matches_serial_scan(self, clustered_index_and_queries):
        index_set, queries = clustered_index_and_queries
        reference = SerialScan().build(index_set)
        ucr = UcrSuiteScan(block_size=16).build(index_set)
        for query in queries.values[:10]:
            _, expected = reference.nearest_neighbor(query)
            result = ucr.nearest_neighbor(query)
            assert result.distances[0] == pytest.approx(expected, abs=1e-8)

    def test_knn_matches_serial_scan(self, clustered_index_and_queries):
        index_set, queries = clustered_index_and_queries
        reference = SerialScan().build(index_set)
        ucr = UcrSuiteScan().build(index_set)
        for query in queries.values[:5]:
            _, expected = reference.knn(query, k=5)
            result = ucr.knn(query, k=5)
            assert np.allclose(result.distances, expected, atol=1e-8)

    def test_scans_every_series_once(self, walk_dataset):
        ucr = UcrSuiteScan(block_size=7).build(walk_dataset)
        result = ucr.nearest_neighbor(walk_dataset[0])
        assert result.stats.exact_distances == walk_dataset.num_series

    def test_early_abandoning_happens_on_clustered_data(self, clustered_index_and_queries):
        index_set, queries = clustered_index_and_queries
        ucr = UcrSuiteScan(block_size=8).build(index_set)
        result = ucr.nearest_neighbor(queries[0])
        assert result.stats.early_abandons > 0

    def test_invalid_parameters(self):
        with pytest.raises(SearchError):
            UcrSuiteScan(block_size=0)

    def test_requires_build(self):
        with pytest.raises(SearchError):
            UcrSuiteScan().knn(np.zeros(8))


class TestFlatL2Index:
    def test_single_query_matches_serial_scan(self, clustered_index_and_queries):
        index_set, queries = clustered_index_and_queries
        reference = SerialScan().build(index_set)
        flat = FlatL2Index(batch_size=8).build(index_set)
        for query in queries.values[:10]:
            _, expected = reference.nearest_neighbor(query)
            index, distance = flat.nearest_neighbor(query)
            assert distance == pytest.approx(expected, abs=1e-8)

    def test_batch_search_shapes(self, clustered_index_and_queries):
        index_set, queries = clustered_index_and_queries
        flat = FlatL2Index(batch_size=6).build(index_set)
        result = flat.search(queries.values, k=3)
        assert result.indices.shape == (queries.num_series, 3)
        assert result.distances.shape == (queries.num_series, 3)
        assert result.stats.num_queries == queries.num_series

    def test_batch_results_match_per_query_results(self, clustered_index_and_queries):
        index_set, queries = clustered_index_and_queries
        flat = FlatL2Index(batch_size=4).build(index_set)
        batch = flat.search(queries.values[:8], k=2)
        for row in range(8):
            indices, distances = flat.knn(queries.values[row], k=2)
            assert np.allclose(batch.distances[row], distances, atol=1e-8)

    def test_k_equal_to_collection_size(self, walk_dataset):
        flat = FlatL2Index().build(walk_dataset)
        _, distances = flat.knn(walk_dataset[0], k=walk_dataset.num_series)
        assert distances.shape == (walk_dataset.num_series,)
        assert np.all(np.diff(distances) >= 0)

    def test_build_time_recorded(self, walk_dataset):
        flat = FlatL2Index().build(walk_dataset)
        assert flat.build_time >= 0.0

    def test_validation(self, walk_dataset):
        flat = FlatL2Index().build(walk_dataset)
        with pytest.raises(SearchError):
            flat.search(np.zeros((2, walk_dataset.series_length + 1)))
        with pytest.raises(SearchError):
            flat.knn(walk_dataset[0], k=0)
        with pytest.raises(SearchError):
            FlatL2Index(batch_size=0)
        with pytest.raises(SearchError):
            FlatL2Index().search(np.zeros((1, 4)))


class TestBaselineAgreement:
    def test_all_baselines_agree(self, lowfreq_index_and_queries):
        """Serial scan, UCR scan and FlatL2 return identical nearest neighbours."""
        index_set, queries = lowfreq_index_and_queries
        serial = SerialScan().build(index_set)
        ucr = UcrSuiteScan().build(index_set)
        flat = FlatL2Index(batch_size=3).build(index_set)
        for query in queries.values[:10]:
            _, expected = serial.nearest_neighbor(query)
            assert ucr.nearest_neighbor(query).distances[0] == pytest.approx(expected, abs=1e-8)
            assert flat.nearest_neighbor(query)[1] == pytest.approx(expected, abs=1e-8)


BASELINES = {
    "SerialScan": SerialScan,
    "UcrSuiteScan": UcrSuiteScan,
    "FlatL2Index": FlatL2Index,
}


class TestBaselineValidation:
    """Every baseline checks its query and ``k`` like the index engines do:
    typed errors at the boundary, never a bare numpy error or an answer to a
    garbage query."""

    @pytest.fixture(params=sorted(BASELINES))
    def baseline(self, request, walk_dataset):
        return BASELINES[request.param]().build(walk_dataset)

    def test_rejects_all_nan_query(self, baseline, walk_dataset):
        with pytest.raises(ValidationError):
            baseline.knn(np.full(walk_dataset.series_length, np.nan), k=1)

    def test_rejects_missing_query(self, baseline):
        with pytest.raises(ValidationError):
            baseline.knn(None, k=1)

    def test_rejects_wrong_length_query(self, baseline, walk_dataset):
        with pytest.raises(ValidationError):
            baseline.knn(np.zeros(walk_dataset.series_length + 1), k=1)

    def test_rejects_non_integral_k(self, baseline, walk_dataset):
        with pytest.raises(ValidationError):
            baseline.knn(walk_dataset[0], k="3")

    def test_rejects_k_below_one(self, baseline, walk_dataset):
        with pytest.raises(SearchError):
            baseline.knn(walk_dataset[0], k=0)

    def test_flat_l2_batch_rejects_nan_rows(self, walk_dataset):
        flat = FlatL2Index().build(walk_dataset)
        queries = np.zeros((2, walk_dataset.series_length))
        queries[1, 3] = np.nan
        with pytest.raises(ValidationError):
            flat.search(queries, k=1)
