"""Tests for the index facades' ``knn_batch`` helper."""

import numpy as np
import pytest

from repro.index.sofa import SofaIndex


@pytest.fixture(scope="module")
def built_index(clustered_index_and_queries):
    index_set, queries = clustered_index_and_queries
    return SofaIndex(leaf_size=40).build(index_set), index_set, queries


class TestKnnBatch:
    def test_batch_matches_single_queries(self, built_index):
        index, _, queries = built_index
        batch = index.knn_batch(queries.values[:6], k=2)
        assert len(batch) == 6
        for row, result in enumerate(batch):
            single = index.knn(queries.values[row], k=2)
            assert np.allclose(result.distances, single.distances)
            assert np.array_equal(result.indices, single.indices)

    def test_single_query_input_is_promoted(self, built_index):
        index, _, queries = built_index
        batch = index.knn_batch(queries[0], k=1)
        assert len(batch) == 1
        assert batch[0].distances.shape == (1,)
