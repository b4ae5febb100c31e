"""API-contract regression tests for the query surface.

The serving layer maps typed errors to HTTP statuses, which only works if the
query entry points never leak bare ``TypeError``/``ValueError``/``RuntimeError``
for documented failure modes.  These tests pin that contract:

* ``nearest_neighbor`` accepts and forwards ``timeout_s`` on every wrapper
  (``SofaIndex``, ``MessiIndex``, ``DynamicIndex``, ``ExactSearcher``), and an
  expired budget sets ``stats.timed_out``;
* malformed ``k`` / ``timeout_s`` / query inputs raise types from
  :mod:`repro.core.errors` on every entry point;
* an empty query batch (shape ``(0, l)``) contractually returns ``[]`` on both
  the static and the dynamic engines;
* ``knn_batch`` handles its input the same way on all five engines
  (``SofaIndex``, ``MessiIndex``, ``DynamicIndex``, ``ShardedIndex``,
  ``ClusterIndex``): they share one ``validated_queries``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterIndex
from repro.core.errors import (
    InvalidParameterError,
    ReproError,
    SearchError,
    ValidationError,
)
from repro.datasets.synthetic import random_walk
from repro.index.batch_search import BatchSearcher
from repro.index.messi import MessiIndex
from repro.index.sharded import ShardedIndex
from repro.index.sofa import SofaIndex

SERIES_LENGTH = 64


@pytest.fixture(scope="module")
def sofa_index():
    rows = random_walk(300, SERIES_LENGTH, seed=501)
    return SofaIndex(word_length=8, alphabet_size=16, leaf_size=10).build(rows)


@pytest.fixture(scope="module")
def messi_index():
    rows = random_walk(300, SERIES_LENGTH, seed=502)
    return MessiIndex(word_length=8, alphabet_size=16, leaf_size=10).build(rows)


@pytest.fixture(scope="module")
def dynamic_index():
    rows = random_walk(300, SERIES_LENGTH, seed=503)
    dynamic = SofaIndex(word_length=8, alphabet_size=16,
                        leaf_size=10).build(rows).dynamic()
    dynamic.insert_batch(random_walk(10, SERIES_LENGTH, seed=504))
    dynamic.delete(0)
    return dynamic


def _small_sofa():
    return SofaIndex(word_length=8, alphabet_size=16, leaf_size=10)


@pytest.fixture(scope="module")
def sharded_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "shards"
    ShardedIndex.build(random_walk(300, SERIES_LENGTH, seed=506), path,
                       num_shards=2, index_factory=_small_sofa).close()
    return path


@pytest.fixture(scope="module")
def sharded_index(sharded_path):
    index = ShardedIndex.load(sharded_path)
    yield index
    index.close()


@pytest.fixture(scope="module")
def cluster_index(sharded_path):
    index = ClusterIndex.launch(sharded_path, start_timeout_s=60.0)
    yield index
    index.close()


ALL_ENGINES = ["sofa_index", "messi_index", "dynamic_index", "sharded_index",
               "cluster_index"]


@pytest.fixture(scope="module")
def query():
    return random_walk(1, SERIES_LENGTH, seed=505)[0]


# ------------------------------------------- nearest_neighbor timeout budget


class TestNearestNeighborTimeout:
    def test_sofa_forwards_timeout(self, sofa_index, query):
        rushed = sofa_index.nearest_neighbor(query, timeout_s=1e-9)
        assert rushed.stats.timed_out is True

    def test_messi_forwards_timeout(self, messi_index, query):
        rushed = messi_index.nearest_neighbor(query, timeout_s=1e-9)
        assert rushed.stats.timed_out is True

    def test_dynamic_forwards_timeout(self, dynamic_index, query):
        rushed = dynamic_index.nearest_neighbor(query, timeout_s=1e-9)
        assert rushed.stats.timed_out is True

    def test_searcher_forwards_timeout(self, sofa_index, query):
        rushed = sofa_index._require_built().nearest_neighbor(
            query, timeout_s=1e-9)
        assert rushed.stats.timed_out is True

    @pytest.mark.parametrize("index_fixture",
                             ["sofa_index", "messi_index", "dynamic_index"])
    def test_generous_budget_is_bit_identical(self, index_fixture, query,
                                              request):
        index = request.getfixturevalue(index_fixture)
        full = index.nearest_neighbor(query)
        relaxed = index.nearest_neighbor(query, timeout_s=3600.0)
        assert relaxed.stats.timed_out is False
        np.testing.assert_array_equal(full.indices, relaxed.indices)
        np.testing.assert_array_equal(full.distances, relaxed.distances)

    def test_timed_out_answer_is_exact_where_reported(self, sofa_index, query):
        from repro.core.normalization import znormalize

        rushed = sofa_index.nearest_neighbor(query, timeout_s=1e-9)
        values = sofa_index.tree.dataset.values
        normalized = znormalize(query)
        for row, distance in zip(rushed.indices, rushed.distances):
            exact = float(np.sqrt(np.sum((values[row] - normalized) ** 2)))
            assert distance == pytest.approx(exact, abs=1e-9)


# --------------------------------------------------- typed input validation


class TestTypedKValidation:
    """Malformed ``k`` raises from the typed hierarchy on every entry point."""

    @pytest.mark.parametrize("bad_k", ["3", 2.5, None, [3]])
    def test_knn_rejects_non_integral_k(self, sofa_index, query, bad_k):
        with pytest.raises(ValidationError, match="k must be an integer"):
            sofa_index.knn(query, k=bad_k)

    @pytest.mark.parametrize("bad_k", ["3", 2.5, None])
    def test_knn_batch_rejects_non_integral_k(self, sofa_index, query, bad_k):
        with pytest.raises(ValidationError, match="k must be an integer"):
            sofa_index.knn_batch(query[None, :], k=bad_k)

    @pytest.mark.parametrize("bad_k", ["3", 2.5])
    def test_dynamic_rejects_non_integral_k(self, dynamic_index, query, bad_k):
        with pytest.raises(ValidationError):
            dynamic_index.knn(query, k=bad_k)
        with pytest.raises(ValidationError):
            dynamic_index.knn_batch(query[None, :], k=bad_k)

    def test_out_of_range_k_keeps_search_error(self, sofa_index, messi_index,
                                               query):
        for index in (sofa_index, messi_index):
            with pytest.raises(SearchError, match="k must be >= 1"):
                index.knn(query, k=0)
            with pytest.raises(SearchError, match="k must be >= 1"):
                index.knn_batch(query[None, :], k=-2)


class TestTypedTimeoutValidation:
    @pytest.mark.parametrize("bad_timeout", ["1", [1.0]])
    def test_knn_rejects_non_numeric_timeout(self, sofa_index, query,
                                             bad_timeout):
        with pytest.raises(ValidationError, match="timeout_s must be a number"):
            sofa_index.knn(query, timeout_s=bad_timeout)
        with pytest.raises(ValidationError, match="timeout_s must be a number"):
            sofa_index.knn_batch(query[None, :], timeout_s=bad_timeout)

    @pytest.mark.parametrize("bad_timeout", [0, -1.5, float("nan")])
    def test_non_positive_timeout_keeps_invalid_parameter(self, sofa_index,
                                                          query, bad_timeout):
        with pytest.raises(InvalidParameterError, match="timeout_s"):
            sofa_index.knn(query, timeout_s=bad_timeout)

    def test_nearest_neighbor_validates_timeout(self, dynamic_index, query):
        with pytest.raises(ValidationError):
            dynamic_index.nearest_neighbor(query, timeout_s="soon")


class TestEveryDocumentedFailureIsTyped:
    """Sweep the documented failure modes: all must raise ``ReproError``."""

    def failure_calls(self, index, query):
        length = SERIES_LENGTH
        return [
            lambda: index.knn(query, k="3"),
            lambda: index.knn(query, k=0),
            lambda: index.knn(query, k=10 ** 9),
            lambda: index.knn(None),
            lambda: index.knn([[1.0, 2.0], [3.0]]),
            lambda: index.knn(np.full(length, np.nan)),
            lambda: index.knn(np.zeros(length + 1)),
            lambda: index.knn(query, timeout_s="1"),
            lambda: index.knn(query, timeout_s=0),
            lambda: index.knn(query, num_workers=0),
            lambda: index.knn_batch(query[None, :], k=2.5),
            lambda: index.knn_batch(None),
            lambda: index.knn_batch([[1.0, 2.0], [3.0]]),
            lambda: index.knn_batch(np.full((2, length), np.inf)),
            lambda: index.knn_batch(np.zeros((2, length + 3))),
            lambda: index.knn_batch(query[None, :], timeout_s=-1),
        ]

    @pytest.mark.parametrize("index_fixture",
                             ["sofa_index", "messi_index", "dynamic_index"])
    def test_static_and_dynamic_surfaces(self, index_fixture, query, request):
        index = request.getfixturevalue(index_fixture)
        for position, call in enumerate(self.failure_calls(index, query)):
            with pytest.raises(ReproError):
                call()


# ----------------------------------------------------- empty-batch contract


class TestEmptyBatchContract:
    def test_static_engines_return_empty_list(self, sofa_index, messi_index):
        empty = np.empty((0, SERIES_LENGTH))
        assert sofa_index.knn_batch(empty, k=3) == []
        assert messi_index.knn_batch(empty, k=3) == []

    def test_batch_searcher_returns_empty_list(self, sofa_index):
        searcher = BatchSearcher(sofa_index.tree)
        assert searcher.knn_batch(np.empty((0, SERIES_LENGTH)), k=2) == []

    def test_dynamic_engine_returns_empty_list(self, dynamic_index):
        empty = np.empty((0, SERIES_LENGTH))
        assert dynamic_index.knn_batch(empty, k=3) == []

    def test_empty_batch_with_workers(self, sofa_index):
        empty = np.empty((0, SERIES_LENGTH))
        assert sofa_index.knn_batch(empty, k=1, num_workers=4) == []

    def test_empty_batch_still_validates_inputs(self, sofa_index):
        with pytest.raises(ValidationError):
            sofa_index.knn_batch(np.empty((0, SERIES_LENGTH + 1)), k=1)
        with pytest.raises(ValidationError):
            sofa_index.knn_batch(np.empty((0, SERIES_LENGTH)), k="1")


# ------------------------------------------ knn_batch input, on every engine


@pytest.mark.parametrize("index_fixture", ALL_ENGINES)
class TestBatchInputContract:
    def test_one_1d_query_is_a_batch_of_one(self, index_fixture, query,
                                            request):
        index = request.getfixturevalue(index_fixture)
        (alone,) = index.knn_batch(query, k=3)
        (boxed,) = index.knn_batch(query[None, :], k=3)
        single = index.knn(query, k=3)
        for result in (alone, boxed):
            np.testing.assert_array_equal(result.indices, single.indices)
            np.testing.assert_array_equal(result.distances, single.distances)

    def test_empty_batch_returns_empty_list(self, index_fixture, request):
        index = request.getfixturevalue(index_fixture)
        assert index.knn_batch(np.empty((0, SERIES_LENGTH)), k=3) == []

    @pytest.mark.parametrize("bad", [
        np.full((2, SERIES_LENGTH), np.nan),
        np.zeros((2, SERIES_LENGTH + 3)),
        np.zeros(SERIES_LENGTH + 1),
        np.empty((0, SERIES_LENGTH + 1)),
        [[1.0, 2.0], [3.0]],
        None,
        "not numbers",
    ], ids=["nan", "wrong-length", "wrong-length-1d", "wrong-length-empty",
            "ragged", "none", "text"])
    def test_malformed_batches_raise_validation_error(self, index_fixture,
                                                      bad, request):
        index = request.getfixturevalue(index_fixture)
        with pytest.raises(ValidationError):
            index.knn_batch(bad, k=1)
