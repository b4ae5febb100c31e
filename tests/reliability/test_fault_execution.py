"""Fault-tolerant execution: search deadlines, background failures, typed validation.

Covers the execution-layer half of the reliability contract:

* ``knn``/``knn_batch`` with ``timeout_s`` degrade gracefully: the best-so-far
  is finalized with ``stats.timed_out=True`` and every reported distance
  stays exact;
* background maintenance failures surface on ``wait()`` with the original
  traceback, and ``wait(timeout=...)`` bounds a hung task;
* garbage inputs (NaN/Inf, wrong dtype, wrong length) raise typed
  :class:`~repro.core.errors.ValidationError` at the API boundary.
"""

from __future__ import annotations

import threading
import traceback

import numpy as np
import pytest

from repro.core.errors import (
    IndexError_,
    InvalidParameterError,
    SearchError,
    ValidationError,
)
from repro.datasets.synthetic import random_walk
from repro.index.messi import MessiIndex
from repro.index.sofa import SofaIndex
from repro.parallel.pool import BackgroundTask

SERIES_LENGTH = 64


@pytest.fixture(scope="module")
def built_index():
    rows = random_walk(300, SERIES_LENGTH, seed=77)
    return MessiIndex(word_length=8, alphabet_size=16, leaf_size=10).build(rows)


@pytest.fixture(scope="module")
def queries():
    return random_walk(4, SERIES_LENGTH, seed=78)


class BoomError(RuntimeError):
    pass


class TestBackgroundTask:
    def test_wait_reraises_with_original_traceback(self):
        def failing():
            raise BoomError("background failure")

        task = BackgroundTask(failing)
        try:
            task.wait()
        except BoomError as error:
            frames = "".join(traceback.format_tb(error.__traceback__))
            assert "failing" in frames
        else:  # pragma: no cover
            pytest.fail("expected BoomError")

    def test_wait_timeout_bounds_a_hung_task_and_is_retriable(self):
        release = threading.Event()
        task = BackgroundTask(lambda: (release.wait(5), "done")[1])
        with pytest.raises(TimeoutError):
            task.wait(timeout=0.05)
        release.set()
        assert task.wait(timeout=5) == "done"

    def test_failed_background_compaction_surfaces_on_wait(self):
        rows = random_walk(8, 32, seed=80)
        dynamic = MessiIndex(word_length=8, alphabet_size=16,
                             leaf_size=4).build(rows).dynamic()
        for row in range(len(rows)):
            dynamic.delete(row)
        task = dynamic.compact_in_background()
        with pytest.raises(IndexError_, match="all deleted"):
            task.wait(timeout=30)


# ---------------------------------------------------------- search deadlines


class TestSearchTimeout:
    def test_invalid_timeout_rejected(self, built_index, queries):
        with pytest.raises(InvalidParameterError, match="timeout_s"):
            built_index.knn(queries[0], k=3, timeout_s=0)
        with pytest.raises(InvalidParameterError, match="timeout_s"):
            built_index.knn_batch(queries, k=3, timeout_s=-1.0)

    def test_expired_deadline_finalizes_best_so_far(self, built_index,
                                                    queries):
        full = built_index.knn(queries[0], k=5)
        assert full.stats.timed_out is False
        rushed = built_index.knn(queries[0], k=5, timeout_s=1e-9)
        assert rushed.stats.timed_out is True
        # Graceful degradation: up to k answers, every distance exact and
        # drawn from the refined set — so each reported pair also appears in
        # the full answer's candidate universe with the same distance.
        assert len(rushed.indices) <= 5
        assert np.all(np.diff(rushed.distances) >= 0)
        values = built_index.tree.dataset.values
        from repro.core.normalization import znormalize

        normalized = znormalize(queries[0])
        for row, distance in zip(rushed.indices, rushed.distances):
            exact = float(np.sqrt(np.sum((values[row] - normalized) ** 2)))
            assert distance == pytest.approx(exact, abs=1e-9)

    def test_generous_deadline_changes_nothing(self, built_index, queries):
        full = built_index.knn(queries[0], k=5)
        relaxed = built_index.knn(queries[0], k=5, timeout_s=3600.0)
        np.testing.assert_array_equal(full.indices, relaxed.indices)
        np.testing.assert_array_equal(full.distances, relaxed.distances)
        assert relaxed.stats.timed_out is False

    def test_batch_timeout_marks_stats_per_query(self, built_index, queries):
        rushed = built_index.knn_batch(queries, k=3, timeout_s=1e-9)
        assert len(rushed) == len(queries)
        assert any(result.stats.timed_out for result in rushed)
        for result in rushed:
            assert len(result.indices) <= 3
            assert np.all(np.diff(result.distances) >= 0)

    def test_batch_generous_deadline_is_bit_identical(self, built_index,
                                                      queries):
        full = built_index.knn_batch(queries, k=3)
        relaxed = built_index.knn_batch(queries, k=3, timeout_s=3600.0)
        for full_result, relaxed_result in zip(full, relaxed):
            np.testing.assert_array_equal(full_result.indices,
                                          relaxed_result.indices)
            np.testing.assert_array_equal(full_result.distances,
                                          relaxed_result.distances)
            assert relaxed_result.stats.timed_out is False

    def test_dynamic_index_threads_timeout(self, queries):
        rows = random_walk(60, SERIES_LENGTH, seed=81)
        dynamic = SofaIndex(word_length=8, alphabet_size=16,
                            leaf_size=8).build(rows).dynamic()
        dynamic.insert_batch(random_walk(5, SERIES_LENGTH, seed=82))
        rushed = dynamic.knn(queries[0], k=3, timeout_s=1e-9)
        assert rushed.stats.timed_out is True
        batch = dynamic.knn_batch(queries[:2], k=3, timeout_s=1e-9)
        assert any(result.stats.timed_out for result in batch)


# ------------------------------------------------------------ input hygiene


class TestInputValidation:
    @pytest.fixture(scope="class")
    def small_dynamic(self):
        rows = random_walk(30, 32, seed=90)
        return MessiIndex(word_length=8, alphabet_size=16,
                          leaf_size=8).build(rows).dynamic()

    def test_knn_rejects_nan_inf_dtype_and_length(self, built_index):
        nan_query = np.zeros(SERIES_LENGTH)
        nan_query[3] = np.nan
        with pytest.raises(ValidationError, match="NaN"):
            built_index.knn(nan_query, k=1)
        inf_query = np.zeros(SERIES_LENGTH)
        inf_query[0] = np.inf
        with pytest.raises(ValidationError, match="NaN or infinite"):
            built_index.knn(inf_query, k=1)
        with pytest.raises(ValidationError, match="length"):
            built_index.knn(np.zeros(SERIES_LENGTH + 1), k=1)
        with pytest.raises(ValidationError, match="not numeric"):
            built_index.knn(np.array(["a"] * SERIES_LENGTH, dtype=object), k=1)

    def test_knn_batch_rejects_nan_and_shape(self, built_index):
        bad = np.zeros((2, SERIES_LENGTH))
        bad[1, 5] = np.nan
        with pytest.raises(ValidationError, match="NaN"):
            built_index.knn_batch(bad, k=1)
        with pytest.raises(ValidationError, match="length"):
            built_index.knn_batch(np.zeros((2, SERIES_LENGTH - 1)), k=1)

    def test_insert_rejects_nan_inf_and_length(self, small_dynamic):
        bad = np.zeros(32)
        bad[0] = np.nan
        with pytest.raises(ValidationError):
            small_dynamic.insert(bad)
        with pytest.raises(ValidationError):
            small_dynamic.insert_batch(np.full((2, 32), np.inf))
        with pytest.raises(ValidationError):
            small_dynamic.insert(np.zeros(31))
        with pytest.raises(ValidationError):
            small_dynamic.insert_batch(
                np.array([["x"] * 32, ["y"] * 32], dtype=object))

    def test_validation_errors_are_both_families(self):
        # Queries historically raised SearchError, writes IndexError_;
        # ValidationError satisfies both catch sites.
        assert issubclass(ValidationError, SearchError)
        assert issubclass(ValidationError, IndexError_)

    def test_validation_leaves_state_unchanged(self, small_dynamic):
        before = (small_dynamic.num_surviving, small_dynamic.delta_count)
        bad = np.zeros(32)
        bad[7] = np.inf
        with pytest.raises(ValidationError):
            small_dynamic.insert(bad)
        assert (small_dynamic.num_surviving,
                small_dynamic.delta_count) == before


def test_timeout_does_not_leak_into_untimed_searches(built_index, queries):
    """A timed-out call must not poison later calls on the same engine."""
    rushed = built_index.knn(queries[1], k=3, timeout_s=1e-9)
    assert rushed.stats.timed_out is True
    calm = built_index.knn(queries[1], k=3)
    assert calm.stats.timed_out is False
    assert len(calm.indices) == 3
