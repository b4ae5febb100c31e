"""Tests for the worker pool and its helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidParameterError
from repro.parallel.pool import (
    NUM_WORKERS_ENV,
    BackgroundTask,
    WorkerPool,
    chunk_indices,
    default_num_workers,
    resolve_num_workers,
)


class TestChunkIndices:
    def test_covers_all_indices(self):
        chunks = chunk_indices(100, 7)
        combined = np.concatenate(chunks)
        assert np.array_equal(np.sort(combined), np.arange(100))

    def test_sizes_differ_by_at_most_one(self):
        sizes = [chunk.size for chunk in chunk_indices(100, 7)]
        assert max(sizes) - min(sizes) <= 1

    @given(total=st.integers(0, 500), num_chunks=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_chunks_are_contiguous_ordered_and_balanced(self, total, num_chunks):
        chunks = chunk_indices(total, num_chunks)
        assert len(chunks) == num_chunks
        assert np.array_equal(np.concatenate(chunks), np.arange(total))
        sizes = [chunk.size for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_arguments(self):
        with pytest.raises(InvalidParameterError):
            chunk_indices(-1, 2)
        with pytest.raises(InvalidParameterError):
            chunk_indices(10, 0)


class TestWorkerPool:
    def test_map_preserves_order(self):
        pool = WorkerPool(num_workers=4)
        assert pool.map(lambda x: x * x, range(10)) == [x * x for x in range(10)]

    def test_single_worker_runs_inline(self):
        pool = WorkerPool(num_workers=1)
        assert pool.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]

    def test_starmap(self):
        pool = WorkerPool(num_workers=2)
        assert pool.starmap(lambda a, b: a - b, [(5, 2), (10, 3)]) == [3, 7]

    def test_invalid_worker_count(self):
        with pytest.raises(InvalidParameterError):
            WorkerPool(num_workers=0)

    def test_many_small_items_preserve_order(self):
        """The queue-drain path handles far more items than workers."""
        pool = WorkerPool(num_workers=3)
        items = list(range(500))
        assert pool.map(lambda x: x * 2, items) == [x * 2 for x in items]

    def test_worker_exception_propagates(self):
        pool = WorkerPool(num_workers=2)

        def explode(x):
            if x == 5:
                raise ValueError("boom")
            return x

        with pytest.raises(ValueError, match="boom"):
            pool.map(explode, range(10))


class TestMapShared:
    def test_every_item_processed_exactly_once(self):
        pool = WorkerPool(num_workers=4)
        states = pool.map_shared(lambda item, state: state.append(item),
                                 range(200), make_state=list)
        assert 1 <= len(states) <= 4
        combined = sorted(item for state in states for item in state)
        assert combined == list(range(200))

    def test_chunks_stay_contiguous(self):
        pool = WorkerPool(num_workers=3)
        states = pool.map_shared(lambda item, state: state.append(item),
                                 range(90), make_state=list, chunk_size=10)
        for state in states:
            for position in range(0, len(state), 10):
                chunk = state[position:position + 10]
                assert chunk == list(range(chunk[0], chunk[0] + len(chunk)))

    def test_single_worker_runs_inline_with_one_state(self):
        pool = WorkerPool(num_workers=1)
        states = pool.map_shared(lambda item, state: state.append(item * 2),
                                 [1, 2, 3], make_state=list)
        assert states == [[2, 4, 6]]

    def test_shared_state_visible_across_workers(self):
        """Workers communicate through closed-over shared structures."""
        import threading

        pool = WorkerPool(num_workers=4)
        total = [0]
        lock = threading.Lock()

        def add(item, state):
            del state
            with lock:
                total[0] += item

        pool.map_shared(add, range(100), make_state=lambda: None)
        assert total[0] == sum(range(100))

    def test_invalid_chunk_size(self):
        with pytest.raises(InvalidParameterError):
            WorkerPool(num_workers=2).map_shared(lambda i, s: None, [1],
                                                 make_state=list, chunk_size=0)

    def test_exception_propagates(self):
        pool = WorkerPool(num_workers=2)

        def explode(item, state):
            del state
            if item == 7:
                raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            pool.map_shared(explode, range(20), make_state=list)

    def test_empty_items(self):
        states = WorkerPool(num_workers=3).map_shared(
            lambda item, state: state.append(item), [], make_state=list)
        assert states == [[]]


class TestPersistentPool:
    def test_executor_reused_across_calls(self):
        pool = WorkerPool(num_workers=3, persistent=True)
        assert pool.map(lambda x: x + 1, range(10)) == list(range(1, 11))
        executor = pool._executor
        assert executor is not None
        assert pool.map(lambda x: x * 2, range(10)) == [x * 2 for x in range(10)]
        assert pool._executor is executor

    def test_non_persistent_keeps_no_executor(self):
        pool = WorkerPool(num_workers=3)
        pool.map(lambda x: x, range(10))
        assert pool._executor is None

    def test_map_shared_on_persistent_pool(self):
        pool = WorkerPool(num_workers=2, persistent=True)
        states = pool.map_shared(lambda item, state: state.append(item),
                                 range(50), make_state=list)
        combined = sorted(item for state in states for item in state)
        assert combined == list(range(50))


class TestDefaultNumWorkers:
    def test_unset_env_means_one(self, monkeypatch):
        monkeypatch.delenv(NUM_WORKERS_ENV, raising=False)
        assert default_num_workers() == 1
        assert resolve_num_workers(None) == 1

    def test_env_sets_default(self, monkeypatch):
        monkeypatch.setenv(NUM_WORKERS_ENV, "4")
        assert default_num_workers() == 4
        assert resolve_num_workers(None) == 4
        assert WorkerPool(num_workers=None).num_workers == 4

    def test_explicit_value_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(NUM_WORKERS_ENV, "4")
        assert resolve_num_workers(2) == 2

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_invalid_env_values_raise(self, monkeypatch, value):
        monkeypatch.setenv(NUM_WORKERS_ENV, value)
        with pytest.raises(InvalidParameterError):
            default_num_workers()

    def test_invalid_explicit_value_raises(self):
        with pytest.raises(InvalidParameterError):
            resolve_num_workers(0)


class TestBackgroundTask:
    def test_returns_result(self):
        task = BackgroundTask(lambda: 41 + 1)
        assert task.wait(timeout=10.0) == 42
        assert task.done()

    def test_reraises_failure(self):
        def boom():
            raise ValueError("intentional")

        task = BackgroundTask(boom)
        with pytest.raises(ValueError, match="intentional"):
            task.wait(timeout=10.0)

    def test_overlaps_with_caller(self):
        import threading

        gate = threading.Event()
        task = BackgroundTask(lambda: (gate.wait(10.0), "done")[1])
        assert not task.done()  # still parked on the gate
        with pytest.raises(TimeoutError):
            task.wait(timeout=0.01)
        gate.set()
        assert task.wait(timeout=10.0) == "done"
