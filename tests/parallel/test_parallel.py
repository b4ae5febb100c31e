"""Tests for the background task and the chunking helper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidParameterError
from repro.parallel.pool import BackgroundTask, chunk_indices


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
