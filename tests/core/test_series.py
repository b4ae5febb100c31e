"""Tests for the Dataset container."""

import numpy as np
import pytest

from repro.core.errors import DatasetError
from repro.core.normalization import is_znormalized
from repro.core.series import Dataset, GrowableArray


class TestConstruction:
    def test_normalizes_by_default(self, small_matrix):
        dataset = Dataset(small_matrix)
        assert is_znormalized(dataset.values)

    def test_normalize_false_keeps_raw_values(self, small_matrix):
        dataset = Dataset(small_matrix, normalize=False)
        assert np.allclose(dataset.values, small_matrix)

    def test_1d_input_becomes_single_row(self):
        dataset = Dataset(np.arange(16, dtype=float))
        assert dataset.num_series == 1
        assert dataset.series_length == 16

    def test_rejects_3d_input(self):
        with pytest.raises(DatasetError):
            Dataset(np.zeros((2, 3, 4)))

    def test_rejects_empty(self):
        with pytest.raises(DatasetError):
            Dataset(np.zeros((0, 10)))

    def test_rejects_nan(self):
        values = np.ones((3, 5))
        values[1, 2] = np.nan
        with pytest.raises(DatasetError):
            Dataset(values)

    def test_rejects_infinite(self):
        values = np.ones((3, 5))
        values[0, 0] = np.inf
        with pytest.raises(DatasetError):
            Dataset(values)

    def test_metadata_defaults_to_empty_dict(self, small_matrix):
        assert Dataset(small_matrix).metadata == {}


class TestAccessors:
    def test_len_and_getitem(self, small_matrix):
        dataset = Dataset(small_matrix)
        assert len(dataset) == small_matrix.shape[0]
        assert dataset[0].shape == (small_matrix.shape[1],)


class TestSplit:
    def test_split_sizes(self, walk_dataset):
        index_set, queries = walk_dataset.split(10, rng=np.random.default_rng(0))
        assert queries.num_series == 10
        assert index_set.num_series == walk_dataset.num_series - 10

    def test_split_is_disjoint_and_covering(self, walk_dataset):
        index_set, queries = walk_dataset.split(15, rng=np.random.default_rng(2))
        combined = np.vstack([index_set.values, queries.values])
        original_sorted = np.sort(walk_dataset.values.sum(axis=1))
        combined_sorted = np.sort(combined.sum(axis=1))
        assert np.allclose(original_sorted, combined_sorted)

    def test_split_invalid_count_raises(self, walk_dataset):
        with pytest.raises(DatasetError):
            walk_dataset.split(0)
        with pytest.raises(DatasetError):
            walk_dataset.split(walk_dataset.num_series)

    def test_split_deterministic_with_seeded_rng(self, walk_dataset):
        first = walk_dataset.split(5, rng=np.random.default_rng(42))
        second = walk_dataset.split(5, rng=np.random.default_rng(42))
        assert np.allclose(first[0].values, second[0].values)
        assert np.allclose(first[1].values, second[1].values)


class TestGrowableArray:
    def test_starts_empty(self):
        buffer = GrowableArray((4,))
        assert len(buffer) == 0
        assert buffer.view.shape == (0, 4)

    def test_append_returns_start_positions(self):
        buffer = GrowableArray((3,))
        assert buffer.append(np.ones((2, 3))) == 0
        assert buffer.append(np.zeros((5, 3))) == 2
        assert len(buffer) == 7

    def test_view_is_zero_copy(self):
        buffer = GrowableArray((2,))
        buffer.append(np.arange(6, dtype=float).reshape(3, 2))
        view = buffer.view
        assert view.base is buffer._data
        np.testing.assert_array_equal(view, np.arange(6).reshape(3, 2))

    def test_amortized_doubling(self):
        buffer = GrowableArray((1,))
        reallocations = 0
        backing = buffer._data
        for _ in range(1024):
            buffer.append(np.zeros((1, 1)))
            if buffer._data is not backing:
                reallocations += 1
                backing = buffer._data
        # 1024 single-row appends trigger only O(log n) reallocations.
        assert reallocations <= 10
        assert buffer.capacity >= 1024

    def test_growth_preserves_earlier_views(self):
        buffer = GrowableArray((2,))
        buffer.append(np.full((1, 2), 7.0))
        early_view = buffer.view
        buffer.append(np.zeros((100, 2)))  # forces reallocation
        np.testing.assert_array_equal(early_view, [[7.0, 7.0]])

    def test_single_row_and_scalar_rows(self):
        matrix = GrowableArray((3,))
        matrix.append(np.arange(3, dtype=float))  # a bare row is accepted
        assert matrix.view.shape == (1, 3)
        flags = GrowableArray((), dtype=bool)
        flags.append(np.array([True, False]))
        assert flags.view.tolist() == [True, False]

    def test_shape_mismatch_raises(self):
        buffer = GrowableArray((4,))
        with pytest.raises(DatasetError):
            buffer.append(np.zeros((2, 5)))

    def test_negative_capacity_raises(self):
        with pytest.raises(DatasetError):
            GrowableArray((2,), capacity=-1)
