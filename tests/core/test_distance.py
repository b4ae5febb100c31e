"""Tests for the Euclidean distance kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.distance import (
    euclidean,
    pairwise_squared_euclidean,
    squared_euclidean,
    squared_euclidean_batch,
    squared_euclidean_batch_abandon,
    squared_euclidean_early_abandon,
)


class TestSquaredEuclidean:
    def test_identical_series_is_zero(self):
        series = np.arange(10, dtype=float)
        assert squared_euclidean(series, series) == 0.0

    def test_known_value(self):
        a = np.array([0.0, 0.0, 0.0])
        b = np.array([1.0, 2.0, 2.0])
        assert squared_euclidean(a, b) == pytest.approx(9.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((2, 30))
        assert squared_euclidean(a, b) == pytest.approx(squared_euclidean(b, a))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            squared_euclidean(np.zeros(3), np.zeros(4))

    def test_euclidean_is_sqrt_of_squared(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((2, 16))
        assert euclidean(a, b) == pytest.approx(np.sqrt(squared_euclidean(a, b)))


class TestEarlyAbandon:
    def test_equals_full_distance_with_infinite_threshold(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((2, 100))
        full = squared_euclidean(a, b)
        assert squared_euclidean_early_abandon(a, b, np.inf) == pytest.approx(full)

    def test_abandon_returns_value_above_threshold(self):
        a = np.zeros(100)
        b = np.ones(100)
        result = squared_euclidean_early_abandon(a, b, threshold=5.0, chunk=10)
        assert result > 5.0
        assert result <= 100.0

    def test_small_chunk_still_exact_when_under_threshold(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 37))
        full = squared_euclidean(a, b)
        assert squared_euclidean_early_abandon(a, b, full + 1.0, chunk=3) == pytest.approx(full)

    def test_invalid_chunk_raises(self):
        with pytest.raises(ValueError):
            squared_euclidean_early_abandon(np.zeros(4), np.zeros(4), 1.0, chunk=0)


class TestBatchDistances:
    def test_batch_matches_loop(self):
        rng = np.random.default_rng(6)
        query = rng.standard_normal(32)
        collection = rng.standard_normal((20, 32))
        batch = squared_euclidean_batch(query, collection)
        loop = np.array([squared_euclidean(query, row) for row in collection])
        assert np.allclose(batch, loop)

    def test_batch_non_negative(self):
        rng = np.random.default_rng(7)
        query = rng.standard_normal(16)
        collection = np.vstack([query] * 5)
        assert (squared_euclidean_batch(query, collection) >= 0).all()

    def test_batch_shape_validation(self):
        with pytest.raises(ValueError):
            squared_euclidean_batch(np.zeros(4), np.zeros((3, 5)))

    def test_pairwise_matches_batch(self):
        rng = np.random.default_rng(8)
        queries = rng.standard_normal((5, 24))
        collection = rng.standard_normal((11, 24))
        pairwise = pairwise_squared_euclidean(queries, collection)
        assert pairwise.shape == (5, 11)
        for i, query in enumerate(queries):
            assert np.allclose(pairwise[i], squared_euclidean_batch(query, collection))

    def test_pairwise_shape_validation(self):
        with pytest.raises(ValueError):
            pairwise_squared_euclidean(np.zeros((2, 3)), np.zeros((4, 5)))


class TestBatchAbandon:
    """The blocked early-abandoning batch kernel (long-series refinement)."""

    def test_infinite_threshold_matches_plain_kernel(self):
        rng = np.random.default_rng(9)
        query = rng.standard_normal(300)
        collection = rng.standard_normal((25, 300))
        abandoned = squared_euclidean_batch_abandon(query, collection, np.inf)
        assert np.allclose(abandoned, squared_euclidean_batch(query, collection),
                           atol=1e-9)

    def test_survivors_exact_and_abandoned_above_threshold(self):
        rng = np.random.default_rng(10)
        query = rng.standard_normal(400)
        collection = rng.standard_normal((60, 400))
        true = squared_euclidean_batch(query, collection)
        threshold = float(np.median(true))
        result = squared_euclidean_batch_abandon(query, collection, threshold,
                                                 chunk=32)
        for value, exact in zip(result, true):
            if value <= threshold:
                assert value == pytest.approx(exact, rel=1e-12)
            else:
                assert value > threshold  # disqualified, exact value not needed

    def test_survivor_values_do_not_depend_on_threshold_or_blocking(self):
        """The bit-identity contract: a surviving row's value is a function of
        (query, row) alone — not of the threshold, nor of the other rows in
        the call."""
        rng = np.random.default_rng(11)
        query = rng.standard_normal(512)
        collection = rng.standard_normal((40, 512))
        loose = squared_euclidean_batch_abandon(query, collection, np.inf)
        true_order = np.argsort(loose)
        tight = squared_euclidean_batch_abandon(query, collection,
                                                float(loose[true_order[10]]))
        surviving = tight <= loose[true_order[10]]
        assert surviving.any()
        assert np.array_equal(tight[surviving], loose[surviving])
        # Single-row calls see the same values as the full-batch call.
        for row in np.flatnonzero(surviving)[:5]:
            alone = squared_euclidean_batch_abandon(query, collection[row][None, :],
                                                    np.inf)
            assert alone[0] == loose[row]

    def test_empty_collection(self):
        result = squared_euclidean_batch_abandon(np.zeros(8), np.empty((0, 8)), 1.0)
        assert result.shape == (0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            squared_euclidean_batch_abandon(np.zeros(4), np.zeros((3, 5)), 1.0)
        with pytest.raises(ValueError):
            squared_euclidean_batch_abandon(np.zeros((2, 4)), np.zeros((3, 4)), 1.0)
        with pytest.raises(ValueError):
            squared_euclidean_batch_abandon(np.zeros(4), np.zeros((3, 4)), 1.0,
                                            chunk=0)

    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=1, max_value=96))
    @settings(max_examples=40, deadline=None)
    def test_property_never_underestimates(self, seed, chunk):
        rng = np.random.default_rng(seed)
        query = rng.standard_normal(120)
        collection = rng.standard_normal((12, 120))
        true = squared_euclidean_batch(query, collection)
        threshold = float(rng.uniform(0, true.max() + 1e-9))
        result = squared_euclidean_batch_abandon(query, collection, threshold,
                                                 chunk=chunk)
        for value, exact in zip(result, true):
            assert value == pytest.approx(exact, rel=1e-9) or value > threshold


@given(arrays(np.float64, st.integers(min_value=2, max_value=64),
              elements=st.floats(min_value=-100, max_value=100,
                                 allow_nan=False, allow_infinity=False)),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_early_abandon_never_underestimates(series, seed):
    """Early abandoning either returns the exact value or something >= threshold."""
    rng = np.random.default_rng(seed)
    other = rng.standard_normal(series.shape[0])
    full = squared_euclidean(series, other)
    threshold = full / 2 if full > 0 else 1.0
    result = squared_euclidean_early_abandon(series, other, threshold, chunk=7)
    assert result == pytest.approx(full) or result >= threshold
