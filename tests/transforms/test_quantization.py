"""Tests for the hierarchical (nested) quantization bins."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidParameterError, NotFittedError
from repro.transforms.quantization import (
    HierarchicalBins,
    equi_depth_breakpoints,
    equi_width_breakpoints,
    gaussian_breakpoints,
)


class TestBreakpointFunctions:
    def test_gaussian_breakpoints_are_symmetric(self):
        breakpoints = gaussian_breakpoints(8)
        assert breakpoints.shape == (7,)
        assert np.allclose(breakpoints, -breakpoints[::-1])

    def test_gaussian_cardinality_two_is_zero(self):
        assert gaussian_breakpoints(2) == pytest.approx([0.0])

    def test_gaussian_invalid_cardinality(self):
        with pytest.raises(InvalidParameterError):
            gaussian_breakpoints(1)

    def test_equi_depth_splits_mass_evenly(self):
        values = np.arange(1000, dtype=float)
        breakpoints = equi_depth_breakpoints(values, 4)
        counts = np.histogram(values, bins=np.concatenate([[-np.inf], breakpoints, [np.inf]]))[0]
        assert np.allclose(counts, 250, atol=1)

    def test_equi_width_splits_range_evenly(self):
        values = np.array([0.0, 10.0])
        breakpoints = equi_width_breakpoints(values, 4)
        assert np.allclose(breakpoints, [2.5, 5.0, 7.5])

    def test_equi_width_degenerate_range(self):
        breakpoints = equi_width_breakpoints(np.full(10, 3.0), 4)
        assert np.allclose(breakpoints, 3.0)

    def test_breakpoints_are_sorted(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(500)
        for maker in (lambda: equi_depth_breakpoints(values, 16),
                      lambda: equi_width_breakpoints(values, 16),
                      lambda: gaussian_breakpoints(16)):
            breakpoints = maker()
            assert np.all(np.diff(breakpoints) >= 0)


class TestHierarchicalBinsFitting:
    def test_requires_fit_before_use(self):
        bins = HierarchicalBins(bits=4, scheme="equi-width")
        with pytest.raises(NotFittedError):
            bins.symbols(np.zeros(3))

    def test_invalid_scheme_raises(self):
        with pytest.raises(InvalidParameterError):
            HierarchicalBins(bits=4, scheme="quantile")

    def test_invalid_bits_raises(self):
        with pytest.raises(InvalidParameterError):
            HierarchicalBins(bits=0)
        with pytest.raises(InvalidParameterError):
            HierarchicalBins(bits=20)

    def test_fit_dimensions_only_for_gaussian(self):
        with pytest.raises(InvalidParameterError):
            HierarchicalBins(bits=4, scheme="equi-width").fit_dimensions(3)
        bins = HierarchicalBins(bits=4, scheme="gaussian").fit_dimensions(3)
        assert bins.num_dimensions == 3

    def test_fit_rejects_1d(self):
        with pytest.raises(InvalidParameterError):
            HierarchicalBins(bits=2, scheme="equi-width").fit(np.zeros(5))

    @pytest.mark.parametrize("scheme", ["gaussian", "equi-depth", "equi-width"])
    def test_cardinality_and_dimensions(self, scheme, rng):
        bins = HierarchicalBins(bits=5, scheme=scheme)
        bins.fit(rng.standard_normal((200, 4)))
        assert bins.cardinality == 32
        assert bins.num_dimensions == 4


class TestSymbols:
    @pytest.mark.parametrize("scheme", ["gaussian", "equi-depth", "equi-width"])
    def test_symbols_in_range(self, scheme, rng):
        data = rng.standard_normal((300, 6))
        bins = HierarchicalBins(bits=4, scheme=scheme).fit(data)
        symbols = bins.symbols(data)
        assert symbols.min() >= 0
        assert symbols.max() < 16

    def test_single_series_shape(self, rng):
        data = rng.standard_normal((100, 3))
        bins = HierarchicalBins(bits=3, scheme="equi-width").fit(data)
        assert bins.symbols(data[0]).shape == (3,)

    def test_monotonic_in_value(self, rng):
        data = rng.standard_normal((500, 1))
        bins = HierarchicalBins(bits=6, scheme="equi-depth").fit(data)
        values = np.linspace(-3, 3, 50).reshape(-1, 1)
        symbols = bins.symbols(values)[:, 0]
        assert np.all(np.diff(symbols) >= 0)

    def test_dimension_mismatch_raises(self, rng):
        bins = HierarchicalBins(bits=3, scheme="equi-width").fit(rng.standard_normal((50, 3)))
        with pytest.raises(InvalidParameterError):
            bins.symbols(np.zeros((2, 5)))

    def test_promote_drops_low_bits(self):
        symbols = np.array([0b1011, 0b0100])
        assert np.array_equal(HierarchicalBins.promote(symbols, 4, 2), [0b10, 0b01])

    def test_promote_cannot_add_bits(self):
        with pytest.raises(InvalidParameterError):
            HierarchicalBins.promote(np.array([1]), 2, 4)


class TestNesting:
    """The property the tree index relies on: coarser bins contain finer bins."""

    @pytest.mark.parametrize("scheme", ["gaussian", "equi-depth", "equi-width"])
    def test_promoted_symbols_match_coarse_quantization(self, scheme, rng):
        data = rng.standard_normal((400, 4)) * 2.0 + 0.3
        fine = HierarchicalBins(bits=8, scheme=scheme).fit(data)
        test_points = rng.standard_normal((200, 4))
        fine_symbols = fine.symbols(test_points)
        for coarse_bits in (1, 2, 4):
            coarse = HierarchicalBins(bits=coarse_bits, scheme=scheme).fit(data)
            coarse_symbols = coarse.symbols(test_points)
            promoted = HierarchicalBins.promote(fine_symbols, 8, coarse_bits)
            assert np.array_equal(promoted, coarse_symbols)

    @pytest.mark.parametrize("scheme", ["gaussian", "equi-depth", "equi-width"])
    def test_coarse_intervals_contain_fine_intervals(self, scheme, rng):
        data = rng.standard_normal((300, 2))
        bins = HierarchicalBins(bits=6, scheme=scheme).fit(data)
        points = rng.standard_normal((100, 2))
        symbols = bins.symbols(points)
        fine_lower, fine_upper = bins.intervals(symbols)
        for coarse_bits in (1, 3, 5):
            promoted = HierarchicalBins.promote(symbols, 6, coarse_bits)
            lower, upper = bins.intervals(promoted, coarse_bits)
            assert np.all(lower <= fine_lower + 1e-12)
            assert np.all(upper >= fine_upper - 1e-12)


class TestIntervals:
    def test_value_falls_inside_its_interval(self, rng):
        data = rng.standard_normal((300, 5))
        bins = HierarchicalBins(bits=5, scheme="equi-width").fit(data)
        points = rng.standard_normal((100, 5))
        symbols = bins.symbols(points)
        lower, upper = bins.intervals(symbols)
        assert np.all(points >= lower)
        assert np.all(points <= upper)

    def test_outer_bins_are_unbounded(self, rng):
        data = rng.standard_normal((100, 1))
        bins = HierarchicalBins(bits=2, scheme="gaussian").fit(data)
        lower, upper = bins.intervals(np.array([[0], [3]]))
        assert lower[0, 0] == -np.inf
        assert upper[1, 0] == np.inf

    def test_zero_bits_means_unbounded(self, rng):
        data = rng.standard_normal((100, 2))
        bins = HierarchicalBins(bits=3, scheme="equi-depth").fit(data)
        lower, upper = bins.intervals(np.zeros((1, 2), dtype=int), cardinality_bits=0)
        assert np.all(np.isneginf(lower))
        assert np.all(np.isposinf(upper))

    def test_out_of_range_symbol_raises(self, rng):
        data = rng.standard_normal((100, 1))
        bins = HierarchicalBins(bits=2, scheme="gaussian").fit(data)
        with pytest.raises(InvalidParameterError):
            bins.intervals(np.array([[4]]))

    def test_mindist_zero_inside_interval(self, rng):
        data = rng.standard_normal((200, 3))
        bins = HierarchicalBins(bits=4, scheme="equi-width").fit(data)
        points = rng.standard_normal((50, 3))
        symbols = bins.symbols(points)
        assert np.allclose(bins.mindist(points, symbols), 0.0)

    def test_mindist_positive_outside_interval(self, rng):
        data = rng.standard_normal((200, 1))
        bins = HierarchicalBins(bits=3, scheme="equi-depth").fit(data)
        symbols = bins.symbols(np.array([[5.0]]))  # far right bin
        distance = bins.mindist(np.array([[-5.0]]), symbols)
        assert distance[0, 0] > 0


class TestIntervalsBatch:
    """intervals_batch: per-word bit counts, one vectorized gather."""

    @pytest.mark.parametrize("scheme", ["gaussian", "equi-depth", "equi-width"])
    def test_matches_per_word_intervals(self, scheme, rng):
        data = rng.standard_normal((300, 4))
        bins = HierarchicalBins(bits=4, scheme=scheme).fit(data)
        num_words = 40
        bits_matrix = rng.integers(0, 5, size=(num_words, 4))
        symbols = rng.integers(0, 1 << 4, size=(num_words, 4)) % (1 << bits_matrix)
        lower, upper = bins.intervals_batch(symbols, bits_matrix)
        for row in range(num_words):
            expected_lower, expected_upper = bins.intervals(symbols[row],
                                                            bits_matrix[row])
            assert np.array_equal(lower[row], expected_lower)
            assert np.array_equal(upper[row], expected_upper)

    def test_broadcasts_shared_bits(self, rng):
        data = rng.standard_normal((200, 3))
        bins = HierarchicalBins(bits=3, scheme="equi-width").fit(data)
        symbols = rng.integers(0, 4, size=(20, 3))
        lower, upper = bins.intervals_batch(symbols, np.int64(2))
        expected_lower, expected_upper = bins.intervals(symbols, 2)
        assert np.array_equal(lower, expected_lower)
        assert np.array_equal(upper, expected_upper)

    def test_zero_bits_rows_are_unbounded(self, rng):
        data = rng.standard_normal((100, 2))
        bins = HierarchicalBins(bits=3, scheme="equi-depth").fit(data)
        symbols = np.array([[0, 3], [0, 0]])
        bits_matrix = np.array([[0, 2], [0, 0]])
        lower, upper = bins.intervals_batch(symbols, bits_matrix)
        assert np.isneginf(lower[0, 0]) and np.isposinf(upper[0, 0])
        assert np.all(np.isneginf(lower[1])) and np.all(np.isposinf(upper[1]))
        assert np.isfinite(lower[0, 1])

    def test_invalid_inputs_raise(self, rng):
        data = rng.standard_normal((100, 2))
        bins = HierarchicalBins(bits=2, scheme="gaussian").fit(data)
        with pytest.raises(InvalidParameterError):
            bins.intervals_batch(np.zeros(2, dtype=int), np.int64(1))  # 1-D
        with pytest.raises(InvalidParameterError):
            bins.intervals_batch(np.zeros((3, 5), dtype=int), np.int64(1))  # dims
        with pytest.raises(InvalidParameterError):
            bins.intervals_batch(np.zeros((2, 2), dtype=int),
                                 np.array([[3, 0], [0, 0]]))  # bits too large
        with pytest.raises(InvalidParameterError):
            bins.intervals_batch(np.array([[2, 0]]), np.array([[1, 1]]))  # symbol
        with pytest.raises(NotFittedError):
            HierarchicalBins(bits=2).intervals_batch(np.zeros((1, 2), dtype=int),
                                                     np.int64(1))


@given(st.integers(min_value=0, max_value=5000),
       st.sampled_from(["gaussian", "equi-depth", "equi-width"]),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_mindist_lower_bounds_true_gap_property(seed, scheme, bits):
    """mindist(value, symbol(other)) never exceeds |value − other| per dimension."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((200, 3))
    bins = HierarchicalBins(bits=bits, scheme=scheme).fit(data)
    value = rng.standard_normal(3)
    other = rng.standard_normal(3)
    symbols = bins.symbols(other)
    gaps = bins.mindist(value, symbols)
    assert np.all(gaps <= np.abs(value - other) + 1e-9)
