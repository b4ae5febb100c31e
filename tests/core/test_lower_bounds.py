"""Tests for TLB, pruning power and the lower-bound property checker."""

import numpy as np
import pytest

from repro.core.lower_bounds import (
    check_lower_bound_property,
    tightness_of_lower_bound,
)


class TestTightness:
    def test_perfect_lower_bound_has_tlb_one(self):
        true = np.array([1.0, 2.0, 3.0])
        assert tightness_of_lower_bound(true, true) == pytest.approx(1.0)

    def test_zero_lower_bound_has_tlb_zero(self):
        true = np.array([1.0, 2.0, 3.0])
        assert tightness_of_lower_bound(np.zeros(3), true) == pytest.approx(0.0)

    def test_half_lower_bound(self):
        true = np.array([2.0, 4.0, 8.0])
        assert tightness_of_lower_bound(true / 2, true) == pytest.approx(0.5)

    def test_zero_true_distances_are_skipped(self):
        lower = np.array([0.0, 1.0])
        true = np.array([0.0, 2.0])
        assert tightness_of_lower_bound(lower, true) == pytest.approx(0.5)

    def test_all_degenerate_pairs_give_one(self):
        assert tightness_of_lower_bound(np.zeros(4), np.zeros(4)) == 1.0

    def test_clipping_of_numerical_noise(self):
        true = np.array([1.0])
        lower = np.array([1.0 + 1e-12])
        assert tightness_of_lower_bound(lower, true) <= 1.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            tightness_of_lower_bound(np.zeros(3), np.zeros(4))


class TestLowerBoundProperty:
    def test_valid_lower_bounds_pass(self):
        true = np.array([1.0, 2.0, 3.0])
        assert check_lower_bound_property(true * 0.9, true)

    def test_violations_fail(self):
        true = np.array([1.0, 2.0, 3.0])
        lower = np.array([1.0, 2.5, 3.0])
        assert not check_lower_bound_property(lower, true)

    def test_tolerates_floating_point_noise(self):
        true = np.array([1.0])
        lower = np.array([1.0 + 1e-12])
        assert check_lower_bound_property(lower, true)
