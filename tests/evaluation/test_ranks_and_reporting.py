"""Tests for critical-difference analysis, timing helpers and table formatting."""

import numpy as np
import pytest

from repro.evaluation.ranks import (
    compute_average_ranks,
    critical_difference,
    friedman_test,
    holm_correction,
    wilcoxon_pvalue,
)
from repro.evaluation.reporting import format_table
from repro.evaluation.timing import QueryTimings


class TestAverageRanks:
    def test_clear_winner_gets_rank_one(self):
        scores = {"good": [0.9, 0.8, 0.95], "bad": [0.1, 0.2, 0.15]}
        ranks = compute_average_ranks(scores)
        assert ranks["good"] == pytest.approx(1.0)
        assert ranks["bad"] == pytest.approx(2.0)

    def test_lower_is_better_orientation(self):
        scores = {"fast": [1.0, 2.0], "slow": [10.0, 20.0]}
        ranks = compute_average_ranks(scores, higher_is_better=False)
        assert ranks["fast"] == pytest.approx(1.0)

    def test_ties_get_average_rank(self):
        scores = {"a": [0.5], "b": [0.5]}
        ranks = compute_average_ranks(scores)
        assert ranks["a"] == ranks["b"] == pytest.approx(1.5)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            compute_average_ranks({"a": [1.0, 2.0], "b": [1.0]})


class TestStatisticalTests:
    def test_friedman_detects_consistent_differences(self):
        rng = np.random.default_rng(0)
        base = rng.uniform(0.3, 0.6, 30)
        scores = {"low": list(base), "mid": list(base + 0.1), "high": list(base + 0.2)}
        assert friedman_test(scores) < 0.01

    def test_friedman_with_two_methods_falls_back_to_wilcoxon(self):
        scores = {"a": [1.0, 2.0, 3.0, 4.0, 5.0], "b": [1.1, 2.1, 3.1, 4.1, 5.1]}
        assert 0.0 <= friedman_test(scores) <= 1.0

    def test_wilcoxon_identical_samples_give_pvalue_one(self):
        sample = np.array([1.0, 2.0, 3.0])
        assert wilcoxon_pvalue(sample, sample) == 1.0

    def test_holm_correction_is_monotone_and_bounded(self):
        corrected = holm_correction([0.01, 0.04, 0.03, 0.5])
        assert all(0.0 <= p <= 1.0 for p in corrected)
        assert corrected[0] >= 0.01  # correction never lowers a p-value


class TestCriticalDifference:
    def test_full_analysis_orders_methods(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(0.4, 0.6, 25)
        scores = {
            "iSAX": list(base - 0.15),
            "SFA ED": list(base),
            "SFA EW +VAR": list(base + 0.15),
        }
        result = critical_difference(scores)
        ordered = result.ordered_methods()
        assert ordered[0] == "SFA EW +VAR"
        assert ordered[-1] == "iSAX"
        assert result.friedman_pvalue < 0.05

    def test_indistinguishable_methods_form_a_clique(self):
        rng = np.random.default_rng(2)
        base = rng.uniform(0.4, 0.6, 20)
        noise = rng.normal(0, 0.001, 20)
        scores = {"a": list(base), "b": list(base + noise), "c": list(base - 0.3)}
        result = critical_difference(scores)
        assert any({"a", "b"} <= set(clique) for clique in result.cliques)


class TestTimingHelpers:
    def test_query_timings_statistics(self):
        timings = QueryTimings()
        for value in (0.1, 0.2, 0.3, 0.4):
            timings.add(value)
        assert timings.mean == pytest.approx(0.25)
        assert timings.median == pytest.approx(0.25)
        assert timings.total == pytest.approx(1.0)
        assert timings.percentile(100) == pytest.approx(0.4)
        assert timings.as_milliseconds()["mean_ms"] == pytest.approx(250.0)

    def test_empty_timings(self):
        timings = QueryTimings()
        assert timings.mean == 0.0
        assert timings.median == 0.0


class TestReporting:
    def test_format_table_alignment_and_floats(self):
        table = format_table(["name", "value"], [["a", 1.23456], ["bb", 2]],
                             title="Demo", float_format="{:.2f}")
        lines = table.splitlines()
        assert lines[0] == "Demo"
        assert "1.23" in table
        assert "bb" in table
