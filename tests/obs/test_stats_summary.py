"""``summarize_search_stats``: empty, single, degenerate, and random inputs.

The serving layer calls this on whatever happens to be accumulated — which
can be *nothing* (a ``/stats`` scrape before the first query), exactly one
part, or a workload where every query timed out.  Each shape must produce
the same well-formed report; no consumer should ever need an emptiness
special case.
"""

from __future__ import annotations

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.search import SearchStats
from repro.index.stats import merge_search_stats, summarize_search_stats

EXPECTED_KEYS = {
    "queries", "timed_out", "partial_answers", "series_served",
    "series_lower_bounds", "exact_distances", "leaves_visited",
    "shards_total", "shards_answered", "engine_time_s", "wall_time_s",
    "max_wall_time_s", "pruning_ratio", "coverage",
}


def stats_strategy() -> st.SearchStrategy:
    return st.builds(
        SearchStats,
        num_series=st.integers(0, 10_000),
        leaves_visited=st.integers(0, 500),
        series_lower_bounds=st.integers(0, 10_000),
        exact_distances=st.integers(0, 10_000),
        refinement_time=st.floats(0.0, 0.1),
        timed_out=st.booleans(),
        shards_total=st.integers(0, 8),
        shards_answered=st.integers(0, 8),
        partial=st.booleans(),
        wall_time_s=st.floats(0.0, 10.0),
    )


class TestEmpty:
    def test_empty_iterable_yields_zeroed_summary(self):
        summary = summarize_search_stats([])
        assert set(summary) == EXPECTED_KEYS
        assert summary["queries"] == 0
        assert summary["wall_time_s"] == 0.0
        assert summary["max_wall_time_s"] == 0.0
        # Vacuous identities, not divisions by zero:
        assert summary["pruning_ratio"] == 0.0
        assert summary["coverage"] == 1.0
        json.dumps(summary)  # and it is JSON-ready as-is

    def test_empty_generator_too(self):
        assert summarize_search_stats(iter(())) == summarize_search_stats([])


class TestSingle:
    def test_single_part_round_trips(self):
        part = SearchStats(num_series=100, leaves_visited=3,
                           series_lower_bounds=80, exact_distances=20,
                           refinement_time=0.03, wall_time_s=0.25)
        summary = summarize_search_stats([part])
        assert summary["queries"] == 1
        assert summary["series_served"] == 100
        assert summary["exact_distances"] == 20
        assert summary["wall_time_s"] == 0.25
        assert summary["max_wall_time_s"] == 0.25
        assert summary["pruning_ratio"] == part.pruning_ratio
        assert summary["coverage"] == 1.0


class TestDegenerate:
    def test_all_timed_out(self):
        parts = [SearchStats(num_series=10, timed_out=True, wall_time_s=1.0)
                 for _ in range(4)]
        summary = summarize_search_stats(parts)
        assert summary["queries"] == 4
        assert summary["timed_out"] == 4
        assert summary["wall_time_s"] == 4.0
        assert summary["max_wall_time_s"] == 1.0

    def test_zero_series_served_keeps_ratios_finite(self):
        summary = summarize_search_stats([SearchStats()])
        assert summary["pruning_ratio"] == 0.0
        assert summary["coverage"] == 1.0


class TestProperties:
    @given(parts=st.lists(stats_strategy(), max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_summary_is_well_formed_for_any_input(self, parts):
        summary = summarize_search_stats(parts)
        assert set(summary) == EXPECTED_KEYS
        assert summary["queries"] == len(parts)
        assert summary["timed_out"] == sum(p.timed_out for p in parts)
        assert summary["wall_time_s"] == sum(p.wall_time_s for p in parts)
        assert summary["max_wall_time_s"] == (
            max((p.wall_time_s for p in parts), default=0.0))
        assert summary["max_wall_time_s"] <= summary["wall_time_s"] or \
            not parts
        assert 0.0 <= summary["pruning_ratio"] <= 1.0 or \
            summary["exact_distances"] > summary["series_served"]
        assert math.isfinite(summary["coverage"])
        json.dumps(summary)

    @given(parts=st.lists(stats_strategy(), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_summarize_never_mutates_its_inputs(self, parts):
        snapshots = [
            (p.num_series, p.exact_distances, p.wall_time_s, p.timed_out)
            for p in parts]
        summarize_search_stats(parts)
        assert snapshots == [
            (p.num_series, p.exact_distances, p.wall_time_s, p.timed_out)
            for p in parts]


class TestMergeWallSemantics:
    def test_merge_keeps_targets_wall_time(self):
        """Worker lifetimes live inside the query's wall, never add to it."""
        into = SearchStats(wall_time_s=0.5, approximate_time=0.1)
        parts = [SearchStats(wall_time_s=0.4, leaves_visited=2,
                             refinement_time=0.01),
                 SearchStats(wall_time_s=0.3, leaves_visited=1)]
        merged = merge_search_stats(into, parts)
        assert merged is into
        assert merged.wall_time_s == 0.5
        assert merged.approximate_time == 0.1
        assert merged.leaves_visited == 3
