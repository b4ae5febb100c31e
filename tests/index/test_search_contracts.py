"""Contracts of the single-thread exact search engine.

Exact-tie and duplicate-row datasets, long-series (early-abandoning kernel)
builds and dynamic indexes mid-ingest must give the per-query engine and the
batched engine *bit-identical* answers — identical neighbour indices and
distances — on the tree path and the flat path — and phase times stay inside
the query's wall time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index.batch_search
import repro.index.search
from repro.index.batch_search import BatchSearcher
from repro.index.messi import MessiIndex
from repro.index.search import ExactSearcher, SearchStats
from repro.index.sofa import SofaIndex
from repro.index.stats import merge_search_stats


def _force_path(monkeypatch, threshold):
    """Force both engines onto the tree (``0.0``) or flat (``inf``) path."""
    monkeypatch.setattr(repro.index.search, "FLAT_REFINEMENT_THRESHOLD",
                        threshold)


#: The work counters of :class:`SearchStats` (its timings are wall clock).
_WORK_COUNTERS = ("series_lower_bounds", "exact_distances", "leaves_visited",
                  "nodes_pruned", "leaves_pruned_in_queue", "timed_out")


def _assert_identical(reference, candidate, counters=False):
    """Bit-identical answers and, with ``counters``, identical work."""
    assert np.array_equal(reference.indices, candidate.indices)
    assert np.array_equal(reference.distances, candidate.distances)
    if counters:
        for name in _WORK_COUNTERS:
            assert (getattr(reference.stats, name)
                    == getattr(candidate.stats, name)), name


def _assert_batch_matches(searcher, queries, k):
    """``knn_batch`` answers every query bit-identically to ``knn``.

    On the tree path ``knn_batch`` runs ``knn``'s engine per query, so every
    work counter matches too.  The flat path's batched estimate is one GEMM
    whose rounding differs from ``knn``'s GEMV, so only its answers are
    compared."""
    tree = searcher.index if isinstance(searcher, ExactSearcher) \
        else searcher.tree
    on_tree_path = not repro.index.search.uses_flat_refinement(tree)
    batched = searcher.knn_batch(queries, k=k)
    assert len(batched) == len(queries)
    for query, candidate in zip(queries, batched):
        _assert_identical(searcher.knn(query, k=k), candidate,
                          counters=on_tree_path)


@pytest.fixture(scope="module")
def built_indexes(clustered_index_and_queries):
    index_set, queries = clustered_index_and_queries
    return {
        "SOFA": SofaIndex(leaf_size=40).build(index_set),
        "MESSI": MessiIndex(leaf_size=40).build(index_set),
    }, queries


class TestTiesAndKernels:
    def test_exact_ties_bit_identical(self, monkeypatch):
        """Duplicated series force exact distance ties; both engines keep
        the same rows (smaller row wins under the total order)."""
        rng = np.random.default_rng(7)
        base = rng.normal(size=(40, 64)).cumsum(axis=1)
        data = np.vstack([base, base, base])
        queries = base[:10] + rng.normal(scale=0.05, size=(10, 64))
        index = SofaIndex(leaf_size=20).build(data)
        searcher = ExactSearcher(index.tree)
        for threshold in (0.0, np.inf):  # tree path and flat path
            _force_path(monkeypatch, threshold)
            _assert_batch_matches(searcher, queries, k=5)
            for row, query in enumerate(queries):
                result = searcher.knn(query, k=5)
                # The query's source row and its two copies tie exactly.
                assert result.indices[:3].tolist() == [row, row + 40, row + 80]
                assert len(set(result.distances[:3].tolist())) == 1

    def test_indexed_series_query_is_exact_tie_at_zero(self, built_indexes):
        """A query equal to an indexed series: distance 0, tight lower bound."""
        indexes, _ = built_indexes
        index = indexes["SOFA"]
        query = np.asarray(index.tree.dataset.values[17])
        result = index.knn(query, k=3)
        assert result.nearest_index == 17
        assert result.nearest_distance == pytest.approx(0.0, abs=1e-9)

    def test_long_series_use_early_abandon_kernel(self, monkeypatch):
        """Long-series builds refine through the blocked early-abandoning
        kernel; answers stay bit-identical to a searcher forced onto the
        plain kernel and to the batched engine."""
        rng = np.random.default_rng(21)
        data = rng.normal(size=(90, 1100)).cumsum(axis=1)
        index = SofaIndex(leaf_size=30).build(data)
        abandoning = ExactSearcher(index.tree)
        assert abandoning._early_abandon  # 1100 >= the default length gate
        monkeypatch.setattr(repro.index.search, "EARLY_ABANDON_MIN_LENGTH",
                            10_000)
        plain = ExactSearcher(index.tree)
        assert not plain._early_abandon
        queries = data[:5] + rng.normal(scale=0.05, size=(5, 1100))
        for query in queries:
            _assert_identical(abandoning.knn(query, k=4),
                              plain.knn(query, k=4))
        _assert_batch_matches(abandoning, queries, k=4)

    def test_duplicate_query_ties_at_zero(self, monkeypatch):
        """Regression: hundreds of exact copies of the query make lower bound
        == distance == final threshold == 0 span many refinement groups; the
        tie-tolerant admission (``_admissible``) must still refine the
        smallest-row tie winners, on both paths and in both engines."""
        rng = np.random.default_rng(13)
        length = 1100  # long series: the early-abandoning kernel is live too
        noise = rng.normal(size=(50, length)).cumsum(axis=1)
        probe = rng.normal(size=length).cumsum()
        data = np.vstack([noise, np.tile(probe, (300, 1))])
        index = SofaIndex(leaf_size=20).build(data)
        searcher = ExactSearcher(index.tree)
        for flat_threshold in (0.0, np.inf):  # tree path and flat path
            _force_path(monkeypatch, flat_threshold)
            expected = searcher.knn(probe, k=3)
            # The duplicates sit at distance 0; smallest rows win the tie.
            assert expected.indices.tolist() == [50, 51, 52]
            _assert_identical(expected,
                              searcher.knn_batch(probe[None, :], k=3)[0])

    @given(seed=st.integers(min_value=0, max_value=10_000),
           k=st.integers(min_value=1, max_value=8),
           dynamic=st.booleans(),
           flat=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_property_batch_bit_identical(self, seed, k, dynamic, flat):
        """Random data with duplicate rows (exact ties), optionally flat
        refinement and a mid-ingest dynamic overlay with tombstones on both
        sides of the base/delta boundary: the batched engine answers like
        the per-query engine, bit for bit."""
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(50, 64)).cumsum(axis=1)
        data = np.vstack([base, base[:20]])  # duplicates force exact ties
        threshold = np.inf if flat else 0.0
        index = SofaIndex(leaf_size=20).build(data)
        if dynamic:
            target = index.dynamic()
            target.insert_batch(rng.normal(size=(15, 64)).cumsum(axis=1))
            target.delete(int(rng.integers(0, 70)))        # base tombstone
            target.delete(70 + int(rng.integers(0, 15)))   # delta tombstone
            searcher = ExactSearcher(target.tree,
                                     delta_source=target._state.capture)
        else:
            searcher = ExactSearcher(index.tree)
        queries = base[:4] + rng.normal(scale=0.05, size=(4, 64))
        with pytest.MonkeyPatch.context() as monkeypatch:
            _force_path(monkeypatch, threshold)
            _assert_batch_matches(searcher, queries, k=k)


class TestDynamicSearch:
    """The delta pseudo-leaf is refined right after the seed leaf."""

    @pytest.fixture()
    def mid_ingest(self, clustered_index_and_queries):
        index_set, queries = clustered_index_and_queries
        dynamic = SofaIndex(leaf_size=40).build(index_set).dynamic()
        rng = np.random.default_rng(3)
        dynamic.insert_batch(rng.normal(size=(40, index_set.series_length))
                             .cumsum(axis=1))
        dynamic.delete(5)
        dynamic.delete(index_set.num_series + 7)
        return dynamic, queries

    @pytest.mark.parametrize("k", [1, 6])
    def test_mid_ingest_bit_identical(self, mid_ingest, k):
        dynamic, queries = mid_ingest
        _assert_batch_matches(dynamic, queries.values[:8], k=k)

    def test_inserted_series_found(self, mid_ingest):
        dynamic, _ = mid_ingest
        probe = dynamic._state.delta_values.view[3]
        result = dynamic.knn(probe, k=1)
        assert result.nearest_index == dynamic.num_base + 3
        assert result.nearest_distance == pytest.approx(0.0, abs=1e-9)

    def test_tombstoned_rows_never_answered(self, mid_ingest):
        dynamic, queries = mid_ingest
        dead = {5, dynamic.num_base + 7}
        for query in queries.values[:5]:
            result = dynamic.knn(query, k=10)
            assert not dead.intersection(result.indices.tolist())
        for result in dynamic.knn_batch(queries.values[:5], k=10):
            assert not dead.intersection(result.indices.tolist())


class TestOneTreePathEngine:
    """On the tree path ``knn_batch`` is ``knn`` per query: same answers and
    the same work, for SOFA, MESSI and a dynamic index mid-ingest."""

    @pytest.fixture(scope="class")
    def random_walk_indexes(self):
        rng = np.random.default_rng(29)
        data = rng.normal(size=(2000, 64)).cumsum(axis=1)
        dynamic = SofaIndex(leaf_size=20).build(data).dynamic()
        dynamic.insert_batch(rng.normal(size=(60, 64)).cumsum(axis=1))
        dynamic.delete(11)      # base tombstone
        dynamic.delete(2000 + 9)  # delta tombstone
        indexes = {"SOFA": SofaIndex(leaf_size=20).build(data),
                   "MESSI": MessiIndex(leaf_size=20).build(data),
                   "dynamic": dynamic}
        queries = data[:8] + rng.normal(scale=0.5, size=(8, 64))
        return indexes, queries

    @pytest.mark.parametrize("label", ["SOFA", "MESSI", "dynamic"])
    @pytest.mark.parametrize("k", [1, 10])
    def test_counters_match_knn(self, random_walk_indexes, label, k,
                                monkeypatch):
        indexes, queries = random_walk_indexes
        _force_path(monkeypatch, 0.0)
        _assert_batch_matches(indexes[label], queries, k=k)

    def test_expired_deadline_matches_knn(self, built_indexes, monkeypatch):
        """A batch budget that is already spent stops every query after its
        seed leaf, as ``knn`` does under the same spent budget."""
        indexes, queries = built_indexes
        _force_path(monkeypatch, 0.0)
        index = indexes["SOFA"]
        monkeypatch.setattr(repro.index.search, "deadline_expired",
                            lambda deadline: deadline is not None)
        batched = index.knn_batch(queries.values[:4], k=3, timeout_s=60)
        for query, candidate in zip(queries.values[:4], batched):
            reference = index.knn(query, k=3, timeout_s=60)
            assert reference.stats.timed_out
            _assert_identical(reference, candidate, counters=True)


class TestBatchSharding:
    """Small batches run in one pass; a batch over the engine's cell budget
    is split into query shards."""

    def test_small_batch_matches_per_query(self, built_indexes):
        """Batches of one and two queries answer like ``knn``."""
        indexes, queries = built_indexes
        for label, size in (("SOFA", 2), ("MESSI", 1)):
            _assert_batch_matches(indexes[label], queries.values[:size], k=4)

    def test_large_batch_still_shards(self, built_indexes, monkeypatch):
        """A batch split under a small cell budget answers like ``knn``."""
        indexes, queries = built_indexes
        index = indexes["SOFA"]
        # Three queries' worth of cells per pass.
        monkeypatch.setattr(repro.index.batch_search, "_MAX_SHARD_CELLS",
                            3 * index.tree.num_series)
        passes = []
        search_shard = BatchSearcher._search_shard

        def counted(self, batch, *args):
            passes.append(len(batch))
            return search_shard(self, batch, *args)

        monkeypatch.setattr(BatchSearcher, "_search_shard", counted)
        batched = index.knn_batch(queries.values, k=3)
        assert len(passes) > 1 and max(passes) <= 3
        assert sum(passes) == len(queries.values)
        for query, candidate in zip(queries.values, batched):
            _assert_identical(index.knn(query, k=3), candidate)


class TestStats:
    def test_merge_is_deterministic_and_additive(self):
        into = SearchStats(num_series=100, approximate_time=0.5,
                           traversal_time=0.25)
        parts = [
            SearchStats(leaves_visited=2, exact_distances=10,
                        series_lower_bounds=20, refinement_time=0.125),
            SearchStats(leaves_visited=1, leaves_pruned_in_queue=4,
                        exact_distances=5, series_lower_bounds=5,
                        refinement_time=0.25),
        ]
        merged = merge_search_stats(into, parts)
        assert merged is into
        assert merged.leaves_visited == 3
        assert merged.leaves_pruned_in_queue == 4
        assert merged.exact_distances == 15
        assert merged.series_lower_bounds == 25
        assert merged.refinement_time == 0.375
        # The approximate and traversal phases belong to the query-level stats.
        assert merged.approximate_time == 0.5
        assert merged.traversal_time == 0.25

    def test_stats_report_all_work(self, built_indexes):
        indexes, queries = built_indexes
        index = indexes["SOFA"]
        stats = index.knn(queries[0], k=3).stats
        assert stats.leaves_visited >= 1
        assert stats.exact_distances >= 3
        assert stats.series_lower_bounds >= stats.exact_distances
        assert stats.num_series == index.tree.num_series


class TestMeasuredPhaseTimes:
    """Phase times are wall clock, one pair per phase: every phase of a query
    lies inside its engine call, so they never sum past ``wall_time_s``."""

    @staticmethod
    def _assert_phases_inside_wall(searcher, queries):
        for query in queries.values[:4]:
            stats = searcher.knn(query, k=3).stats
            assert stats.exact_distances >= 3
            assert stats.refinement_time > 0.0
            assert stats.total_time <= stats.wall_time_s

    @pytest.mark.parametrize("label", ["SOFA", "MESSI"])
    def test_tree_path_phases_fit_inside_wall_time(self, built_indexes, label,
                                                   monkeypatch):
        indexes, queries = built_indexes
        _force_path(monkeypatch, 0.0)
        searcher = ExactSearcher(indexes[label].tree)
        self._assert_phases_inside_wall(searcher, queries)

    def test_flat_path_phases_fit_inside_wall_time(self, built_indexes,
                                                   monkeypatch):
        indexes, queries = built_indexes
        _force_path(monkeypatch, np.inf)
        searcher = ExactSearcher(indexes["SOFA"].tree)
        self._assert_phases_inside_wall(searcher, queries)
