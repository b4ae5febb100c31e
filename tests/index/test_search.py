"""Tests for the exact GEMINI search engine (correctness against brute force)."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index.search
from repro.baselines.serial_scan import SerialScan
from repro.core.errors import IndexError_, SearchError
from repro.index.messi import MessiIndex
from repro.index.search import (
    BestSoFar,
    ExactSearcher,
    SearchStats,
    stats_from_payload,
    stats_to_payload,
)
from repro.index.sofa import SofaIndex
from repro.index.tree import TreeIndex
from repro.transforms.sax import SAX


_GRID = st.integers(min_value=0, max_value=12).map(lambda step: step / 3.0)
_FLOOR = st.one_of(st.just(np.inf), _GRID)


class TestBestSoFar:
    @given(offers=st.lists(st.tuples(_GRID, st.integers(0, 60)),
                           unique_by=lambda offer: offer[1], max_size=40),
           cuts=st.lists(st.integers(0, 40), max_size=6),
           k=st.integers(1, 6), floor=_FLOOR,
           parent_k=st.integers(1, 6), parent_floor=_FLOOR,
           chained=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_retains_the_k_smallest_offers_under_a_capped_threshold(
            self, offers, cuts, k, floor, parent_k, parent_floor, chained):
        """For any offer order, block split, floor and parent/row-map the
        retained set is the k smallest (distance², row) offers — a coarse
        distance grid forces exact ties, and the floor caps only the
        published threshold, so every offer at or below it that belongs to
        the k smallest is retained — the parent retains the same of the
        translated offers, and no threshold rises."""
        row_map = np.arange(61)[::-1] + 100  # order-reversing translation
        parent = BestSoFar(parent_k, floor=parent_floor) if chained else None
        heap = BestSoFar(k, floor=floor, parent=parent,
                         row_map=row_map.__getitem__ if chained else None)
        squared = np.array([distance for distance, _ in offers], dtype=float)
        rows = np.array([row for _, row in offers], dtype=np.int64)
        assert heap.threshold == (min(floor, parent_floor) if chained
                                  else floor)
        assert not heap.offered
        heaps = [heap, parent] if chained else [heap]
        thresholds = [[each.threshold for each in heaps]]
        edges = sorted({0, len(offers), *(cut for cut in cuts
                                          if cut < len(offers))})
        for begin, end in zip(edges, edges[1:]):
            heap.offer_block(squared[begin:end], rows[begin:end])
            thresholds.append([each.threshold for each in heaps])
        assert heap.offered == bool(offers)
        assert heap.sorted_items() == sorted(offers)[:k]
        own = min([floor] + [distance for distance, _
                             in heap.sorted_items()[k - 1:]])
        if chained:
            translated = [(distance, int(row_map[row]))
                          for distance, row in offers]
            assert parent.sorted_items() == sorted(translated)[:parent_k]
            assert heap.threshold == min(own, parent.threshold)
        else:
            assert heap.threshold == own
        for before, after in zip(thresholds, thresholds[1:]):
            assert all(new <= old for new, old in zip(after, before))


class TestStatsWire:
    def test_every_field_round_trips_the_shard_rpc(self):
        """Iterates the dataclass fields, so a field added later cannot be
        silently dropped on the wire: every field is set off its default,
        survives JSON, and comes back equal and of the same type.  Every
        value is a scalar, so the payload does not grow with the work a
        query did (no per-leaf or per-block lists on the wire)."""
        samples = {int: 7, float: 0.1 + 0.2, bool: True}
        stats = SearchStats(**{spec.name: samples[type(spec.default)]
                               for spec in dataclasses.fields(SearchStats)})
        payload = stats_to_payload(stats)
        assert set(payload) == {spec.name
                                for spec in dataclasses.fields(SearchStats)}
        assert all(type(value) in (int, float, bool)
                   for value in payload.values()), payload
        restored = stats_from_payload(json.loads(json.dumps(payload)))
        assert restored == stats
        for spec in dataclasses.fields(SearchStats):
            assert type(getattr(restored, spec.name)) \
                is type(getattr(stats, spec.name))
            assert getattr(stats, spec.name) != getattr(SearchStats(),
                                                        spec.name)

    def test_numpy_scalars_become_plain_json_types(self):
        stats = SearchStats(num_series=np.int64(3),
                            traversal_time=np.float64(0.25),
                            refinement_time=np.float64(0.5))
        assert json.loads(json.dumps(stats_to_payload(stats)))[
            "num_series"] == 3


class TestSearcherValidation:
    def test_requires_built_index(self):
        with pytest.raises(SearchError):
            ExactSearcher(TreeIndex(SAX()))

    def test_invalid_k(self, clustered_index_and_queries):
        index_set, queries = clustered_index_and_queries
        index = MessiIndex(leaf_size=50).build(index_set)
        with pytest.raises(SearchError):
            index.knn(queries[0], k=0)
        with pytest.raises(SearchError):
            index.knn(queries[0], k=index_set.num_series + 1)

    def test_wrong_query_length(self, clustered_index_and_queries):
        index_set, queries = clustered_index_and_queries
        index = MessiIndex(leaf_size=50).build(index_set)
        with pytest.raises(SearchError):
            index.knn(np.zeros(index_set.series_length + 1))

    def test_query_before_build_raises(self):
        with pytest.raises(IndexError_, match=r"MessiIndex has not been built; "
                                              r"call build\(dataset\) or MessiIndex\.load"):
            MessiIndex().knn(np.zeros(8))
        with pytest.raises(IndexError_, match=r"SofaIndex has not been built; "
                                              r"call build\(dataset\) or SofaIndex\.load"):
            SofaIndex().knn(np.zeros(8))


class TestExactness:
    """Every index must return exactly the brute-force answer."""

    @pytest.mark.parametrize("index_factory", [
        lambda: MessiIndex(leaf_size=40),
        lambda: SofaIndex(leaf_size=40),
        lambda: SofaIndex(leaf_size=40, binning="equi-depth"),
        lambda: SofaIndex(leaf_size=40, variance_selection=False),
    ])
    def test_1nn_matches_brute_force(self, clustered_index_and_queries, index_factory):
        index_set, queries = clustered_index_and_queries
        index = index_factory().build(index_set)
        scan = SerialScan().build(index_set)
        for query in queries.values:
            result = index.nearest_neighbor(query)
            _, expected = scan.nearest_neighbor(query)
            assert result.nearest_distance == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("k", [1, 3, 5, 10])
    def test_knn_matches_brute_force(self, clustered_index_and_queries, k):
        index_set, queries = clustered_index_and_queries
        index = SofaIndex(leaf_size=40).build(index_set)
        scan = SerialScan().build(index_set)
        for query in queries.values[:8]:
            result = index.knn(query, k=k)
            _, expected = scan.knn(query, k=k)
            assert result.distances.shape == (k,)
            assert np.allclose(result.distances, expected, atol=1e-8)

    def test_low_frequency_dataset_is_also_exact(self, lowfreq_index_and_queries):
        index_set, queries = lowfreq_index_and_queries
        sofa = SofaIndex(leaf_size=40).build(index_set)
        messi = MessiIndex(leaf_size=40).build(index_set)
        scan = SerialScan().build(index_set)
        for query in queries.values[:10]:
            _, expected = scan.nearest_neighbor(query)
            assert sofa.nearest_neighbor(query).nearest_distance == pytest.approx(expected)
            assert messi.nearest_neighbor(query).nearest_distance == pytest.approx(expected)

    def test_indexed_series_is_its_own_nearest_neighbor(self, clustered_index_and_queries):
        index_set, _ = clustered_index_and_queries
        index = SofaIndex(leaf_size=40).build(index_set)
        result = index.nearest_neighbor(index_set[17])
        assert result.nearest_index == 17
        assert result.nearest_distance == pytest.approx(0.0, abs=1e-9)

    def test_distances_are_sorted_ascending(self, clustered_index_and_queries):
        index_set, queries = clustered_index_and_queries
        index = SofaIndex(leaf_size=40).build(index_set)
        result = index.knn(queries[0], k=7)
        assert np.all(np.diff(result.distances) >= 0)


class TestPruningBehaviour:
    def test_stats_are_populated(self, clustered_index_and_queries):
        index_set, queries = clustered_index_and_queries
        index = SofaIndex(leaf_size=40).build(index_set)
        stats = index.nearest_neighbor(queries[0]).stats
        assert stats.leaves_visited >= 1
        assert stats.exact_distances >= 1
        assert stats.series_lower_bounds >= stats.exact_distances
        assert stats.approximate_time >= 0.0
        assert stats.total_time >= stats.refinement_time

    def test_sofa_prunes_more_than_messi_on_high_frequency_data(
            self, clustered_index_and_queries, monkeypatch):
        """The paper's core claim, measured as exact-distance computations.

        Both indexes walk their trees: the claim is about the lower bounds'
        pruning, and the certified flat path a shattered tree takes uses no
        lower bound at all."""
        monkeypatch.setattr(repro.index.search, "FLAT_REFINEMENT_THRESHOLD",
                            0.0)
        index_set, queries = clustered_index_and_queries
        sofa = SofaIndex(leaf_size=40).build(index_set)
        messi = MessiIndex(leaf_size=40).build(index_set)
        sofa_work = sum(sofa.nearest_neighbor(q).stats.exact_distances
                        for q in queries.values)
        messi_work = sum(messi.nearest_neighbor(q).stats.exact_distances
                         for q in queries.values)
        assert sofa_work < messi_work

    def test_search_prunes_something_on_clustered_data(self, clustered_index_and_queries):
        index_set, queries = clustered_index_and_queries
        index = SofaIndex(leaf_size=40).build(index_set)
        total_exact = sum(index.nearest_neighbor(q).stats.exact_distances
                          for q in queries.values)
        total_possible = index_set.num_series * queries.num_series
        assert total_exact < 0.5 * total_possible

    def test_unnormalized_query_handling(self, clustered_index_and_queries):
        """Queries are z-normalized by default, so scaling must not change results."""
        index_set, queries = clustered_index_and_queries
        index = SofaIndex(leaf_size=40).build(index_set)
        query = queries[0]
        reference = index.nearest_neighbor(query)
        scaled = index.nearest_neighbor(5.0 * query + 3.0)
        assert scaled.nearest_index == reference.nearest_index
        assert scaled.nearest_distance == pytest.approx(reference.nearest_distance)
