"""Tests for the certified flat path and the grouped leaf refinement.

The exact searcher walks the tree leaf by leaf (or in groups of small leaves)
with lower bounds, except when the tree degenerates into singleton leaves:
then both engines take the certified flat path, one BLAS estimate of every
distance plus canonical distances for the rows its proven margin cannot rule
out.  These tests pin down that every strategy returns identical, exact
answers — on adversarial near-ties too — that the margin holds on every row,
that the flat path honours deadlines, floors and parent heaps, and that the
degenerate-tree detection behaves as documented.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index.search
from repro.baselines.serial_scan import SerialScan
from repro.core.normalization import znormalize
from repro.core.series import Dataset
from repro.datasets.registry import load_dataset
from repro.datasets.synthetic import clustered, smooth_signal
from repro.index.batch_search import BatchSearcher
from repro.index.search import (
    ExactSearcher,
    SearchStats,
    canonical_squared,
    certified_bounds,
    certified_candidates,
    ranked_result,
)
from repro.index.sofa import SofaIndex
from repro.index.tree import TreeIndex
from repro.transforms.sfa import SFA


@pytest.fixture(scope="module")
def degenerate_setup():
    """A smooth dataset on which the SFA tree shatters into singleton leaves."""
    values = clustered(smooth_signal, 500, 128, num_clusters=25,
                       within_cluster_noise=0.25, seed=5, cutoff_fraction=0.05)
    dataset = Dataset(values, name="smooth-degenerate")
    index_set, queries = dataset.split(15, rng=np.random.default_rng(1))
    tree = TreeIndex(SFA(word_length=16, alphabet_size=256, sample_fraction=1.0),
                     leaf_size=50)
    tree.build(index_set)
    return tree, index_set, queries


class TestFlatPathExactness:
    def test_tree_is_actually_degenerate(self, degenerate_setup):
        tree, _, _ = degenerate_setup
        assert tree.average_leaf_size < 1.5

    def test_flat_and_leafwise_paths_agree(self, degenerate_setup, monkeypatch):
        tree, index_set, queries = degenerate_setup
        searcher = ExactSearcher(tree)
        for query in queries.values:
            monkeypatch.setattr(repro.index.search,
                                "FLAT_REFINEMENT_THRESHOLD", 1.5)
            flat_result = searcher.knn(query, k=3)
            monkeypatch.setattr(repro.index.search,
                                "FLAT_REFINEMENT_THRESHOLD", 0.0)
            leafwise_result = searcher.knn(query, k=3)
            assert np.allclose(flat_result.distances, leafwise_result.distances)
            assert np.array_equal(flat_result.indices, leafwise_result.indices)

    def test_flat_path_matches_brute_force(self, degenerate_setup):
        tree, index_set, queries = degenerate_setup
        searcher = ExactSearcher(tree)
        scan = SerialScan().build(index_set)
        for query in queries.values:
            _, expected = scan.knn(query, k=5)
            result = searcher.knn(query, k=5)
            assert np.allclose(result.distances, expected, atol=1e-8)

    def test_flat_path_has_no_duplicate_answers(self, degenerate_setup):
        tree, _, queries = degenerate_setup
        searcher = ExactSearcher(tree)
        result = searcher.knn(queries[0], k=10)
        assert len(set(result.indices.tolist())) == 10

    def test_flat_path_records_block_work(self, degenerate_setup, monkeypatch):
        tree, _, queries = degenerate_setup
        monkeypatch.setattr(repro.index.search, "FLAT_REFINEMENT_THRESHOLD", 1.5)
        searcher = ExactSearcher(tree)
        stats = searcher.knn(queries[0], k=1).stats
        assert stats.series_lower_bounds == tree.num_series
        assert stats.exact_distances >= 1
        assert stats.exact_distances < tree.num_series / 10
        assert stats.refinement_time > 0.0


class TestAllSeriesLowerBounds:
    def test_bounds_are_valid_for_every_series(self, degenerate_setup):
        from repro.core.distance import squared_euclidean_batch

        tree, index_set, queries = degenerate_setup
        query = queries[0]
        summary = tree.summarization.transform(query)
        bounds, rows = tree.all_series_lower_bounds(summary)
        true = squared_euclidean_batch(query, index_set.values[rows])
        assert bounds.shape == rows.shape
        assert np.all(bounds <= true + 1e-9)

    def test_rows_cover_every_series_once(self, degenerate_setup):
        tree, _, queries = degenerate_setup
        summary = tree.summarization.transform(queries[0])
        _, rows = tree.all_series_lower_bounds(summary)
        assert np.array_equal(np.sort(rows), np.arange(tree.num_series))


class TestGroupedRefinement:
    def test_grouped_path_is_exact_on_clustered_data(self):
        """On a dataset with many small (but not singleton) leaves the grouped
        refinement path is taken and must stay exact."""
        dataset = load_dataset("OBS", num_series=800, seed=9)
        index_set, queries = dataset.split(10, rng=np.random.default_rng(2))
        index = SofaIndex(leaf_size=100).build(index_set)
        scan = SerialScan().build(index_set)
        for query in queries.values:
            _, expected = scan.nearest_neighbor(query)
            assert index.nearest_neighbor(query).nearest_distance == pytest.approx(
                expected, abs=1e-8)

    def test_threshold_zero_disables_flat_path(self, degenerate_setup,
                                               monkeypatch):
        tree, _, queries = degenerate_setup
        monkeypatch.setattr(repro.index.search, "FLAT_REFINEMENT_THRESHOLD", 0.0)
        searcher = ExactSearcher(tree)
        stats = searcher.knn(queries[0], k=1).stats
        # The leaf-wise path reports visited leaves; the flat path does not.
        assert stats.leaves_visited >= 1


# ------------------------------------------------------- certified flat path


def _brute_force(query, rows, values, k):
    """The canonical answer: every row's canonical distance, ranked."""
    return ranked_result(np.asarray(rows, dtype=np.int64),
                         canonical_squared(znormalize(query), values),
                         SearchStats(), k)


def _assert_identical(expected, result):
    assert np.array_equal(expected.indices, result.indices)
    assert np.array_equal(expected.distances, result.distances)


@st.composite
def near_tie_collections(draw):
    """Raw (unnormalized) rows full of near-ties, a query and a count.

    Duplicated rows, copies of one row nudged by one ulp in one coordinate
    (canonical distances within an ulp of each other around a drawn rank),
    rows and queries whose spread tends to zero, and rows next to the query.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = draw(st.integers(8, 24))
    values = rng.normal(size=(draw(st.integers(3, 24)), length))
    query = rng.normal(size=length)
    spreads = st.sampled_from([0.0, 1e-15, 1e-10, 1e-6])
    if draw(st.booleans()):
        query = 3.0 + draw(spreads) * query
    normalized = znormalize(query)
    extras = []
    tied = None
    if draw(st.booleans()):
        extras.append(values[rng.integers(0, values.shape[0], size=3)])
    if draw(st.booleans()):
        order = np.argsort(canonical_squared(normalized, values))
        tied = values[order[draw(st.integers(0, order.size - 1))]]
        column = draw(st.integers(0, length - 1))
        up, down = tied.copy(), tied.copy()
        up[column] = np.nextafter(up[column], np.inf)
        down[column] = np.nextafter(down[column], -np.inf)
        extras.append(np.vstack([up, tied, down]))
    if draw(st.booleans()):
        extras.append(2.0 + draw(spreads) * rng.normal(size=(3, length)))
    if draw(st.booleans()):
        extras.append(normalized + 1e-9 * rng.normal(size=(2, length)))
    values = np.vstack([values, *extras])
    counts = [st.just(values.shape[0]), st.integers(1, values.shape[0])]
    if tied is not None:
        # k such that the k-th nearest is the nudged row's unnudged twin.
        squared = canonical_squared(normalized, values)
        counts.append(st.just(int(np.sum(
            squared < canonical_squared(normalized, tied[None])[0])) + 1))
    return values, query, draw(st.one_of(*counts))


def _flat_index(values):
    return SofaIndex(word_length=4, alphabet_size=4, leaf_size=4,
                     sample_fraction=1.0).build(Dataset(values,
                                                        normalize=False))


class TestCertifiedBounds:
    @settings(max_examples=80, deadline=None)
    @given(near_tie_collections(),
           st.sampled_from([1e-3, 1.0, 1e3]))
    def test_margin_covers_the_canonical_distance_on_every_row(
            self, collection, scale):
        """``fl(est − δ) <= canonical <= fl(est + δ)``, i.e.
        ``|est − canonical| <= δ`` up to the rounding the proof covers."""
        values, query, _ = collection
        values = scale * values
        queries = np.vstack([znormalize(query), np.zeros_like(query),
                             values[0]])
        lower, upper = certified_bounds(
            queries, values, np.einsum("ij,ij->i", values, values))
        for position, row in enumerate(queries):
            canonical = canonical_squared(row, values)
            assert np.all(lower[position] <= canonical)
            assert np.all(canonical <= upper[position])

    def test_candidates_are_few_and_cover_every_tie(self, degenerate_setup):
        tree, _, queries = degenerate_setup
        values = tree.dataset.values
        normalized = np.vstack([znormalize(query) for query in queries.values])
        found = certified_candidates(normalized, values, tree.squared_norms, 5)
        assert found.estimated == tree.num_series
        assert not found.timed_out
        assert np.all(np.diff(found.queries) >= 0)
        for position, query in enumerate(normalized):
            rows = found.rows[found.queries == position]
            assert np.all(np.diff(rows) > 0)
            canonical = canonical_squared(query, values)
            fifth = np.sort(canonical)[4]
            assert set(np.flatnonzero(canonical <= fifth)) <= set(rows.tolist())
            assert rows.size < tree.num_series / 10


#: (pairs per estimate block, sampled rows per neighbour): one block with a
#: full first selection, and many tiny blocks with a strided sample.
SCHEDULES = st.sampled_from([(2 ** 17, 64), (3, 1)])


def _certified_path(patch, schedule):
    block_cells, sample_per_count = schedule
    patch.setattr(repro.index.search, "FLAT_REFINEMENT_THRESHOLD", np.inf)
    patch.setattr(repro.index.search, "_ESTIMATE_BLOCK_CELLS", block_cells)
    patch.setattr(repro.index.search, "_SAMPLE_PER_COUNT", sample_per_count)


class TestCertifiedPathProperty:
    @settings(max_examples=60, deadline=None)
    @given(near_tie_collections(), SCHEDULES)
    def test_both_engines_match_the_canonical_brute_force(self, collection,
                                                          schedule):
        values, query, k = collection
        tree = _flat_index(values).tree
        expected = _brute_force(query, np.arange(values.shape[0]),
                                tree.dataset.values, k)
        with pytest.MonkeyPatch.context() as patch:
            _certified_path(patch, schedule)
            _assert_identical(expected, ExactSearcher(tree).knn(query, k=k))
            _assert_identical(expected,
                              BatchSearcher(tree).knn_batch(query, k=k)[0])

    @settings(max_examples=40, deadline=None)
    @given(near_tie_collections(), SCHEDULES, st.data())
    def test_delta_rows_and_tombstones_match_the_brute_force(self, collection,
                                                             schedule, data):
        values, query, _ = collection
        num_base = data.draw(st.integers(2, values.shape[0] - 1))
        dynamic = _flat_index(values[:num_base]).dynamic()
        dynamic.insert_batch(values[num_base:])
        deleted = data.draw(st.sets(st.integers(0, values.shape[0] - 1),
                                    max_size=values.shape[0] - 1))
        for row in deleted:
            dynamic.delete(row)
        surviving = [row for row in range(values.shape[0])
                     if row not in deleted]
        k = data.draw(st.integers(1, len(surviving)))
        expected = _brute_force(query, surviving,
                                dynamic.gather_values(surviving), k)
        with pytest.MonkeyPatch.context() as patch:
            _certified_path(patch, schedule)
            _assert_identical(expected, dynamic.knn(query, k=k))
            _assert_identical(expected, dynamic.knn_batch(query, k=k)[0])


class TestCertifiedPathContracts:
    """Deadlines on both engines on the flat path."""

    @pytest.fixture(autouse=True)
    def flat_path(self, monkeypatch):
        monkeypatch.setattr(repro.index.search, "FLAT_REFINEMENT_THRESHOLD",
                            np.inf)

    def _assert_exact(self, tree, query, result):
        canonical = canonical_squared(znormalize(query),
                                      tree.dataset.values[result.indices])
        assert np.array_equal(result.distances, np.sqrt(canonical))

    def test_expired_budget_gives_a_timed_out_exact_answer(
            self, degenerate_setup):
        tree, _, queries = degenerate_setup
        single = ExactSearcher(tree).knn(queries[0], k=3, timeout_s=1e-9)
        batched = BatchSearcher(tree).knn_batch(queries.values[:4], k=3,
                                                timeout_s=1e-9)
        for query, result in [(queries[0], single),
                              *zip(queries.values[:4], batched)]:
            assert result.stats.timed_out is True
            assert len(result.indices) == 3
            self._assert_exact(tree, query, result)

    def test_expired_budget_covers_the_first_block(self, degenerate_setup,
                                                   monkeypatch):
        """Coverage is counted in estimate blocks: an expired budget
        estimates the first block only and answers from its rows."""
        tree, _, queries = degenerate_setup
        monkeypatch.setattr(repro.index.search, "_ESTIMATE_BLOCK_CELLS", 100)
        for result in (ExactSearcher(tree).knn(queries[0], k=3,
                                               timeout_s=1e-9),
                       BatchSearcher(tree).knn_batch(queries[0], k=3,
                                                     timeout_s=1e-9)[0]):
            assert result.stats.timed_out is True
            assert result.stats.series_lower_bounds == 100
            assert np.all(result.indices < 100)
            expected = _brute_force(queries[0], np.arange(100),
                                    tree.dataset.values[:100], 3)
            _assert_identical(expected, result)
