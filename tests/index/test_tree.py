"""Tests for the shared MESSI/SOFA tree index structure."""

import numpy as np
import pytest

from repro.core.errors import IndexError_, InvalidParameterError
from repro.core.series import Dataset
from repro.datasets.synthetic import GENERATORS
from repro.index.tree import TreeIndex
from repro.transforms.sax import SAX
from repro.transforms.sfa import SFA


def _build_tree(dataset, leaf_size=25, summarization=None, **kwargs):
    summarization = summarization or SAX(word_length=8, alphabet_size=16)
    tree = TreeIndex(summarization, leaf_size=leaf_size, **kwargs)
    return tree.build(dataset)


class TestConstruction:
    def test_invalid_leaf_size(self):
        with pytest.raises(InvalidParameterError):
            TreeIndex(SAX(), leaf_size=0)

    @pytest.mark.parametrize("leaf_size", ["3", 2.5, None, True])
    def test_non_integral_leaf_size_is_typed(self, leaf_size):
        """A non-integer capacity fails typed, not as a bare ``TypeError``
        from the range comparison."""
        with pytest.raises(InvalidParameterError, match="leaf_size"):
            TreeIndex(SAX(), leaf_size=leaf_size)

    def test_not_built_flags(self):
        tree = TreeIndex(SAX())
        assert not tree.is_built
        with pytest.raises(IndexError_):
            _ = tree.num_series

    def test_build_accepts_raw_arrays(self, small_matrix):
        tree = TreeIndex(SAX(word_length=4, alphabet_size=8), leaf_size=10)
        tree.build(small_matrix)
        assert tree.is_built
        assert tree.num_series == small_matrix.shape[0]


class TestStructure:
    def test_every_series_is_stored_exactly_once(self, walk_dataset):
        tree = _build_tree(walk_dataset, leaf_size=10)
        stored = np.concatenate([leaf.indices for leaf in tree.leaves()])
        assert np.array_equal(np.sort(stored), np.arange(walk_dataset.num_series))

    def test_leaf_capacity_is_respected_or_unsplittable(self, walk_dataset):
        tree = _build_tree(walk_dataset, leaf_size=10)
        for leaf in tree.leaves():
            if leaf.size > tree.leaf_size:
                # Oversized leaves are only allowed when no dimension can be
                # split further (identical words or exhausted bits).
                assert np.all(leaf.bits >= tree.summarization.bits) or \
                    np.unique(leaf.words, axis=0).shape[0] == 1

    def test_leaf_words_match_node_prefix(self, walk_dataset):
        tree = _build_tree(walk_dataset, leaf_size=10)
        bits = tree.summarization.bits
        for leaf in tree.leaves():
            for dim in range(leaf.word_length):
                used = int(leaf.bits[dim])
                if used == 0:
                    continue
                prefixes = leaf.words[:, dim] >> (bits - used)
                assert np.all(prefixes == leaf.symbols[dim])

    def test_root_children_keys_are_top_bits(self, walk_dataset):
        tree = _build_tree(walk_dataset, leaf_size=10)
        bits = tree.summarization.bits
        words = tree.summarization.words(walk_dataset)
        expected_keys = {tuple(row) for row in (words >> (bits - 1))}
        assert set(tree.root_children) == expected_keys

    def test_larger_leaf_size_gives_fewer_leaves(self, walk_dataset):
        small = _build_tree(walk_dataset, leaf_size=5)
        large = _build_tree(walk_dataset, leaf_size=50)
        assert len(large.leaves()) <= len(small.leaves())

    def test_sfa_tree_builds(self, oscillatory_dataset):
        summarization = SFA(word_length=8, alphabet_size=16, sample_fraction=1.0)
        tree = _build_tree(oscillatory_dataset, leaf_size=15, summarization=summarization)
        stored = np.concatenate([leaf.indices for leaf in tree.leaves()])
        assert np.array_equal(np.sort(stored), np.arange(oscillatory_dataset.num_series))


class TestLowerBounds:
    def test_node_lower_bound_is_valid_for_members(self, walk_dataset):
        """A node's lower bound never exceeds the distance to any series in it."""
        from repro.core.distance import euclidean

        tree = _build_tree(walk_dataset, leaf_size=10)
        query = walk_dataset[0]
        summary = tree.summarization.transform(query)
        for leaf in tree.leaves()[:10]:
            node_bound = np.sqrt(tree.node_lower_bound(summary, leaf))
            for row in leaf.indices[:5]:
                assert node_bound <= euclidean(query, walk_dataset.values[row]) + 1e-9

    def test_leaf_directory_matches_per_node_bounds(self, walk_dataset):
        tree = _build_tree(walk_dataset, leaf_size=10)
        summary = tree.summarization.transform(walk_dataset[3])
        directory_bounds = tree.leaf_lower_bounds(summary)
        individual = np.array([tree.node_lower_bound(summary, leaf)
                               for leaf in tree.leaf_nodes])
        assert np.allclose(directory_bounds, individual)

    def test_series_lower_bounds_are_valid(self, walk_dataset):
        from repro.core.distance import euclidean

        tree = _build_tree(walk_dataset, leaf_size=10)
        query = walk_dataset[7]
        summary = tree.summarization.transform(query)
        for leaf in tree.leaves()[:5]:
            bounds = np.sqrt(tree.series_lower_bounds(summary, leaf))
            true = np.array([euclidean(query, walk_dataset.values[row])
                             for row in leaf.indices])
            assert np.all(bounds <= true + 1e-9)

    def test_leaf_lower_bounds_requires_build(self):
        tree = TreeIndex(SAX())
        with pytest.raises(IndexError_):
            tree.leaf_lower_bounds(np.zeros(16))


class TestDirectoryHelpers:
    """Edge cases of the PR-1 helpers: series_directory, leaf_position,
    approximate_leaf — on degenerate tree shapes."""

    @pytest.fixture()
    def single_leaf_tree(self):
        """All-positive, unnormalized values share the top SAX bit, so every
        series lands in one root child and (with a large leaf budget) one leaf."""
        values = np.abs(np.random.default_rng(11).normal(5.0, 0.5, size=(30, 32))) + 1.0
        dataset = Dataset(values, name="positive", normalize=False)
        return _build_tree(dataset, leaf_size=100,
                           summarization=SAX(word_length=4, alphabet_size=4)), dataset

    def test_single_leaf_tree_directory(self, single_leaf_tree):
        tree, dataset = single_leaf_tree
        assert len(tree.leaf_nodes) == 1
        lower, upper, rows, offsets, sizes = tree.series_directory()
        assert lower.shape == (dataset.num_series, 4)
        assert upper.shape == (dataset.num_series, 4)
        assert np.array_equal(np.sort(rows), np.arange(dataset.num_series))
        assert offsets.tolist() == [0]
        assert sizes.tolist() == [dataset.num_series]
        assert tree.leaf_position(tree.leaf_nodes[0]) == 0

    def test_single_leaf_approximate_descent(self, single_leaf_tree):
        tree, dataset = single_leaf_tree
        the_leaf = tree.leaf_nodes[0]
        summarization = tree.summarization
        # A query inside the populated root child descends to the only leaf.
        inside = dataset.values[0]
        summary = summarization.transform(inside)
        assert tree.approximate_leaf(summarization.bins.symbols(summary),
                                     summary) is the_leaf
        # A query whose 1-bit prefix has no root child falls back to the
        # smallest-lower-bound leaf — still the only one.
        outside = -dataset.values[0]
        summary = summarization.transform(outside)
        assert tree.approximate_leaf(summarization.bins.symbols(summary),
                                     summary) is the_leaf

    def test_leaf_size_one_tree(self, walk_dataset):
        tree = _build_tree(walk_dataset, leaf_size=1)
        lower, upper, rows, offsets, sizes = tree.series_directory()
        assert rows.shape[0] == walk_dataset.num_series
        assert np.array_equal(offsets, np.concatenate([[0], np.cumsum(sizes[:-1])]))
        for position, leaf in enumerate(tree.leaf_nodes):
            assert tree.leaf_position(leaf) == position
            start = int(offsets[position])
            assert np.array_equal(rows[start:start + int(sizes[position])],
                                  leaf.indices)
        # Every query word descends to a leaf whose region contains it.
        summarization = tree.summarization
        for query in walk_dataset.values[:10]:
            summary = summarization.transform(query)
            leaf = tree.approximate_leaf(summarization.bins.symbols(summary), summary)
            assert leaf is not None
            assert tree.leaf_position(leaf) >= 0

    def test_leaf_position_rejects_foreign_leaf(self, walk_dataset):
        tree = _build_tree(walk_dataset, leaf_size=10)
        other = _build_tree(walk_dataset, leaf_size=10)
        with pytest.raises(IndexError_, match="does not belong"):
            tree.leaf_position(other.leaf_nodes[0])

    def test_series_directory_requires_build(self):
        with pytest.raises(IndexError_):
            TreeIndex(SAX()).series_directory()

    def test_dataset_below_sfa_sample_floor(self):
        """Three series: the MCB sample floor (2) exceeds the 1 % fraction."""
        from repro.index.sofa import SofaIndex

        values = np.random.default_rng(23).normal(size=(3, 64))
        index = SofaIndex(word_length=8, alphabet_size=16, leaf_size=2,
                          sample_fraction=0.01).build(values)
        tree = index.tree
        lower, upper, rows, offsets, sizes = tree.series_directory()
        assert rows.shape[0] == 3
        assert int(sizes.sum()) == 3
        for leaf in tree.leaf_nodes:
            assert tree.leaf_position(leaf) in range(len(tree.leaf_nodes))
        summarization = tree.summarization
        query = values[1]
        normalized = (query - query.mean()) / query.std()
        summary = summarization.transform(normalized)
        leaf = tree.approximate_leaf(summarization.bins.symbols(summary), summary)
        assert leaf is not None
        # The exact engine still answers correctly over the tiny collection.
        result = index.knn(query, k=3)
        assert result.nearest_index == 1
        assert result.nearest_distance == pytest.approx(0.0, abs=1e-9)
        assert sorted(result.indices.tolist()) == [0, 1, 2]


class TestTimings:
    def test_build_timings_are_recorded(self, walk_dataset):
        tree = _build_tree(walk_dataset, leaf_size=10)
        timings = tree.timings
        assert timings.learn_time >= 0.0
        assert timings.transform_time > 0.0
        assert timings.tree_time > 0.0
        assert timings.wall_time >= timings.total_time
        assert timings.total_time == pytest.approx(
            timings.learn_time + timings.transform_time + timings.tree_time)

    def test_len_matches_num_series(self, walk_dataset):
        tree = _build_tree(walk_dataset, leaf_size=10)
        assert len(tree) == walk_dataset.num_series


class TestStats:
    def test_structure_stats(self, walk_dataset):
        from repro.index.stats import compute_structure_stats

        tree = _build_tree(walk_dataset, leaf_size=10)
        stats = compute_structure_stats(tree)
        assert stats.num_series == walk_dataset.num_series
        assert stats.num_leaves == len(tree.leaves())
        assert stats.num_subtrees == len(tree.root_children)
        assert stats.average_depth >= 1.0
        assert stats.max_depth >= stats.average_depth
        assert 0.0 < stats.average_leaf_size <= walk_dataset.num_series
        assert stats.as_dict()["num_leaves"] == stats.num_leaves

    def test_structure_stats_requires_built_index(self):
        from repro.index.stats import compute_structure_stats

        with pytest.raises(IndexError_):
            compute_structure_stats(TreeIndex(SAX()))


# ------------------------------------------- production-kernel soundness

SWEEP_SUMMARIZATIONS = {
    "SOFA-equi-width": lambda: SFA(word_length=8, alphabet_size=16,
                                   binning="equi-width", sample_fraction=1.0),
    "SOFA-equi-depth": lambda: SFA(word_length=8, alphabet_size=16,
                                   binning="equi-depth", sample_fraction=1.0),
    "MESSI": lambda: SAX(word_length=8, alphabet_size=16),
}

_SWEEP_CACHE: "dict[tuple[str, str], tuple]" = {}


def _sweep_case(summarization: str, family: str):
    """(tree, query summaries, true squared distances) for one sweep cell.

    The tree is built by the production builder over 150 series of one
    generator family; six further series of the family are the queries,
    z-normalized and summarized exactly as the searchers do it.
    """
    key = (summarization, family)
    if key not in _SWEEP_CACHE:
        from repro.core.normalization import znormalize_batch

        rows = GENERATORS[family](156, 64, seed=8080)
        tree = TreeIndex(SWEEP_SUMMARIZATIONS[summarization](),
                         leaf_size=8).build(Dataset(rows[:150], name=family))
        queries = znormalize_batch(rows[150:])
        summaries = tree.summarization.transform_batch(queries)
        difference = queries[:, None, :] - tree.dataset.values[None, :, :]
        true = np.einsum("qnl,qnl->qn", difference, difference)
        _SWEEP_CACHE[key] = (tree, summaries, true)
    return _SWEEP_CACHE[key]


def _assert_sound(bounds: np.ndarray, true: np.ndarray) -> None:
    """Every squared bound is at most the true squared distance (up to
    rounding)."""
    assert np.all(bounds <= true * (1 + 1e-9) + 1e-9)


_SWEEP = pytest.mark.parametrize("family", sorted(GENERATORS))
_SWEEP_METHODS = pytest.mark.parametrize("summarization",
                                         sorted(SWEEP_SUMMARIZATIONS))


@_SWEEP_METHODS
@_SWEEP
class TestProductionKernelSoundness:
    """The tree's lower-bound entry points never overestimate, for every
    summarization the indexes use and every synthetic data family, and
    their multi-query and pair forms agree with the 1-D kernel.  They agree
    up to summation order only (the 1-D kernel reduces with ``einsum``, the
    others with a matrix product), hence ``rtol=1e-12`` rather than bit
    equality."""

    def test_leaf_lower_bounds(self, summarization, family):
        tree, summaries, true = _sweep_case(summarization, family)
        multi = tree.leaf_lower_bounds(summaries)
        for query, summary in enumerate(summaries):
            bounds = tree.leaf_lower_bounds(summary)
            np.testing.assert_allclose(multi[query], bounds, rtol=1e-12,
                                       atol=0)
            closest = np.array([true[query, leaf.indices].min()
                                for leaf in tree.leaf_nodes])
            _assert_sound(bounds, closest)

    def test_series_lower_bounds(self, summarization, family):
        tree, summaries, true = _sweep_case(summarization, family)
        for leaf in tree.leaf_nodes:
            multi = tree.series_lower_bounds(summaries, leaf)
            for query, summary in enumerate(summaries):
                bounds = tree.series_lower_bounds(summary, leaf)
                np.testing.assert_allclose(multi[query], bounds, rtol=1e-12,
                                           atol=0)
                _assert_sound(bounds, true[query, leaf.indices])

    def test_all_series_lower_bounds(self, summarization, family):
        tree, summaries, true = _sweep_case(summarization, family)
        multi, multi_rows = tree.all_series_lower_bounds(summaries)
        for query, summary in enumerate(summaries):
            bounds, rows = tree.all_series_lower_bounds(summary)
            assert np.array_equal(rows, multi_rows)
            assert np.array_equal(np.sort(rows), np.arange(tree.num_series))
            np.testing.assert_allclose(multi[query], bounds, rtol=1e-12,
                                       atol=0)
            _assert_sound(bounds, true[query, rows])

    def test_batch_lower_bound_pairs(self, summarization, family):
        """Ragged (query, leaf-series) pairs: every query paired with the
        series of every other leaf, gathered from the series directory."""
        from repro.core.simd import batch_lower_bound_pairs

        tree, summaries, true = _sweep_case(summarization, family)
        lower, upper, rows, offsets, sizes = tree.series_directory()
        num_leaves = len(tree.leaf_nodes)
        # Every query paired with every other leaf, query-major, each pair
        # expanded into one instance per series of its leaf.
        leaf_columns = np.concatenate(
            [np.arange(offsets[leaf], offsets[leaf] + sizes[leaf])
             for leaf in range(0, num_leaves, 2)])
        instance_query = np.repeat(np.arange(summaries.shape[0]),
                                   leaf_columns.size)
        column = np.tile(leaf_columns, summaries.shape[0])
        bounds = batch_lower_bound_pairs(summaries[instance_query],
                                         lower[column], upper[column],
                                         tree.summarization.weights)
        _assert_sound(bounds, true[instance_query, rows[column]])
        for query, summary in enumerate(summaries):
            mine = instance_query == query
            np.testing.assert_allclose(
                bounds[mine],
                tree.all_series_lower_bounds(summary)[0][column[mine]],
                rtol=1e-12, atol=0)
