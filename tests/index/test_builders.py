"""Property tests for the vectorized construction pipeline.

The contract of :meth:`repro.index.tree.TreeIndex.build` is that the built
index is *bit-identical* no matter how it was built: vectorized frontier
builder vs the seed recursive builder.  Same tree shape, same leaf payloads,
same directory arrays, same snapshots on disk, same ``knn`` / ``knn_batch``
answers.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidParameterError
from repro.core.series import Dataset
from repro.datasets.registry import load_dataset
from repro.datasets.synthetic import random_walk
from repro.index.messi import MessiIndex
from repro.index.persistence import MANIFEST_NAME
from repro.index.sofa import SofaIndex
from repro.index.tree import BUILDERS, TreeIndex
from repro.transforms.sax import SAX

INDEXES = {"SOFA": SofaIndex, "MESSI": MessiIndex}

DIRECTORY_ATTRIBUTES = ("_leaf_lower", "_leaf_upper", "_series_lower",
                        "_series_upper", "_series_rows", "_leaf_sizes",
                        "_leaf_offsets")


def make_index(kind: str, leaf_size: int = 25,
               builder: str = "vectorized") -> "SofaIndex | MessiIndex":
    common = dict(word_length=8, alphabet_size=16, leaf_size=leaf_size,
                  builder=builder)
    if kind == "SOFA":
        return SofaIndex(sample_fraction=1.0, **common)
    return MessiIndex(**common)


def assert_identical_trees(reference: TreeIndex, candidate: TreeIndex) -> None:
    """Shape, node words, leaf payloads and directory arrays all match."""
    assert list(reference.root_children) == list(candidate.root_children)
    for key in reference.root_children:
        expected_nodes = list(reference.root_children[key].iter_nodes())
        actual_nodes = list(candidate.root_children[key].iter_nodes())
        assert len(expected_nodes) == len(actual_nodes)
        for expected, actual in zip(expected_nodes, actual_nodes):
            assert expected.is_leaf() == actual.is_leaf()
            assert np.array_equal(expected.symbols, actual.symbols)
            assert np.array_equal(expected.bits, actual.bits)
            if not expected.is_leaf():
                assert expected.split_dimension == actual.split_dimension
    expected_leaves = reference.leaves()
    actual_leaves = candidate.leaves()
    assert len(expected_leaves) == len(actual_leaves)
    for expected, actual in zip(expected_leaves, actual_leaves):
        for attribute in ("indices", "words", "lower", "upper"):
            assert np.array_equal(getattr(expected, attribute),
                                  getattr(actual, attribute)), attribute
    for attribute in DIRECTORY_ATTRIBUTES:
        assert np.array_equal(getattr(reference, attribute),
                              getattr(candidate, attribute)), attribute


def assert_identical_snapshots(first, second) -> None:
    """Two snapshot directories hold the same arrays and the same manifest
    (modulo the recorded timings, which are measurements, not index state)."""
    first_files = sorted(path.name for path in first.iterdir())
    second_files = sorted(path.name for path in second.iterdir())
    assert first_files == second_files
    for name in first_files:
        if name == MANIFEST_NAME:
            with open(first / name, encoding="utf-8") as handle:
                first_manifest = json.load(handle)
            with open(second / name, encoding="utf-8") as handle:
                second_manifest = json.load(handle)
            first_manifest.pop("timings")
            second_manifest.pop("timings")
            # The whole-manifest checksum covers the timings, so it differs
            # between otherwise identical snapshots.
            first_manifest.pop("manifest_checksum", None)
            second_manifest.pop("manifest_checksum", None)
            assert first_manifest == second_manifest
        else:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.fixture(scope="module")
def clustered_split():
    dataset = load_dataset("LenDB", num_series=400, seed=29)
    return dataset.split(10, rng=np.random.default_rng(1))


class TestBuilderEquivalence:
    """Vectorized frontier builder vs the seed recursive reference."""

    @pytest.mark.parametrize("leaf_size", [1, 10, 1000])
    def test_tree_index_builders_are_bit_identical(self, walk_dataset,
                                                   leaf_size):
        trees = {
            builder: TreeIndex(SAX(word_length=8, alphabet_size=16),
                               leaf_size=leaf_size,
                               builder=builder).build(walk_dataset)
            for builder in BUILDERS
        }
        assert_identical_trees(trees["recursive"], trees["vectorized"])

    @pytest.mark.parametrize("kind", list(INDEXES))
    def test_wrapper_builders_answer_identically(self, clustered_split, kind):
        index_set, queries = clustered_split
        reference = make_index(kind, builder="recursive").build(index_set)
        candidate = make_index(kind).build(index_set)
        assert candidate.tree.builder == "vectorized"
        assert_identical_trees(reference.tree, candidate.tree)
        for query in queries.values:
            expected = reference.knn(query, k=5)
            actual = candidate.knn(query, k=5)
            assert np.array_equal(expected.indices, actual.indices)
            assert np.array_equal(expected.distances, actual.distances)


class TestEdgeShapes:
    """Both builders agree on snapshots, batches and degenerate trees."""

    @pytest.mark.parametrize("kind", list(INDEXES))
    def test_trees_snapshots_and_batches_match(self, clustered_split, tmp_path,
                                               kind):
        index_set, queries = clustered_split
        reference = make_index(kind, builder="recursive").build(index_set)
        vectorized = make_index(kind).build(index_set)
        assert_identical_trees(reference.tree, vectorized.tree)

        reference.save(tmp_path / "reference")
        vectorized.save(tmp_path / "vectorized")
        assert_identical_snapshots(tmp_path / "reference",
                                   tmp_path / "vectorized")

        for k in (1, 5):
            for expected, actual in zip(reference.knn_batch(queries.values, k=k),
                                        vectorized.knn_batch(queries.values, k=k)):
                assert np.array_equal(expected.indices, actual.indices)
                assert np.array_equal(expected.distances, actual.distances)

    @pytest.mark.parametrize("kind", list(INDEXES))
    def test_single_leaf_tree(self, kind):
        """All-positive unnormalized values share every top SAX bit: one root
        child, one leaf — identical for both builders.  (SFA
        words fan out even here, so the single-leaf shape is asserted for
        MESSI only; the equivalences hold for both.)"""
        values = np.abs(np.random.default_rng(11).normal(5.0, 0.5,
                                                         size=(30, 64))) + 1.0
        dataset = Dataset(values, name="positive", normalize=False)
        vectorized = make_index(kind, leaf_size=100).build(dataset)
        reference = make_index(kind, leaf_size=100,
                               builder="recursive").build(dataset)
        if kind == "MESSI":
            assert len(vectorized.tree.leaf_nodes) == 1
        assert_identical_trees(reference.tree, vectorized.tree)

    @pytest.mark.parametrize("kind", list(INDEXES))
    def test_leaf_size_one(self, walk_dataset, kind):
        reference = make_index(kind, leaf_size=1,
                               builder="recursive").build(walk_dataset)
        vectorized = make_index(kind, leaf_size=1).build(walk_dataset)
        assert_identical_trees(reference.tree, vectorized.tree)
        query = walk_dataset.values[3]
        assert np.array_equal(reference.knn(query, k=3).indices,
                              vectorized.knn(query, k=3).indices)

    @pytest.mark.parametrize("kind", list(INDEXES))
    def test_all_duplicate_words(self, kind):
        """Identical series produce identical words: the root child cannot be
        split and becomes one oversized leaf, for both builders."""
        row = np.sin(np.linspace(0.0, 6.0, 64))
        dataset = Dataset(np.tile(row, (40, 1)), name="dup", normalize=False)
        vectorized = make_index(kind, leaf_size=5).build(dataset)
        reference = make_index(kind, leaf_size=5,
                               builder="recursive").build(dataset)
        assert len(vectorized.tree.leaf_nodes) == 1
        assert vectorized.tree.leaf_nodes[0].size == 40
        assert_identical_trees(reference.tree, vectorized.tree)


@given(seed=st.integers(min_value=0, max_value=2**16),
       num_series=st.integers(min_value=2, max_value=60),
       leaf_size=st.integers(min_value=1, max_value=30))
@settings(max_examples=15, deadline=None)
def test_build_invariance_property(seed, num_series, leaf_size):
    """For random small datasets, both builders agree."""
    dataset = Dataset(random_walk(num_series, 32, seed=seed), name="prop")
    summarization = SAX(word_length=4, alphabet_size=16)
    reference = TreeIndex(SAX(word_length=4, alphabet_size=16),
                          leaf_size=leaf_size, builder="recursive").build(dataset)
    vectorized = TreeIndex(summarization, leaf_size=leaf_size).build(dataset)
    assert_identical_trees(reference, vectorized)


class TestBuildConfiguration:
    def test_invalid_builder_rejected(self):
        with pytest.raises(InvalidParameterError):
            TreeIndex(SAX(), builder="magic")
        with pytest.raises(InvalidParameterError):
            MessiIndex(builder="magic")
        with pytest.raises(InvalidParameterError):
            SofaIndex(builder="magic")

    def test_searcher_caches_follow_in_place_rebuild(self):
        """Rebuilding a tree through an existing searcher must not serve the
        previous build's quantization state: ``fit`` assigns fresh
        bins/weights, and the searchers' hoisted caches re-capture them."""
        from repro.index.search import ExactSearcher
        from repro.transforms.sfa import SFA

        first = Dataset(random_walk(80, 32, seed=1), name="first")
        second = Dataset(random_walk(80, 32, seed=2), name="second")
        tree = TreeIndex(SFA(word_length=4, alphabet_size=16, sample_fraction=1.0),
                         leaf_size=10).build(first)
        searcher = ExactSearcher(tree)
        searcher.knn(first.values[0], k=3)
        searcher.knn_batch(first.values[:4], k=3)

        tree.build(second)  # in-place rebuild: SFA.fit learns new bins/weights
        fresh = ExactSearcher(tree)
        searcher.knn(second.values[0], k=3)
        # The hoisted caches must have re-captured the freshly fitted state.
        assert searcher._bins is tree.summarization.bins
        assert searcher._weights is tree.summarization.weights
        for query in second.values[:5]:
            expected = fresh.knn(query, k=3)
            actual = searcher.knn(query, k=3)
            assert np.array_equal(expected.indices, actual.indices)
            assert np.array_equal(expected.distances, actual.distances)
        for expected, actual in zip(fresh.knn_batch(second.values[:5], k=3),
                                    searcher.knn_batch(second.values[:5], k=3)):
            assert np.array_equal(expected.indices, actual.indices)
            assert np.array_equal(expected.distances, actual.distances)

    def test_wall_time_recorded_and_persisted(self, walk_dataset, tmp_path):
        index = make_index("MESSI").build(walk_dataset)
        timings = index.timings
        assert timings.wall_time > 0.0
        assert timings.wall_time >= timings.transform_time + timings.tree_time
        index.save(tmp_path / "snapshot")
        loaded = MessiIndex.load(tmp_path / "snapshot")
        assert loaded.timings.wall_time == timings.wall_time
