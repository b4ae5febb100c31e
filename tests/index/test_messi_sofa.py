"""Tests for the MessiIndex and SofaIndex public wrappers."""

import numpy as np
import pytest

from repro.core.errors import IndexError_, ReproError
from repro.index.messi import MessiIndex
from repro.index.sofa import SofaIndex
from repro.index.stats import compute_structure_stats


class TestUnbuiltIndexErrors:
    """Querying an unbuilt wrapper raises the typed library exception with a
    message that names both recovery paths (build and load)."""

    @pytest.mark.parametrize("index_cls", [MessiIndex, SofaIndex])
    def test_every_query_method_raises_typed_error(self, index_cls):
        index = index_cls()
        expected = (f"{index_cls.__name__} has not been built; "
                    f"call build\\(dataset\\) or {index_cls.__name__}\\.load\\(path\\)")
        with pytest.raises(IndexError_, match=expected):
            index.knn(np.zeros(8))
        with pytest.raises(IndexError_, match=expected):
            index.nearest_neighbor(np.zeros(8))
        with pytest.raises(IndexError_, match=expected):
            index.knn_batch(np.zeros((2, 8)))
        with pytest.raises(IndexError_, match=expected):
            index.save("/tmp/never-written")

    @pytest.mark.parametrize("index_cls", [MessiIndex, SofaIndex])
    def test_typed_error_is_catchable_as_library_error(self, index_cls):
        with pytest.raises(ReproError):
            index_cls().knn(np.zeros(8))


class TestMessiIndex:
    def test_build_returns_self(self, clustered_index_and_queries):
        index_set, _ = clustered_index_and_queries
        index = MessiIndex(leaf_size=50)
        assert index.build(index_set) is index
        assert index.is_built

    def test_uses_sax_summarization(self):
        assert MessiIndex().summarization_name == "SAX"
        assert type(MessiIndex().summarization).__name__ == "SAX"

    def test_timings_exposed(self, clustered_index_and_queries):
        index_set, _ = clustered_index_and_queries
        index = MessiIndex(leaf_size=50).build(index_set)
        assert index.timings.total_time > 0.0

    def test_accepts_raw_arrays(self, small_matrix):
        index = MessiIndex(word_length=8, alphabet_size=16, leaf_size=10).build(small_matrix)
        result = index.nearest_neighbor(small_matrix[0])
        assert result.nearest_distance == pytest.approx(0.0, abs=1e-9)


class TestSofaIndex:
    def test_build_returns_self(self, clustered_index_and_queries):
        index_set, _ = clustered_index_and_queries
        index = SofaIndex(leaf_size=50)
        assert index.build(index_set) is index
        assert index.is_built

    def test_uses_sfa_summarization(self):
        assert SofaIndex().summarization_name == "SFA"
        assert type(SofaIndex().summarization).__name__ == "SFA"

    def test_binning_option_is_forwarded(self):
        assert SofaIndex(binning="equi-depth").summarization.binning == "equi-depth"
        assert SofaIndex().summarization.binning == "equi-width"

    def test_variance_selection_is_forwarded(self):
        assert SofaIndex(variance_selection=False).summarization.variance_selection is False

    def test_mean_selected_coefficient_index(self, clustered_index_and_queries):
        index_set, _ = clustered_index_and_queries
        index = SofaIndex(leaf_size=50, sample_fraction=1.0).build(index_set)
        mean_index = index.mean_selected_coefficient_index()
        assert 0.0 < mean_index <= 16.0

    def test_knn_returns_k_results(self, clustered_index_and_queries):
        index_set, queries = clustered_index_and_queries
        index = SofaIndex(leaf_size=50).build(index_set)
        result = index.knn(queries[0], k=5)
        assert result.indices.shape == (5,)
        assert result.distances.shape == (5,)


class TestStructureComparison:
    def test_both_indexes_have_comparable_structure(self, clustered_index_and_queries):
        """Figure 8: MESSI and SOFA produce trees of similar shape."""
        index_set, _ = clustered_index_and_queries
        messi = MessiIndex(leaf_size=50).build(index_set)
        sofa = SofaIndex(leaf_size=50).build(index_set)
        messi_stats = compute_structure_stats(messi.tree)
        sofa_stats = compute_structure_stats(sofa.tree)
        assert messi_stats.num_series == sofa_stats.num_series
        for stats in (messi_stats, sofa_stats):
            assert stats.num_leaves >= stats.num_subtrees
            assert stats.average_leaf_size <= 50 * 2  # only unsplittable leaves exceed capacity
