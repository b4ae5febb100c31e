"""Tests for the shared Summarization / SymbolicSummarization interfaces."""

import numpy as np
import pytest

from repro.core.errors import NotFittedError
from repro.core.series import Dataset
from repro.transforms.base import Summarization, SymbolicSummarization, _as_matrix
from repro.transforms.paa import PAA
from repro.transforms.sax import SAX
from repro.transforms.sfa import SFA


class TestAsMatrix:
    def test_dataset_passthrough(self, walk_dataset):
        assert _as_matrix(walk_dataset) is walk_dataset.values

    def test_1d_array_becomes_row(self):
        assert _as_matrix(np.arange(8.0)).shape == (1, 8)

    def test_2d_array_passthrough_values(self):
        matrix = np.ones((3, 4))
        assert _as_matrix(matrix).shape == (3, 4)

    def test_list_input(self):
        assert _as_matrix([[1.0, 2.0], [3.0, 4.0]]).shape == (2, 2)


class TestDefaultBatchTransform:
    def test_default_transform_batch_loops_over_rows(self, walk_dataset):
        class MeanOnly(Summarization):
            word_length = 1

            def fit(self, data):
                return self

            def transform(self, series):
                return np.array([np.mean(series)])

            def lower_bound(self, a, b):
                return 0.0

        batch = MeanOnly().fit(walk_dataset).transform_batch(walk_dataset)
        assert batch.shape == (walk_dataset.num_series, 1)
        assert np.allclose(batch[:, 0], walk_dataset.values.mean(axis=1))

    def test_reconstruct_default_raises(self, walk_dataset):
        class MeanOnly(Summarization):
            word_length = 1

            def fit(self, data):
                return self

            def transform(self, series):
                return np.array([np.mean(series)])

            def lower_bound(self, a, b):
                return 0.0

        with pytest.raises(NotImplementedError):
            MeanOnly().reconstruct(np.zeros(1), 10)


class TestSymbolicInterface:
    @pytest.mark.parametrize("factory", [
        lambda: SAX(word_length=8, alphabet_size=16),
        lambda: SFA(word_length=8, alphabet_size=16, sample_fraction=1.0),
    ])
    def test_alphabet_and_bits_consistent(self, factory, oscillatory_dataset):
        summarization = factory().fit(oscillatory_dataset)
        assert summarization.alphabet_size == 16
        assert summarization.bits == 4
        assert 2 ** summarization.bits == summarization.alphabet_size

    @pytest.mark.parametrize("factory", [
        lambda: SAX(word_length=8, alphabet_size=16),
        lambda: SFA(word_length=8, alphabet_size=16, sample_fraction=1.0),
    ])
    def test_properties_require_fit(self, factory):
        summarization = factory()
        with pytest.raises(NotFittedError):
            _ = summarization.alphabet_size
        with pytest.raises(NotFittedError):
            _ = summarization.bits

    def test_words_accept_dataset_and_array(self, oscillatory_dataset):
        sax = SAX(word_length=8, alphabet_size=16).fit(oscillatory_dataset)
        from_dataset = sax.words(oscillatory_dataset)
        from_array = sax.words(oscillatory_dataset.values)
        assert np.array_equal(from_dataset, from_array)

    def test_paa_is_not_symbolic(self):
        assert not isinstance(PAA(), SymbolicSummarization)
        assert isinstance(SAX(), SymbolicSummarization)
        assert isinstance(SFA(), SymbolicSummarization)

    def test_mindist_respects_best_so_far_argument(self, oscillatory_dataset):
        """The best_so_far argument exists for API parity with the SIMD kernel;
        passing it must not change the exactness of the returned bound when the
        bound is below the threshold."""
        sfa = SFA(word_length=8, sample_fraction=1.0).fit(oscillatory_dataset)
        summary = sfa.transform(oscillatory_dataset[0])
        word = sfa.word(oscillatory_dataset[5])
        unbounded = sfa.mindist(summary, word)
        bounded = sfa.mindist(summary, word, best_so_far=unbounded + 1.0)
        assert bounded == pytest.approx(unbounded)


class TestDatasetRoundTrip:
    def test_fit_on_dataset_and_array_give_same_words(self, oscillatory_dataset):
        values = oscillatory_dataset.values
        on_dataset = SFA(word_length=8, sample_fraction=1.0, random_state=1).fit(
            oscillatory_dataset)
        on_array = SFA(word_length=8, sample_fraction=1.0, random_state=1).fit(values)
        assert np.array_equal(on_dataset.words(values), on_array.words(values))

    def test_fit_on_unnormalized_dataset(self, small_matrix):
        dataset = Dataset(small_matrix, normalize=False)
        sfa = SFA(word_length=8, sample_fraction=1.0, skip_dc=False).fit(dataset)
        words = sfa.words(dataset)
        assert words.shape == (dataset.num_series, 8)
