"""Tests for the SAX / iSAX summarization and its mindist lower bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import euclidean
from repro.core.errors import InvalidParameterError, NotFittedError
from repro.transforms.paa import paa_transform
from repro.transforms.sax import SAX


class TestConstruction:
    def test_alphabet_must_be_power_of_two(self):
        with pytest.raises(InvalidParameterError):
            SAX(alphabet_size=100)

    def test_alphabet_must_be_at_least_two(self):
        with pytest.raises(InvalidParameterError):
            SAX(alphabet_size=1)

    def test_word_length_positive(self):
        with pytest.raises(InvalidParameterError):
            SAX(word_length=0)

    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            SAX().word(np.zeros(32))


class TestWords:
    def test_word_values_in_alphabet(self, walk_dataset):
        sax = SAX(word_length=8, alphabet_size=16).fit(walk_dataset)
        words = sax.words(walk_dataset)
        assert words.shape == (walk_dataset.num_series, 8)
        assert words.min() >= 0
        assert words.max() < 16

    def test_numeric_summary_is_paa(self, walk_dataset):
        sax = SAX(word_length=8).fit(walk_dataset)
        series = walk_dataset[0]
        assert np.allclose(sax.transform(series), paa_transform(series, 8))

    def test_word_of_constant_zero_series_is_middle_symbol(self, walk_dataset):
        sax = SAX(word_length=4, alphabet_size=8).fit(walk_dataset)
        word = sax.word(np.zeros(walk_dataset.series_length))
        # Zero falls exactly on the central Gaussian breakpoint; with half-open
        # bins it maps to the upper-middle symbol.
        assert np.all(word == 4)

    def test_word_to_string_small_alphabet(self, walk_dataset):
        sax = SAX(word_length=4, alphabet_size=8).fit(walk_dataset)
        rendered = sax.word_to_string(np.array([0, 1, 2, 7]))
        assert rendered == "abch"

    def test_word_to_string_large_alphabet(self, walk_dataset):
        sax = SAX(word_length=4, alphabet_size=256).fit(walk_dataset)
        rendered = sax.word_to_string(np.array([0, 10, 255, 3]))
        assert rendered == "0-10-255-3"


class TestMindist:
    def test_mindist_is_lower_bound(self, walk_dataset):
        """mindist(PAA(q), word(c)) <= d_ED(q, c) — the core GEMINI requirement."""
        sax = SAX(word_length=16, alphabet_size=64).fit(walk_dataset)
        values = walk_dataset.values
        words = sax.words(walk_dataset)
        for i in range(0, 30, 3):
            query = values[i]
            summary = sax.transform(query)
            for j in range(30, 50, 4):
                lower = np.sqrt(sax.mindist(summary, words[j]))
                assert lower <= euclidean(query, values[j]) + 1e-9

    def test_mindist_zero_for_own_word(self, walk_dataset):
        sax = SAX(word_length=8, alphabet_size=32).fit(walk_dataset)
        series = walk_dataset[0]
        assert sax.mindist(sax.transform(series), sax.word(series)) == pytest.approx(0.0)

    def test_mindist_batch_matches_single(self, walk_dataset):
        sax = SAX(word_length=8, alphabet_size=16).fit(walk_dataset)
        words = sax.words(walk_dataset)[:20]
        summary = sax.transform(walk_dataset[50])
        batch = sax.mindist_batch(summary, words)
        singles = np.array([sax.mindist(summary, word) for word in words])
        assert np.allclose(batch, singles)

    def test_reduced_cardinality_loosens_the_bound(self, walk_dataset):
        sax = SAX(word_length=8, alphabet_size=256).fit(walk_dataset)
        summary = sax.transform(walk_dataset[0])
        word = sax.word(walk_dataset[33])
        full = sax.mindist(summary, word)
        for bits in (4, 2, 1):
            coarse_word = word >> (8 - bits)
            coarse = sax.mindist(summary, coarse_word, cardinality_bits=bits)
            assert coarse <= full + 1e-12
            full = coarse  # bounds shrink monotonically as cardinality drops

    def test_larger_alphabet_tightens_the_bound_on_average(self, oscillatory_dataset):
        values = oscillatory_dataset.values
        bounds = {}
        for alphabet in (4, 256):
            sax = SAX(word_length=16, alphabet_size=alphabet).fit(oscillatory_dataset)
            words = sax.words(oscillatory_dataset)
            total = 0.0
            for i in range(10):
                summary = sax.transform(values[i])
                total += float(np.sqrt(sax.mindist_batch(summary, words[50:])).mean())
            bounds[alphabet] = total
        assert bounds[256] >= bounds[4]


class TestLowerBoundNumericSummaries:
    def test_paa_lower_bound_between_summaries(self, walk_dataset):
        sax = SAX(word_length=8).fit(walk_dataset)
        a, b = walk_dataset[0], walk_dataset[1]
        lower = sax.lower_bound(sax.transform(a), sax.transform(b))
        assert lower <= euclidean(a, b) + 1e-9

    def test_reconstruct_shape(self, walk_dataset):
        sax = SAX(word_length=8).fit(walk_dataset)
        reconstruction = sax.reconstruct(sax.transform(walk_dataset[0]),
                                         walk_dataset.series_length)
        assert reconstruction.shape == (walk_dataset.series_length,)


@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from([4, 8, 16, 64, 256]),
       st.integers(min_value=2, max_value=16))
@settings(max_examples=40, deadline=None)
def test_sax_mindist_lower_bound_property(seed, alphabet_size, word_length):
    """Property: the iSAX mindist lower-bounds the Euclidean distance."""
    rng = np.random.default_rng(seed)
    length = 64
    matrix = rng.standard_normal((20, length))
    sax = SAX(word_length=word_length, alphabet_size=alphabet_size).fit(matrix)
    query = rng.standard_normal(length)
    summary = sax.transform(query)
    words = sax.words(matrix)
    lower = np.sqrt(sax.mindist_batch(summary, words))
    true = np.array([euclidean(query, row) for row in matrix])
    assert np.all(lower <= true + 1e-9)
