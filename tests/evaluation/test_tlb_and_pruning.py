"""Tests for the TLB ablation machinery and the pruning power it predicts."""

import numpy as np
import pytest

from repro.core.distance import squared_euclidean_batch
from repro.core.series import Dataset
from repro.datasets.synthetic import oscillatory
from repro.evaluation.tlb import (
    ABLATION_METHODS,
    evaluate_tlb,
    make_ablation_method,
    mean_tlb_table,
    tlb_study,
)
from repro.transforms.sax import SAX
from repro.transforms.sfa import SFA


@pytest.fixture(scope="module")
def train_and_queries():
    train = Dataset(oscillatory(120, 128, seed=1), name="train")
    queries = Dataset(oscillatory(15, 128, seed=2), name="queries")
    return train, queries


class TestEvaluateTlb:
    def test_tlb_in_unit_interval(self, train_and_queries):
        train, queries = train_and_queries
        tlb = evaluate_tlb(SFA(word_length=16, sample_fraction=1.0), train, queries)
        assert 0.0 <= tlb <= 1.0

    def test_sfa_beats_sax_on_high_frequency_data(self, train_and_queries):
        """Tables V/VI direction: SFA variants have higher TLB than iSAX here."""
        train, queries = train_and_queries
        sfa_tlb = evaluate_tlb(SFA(word_length=16, alphabet_size=64, sample_fraction=1.0),
                               train, queries)
        sax_tlb = evaluate_tlb(SAX(word_length=16, alphabet_size=64), train, queries)
        assert sfa_tlb > sax_tlb

    def test_larger_alphabet_increases_tlb(self, train_and_queries):
        train, queries = train_and_queries
        small = evaluate_tlb(SFA(word_length=16, alphabet_size=4, sample_fraction=1.0),
                             train, queries)
        large = evaluate_tlb(SFA(word_length=16, alphabet_size=256, sample_fraction=1.0),
                             train, queries)
        assert large >= small

    def test_subsampled_pairs(self, train_and_queries):
        train, queries = train_and_queries
        tlb = evaluate_tlb(SFA(word_length=8, sample_fraction=1.0), train, queries,
                           max_pairs_per_query=20)
        assert 0.0 <= tlb <= 1.0


class TestAblationFactory:
    @pytest.mark.parametrize("method", ABLATION_METHODS)
    def test_every_method_is_constructible(self, method):
        summarization = make_ablation_method(method, word_length=8, alphabet_size=16)
        assert summarization.word_length == 8

    def test_isax_maps_to_sax(self):
        assert isinstance(make_ablation_method("iSAX"), SAX)

    def test_variants_map_to_sfa_options(self):
        ed_var = make_ablation_method("SFA ED +VAR")
        ew = make_ablation_method("SFA EW")
        assert isinstance(ed_var, SFA) and ed_var.binning == "equi-depth"
        assert ed_var.variance_selection is True
        assert ew.binning == "equi-width" and ew.variance_selection is False

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            make_ablation_method("PAA EW")


class TestTlbStudy:
    def test_study_grid_shape(self, train_and_queries):
        train, queries = train_and_queries
        records = tlb_study({"toy": (train, queries)}, alphabet_sizes=(4, 16),
                            methods=("iSAX", "SFA EW +VAR"), word_length=8,
                            max_pairs_per_query=20)
        assert len(records) == 2 * 2
        assert {record.method for record in records} == {"iSAX", "SFA EW +VAR"}
        assert all(0.0 <= record.tlb <= 1.0 for record in records)

    def test_mean_tlb_table_aggregation(self, train_and_queries):
        train, queries = train_and_queries
        records = tlb_study({"a": (train, queries), "b": (train, queries)},
                            alphabet_sizes=(8,), methods=("iSAX",), word_length=8,
                            max_pairs_per_query=10)
        table = mean_tlb_table(records)
        assert set(table) == {"iSAX"}
        assert set(table["iSAX"]) == {8}
        expected = np.mean([record.tlb for record in records])
        assert table["iSAX"][8] == pytest.approx(expected)


def _pruning_power(summarization, train, queries) -> float:
    """Mean fraction of series whose word bound exceeds the true 1-NN distance.

    The threshold is the brute-force 1-NN distance: a search whose
    best-so-far has already converged, the method-independent comparison
    point the paper uses to tie TLB gaps to pruning (98 % vs 38 % on SCEDC).
    """
    summarization.fit(train)
    words = summarization.words(train)
    fractions = []
    for query in queries.values:
        lower = summarization.mindist_batch(summarization.transform(query), words)
        threshold = squared_euclidean_batch(query, train.values).min()
        fractions.append(np.mean(lower > threshold))
    return float(np.mean(fractions))


class TestPruningPower:
    def test_pruning_power_in_unit_interval(self, train_and_queries):
        train, queries = train_and_queries
        power = _pruning_power(SFA(word_length=16, sample_fraction=1.0),
                               train, queries)
        assert 0.0 <= power <= 1.0

    def test_sfa_prunes_more_than_sax_on_high_frequency_data(self, train_and_queries):
        train, queries = train_and_queries
        sfa_power = _pruning_power(SFA(word_length=16, alphabet_size=64,
                                       sample_fraction=1.0), train, queries)
        sax_power = _pruning_power(SAX(word_length=16, alphabet_size=64),
                                   train, queries)
        assert sfa_power >= sax_power
