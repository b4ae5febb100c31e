"""Every summary lower bound holds on every synthetic data family.

Exact search rests on one chain of inequalities per (query, candidate) pair:
the bound from the candidate's *word* never exceeds the bound from its
numeric *summary*, which never exceeds the true Euclidean distance (Eq. 2).
The per-transform tests check the chain on one or two data families; here
each ablation method (iSAX and the four SFA variants) and PAA's numeric
bound meet every generator the datasets and benchmarks draw from, through
the library's own :func:`check_lower_bound_property` and TLB metric.  The
families stress different parts of the learned bins: smooth series put
nearly all energy in the first coefficients, seismic events are mostly
flat, embeddings are not time series at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distance import squared_euclidean_batch
from repro.core.lower_bounds import (
    check_lower_bound_property,
    tightness_of_lower_bound,
)
from repro.core.series import Dataset
from repro.datasets.synthetic import GENERATORS
from repro.evaluation.tlb import ABLATION_METHODS, make_ablation_method
from repro.transforms.paa import PAA

LENGTH = 64
WORD_LENGTH = 8
ALPHABET_SIZE = 16

_FAMILIES: "dict[str, tuple[Dataset, Dataset]]" = {}


def _family(name: str) -> "tuple[Dataset, Dataset]":
    """Train and query sets drawn from one generator (cached per family)."""
    if name not in _FAMILIES:
        rows = GENERATORS[name](86, LENGTH, seed=4242)
        _FAMILIES[name] = (Dataset(rows[:80], name=name),
                           Dataset(rows[80:], name=f"{name}-queries"))
    return _FAMILIES[name]


def _bound_chain(method: str, train: Dataset, queries: Dataset):
    """(word bounds, summary bounds, true distances) over all pairs.

    PAA has no word; its numeric bound stands in for both links.
    """
    if method == "PAA":
        summarization = PAA(word_length=WORD_LENGTH).fit(train)
    else:
        summarization = make_ablation_method(
            method, word_length=WORD_LENGTH,
            alphabet_size=ALPHABET_SIZE).fit(train)
    train_summaries = summarization.transform_batch(train)
    word_bounds, summary_bounds, true = [], [], []
    for query in queries.values:
        query_summary = summarization.transform(query)
        numeric = np.array([summarization.lower_bound(query_summary, summary)
                            for summary in train_summaries])
        if method == "PAA":
            symbolic = numeric
        else:
            symbolic = np.sqrt(summarization.mindist_batch(
                query_summary, summarization.words(train)))
        word_bounds.append(symbolic)
        summary_bounds.append(numeric)
        true.append(np.sqrt(squared_euclidean_batch(query, train.values)))
    return (np.concatenate(word_bounds), np.concatenate(summary_bounds),
            np.concatenate(true))


@pytest.mark.parametrize("family", sorted(GENERATORS))
@pytest.mark.parametrize("method", ABLATION_METHODS + ("PAA",))
def test_bound_chain_holds(method, family):
    train, queries = _family(family)
    word_bounds, summary_bounds, true = _bound_chain(method, train, queries)
    assert check_lower_bound_property(word_bounds, summary_bounds)
    assert check_lower_bound_property(summary_bounds, true)
    tlb = tightness_of_lower_bound(word_bounds, true)
    assert 0.0 < tlb <= 1.0
