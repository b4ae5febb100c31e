"""Tests for the 17-dataset registry, the UCR-like suite and query generation."""

import numpy as np
import pytest

from repro.core.errors import DatasetError
from repro.datasets.queries import split_queries
from repro.datasets.registry import (
    DATASET_SPECS,
    dataset_names,
    get_spec,
    high_frequency_names,
    load_dataset,
)
from repro.datasets.ucr import generate_ucr_like_suite


class TestRegistry:
    def test_seventeen_datasets(self):
        assert len(DATASET_SPECS) == 17
        assert len(dataset_names()) == 17

    def test_names_match_table_one(self):
        names = set(dataset_names())
        assert {"Astro", "BigANN", "Deep1b", "ETHZ", "Iquique", "LenDB", "NEIC",
                "OBS", "OBST2024", "PNW", "SALD", "SCEDC", "SIFT1b", "STEAD",
                "TXED", "Meier2019JGR", "ISC_EHB_DepthPhases"} == names

    def test_series_lengths_match_table_one(self):
        lengths = {spec.name: spec.series_length for spec in DATASET_SPECS}
        assert lengths["SIFT1b"] == 128
        assert lengths["BigANN"] == 100
        assert lengths["Deep1b"] == 96
        assert lengths["SALD"] == 128
        assert lengths["LenDB"] == 256
        assert lengths["SCEDC"] == 256

    def test_paper_counts_total_about_one_billion(self):
        total = sum(spec.paper_num_series for spec in DATASET_SPECS)
        assert total == pytest.approx(1_017_586_504, rel=0.01)

    def test_lookup_is_case_insensitive(self):
        assert get_spec("lendb").name == "LenDB"

    def test_unknown_name_raises(self):
        with pytest.raises(DatasetError):
            get_spec("NotADataset")

    def test_high_frequency_flags(self):
        high = set(high_frequency_names())
        assert "LenDB" in high
        assert "SCEDC" in high
        assert "SALD" not in high
        assert "Astro" not in high

    def test_load_dataset_is_normalized_and_sized(self):
        dataset = load_dataset("ETHZ", num_series=150, seed=1)
        assert dataset.num_series == 150
        assert dataset.series_length == 256
        assert abs(dataset.values[0].mean()) < 1e-6

    def test_load_dataset_deterministic(self):
        first = load_dataset("OBS", num_series=100, seed=5)
        second = load_dataset("OBS", num_series=100, seed=5)
        assert np.allclose(first.values, second.values)

    def test_unclustered_generation(self):
        spec = get_spec("LenDB")
        dataset = spec.generate(num_series=100, clustered_data=False)
        assert dataset.num_series == 100

    def test_metadata_is_attached(self):
        dataset = load_dataset("SIFT1b", num_series=50)
        assert dataset.metadata["domain"] == "vectors"
        assert dataset.metadata["high_frequency"] is True


class TestUcrLikeSuite:
    def test_suite_size_and_splits(self):
        suite = generate_ucr_like_suite(num_datasets=6, train_size=40, test_size=10)
        assert len(suite) == 6
        for entry in suite:
            assert entry.train.num_series == 40
            assert entry.test.num_series == 10
            assert entry.train.series_length == entry.test.series_length

    def test_full_suite_is_diverse(self):
        suite = generate_ucr_like_suite(train_size=20, test_size=5)
        assert len(suite) >= 30
        lengths = {entry.train.series_length for entry in suite}
        assert len(lengths) >= 4

    def test_names_are_unique(self):
        suite = generate_ucr_like_suite(train_size=20, test_size=5)
        names = [entry.name for entry in suite]
        assert len(names) == len(set(names))

    def test_deterministic(self):
        first = generate_ucr_like_suite(num_datasets=3, train_size=10, test_size=5, seed=7)
        second = generate_ucr_like_suite(num_datasets=3, train_size=10, test_size=5, seed=7)
        for a, b in zip(first, second):
            assert np.allclose(a.train.values, b.train.values)


class TestQueries:
    def test_split_queries_sizes(self):
        dataset = load_dataset("TXED", num_series=200)
        index_set, queries = split_queries(dataset, num_queries=25)
        assert queries.num_series == 25
        assert index_set.num_series == 175
