"""Synthetic stand-ins for the paper's benchmark datasets and query sets."""

from repro.datasets.queries import split_queries
from repro.datasets.registry import (
    DATASET_SPECS,
    DatasetSpec,
    dataset_names,
    get_spec,
    high_frequency_names,
    load_dataset,
)
from repro.datasets.synthetic import (
    GENERATORS,
    embedding_vectors,
    mixed_frequency,
    oscillatory,
    random_walk,
    red_noise,
    seismic_events,
    smooth_signal,
)
from repro.datasets.ucr import UcrLikeDataset, generate_ucr_like_suite

__all__ = [
    "DATASET_SPECS",
    "DatasetSpec",
    "GENERATORS",
    "UcrLikeDataset",
    "dataset_names",
    "embedding_vectors",
    "generate_ucr_like_suite",
    "get_spec",
    "high_frequency_names",
    "load_dataset",
    "mixed_frequency",
    "oscillatory",
    "random_walk",
    "red_noise",
    "seismic_events",
    "smooth_signal",
    "split_queries",
]
