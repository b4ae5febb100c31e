"""Plain sequential scan: the simplest exact baseline.

Computes the distance between the query and every series with one batched
kernel call and selects the k smallest.  It is the reference answer generator
used by the test suite to verify that every index and optimized baseline is
exact.
"""

from __future__ import annotations

import numpy as np

from repro.core.distance import squared_euclidean_batch
from repro.core.errors import SearchError
from repro.core.normalization import znormalize
from repro.core.series import Dataset
from repro.index.search import validated_count, validated_query


class SerialScan:
    """Exact k-NN of a z-normalized query by brute force over the dataset."""

    def __init__(self) -> None:
        self.dataset: Dataset | None = None

    def build(self, dataset: "Dataset | np.ndarray") -> "SerialScan":
        """Store the dataset (a scan has no index structure to build)."""
        self.dataset = dataset if isinstance(dataset, Dataset) else Dataset(dataset)
        return self

    def knn(self, query: np.ndarray, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(indices, distances)`` of the exact k nearest neighbours."""
        if self.dataset is None:
            raise SearchError("SerialScan.build must be called before querying")
        if validated_count(k) > self.dataset.num_series:
            raise SearchError(f"k must be in [1, {self.dataset.num_series}], got {k}")
        query = znormalize(validated_query(query, self.dataset.series_length))
        squared = squared_euclidean_batch(query, self.dataset.values)
        order = np.argsort(squared, kind="stable")[:k]
        return order.astype(np.int64), np.sqrt(squared[order])

    def nearest_neighbor(self, query: np.ndarray) -> tuple[int, float]:
        """Exact nearest neighbour of ``query`` as ``(index, distance)``."""
        indices, distances = self.knn(query, k=1)
        return int(indices[0]), float(distances[0])
