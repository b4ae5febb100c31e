"""UCR Suite-P analogue: an early-abandoning sequential scan.

UCR Suite-P (the paper's scan baseline) assigns each thread a contiguous
segment of the in-memory series array; every thread scans its segment
independently with SIMD distance kernels and early abandoning against its
local best-so-far, and the partial results are merged at the end.

The reproduction scans the whole array in one thread: blocks of series are
evaluated with one batched kernel call until ``k`` candidates exist, then
every remaining series with an early-abandoning kernel against the
best-so-far.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.distance import squared_euclidean_batch, squared_euclidean_early_abandon
from repro.core.errors import SearchError
from repro.core.normalization import znormalize
from repro.core.series import Dataset
from repro.index.search import validated_count, validated_query


@dataclass
class ScanStats:
    """Work counters of one UCR-suite query."""

    exact_distances: int = 0
    early_abandons: int = 0


@dataclass
class ScanResult:
    indices: np.ndarray
    distances: np.ndarray
    stats: ScanStats


class UcrSuiteScan:
    """Early-abandoning exact scan (queries are z-normalized).

    Parameters
    ----------
    block_size:
        Number of series whose distances are evaluated with one batched kernel
        call before the best-so-far is refreshed; this mimics the SIMD blocks
        of the original implementation while keeping early abandoning.
    """

    def __init__(self, block_size: int = 64) -> None:
        if block_size < 1:
            raise SearchError("block_size must be >= 1")
        self.block_size = block_size
        self.dataset: Dataset | None = None

    def build(self, dataset: "Dataset | np.ndarray") -> "UcrSuiteScan":
        """Store the dataset; a scan needs no index structure."""
        self.dataset = dataset if isinstance(dataset, Dataset) else Dataset(dataset)
        return self

    def knn(self, query: np.ndarray, k: int = 1) -> ScanResult:
        """Exact k-NN with early abandoning."""
        if self.dataset is None:
            raise SearchError("UcrSuiteScan.build must be called before querying")
        if validated_count(k) > self.dataset.num_series:
            raise SearchError(f"k must be in [1, {self.dataset.num_series}], got {k}")
        query = znormalize(validated_query(query, self.dataset.series_length))

        stats = ScanStats()
        values = self.dataset.values
        # Max-heap of the k best squared distances found so far (negated).
        heap: list[tuple[float, int]] = []
        threshold = np.inf
        for block_start in range(0, self.dataset.num_series, self.block_size):
            block = np.arange(block_start,
                              min(block_start + self.block_size, self.dataset.num_series))
            if not np.isfinite(threshold):
                squared = squared_euclidean_batch(query, values[block])
                stats.exact_distances += block.size
                for row, distance in zip(block, squared):
                    threshold = self._offer(heap, k, float(distance), int(row))
            else:
                for row in block:
                    distance = squared_euclidean_early_abandon(query, values[row], threshold)
                    stats.exact_distances += 1
                    if distance < threshold:
                        threshold = self._offer(heap, k, distance, int(row))
                    else:
                        stats.early_abandons += 1

        items = sorted((-negative, index) for negative, index in heap)
        indices = np.array([index for _, index in items], dtype=np.int64)
        distances = np.sqrt(np.array([squared for squared, _ in items]))
        return ScanResult(indices=indices, distances=distances, stats=stats)

    def nearest_neighbor(self, query: np.ndarray) -> ScanResult:
        return self.knn(query, k=1)

    # ------------------------------------------------------------ internals

    @staticmethod
    def _offer(heap: list[tuple[float, int]], k: int, squared: float, row: int) -> float:
        """Push a candidate into the k-best heap and return the new threshold."""
        if len(heap) < k:
            heapq.heappush(heap, (-squared, row))
        elif squared < -heap[0][0]:
            heapq.heapreplace(heap, (-squared, row))
        return -heap[0][0] if len(heap) >= k else np.inf
