"""FAISS ``IndexFlatL2`` analogue: exact brute force over mini-batches of queries.

FAISS answers exact L2 queries by computing the full distance matrix between a
batch of queries and the stored vectors with BLAS (MKL in the paper's setup)
and partially sorting each row.  It cannot parallelise a *single* query, so the
paper feeds it mini-batches with one query per core.

This reproduction follows the same structure: vectors and their squared norms
are stored at build time, queries are processed in mini-batches through one
matrix multiplication per batch, and ``numpy.argpartition`` plays the role of
FAISS's partial sort.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.errors import SearchError
from repro.core.normalization import znormalize_batch
from repro.core.series import Dataset
from repro.index.search import (
    validated_count,
    validated_queries,
    validated_query,
)


@dataclass
class BatchSearchStats:
    """Size of a FlatL2 search."""

    num_queries: int = 0


@dataclass
class BatchSearchResult:
    indices: np.ndarray    # (num_queries, k)
    distances: np.ndarray  # (num_queries, k)
    stats: BatchSearchStats


class FlatL2Index:
    """Exact L2 index: store vectors, answer z-normalized queries by batched
    brute force.

    Parameters
    ----------
    batch_size:
        Number of queries per mini-batch (the paper uses one query per
        available core).
    """

    def __init__(self, batch_size: int = 36) -> None:
        if batch_size < 1:
            raise SearchError("batch_size must be >= 1")
        self.batch_size = batch_size
        self.dataset: Dataset | None = None
        self._norms: np.ndarray | None = None
        self.build_time: float = 0.0

    def build(self, dataset: "Dataset | np.ndarray") -> "FlatL2Index":
        """Store the vectors and pre-compute their squared norms."""
        start = time.perf_counter()
        self.dataset = dataset if isinstance(dataset, Dataset) else Dataset(dataset)
        self._norms = np.einsum("ij,ij->i", self.dataset.values, self.dataset.values)
        self.build_time = time.perf_counter() - start
        return self

    def _require_built(self) -> None:
        if self.dataset is None or self._norms is None:
            raise SearchError("FlatL2Index.build must be called before querying")

    def search(self, queries: np.ndarray, k: int = 1) -> BatchSearchResult:
        """Exact k-NN of a batch of queries (one query per row)."""
        self._require_built()
        queries = validated_queries(queries, self.dataset.series_length)
        if validated_count(k) > self.dataset.num_series:
            raise SearchError(f"k must be in [1, {self.dataset.num_series}], got {k}")
        queries = znormalize_batch(queries)

        stats = BatchSearchStats(num_queries=queries.shape[0])
        all_indices = np.empty((queries.shape[0], k), dtype=np.int64)
        all_distances = np.empty((queries.shape[0], k), dtype=np.float64)
        values = self.dataset.values

        for start_row in range(0, queries.shape[0], self.batch_size):
            batch = queries[start_row:start_row + self.batch_size]
            query_norms = np.einsum("ij,ij->i", batch, batch)[:, None]
            squared = query_norms + self._norms[None, :] - 2.0 * (batch @ values.T)
            np.maximum(squared, 0.0, out=squared)
            if k < squared.shape[1]:
                top = np.argpartition(squared, k - 1, axis=1)[:, :k]
            else:
                top = np.tile(np.arange(squared.shape[1]), (squared.shape[0], 1))
            top_distances = np.take_along_axis(squared, top, axis=1)
            order = np.argsort(top_distances, axis=1, kind="stable")

            rows = slice(start_row, start_row + batch.shape[0])
            all_indices[rows] = np.take_along_axis(top, order, axis=1)
            all_distances[rows] = np.sqrt(np.take_along_axis(top_distances, order, axis=1))

        return BatchSearchResult(indices=all_indices, distances=all_distances, stats=stats)

    def knn(self, query: np.ndarray, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Single-query convenience wrapper returning ``(indices, distances)``."""
        self._require_built()
        result = self.search(
            validated_query(query, self.dataset.series_length)[None, :], k=k)
        return result.indices[0], result.distances[0]

    def nearest_neighbor(self, query: np.ndarray) -> tuple[int, float]:
        indices, distances = self.knn(query, k=1)
        return int(indices[0]), float(distances[0])
