"""Exactness oracle: brute-force ground truth computed off the clock.

The engines promise *exact* k-NN under the z-normalized Euclidean distance,
answers ordered by ``(distance, row)``.  The oracle recomputes that answer
with plain NumPy — one matrix product to nominate candidates, then the same
difference-based distance the engines finalize with — and every answer the
benchmark receives is compared against it: ids exactly, distances to a
relative 1e-9 (blocked kernels may differ from the reference in the last
ulps, never in the ranking of distinct rows).

``RowModel`` replays the write script of ``serve_ingest_rw`` over a plain
array with the :class:`~repro.index.dynamic.DynamicIndex` id rules (inserts
take the next id, deletes tombstone, compaction renumbers the survivors
compactly), which gives the visible row set — and so the expected answer —
at every read, and the state an index recovered from snapshot + WAL must
hold.
"""

from __future__ import annotations

import numpy as np

from repro.core.normalization import znormalize_batch

#: Extra candidates nominated per query so the float error of the matrix
#: product can never push a true neighbour out of the exact re-ranking.
_MARGIN = 16


def _rerank(values: np.ndarray, candidates: np.ndarray, query: np.ndarray,
            k: int) -> "tuple[np.ndarray, np.ndarray]":
    """Exact ``(distance, row)`` order of candidate rows of ``values``."""
    candidates = np.sort(candidates)
    difference = values[candidates] - query
    squared = np.einsum("ij,ij->i", difference, difference)
    order = np.lexsort((candidates, squared))[:k]
    return candidates[order], np.sqrt(squared[order])


def _nominate(approximate: np.ndarray, k: int) -> np.ndarray:
    """Rows of the ``k + margin`` smallest finite approximate distances."""
    count = min(approximate.shape[0], k + _MARGIN)
    rows = np.argpartition(approximate, count - 1)[:count]
    return rows[np.isfinite(approximate[rows])]


def brute_force_knn(values: np.ndarray, queries: np.ndarray, k: int,
                    chunk: int = 64) -> "tuple[np.ndarray, np.ndarray]":
    """Exact k-NN of every (raw) query over already-normalized ``values``.

    Returns ``(ids, distances)``, each of shape ``(len(queries), k)``; an id
    is a row position in ``values``.
    """
    values = np.asarray(values, dtype=np.float64)
    normalized = znormalize_batch(np.atleast_2d(np.asarray(queries,
                                                           dtype=np.float64)))
    norms = np.einsum("ij,ij->i", values, values)
    ids = np.empty((normalized.shape[0], k), dtype=np.int64)
    distances = np.empty((normalized.shape[0], k), dtype=np.float64)
    for start in range(0, normalized.shape[0], chunk):
        block = normalized[start:start + chunk]
        approximate = norms[None, :] - 2.0 * (block @ values.T)
        for offset, query in enumerate(block):
            ids[start + offset], distances[start + offset] = _rerank(
                values, _nominate(approximate[offset], k), query, k)
    return ids, distances


def answer_matches(ids, distances, expected_ids, expected_distances) -> bool:
    """Whether one received answer equals the oracle's."""
    ids = np.asarray(ids)
    distances = np.asarray(distances, dtype=np.float64)
    if ids.shape != expected_ids.shape or distances.shape != expected_ids.shape:
        return False
    return bool(np.array_equal(ids, expected_ids)
                and np.allclose(distances, expected_distances,
                                rtol=1e-9, atol=1e-9))


class RowModel:
    """A plain-array model of a dynamic index's visible rows."""

    def __init__(self, base_values: np.ndarray) -> None:
        base = znormalize_batch(np.asarray(base_values, dtype=np.float64))
        self._count = base.shape[0]
        self._values = np.empty((2 * self._count, base.shape[1]))
        self._values[:self._count] = base
        self._norms = np.einsum("ij,ij->i", self._values, self._values)
        self._alive = np.zeros(self._values.shape[0], dtype=bool)
        self._alive[:self._count] = True

    @property
    def num_rows(self) -> int:
        """Ids handed out so far in this generation (dead ones included)."""
        return self._count

    @property
    def num_surviving(self) -> int:
        return int(self._alive[:self._count].sum())

    def alive_ids(self) -> np.ndarray:
        return np.flatnonzero(self._alive[:self._count])

    def insert(self, series: np.ndarray) -> int:
        if self._count == self._values.shape[0]:
            self._values = np.concatenate([self._values,
                                           np.empty_like(self._values)])
            self._norms = np.concatenate([self._norms,
                                          np.empty_like(self._norms)])
            self._alive = np.concatenate([self._alive,
                                          np.zeros_like(self._alive)])
        row = znormalize_batch(np.asarray(series, dtype=np.float64)[None, :])[0]
        self._values[self._count] = row
        self._norms[self._count] = row @ row
        self._alive[self._count] = True
        self._count += 1
        return self._count - 1

    def delete(self, row: int) -> None:
        if not 0 <= row < self._count or not self._alive[row]:
            raise ValueError(f"row {row} is not a live row")
        self._alive[row] = False

    def compact(self) -> None:
        survivors = self.alive_ids()
        self._values[:survivors.size] = self._values[survivors]
        self._norms[:survivors.size] = self._norms[survivors]
        self._count = int(survivors.size)
        self._alive[:] = False
        self._alive[:self._count] = True

    def knn(self, query: np.ndarray, k: int) -> "tuple[np.ndarray, np.ndarray]":
        """Exact k-NN of one raw query over the live rows."""
        values = self._values[:self._count]
        normalized = znormalize_batch(
            np.asarray(query, dtype=np.float64)[None, :])[0]
        approximate = self._norms[:self._count] - 2.0 * (values @ normalized)
        approximate[~self._alive[:self._count]] = np.inf
        return _rerank(values, _nominate(approximate, k), normalized, k)
