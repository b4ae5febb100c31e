"""Euclidean distance kernels.

The library works with squared distances internally (cheaper, and order
preserving); public query APIs report true Euclidean distances.  The kernels
here implement:

* plain squared Euclidean distance between two series,
* an early-abandoning variant used during exact-search refinement, and
* batched one-against-many distances used by the brute-force baselines.
"""

from __future__ import annotations

import numpy as np


def squared_euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Euclidean distance between two equal-length series."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"series lengths differ: {a.shape} vs {b.shape}")
    diff = a - b
    return float(np.dot(diff, diff))


def euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two equal-length series."""
    return float(np.sqrt(squared_euclidean(a, b)))


def squared_euclidean_early_abandon(a: np.ndarray, b: np.ndarray, threshold: float,
                                    chunk: int = 16) -> float:
    """Squared ED with early abandoning against ``threshold``.

    The distance is accumulated in chunks; as soon as the partial sum exceeds
    ``threshold`` the (partial, already larger) sum is returned.  Callers only
    rely on the result being ``>= threshold`` in that case, which is all the
    best-so-far pruning logic of GEMINI needs.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"series lengths differ: {a.shape} vs {b.shape}")
    if chunk <= 0:
        raise ValueError(f"chunk size must be positive, got {chunk}")
    total = 0.0
    for start in range(0, a.shape[0], chunk):
        diff = a[start:start + chunk] - b[start:start + chunk]
        total += float(np.dot(diff, diff))
        if total > threshold:
            return total
    return total


def squared_euclidean_batch(query: np.ndarray, collection: np.ndarray) -> np.ndarray:
    """Squared ED between one query and every row of ``collection``.

    Uses the expanded form ``‖q‖² + ‖x‖² − 2 q·x`` so the heavy lifting is a
    single matrix-vector product (the NumPy/BLAS analogue of the paper's SIMD
    and MKL usage).  Negative values caused by floating-point cancellation are
    clipped to zero.
    """
    query = np.asarray(query, dtype=np.float64)
    collection = np.asarray(collection, dtype=np.float64)
    if collection.ndim != 2 or query.ndim != 1:
        raise ValueError("expected a 1-D query and a 2-D collection")
    if collection.shape[1] != query.shape[0]:
        raise ValueError(
            f"length mismatch: query {query.shape[0]} vs collection {collection.shape[1]}"
        )
    query_norm = float(np.dot(query, query))
    collection_norms = np.einsum("ij,ij->i", collection, collection)
    cross = collection @ query
    distances = query_norm + collection_norms - 2.0 * cross
    return np.maximum(distances, 0.0)


#: Columns accumulated per step of :func:`squared_euclidean_batch_abandon`.
#: Fixed (not tuned per call) on purpose: a candidate row's reported distance
#: is a deterministic function of the query and the row alone, so engines
#: that refine the same candidate under different schedules (worker counts,
#: block compositions) always see bit-identical values.
ABANDON_COLUMN_CHUNK = 128


def squared_euclidean_batch_abandon(query: np.ndarray, collection: np.ndarray,
                                    threshold: float = np.inf,
                                    chunk: int = ABANDON_COLUMN_CHUNK) -> np.ndarray:
    """Blocked early-abandoning variant of :func:`squared_euclidean_batch`.

    The squared differences are accumulated over column chunks; after each
    chunk, rows whose partial sum already exceeds ``threshold`` are masked
    out of the remaining accumulation — the batched analogue of
    :func:`squared_euclidean_early_abandon`, worthwhile for long series where
    most candidates blow past the best-so-far within the first chunks.

    Returns one value per row: the exact chunk-accumulated squared distance
    for every row whose true distance is ``<= threshold``, and a partial sum
    that is already ``> threshold`` for abandoned rows.  Callers must treat
    any value ``> threshold`` as "worse than the best-so-far" — exactly what
    GEMINI pruning needs.  A surviving row's value never depends on
    ``threshold``, on the other rows in the call, or on how callers blocked
    the candidates, which is what lets the parallel search engine return
    bit-identical answers for every worker count.  (Unlike the expanded-form
    :func:`squared_euclidean_batch`, the accumulation is difference-based, so
    values may differ from that kernel by an ulp.)
    """
    query = np.asarray(query, dtype=np.float64)
    collection = np.asarray(collection, dtype=np.float64)
    if collection.ndim != 2 or query.ndim != 1:
        raise ValueError("expected a 1-D query and a 2-D collection")
    if collection.shape[1] != query.shape[0]:
        raise ValueError(
            f"length mismatch: query {query.shape[0]} vs collection {collection.shape[1]}"
        )
    if chunk <= 0:
        raise ValueError(f"chunk size must be positive, got {chunk}")
    totals = np.zeros(collection.shape[0], dtype=np.float64)
    if collection.shape[0] == 0:
        return totals
    # ``active is None`` means every row is still in the running: chunks are
    # plain contiguous slices with no index-gather cost, so until the first
    # abandonment (always, at an infinite threshold) the kernel does no more
    # memory traffic than the plain batch kernel.
    active = None
    for start in range(0, query.shape[0], chunk):
        if active is None:
            difference = collection[:, start:start + chunk] - query[start:start + chunk]
            totals += np.einsum("ij,ij->i", difference, difference)
            surviving = totals <= threshold
            if not surviving.all():
                active = np.flatnonzero(surviving)
                if active.size == 0:
                    break
        else:
            difference = (collection[active, start:start + chunk]
                          - query[start:start + chunk])
            totals[active] += np.einsum("ij,ij->i", difference, difference)
            surviving = totals[active] <= threshold
            if not surviving.all():
                active = active[surviving]
                if active.size == 0:
                    break
    return totals


def pairwise_squared_euclidean(queries: np.ndarray, collection: np.ndarray) -> np.ndarray:
    """Squared ED between every query row and every collection row.

    Returns an array of shape ``(len(queries), len(collection))``.  This is the
    mini-batch kernel used by the FAISS-IndexFlatL2-style baseline.
    """
    queries = np.asarray(queries, dtype=np.float64)
    collection = np.asarray(collection, dtype=np.float64)
    if queries.ndim != 2 or collection.ndim != 2:
        raise ValueError("expected 2-D arrays for queries and collection")
    if queries.shape[1] != collection.shape[1]:
        raise ValueError(
            f"length mismatch: queries {queries.shape[1]} vs collection {collection.shape[1]}"
        )
    query_norms = np.einsum("ij,ij->i", queries, queries)[:, None]
    collection_norms = np.einsum("ij,ij->i", collection, collection)[None, :]
    cross = queries @ collection.T
    distances = query_norms + collection_norms - 2.0 * cross
    return np.maximum(distances, 0.0)
