"""SIMD-style lower-bound distance kernels (Algorithm 3 of the paper).

The original system computes the SFA lower-bound distance with AVX intrinsics:
the query's Fourier coefficients are processed in chunks of 8 lanes, three
branch conditions (value above the candidate bin, below it, or inside it) are
evaluated as bitmaps, masked distances are blended branchlessly, and after each
chunk the partial sum is compared against the best-so-far distance so the
computation can abandon early.

Python cannot issue vector instructions directly, so this module reproduces the
*algorithm* with NumPy arrays standing in for SIMD registers:

* :func:`chunked_masked_lower_bound` mirrors Algorithm 3 lane for lane —
  chunks of ``lane_width`` values, UPPER/LOWER/ZERO masks, blend, per-chunk
  early abandoning.  It is the reference implementation used by the tests and
  the SIMD ablation benchmark.
* :func:`vectorized_lower_bound` computes the same quantity with whole-array
  operations and no early abandoning.
* :func:`batch_lower_bound` evaluates one query against *many* candidate words
  at once, which is the production path used inside index leaves.
* :func:`batch_lower_bound_multi` evaluates *many* queries against *many*
  candidate words in one broadcasted call — the multi-query analogue of the
  paper's AVX lane packing, behind the tree's ``(Q, l)`` directory lookups.
* :func:`batch_lower_bound_pairs` evaluates a ragged set of row-aligned
  (query, candidate) pairs in one call, without cross-product work
  amplification.

All of these operate on the generic "mindist" formulation of Equation 2: per
dimension the distance is zero when the query value falls inside the
candidate's quantization interval, otherwise it is the gap to the nearest
breakpoint.  A per-dimension weight vector accounts for the factor 2 of the
DFT lower bound (or ``n / l`` for PAA-based summaries), so the same kernels
serve both SOFA and MESSI.
"""

from __future__ import annotations

import numpy as np

#: Default number of lanes per simulated SIMD register (256-bit / float32).
DEFAULT_LANE_WIDTH = 8


def _validate_inputs(query: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                     weights: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                                           np.ndarray]:
    query = np.asarray(query, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if query.ndim != 1:
        raise ValueError(f"query must be 1-D, got shape {query.shape}")
    if lower.shape != query.shape or upper.shape != query.shape:
        raise ValueError("query, lower and upper breakpoints must share one shape")
    if weights is None:
        weights = np.ones_like(query)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != query.shape:
            raise ValueError("weights must have the same shape as the query")
    return query, lower, upper, weights


def chunked_masked_lower_bound(query: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                               weights: np.ndarray | None = None,
                               best_so_far: float = np.inf,
                               lane_width: int = DEFAULT_LANE_WIDTH) -> float:
    """Squared lower-bound distance via the chunked, mask-based SIMD algorithm.

    Parameters
    ----------
    query:
        The query's numeric summary values (e.g. selected DFT coefficients).
    lower, upper:
        Per-dimension breakpoints of the candidate word's quantization
        intervals; ``-inf`` / ``+inf`` encode unbounded outer bins.
    weights:
        Per-dimension weight applied to the squared mindist (defaults to 1).
    best_so_far:
        Early-abandoning threshold: once the accumulated weighted sum exceeds
        it, the partial sum is returned immediately.
    lane_width:
        Number of values per simulated SIMD register (8 for 256-bit AVX).

    Returns
    -------
    float
        The weighted squared lower-bound distance, or a partial sum that is
        already ``> best_so_far`` when early abandoning triggered.
    """
    query, lower, upper, weights = _validate_inputs(query, lower, upper, weights)
    if lane_width <= 0:
        raise ValueError(f"lane_width must be positive, got {lane_width}")

    total = 0.0
    for start in range(0, query.shape[0], lane_width):
        stop = start + lane_width
        v_q = query[start:stop]
        v_lower = lower[start:stop]
        v_upper = upper[start:stop]
        v_weight = weights[start:stop]

        # Distances for the two non-zero branches (Eq. 2):
        # below the interval -> gap to the lower breakpoint,
        # above the interval -> gap to the upper breakpoint.
        dist_lower = v_lower - v_q
        dist_upper = v_q - v_upper

        # Branch bitmaps, exactly as in Algorithm 3 line 7.
        mask_lower = v_q < v_lower
        mask_upper = v_q >= v_upper
        # The ZERO mask (inside the interval) contributes nothing and is left
        # implicit: lanes not selected by either mask blend to zero.

        # Branchless blend (Algorithm 3 line 8): AND each branch result with
        # its mask, OR the lanes together.
        blended = np.where(mask_lower, dist_lower, 0.0) + np.where(mask_upper, dist_upper, 0.0)
        total += float(np.sum(v_weight * blended * blended))

        if total > best_so_far:
            return total
    return total


def vectorized_lower_bound(query: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                           weights: np.ndarray | None = None) -> float:
    """Squared lower-bound distance computed with whole-array operations."""
    query, lower, upper, weights = _validate_inputs(query, lower, upper, weights)
    below = np.maximum(lower - query, 0.0)
    above = np.maximum(query - upper, 0.0)
    gaps = below + above
    return float(np.sum(weights * gaps * gaps))


def scalar_lower_bound(query: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                       weights: np.ndarray | None = None,
                       best_so_far: float = np.inf) -> float:
    """Pure-Python scalar reference of Equation 2 (used for tests and ablation)."""
    query, lower, upper, weights = _validate_inputs(query, lower, upper, weights)
    total = 0.0
    for value, low, high, weight in zip(query, lower, upper, weights):
        if value < low:
            gap = low - value
        elif value >= high:
            gap = value - high
        else:
            gap = 0.0
        total += weight * gap * gap
        if total > best_so_far:
            return total
    return total


def batch_lower_bound(query: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                      weights: np.ndarray | None = None) -> np.ndarray:
    """Squared lower-bound distances of one query against many candidate words.

    Parameters
    ----------
    query:
        1-D array of the query's summary values, length ``l``.
    lower, upper:
        2-D arrays of shape ``(num_candidates, l)`` holding each candidate
        word's per-dimension interval breakpoints.
    weights:
        Optional per-dimension weights (length ``l``).

    Returns
    -------
    numpy.ndarray
        1-D array of squared lower-bound distances, one per candidate.
    """
    query = np.asarray(query, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if lower.ndim != 2 or upper.shape != lower.shape:
        raise ValueError("lower and upper must be 2-D arrays of identical shape")
    if lower.shape[1] != query.shape[0]:
        raise ValueError(
            f"dimension mismatch: query has {query.shape[0]} values, "
            f"candidates have {lower.shape[1]}"
        )
    if weights is None:
        weights = np.ones_like(query)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != query.shape:
            raise ValueError("weights must have the same shape as the query")
    below = np.maximum(lower - query[None, :], 0.0)
    above = np.maximum(query[None, :] - upper, 0.0)
    gaps = below + above
    return np.einsum("ij,j->i", gaps * gaps, weights)


#: Soft cap on the number of float64 elements the broadcasted ``(Q, C, l)``
#: temporaries of :func:`batch_lower_bound_multi` may hold at once (~0.5 MB,
#: so a chunk's working set stays inside the L2 cache; the kernel is
#: memory-bound and falls off a cliff once temporaries spill to DRAM).
_MULTI_CHUNK_ELEMENTS = 65_536


def batch_lower_bound_multi(queries: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                            weights: np.ndarray | None = None,
                            query_chunk: int | None = None) -> np.ndarray:
    """Squared lower-bound distances of many queries against many candidates.

    This is the multi-query generalisation of :func:`batch_lower_bound`: all
    ``Q x C`` mindist values are produced by broadcasting, so a whole query
    workload costs one kernel invocation instead of one per query.

    Parameters
    ----------
    queries:
        2-D array of shape ``(num_queries, l)`` of numeric query summaries.
    lower, upper:
        2-D arrays of shape ``(num_candidates, l)`` holding each candidate
        word's per-dimension interval breakpoints.
    weights:
        Optional per-dimension weights (length ``l``).
    query_chunk:
        Evaluate at most this many queries per broadcasted step so the
        ``(chunk, num_candidates, l)`` temporaries stay inside the L2 cache
        (the kernel is memory-bound).  Defaults to a size targeting ~0.5 MB
        of temporaries per chunk.

    Returns
    -------
    numpy.ndarray
        2-D array of shape ``(num_queries, num_candidates)``; row ``q`` equals
        ``batch_lower_bound(queries[q], lower, upper, weights)``.
    """
    queries = np.asarray(queries, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if queries.ndim != 2:
        raise ValueError(f"queries must be 2-D, got shape {queries.shape}")
    if lower.ndim != 2 or upper.shape != lower.shape:
        raise ValueError("lower and upper must be 2-D arrays of identical shape")
    if lower.shape[1] != queries.shape[1]:
        raise ValueError(
            f"dimension mismatch: queries have {queries.shape[1]} values, "
            f"candidates have {lower.shape[1]}"
        )
    if weights is None:
        weights = np.ones(queries.shape[1], dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (queries.shape[1],):
            raise ValueError("weights must be 1-D with one value per summary dimension")
    if query_chunk is None:
        per_query = max(1, lower.shape[0] * max(1, lower.shape[1]))
        query_chunk = max(1, _MULTI_CHUNK_ELEMENTS // per_query)
    elif query_chunk < 1:
        raise ValueError(f"query_chunk must be positive, got {query_chunk}")

    num_candidates = lower.shape[0]
    word_length = lower.shape[1]
    result = np.empty((queries.shape[0], num_candidates), dtype=np.float64)
    for start in range(0, queries.shape[0], query_chunk):
        block = queries[start:start + query_chunk]
        # The (chunk, C, l) temporaries are mutated in place — the kernel is
        # memory-bound, so avoiding intermediate allocations is what keeps it
        # competitive with per-query calls while amortizing launch overhead.
        gaps = lower[None, :, :] - block[:, None, :]
        np.maximum(gaps, 0.0, out=gaps)
        above = block[:, None, :] - upper[None, :, :]
        np.maximum(above, 0.0, out=above)
        gaps += above
        gaps *= gaps
        result[start:start + query_chunk] = (
            gaps.reshape(-1, word_length) @ weights
        ).reshape(block.shape[0], num_candidates)
    return result


def batch_lower_bound_pairs(query_rows: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                            weights: np.ndarray | None = None) -> np.ndarray:
    """Squared lower bounds of row-aligned (query, candidate) pairs.

    Unlike :func:`batch_lower_bound_multi`, which evaluates the full cross
    product, this kernel evaluates exactly one pair per row: pair ``i``
    compares query summary ``query_rows[i]`` against the candidate interval
    ``(lower[i], upper[i])``.  The batched search engine uses it to evaluate a
    ragged set of surviving (query, leaf-series) pairs — the pairs the
    per-query engine would have checked — in one call, with no cross-product
    work amplification.

    Parameters
    ----------
    query_rows:
        2-D array of shape ``(num_pairs, l)``; one query summary per pair
        (typically a gather of a summary matrix, with repeats).
    lower, upper:
        2-D arrays of shape ``(num_pairs, l)``; one candidate interval per pair.
    weights:
        Optional per-dimension weights (length ``l``).

    Returns
    -------
    numpy.ndarray
        1-D array of ``num_pairs`` squared lower-bound distances.
    """
    query_rows = np.asarray(query_rows, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if query_rows.ndim != 2:
        raise ValueError(f"query_rows must be 2-D, got shape {query_rows.shape}")
    if lower.shape != query_rows.shape or upper.shape != query_rows.shape:
        raise ValueError("query_rows, lower and upper must share one shape")
    if weights is None:
        weights = np.ones(query_rows.shape[1], dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (query_rows.shape[1],):
            raise ValueError("weights must be 1-D with one value per summary dimension")
    gaps = lower - query_rows
    np.maximum(gaps, 0.0, out=gaps)
    above = query_rows - upper
    np.maximum(above, 0.0, out=above)
    gaps += above
    gaps *= gaps
    return gaps @ weights
