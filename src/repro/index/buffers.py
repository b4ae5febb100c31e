"""Summary buffers used during bulk index construction.

MESSI's index-construction phase first computes the symbolic summaries of all
series into per-root-child buffers and only then builds each subtree from its
buffer (Figure 5, Stage 1).  Keeping the two phases separate makes subtrees
independent of each other — each buffer belongs to exactly one subtree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SummaryBuffer:
    """All series that fall under one root child (one 1-bit-per-dimension prefix)."""

    key: tuple[int, ...]
    indices: np.ndarray  # dataset row indices
    words: np.ndarray    # full-resolution words of those rows

    @property
    def size(self) -> int:
        return self.indices.shape[0]


def fill_buffers(words: np.ndarray, bits: int) -> list[SummaryBuffer]:
    """Group full-resolution words into per-root-child buffers.

    Parameters
    ----------
    words:
        Full-resolution words of every series, shape ``(num_series, word_length)``.
    bits:
        Bits per symbol of the full-resolution words.

    Returns
    -------
    list of :class:`SummaryBuffer`, ordered by descending size (the greedy
    longest-first order MESSI's work queue drains them in).  The tree keeps
    this order, so it fixes the leaf directory's layout.
    """
    words = np.asarray(words, dtype=np.int64)
    if words.ndim != 2:
        raise ValueError(f"expected a 2-D word matrix, got shape {words.shape}")
    top_bits = words >> (bits - 1)
    if words.shape[1] <= 63:
        # Encode each 1-bit prefix row as a single integer key for fast grouping.
        packed = np.zeros(words.shape[0], dtype=np.int64)
        for dimension in range(words.shape[1]):
            packed = (packed << 1) | top_bits[:, dimension]
        order = np.argsort(packed, kind="stable")
        sorted_keys = packed[order]
        boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
    else:
        # One bit per dimension no longer fits an int64 (the top bit would be
        # shifted out, silently merging distinct prefixes): pack the prefix
        # bits into bytes and group on an opaque fixed-width bytes view, whose
        # lexicographic order equals the numeric order of the packed integer.
        packed_bytes = np.ascontiguousarray(
            np.packbits(top_bits.astype(np.uint8), axis=1))
        row_keys = packed_bytes.view(
            np.dtype((np.void, packed_bytes.shape[1]))).reshape(-1)
        order = np.argsort(row_keys, kind="stable")
        sorted_keys = row_keys[order]
        boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1

    # Hand every buffer zero-copy views of the words/indices sorted once:
    # degenerate collections produce thousands of tiny buffers, and one gather
    # per buffer used to dominate the grouping cost.
    order = order.astype(np.int64, copy=False)
    sorted_words = words[order]
    starts = np.concatenate([[0], boundaries]).astype(np.int64)
    stops = np.concatenate([boundaries, [order.shape[0]]]).astype(np.int64)
    keys = top_bits[order[starts]].tolist()
    buffers = [SummaryBuffer(key=tuple(key), indices=order[start:stop],
                             words=sorted_words[start:stop])
               for key, start, stop in zip(keys, starts.tolist(), stops.tolist())]
    buffers.sort(key=lambda buffer: buffer.size, reverse=True)
    return buffers
