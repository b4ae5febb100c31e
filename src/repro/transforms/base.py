"""Abstract interfaces for summarization techniques.

Two families of summarizations are used in the paper:

* *numeric* summarizations (PAA, DFT) map a series to a short vector of real
  values and provide a lower bound between two such vectors;
* *symbolic* summarizations (iSAX, SFA) additionally quantize the numeric
  summary into a small-alphabet word and provide a lower bound between the
  numeric summary of a query and the symbolic word of a candidate (the
  ``mindist`` family of Eq. 2), which is what a GEMINI tree index prunes with.

Both families share :class:`Summarization`; symbolic ones extend it with
:class:`SymbolicSummarization`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.errors import NotFittedError
from repro.core.series import Dataset
from repro.core.simd import batch_lower_bound, vectorized_lower_bound


def _as_matrix(data: "Dataset | np.ndarray") -> np.ndarray:
    """Accept a Dataset or a raw array and return a 2-D float matrix."""
    if isinstance(data, Dataset):
        return data.values
    values = np.asarray(data, dtype=np.float64)
    if values.ndim == 1:
        values = values.reshape(1, -1)
    return values


class Summarization(ABC):
    """A dimensionality-reducing mapping with a Euclidean lower bound."""

    #: Number of values in the numeric summary.
    word_length: int

    @abstractmethod
    def fit(self, data: "Dataset | np.ndarray") -> "Summarization":
        """Learn any data-dependent parameters of the summarization."""

    @abstractmethod
    def transform(self, series: np.ndarray) -> np.ndarray:
        """Numeric summary of a single series."""

    def transform_batch(self, data: "Dataset | np.ndarray") -> np.ndarray:
        """Numeric summaries of a batch of series (one per row)."""
        matrix = _as_matrix(data)
        return np.vstack([self.transform(row) for row in matrix])

    @abstractmethod
    def lower_bound(self, summary_a: np.ndarray, summary_b: np.ndarray) -> float:
        """Lower bound of the Euclidean distance between the original series."""

    def reconstruct(self, summary: np.ndarray, length: int) -> np.ndarray:
        """Approximate reconstruction of a series from its summary.

        Only used for the Figure 1 style qualitative analysis; summarizations
        that cannot reconstruct raise ``NotImplementedError``.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support reconstruction")


class SymbolicSummarization(Summarization):
    """A summarization that also quantizes summaries into symbolic words.

    Concrete subclasses must populate ``self.bins`` (a fitted
    :class:`~repro.transforms.quantization.HierarchicalBins`) and
    ``self.weights`` (per-dimension weights of the squared lower bound) during
    :meth:`fit`.
    """

    bins = None
    weights: np.ndarray | None = None

    @property
    def bits(self) -> int:
        """Bits per symbol of the full-resolution words."""
        self._require_fitted()
        return self.bins.bits

    @property
    def alphabet_size(self) -> int:
        """Alphabet size (cardinality) of the full-resolution words."""
        self._require_fitted()
        return self.bins.cardinality

    def _require_fitted(self) -> None:
        if self.bins is None or not self.bins.is_fitted or self.weights is None:
            raise NotFittedError(f"{type(self).__name__} must be fitted before use")

    def clone_unfitted(self) -> "SymbolicSummarization":
        """A fresh, unfitted summarization with this one's configuration.

        Compaction of a dynamic index rebuilds the tree from scratch on the
        surviving series, which must *re-learn* the summarization on that
        union (exactly what a fresh build would do) rather than reuse the
        state fitted on the original collection.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support unfitted cloning"
        )

    # ----------------------------------------------------------- word API

    def word(self, series: np.ndarray) -> np.ndarray:
        """Full-resolution symbolic word of a single series."""
        self._require_fitted()
        return self.bins.symbols(self.transform(series))

    def words(self, data: "Dataset | np.ndarray") -> np.ndarray:
        """Full-resolution symbolic words of a batch of series."""
        self._require_fitted()
        return self.bins.symbols(self.transform_batch(data))

    # ----------------------------------------------------- lower bounding

    def mindist(self, query_summary: np.ndarray, word: np.ndarray,
                cardinality_bits: np.ndarray | int | None = None,
                best_so_far: float = np.inf) -> float:
        """Squared lower bound between a numeric query summary and a word.

        ``cardinality_bits`` allows evaluating against the reduced-resolution
        words stored in inner tree nodes.
        """
        self._require_fitted()
        lower, upper = self.bins.intervals(word, cardinality_bits)
        squared = vectorized_lower_bound(query_summary, lower, upper, self.weights)
        return squared

    def mindist_batch(self, query_summary: np.ndarray, words: np.ndarray) -> np.ndarray:
        """Squared lower bounds between one query summary and many full words."""
        self._require_fitted()
        lower, upper = self.bins.intervals(words)
        return batch_lower_bound(query_summary, lower, upper, self.weights)

