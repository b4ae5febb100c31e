"""SAX and iSAX: PAA-based symbolic summarization with Gaussian breakpoints.

SAX (Section IV-D of the paper) combines PAA with a fixed equal-depth
quantization of the standard Normal distribution.  iSAX is the indexable
variant whose symbols can be expressed at any power-of-two cardinality, which
is what allows the MESSI tree to split nodes by appending one bit to one
segment's symbol.

The lower bound between a query's PAA summary and an iSAX word is the classic
``mindist``:

    mindist(Q_PAA, W)² = (n / l) · Σ_i gap_i²

where ``gap_i`` is zero when the PAA value falls inside the word's quantization
interval in segment ``i`` and otherwise the distance to the nearest breakpoint.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InvalidParameterError, NotFittedError
from repro.transforms.base import SymbolicSummarization, _as_matrix
from repro.transforms.paa import paa_segment_lengths, paa_transform, paa_transform_batch
from repro.transforms.quantization import HierarchicalBins


class SAX(SymbolicSummarization):
    """SAX / iSAX summarization with the mindist lower bound.

    Parameters
    ----------
    word_length:
        Number of PAA segments (16 in the paper's default configuration).
    alphabet_size:
        Cardinality of the full-resolution symbols; must be a power of two
        (256 in the paper's default configuration).
    """

    def __init__(self, word_length: int = 16, alphabet_size: int = 256) -> None:
        if word_length < 1:
            raise InvalidParameterError(f"word_length must be positive, got {word_length}")
        if alphabet_size < 2 or alphabet_size & (alphabet_size - 1):
            raise InvalidParameterError(
                f"alphabet_size must be a power of two >= 2, got {alphabet_size}"
            )
        self.word_length = word_length
        self._alphabet_size = alphabet_size
        self.series_length: int | None = None
        self.bins: HierarchicalBins | None = None
        self.weights: np.ndarray | None = None

    def fit(self, data) -> "SAX":
        """SAX has no learned parameters; fitting records the series length."""
        matrix = _as_matrix(data)
        if self.word_length > matrix.shape[1]:
            raise InvalidParameterError(
                f"word_length {self.word_length} exceeds series length {matrix.shape[1]}"
            )
        self.series_length = matrix.shape[1]
        bits = int(np.log2(self._alphabet_size))
        self.bins = HierarchicalBins(bits=bits, scheme="gaussian")
        self.bins.fit_dimensions(self.word_length)
        # Per-segment lengths (all equal to n / l when l divides n) are the
        # weights of the squared mindist lower bound.
        self.weights = paa_segment_lengths(self.series_length, self.word_length)
        return self

    def clone_unfitted(self) -> "SAX":
        """A fresh, unfitted SAX with the same configuration (see base class)."""
        return SAX(word_length=self.word_length, alphabet_size=self._alphabet_size)

    # -------------------------------------------------------- serialization

    def snapshot_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Fitted state as (JSON-safe config, plain arrays) for snapshots."""
        if self.bins is None or self.weights is None:
            raise NotFittedError("SAX must be fitted before it can be snapshotted")
        config = {
            "word_length": self.word_length,
            "alphabet_size": self._alphabet_size,
            "series_length": self.series_length,
            "binning_scheme": self.bins.scheme,
        }
        arrays = {
            "breakpoints": self.bins.breakpoints,
            "weights": self.weights,
        }
        return config, arrays

    @classmethod
    def from_snapshot(cls, config: dict, arrays: dict) -> "SAX":
        """Rebuild a fitted SAX instance from snapshot state."""
        sax = cls(word_length=int(config["word_length"]),
                  alphabet_size=int(config["alphabet_size"]))
        sax.series_length = int(config["series_length"])
        bits = int(np.log2(sax._alphabet_size))
        sax.bins = HierarchicalBins.from_breakpoints(
            bits=bits, scheme=config["binning_scheme"],
            breakpoints=arrays["breakpoints"])
        sax.weights = np.ascontiguousarray(arrays["weights"], dtype=np.float64)
        return sax

    def transform(self, series: np.ndarray) -> np.ndarray:
        """Numeric summary of a series: its PAA means."""
        return paa_transform(series, self.word_length)

    def transform_batch(self, data) -> np.ndarray:
        return paa_transform_batch(_as_matrix(data), self.word_length)

    def lower_bound(self, summary_a: np.ndarray, summary_b: np.ndarray) -> float:
        """PAA lower bound between two numeric summaries."""
        if self.weights is None:
            raise InvalidParameterError("SAX must be fitted before use")
        summary_a = np.asarray(summary_a, dtype=np.float64)
        summary_b = np.asarray(summary_b, dtype=np.float64)
        gaps = summary_a - summary_b
        return float(np.sqrt(np.sum(self.weights * gaps * gaps)))

    def reconstruct(self, summary: np.ndarray, length: int) -> np.ndarray:
        """Staircase reconstruction from PAA means (for qualitative figures)."""
        summary = np.asarray(summary, dtype=np.float64)
        boundaries = np.linspace(0, length, summary.shape[0] + 1).astype(int)
        series = np.empty(length, dtype=np.float64)
        for i, value in enumerate(summary):
            series[boundaries[i]:boundaries[i + 1]] = value
        return series

    def word_to_string(self, word: np.ndarray, alphabet: str | None = None) -> str:
        """Readable rendering of a word (used in the Figure 2 style examples).

        Only meaningful for alphabets of at most 26 symbols; larger alphabets
        are rendered as dash-separated integers.
        """
        word = np.asarray(word, dtype=np.int64)
        if alphabet is None and self._alphabet_size <= 26:
            alphabet = "abcdefghijklmnopqrstuvwxyz"[:self._alphabet_size]
        if alphabet is not None:
            return "".join(alphabet[symbol] for symbol in word)
        return "-".join(str(int(symbol)) for symbol in word)
