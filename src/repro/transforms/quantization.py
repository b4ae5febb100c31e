"""Breakpoint machinery shared by the symbolic summarizations.

Both iSAX and SFA map numeric summary values (PAA means, or selected Fourier
coefficients) to small integer symbols using a set of *breakpoints* per
dimension.  The tree index additionally needs *nested* quantization: a node
that uses only the first ``k`` bits of a symbol must describe a bin that is the
union of the bins of its two children (``k + 1`` bits).  All binning schemes in
this module are therefore built as a full grid of ``2**bits − 1`` breakpoints
from which the breakpoints of every coarser cardinality are strided subsets:

* ``gaussian``   — equal-depth bins of the standard Normal distribution
  (the classic SAX/iSAX scheme, Section IV-D),
* ``equi-depth`` — empirical quantiles learned from the data
  (the original SFA scheme of Schäfer & Högqvist),
* ``equi-width`` — equally wide bins spanning the observed value range
  (the scheme the paper advocates for SOFA, Section IV-E1).

Nesting holds for all three because the breakpoints of cardinality ``2**k``
are exactly the breakpoints of the full grid at positions that are multiples
of ``2**(bits−k)``.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.core.errors import InvalidParameterError, NotFittedError

#: Supported binning schemes.
BINNING_SCHEMES = ("gaussian", "equi-depth", "equi-width")


def gaussian_breakpoints(cardinality: int) -> np.ndarray:
    """Equal-depth breakpoints of N(0, 1) for a given alphabet cardinality.

    Returns ``cardinality − 1`` finite breakpoints (the outer bins extend to
    ±infinity implicitly).  These are the hard-coded tables used by SAX.
    """
    if cardinality < 2:
        raise InvalidParameterError(f"cardinality must be >= 2, got {cardinality}")
    probabilities = np.arange(1, cardinality) / cardinality
    return stats.norm.ppf(probabilities)


def equi_depth_breakpoints(values: np.ndarray, cardinality: int) -> np.ndarray:
    """Empirical-quantile breakpoints learned from ``values``."""
    if cardinality < 2:
        raise InvalidParameterError(f"cardinality must be >= 2, got {cardinality}")
    values = np.asarray(values, dtype=np.float64)
    probabilities = np.arange(1, cardinality) / cardinality
    return np.quantile(values, probabilities)


def equi_width_breakpoints(values: np.ndarray, cardinality: int) -> np.ndarray:
    """Equally wide breakpoints spanning the observed range of ``values``.

    When the observed range collapses to a point the breakpoints degenerate to
    that point, which keeps symbol assignment well defined (every value maps to
    the last bin at or above the point).
    """
    if cardinality < 2:
        raise InvalidParameterError(f"cardinality must be >= 2, got {cardinality}")
    values = np.asarray(values, dtype=np.float64)
    low = float(values.min())
    high = float(values.max())
    if high <= low:
        return np.full(cardinality - 1, low)
    return np.linspace(low, high, cardinality + 1)[1:-1]


class HierarchicalBins:
    """Per-dimension nested quantization bins with variable cardinality.

    Parameters
    ----------
    bits:
        Number of bits of the full-resolution symbols; the alphabet size is
        ``2**bits`` (8 bits / 256 symbols in the paper's default setup).
    scheme:
        One of :data:`BINNING_SCHEMES`.
    """

    def __init__(self, bits: int = 8, scheme: str = "equi-width") -> None:
        if bits < 1 or bits > 16:
            raise InvalidParameterError(f"bits must be in [1, 16], got {bits}")
        if scheme not in BINNING_SCHEMES:
            raise InvalidParameterError(
                f"unknown binning scheme '{scheme}'; expected one of {BINNING_SCHEMES}"
            )
        self.bits = bits
        self.scheme = scheme
        self._breakpoints: np.ndarray | None = None  # shape (dims, cardinality - 1)

    # ------------------------------------------------------------------ fit

    @property
    def cardinality(self) -> int:
        """Alphabet size of the full-resolution symbols."""
        return 1 << self.bits

    @property
    def is_fitted(self) -> bool:
        return self._breakpoints is not None

    @property
    def breakpoints(self) -> np.ndarray:
        """The full-resolution breakpoint grid, shape ``(dims, cardinality - 1)``."""
        self._require_fitted()
        return self._breakpoints

    @classmethod
    def from_breakpoints(cls, bits: int, scheme: str,
                         breakpoints: np.ndarray) -> "HierarchicalBins":
        """Rebuild fitted bins from a previously learned breakpoint grid.

        This is the deserialization path of the index persistence subsystem:
        the grid saved by a snapshot is adopted verbatim, so symbol assignment
        and intervals of the restored bins are bit-identical to the original.
        """
        bins = cls(bits=bits, scheme=scheme)
        grid = np.ascontiguousarray(breakpoints, dtype=np.float64)
        if grid.ndim != 2 or grid.shape[1] != bins.cardinality - 1:
            raise InvalidParameterError(
                f"expected a breakpoint grid of shape (dims, {bins.cardinality - 1}), "
                f"got {grid.shape}"
            )
        bins._breakpoints = grid
        return bins

    @property
    def num_dimensions(self) -> int:
        self._require_fitted()
        return self._breakpoints.shape[0]

    def fit(self, values: np.ndarray) -> "HierarchicalBins":
        """Learn breakpoints from a sample of numeric summaries.

        Parameters
        ----------
        values:
            2-D array of shape ``(num_samples, num_dimensions)`` — one column
            per summary dimension (PAA segment or Fourier component).  For the
            ``gaussian`` scheme only the number of columns is used.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise InvalidParameterError(
                f"expected a 2-D array of summaries, got shape {values.shape}"
            )
        dims = values.shape[1]
        breakpoints = np.empty((dims, self.cardinality - 1), dtype=np.float64)
        if self.scheme == "gaussian":
            breakpoints[:] = gaussian_breakpoints(self.cardinality)
        else:
            learner = (equi_depth_breakpoints if self.scheme == "equi-depth"
                       else equi_width_breakpoints)
            for dim in range(dims):
                breakpoints[dim] = learner(values[:, dim], self.cardinality)
        self._breakpoints = breakpoints
        return self

    def fit_dimensions(self, num_dimensions: int) -> "HierarchicalBins":
        """Fit Gaussian breakpoints without data (valid for the gaussian scheme only)."""
        if self.scheme != "gaussian":
            raise InvalidParameterError(
                "fit_dimensions is only available for the gaussian scheme; "
                "learned schemes need data"
            )
        if num_dimensions < 1:
            raise InvalidParameterError("num_dimensions must be positive")
        breakpoints = np.tile(gaussian_breakpoints(self.cardinality), (num_dimensions, 1))
        self._breakpoints = breakpoints
        return self

    def _require_fitted(self) -> None:
        if self._breakpoints is None:
            raise NotFittedError("HierarchicalBins must be fitted before use")

    # ------------------------------------------------------ symbol handling

    def symbols(self, values: np.ndarray) -> np.ndarray:
        """Quantize numeric summaries to full-resolution integer symbols.

        Parameters
        ----------
        values:
            Array of shape ``(num_samples, dims)`` or ``(dims,)``.

        Returns
        -------
        numpy.ndarray
            Integer symbols in ``[0, 2**bits)`` with the same leading shape.
        """
        self._require_fitted()
        values = np.asarray(values, dtype=np.float64)
        single = values.ndim == 1
        matrix = np.atleast_2d(values)
        if matrix.shape[1] != self._breakpoints.shape[0]:
            raise InvalidParameterError(
                f"expected {self._breakpoints.shape[0]} dimensions, got {matrix.shape[1]}"
            )
        symbols = np.empty(matrix.shape, dtype=np.int64)
        for dim in range(matrix.shape[1]):
            symbols[:, dim] = np.searchsorted(self._breakpoints[dim], matrix[:, dim],
                                              side="right")
        return symbols[0] if single else symbols

    @staticmethod
    def promote(symbols: np.ndarray, from_bits: int, to_bits: int) -> np.ndarray:
        """Reduce symbol resolution by dropping low-order bits (never adds bits)."""
        if to_bits > from_bits:
            raise InvalidParameterError(
                f"cannot promote from {from_bits} to {to_bits} bits (resolution can only drop)"
            )
        symbols = np.asarray(symbols)
        return symbols >> (from_bits - to_bits)

    # ------------------------------------------------------------ intervals

    def intervals(self, symbols: np.ndarray,
                  cardinality_bits: np.ndarray | int | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Lower/upper breakpoints of each symbol's quantization interval.

        Parameters
        ----------
        symbols:
            Integer symbols of shape ``(num_words, dims)`` or ``(dims,)``.
            Symbols must already be expressed at the requested resolution.
        cardinality_bits:
            Bits per dimension: a scalar, an array of shape ``(dims,)`` shared
            by every word, or ``None`` for full resolution.  Dimensions with
            zero bits yield the unbounded interval ``(−inf, +inf)``.

        Returns
        -------
        (lower, upper):
            Arrays shaped like ``symbols`` (as float) with ``−inf``/``+inf``
            marking unbounded outer bins.
        """
        self._require_fitted()
        symbols = np.asarray(symbols, dtype=np.int64)
        single = symbols.ndim == 1
        words = np.atleast_2d(symbols)
        dims = self._breakpoints.shape[0]
        if words.shape[1] != dims:
            raise InvalidParameterError(
                f"expected {dims} dimensions, got {words.shape[1]}"
            )
        if cardinality_bits is None:
            bits_per_dim = np.full(dims, self.bits, dtype=np.int64)
        else:
            bits_per_dim = np.broadcast_to(
                np.asarray(cardinality_bits, dtype=np.int64), (dims,)
            ).astype(np.int64)

        cardinality = np.int64(1) << bits_per_dim                  # (dims,)
        if np.any((words < 0) | (words >= cardinality[None, :])):
            raise InvalidParameterError("symbol out of range for its cardinality")

        # The breakpoints of a coarser cardinality are a strided subset of the
        # full grid: symbol s at b bits has lower breakpoint index s*stride - 1
        # and upper breakpoint index (s+1)*stride - 1 in the full grid, where
        # stride = 2**(bits - b).  Gathering from the full grid avoids any
        # per-dimension Python loop on the query hot path.
        stride = np.int64(1) << (self.bits - bits_per_dim)         # (dims,)
        lower_index = words * stride[None, :] - 1
        upper_index = (words + 1) * stride[None, :] - 1
        has_lower = words > 0
        has_upper = words < (cardinality - 1)[None, :]
        zero_bits = bits_per_dim == 0
        if zero_bits.any():
            has_lower = has_lower & ~zero_bits[None, :]
            has_upper = has_upper & ~zero_bits[None, :]

        max_index = self._breakpoints.shape[1] - 1
        dim_index = np.broadcast_to(np.arange(dims), words.shape)
        lower_values = self._breakpoints[dim_index, np.clip(lower_index, 0, max_index)]
        upper_values = self._breakpoints[dim_index, np.clip(upper_index, 0, max_index)]
        lower = np.where(has_lower, lower_values, -np.inf)
        upper = np.where(has_upper, upper_values, np.inf)
        if single:
            return lower[0], upper[0]
        return lower, upper

    def intervals_batch(self, symbols: np.ndarray, cardinality_bits: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Intervals of many words where *every word carries its own bits*.

        The index's leaf directory needs the node-level interval of every leaf,
        and each leaf sits at a different refinement (its own per-dimension bit
        counts).  :meth:`intervals` only supports one shared ``bits`` vector,
        forcing one call per leaf; this variant accepts a full
        ``(num_words, dims)`` bit matrix (anything broadcastable to the symbol
        shape) and gathers every interval in one vectorized pass.

        Parameters
        ----------
        symbols:
            Integer symbols of shape ``(num_words, dims)``, each row expressed
            at its own resolution.
        cardinality_bits:
            Per-word, per-dimension bit counts, broadcastable to
            ``symbols.shape``.  Zero bits yield ``(-inf, +inf)``.

        Returns
        -------
        (lower, upper):
            Float arrays of shape ``(num_words, dims)``; results are
            bit-identical to calling :meth:`intervals` row by row.
        """
        self._require_fitted()
        words = np.asarray(symbols, dtype=np.int64)
        if words.ndim != 2:
            raise InvalidParameterError(
                f"expected a 2-D symbol matrix, got shape {words.shape}"
            )
        dims = self._breakpoints.shape[0]
        if words.shape[1] != dims:
            raise InvalidParameterError(
                f"expected {dims} dimensions, got {words.shape[1]}"
            )
        bits_matrix = np.broadcast_to(
            np.asarray(cardinality_bits, dtype=np.int64), words.shape)
        if np.any((bits_matrix < 0) | (bits_matrix > self.bits)):
            raise InvalidParameterError(
                f"cardinality bits must be in [0, {self.bits}]"
            )
        cardinality = np.int64(1) << bits_matrix
        if np.any((words < 0) | (words >= cardinality)):
            raise InvalidParameterError("symbol out of range for its cardinality")

        # Same strided-grid gather as `intervals`, with the stride varying per
        # word as well as per dimension.
        stride = np.int64(1) << (self.bits - bits_matrix)
        lower_index = words * stride - 1
        upper_index = (words + 1) * stride - 1
        nonzero_bits = bits_matrix > 0
        has_lower = (words > 0) & nonzero_bits
        has_upper = (words < cardinality - 1) & nonzero_bits

        max_index = self._breakpoints.shape[1] - 1
        dim_index = np.broadcast_to(np.arange(dims), words.shape)
        lower_values = self._breakpoints[dim_index, np.clip(lower_index, 0, max_index)]
        upper_values = self._breakpoints[dim_index, np.clip(upper_index, 0, max_index)]
        lower = np.where(has_lower, lower_values, -np.inf)
        upper = np.where(has_upper, upper_values, np.inf)
        return lower, upper

    def mindist(self, values: np.ndarray, symbols: np.ndarray,
                cardinality_bits: np.ndarray | int | None = None) -> np.ndarray:
        """Per-dimension mindist (Eq. 2) between numeric values and symbols."""
        lower, upper = self.intervals(symbols, cardinality_bits)
        values = np.asarray(values, dtype=np.float64)
        below = np.maximum(lower - values, 0.0)
        above = np.maximum(values - upper, 0.0)
        return below + above
