"""Dataset container for collections of equal-length data series.

A :class:`Dataset` wraps a 2-D ``float64`` array (one series per row) together
with a name and an optional pre-normalised view.  Indexes and baselines in
this library operate on ``Dataset`` objects so that normalisation happens
exactly once and the raw values stay available for exact-distance refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import DatasetError
from repro.core.normalization import znormalize_batch


class GrowableArray:
    """An append-only array with amortized-doubling capacity growth.

    Appending rows to a plain ``numpy`` array costs a full copy per append
    (``np.vstack`` reallocates everything), which turns an ingest stream of
    ``n`` single-series inserts into O(n²) copying.  ``GrowableArray`` keeps a
    backing buffer that at least doubles whenever it runs out of room, so a
    stream of appends costs amortized O(1) copies per row, and :attr:`view`
    exposes the rows appended so far as a zero-copy slice.

    Growth never mutates published rows: when the buffer is reallocated the
    old backing array is left intact, so :attr:`view` slices handed out
    earlier (e.g. to concurrent readers of the dynamic index) keep their
    values.

    Parameters
    ----------
    row_shape:
        Shape of a single row: ``()`` for a 1-D array of scalars, ``(l,)``
        for a matrix whose rows have ``l`` columns.
    dtype:
        Element dtype of the buffer (``float64`` by default).
    capacity:
        Initial number of pre-allocated rows.
    """

    def __init__(self, row_shape: tuple[int, ...] = (),
                 dtype: "np.dtype | type" = np.float64, capacity: int = 0) -> None:
        if capacity < 0:
            raise DatasetError(f"capacity must be non-negative, got {capacity}")
        self._row_shape = tuple(int(dimension) for dimension in row_shape)
        self._data = np.empty((capacity, *self._row_shape), dtype=dtype)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        """Number of rows the current backing buffer can hold."""
        return self._data.shape[0]

    @property
    def view(self) -> np.ndarray:
        """Zero-copy view of the rows appended so far."""
        return self._data[: self._count]

    def append(self, rows: np.ndarray) -> int:
        """Append a block of rows; returns the index of the first new row.

        ``rows`` must have shape ``(count, *row_shape)`` (or ``row_shape``
        itself for a single row).
        """
        rows = np.asarray(rows, dtype=self._data.dtype)
        if rows.shape == self._row_shape:
            rows = rows[None]
        if rows.shape[1:] != self._row_shape:
            raise DatasetError(
                f"appended rows must have row shape {self._row_shape}, "
                f"got {rows.shape[1:]}"
            )
        start = self._count
        needed = start + rows.shape[0]
        if needed > self._data.shape[0]:
            grown = max(needed, 2 * self._data.shape[0], 8)
            data = np.empty((grown, *self._row_shape), dtype=self._data.dtype)
            data[:start] = self._data[:start]
            self._data = data
        self._data[start:needed] = rows
        self._count = needed
        return start


@dataclass
class Dataset:
    """A named collection of equal-length data series.

    Parameters
    ----------
    values:
        2-D array with one series per row.  Converted to ``float64``.
    name:
        Human-readable dataset name (defaults to ``"dataset"``).
    normalize:
        When true (the default) the values are z-normalized row-wise on
        construction, matching the paper's use of the z-normalized Euclidean
        distance.
    validate:
        When true (the default) the values are scanned for NaN/infinite
        entries.  Snapshot loading passes false so that a memory-mapped value
        matrix is adopted without touching (paging in) every element; the
        arrays were validated when the snapshot's source dataset was built.
    """

    values: np.ndarray
    name: str = "dataset"
    normalize: bool = True
    metadata: dict = field(default_factory=dict)
    validate: bool = True

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim == 1:
            values = values.reshape(1, -1)
        if values.ndim != 2:
            raise DatasetError(
                f"dataset '{self.name}' must be a 2-D array, got shape {values.shape}"
            )
        if values.shape[0] == 0 or values.shape[1] == 0:
            raise DatasetError(f"dataset '{self.name}' must not be empty")
        if self.validate and not np.isfinite(values).all():
            raise DatasetError(f"dataset '{self.name}' contains NaN or infinite values")
        if self.normalize:
            values = znormalize_batch(values)
        self.values = values

    @property
    def num_series(self) -> int:
        """Number of series in the dataset."""
        return self.values.shape[0]

    @property
    def series_length(self) -> int:
        """Length of every series in the dataset."""
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.num_series

    def __getitem__(self, index: int) -> np.ndarray:
        return self.values[index]

    def split(self, num_queries: int, rng: np.random.Generator | None = None
              ) -> tuple["Dataset", "Dataset"]:
        """Split into an indexing set and a held-out query set.

        Mirrors the paper's protocol of keeping 100 query series per dataset
        separate from the indexed data.
        """
        if not 0 < num_queries < self.num_series:
            raise DatasetError(
                f"num_queries must be in (0, {self.num_series}), got {num_queries}"
            )
        rng = rng or np.random.default_rng(0)
        permutation = rng.permutation(self.num_series)
        query_rows = permutation[:num_queries]
        index_rows = permutation[num_queries:]
        index_set = Dataset(self.values[np.sort(index_rows)], name=self.name,
                            normalize=False, metadata=dict(self.metadata))
        query_set = Dataset(self.values[np.sort(query_rows)], name=f"{self.name}-queries",
                            normalize=False, metadata=dict(self.metadata))
        return index_set, query_set
