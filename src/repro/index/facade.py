"""The shared facade of the wrapper indexes: a tree plus its exact searcher.

:class:`~repro.index.sofa.SofaIndex` and :class:`~repro.index.messi.MessiIndex`
differ only in the summarization they plug into the shared
:class:`~repro.index.tree.TreeIndex`; everything else — build, snapshot
round-trip, the dynamic wrapper and the query surface — is this one class
delegating to the tree and its :class:`~repro.index.search.ExactSearcher`.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import IndexError_
from repro.core.series import Dataset
from repro.index.search import ExactSearcher, SearchResult
from repro.index.tree import TreeIndex


class TreeFacade:
    """Build/persist/query surface over one summarization's tree.

    Subclasses construct the summarization and name themselves through
    ``summarization_name`` and ``index_type`` (the snapshot type
    :meth:`load` insists on).
    """

    summarization_name: str
    index_type: str

    def __init__(self, summarization, *, leaf_size: int, split_policy: str,
                 num_workers: "int | None", builder: str) -> None:
        self.summarization = summarization
        self.tree = TreeIndex(summarization, leaf_size=leaf_size,
                              split_policy=split_policy, num_workers=num_workers,
                              builder=builder)
        self._searcher: ExactSearcher | None = None

    def build(self, dataset: "Dataset | np.ndarray",
              num_workers: "int | None" = None):
        """Build the index: fit the summarization, summarize all series, grow
        the tree.

        ``num_workers`` overrides the constructor's worker count for this
        build only; answers are bit-identical for every worker count.
        """
        self.tree.build(dataset if isinstance(dataset, Dataset) else Dataset(dataset),
                        num_workers=num_workers)
        self._searcher = ExactSearcher(self.tree)
        return self

    @property
    def is_built(self) -> bool:
        return self._searcher is not None

    def _require_built(self) -> ExactSearcher:
        if self._searcher is None:
            name = type(self).__name__
            raise IndexError_(
                f"{name} has not been built; call build(dataset) or "
                f"{name}.load(path) before querying"
            )
        return self._searcher

    def save(self, path):
        """Write the built index as a versioned snapshot directory.

        See :mod:`repro.index.persistence`.  Returns ``self`` so saving can be
        chained after :meth:`build`.
        """
        from repro.index.persistence import save_index

        self._require_built()
        save_index(self, path)
        return self

    @classmethod
    def load(cls, path, mmap: bool = True, verify: str = "lazy"):
        """Load a snapshot of this index type; ``mmap=True`` maps the data
        without copying.

        The loaded index answers ``knn`` / ``knn_batch`` bit-identically to
        the index that was saved.  Loading a snapshot of a different index
        type raises :class:`~repro.core.errors.IndexError_`.  ``verify``
        controls checksum verification of the payload arrays (``"eager"``,
        ``"lazy"`` or ``"off"``; see :func:`repro.index.persistence.load_tree`).
        """
        from repro.index.persistence import load_index

        return load_index(path, mmap=mmap, expected_type=cls.index_type,
                          verify=verify)

    def dynamic(self, **options) -> "DynamicIndex":
        """Wrap this built index in a :class:`~repro.index.dynamic.DynamicIndex`.

        The returned index serves *tree ∪ delta − tombstones* with buffered
        ``insert``/``delete`` and ``compact()``; ``options`` are forwarded to
        its constructor (``compact_threshold``, ``auto_compact``, ...).
        """
        from repro.index.dynamic import DynamicIndex

        self._require_built()
        return DynamicIndex(self, **options)

    def knn(self, query: np.ndarray, k: int = 1,
            num_workers: "int | None" = None,
            timeout_s: "float | None" = None,
            trace=None) -> SearchResult:
        """Exact k nearest neighbours of ``query``.

        ``num_workers`` threads drain the query's surviving-leaf queue
        against a shared best-so-far (``None`` = the ``REPRO_NUM_WORKERS``
        process default); answers are bit-identical for every worker count.
        ``timeout_s`` bounds the search: on expiry the best-so-far is
        finalized with ``stats.timed_out=True``; ``trace`` records the
        query's phase spans without changing its answer (see
        :meth:`repro.index.search.ExactSearcher.knn`).
        """
        return self._require_built().knn(query, k=k, num_workers=num_workers,
                                         timeout_s=timeout_s, trace=trace)

    def nearest_neighbor(self, query: np.ndarray,
                         num_workers: "int | None" = None,
                         timeout_s: "float | None" = None) -> SearchResult:
        """Exact nearest neighbour of ``query``.

        ``timeout_s`` bounds the search like :meth:`knn` does: on expiry the
        best-so-far is finalized with ``stats.timed_out=True``.
        """
        return self._require_built().nearest_neighbor(query,
                                                      num_workers=num_workers,
                                                      timeout_s=timeout_s)

    def knn_batch(self, queries: np.ndarray, k: int = 1,
                  num_workers: "int | None" = None,
                  timeout_s: "float | None" = None) -> "list[SearchResult]":
        """Exact k-NN for a batch of queries, answered by the batched engine.

        See :class:`~repro.index.batch_search.BatchSearcher`; ``num_workers``
        shards the batch over a thread pool, falling back to intra-query
        workers when the batch is smaller than the pool.  ``timeout_s``
        bounds the whole batch (still-active queries finalize their
        best-so-far with ``stats.timed_out=True``).
        """
        return self._require_built().knn_batch(queries, k=k,
                                               num_workers=num_workers,
                                               timeout_s=timeout_s)

    @property
    def timings(self):
        """Construction timings (see :class:`~repro.index.tree.BuildTimings`)."""
        return self.tree.timings
