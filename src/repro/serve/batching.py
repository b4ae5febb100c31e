"""Request coalescing for ``/knn``: many client threads, one batched engine.

The HTTP layer answers every client on its own thread; without coalescing each
request would pay the full per-query ``knn`` cost, and a flat-path index could
not share one GEMM estimate across concurrent requests (a tree-path batch
loops the per-query engine, so it gains nothing from coalescing).  :class:`KnnBatcher` puts a
:class:`~repro.parallel.batching.MicroBatchQueue` in front of the engine:
handler threads submit ``(query, k, timeout_s)`` and block, the drainer groups
whatever coalesced by identical ``(k, timeout_s)`` and answers each group with
one :meth:`knn_batch` call.

Error isolation is per item where it can be: queries are pre-validated one by
one (a malformed neighbour never poisons the batch), and a typed engine
failure of one ``(k, timeout_s)`` group is delivered to that group's
submitters only.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.core.errors import ReproError
from repro.index.search import resolve_deadline, validated_count, validated_query
from repro.parallel.batching import MicroBatchQueue


def engine_tree(engine):
    """The served tree of any engine: wrapper, dynamic wrapper, or bare tree."""
    return getattr(engine, "tree", engine)


def engine_series_length(engine) -> int:
    """The series length an engine answers over, tree-backed or sharded.

    A :class:`~repro.index.sharded.ShardedIndex` has no single ``tree`` (its
    shards load lazily), so it exposes ``series_length`` directly; everything
    else resolves through its served tree's dataset.
    """
    length = getattr(engine, "series_length", None)
    if length is not None:
        return int(length)
    return int(engine_tree(engine).dataset.series_length)


class KnnBatcher:
    """Coalesce concurrent k-NN requests into shared ``knn_batch`` calls.

    Parameters
    ----------
    get_engine:
        Zero-argument callable returning the engine to answer with.  Looked
        up once per drained batch — not once at construction — so a hot
        snapshot reload (the app swapping an index's engine) takes effect on
        the next batch without tearing the queue down.
    max_batch / max_wait_s / name / max_pending / callers:
        Forwarded to :class:`~repro.parallel.batching.MicroBatchQueue`
        (``max_pending`` bounds the backlog: beyond it ``submit`` sheds the
        request with a typed
        :class:`~repro.core.errors.OverloadedError`; ``callers`` bounds the
        possible submitters, so the window closes once they are all
        pending — read per batch, like ``get_engine``).
    """

    def __init__(self, get_engine: Callable[[], Any], *,
                 max_batch: int = 64,
                 max_wait_s: float = 0.002, name: str = "knn",
                 max_pending: "int | None" = None,
                 callers: "Callable[[], int | None] | None" = None) -> None:
        self._get_engine = get_engine
        self._queue = MicroBatchQueue(self._process, max_batch=max_batch,
                                      max_wait_s=max_wait_s, name=name,
                                      max_pending=max_pending,
                                      callers=callers)

    @property
    def pending_depth(self) -> int:
        """Requests currently queued behind the drainer."""
        return self._queue.pending_depth

    @property
    def drainer_alive(self) -> bool:
        """Whether the underlying micro-batch drainer thread is running."""
        return self._queue.drainer_alive

    def submit(self, query: np.ndarray, k: int, timeout_s: "float | None",
               wait_timeout: "float | None" = None):
        """Answer one query through the shared queue; blocks until its batch ran.

        Returns the query's :class:`~repro.index.search.SearchResult`;
        re-raises its typed engine error, and
        :class:`~repro.core.errors.ShutdownError` after :meth:`close`.
        ``k`` and ``timeout_s`` are validated *here*, on the caller's thread:
        they become the grouping key, and a typed rejection must name the one
        bad request rather than surface from inside someone else's batch.
        """
        k = validated_count(k)
        resolve_deadline(timeout_s)  # typed validation only; deadline discarded
        return self._queue.submit((query, k, timeout_s), timeout=wait_timeout)

    def close(self, timeout: "float | None" = 10.0) -> None:
        self._queue.close(timeout)

    @property
    def stats(self) -> dict:
        """Coalescing counters (see :attr:`MicroBatchQueue.stats`)."""
        return self._queue.stats

    # ------------------------------------------------------------- drainer

    def _process(self, items: list) -> list:
        """Answer one drained batch: validate per item, group, search per group."""
        engine = self._get_engine()  # one generation serves the whole batch
        expected_length = engine_series_length(engine)
        outcomes: list = [None] * len(items)
        groups: "dict[tuple, list[tuple[int, np.ndarray]]]" = {}
        for position, (query, k, timeout_s) in enumerate(items):
            try:
                query = validated_query(query, expected_length)
            except ReproError as error:
                outcomes[position] = error
                continue
            groups.setdefault((k, timeout_s), []).append((position, query))
        for (k, timeout_s), members in groups.items():
            queries = np.stack([query for _, query in members])
            try:
                results = engine.knn_batch(queries, k=k, timeout_s=timeout_s)
            except ReproError as error:
                for position, _ in members:
                    outcomes[position] = error
            else:
                for (position, _), result in zip(members, results):
                    outcomes[position] = result
        return outcomes
