"""Background-task and chunking helpers.

MESSI and SOFA are multi-threaded systems, but in this Python reproduction
the GIL makes threads inside one query, one batch or one tree build a net
loss: per-leaf NumPy calls on a few series never release it for long.
Searches and builds therefore run on the calling thread, and the system's
parallelism is :mod:`repro.cluster`'s shard processes.  What stays here is a
daemon-thread wrapper for maintenance work that overlaps with serving, and
the index chunking the batch engine splits oversized workloads with.
"""

from __future__ import annotations

import threading
from typing import Callable, TypeVar

import numpy as np

from repro.core.errors import InvalidParameterError

R = TypeVar("R")


def chunk_indices(total: int, num_chunks: int) -> list[np.ndarray]:
    """Split ``range(total)`` into ``num_chunks`` near-equal index arrays."""
    if total < 0:
        raise InvalidParameterError("total must be non-negative")
    if num_chunks < 1:
        raise InvalidParameterError("num_chunks must be >= 1")
    return [chunk for chunk in np.array_split(np.arange(total), num_chunks)]


class BackgroundTask:
    """A single function running on a daemon thread, with a captured outcome.

    Used for maintenance work that should overlap with serving — e.g. the
    dynamic index's background compaction — where a full executor is
    overkill.  The wrapped function starts immediately; :meth:`wait` joins
    the thread and either returns the function's result or re-raises the
    exception it died with, so failures are never silently swallowed.
    """

    def __init__(self, function: Callable[[], R]) -> None:
        self._result: R | None = None
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, args=(function,),
                                        daemon=True)
        self._thread.start()

    def _run(self, function: Callable[[], R]) -> None:
        try:
            self._result = function()
        except BaseException as error:  # noqa: BLE001 — re-raised in wait()
            self._error = error

    def done(self) -> bool:
        """Whether the function has finished (successfully or not)."""
        return not self._thread.is_alive()

    def wait(self, timeout: "float | None" = None) -> R:
        """Join the task; return its result or re-raise its exception.

        A worker failure re-raises the *original* exception object, so its
        traceback still points into the worker's frames (the ``raise`` here
        merely appends the join site) — a failed background compaction reads
        like the synchronous call would.  Raises ``TimeoutError`` if the task
        is still running after ``timeout`` seconds, so a hung task cannot
        block shutdown forever; a timed-out wait may be retried.
        """
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("background task did not finish in time")
        if self._error is not None:
            raise self._error
        return self._result
