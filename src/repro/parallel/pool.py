"""Thin thread-pool wrapper and chunking helpers.

MESSI and SOFA are multi-threaded systems; the reproduction runs their
parallel phases on a real thread pool, which pays off on code paths that
release the GIL (NumPy kernels).
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from repro.core.errors import InvalidParameterError

T = TypeVar("T")
R = TypeVar("R")
S = TypeVar("S")

#: Environment variable that sets the default worker count of every component
#: that accepts ``num_workers=None`` (index construction, CI matrix runs).
NUM_WORKERS_ENV = "REPRO_NUM_WORKERS"


def default_num_workers() -> int:
    """The process-wide default worker count (1 unless overridden by env).

    Reads :data:`NUM_WORKERS_ENV` at call time so tests and CI jobs can flip
    the default without touching call sites; an unset or empty variable means
    single-worker, and invalid values raise a typed error rather than being
    silently ignored.
    """
    raw = os.environ.get(NUM_WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise InvalidParameterError(
            f"{NUM_WORKERS_ENV} must be a positive integer, got '{raw}'"
        ) from None
    if value < 1:
        raise InvalidParameterError(
            f"{NUM_WORKERS_ENV} must be >= 1, got {value}"
        )
    return value


def resolve_num_workers(num_workers: "int | None") -> int:
    """Resolve an optional worker count: ``None`` falls back to the env default."""
    if num_workers is None:
        return default_num_workers()
    if num_workers < 1:
        raise InvalidParameterError(f"num_workers must be >= 1, got {num_workers}")
    return int(num_workers)


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


class WorkerPool:
    """A small wrapper around :class:`ThreadPoolExecutor` with a map helper.

    ``num_workers=1`` short-circuits to an in-line loop so single-threaded runs
    are deterministic and easy to profile.  ``num_workers=None`` falls back to
    the process default (:func:`default_num_workers`, settable through the
    ``REPRO_NUM_WORKERS`` environment variable).

    ``persistent=True`` keeps one executor alive across calls instead of
    spawning threads per call.  Per-call thread startup is irrelevant for
    index builds (milliseconds against seconds) but dominates for the
    intra-query search engine, whose whole parallel section can be shorter
    than starting four threads; the persistent executor turns each call into
    a handful of queue operations.  The idle threads exit when the pool is
    garbage-collected (the executor's worker loop watches a weak reference),
    so abandoned searchers do not leak threads forever.
    """

    def __init__(self, num_workers: "int | None" = 1,
                 persistent: bool = False) -> None:
        self.num_workers = resolve_num_workers(num_workers)
        self.persistent = bool(persistent)
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()

    def _ensure_executor(self) -> ThreadPoolExecutor:
        """The persistent executor, created once (locked against racing callers)."""
        executor = self._executor
        if executor is None:
            with self._executor_lock:
                executor = self._executor
                if executor is None:
                    executor = ThreadPoolExecutor(
                        max_workers=self.num_workers,
                        thread_name_prefix="repro-pool")
                    self._executor = executor
        return executor

    def _run_drains(self, drain: Callable[[], R], num_threads: int) -> list[R]:
        """Run ``num_threads`` copies of ``drain``, returning their results.

        The results are ordered by worker index (submission order), never by
        completion order, so callers can merge per-worker state
        deterministically.  Drain functions built by :meth:`map` /
        :meth:`map_shared` never raise (they record failures and return), so
        every future completes and a persistent executor is always left
        reusable — a dying worker can neither wedge the queue nor leak a
        pending future.
        """
        if self.persistent:
            executor = self._ensure_executor()
            futures = [executor.submit(drain) for _ in range(num_threads)]
            return [future.result() for future in futures]
        with ThreadPoolExecutor(max_workers=num_threads) as executor:
            futures = [executor.submit(drain) for _ in range(num_threads)]
            return [future.result() for future in futures]

    @staticmethod
    def _first_error(errors: "list[tuple[int, BaseException]]") -> BaseException:
        """The failure at the smallest item position — a deterministic pick
        when several workers die concurrently, independent of thread timing."""
        return min(errors, key=lambda pair: pair[0])[1]

    def map(self, function: Callable[[T], R], items: Sequence[T] | Iterable[T]) -> list[R]:
        """Apply ``function`` to every item, preserving order.

        Multi-worker runs drain a shared work queue: each of the
        ``num_workers`` threads repeatedly claims the next unclaimed item, so
        items are picked up in input order (submitting longest-first realizes
        a greedy LPT schedule) and a workload of thousands of small items pays
        the executor dispatch cost once per *worker*, not once per item.

        A worker raising mid-drain does not wedge the pool: the failure is
        recorded, the remaining unclaimed items are cancelled, every other
        worker exits at its next claim, and the exception at the smallest
        item position re-raises here (deterministic even when several workers
        die at once).  The executor stays reusable afterwards.
        """
        items = list(items)
        if self.num_workers == 1 or len(items) <= 1:
            return [function(item) for item in items]
        results: list[R] = [None] * len(items)  # type: ignore[list-item]
        # itertools.count.__next__ is a single C call, hence atomic under the
        # GIL — a lock-free claim ticket.
        tickets = itertools.count()
        cancel = threading.Event()
        errors: "list[tuple[int, BaseException]]" = []
        errors_lock = threading.Lock()

        def drain() -> None:
            while not cancel.is_set():
                position = next(tickets)
                if position >= len(items):
                    return
                try:
                    results[position] = function(items[position])
                except BaseException as error:  # noqa: BLE001 — re-raised below
                    with errors_lock:
                        errors.append((position, error))
                    cancel.set()
                    return

        self._run_drains(drain, min(self.num_workers, len(items)))
        if errors:
            raise self._first_error(errors)
        return results

    def map_shared(self, function: Callable[[T, S], None],
                   items: Sequence[T] | Iterable[T], *,
                   make_state: Callable[[], S],
                   chunk_size: int = 1) -> list[S]:
        """Chunked work-stealing drain over shared mutable state.

        Up to ``num_workers`` threads each create a private ``make_state()``
        and repeatedly claim the next unclaimed chunk of ``chunk_size``
        consecutive items, calling ``function(item, state)`` for each.
        Chunks are claimed in input order, so a work queue sorted
        most-promising-first (e.g. the exact searcher's lower-bound-ordered
        leaf queue) is drained in that order across workers.  Cross-worker
        communication happens through whatever shared structures ``function``
        closes over (e.g. a shared best-so-far heap); the pool only
        guarantees that every item is processed exactly once and that the
        returned per-worker states are ordered by worker index — a
        deterministic merge order independent of thread completion timing.

        Fault tolerance matches :meth:`map`: a raising worker cancels the
        remaining chunks, the deterministic first exception propagates, and
        the (persistent) executor survives for the next call.
        """
        if chunk_size < 1:
            raise InvalidParameterError(
                f"chunk_size must be >= 1, got {chunk_size}")
        items = list(items)
        if self.num_workers == 1 or len(items) <= 1:
            state = make_state()
            for item in items:
                function(item, state)
            return [state]
        num_chunks = -(-len(items) // chunk_size)
        tickets = itertools.count()
        cancel = threading.Event()
        errors: "list[tuple[int, BaseException]]" = []
        errors_lock = threading.Lock()

        def drain() -> S:
            state = make_state()
            while not cancel.is_set():
                chunk = next(tickets)
                if chunk >= num_chunks:
                    return state
                try:
                    for item in items[chunk * chunk_size:(chunk + 1) * chunk_size]:
                        function(item, state)
                except BaseException as error:  # noqa: BLE001 — re-raised below
                    with errors_lock:
                        errors.append((chunk, error))
                    cancel.set()
                    return state
            return state

        states = self._run_drains(drain, min(self.num_workers, num_chunks))
        if errors:
            raise self._first_error(errors)
        return states
