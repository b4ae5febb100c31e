"""Micro-batching request queue: coalesce concurrent calls into shared work.

The batched search engine (:class:`~repro.index.batch_search.BatchSearcher`)
shares one GEMM estimate across a batch on the certified flat path — but only
when queries actually arrive together (on the tree path it loops the
per-query engine, so coalescing gains nothing there).  A server handles each
client on its own thread, so without coalescing every request would pay the
full per-query engine cost.

:class:`MicroBatchQueue` converts that concurrency back into batches: calling
threads :meth:`~MicroBatchQueue.submit` one item each and block; a single
drainer thread collects whatever is pending (waiting up to ``max_wait_s`` for
stragglers, never beyond ``max_batch`` items), hands the batch to the
``process_batch`` callable, and wakes every submitter with its own result.
Under load the queue naturally fills while the previous batch is being
processed, so the window wait only matters at low concurrency — the classic
micro-batching latency/throughput trade.

The window is load-adaptive when the owner knows how many submitters could
still join: ``callers()`` returns that bound (the HTTP server's open
connections, each of which carries at most one request at a time), and the
drainer closes the window as soon as that many items are pending.  Nobody
else can arrive before the cap would have fired, so the batch is the one the
full window would have gathered — only the idle wait goes.

``process_batch(items)`` must return one outcome per item, in order; an
outcome that is an ``Exception`` instance is *delivered* to (and re-raised
in) its submitter only, so one malformed request cannot fail its batch
neighbours.  If ``process_batch`` itself raises, every submitter of that
batch receives the failure.  :meth:`~MicroBatchQueue.close` drains what is
already queued, then rejects later submissions with a typed
:class:`~repro.core.errors.ShutdownError`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Sequence

from repro.core.errors import (
    DrainerError,
    InvalidParameterError,
    OverloadedError,
    ShutdownError,
)
from repro.obs.metrics import get_registry

_REGISTRY = get_registry()
_QUEUE_WAIT = _REGISTRY.histogram(
    "repro_microbatch_queue_wait_seconds",
    "Time an item waited in the micro-batch queue before its batch started.",
    labelnames=("queue",))
_BATCHES = _REGISTRY.counter(
    "repro_microbatch_batches_total",
    "Batches handed to process_batch.", labelnames=("queue",))
_ITEMS = _REGISTRY.counter(
    "repro_microbatch_items_total",
    "Items coalesced into batches.", labelnames=("queue",))
_SHED = _REGISTRY.counter(
    "repro_microbatch_shed_total",
    "Submissions rejected because the backlog bound was reached.",
    labelnames=("queue",))
_DRAINER_RESTARTS = _REGISTRY.counter(
    "repro_microbatch_drainer_restarts_total",
    "Drainer deaths caught by the watchdog (each restarts the drainer).",
    labelnames=("queue",))


class _Pending:
    """One submitted item and the event its submitter blocks on."""

    __slots__ = ("item", "event", "outcome", "enqueued_at")

    def __init__(self, item: Any) -> None:
        self.item = item
        self.event = threading.Event()
        self.outcome: Any = None
        self.enqueued_at = time.monotonic()


class MicroBatchQueue:
    """Coalesce concurrent blocking submissions into shared batch calls.

    Parameters
    ----------
    process_batch:
        Called on the drainer thread with a non-empty list of items; must
        return a sequence of outcomes of the same length (an ``Exception``
        outcome is re-raised in that item's submitter).
    max_batch:
        Largest batch handed to ``process_batch`` in one call.
    max_wait_s:
        The cap on how long the drainer waits for more items after the first
        one arrives; the window closes earlier once every possible submitter
        is pending (see ``callers``).  ``0`` disables the window: a batch is
        whatever is pending at wake-up (still > 1 under load, since items
        queue while the previous batch is processed).
    name:
        Thread name suffix, for debuggability.
    max_pending:
        Backlog bound: when this many items are already queued,
        :meth:`submit` sheds the new one with a typed
        :class:`~repro.core.errors.OverloadedError` instead of letting the
        queue (and every caller's latency) grow without limit.  ``None``
        (default) leaves the queue unbounded.
    callers:
        Optional zero-argument callable bounding how many submitters could
        be blocked in :meth:`submit` at once, read on the drainer thread
        while the window is open.  Once that many items are pending the
        window closes at once.  ``None`` (or a callable returning ``None``)
        means no bound is known: the window always runs to ``max_wait_s``.
    """

    def __init__(self, process_batch: Callable[[list], Sequence],
                 max_batch: int = 64, max_wait_s: float = 0.002,
                 name: str = "microbatch",
                 max_pending: "int | None" = None,
                 callers: "Callable[[], int | None] | None" = None) -> None:
        if max_batch < 1:
            raise InvalidParameterError(
                f"max_batch must be >= 1, got {max_batch}")
        if max_wait_s < 0:
            raise InvalidParameterError(
                f"max_wait_s must be >= 0, got {max_wait_s}")
        if max_pending is not None and max_pending < 1:
            raise InvalidParameterError(
                f"max_pending must be >= 1 (or None), got {max_pending}")
        self._process_batch = process_batch
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self.max_pending = None if max_pending is None else int(max_pending)
        self._callers = callers
        self._name = f"repro-{name}"
        self._pending: list[_Pending] = []
        #: The batch currently being processed; tracked so a drainer death
        #: can fail its unfinished submitters too, not just the queued ones.
        self._active: list[_Pending] = []
        self._condition = threading.Condition()
        self._closed = False
        # Telemetry for /stats: how well concurrency coalesces into batches.
        self._batches = 0
        self._batched_items = 0
        self._largest_batch = 0
        self._restarts = 0
        # Registry children are resolved once per queue, not per observation.
        self._m_wait = _QUEUE_WAIT.labels(queue=name)
        self._m_batches = _BATCHES.labels(queue=name)
        self._m_items = _ITEMS.labels(queue=name)
        self._m_shed = _SHED.labels(queue=name)
        self._m_restarts = _DRAINER_RESTARTS.labels(queue=name)
        self._drainer = threading.Thread(target=self._drain_guarded,
                                         name=self._name, daemon=True)
        self._drainer.start()

    # -------------------------------------------------------------- client

    def submit(self, item: Any, timeout: "float | None" = None) -> Any:
        """Enqueue one item, block until its batch ran, return its outcome.

        Raises the item's ``Exception`` outcome if the processor returned
        one, the batch-wide failure if ``process_batch`` raised, a typed
        :class:`~repro.core.errors.ShutdownError` after :meth:`close`, and
        ``TimeoutError`` if no outcome arrived within ``timeout`` seconds.
        """
        pending = _Pending(item)
        with self._condition:
            if self._closed:
                raise ShutdownError(
                    "the micro-batch queue is closed; the server is "
                    "shutting down")
            if self.max_pending is not None \
                    and len(self._pending) >= self.max_pending:
                self._m_shed.inc()
                raise OverloadedError(
                    f"the batch queue is full ({len(self._pending)} pending, "
                    f"bound {self.max_pending}); retry shortly")
            self._pending.append(pending)
            self._condition.notify_all()
        if not pending.event.wait(timeout):
            raise TimeoutError(
                f"batched call produced no outcome within {timeout} seconds")
        if isinstance(pending.outcome, BaseException):
            raise pending.outcome
        return pending.outcome

    def close(self, timeout: "float | None" = 10.0) -> None:
        """Stop accepting submissions, drain what is queued, join the drainer."""
        with self._condition:
            if self._closed:
                return
            self._closed = True
            self._condition.notify_all()
        self._drainer.join(timeout)

    @property
    def pending_depth(self) -> int:
        """Items currently queued (the load-shedding signal)."""
        with self._condition:
            return len(self._pending)

    @property
    def drainer_alive(self) -> bool:
        """Whether the drainer thread is currently running.

        The readiness probe's signal: between a drainer death and the
        watchdog's restart (or after :meth:`close`) this is ``False``, so an
        orchestrator stops routing to a queue that cannot serve yet.
        """
        with self._condition:
            return self._drainer.is_alive() and not self._closed

    @property
    def stats(self) -> dict:
        """Coalescing counters: batches served, items, mean/largest batch."""
        with self._condition:
            batches, items = self._batches, self._batched_items
            largest = self._largest_batch
            restarts = self._restarts
            pending = len(self._pending)
        return {
            "batches": batches,
            "batched_queries": items,
            "mean_batch_size": (items / batches) if batches else 0.0,
            "largest_batch": largest,
            "pending": pending,
            "drainer_restarts": restarts,
        }

    # ------------------------------------------------------------- drainer

    def _everyone_pending(self) -> bool:
        """Whether every submitter that could still join is already queued."""
        bound = self._callers() if self._callers is not None else None
        return bound is not None and len(self._pending) >= bound

    def _collect(self) -> "list[_Pending] | None":
        """Wait for work, hold the window open, take up to ``max_batch``.

        Returns ``None`` when the queue is closed and fully drained — the
        drainer's exit signal.
        """
        with self._condition:
            while not self._pending and not self._closed:
                self._condition.wait()
            if not self._pending:
                return None  # closed and drained
            if self.max_wait_s > 0 and len(self._pending) < self.max_batch:
                deadline = time.monotonic() + self.max_wait_s
                while (len(self._pending) < self.max_batch
                       and not self._closed and not self._everyone_pending()):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._condition.wait(remaining)
            batch = self._pending[: self.max_batch]
            del self._pending[: self.max_batch]
            self._active = batch
            self._batches += 1
            self._batched_items += len(batch)
            self._largest_batch = max(self._largest_batch, len(batch))
        # Metric observation outside the lock: per-thread cells make it
        # cheap, and nothing below depends on queue state.
        now = time.monotonic()
        self._m_batches.inc()
        self._m_items.inc(len(batch))
        for pending in batch:
            self._m_wait.observe(max(0.0, now - pending.enqueued_at))
        return batch

    def _drain_guarded(self) -> None:
        """Run the drain loop under a watchdog.

        The per-batch handler below already contains processor failures, so
        the loop itself should never raise — but if it does (a bug, an
        injected fault, a ``MemoryError`` between statements), the queue must
        not silently wedge with submitters blocked forever.  The watchdog
        fails every pending item with a typed
        :class:`~repro.core.errors.DrainerError`, counts the death in
        ``stats()['drainer_restarts']``, and starts a fresh drainer so the
        queue keeps serving.
        """
        try:
            self._drain_forever()
        except BaseException as error:  # noqa: BLE001 — watchdog boundary
            self._on_drainer_death(error)

    def _on_drainer_death(self, error: BaseException) -> None:
        failure = DrainerError(
            f"the batch drainer died ({type(error).__name__}: {error}); "
            f"pending requests were failed and the drainer restarted")
        failure.__cause__ = error
        with self._condition:
            # The in-flight batch first (its items already left _pending; any
            # member whose event is set got its outcome before the death),
            # then everything still queued.
            doomed = [pending for pending in self._active
                      if not pending.event.is_set()]
            doomed.extend(self._pending)
            self._active = []
            self._pending = []
            self._restarts += 1
            self._m_restarts.inc()
            if not self._closed:
                self._drainer = threading.Thread(target=self._drain_guarded,
                                                 name=self._name, daemon=True)
                self._drainer.start()
        for pending in doomed:
            pending.outcome = failure
            pending.event.set()

    def _drain_forever(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            try:
                outcomes = self._process_batch([p.item for p in batch])
                if len(outcomes) != len(batch):
                    raise InvalidParameterError(
                        f"process_batch returned {len(outcomes)} outcomes "
                        f"for {len(batch)} items")
            except BaseException as error:  # noqa: BLE001 — delivered to submitters
                for pending in batch:
                    pending.outcome = error
                    pending.event.set()
                continue
            for pending, outcome in zip(batch, outcomes):
                pending.outcome = outcome
                pending.event.set()
