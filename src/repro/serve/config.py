"""Serving-layer configuration: limits, batching window, bind address."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

from repro.core.errors import InvalidParameterError


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of one :class:`~repro.serve.app.SearchApp`.

    Parameters
    ----------
    host / port:
        Bind address of the HTTP layer (``port=0`` picks an ephemeral port —
        the default, so tests and examples never collide).
    max_k:
        Largest ``k`` a ``/knn`` request may ask for; beyond it the request
        is rejected with a typed 400 instead of letting one client monopolize
        the engine.
    max_timeout_s:
        Ceiling on the per-request ``timeout_s`` budget.  Requests asking for
        more are *clamped* (a longer budget only ever helps the caller, so
        clamping is safe); requests asking for none get ``default_timeout_s``.
    default_timeout_s:
        Budget applied when a ``/knn`` request carries no ``timeout_s``
        (``None`` = unbounded, the library default).
    batching:
        Coalesce concurrent ``/knn`` requests into shared
        :meth:`~repro.index.batch_search.BatchSearcher.knn_batch` calls
        through a :class:`~repro.parallel.batching.MicroBatchQueue`.
        Disabling it serves every request with a private per-query ``knn``
        call — the naive baseline the serving benchmark compares against.
    batch_max_size / batch_max_wait_s:
        Micro-batch window: largest coalesced batch, and the *cap* on how
        long the drainer holds the window open for stragglers after the
        first request arrives.  Behind an
        :class:`~repro.serve.routes.IndexServer` the window closes earlier,
        as soon as every open client connection has a ``/knn`` queued (no
        other request could join), so a lone client never waits for it.
    request_body_limit:
        Largest accepted HTTP request body, in bytes (oversized requests get
        a typed 400 rather than an allocation).
    max_pending:
        Load-shedding bound on each index's micro-batch backlog: when this
        many ``/knn`` requests are already queued, new ones are rejected with
        a typed 503 (:class:`~repro.core.errors.OverloadedError`, carrying a
        ``Retry-After`` header) instead of growing everyone's latency without
        limit.  ``None`` leaves the queue unbounded.
    retry_after_s:
        The ``Retry-After`` hint attached to shed (503) responses, in
        seconds.
    shutdown_drain_s:
        Graceful-shutdown budget: once the server starts draining (new
        requests get a typed 503), how long
        :meth:`~repro.serve.routes.IndexServer.stop` waits for in-flight
        requests (and the queued micro-batches behind them) to finish before
        closing the queues regardless.
    slow_query_s:
        Slow-query threshold: a ``/knn`` answer whose caller-observed wall
        time exceeds this many seconds is recorded in the structured
        slow-query log (one JSON line with the full span breakdown).
        ``None`` (default) disables the log.
    slow_query_log_path:
        Where slow-query JSON lines are appended.  ``None`` keeps them only
        in the in-memory ring (``SearchApp.slow_queries()``).
    tracing:
        Allow ``/knn`` requests to opt into per-query tracing
        (``"trace": true`` in the request body); disabling it makes the flag
        a no-op so a public deployment cannot be asked to pay the tracing
        cost.  Slow-query logging is independent of this switch.
    worker_mode:
        Serve as a *shard worker* of a process-per-shard cluster
        (:mod:`repro.cluster`): the shard RPC routes
        (``/{index}/shard_knn``, ``shard_knn_batch``, ``shard_probe``) are
        enabled and the public write routes are refused — shard-local writes
        would desync the coordinator's global id maps, so writes must go
        through the coordinator.  Off by default: a standalone server never
        exposes the shard-local RPC surface.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_k: int = 100
    max_timeout_s: float = 30.0
    default_timeout_s: "float | None" = None
    batching: bool = True
    batch_max_size: int = 64
    batch_max_wait_s: float = 0.002
    request_body_limit: int = field(default=16 * 1024 * 1024)
    max_pending: "int | None" = 256
    retry_after_s: float = 1.0
    shutdown_drain_s: float = 5.0
    slow_query_s: "float | None" = None
    slow_query_log_path: "str | None" = None
    tracing: bool = True
    worker_mode: bool = False

    def __post_init__(self) -> None:
        if self.max_k < 1:
            raise InvalidParameterError(f"max_k must be >= 1, got {self.max_k}")
        if not self.max_timeout_s > 0:
            raise InvalidParameterError(
                f"max_timeout_s must be positive, got {self.max_timeout_s}")
        if (self.default_timeout_s is not None
                and not self.default_timeout_s > 0):
            raise InvalidParameterError(
                f"default_timeout_s must be positive or None, "
                f"got {self.default_timeout_s}")
        if self.batch_max_size < 1:
            raise InvalidParameterError(
                f"batch_max_size must be >= 1, got {self.batch_max_size}")
        if self.batch_max_wait_s < 0:
            raise InvalidParameterError(
                f"batch_max_wait_s must be >= 0, got {self.batch_max_wait_s}")
        if self.request_body_limit < 1024:
            raise InvalidParameterError(
                f"request_body_limit must be >= 1024 bytes, "
                f"got {self.request_body_limit}")
        if self.max_pending is not None and self.max_pending < 1:
            raise InvalidParameterError(
                f"max_pending must be >= 1 (or None), got {self.max_pending}")
        if not self.retry_after_s > 0:
            raise InvalidParameterError(
                f"retry_after_s must be positive, got {self.retry_after_s}")
        if not self.shutdown_drain_s >= 0:
            raise InvalidParameterError(
                f"shutdown_drain_s must be >= 0, got {self.shutdown_drain_s}")
        if self.slow_query_s is not None and not self.slow_query_s > 0:
            raise InvalidParameterError(
                f"slow_query_s must be positive or None, "
                f"got {self.slow_query_s}")

    def clamp_timeout(self, timeout_s: "float | None") -> "float | None":
        """Resolve a request's budget: default when absent, ceiling applied.

        Malformed values (wrong type, non-positive) are passed through
        untouched so the engine's own validation raises the typed error the
        status map expects — the clamp never masks a 400 as a crash.
        """
        if timeout_s is None:
            timeout_s = self.default_timeout_s
        if timeout_s is None:
            return None
        if isinstance(timeout_s, bool) or not isinstance(timeout_s,
                                                         numbers.Real):
            return timeout_s
        if not timeout_s > 0:
            return timeout_s
        return min(float(timeout_s), self.max_timeout_s)
