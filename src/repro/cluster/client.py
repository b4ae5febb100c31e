"""HTTP client for one shard worker: the remote half of the scatter.

:class:`RemoteShardClient` speaks the worker-mode RPC routes of
:mod:`repro.serve` (``/{index}/shard_knn``, ``shard_knn_batch``,
``shard_probe``) over plain ``http.client``, on one persistent keep-alive
connection per shard.  A call takes the idle connection, or dials a fresh
one when it is in use or the worker's endpoint changed (a restarted worker
is a new process on a new ephemeral port, so the next call simply resolves
the new endpoint).  The connection goes back to the idle slot only after a
complete response the worker did not mark ``Connection: close``; any
transport error closes it and surfaces as an ordinary failed attempt, so a
stale socket — a worker that died while the connection sat idle — costs
one retried attempt and nothing else.  :meth:`RemoteShardClient.close`
releases the idle connection.

:meth:`RemoteShardClient.answer` is
:func:`~repro.index.sharded.shard_answer` across that boundary: the worker
computes the tuple, the routes JSON-encode it, and the client decodes it
back, so the coordinator's scatter treats the shard like a local one.
Answers, not series, cross the wire: per query, the shard-local candidate
ids and their canonical distances², computed by the worker with the
coordinator's normalization.

Failure translation mirrors the in-process shard boundary:

* transport failures (refused, reset, timeout — what a ``kill -9``'d worker
  produces) raise as-is; the scatter's retry loop classifies them transient,
* a worker answering with a typed ``CorruptionError`` payload re-raises as
  :class:`~repro.core.errors.CorruptionError`, so the persistent-failure
  path (immediate quarantine, reload before readmission) fires exactly as it
  would in process,
* any other typed error payload, and an answer of the wrong shape, becomes
  a transient :class:`~repro.core.errors.ShardError` naming the shard.

Queries and distances travel as JSON numbers.  Python's ``repr`` emits the
shortest string that round-trips the float64 bit pattern and ``json`` parses
back to the same bits, so the coordinator ranks exactly the distances an
in-process shard would hand it.
"""

from __future__ import annotations

import json
import threading
from http.client import HTTPConnection

import numpy as np

from repro.core.errors import CorruptionError, ShardError
from repro.index.search import stats_from_payload

#: Socket-level slack on top of the engine's search budget: a worker that
#: answers exactly at its deadline still needs transport time to deliver.
_TRANSPORT_GRACE_S = 0.25

#: Socket timeout of a call that carries no search budget of its own.
_DEFAULT_TIMEOUT_S = 30.0

#: Budget of the readmission probe's shard-local 1-NN.
_PROBE_TIMEOUT_S = 2.0


class RemoteShardClient:
    """Per-shard RPC client; the engine-side of one cluster shard.

    ``supervisor`` is the :class:`~repro.cluster.supervisor.ShardSupervisor`
    that owns the shard's worker: its endpoint registry is consulted on
    every call, so a restarted worker is re-resolved without any
    coordination, and a passing :meth:`probe` is reported back to it.
    """

    def __init__(self, shard: int, supervisor) -> None:
        self.shard = int(shard)
        self._supervisor = supervisor
        # The idle keep-alive connection and the endpoint it was dialled to.
        self._idle: "tuple[tuple[str, int], HTTPConnection] | None" = None
        self._idle_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------ transport

    def _connection(self, endpoint: "tuple[str, int]",
                    timeout_s: float) -> HTTPConnection:
        """The idle connection if it is dialled to ``endpoint``, else a new
        one; either way with ``timeout_s`` as its socket timeout."""
        with self._idle_lock:
            idle, self._idle = self._idle, None
        if idle is not None:
            idle_endpoint, connection = idle
            if idle_endpoint == endpoint:
                connection.sock.settimeout(timeout_s)
                return connection
            connection.close()
        return HTTPConnection(*endpoint, timeout=timeout_s)

    def _release(self, endpoint: "tuple[str, int]",
                 connection: HTTPConnection) -> None:
        """Park a connection that just finished a complete response."""
        with self._idle_lock:
            if self._idle is None and not self._closed:
                self._idle = (endpoint, connection)
                return
        connection.close()

    def _rpc(self, action: str, body: dict,
             timeout_s: "float | None") -> dict:
        endpoint = self._supervisor.endpoint(self.shard)
        if endpoint is None:
            raise ShardError(
                f"shard {self.shard} has no live worker endpoint "
                f"(worker down or restarting)")
        if timeout_s is None:
            timeout_s = _DEFAULT_TIMEOUT_S
        connection = self._connection(endpoint,
                                      timeout_s + _TRANSPORT_GRACE_S)
        try:
            connection.request(
                "POST", f"/{self._supervisor.index_name}/{action}",
                body=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            raw = response.read()
        except BaseException:
            connection.close()
            raise
        status = response.status
        if response.will_close:
            connection.close()
        else:
            self._release(endpoint, connection)
        try:
            payload = json.loads(raw) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ShardError(
                f"shard {self.shard} worker sent an unparseable response "
                f"({error})") from None
        if status == 200:
            return payload
        error = payload.get("error", {}) if isinstance(payload, dict) else {}
        error_type = error.get("type", "HTTPError")
        message = error.get("message", f"HTTP {status}")
        if error_type == "CorruptionError":
            # Persistent: the worker's snapshot is damaged.  Re-raising the
            # same type routes the coordinator into immediate quarantine +
            # reload-before-readmission, exactly like an in-process shard.
            raise CorruptionError(
                f"shard {self.shard} worker: {message}")
        raise ShardError(
            f"shard {self.shard} worker answered {status} "
            f"({error_type}): {message}")

    def close(self) -> None:
        """Close the idle connection; later calls dial and close their own."""
        with self._idle_lock:
            self._closed = True
            idle, self._idle = self._idle, None
        if idle is not None:
            idle[1].close()

    # ----------------------------------------------------------------- RPCs

    def knn_once(self, query, k: int, timeout_s: "float | None") -> dict:
        """One scatter attempt: shard-local ids, squared, stats."""
        return self._rpc("shard_knn", {
            "query": [float(value) for value in query],
            "k": int(k),
            "timeout_s": timeout_s,
        }, timeout_s)

    def knn_batch_once(self, matrix, k: int,
                       timeout_s: "float | None") -> dict:
        """One batched scatter attempt over all queries at once."""
        return self._rpc("shard_knn_batch", {
            "queries": [[float(value) for value in row] for row in matrix],
            "k": int(k),
            "timeout_s": timeout_s,
        }, timeout_s)

    def answer(self, queries: np.ndarray, k: int,
               timeout_s: "float | None"):
        """:func:`~repro.index.sharded.shard_answer`, computed by the worker:
        ``shard_knn`` for one query, ``shard_knn_batch`` for a matrix."""
        if queries.ndim == 1:
            payload = self.knn_once(queries, k, timeout_s)
            entries, stats = [payload], [payload["stats"]]
        else:
            payload = self.knn_batch_once(queries, k, timeout_s)
            entries, stats = payload["results"], payload["stats"]
            if not len(entries) == len(stats) == queries.shape[0]:
                raise ShardError(
                    f"shard {self.shard} worker answered {len(entries)} "
                    f"results for {queries.shape[0]} queries")
        candidates = [self._candidates(entry, k) for entry in entries]
        ids = [rows for rows, _ in candidates]
        squared = [distances for _, distances in candidates]
        return (ids, squared, [stats_from_payload(entry) for entry in stats],
                int(payload["surviving"]))

    def _candidates(self, entry, k: int):
        """One query's ``(local ids, canonical distances²)``, shape-checked:
        equal lengths, at most ``k`` candidates."""
        try:
            rows = np.asarray(entry["ids"], dtype=np.int64)
            squared = np.asarray(entry["squared"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as error:
            raise ShardError(
                f"shard {self.shard} worker sent malformed candidates "
                f"({type(error).__name__}: {error})") from None
        if rows.ndim != 1 or squared.shape != rows.shape \
                or rows.shape[0] > k:
            raise ShardError(
                f"shard {self.shard} worker answered {rows.size} ids and "
                f"{squared.size} distances for k={k}")
        return rows, squared

    def probe(self) -> None:
        """The readmission probe: a real shard-local 1-NN on the worker.

        Success also resets the supervisor's crash-loop breaker and restart
        ladder (:meth:`~repro.cluster.supervisor.ShardSupervisor
        .note_recovered`): the shard has proven itself healthy, so the next
        failure starts a fresh escalation instead of inheriting stale
        history.
        """
        self._rpc("shard_probe", {}, _PROBE_TIMEOUT_S)
        self._supervisor.note_recovered(self.shard)
