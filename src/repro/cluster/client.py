"""HTTP client for one shard worker: the remote half of the scatter.

:class:`RemoteShardClient` speaks the worker-mode RPC routes of
:mod:`repro.serve` (``/{index}/shard_knn``, ``shard_knn_batch``,
``shard_probe``) over plain ``http.client`` — one short-lived
connection per call, so a worker restart (new process, new ephemeral port)
needs no connection-state repair: the next call simply resolves the new
endpoint.  :meth:`RemoteShardClient.answer` is
:func:`~repro.index.sharded.shard_answer` across that boundary: the worker
computes the tuple, the routes JSON-encode it, and the client decodes it
back, so the coordinator's scatter treats the shard like a local one.

Failure translation mirrors the in-process shard boundary:

* transport failures (refused, reset, timeout — what a ``kill -9``'d worker
  produces) raise as-is; the scatter's retry loop classifies them transient,
* a worker answering with a typed ``CorruptionError`` payload re-raises as
  :class:`~repro.core.errors.CorruptionError`, so the persistent-failure
  path (immediate quarantine, reload before readmission) fires exactly as it
  would in process,
* any other typed error payload becomes a transient
  :class:`~repro.core.errors.ShardError` naming the shard and the worker's
  verdict.

Queries and values travel as JSON numbers.  Python's ``repr`` emits the
shortest string that round-trips the float64 bit pattern and ``json`` parses
back to the same bits, so the coordinator's canonical merge over
RPC-returned values is bit-identical to the in-process merge.
"""

from __future__ import annotations

import json
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

    # ------------------------------------------------------------ transport

    def _rpc(self, action: str, body: dict,
             timeout_s: "float | None") -> dict:
        endpoint = self._supervisor.endpoint(self.shard)
        if endpoint is None:
            raise ShardError(
                f"shard {self.shard} has no live worker endpoint "
                f"(worker down or restarting)")
        host, port = endpoint
        if timeout_s is None:
            timeout_s = _DEFAULT_TIMEOUT_S
        connection = HTTPConnection(host, port,
                                    timeout=timeout_s + _TRANSPORT_GRACE_S)
        try:
            connection.request(
                "POST", f"/{self._supervisor.index_name}/{action}",
                body=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            raw = response.read()
            status = response.status
        finally:
            connection.close()
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

    # ----------------------------------------------------------------- RPCs

    def knn_once(self, query, k: int, timeout_s: "float | None",
                 threshold: "float | None") -> dict:
        """One scatter attempt: shard-local ids, values, squared, stats."""
        return self._rpc("shard_knn", {
            "query": [float(value) for value in query],
            "k": int(k),
            "timeout_s": timeout_s,
            "threshold": threshold,
        }, timeout_s)

    def knn_batch_once(self, matrix, k: int,
                       timeout_s: "float | None") -> dict:
        """One batched scatter attempt over all queries at once."""
        return self._rpc("shard_knn_batch", {
            "queries": [[float(value) for value in row] for row in matrix],
            "k": int(k),
            "timeout_s": timeout_s,
        }, timeout_s)

    def answer(self, queries: np.ndarray, k: int, timeout_s: "float | None",
               best=None):
        """:func:`~repro.index.sharded.shard_answer`, computed by the worker.

        The worker cannot share ``best`` (the attempt's
        :class:`~repro.index.search.BestSoFar`), so its threshold travels by
        value — a frozen floor for the whole search, ``None`` while still
        infinite — and the decoded candidates are offered back to it, so
        shards that answer later, and retries, start from a tighter bound.
        """
        single = queries.ndim == 1
        if single:
            floor = np.inf if best is None else float(best.threshold)
            payload = self.knn_once(queries, k, timeout_s,
                                    floor if np.isfinite(floor) else None)
            entries, stats = [payload], [payload["stats"]]
        else:
            payload = self.knn_batch_once(queries, k, timeout_s)
            entries, stats = payload["results"], payload["stats"]
            if not len(entries) == len(stats) == queries.shape[0]:
                raise ShardError(
                    f"shard {self.shard} worker answered {len(entries)} "
                    f"results for {queries.shape[0]} queries")
        ids = [np.asarray(entry["ids"], dtype=np.int64) for entry in entries]
        values = [np.asarray(entry["values"], dtype=np.float64).reshape(
            rows.shape[0], queries.shape[-1])
            for entry, rows in zip(entries, ids)]
        if single and best is not None:
            best.offer_block(
                np.asarray(payload["squared"], dtype=np.float64), ids[0])
        return (ids, values, [stats_from_payload(entry) for entry in stats],
                int(payload["surviving"]))

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
