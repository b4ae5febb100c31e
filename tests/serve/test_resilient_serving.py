"""Serving under partial failure and overload: degraded health, shedding,
graceful shutdown.

Covers the serving half of the sharded fault-tolerance contract:

* ``SearchApp.load_sharded`` serves a sharded directory; ``/healthz`` keeps
  its exact healthy shape until a shard quarantines, then flips to
  ``"degraded"`` (still 200) with per-shard states;
* ``/knn`` answers carry ``partial`` / ``coverage``; ``degraded="forbid"``
  surfaces as a typed 503;
* a full micro-batch backlog sheds requests with 503 + ``Retry-After``
  instead of queueing without bound;
* ``IndexServer.stop`` drains in-flight requests before closing the queues —
  clients that were already being served get their answers, not resets —
  and keeps the listener answering through the drain: ``/readyz`` says 503
  and new work gets a typed 503 until the last in-flight request is done.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.errors import CorruptionError
from repro.datasets.synthetic import random_walk
from repro.index.shard_health import HealthPolicy, RetryPolicy
from repro.index.sharded import ShardedIndex
from repro.index.sofa import SofaIndex
from repro.serve import IndexServer, SearchApp, ServeConfig

SERIES_LENGTH = 48


def _rows(count: int, seed: int) -> np.ndarray:
    return random_walk(count, SERIES_LENGTH, seed=seed)


@pytest.fixture(scope="module")
def shard_rows() -> np.ndarray:
    return _rows(120, seed=9901)


@pytest.fixture()
def sharded_dir(tmp_path, shard_rows):
    path = tmp_path / "shards"
    ShardedIndex.build(shard_rows, path, num_shards=4,
                       index_factory=lambda: SofaIndex(
                           word_length=8, alphabet_size=16, leaf_size=12),
                       health=HealthPolicy(auto_probe=False)).close()
    return path


def _post(url: str, path: str, payload: dict):
    """POST returning (status, payload, headers) — headers matter here."""
    request = urllib.request.Request(
        url + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), \
                dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _get(url: str, path: str):
    with urllib.request.urlopen(url + path, timeout=30) as response:
        return response.status, json.loads(response.read())


class TestShardedServing:
    @pytest.fixture()
    def served(self, sharded_dir):
        app = SearchApp(ServeConfig())
        entry = app.load_sharded(
            "shardy", sharded_dir,
            retry=RetryPolicy(max_attempts=1),
            health=HealthPolicy(auto_probe=False))
        with IndexServer(app) as server:
            yield server, entry
        entry.engine.close()

    def _quarantine(self, entry, shard: int) -> None:
        """Trip one shard's quarantine exactly as a corrupt load would."""
        engine = entry.engine
        with engine._shards[shard].lock:
            if engine._shards[shard].engine is not None:
                engine._shards[shard].engine.close()
            engine._shards[shard].engine = None
        engine._board.record_persistent(
            shard, CorruptionError("injected for the serving test"))

    def test_healthz_shape_is_stable_while_healthy(self, served):
        server, _entry = served
        assert _get(server.url, "/healthz")[1] == {"status": "ok",
                                                   "indexes": 1}

    def test_knn_payload_carries_coverage(self, served, shard_rows):
        server, _entry = served
        status, payload, _ = _post(server.url, "/shardy/knn",
                                   {"query": shard_rows[5].tolist(), "k": 3})
        assert status == 200
        assert payload["partial"] is False
        assert payload["coverage"] == 1.0
        assert payload["ids"][0] == 5

    def test_degraded_health_stats_and_indexes(self, served, shard_rows):
        server, entry = served
        self._quarantine(entry, 2)
        status, payload, _ = _post(server.url, "/shardy/knn",
                                   {"query": shard_rows[5].tolist(), "k": 3})
        assert status == 200
        assert payload["partial"] is True
        assert payload["coverage"] == pytest.approx(3 / 4)

        status, health = _get(server.url, "/healthz")
        assert status == 200  # degraded is alive, not dead
        assert health["status"] == "degraded"
        shard_states = health["shards"]["shardy"]
        assert shard_states["quarantined"] == 1
        assert shard_states["shards"][2]["state"] == "quarantined"

        _status, stats = _get(server.url, "/stats")
        search = stats["indexes"]["shardy"]["search"]
        assert search["partial_answers"] == 1
        assert search["coverage"] < 1.0
        assert stats["indexes"]["shardy"]["shards"]["quarantined"] == 1

        _status, listing = _get(server.url, "/indexes")
        (description,) = listing["indexes"]
        assert description["type"] == "sharded[sofa]x4"
        assert description["shards"]["quarantine_trips"] == 1

    def test_forbid_policy_is_a_typed_503(self, sharded_dir, shard_rows):
        app = SearchApp(ServeConfig())
        entry = app.load_sharded("strict", sharded_dir, degraded="forbid",
                                 retry=RetryPolicy(max_attempts=1),
                                 health=HealthPolicy(auto_probe=False))
        with IndexServer(app) as server:
            self._quarantine(entry, 0)
            status, payload, _ = _post(server.url, "/strict/knn",
                                       {"query": shard_rows[0].tolist()})
            assert status == 503
            assert payload["error"]["type"] == "PartialResultError"
        entry.engine.close()


class _SlowEngine:
    """Delay every batched call — enough to hold a backlog open."""

    def __init__(self, engine, delay_s: float) -> None:
        self._engine = engine
        self._delay_s = delay_s

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def knn_batch(self, *args, **kwargs):
        time.sleep(self._delay_s)
        return self._engine.knn_batch(*args, **kwargs)


class TestLoadShedding:
    def test_full_backlog_sheds_with_retry_after(self, make_index,
                                                 serve_rows, serve_queries):
        config = ServeConfig(batching=True, batch_max_size=1,
                             batch_max_wait_s=0.0, max_pending=1,
                             retry_after_s=2.0, shutdown_drain_s=10.0)
        app = SearchApp(config)
        app.add_index("slow", _SlowEngine(make_index(serve_rows),
                                          delay_s=0.25))
        with IndexServer(app) as server:
            query = serve_queries[0].tolist()
            responses: list = []
            lock = threading.Lock()

            def ask():
                outcome = _post(server.url, "/slow/knn", {"query": query})
                with lock:
                    responses.append(outcome)

            threads = [threading.Thread(target=ask) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)

            statuses = sorted(status for status, _, _ in responses)
            assert set(statuses) <= {200, 503}
            assert statuses.count(503) >= 1, "nothing was shed"
            assert statuses.count(200) >= 2, "shedding rejected everything"
            for status, payload, headers in responses:
                if status == 503:
                    assert payload["error"]["type"] == "OverloadedError"
                    assert headers.get("Retry-After") == "2"


class TestGracefulShutdown:
    def test_in_flight_requests_finish_before_close(self, make_index,
                                                    serve_rows,
                                                    serve_queries):
        """Concurrent requests racing a stop(): everyone already accepted is
        answered (200, exact ids), nobody gets a dropped connection, and the
        server refuses connections afterwards."""
        config = ServeConfig(batching=True, batch_max_size=8,
                             batch_max_wait_s=0.0, shutdown_drain_s=10.0)
        app = SearchApp(config)
        engine = make_index(serve_rows)
        app.add_index("slow", _SlowEngine(engine, delay_s=0.3))
        server = IndexServer(app).start()
        url, port = server.url, server.port
        expected = engine.knn(serve_queries[0], k=2)

        outcomes: list = []
        lock = threading.Lock()
        started = threading.Barrier(5)

        def ask():
            started.wait(10)
            try:
                outcome = _post(url, "/slow/knn",
                                {"query": serve_queries[0].tolist(), "k": 2})
            except Exception as error:  # noqa: BLE001 - captured
                outcome = error
            with lock:
                outcomes.append(outcome)

        threads = [threading.Thread(target=ask) for _ in range(4)]
        for thread in threads:
            thread.start()
        started.wait(10)
        # The drain contract covers *accepted* requests (a connection still
        # in the kernel's accept queue may legitimately be reset), so wait
        # until all four are actually in flight before pulling the plug —
        # the engine delay holds them there well past this point.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and server._httpd.in_flight < 4:
            time.sleep(0.001)
        assert server._httpd.in_flight == 4
        server.stop()
        for thread in threads:
            thread.join(30)

        assert len(outcomes) == 4
        for outcome in outcomes:
            assert not isinstance(outcome, Exception), (
                f"an in-flight request was dropped: {outcome!r}")
            status, payload, _ = outcome
            assert status == 200
            assert payload["ids"] == [int(r) for r in expected.indices]

        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=2).close()

    def test_draining_server_answers_until_idle(self, make_index, serve_rows,
                                                serve_queries, make_client):
        """While one request drains, the listener still answers: /readyz is
        503 (alive, not ready) and new work is a typed 503."""
        app = SearchApp(ServeConfig(batch_max_wait_s=0.0,
                                    shutdown_drain_s=10.0))
        engine = make_index(serve_rows)
        app.add_index("slow", _SlowEngine(engine, delay_s=0.5))
        server = IndexServer(app).start()
        url, port = server.url, server.port
        http = make_client(url)
        query = serve_queries[0].tolist()
        outcome: dict = {}
        asker = threading.Thread(target=lambda: outcome.update(
            first=_post(url, "/slow/knn", {"query": query, "k": 2})))
        asker.start()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and server._httpd.in_flight < 1:
            time.sleep(0.001)
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        try:
            while not server._httpd.draining:
                time.sleep(0.001)
            status, payload = http.get("/readyz")
            assert status == 503
            assert "the server is draining" in payload["reasons"]
            status, payload = http.post("/slow/knn", {"query": query})
            assert status == 503
            assert payload["error"]["type"] == "ShutdownError"
        finally:
            asker.join(30)
            stopper.join(30)
        status, payload, _ = outcome["first"]
        assert status == 200
        assert payload["ids"] == [
            int(row) for row in engine.knn(serve_queries[0], k=2).indices]
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=2).close()

    def test_stop_is_idempotent_and_fast_when_idle(self, make_index,
                                                   serve_rows):
        app = SearchApp(ServeConfig(shutdown_drain_s=5.0))
        app.add_index("idx", make_index(serve_rows))
        server = IndexServer(app).start()
        started = time.monotonic()
        server.stop()
        server.stop()
        # No drain budget burnt, and no acceptor poll interval (0.5 s) either.
        assert time.monotonic() - started < 0.25, (
            "an idle stop must return at once")
