"""Serving throughput — micro-batched vs naive per-request ``/knn``.

Not a paper table: this benchmark guards the serving layer's reason to exist.
On a flat-path index such as this SIFT1b one, a batch shares one GEMM
estimate, but a server answers each client on its own thread — the sharing
survives the HTTP boundary only if concurrent requests are coalesced back
into batches (:class:`repro.serve.batching.KnnBatcher`).  The same request storm is fired
at two servers over real sockets:

* **batched** — ``ServeConfig(batching=True)``: requests coalesce into shared
  ``knn_batch`` calls;
* **naive** — ``ServeConfig(batching=False)``: every request pays a private
  per-query ``knn`` call, the baseline any framework-of-the-week would ship.

At the default benchmark scale the batched endpoint must sustain at least
2x the naive QPS (reduced smoke runs use a looser regression bound).  Both
servers must answer bit-identically to the engine, and a tiny-``timeout_s``
request must come back as a well-formed 200 with ``timed_out: true`` — the
degraded-answer contract, never an untyped 500.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import numpy as np

from common import available_cores, bench_leaf_size, bench_num_series, report

from repro.datasets.registry import load_dataset
from repro.evaluation.reporting import format_table
from repro.index.sofa import SofaIndex
from repro.serve import IndexServer, SearchApp, ServeConfig

K = 10
NUM_QUERIES = 64
REPEATS = 3

#: Required batched/naive serving QPS ratio at the default benchmark scale.
FULL_SCALE_SPEEDUP = 2.0
#: Scale at which the full speedup requirement applies; reduced smoke runs
#: only guard against the batching path being an outright regression.
FULL_SCALE_SERIES = 4000
SMOKE_SPEEDUP = 1.1


def _storm(host: str, port: int, bodies: "list[bytes]", num_clients: int,
           requests_per_client: int) -> "tuple[float, list]":
    """Fire the request storm from persistent connections; return (QPS, errors)."""
    errors: list = []
    barrier = threading.Barrier(num_clients + 1)

    def client(worker: int) -> None:
        connection = http.client.HTTPConnection(host, port, timeout=60)
        barrier.wait()
        try:
            for request_index in range(requests_per_client):
                body = bodies[(worker + request_index) % len(bodies)]
                connection.request(
                    "POST", "/bench/knn", body,
                    {"Content-Type": "application/json"})
                response = connection.getresponse()
                payload = response.read()
                if response.status != 200:
                    errors.append((response.status, payload[:200]))
                    return
        except OSError as error:  # pragma: no cover - diagnostics only
            errors.append(("connection", repr(error)))
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(worker,))
               for worker in range(num_clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return (num_clients * requests_per_client) / elapsed, errors


def _serve_and_measure(index: SofaIndex, batching: bool, bodies: "list[bytes]",
                       num_clients: int, requests_per_client: int) -> float:
    app = SearchApp(ServeConfig(max_k=K, batching=batching))
    app.add_index("bench", index)
    with IndexServer(app) as server:
        # Warm the path (connection setup, first-batch laziness) off the clock.
        qps, errors = _storm(server.host, server.port, bodies[:4],
                             min(2, num_clients), 2)
        assert not errors, errors[:3]
        samples = []
        for _ in range(REPEATS):
            qps, errors = _storm(server.host, server.port, bodies,
                                 num_clients, requests_per_client)
            assert not errors, errors[:3]
            samples.append(qps)
    return float(np.median(samples))


def test_serve_qps(benchmark):
    num_series = bench_num_series()
    dataset = load_dataset("SIFT1b", num_series=num_series + NUM_QUERIES,
                           seed=700)
    index_set, queries = dataset.split(NUM_QUERIES,
                                       rng=np.random.default_rng(7))
    index = SofaIndex(leaf_size=bench_leaf_size()).build(index_set)

    bodies = [json.dumps({"query": query.tolist(), "k": K}).encode()
              for query in queries.values]
    num_clients = max(4, min(12, available_cores()))
    requests_per_client = max(16, 256 // num_clients)

    # ---- correctness first: served answers are the engine's answers.
    app = SearchApp(ServeConfig(max_k=K, batching=True))
    app.add_index("bench", index)
    with IndexServer(app) as server:
        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=60)
        for query, body in zip(queries.values[:8], bodies[:8]):
            connection.request("POST", "/bench/knn", body,
                               {"Content-Type": "application/json"})
            response = connection.getresponse()
            answer = json.loads(response.read())
            assert response.status == 200
            expected = index.knn(query, k=K)
            assert answer["ids"] == [int(row) for row in expected.indices]
            assert answer["distances"] == [float(d) for d in expected.distances]
        # The degraded-answer contract: an expired budget is a well-formed
        # 200 with timed_out=true, never an untyped 500.
        tiny = json.dumps({"query": queries.values[0].tolist(), "k": K,
                           "timeout_s": 1e-9}).encode()
        connection.request("POST", "/bench/knn", tiny,
                           {"Content-Type": "application/json"})
        response = connection.getresponse()
        degraded = json.loads(response.read())
        assert response.status == 200
        assert degraded["timed_out"] is True
        connection.close()

    # ---- throughput: the same storm against both serving modes.
    naive_qps = _serve_and_measure(index, False, bodies, num_clients,
                                   requests_per_client)
    batched_qps = _serve_and_measure(index, True, bodies, num_clients,
                                     requests_per_client)
    speedup = batched_qps / naive_qps

    report(f"Serving QPS: micro-batched vs naive per-request /knn "
           f"(k={K}, {num_series} series, {num_clients} clients)",
           format_table(
               ["mode", "QPS", "speedup"],
               [["naive per-request", naive_qps, 1.0],
                ["micro-batched", batched_qps, speedup]],
               float_format="{:.1f}"))

    required = (FULL_SCALE_SPEEDUP if num_series >= FULL_SCALE_SERIES
                else SMOKE_SPEEDUP)
    assert speedup >= required, (
        f"micro-batched serving reached only {speedup:.2f}x the naive QPS "
        f"(required {required}x at {num_series} series)")
