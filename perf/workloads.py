"""The four benchmark workloads.

Every workload is a closed loop: a caller issues its next operation only
after the previous reply arrived.  A run is a sequence of **rounds**.  A round
sets the system up from the generated arrays (timed: one ``setup_s`` sample),
replays one fixed, seeded operation list against it (timed: the latency
samples), tears it down and checks every answer against the oracle (off the
clock).  Because a round always starts from the same state and replays the
same list, the work counters of a round repeat exactly however many rounds
fit into ``--seconds``.

Sizes are chosen so that one round takes one to four seconds on the two-core
reference machine and the 10 s budget does not end right at a round boundary
(the number of rounds should not flip from run to run); ``--scale smoke``
shrinks them for the self-tests.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection
from pathlib import Path

import numpy as np

from repro import (
    DynamicIndex,
    MessiIndex,
    SerialScan,
    ShardedIndex,
    SofaIndex,
    load_dataset,
    split_queries,
)
from repro.cluster import ClusterIndex
from repro.obs import get_registry
from repro.serve import IndexServer, SearchApp, ServeConfig

from perf import oracle
from perf.harness import (
    directory_bytes,
    process_peak_rss_mb,
    timed_section,
)

K = 10
LEAF_SIZE = 100
_JSON_HEADERS = {"Content-Type": "application/json"}


@dataclass
class RoundResult:
    """What one timed round observed (verification happens afterwards)."""

    wall_s: float
    read_latencies: "list[float]"
    #: One ``(tag, ids, distances, flags_ok)`` per answered read; ``tag``
    #: indexes the workload's expectations.
    answers: list
    #: Operations issued, reads and writes.
    attempted: int = 0
    write_latencies: "list[float]" = field(default_factory=list)
    #: Operations that raised or were refused (non-200) during the round.
    errors: int = 0
    #: Engine work done by the round's reads (``SearchStats`` sums).
    work: dict = field(default_factory=dict)
    #: Round-level facts for the per-layer report.
    facts: dict = field(default_factory=dict)
    #: ``(request body, response body)`` of every read, for codec timing.
    wire: list = field(default_factory=list)


def _generate(name: str, num_series: int, num_queries: int, seed: int):
    dataset = load_dataset(name, num_series=num_series + num_queries,
                           seed=seed)
    index_set, queries = split_queries(dataset, num_queries=num_queries,
                                       seed=seed)
    return (np.ascontiguousarray(index_set.values),
            np.ascontiguousarray(queries.values))


def _work_of(stats_list) -> dict:
    return {
        "queries": len(stats_list),
        "series_served": sum(s.num_series for s in stats_list),
        "series_lower_bounds": sum(s.series_lower_bounds for s in stats_list),
        "exact_distances": sum(s.exact_distances for s in stats_list),
        "leaves_visited": sum(s.leaves_visited for s in stats_list),
        "approximate_s": sum(s.approximate_time for s in stats_list),
        "traversal_s": sum(s.traversal_time for s in stats_list),
    }


def _work_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key]
            for key in ("queries", "series_served", "series_lower_bounds",
                        "exact_distances", "leaves_visited")}


def _registry_total(name: str) -> float:
    """Sum of one metric family of the program's own registry."""
    for family in get_registry().families():
        if family.name == name:
            return float(sum(child.value()
                             for child in family.children().values()))
    return 0.0


class _Client:
    """One keep-alive HTTP connection issuing pre-encoded JSON requests."""

    def __init__(self, host: str, port: int) -> None:
        self._connection = HTTPConnection(host, port, timeout=60.0)
        self._connection.connect()

    def post(self, path: str, body: bytes) -> "tuple[float, int, bytes]":
        start = time.perf_counter()
        self._connection.request("POST", path, body=body,
                                 headers=_JSON_HEADERS)
        response = self._connection.getresponse()
        raw = response.read()
        return time.perf_counter() - start, response.status, raw

    def close(self) -> None:
        self._connection.close()


def _knn_body(query: np.ndarray) -> bytes:
    return json.dumps({"query": [float(v) for v in query],
                       "k": K}).encode("utf-8")


def _decode_answer(raw: bytes):
    payload = json.loads(raw)
    flags_ok = (not payload.get("timed_out", False)
                and not payload.get("partial", False))
    return (np.asarray(payload["ids"], dtype=np.int64),
            np.asarray(payload["distances"], dtype=np.float64), flags_ok)


# ---- engine_single_hf ------------------------------------------------------

class EngineSingleHF:
    """``SofaIndex.knn`` one query at a time on high-frequency data."""

    name = "engine_single_hf"
    why = ("the paper's headline case: one in-process caller, high-frequency "
           "data, ~99.9% pruned; time sits in SFA transform, tree traversal, "
           "lower-bound kernel and per-query Python overhead")
    callers = 1
    weighted = False
    dataset = "LenDB"
    sizes = {"full": (25_000, 440), "smoke": (3_000, 32)}

    def generate(self, seed: int, scale: str) -> dict:
        values, queries = _generate(self.dataset, *self.sizes[scale], seed)
        return {"values": values, "queries": queries,
                "order": list(range(len(queries)))}

    def expectations(self, inputs: dict):
        from repro.core.normalization import znormalize_batch

        return list(zip(*oracle.brute_force_knn(
            znormalize_batch(inputs["values"]), inputs["queries"], K)))

    def setup(self, inputs: dict, workdir: Path):
        index = SofaIndex(leaf_size=LEAF_SIZE).build(inputs["values"])
        for query in inputs["queries"][:8]:
            index.knn(query, k=K)
        return index

    def run_round(self, index, inputs: dict) -> RoundResult:
        queries = inputs["queries"]
        latencies, results = [], []
        with timed_section():
            wall_start = time.perf_counter()
            for position in inputs["order"]:
                start = time.perf_counter()
                result = index.knn(queries[position], k=K)
                latencies.append(time.perf_counter() - start)
                results.append(result)
            wall = time.perf_counter() - wall_start
        stats = [result.stats for result in results]
        return RoundResult(
            wall_s=wall, read_latencies=latencies,
            attempted=len(inputs["order"]),
            answers=[(position, result.indices, result.distances,
                      not result.stats.timed_out)
                     for position, result in zip(inputs["order"], results)],
            work=_work_of(stats),
            facts={"num_leaves": len(index.tree.leaf_nodes)})

    def teardown(self, index, inputs: dict, result) -> None:
        pass

    def paper_fidelity(self, inputs: dict) -> dict:
        """Pruning, TLB and speed-ups vs MESSI and a scan, on 64 queries."""
        from repro.core.lower_bounds import tightness_of_lower_bound
        from repro.core.normalization import znormalize, znormalize_batch

        queries = inputs["queries"][:64]
        sofa = SofaIndex(leaf_size=LEAF_SIZE).build(inputs["values"])
        messi = MessiIndex(leaf_size=LEAF_SIZE).build(inputs["values"])
        scan = SerialScan().build(inputs["values"])

        def median_latency(call) -> float:
            call(queries[0])
            samples = []
            for query in queries:
                start = time.perf_counter()
                call(query)
                samples.append(time.perf_counter() - start)
            return float(np.median(samples))

        sofa_results = [sofa.knn(query, k=K) for query in queries]
        sofa_p50 = median_latency(lambda q: sofa.knn(q, k=K))
        messi_p50 = median_latency(lambda q: messi.knn(q, k=K))
        scan_p50 = median_latency(lambda q: scan.knn(q, k=K))
        # TLB of the SFA lower bound against a fixed sample of indexed series.
        sample = znormalize_batch(inputs["values"][:2000])
        summarization = sofa.summarization
        words = summarization.words(sample)
        lower, true = [], []
        for query in queries[:16]:
            normalized = znormalize(query)
            summary = summarization.transform(normalized)
            lower.append(np.sqrt(summarization.mindist_batch(summary, words)))
            difference = sample - normalized
            true.append(np.sqrt(np.einsum("ij,ij->i", difference,
                                          difference)))
        return {
            "paper.pruning_ratio": float(np.mean(
                [r.stats.pruning_ratio for r in sofa_results])),
            "paper.tlb": float(tightness_of_lower_bound(
                np.concatenate(lower), np.concatenate(true))),
            "paper.speedup_vs_messi": messi_p50 / sofa_p50,
            "paper.speedup_vs_scan": scan_p50 / sofa_p50,
        }


# ---- engine_batch_vec ------------------------------------------------------

class EngineBatchVec(EngineSingleHF):
    """``SofaIndex.knn_batch`` on vector-like data with a loose bound."""

    name = "engine_batch_vec"
    why = ("the same search core through the batch engine on vector-like "
           "data the bound prunes poorly (~95%): multi-query lower-bound "
           "kernel, candidate ordering and refinement dominate")
    dataset = "SIFT1b"
    batch = 16
    sizes = {"full": (10_000, 704), "smoke": (2_000, 32)}

    def setup(self, inputs: dict, workdir: Path):
        index = SofaIndex(leaf_size=LEAF_SIZE).build(inputs["values"])
        index.knn_batch(inputs["queries"][:self.batch], k=K)
        return index

    def run_round(self, index, inputs: dict) -> RoundResult:
        queries = inputs["queries"]
        order = inputs["order"]
        batches = [order[start:start + self.batch]
                   for start in range(0, len(order), self.batch)]
        latencies, results = [], []
        with timed_section():
            wall_start = time.perf_counter()
            for positions in batches:
                block = queries[positions]
                start = time.perf_counter()
                answers = index.knn_batch(block, k=K)
                latencies.append(time.perf_counter() - start)
                results.extend(answers)
            wall = time.perf_counter() - wall_start
        stats = [result.stats for result in results]
        return RoundResult(
            wall_s=wall, read_latencies=latencies, attempted=len(order),
            answers=[(position, result.indices, result.distances,
                      not result.stats.timed_out)
                     for position, result in zip(order, results)],
            work=_work_of(stats),
            facts={"num_leaves": len(index.tree.leaf_nodes)})

    paper_fidelity = None


# ---- cluster_knn -----------------------------------------------------------

class _ClusterState:
    def __init__(self) -> None:
        self.cluster = None
        self.app = None
        self.server = None
        self.entry = None
        self.clients: "list[_Client]" = []
        self.path: "Path | None" = None


class ClusterKnn:
    """``POST /knn`` through the front door into a 2-worker cluster."""

    name = "cluster_knn"
    why = ("end to end: HTTP front door, micro-batcher, scatter to 2 worker "
           "processes over RPC, merge; the engine is a small part of the "
           "request, JSON codec and per-attempt connections are the rest")
    callers = 2
    weighted = True
    dataset = "Astro"
    index_name = "astro"
    sizes = {"full": (20_000, 320), "smoke": (2_000, 32)}

    def generate(self, seed: int, scale: str) -> dict:
        values, queries = _generate(self.dataset, *self.sizes[scale], seed)
        return {"values": values, "queries": queries,
                "order": list(range(len(queries))),
                "bodies": [_knn_body(query) for query in queries]}

    def expectations(self, inputs: dict):
        from repro.core.normalization import znormalize_batch

        return list(zip(*oracle.brute_force_knn(
            znormalize_batch(inputs["values"]), inputs["queries"], K)))

    def setup(self, inputs: dict, workdir: Path) -> _ClusterState:
        state = _ClusterState()
        state.path = workdir / "sharded"
        try:
            ShardedIndex.build(inputs["values"], state.path,
                               num_shards=2).close()
            state.cluster = ClusterIndex.launch(state.path)
            state.app = SearchApp(ServeConfig())
            state.entry = state.app.add_index(self.index_name, state.cluster)
            state.server = IndexServer(state.app).start()
            path = f"/{self.index_name}/knn"
            for _ in range(self.callers):
                client = _Client(state.server.host, state.server.port)
                state.clients.append(client)
                for body in inputs["bodies"][:4]:
                    client.post(path, body)
        except BaseException:
            self._close(state)
            raise
        return state

    def run_round(self, state: _ClusterState, inputs: dict) -> RoundResult:
        path = f"/{self.index_name}/knn"
        bodies = inputs["bodies"]
        order = inputs["order"]
        shares = [order[caller::self.callers]
                  for caller in range(self.callers)]
        records = [[] for _ in shares]
        barrier = threading.Barrier(self.callers + 1)

        def caller(client: _Client, positions, out) -> None:
            barrier.wait()
            for position in positions:
                body = bodies[position]
                try:
                    out.append((position, body) + client.post(path, body))
                except OSError as error:
                    out.append((position, body, 0.0, 599,
                                repr(error).encode()))

        threads = [threading.Thread(target=caller, args=args, daemon=True)
                   for args in zip(state.clients, shares, records)]
        before = state.entry.search_stats.report()
        batching_before = state.entry.batcher.stats
        retries_before = _registry_total("repro_shard_retries_total")
        for thread in threads:
            thread.start()
        with timed_section():
            barrier.wait()
            wall_start = time.perf_counter()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - wall_start
        after = state.entry.search_stats.report()
        batching_after = state.entry.batcher.stats
        return _served_result(
            wall, [record for out in records for record in out], len(order),
            work=_work_delta(before, after),
            facts={
                "batches": batching_after["batches"]
                - batching_before["batches"],
                "batched_queries": batching_after["batched_queries"]
                - batching_before["batched_queries"],
                "coverage": after["coverage"],
                "restarts": sum(state.cluster.supervisor.restart_count(shard)
                                for shard in range(2)),
                "worker_rss_mb": sum(
                    process_peak_rss_mb(worker["pid"])
                    for worker in state.cluster.supervisor.report()
                    if worker["pid"] is not None),
                "retries": _registry_total("repro_shard_retries_total")
                - retries_before,
                "snapshot_bytes": directory_bytes(state.path),
                "user_bytes": inputs["values"].nbytes,
            })

    def teardown(self, state: _ClusterState, inputs: dict, result) -> None:
        self._close(state)

    @staticmethod
    def _close(state: _ClusterState) -> None:
        """Release clients, server and the worker fleet, whatever failed."""
        try:
            for client in state.clients:
                client.close()
        finally:
            try:
                _stop_serving(state)
            finally:
                if state.cluster is not None:
                    state.cluster.close()

    paper_fidelity = None


def _stop_serving(state) -> None:
    """Drain the HTTP server (which closes the app), or just the app's
    batchers when the server never came up."""
    if state.server is not None:
        state.server.stop()
    elif state.app is not None:
        state.app.close()


def _served_result(wall: float, reads: list, attempted: int, work: dict,
                   facts: dict) -> RoundResult:
    """Fold ``(tag, request body, latency, status, raw)`` read records."""
    latencies, answers, wire, errors = [], [], [], 0
    for tag, body, latency, status, raw in reads:
        if status != 200:
            errors += 1
            continue
        latencies.append(latency)
        answers.append((tag,) + _decode_answer(raw))
        wire.append((body, raw))
    return RoundResult(wall_s=wall, read_latencies=latencies, answers=answers,
                       attempted=attempted, errors=errors, work=work,
                       facts=facts, wire=wire)


# ---- serve_ingest_rw -------------------------------------------------------

class _IngestState:
    def __init__(self) -> None:
        self.app = None
        self.server = None
        self.entry = None
        self.engine = None
        self.client: "_Client | None" = None
        self.snapshot: "Path | None" = None
        self.wal: "Path | None" = None
        self.wal_bytes_before = 0.0
        self.wal_syncs_before = 0.0


class ServeIngestRW:
    """Writes beside reads on a WAL-backed ``DynamicIndex`` behind HTTP."""

    name = "serve_ingest_rw"
    why = ("writes beside reads over one connection: delta-fused search, "
           "tombstones, compaction, WAL and recovery, with a growing delta; "
           "a read gain bought with a slower write path shows here")
    callers = 1
    weighted = True
    dataset = "SCEDC"
    index_name = "rw"
    #: (base rows, queries, ops per round, compact at, delete every)
    sizes = {"full": (20_000, 256, 900, (360, 720), 100),
             "smoke": (2_000, 32, 100, (40, 80), 20)}

    def generate(self, seed: int, scale: str) -> dict:
        num_base, num_queries, num_ops, compact_at, delete_every = \
            self.sizes[scale]
        values, queries = _generate(self.dataset, num_base + num_ops,
                                    num_queries, seed)
        base, pool = values[:num_base], values[num_base:]
        rng = np.random.default_rng(seed)
        model = oracle.RowModel(base)
        script, expected = [], []
        inserted = reads = deletes = 0
        last_inserted = None
        for op in range(num_ops):
            if op in compact_at:
                model.compact()
                last_inserted = None
                script.append(("compact", b"{}", None))
            elif op % delete_every == delete_every // 2:
                # Alternate a base tombstone with a delta tombstone.
                if deletes % 2 and last_inserted is not None:
                    victim, last_inserted = last_inserted, None
                else:
                    victim = int(rng.choice(model.alive_ids()))
                model.delete(victim)
                deletes += 1
                script.append(("delete",
                               json.dumps({"row": victim}).encode(), None))
            elif op % 5 == 4:
                query = queries[reads % num_queries]
                expected.append(model.knn(query, K))
                script.append(("knn", _knn_body(query), reads))
                reads += 1
            else:
                series = pool[inserted]
                inserted += 1
                last_inserted = model.insert(series)
                script.append(("insert", json.dumps(
                    {"series": [float(v) for v in series]}).encode(),
                    last_inserted))
        probes = queries[:16]
        return {
            "base": base, "script": script, "expected": expected,
            "inserted_bytes": inserted * values.shape[1] * 8,
            "final_surviving": model.num_surviving,
            "final_probes": probes,
            "final_expected": [model.knn(query, K) for query in probes],
        }

    def expectations(self, inputs: dict):
        return inputs["expected"]

    def setup(self, inputs: dict, workdir: Path) -> _IngestState:
        state = _IngestState()
        state.snapshot = workdir / "snapshot"
        state.wal = workdir / "wal"
        try:
            SofaIndex(leaf_size=LEAF_SIZE).build(inputs["base"]).save(
                state.snapshot)
            state.app = SearchApp(ServeConfig())
            state.entry = state.app.load_snapshot(
                self.index_name, state.snapshot, writable=True,
                wal_dir=state.wal, wal_fsync="batch")
            state.engine = state.entry.engine
            state.server = IndexServer(state.app).start()
            state.client = _Client(state.server.host, state.server.port)
            for op, body, _ in inputs["script"]:
                if op == "knn":   # reads leave the state untouched
                    state.client.post(f"/{self.index_name}/knn", body)
                    break
        except BaseException:
            self._close(state)
            raise
        return state

    def run_round(self, state: _IngestState, inputs: dict) -> RoundResult:
        client = state.client
        prefix = f"/{self.index_name}/"
        script = inputs["script"]
        records = []
        before = state.entry.search_stats.report()
        batching_before = state.entry.batcher.stats
        state.wal_bytes_before = _registry_total(
            "repro_wal_append_bytes_total")
        state.wal_syncs_before = _registry_total("repro_wal_fsyncs_total")
        with timed_section():
            wall_start = time.perf_counter()
            for op, body, _ in script:
                records.append(client.post(prefix + op, body))
            wall = time.perf_counter() - wall_start
        after = state.entry.search_stats.report()
        batching_after = state.entry.batcher.stats
        reads, inserts, errors = [], [], 0
        for (op, body, tag), (latency, status, raw) in zip(script, records):
            if op == "knn":
                reads.append((tag, body, latency, status, raw))
            elif status != 200:
                errors += 1
            elif op == "insert":
                inserts.append(latency)
                errors += int(json.loads(raw)["ids"] != [tag])
        result = _served_result(
            wall, reads, len(script), work=_work_delta(before, after),
            facts={
                "batches": batching_after["batches"]
                - batching_before["batches"],
                "batched_queries": batching_after["batched_queries"]
                - batching_before["batched_queries"],
                "num_leaves": len(state.engine.tree.leaf_nodes),
                "inserted_bytes": inputs["inserted_bytes"],
                "snapshot_bytes": directory_bytes(state.snapshot),
                "user_bytes": state.engine.num_surviving
                * inputs["base"].shape[1] * 8,
            })
        result.write_latencies = inserts
        result.errors += errors
        return result

    def teardown(self, state: _IngestState, inputs: dict,
                 result: "RoundResult | None") -> None:
        """Crash-stop (close without saving), recover, check what was acked."""
        self._close(state)
        if result is None:
            return
        facts = result.facts
        facts["wal_bytes"] = (_registry_total("repro_wal_append_bytes_total")
                              - state.wal_bytes_before)
        facts["wal_syncs"] = (_registry_total("repro_wal_fsyncs_total")
                              - state.wal_syncs_before)
        start = time.perf_counter()
        recovered = DynamicIndex.recover(state.snapshot, state.wal)
        facts["recovery_s"] = time.perf_counter() - start
        try:
            failed = int(recovered.num_surviving != inputs["final_surviving"])
            for query, (ids, distances) in zip(inputs["final_probes"],
                                               inputs["final_expected"]):
                answer = recovered.knn(query, k=K)
                failed += int(not oracle.answer_matches(
                    answer.indices, answer.distances, ids, distances))
        finally:
            recovered.close()
        result.attempted += 1 + len(inputs["final_probes"])
        result.errors += failed

    @staticmethod
    def _close(state: _IngestState) -> None:
        try:
            if state.client is not None:
                state.client.close()
        finally:
            try:
                _stop_serving(state)
            finally:
                if state.engine is not None:
                    state.engine.close()

    paper_fidelity = None


WORKLOADS = {workload.name: workload for workload in (
    EngineSingleHF(), EngineBatchVec(), ClusterKnn(), ServeIngestRW())}


def mismatches(result: RoundResult, expected: list) -> int:
    """Answered reads of one round that differ from the oracle's answer.

    ``expected[tag]`` is the ``(ids, distances)`` pair of the read tagged
    ``tag``: the query position on the read-only workloads, the read's
    sequence number on ``serve_ingest_rw`` (whose visible rows change).
    """
    return sum(
        1 for tag, ids, distances, flags_ok in result.answers
        if not (flags_ok and oracle.answer_matches(ids, distances,
                                                   *expected[tag])))
