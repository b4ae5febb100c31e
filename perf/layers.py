"""Metric names of the benchmark and the per-layer report of a traced run.

Layer = a module of ``repro``.  ``END_TO_END`` and ``PER_LAYER`` are the one
list of names; ``BENCHMARK.json`` repeats them and a self-test keeps the two
in step.  Every run reports every name; a layer a workload does not exercise
reports 0 (that *is* the measurement: no spans, no counts).

The additive part of the report is the **budget** (``BUDGET``): the mean
latency of a read request split into layer self times.  On the served
workloads a span inside a coalesced batch counts once for every request
that rode in the batch, so the shares add up to what the callers waited.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left
from collections import defaultdict

from perf import spans as sp
from perf.harness import median, percentile

#: (name, unit, better, bound) — what a user of the system sees.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("query_p50_ms", "ms", "lower", 0.15),
    ("query_p95_ms", "ms", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.15),
    ("peak_rss_mb", "MiB", "lower", 0.15),
)

#: Layer self times that partition a read request, in request order.
BUDGET = (
    "serve.routes.http_overhead_ms",
    "serve.app.knn_self_ms",
    "serve.batching.queue_wait_ms",
    "index.sharded.scatter_self_ms",
    "cluster.client.rpc_overhead_ms",
    "cluster.worker.engine_ms",
    "index.sharded.merge_ms",
    "index.dynamic.self_ms",
    "index.batch_search.knn_batch_self_ms",
    "index.search.knn_self_ms",
    "index.tree.self_ms",
    "transforms.sfa_transform_ms",
    "core.simd.lb_self_ms",
    "core.distance.ed_self_ms",
    "unattributed_ms",
)

#: Span name → budget entry its (weighted) self time is charged to.
_SPAN_BUDGET = {
    "serve.app.knn": "serve.app.knn_self_ms",
    "index.dynamic.knn": "index.dynamic.self_ms",
    "index.batch_search.knn_batch": "index.batch_search.knn_batch_self_ms",
    "index.search.knn": "index.search.knn_self_ms",
    "index.tree.query": "index.tree.self_ms",
    "transforms.sfa_transform": "transforms.sfa_transform_ms",
    "transforms.sfa_transform_batch": "transforms.sfa_transform_ms",
    "core.simd.lb": "core.simd.lb_self_ms",
    "core.distance.ed": "core.distance.ed_self_ms",
}

#: Roots of the write path; their trees are kept out of the read budget.
_WRITE_ROOTS = ("serve.app.insert", "serve.app.delete", "serve.app.compact",
                "index.dynamic.insert", "index.dynamic.delete",
                "index.dynamic.compact")

#: (name, unit, better) — single layers; no bounds.
PER_LAYER = tuple(
    [(name, "ms", "lower") for name in BUDGET] + [
        ("attributed_ratio", "ratio", "higher"),
        ("obs.trace_overhead_ratio", "ratio", "lower"),
        # setup path (seconds per set-up, self times)
        ("transforms.sfa_fit_s", "s", "lower"),
        ("transforms.sfa_transform_batch_s", "s", "lower"),
        ("index.tree.build_s", "s", "lower"),
        ("index.persistence.save_s", "s", "lower"),
        ("index.persistence.load_s", "s", "lower"),
        ("index.persistence.bytes", "bytes", "lower"),
        ("cluster.supervisor.launch_s", "s", "lower"),
        # work per read (counts repeat exactly from run to run)
        ("transforms.sfa_transform_us", "us", "lower"),
        ("core.simd.lb_calls", "count", "lower"),
        ("core.simd.lb_rows", "count", "lower"),
        ("core.simd.lb_ns_per_row", "ns", "lower"),
        ("core.distance.ed_calls", "count", "lower"),
        ("core.distance.ed_rows", "count", "lower"),
        ("core.distance.ed_ns_per_row", "ns", "lower"),
        ("index.tree.approximate_ms", "ms", "lower"),
        ("index.tree.traversal_ms", "ms", "lower"),
        ("index.tree.leaves_visited", "count", "lower"),
        ("index.tree.leaves_pruned_ratio", "ratio", "higher"),
        ("index.search.pruning_ratio", "ratio", "higher"),
        ("index.batch_search.batch_size_mean", "count", "higher"),
        # write path and recovery (serve_ingest_rw)
        ("index.dynamic.insert_us", "us", "lower"),
        ("index.dynamic.knn_ms", "ms", "lower"),
        ("index.dynamic.delta_rows_mean", "count", "lower"),
        ("index.dynamic.compact_s", "s", "lower"),
        ("index.dynamic.tombstones", "count", "lower"),
        ("index.wal.append_us", "us", "lower"),
        ("index.wal.sync_calls", "count", "lower"),
        ("index.wal.bytes_per_user_byte", "ratio", "lower"),
        ("index.wal.replay_s", "s", "lower"),
        ("insert_p50_ms", "ms", "lower"),
        ("insert_p95_ms", "ms", "lower"),
        ("inserts_per_s", "1/s", "higher"),
        ("recovery_s", "s", "lower"),
        ("snapshot_bytes_ratio", "ratio", "lower"),
        # scatter and RPC (cluster_knn)
        ("index.sharded.retries", "count", "lower"),
        ("index.sharded.coverage", "ratio", "higher"),
        ("cluster.client.rpc_ms", "ms", "lower"),
        ("cluster.client.request_bytes", "bytes", "lower"),
        ("cluster.client.response_bytes", "bytes", "lower"),
        ("cluster.client.connections_opened", "count", "lower"),
        ("cluster.client.failures", "count", "lower"),
        ("cluster.supervisor.restarts", "count", "lower"),
        # front door (served workloads)
        ("serve.routes.decode_us", "us", "lower"),
        ("serve.routes.encode_us", "us", "lower"),
        ("serve.routes.request_bytes", "bytes", "lower"),
        ("serve.routes.response_bytes", "bytes", "lower"),
        ("serve.batching.batch_size_mean", "count", "higher"),
        ("serve.batching.batches", "count", "lower"),
        # correctness and paper fidelity
        ("failed_ops_ratio", "ratio", "lower"),
        ("paper.pruning_ratio", "ratio", "higher"),
        ("paper.tlb", "ratio", "higher"),
        ("paper.speedup_vs_messi", "ratio", "higher"),
        ("paper.speedup_vs_scan", "ratio", "higher"),
    ])

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def end_to_end_metrics(measurement) -> dict:
    """The five end-to-end values of one untraced measurement."""
    reads = measurement.read_latencies
    return {
        "setup_s": median(measurement.setup_samples),
        "query_p50_ms": 1e3 * median(reads),
        "query_p95_ms": 1e3 * percentile(reads, 95),
        "queries_per_s": measurement.correct_queries / measurement.wall_s,
        "peak_rss_mb": measurement.peak_rss_mb,
    }


# ---- the read budget -------------------------------------------------------

def read_budget(round_spans: "list[tuple]", weighted: bool) -> dict:
    """Seconds charged to each budget entry by the read-path spans."""
    linked = sp.link_cross_thread(round_spans)
    selfs = sp.self_times(linked)
    roots = sp.tree_roots(linked)
    children = defaultdict(list)
    for span in linked:
        if span[sp.PARENT] != -1:
            children[span[sp.PARENT]].append(span)
    batch_roots = sorted(
        (span[sp.START], span[sp.END]) for span in linked
        if span[sp.PARENT] == -1 and span[sp.NAME] in sp.BATCH_ROOTS)
    batch_starts = [start for start, _ in batch_roots]

    totals = defaultdict(float)
    for span in linked:
        root = roots[span[sp.SID]]
        if root[sp.NAME] in _WRITE_ROOTS:
            continue
        name = span[sp.NAME]
        # Requests served by this span: the size of the coalesced batch at
        # the root of its tree (1 outside a batch).
        weight = float(root[sp.ATTRS].get("n", 1)) if weighted else 1.0
        duration = span[sp.END] - span[sp.START]
        if name == "serve.batching.submit":
            # Blocked on the drainer thread: everything but the engine batch
            # the request rode in is queue wait.
            first = max(bisect_left(batch_starts, span[sp.START]) - 1, 0)
            last = bisect_left(batch_starts, span[sp.END])
            totals["serve.batching.queue_wait_ms"] += duration - sp.covered(
                batch_roots[first:last], span[sp.START], span[sp.END])
        elif name == sp.SCATTER:
            rpcs = [child for child in children[span[sp.SID]]
                    if child[sp.NAME] == sp.ATTEMPT]
            if not rpcs:
                totals["index.sharded.scatter_self_ms"] += \
                    weight * selfs[span[sp.SID]]
                continue
            union = sp.covered([(rpc[sp.START], rpc[sp.END]) for rpc in rpcs],
                               span[sp.START], span[sp.END])
            # The scatter waits for the slowest shard: its worker's own
            # reported wall time is engine, the rest of the RPC is overhead.
            slowest = max(rpcs, key=lambda rpc: rpc[sp.END])
            engine = min(slowest[sp.ATTRS].get("worker_s", 0.0), union)
            merge = max(span[sp.END] - slowest[sp.END], 0.0)
            totals["cluster.worker.engine_ms"] += weight * engine
            totals["cluster.client.rpc_overhead_ms"] += \
                weight * (union - engine)
            totals["index.sharded.merge_ms"] += weight * merge
            totals["index.sharded.scatter_self_ms"] += \
                weight * (selfs[span[sp.SID]] - merge)
        elif name in _SPAN_BUDGET:
            totals[_SPAN_BUDGET[name]] += weight * selfs[span[sp.SID]]
    return totals


# ---- the per-layer report --------------------------------------------------

def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def _codec_us(wire: list, limit: int = 200) -> "tuple[float, float]":
    """Mean time of the handler's ``json.loads`` / ``json.dumps``, timed
    from the harness on the bytes that actually crossed the wire."""
    decode, encode = [], []
    for body, raw in wire[:limit]:
        start = time.perf_counter()
        json.loads(body)
        decode.append(time.perf_counter() - start)
        payload = json.loads(raw)
        start = time.perf_counter()
        json.dumps(payload).encode("utf-8")
        encode.append(time.perf_counter() - start)
    return 1e6 * _mean(decode), 1e6 * _mean(encode)


def per_layer_metrics(recorder, traced, untraced, weighted: bool,
                      paper: "dict | None") -> dict:
    """Every ``PER_LAYER`` value of one traced run.

    ``traced`` / ``untraced`` are the measurements of the two passes of the
    run; ``recorder`` holds the spans and counters of the traced one.
    **Times** pool every traced round.  **Counts** come from round 0 alone:
    rounds differ in their data and their number depends on the clock, so
    only the first round's work repeats exactly from run to run.
    """
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    selfs = sp.self_times(recorder.spans)
    named = defaultdict(list)       # every traced round
    first_named = defaultdict(list)  # round 0 only
    for span in recorder.spans:
        named[span[sp.PHASE], span[sp.NAME]].append(span)
        if span[sp.ROUND] == 0:
            first_named[span[sp.PHASE], span[sp.NAME]].append(span)
    round_spans = [span for span in recorder.spans
                   if span[sp.PHASE] == "round"]
    first = traced.rounds[0]
    reads = max(len(traced.read_latencies), 1)
    first_reads = max(len(first.read_latencies), 1)
    rounds = len(traced.rounds)
    setups = len(traced.setup_samples)
    mean_latency = _mean(traced.read_latencies)

    def self_total(phase: str, name: str) -> float:
        return sum(selfs[span[sp.SID]] for span in named[phase, name])

    def durations(phase: str, name: str) -> "list[float]":
        return [span[sp.END] - span[sp.START] for span in named[phase, name]]

    # -- budget
    budget = read_budget(round_spans, weighted)
    app_knn = sum(durations("round", "serve.app.knn"))
    if app_knn:
        budget["serve.routes.http_overhead_ms"] = \
            sum(traced.read_latencies) - app_knn
    attributed = 0.0
    for name in BUDGET[:-1]:
        metrics[name] = 1e3 * budget.get(name, 0.0) / reads
        attributed += metrics[name]
    metrics["unattributed_ms"] = 1e3 * mean_latency - attributed
    metrics["attributed_ratio"] = attributed / (1e3 * mean_latency)
    # Same rounds, same data: the ratio isolates the cost of the shims.
    metrics["obs.trace_overhead_ratio"] = median(
        median(with_spans.read_latencies) / median(without.read_latencies)
        for with_spans, without in zip(traced.rounds, untraced.rounds))

    # -- set-up path
    metrics["transforms.sfa_fit_s"] = self_total(
        "setup", "transforms.sfa_fit") / setups
    metrics["transforms.sfa_transform_batch_s"] = self_total(
        "setup", "transforms.sfa_transform_batch") / setups
    metrics["index.tree.build_s"] = self_total(
        "setup", "index.tree.build") / setups
    metrics["index.persistence.save_s"] = _mean(
        durations("setup", "index.persistence.save")
        + durations("round", "index.persistence.save"))
    metrics["index.persistence.load_s"] = _mean(
        durations("setup", "index.persistence.load")
        + durations("recover", "index.persistence.load"))
    metrics["cluster.supervisor.launch_s"] = _mean(
        durations("setup", "cluster.supervisor.launch"))

    # -- kernels and engine work
    metrics["transforms.sfa_transform_us"] = 1e6 * _mean(
        durations("round", "transforms.sfa_transform"))
    for layer in ("core.simd.lb", "core.distance.ed"):
        kernel = named["round", layer]
        kernel_rows = sum(span[sp.ATTRS]["rows"] for span in kernel)
        kernel_self = sum(selfs[span[sp.SID]] for span in kernel)
        metrics[f"{layer}_calls"] = (len(first_named["round", layer])
                                     / first_reads)
        metrics[f"{layer}_ns_per_row"] = (1e9 * kernel_self / kernel_rows
                                          if kernel_rows else 0.0)
    work = defaultdict(float, first.work)
    facts = defaultdict(float, first.facts)
    queries = max(work["queries"], 1)
    metrics["core.simd.lb_rows"] = work["series_lower_bounds"] / queries
    metrics["core.distance.ed_rows"] = work["exact_distances"] / queries
    metrics["index.tree.leaves_visited"] = work["leaves_visited"] / queries
    metrics["index.tree.approximate_ms"] = _mean(
        1e3 * result.work.get("approximate_s", 0.0)
        / max(result.work["queries"], 1) for result in traced.rounds)
    metrics["index.tree.traversal_ms"] = _mean(
        1e3 * result.work.get("traversal_s", 0.0)
        / max(result.work["queries"], 1) for result in traced.rounds)
    if work["series_served"]:
        metrics["index.search.pruning_ratio"] = (
            1.0 - work["exact_distances"] / work["series_served"])
    if facts["num_leaves"]:
        metrics["index.tree.leaves_pruned_ratio"] = (
            1.0 - work["leaves_visited"] / queries / facts["num_leaves"])
    metrics["index.batch_search.batch_size_mean"] = _mean(
        span[sp.ATTRS]["n"]
        for span in first_named["round", "index.batch_search.knn_batch"])

    # -- write path and recovery
    dynamic_reads = first_named["round", "index.dynamic.knn"]
    metrics["index.dynamic.delta_rows_mean"] = _mean(
        span[sp.ATTRS]["delta_rows"] for span in dynamic_reads)
    metrics["index.dynamic.tombstones"] = _mean(
        span[sp.ATTRS]["tombstones"] for span in dynamic_reads)
    metrics["index.dynamic.knn_ms"] = 1e3 * _mean(
        durations("round", "index.dynamic.knn"))
    metrics["index.dynamic.insert_us"] = 1e6 * _mean(
        selfs[span[sp.SID]] for span in named["round", "index.dynamic.insert"])
    metrics["index.dynamic.compact_s"] = _mean(
        durations("round", "index.dynamic.compact"))
    metrics["index.wal.append_us"] = 1e6 * _mean(
        durations("round", "index.wal.append"))
    metrics["index.wal.sync_calls"] = facts["wal_syncs"]
    if facts["inserted_bytes"]:
        metrics["index.wal.bytes_per_user_byte"] = (
            facts["wal_bytes"] / facts["inserted_bytes"])
    # Recovery = snapshot load + WAL replay; the load has its own span.
    metrics["index.wal.replay_s"] = (
        sum(durations("recover", "index.dynamic.recover"))
        - sum(durations("recover", "index.persistence.load"))) / rounds
    metrics["recovery_s"] = _mean(
        result.facts.get("recovery_s", 0.0) for result in traced.rounds)
    if traced.write_latencies:
        metrics["insert_p50_ms"] = 1e3 * median(traced.write_latencies)
        metrics["insert_p95_ms"] = 1e3 * percentile(traced.write_latencies, 95)
        metrics["inserts_per_s"] = len(traced.write_latencies) / traced.wall_s
    if facts["user_bytes"]:
        metrics["snapshot_bytes_ratio"] = (facts["snapshot_bytes"]
                                           / facts["user_bytes"])
        metrics["index.persistence.bytes"] = facts["snapshot_bytes"]

    # -- scatter and RPC
    rpcs = named["round", "cluster.client.rpc"]
    metrics["cluster.client.rpc_ms"] = 1e3 * _mean(
        span[sp.END] - span[sp.START] for span in rpcs)
    metrics["cluster.client.failures"] = float(sum(
        1 for span in rpcs if span[sp.ATTRS].get("failed")))
    for counter in ("request_bytes", "response_bytes", "connections_opened"):
        metrics[f"cluster.client.{counter}"] = (
            recorder.counters[f"cluster.client.{counter}"] / first_reads)
    metrics["index.sharded.retries"] = facts["retries"]
    metrics["index.sharded.coverage"] = facts["coverage"]
    metrics["cluster.supervisor.restarts"] = sum(
        result.facts.get("restarts", 0) for result in traced.rounds)

    # -- front door
    if first.wire:
        decode_us, encode_us = _codec_us(first.wire)
        metrics["serve.routes.decode_us"] = decode_us
        metrics["serve.routes.encode_us"] = encode_us
        metrics["serve.routes.request_bytes"] = _mean(
            len(body) for body, _ in first.wire)
        metrics["serve.routes.response_bytes"] = _mean(
            len(raw) for _, raw in first.wire)
    if facts["batches"]:
        metrics["serve.batching.batch_size_mean"] = (
            facts["batched_queries"] / facts["batches"])
        metrics["serve.batching.batches"] = facts["batches"]

    metrics["failed_ops_ratio"] = traced.failed / traced.attempted
    metrics.update(paper or {})
    return metrics
