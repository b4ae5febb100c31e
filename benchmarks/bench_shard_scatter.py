"""Sharded scatter-gather overhead — healthy and degraded query latency.

Not a paper table: this benchmark guards the fault-tolerance layer's price
tag.  Sharding exists for the failure boundary (quarantine one broken shard,
keep answering from the rest), and that boundary is only affordable if

* a **healthy** 4-shard index answers within a bounded constant factor of
  the unsharded engine, and
* a **degraded** index — one shard quarantined — is *not slower* than the
  healthy one beyond a single retry budget: a quarantined shard must be
  skipped outright, never re-probed on the query path.

On the healthy factor: each shard pays the engine's fixed per-query cost
(z-normalization, the query's DFT and per-tree SFA word, heap setup) on top
of its share of the scan, and those per-shard searches serialize under the
GIL — measured, a 4-shard scatter lands at 2-5x the unsharded engine at
harness scales; each shard also prunes on its own best-so-far only, so on
the tree path it refines rows another shard's answer would have ruled out.
The bound here is therefore a *regression tripwire*, not a performance
claim: it catches order-of-magnitude accidents — an engine reload per
query, a probe or retry sneaking onto the healthy path — while tolerating
the inherent constant.

Both modes must also answer exactly: healthy bit-identical to the unsharded
reference, degraded bit-identical to an index built over the surviving
shards' rows alone.
"""

from __future__ import annotations

import time

import numpy as np

from common import bench_leaf_size, bench_num_series, bench_num_queries, report

from repro.datasets.registry import load_dataset
from repro.evaluation.reporting import format_table
from repro.index.shard_health import HealthPolicy, RetryPolicy
from repro.index.sharded import ShardedIndex
from repro.index.sofa import SofaIndex

K = 10
NUM_SHARDS = 4
REPEATS = 5

#: Healthy 4-shard latency tripwire, as a multiple of unsharded latency, at
#: the default benchmark scale (measured 2-5x across runs; see the module
#: docstring for why).  Reduced smoke runs keep a looser bound — with a few
#: hundred series per shard, fixed per-query costs dominate entirely.
FULL_SCALE_OVERHEAD = 6.0
FULL_SCALE_SERIES = 4000
SMOKE_OVERHEAD = 8.0

#: The degraded path may cost at most one retry budget (every backoff the
#: policy could possibly sleep, at its jittered maximum) over the healthy
#: path, per query.  A quarantined shard that sneaks retries back into the
#: query path blows straight through this.
RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.002, backoff_cap_s=0.01)


def _retry_budget_s(policy: RetryPolicy) -> float:
    return sum(policy.backoff_s(attempt) * (1.0 + policy.jitter)
               for attempt in range(policy.max_attempts))


def _median_latency_s(engine, queries: np.ndarray) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for query in queries:
            engine.knn(query, k=K)
        samples.append((time.perf_counter() - start) / len(queries))
    return float(np.median(samples))


def test_shard_scatter_overhead(benchmark, tmp_path):
    num_series = bench_num_series()
    num_queries = max(8, bench_num_queries())
    dataset = load_dataset("Astro", num_series=num_series + num_queries,
                           seed=880)
    index_set, query_set = dataset.split(num_queries,
                                         rng=np.random.default_rng(88))
    rows, queries = index_set.values, query_set.values
    leaf_size = bench_leaf_size()

    def factory() -> SofaIndex:
        return SofaIndex(leaf_size=leaf_size)

    unsharded = factory().build(rows)
    sharded = ShardedIndex.build(
        rows, tmp_path / "shards", num_shards=NUM_SHARDS,
        index_factory=factory, retry=RETRY,
        health=HealthPolicy(auto_probe=False))

    # ---- correctness first: healthy sharded == unsharded, bit for bit.
    for query in queries:
        expected = unsharded.knn(query, k=K)
        observed = sharded.knn(query, k=K)
        np.testing.assert_array_equal(observed.indices, expected.indices)
        np.testing.assert_array_equal(observed.distances, expected.distances)
        assert observed.stats.partial is False

    # ---- healthy latency: the price of the scatter-gather layer.
    unsharded_s = _median_latency_s(unsharded, queries)
    healthy_s = _median_latency_s(sharded, queries)

    # ---- degrade: quarantine one shard the way a corrupt load would.
    victim = NUM_SHARDS - 1
    with sharded._shards[victim].lock:
        sharded._shards[victim].engine.close()
        sharded._shards[victim].engine = None
    from repro.core.errors import CorruptionError
    sharded._board.record_persistent(
        victim, CorruptionError("injected for the benchmark"))

    shard_rows = sharded._shards[victim].globals_map
    keep = np.setdiff1d(np.arange(rows.shape[0]), shard_rows)
    survivor_reference = factory().build(rows[keep])
    for query in queries:
        expected = survivor_reference.knn(query, k=K)
        observed = sharded.knn(query, k=K)
        np.testing.assert_array_equal(observed.indices, keep[expected.indices])
        np.testing.assert_array_equal(observed.distances, expected.distances)
        assert observed.stats.partial is True

    degraded_s = _median_latency_s(sharded, queries)
    sharded.close()

    overhead = healthy_s / unsharded_s
    budget_s = _retry_budget_s(RETRY)
    report(f"Sharded scatter-gather latency (k={K}, {num_series} series, "
           f"{NUM_SHARDS} shards)",
           format_table(
               ["mode", "ms/query", "vs unsharded"],
               [["unsharded", unsharded_s * 1e3, 1.0],
                [f"sharded x{NUM_SHARDS} healthy", healthy_s * 1e3, overhead],
                [f"sharded x{NUM_SHARDS} degraded (1 down)", degraded_s * 1e3,
                 degraded_s / unsharded_s]],
               float_format="{:.3f}"))

    bound = (FULL_SCALE_OVERHEAD if num_series >= FULL_SCALE_SERIES
             else SMOKE_OVERHEAD)
    assert overhead <= bound, (
        f"healthy {NUM_SHARDS}-shard search costs {overhead:.2f}x the "
        f"unsharded engine (bound {bound}x at {num_series} series)")
    assert degraded_s <= healthy_s + budget_s, (
        f"degraded search ({degraded_s * 1e3:.3f} ms/query) exceeds healthy "
        f"({healthy_s * 1e3:.3f} ms/query) by more than one retry budget "
        f"({budget_s * 1e3:.3f} ms) — is the quarantined shard being "
        f"re-probed on the query path?")
