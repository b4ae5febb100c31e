"""Observability overhead — instrumentation must never tax the hot path.

Not a paper table: this benchmark guards the cost contract of the
observability layer (``repro.obs``).  Serving with metrics *enabled but
idle* (no tracing requested) must stay within a few percent of serving
with the registry kill switch off — the target is <= 1.05x at full
benchmark scale; reduced smoke runs use a looser bound because per-query
time drops into jitter territory.  The cost of *opted-in* per-query
tracing is measured and reported (not gated: a traced query pays for its
span breakdown by design), and two correctness properties ride along:

* answers are bit-identical with metrics on, off, and tracing enabled;
* a traced query's phase spans sum to within 10% of its measured wall
  time (the accounting contract from ``docs/observability.md``).
"""

from __future__ import annotations

import time

import numpy as np

from common import (
    bench_leaf_size,
    bench_num_series,
    record_result,
    report,
)

from repro.datasets.registry import load_dataset
from repro.evaluation.reporting import format_table
from repro.index.sofa import SofaIndex
from repro.obs.metrics import get_registry
from repro.serve.app import SearchApp
from repro.serve.config import ServeConfig

K = 10
NUM_QUERIES = 64
REPEATS = 5

#: Required enabled-but-idle/disabled ratio at full benchmark scale.
FULL_SCALE_OVERHEAD = 1.05
#: Scale at which the full gate applies; below it (CI smoke runs) queries
#: take tens of microseconds and scheduler jitter would dominate a 5% gate.
FULL_SCALE_SERIES = 4000
SMOKE_OVERHEAD = 1.35


def _median_seconds(function, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def test_obs_overhead(benchmark):
    num_series = bench_num_series()
    dataset = load_dataset("LenDB", num_series=num_series + NUM_QUERIES,
                           seed=700)
    index_set, queries = dataset.split(NUM_QUERIES,
                                       rng=np.random.default_rng(7))
    engine = SofaIndex(leaf_size=bench_leaf_size()).build(index_set)

    # batching=False serves each request with a direct engine call: the
    # micro-batch window wait would otherwise swamp the nanosecond-scale
    # cost difference this benchmark exists to measure.
    app = SearchApp(ServeConfig(batching=False))
    app.add_index("bench", engine)
    workload = [list(row) for row in queries.values]

    def serve_all(trace: bool = False):
        return [app.knn("bench", query, k=K, trace=trace)
                for query in workload]

    registry = get_registry()
    was_enabled = registry.enabled
    try:
        # Warm both code paths (index caches, per-thread metric cells).
        registry.set_enabled(True)
        baseline = serve_all()
        traced = serve_all(trace=True)
        registry.set_enabled(False)
        disabled = serve_all()

        for on, off, tr in zip(baseline, traced, disabled):
            assert on["ids"] == off["ids"] == tr["ids"]
            assert on["distances"] == off["distances"] == tr["distances"]

        # Accounting contract: phases partition the traced query's wall.
        for payload in traced:
            wall = payload["wall_time_s"]
            phase_sum = payload["trace"]["phase_seconds"]
            assert abs(wall - phase_sum) <= max(0.1 * wall, 1e-3), (
                f"trace phases sum to {phase_sum:.6f}s against a wall time "
                f"of {wall:.6f}s (> 10% apart)")

        registry.set_enabled(False)
        disabled_seconds = _median_seconds(serve_all)
        registry.set_enabled(True)
        enabled_seconds = _median_seconds(serve_all)
        traced_seconds = _median_seconds(lambda: serve_all(trace=True))
    finally:
        registry.set_enabled(was_enabled)

    idle_ratio = enabled_seconds / disabled_seconds
    tracing_ratio = traced_seconds / disabled_seconds
    report(
        f"Observability overhead (k={K}, {num_series} series, "
        f"{NUM_QUERIES} queries)",
        format_table(
            ["mode", "seconds/workload", "vs disabled"],
            [["metrics disabled", disabled_seconds, 1.0],
             ["metrics enabled (idle)", enabled_seconds, idle_ratio],
             ["tracing enabled", traced_seconds, tracing_ratio]],
            float_format="{:.4f}"))
    record_result(
        "obs_overhead",
        num_series=num_series,
        num_queries=NUM_QUERIES,
        disabled_seconds=disabled_seconds,
        enabled_seconds=enabled_seconds,
        traced_seconds=traced_seconds,
        idle_overhead_ratio=idle_ratio,
        tracing_overhead_ratio=tracing_ratio,
        qps_enabled=NUM_QUERIES / enabled_seconds,
    )

    required = (FULL_SCALE_OVERHEAD if num_series >= FULL_SCALE_SERIES
                else SMOKE_OVERHEAD)
    assert idle_ratio <= required, (
        f"idle instrumentation costs {idle_ratio:.3f}x the disabled "
        f"baseline (gate {required}x at {num_series} series)")

    registry.set_enabled(True)
    try:
        benchmark(serve_all)
    finally:
        registry.set_enabled(was_enabled)
