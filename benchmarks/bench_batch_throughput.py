"""Batched vs looped query throughput — one call for a whole workload.

Not a paper table: this benchmark guards the throughput contract of the
batched search entry point (:class:`repro.index.batch_search.BatchSearcher`).
A whole workload answered by ``knn_batch`` must return results that match
the per-query answers bit for bit, and on the certified flat path it must be
several times faster than looping ``ExactSearcher.knn`` over the same
queries: one GEMM estimates the whole batch.

The headline workload is the SIFT-like vector collection — the scenario the
paper benchmarks against FAISS IndexFlatL2 with mini-batched queries, and a
flat-path tree at these scales — where batching must reach at least 3x the
looped QPS at batch size >= 64 (asserted at the default benchmark scale;
reduced smoke runs use a looser regression bound).  That gate covers SIFT1b
only.  A high-frequency (LenDB) and a smooth (SALD) dataset are reported
alongside.  LenDB takes the tree path, where ``knn_batch`` runs ``knn``'s
engine once per query, so its row reads about 1x by construction.
"""

from __future__ import annotations

import time

import numpy as np

from common import bench_leaf_size, bench_num_series, report

from repro.datasets.registry import load_dataset
from repro.evaluation.reporting import format_table
from repro.index.batch_search import BatchSearcher
from repro.index.search import ExactSearcher
from repro.index.sofa import SofaIndex

BATCH_SIZES = (16, 64, 128)
DATASETS = ("SIFT1b", "LenDB", "SALD")
K = 10
REPEATS = 3

#: Required batched/looped QPS ratio on the vector workload at batch >= 64.
FULL_SCALE_SPEEDUP = 3.0
#: Scale at which the full speedup requirement applies (smaller smoke runs
#: only guard against outright regressions).
FULL_SCALE_SERIES = 4000
SMOKE_SPEEDUP = 1.5


def _median_seconds(function, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def test_batch_throughput(benchmark):
    num_series = bench_num_series()
    num_queries = max(BATCH_SIZES)
    rows = []
    vector_speedups = {}
    representative = None

    for offset, name in enumerate(DATASETS):
        dataset = load_dataset(name, num_series=num_series + num_queries,
                               seed=400 + offset)
        index_set, queries = dataset.split(num_queries, rng=np.random.default_rng(offset))
        sofa = SofaIndex(leaf_size=bench_leaf_size()).build(index_set)
        searcher = ExactSearcher(sofa.tree)
        batcher = BatchSearcher(sofa.tree)
        searcher.knn(queries.values[0], k=K)
        batcher.knn_batch(queries.values[:4], k=K)

        for batch_size in BATCH_SIZES:
            workload = queries.values[:batch_size]
            looped = [searcher.knn(query, k=K) for query in workload]
            batched = batcher.knn_batch(workload, k=K)
            for row, batched_result in enumerate(batched):
                assert np.array_equal(batched_result.indices, looped[row].indices)
                assert np.array_equal(batched_result.distances, looped[row].distances)

            loop_seconds = _median_seconds(
                lambda: [searcher.knn(query, k=K) for query in workload])
            batch_seconds = _median_seconds(lambda: batcher.knn_batch(workload, k=K))
            speedup = loop_seconds / batch_seconds
            rows.append([name, batch_size, batch_size / loop_seconds,
                         batch_size / batch_seconds, speedup])
            if name == "SIFT1b":
                vector_speedups[batch_size] = speedup
            if name == "SIFT1b" and batch_size == max(BATCH_SIZES):
                representative = (batcher, workload)

    report("Batched vs looped exact k-NN throughput "
           f"(k={K}, {num_series} series)",
           format_table(["dataset", "batch", "looped QPS", "batched QPS", "speedup"],
                        rows, float_format="{:.1f}"))

    required = FULL_SCALE_SPEEDUP if num_series >= FULL_SCALE_SERIES else SMOKE_SPEEDUP
    for batch_size, speedup in vector_speedups.items():
        if batch_size >= 64:
            assert speedup >= required, (
                f"batched engine reached only {speedup:.2f}x the looped QPS on the "
                f"vector workload at batch size {batch_size} (required {required}x)"
            )

    batcher, workload = representative
    benchmark(lambda: batcher.knn_batch(workload, k=K))
