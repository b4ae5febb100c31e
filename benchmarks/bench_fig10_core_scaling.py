"""Figure 10 — distribution of 1-NN query times across datasets, and scaling.

The paper's box plots show how single-query latency falls as cores are
added to one query's refinement threads, with SOFA keeping the lowest median
at every core count.  This reproduction diverges: in Python the GIL made
threads inside one query a net loss, so a single query runs on one thread
and the system scales over **shard processes** instead
(:class:`~repro.cluster.ClusterIndex`).  Those processes share only the
coordinator's frozen cross-shard bound per attempt, never a live
best-so-far, so they prune less than the paper's shared-memory threads.

Measured and reported:

* the distribution of per-dataset mean 1-NN query times of SOFA and MESSI
  on one thread, both walking their trees (``gemini_tree_path``);
* one representative dataset's mean 1-NN latency through a
  :class:`~repro.cluster.ClusterIndex` at 1 and 2 shard processes, next to
  the in-process index (no timing gate: the scaling is hardware-dependent).

Asserted shape:

* SOFA performs no more refinement work than MESSI across the dataset set
  (median of per-dataset exact-distance counts) — the pruning advantage that
  produces the paper's lowest-median-everywhere curve;
* the cluster answers every query bit-identically to the in-process index.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from common import bench_leaf_size, gemini_tree_path, report

from repro.cluster import ClusterIndex
from repro.evaluation.reporting import format_table
from repro.index.messi import MessiIndex
from repro.index.sharded import ShardedIndex
from repro.index.sofa import SofaIndex

INDEXES = {"MESSI": MessiIndex, "SOFA": SofaIndex}
#: Shard-process counts of the scaling measurement.
SHARD_COUNTS = (1, 2)
K = 1


def _mean_query_ms(index, queries: np.ndarray) -> "tuple[float, list]":
    index.knn(queries[0], k=K)  # warm caches and connections off the clock
    start = time.perf_counter()
    results = [index.knn(query, k=K) for query in queries]
    return 1000.0 * (time.perf_counter() - start) / len(queries), results


def _shard_scaling(index_set, queries: np.ndarray) -> list:
    """Cluster latency per shard count; answers checked against in-process."""
    reference = SofaIndex(leaf_size=bench_leaf_size()).build(index_set.values)
    reference_ms, expected = _mean_query_ms(reference, queries)
    rows = [["in-process", 1, reference_ms]]
    scratch = Path(tempfile.mkdtemp(prefix="repro-bench-fig10-"))
    try:
        for num_shards in SHARD_COUNTS:
            path = scratch / f"shards-{num_shards}"
            ShardedIndex.build(
                index_set.values, path, num_shards=num_shards,
                index_factory=lambda: SofaIndex(leaf_size=bench_leaf_size())
            ).close()
            cluster = ClusterIndex.launch(path)
            try:
                elapsed_ms, results = _mean_query_ms(cluster, queries)
            finally:
                cluster.close()
            for want, got in zip(expected, results):
                assert np.array_equal(want.indices, got.indices)
                assert np.array_equal(want.distances, got.distances)
            rows.append(["cluster", num_shards, elapsed_ms])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return rows


def test_fig10_core_scaling(sweep_suite, benchmark):
    mean_times: dict[str, dict[str, float]] = {}
    mean_work: dict[str, dict[str, float]] = {}
    representative = None
    for name, (index_set, queries) in sweep_suite.items():
        for label, index_cls in INDEXES.items():
            index = index_cls(leaf_size=bench_leaf_size()).build(index_set)
            with gemini_tree_path():
                elapsed_ms, results = _mean_query_ms(index, queries.values)
            mean_times.setdefault(label, {})[name] = elapsed_ms
            mean_work.setdefault(label, {})[name] = float(np.mean(
                [result.stats.exact_distances for result in results]))
            if representative is None:
                representative = index, queries.values

    rows = []
    for label in INDEXES:
        times = np.array(list(mean_times[label].values()))
        quartiles = np.percentile(times, [25, 50, 75])
        rows.append([label, float(times.min()), float(quartiles[0]),
                     float(quartiles[1]), float(quartiles[2]),
                     float(times.max())])
    report("Figure 10 — per-dataset 1-NN query time distribution, one thread "
           "(ms, measured)",
           format_table(["method", "min", "q25", "median", "q75", "max"],
                        rows, float_format="{:.2f}"))

    # Paper shape: SOFA's tighter lower bounds mean less refinement work than
    # MESSI on the same queries — the scale-free driver of its lower medians.
    sofa_work = float(np.median(list(mean_work["SOFA"].values())))
    messi_work = float(np.median(list(mean_work["MESSI"].values())))
    assert sofa_work <= messi_work

    name, (index_set, queries) = next(iter(sweep_suite.items()))
    report(f"Figure 10 — SOFA 1-NN latency over shard processes ({name}, "
           f"ms, measured)",
           format_table(["engine", "shards", "mean ms"],
                        _shard_scaling(index_set, queries.values),
                        float_format="{:.2f}"))

    index, query_values = representative
    benchmark(lambda: index.knn(query_values[0], k=K))
