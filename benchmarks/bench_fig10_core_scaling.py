"""Figure 10 — distribution of 1-NN query times across datasets by core count.

The paper's box plots show how single-query latency falls as cores are added
to one query's refinement workers, with SOFA keeping the lowest median at
every core count.  The experiment is **measured**: the same exact 1-NN
queries are answered at several real worker counts (`knn(...,
num_workers=n)` draining each query's leaf queue against a shared
best-so-far) and the distribution of per-dataset mean query times is
reported per method and worker count.

Asserted shape (robust on any hardware, including single-core CI runners
where threads cannot reduce wall clock):

* every worker count returns bit-identical answers;
* SOFA performs no more refinement work than MESSI across the dataset set
  (median of per-dataset exact-distance counts) — the pruning advantage that
  produces the paper's lowest-median-everywhere curve.

Absolute speedups are hardware-dependent and are gated separately by
``bench_query_parallel.py``.
"""

from __future__ import annotations

import time

import numpy as np

from common import bench_leaf_size, report

from repro.evaluation.reporting import format_table
from repro.index.messi import MessiIndex
from repro.index.sofa import SofaIndex

#: Real worker counts measured per query (the paper sweeps 9/18/36 cores on
#: a 40-core server; reproduction hardware is smaller).
WORKER_COUNTS = (1, 2, 4)
INDEXES = {"MESSI": MessiIndex, "SOFA": SofaIndex}
K = 1


def test_fig10_core_scaling(sweep_suite, benchmark):
    mean_times: dict[tuple[str, int], dict[str, float]] = {}
    mean_work: dict[str, dict[str, float]] = {}
    representative = None
    for name, (index_set, queries) in sweep_suite.items():
        for label, index_cls in INDEXES.items():
            index = index_cls(leaf_size=bench_leaf_size()).build(index_set)
            reference = None
            for workers in WORKER_COUNTS:
                # Warm the engine (and its persistent pool) outside the clock.
                index.knn(queries.values[0], k=K, num_workers=workers)
                start = time.perf_counter()
                results = [index.knn(query, k=K, num_workers=workers)
                           for query in queries.values]
                elapsed = (time.perf_counter() - start) / queries.num_series
                mean_times.setdefault((label, workers), {})[name] = 1000.0 * elapsed
                if reference is None:
                    reference = results
                    mean_work.setdefault(label, {})[name] = float(np.mean(
                        [result.stats.exact_distances for result in results]))
                else:
                    # The core-scaling knob must be purely a wall-clock knob.
                    for expected, actual in zip(reference, results):
                        assert np.array_equal(expected.indices, actual.indices)
                        assert np.array_equal(expected.distances,
                                              actual.distances)
            if representative is None:
                representative = index, queries.values

    rows = []
    for label in INDEXES:
        for workers in WORKER_COUNTS:
            times = np.array(list(mean_times[(label, workers)].values()))
            quartiles = np.percentile(times, [25, 50, 75])
            rows.append([label, workers, float(times.min()), float(quartiles[0]),
                         float(quartiles[1]), float(quartiles[2]),
                         float(times.max())])
    report("Figure 10 — per-dataset 1-NN query time distribution by worker "
           "count (ms, measured)",
           format_table(["method", "workers", "min", "q25", "median", "q75",
                         "max"], rows, float_format="{:.2f}"))

    # Paper shape: SOFA's tighter lower bounds mean less refinement work than
    # MESSI on the same queries — the scale-free driver of its lower medians.
    sofa_work = float(np.median(list(mean_work["SOFA"].values())))
    messi_work = float(np.median(list(mean_work["MESSI"].values())))
    assert sofa_work <= messi_work

    index, query_values = representative
    benchmark(lambda: index.knn(query_values[0], k=K,
                                num_workers=WORKER_COUNTS[-1]))
