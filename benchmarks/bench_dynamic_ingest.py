"""Dynamic ingest: delta-query overhead and insert throughput.

Not a paper table: this benchmark guards the serving contract of
:mod:`repro.index.dynamic`.  A dynamic index carrying a **10 % delta**
(buffered inserts that have not been compacted yet) must answer query batches
at most **2x slower** than the same index after ``compact()`` merged the
delta into the tree (asserted at the default benchmark scale of 4000 series;
reduced smoke runs use a looser regression bound).  Insert throughput —
series buffered per second through the vectorized summarization, in
streaming-sized batches — and the compaction cost are reported alongside.

Correctness is asserted at every scale: the answers over *tree ∪ delta* must
be bit-identical to the answers after compaction (which is itself a scratch
rebuild on the union, with unchanged row ids when nothing was deleted).
"""

from __future__ import annotations

import time

import numpy as np

from common import bench_leaf_size, bench_num_series, report

from repro.datasets.registry import load_dataset
from repro.evaluation.reporting import format_table
from repro.index.messi import MessiIndex
from repro.index.sofa import SofaIndex

DATASETS = ("LenDB", "SIFT1b")
INDEXES = {"SOFA": SofaIndex, "MESSI": MessiIndex}
K = 10
NUM_QUERIES = 8
QUERY_REPEATS = 5
#: Streaming ingest arrives in batches of this many series.
INGEST_BATCH = 64
#: Fraction of the collection that arrives as the delta.
DELTA_FRACTION = 0.10

#: Maximum allowed (delta query time) / (compacted query time) at the full
#: benchmark scale; smaller smoke runs only guard against outright
#: regressions (fixed per-query engine overhead dominates tiny collections).
FULL_SCALE_OVERHEAD = 2.0
FULL_SCALE_SERIES = 4000
SMOKE_OVERHEAD = 3.0


def _median_seconds(function, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def test_dynamic_ingest_overhead(benchmark):
    num_series = bench_num_series()
    allowed = (FULL_SCALE_OVERHEAD if num_series >= FULL_SCALE_SERIES
               else SMOKE_OVERHEAD)
    num_delta = max(1, int(round(DELTA_FRACTION * num_series)))
    num_base = num_series - num_delta
    rows = []
    overheads = {}
    representative = None
    for offset, name in enumerate(DATASETS):
        dataset = load_dataset(name, num_series=num_series + NUM_QUERIES,
                               seed=700 + offset)
        index_set, queries = dataset.split(NUM_QUERIES,
                                           rng=np.random.default_rng(offset))
        base = index_set.values[:num_base]
        arriving = index_set.values[num_base:]
        for label, index_cls in INDEXES.items():
            index = index_cls(leaf_size=bench_leaf_size()).build(base)
            dynamic = index.dynamic()

            # --- streaming ingest: batches through the vectorized write path.
            start = time.perf_counter()
            for block_start in range(0, arriving.shape[0], INGEST_BATCH):
                dynamic.insert_batch(arriving[block_start:block_start
                                              + INGEST_BATCH])
            insert_seconds = time.perf_counter() - start
            throughput = arriving.shape[0] / insert_seconds

            # --- query with the 10% delta pending.
            delta_answers = dynamic.knn_batch(queries.values, k=K)
            delta_seconds = _median_seconds(
                lambda: dynamic.knn_batch(queries.values, k=K), QUERY_REPEATS)

            # --- compact (the rebuild on the union) and re-query.
            start = time.perf_counter()
            dynamic.compact()
            compact_seconds = time.perf_counter() - start
            compacted_answers = dynamic.knn_batch(queries.values, k=K)
            compacted_seconds = _median_seconds(
                lambda: dynamic.knn_batch(queries.values, k=K), QUERY_REPEATS)

            # Nothing was deleted, so row ids survive compaction unchanged
            # and the pre-compaction answers must match bit for bit.
            for before, after in zip(delta_answers, compacted_answers):
                assert np.array_equal(before.indices, after.indices)
                assert np.array_equal(before.distances, after.distances)

            overhead = delta_seconds / compacted_seconds
            overheads[(name, label)] = overhead
            rows.append([f"{name}/{label}", f"{throughput:,.0f}",
                         f"{1000 * delta_seconds:.1f}",
                         f"{1000 * compacted_seconds:.1f}",
                         f"{overhead:.2f}x",
                         f"{1000 * compact_seconds:.0f}"])
            if representative is None:
                representative = (dynamic, queries.values)

    table = format_table(
        ["index", "insert rows/s", f"q({NUM_QUERIES}) delta ms",
         f"q({NUM_QUERIES}) compacted ms", "overhead", "compact ms"], rows)
    report(f"Dynamic ingest: {int(100 * DELTA_FRACTION)}% delta overhead "
           f"({num_series} series, k={K}, leaf {bench_leaf_size()})", table)
    if representative is not None:
        served, query_block = representative
        benchmark(lambda: served.knn_batch(query_block, k=K))

    for (name, label), overhead in overheads.items():
        assert overhead <= allowed, (
            f"querying {name}/{label} with a {int(100 * DELTA_FRACTION)}% "
            f"delta is {overhead:.2f}x the compacted query time "
            f"(allowed: {allowed:.1f}x at {num_series} series)"
        )
