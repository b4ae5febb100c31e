"""Write-ahead-log durability: logging overhead and replay throughput.

Not a paper table: this benchmark guards the durability contract of
:mod:`repro.index.wal`.  Streaming ingest with a WAL attached (``fsync`` in
its batched mode) must sustain at least **half** the throughput of the same
ingest without a log — the log is a sequential append of already-normalized
rows, so its cost must stay a constant factor, not a cliff.  Crash recovery
must replay the log over the last snapshot at full-scale speed (tens of
thousands of rows per second); reduced smoke runs use looser bounds because
fixed per-call overhead dominates tiny ingests.

Correctness is asserted at every scale: the recovered index must answer a
query batch bit-identically to the index the "crashed" process held at its
last acked write.
"""

from __future__ import annotations

import time

import numpy as np

from common import bench_leaf_size, bench_num_series, report

from repro.datasets.registry import load_dataset
from repro.evaluation.reporting import format_table
from repro.index.dynamic import DynamicIndex
from repro.index.messi import MessiIndex
from repro.index.persistence import load_dynamic

K = 10
NUM_QUERIES = 8
#: Streaming ingest arrives in batches of this many series.
INGEST_BATCH = 64
#: Fraction of the collection that arrives through the ingest path.
DELTA_FRACTION = 0.5

#: Gates at the default benchmark scale (4000 series); smoke runs keep the
#: same shape of assertion with slack for fixed overheads.
FULL_SCALE_SERIES = 4000
FULL_WAL_RATIO = 0.5
SMOKE_WAL_RATIO = 0.25
FULL_REPLAY_ROWS_PER_S = 50_000.0
SMOKE_REPLAY_ROWS_PER_S = 2_000.0


def _ingest(dynamic, arriving: np.ndarray) -> float:
    start = time.perf_counter()
    for block_start in range(0, arriving.shape[0], INGEST_BATCH):
        dynamic.insert_batch(arriving[block_start:block_start + INGEST_BATCH])
    return time.perf_counter() - start


def test_wal_overhead_and_replay(benchmark, tmp_path):
    num_series = bench_num_series()
    full_scale = num_series >= FULL_SCALE_SERIES
    min_ratio = FULL_WAL_RATIO if full_scale else SMOKE_WAL_RATIO
    min_replay = (FULL_REPLAY_ROWS_PER_S if full_scale
                  else SMOKE_REPLAY_ROWS_PER_S)

    num_delta = max(INGEST_BATCH, int(round(DELTA_FRACTION * num_series)))
    num_base = max(16, num_series - num_delta)
    dataset = load_dataset("LenDB", num_series=num_base + num_delta
                           + NUM_QUERIES, seed=900)
    index_set, queries = dataset.split(NUM_QUERIES,
                                       rng=np.random.default_rng(9))
    base = index_set.values[:num_base]
    arriving = index_set.values[num_base:]

    index = MessiIndex(leaf_size=bench_leaf_size()).build(base)

    # --- baseline: ingest with no log attached.
    bare = index.dynamic()
    bare_seconds = _ingest(bare, arriving)
    bare_rate = arriving.shape[0] / bare_seconds

    # --- same ingest, write-ahead logged (batched fsync), from a snapshot.
    snapshot_dir = tmp_path / "snapshot"
    wal_dir = tmp_path / "wal"
    logged = index.dynamic(wal_dir=wal_dir, wal_fsync="batch")
    logged.save(snapshot_dir)
    logged_seconds = _ingest(logged, arriving)
    logged_rate = arriving.shape[0] / logged_seconds
    logged.delete(0)
    expected = logged.knn_batch(queries.values, k=K)
    logged.close()

    # --- crash recovery: reload the snapshot, replay the log.
    load_seconds = min(
        _timed(lambda: load_dynamic(snapshot_dir)) for _ in range(3))
    recover_seconds = _timed(
        lambda: DynamicIndex.recover(snapshot_dir, wal_dir))
    replay_seconds = max(recover_seconds - load_seconds, 1e-9)
    replay_rate = arriving.shape[0] / replay_seconds

    recovered = DynamicIndex.recover(snapshot_dir, wal_dir)
    observed = recovered.knn_batch(queries.values, k=K)
    for want, got in zip(expected, observed):
        assert np.array_equal(want.indices, got.indices)
        assert np.array_equal(want.distances, got.distances)
    recovered.close()

    ratio = logged_rate / bare_rate
    table = format_table(
        ["mode", "insert rows/s", "vs WAL-off", "replay rows/s"],
        [["WAL off", f"{bare_rate:,.0f}", "1.00x", "-"],
         ["WAL on (batch)", f"{logged_rate:,.0f}", f"{ratio:.2f}x",
          f"{replay_rate:,.0f}"]])
    report(f"WAL durability: logged ingest and crash replay "
           f"({arriving.shape[0]} rows over {num_base} base series, "
           f"leaf {bench_leaf_size()})", table)

    benchmark(lambda: DynamicIndex.recover(snapshot_dir, wal_dir).close())

    assert ratio >= min_ratio, (
        f"write-ahead logging cut ingest throughput to {ratio:.2f}x of the "
        f"unlogged rate (allowed: >= {min_ratio:.2f}x at {num_series} series)"
    )
    assert replay_rate >= min_replay, (
        f"WAL replay ran at {replay_rate:,.0f} rows/s "
        f"(required: >= {min_replay:,.0f} at {num_series} series)"
    )


def _timed(function) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start
