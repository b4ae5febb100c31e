"""Cold rebuild vs warm snapshot load — the persistence subsystem's contract.

Not a paper table: this benchmark guards the warm-start promise of
:mod:`repro.index.persistence`.  A process that opens a saved snapshot with
``load(path, mmap=True)`` must reach a query-ready index at least 3x faster
than rebuilding the same index from the raw series (asserted at the default
benchmark scale of 4000 series; reduced smoke runs use a looser regression
bound) — and the loaded index must answer queries bit-identically to the
built one, which is asserted at every scale.

The required ratio tracks the build pipeline it is measured against: the gate
was 10x against the seed recursive build (measured 17-27x), and was
recalibrated when the vectorized parallel build (PR 3) made the rebuild
itself several times faster (measured after: 4.7-5.6x, with the warm load's
absolute cost unchanged).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

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
BUILD_REPEATS = 3
LOAD_REPEATS = 7

#: Required rebuild/warm-load time ratio at the full benchmark scale
#: (measured against the vectorized build path; see the module docstring).
FULL_SCALE_SPEEDUP = 3.0
#: Scale at which the full speedup requirement applies (smaller smoke runs
#: only guard against outright regressions).
FULL_SCALE_SERIES = 4000
SMOKE_SPEEDUP = 2.0


def _median_seconds(function, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def test_persistence_warm_load(benchmark):
    num_series = bench_num_series()
    required = (FULL_SCALE_SPEEDUP if num_series >= FULL_SCALE_SERIES
                else SMOKE_SPEEDUP)
    rows = []
    speedups = {}
    representative = None
    scratch = Path(tempfile.mkdtemp(prefix="repro-bench-persistence-"))
    try:
        for offset, name in enumerate(DATASETS):
            dataset = load_dataset(name, num_series=num_series + NUM_QUERIES,
                                   seed=500 + offset)
            index_set, queries = dataset.split(NUM_QUERIES,
                                               rng=np.random.default_rng(offset))
            for label, index_cls in INDEXES.items():
                index = index_cls(leaf_size=bench_leaf_size()).build(index_set)
                build_seconds = _median_seconds(
                    lambda: index_cls(leaf_size=bench_leaf_size()).build(
                        index_set),
                    BUILD_REPEATS)

                path = scratch / f"{name}-{label}"
                start = time.perf_counter()
                index.save(path)
                save_seconds = time.perf_counter() - start

                index_cls.load(path)  # warm the page cache before timing
                load_seconds = _median_seconds(
                    lambda: index_cls.load(path, mmap=True), LOAD_REPEATS)
                eager_seconds = _median_seconds(
                    lambda: index_cls.load(path, mmap=False), LOAD_REPEATS)

                # The loaded index must answer bit-identically at every scale.
                loaded = index_cls.load(path, mmap=True)
                for query in queries.values:
                    built_result = index.knn(query, k=K)
                    loaded_result = loaded.knn(query, k=K)
                    assert np.array_equal(built_result.indices, loaded_result.indices)
                    assert np.array_equal(built_result.distances,
                                          loaded_result.distances)

                speedup = build_seconds / load_seconds
                speedups[(name, label)] = speedup
                rows.append([f"{name}/{label}", f"{build_seconds * 1e3:.1f}",
                             f"{save_seconds * 1e3:.1f}",
                             f"{load_seconds * 1e3:.2f}",
                             f"{eager_seconds * 1e3:.2f}", f"{speedup:.1f}x"])
                if representative is None:
                    representative = (index_cls, path)
    finally:
        table = format_table(
            ["index", "rebuild ms", "save ms", "load(mmap) ms",
             "load(copy) ms", "speedup"], rows)
        report(f"Persistence: cold rebuild vs warm load "
               f"({num_series} series, leaf {bench_leaf_size()})", table)
        if representative is not None:
            index_cls, path = representative
            benchmark(lambda: index_cls.load(path, mmap=True))
        shutil.rmtree(scratch, ignore_errors=True)

    for (name, label), speedup in speedups.items():
        assert speedup >= required, (
            f"warm load of {name}/{label} is only {speedup:.1f}x faster than "
            f"rebuild (required: {required:.0f}x at {num_series} series)"
        )
