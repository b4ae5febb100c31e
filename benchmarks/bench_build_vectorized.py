"""Vectorized index construction — the build pipeline's contract.

Not a paper table: this benchmark guards the construction-speed promise of
the vectorized frontier builder in :mod:`repro.index.tree`:

* the vectorized builder must construct the index at least 2x faster than
  the seed recursive builder at the full benchmark scale (4000 series);
  reduced smoke runs only guard against outright regressions;
* both builders must produce the *same index*: identical leaf-directory
  arrays and identical ``knn_batch`` answers, asserted at every scale.
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
REPEATS = 3

#: Required recursive/vectorized build-time ratio at the full benchmark scale.
FULL_SCALE_SPEEDUP = 2.0
#: Scale at which the full speedup requirement applies (smaller smoke runs
#: only guard against outright regressions).
FULL_SCALE_SERIES = 4000
SMOKE_SPEEDUP = 1.2


def _median_build(index_cls, builder: str, index_set):
    times = []
    index = None
    for _ in range(REPEATS):
        index = index_cls(leaf_size=bench_leaf_size(), builder=builder)
        start = time.perf_counter()
        index.build(index_set)
        times.append(time.perf_counter() - start)
    return float(np.median(times)), index


def _assert_same_index(reference, candidate, queries) -> None:
    """Directory arrays and batched answers must be bit-identical."""
    for attribute in ("_leaf_lower", "_leaf_upper", "_series_lower",
                      "_series_upper", "_series_rows", "_leaf_sizes"):
        assert np.array_equal(getattr(reference.tree, attribute),
                              getattr(candidate.tree, attribute)), attribute
    for expected, actual in zip(reference.knn_batch(queries, k=K),
                                candidate.knn_batch(queries, k=K)):
        assert np.array_equal(expected.indices, actual.indices)
        assert np.array_equal(expected.distances, actual.distances)


def test_build_vectorized(benchmark):
    num_series = bench_num_series()
    full_scale = num_series >= FULL_SCALE_SERIES
    required_speedup = FULL_SCALE_SPEEDUP if full_scale else SMOKE_SPEEDUP

    rows = []
    failures = []
    representative = None
    for offset, name in enumerate(DATASETS):
        dataset = load_dataset(name, num_series=num_series + NUM_QUERIES,
                               seed=700 + offset)
        index_set, queries = dataset.split(NUM_QUERIES,
                                           rng=np.random.default_rng(offset))
        for label, index_cls in INDEXES.items():
            seed_seconds, seed_index = _median_build(index_cls, "recursive",
                                                     index_set)
            vec_seconds, vec_index = _median_build(index_cls, "vectorized",
                                                   index_set)

            # Identical answers at every scale, whatever the builder.
            _assert_same_index(seed_index, vec_index, queries.values)

            speedup = seed_seconds / vec_seconds
            rows.append([f"{name}/{label}", f"{seed_seconds * 1e3:.1f}",
                         f"{vec_seconds * 1e3:.1f}", f"{speedup:.2f}x"])

            if speedup < required_speedup:
                failures.append(
                    f"{name}/{label}: vectorized build is only {speedup:.2f}x "
                    f"faster than the seed recursive build "
                    f"(required: {required_speedup:.1f}x at {num_series} series)")
            if representative is None:
                representative = (index_cls, index_set)

    report(f"Build: seed recursive vs vectorized ({num_series} series, "
           f"leaf {bench_leaf_size()})",
           format_table(["index", "seed ms", "vec ms", "vec speedup"], rows))
    assert not failures, "\n".join(failures)

    index_cls, index_set = representative
    benchmark(lambda: index_cls(leaf_size=bench_leaf_size()).build(index_set))
