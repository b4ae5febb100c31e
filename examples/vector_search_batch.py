"""Domain example: batched exact k-NN over an embedding-vector collection.

The paper compares SOFA against FAISS IndexFlatL2 on vector benchmarks
(SIFT1b, BigANN, Deep1B), processing queries in mini-batches of one query per
core.  This example reproduces that workflow on a SIFT-like stand-in and
contrasts three ways of answering the same exact 10-NN workload:

* the FlatL2 brute-force baseline (mini-batched GEMM over everything),
* SOFA answering queries one at a time (the exploratory-analysis scenario),
* SOFA's batched entry point (``knn_batch``), which on this shattered
  vector tree takes the certified flat path — one GEMM estimate for the
  whole workload — and returns results identical to the sequential loop.

Run with::

    python examples/vector_search_batch.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import FlatL2Index, SofaIndex, load_dataset, split_queries


def main() -> None:
    dataset = load_dataset("SIFT1b", num_series=5000, seed=23)
    index_set, queries = split_queries(dataset, num_queries=64)
    print(f"collection: {index_set.num_series} vectors of dimension "
          f"{index_set.series_length}; {queries.num_series} queries, k=10")

    # FAISS-IndexFlatL2-style brute force with one mini-batch per "core group".
    flat = FlatL2Index(batch_size=36)
    start = time.perf_counter()
    flat.build(index_set)
    print(f"FlatL2 build: {time.perf_counter() - start:.3f}s")

    start = time.perf_counter()
    flat_result = flat.search(queries.values, k=10)
    flat_time = time.perf_counter() - start
    print(f"FlatL2 batch search: {1000 * flat_time / queries.num_series:.2f} ms/query")

    sofa = SofaIndex(leaf_size=150)
    start = time.perf_counter()
    sofa.build(index_set)
    print(f"SOFA build: {time.perf_counter() - start:.3f}s")

    # SOFA one query at a time (the exploratory-analysis scenario).
    start = time.perf_counter()
    pruned_fraction = []
    looped_results = []
    for query in queries.values:
        result = sofa.knn(query, k=10)
        looped_results.append(result)
        pruned_fraction.append(result.stats.pruning_ratio)
    sequential_time = time.perf_counter() - start
    print(f"SOFA sequential search: "
          f"{1000 * sequential_time / queries.num_series:.2f} ms/query, "
          f"mean pruning {100 * np.mean(pruned_fraction):.1f}% of the collection")

    # SOFA answering the whole workload in one batched call.
    start = time.perf_counter()
    batched_results = sofa.knn_batch(queries.values, k=10)
    batched_time = time.perf_counter() - start
    print(f"SOFA batched search:    "
          f"{1000 * batched_time / queries.num_series:.2f} ms/query "
          f"({sequential_time / batched_time:.1f}x the sequential throughput)")

    for row in range(queries.num_series):
        assert np.allclose(batched_results[row].distances,
                           flat_result.distances[row], atol=1e-6), \
            "SOFA and FlatL2 disagree!"
        assert np.array_equal(batched_results[row].indices,
                              looped_results[row].indices), \
            "batched and sequential SOFA disagree!"
        assert np.array_equal(batched_results[row].distances,
                              looped_results[row].distances), \
            "batched and sequential SOFA disagree!"

    print("\nAll three methods returned identical exact 10-NN results for "
          "every query; the batched engine and the sequential loop match "
          "bit for bit.")


if __name__ == "__main__":
    main()
