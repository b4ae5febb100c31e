"""Domain example: exact similarity search over a seismic-event archive.

The paper's benchmark is dominated by seismology datasets (ETHZ, Iquique,
LenDB, OBS, SCEDC, STEAD, ...): given a new seismogram, find the archived
waveforms most similar to it — e.g. to match a new event against known events
from the same fault.  This example builds indexes over stand-ins for two
seismic collections with different frequency content, compares SOFA against
MESSI and the UCR-suite scan, and reports how much work each method does.

Run with::

    python examples/seismic_similarity_search.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import MessiIndex, SofaIndex, UcrSuiteScan, load_dataset, split_queries


def evaluate(name: str, num_series: int = 4000, num_queries: int = 15) -> None:
    dataset = load_dataset(name, num_series=num_series, seed=11)
    index_set, queries = split_queries(dataset, num_queries=num_queries)
    high_frequency = dataset.metadata.get("high_frequency", False)
    print(f"\n=== {name} ({'high' if high_frequency else 'low'}-frequency waveforms, "
          f"{index_set.num_series} archived events) ===")

    methods = {
        "SOFA": SofaIndex(leaf_size=100),
        "MESSI": MessiIndex(leaf_size=100),
        "UCR-suite scan": UcrSuiteScan(),
    }
    reference_distances = None
    for label, method in methods.items():
        start = time.perf_counter()
        method.build(index_set)
        build_time = time.perf_counter() - start

        distances = []
        exact_work = 0
        start = time.perf_counter()
        for query in queries.values:
            result = method.knn(query, k=1)
            if hasattr(result, "stats") and hasattr(result.stats, "exact_distances"):
                exact_work += result.stats.exact_distances
            distances.append(float(result.distances[0]))
        query_time = (time.perf_counter() - start) / queries.num_series

        if reference_distances is None:
            reference_distances = distances
        else:
            assert np.allclose(distances, reference_distances), "methods disagree!"

        work = (f", {exact_work / queries.num_series:.0f} exact distances/query"
                if exact_work else "")
        print(f"  {label:15s} build {build_time:6.2f}s   "
              f"query {1000 * query_time:7.2f} ms{work}")


def main() -> None:
    # A high-frequency network (large SOFA gains in the paper) and a
    # low-frequency catalogue (modest gains).
    evaluate("LenDB")
    evaluate("ETHZ")
    print("\nAll three methods returned identical (exact) nearest neighbours.")


if __name__ == "__main__":
    main()
