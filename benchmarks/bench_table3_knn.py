"""Table III and Figure 9 — k-NN query times and work.

The paper reports median query times for k ∈ {1, 3, 5, 10, 20, 50} on 36 cores
and observes that SOFA stays fastest and that all methods scale gracefully with
k.  This benchmark measures the same sweep single-threaded on the
sweep-dataset subset.

Asserted shape: for every k SOFA computes no more exact distances per query
than MESSI (the machine-independent pruning advantage behind the paper's
ordering), and no method's measured median blows up with k.  Both tree
indexes walk their trees, as in ``bench_table2_exact_1nn``.  SOFA's measured
time is not asserted against MESSI's; the per-k time ratios are reported in
the ``--bench-json`` record.
"""

from __future__ import annotations

from common import record_result, report

from repro.evaluation.reporting import format_table
from repro.index.sofa import SofaIndex

K_VALUES = (1, 3, 5, 10, 20, 50)
METHODS = ("FAISS", "MESSI", "SOFA")


def test_table3_knn(workload_knn, sweep_suite, benchmark):
    table = {}
    work = {}
    for method in METHODS:
        for k in K_VALUES:
            timings = workload_knn.mean_query_times(method, k=k)
            table[(method, k)] = timings.as_milliseconds()["median_ms"]
            work[(method, k)] = workload_knn.mean_exact_distances(method, k=k)

    rows = [[method] + [table[(method, k)] for k in K_VALUES] for method in METHODS]
    report("Table III / Figure 9 — measured median k-NN query times (ms, one thread)",
           format_table(["method"] + [f"{k}-NN" for k in K_VALUES], rows,
                        float_format="{:.2f}"))
    rows = [[method] + [work[(method, k)] for k in K_VALUES] for method in METHODS]
    report("Table III — mean exact distances per k-NN query",
           format_table(["method"] + [f"{k}-NN" for k in K_VALUES], rows,
                        float_format="{:.1f}"))
    record_result("table3_knn", **{
        f"sofa_over_messi_time_k{k}": table[("SOFA", k)] / table[("MESSI", k)]
        for k in K_VALUES})

    # Paper shape: SOFA does the least refinement work for every k, and no
    # method blows up with k (50-NN stays within a small factor of 1-NN).
    for k in K_VALUES:
        assert work[("SOFA", k)] <= work[("MESSI", k)]
    for method in METHODS:
        assert table[(method, 50)] <= 25.0 * max(table[(method, 1)], 1e-3)

    index_set, queries = sweep_suite["LenDB"]
    sofa = SofaIndex(leaf_size=100).build(index_set)
    benchmark(lambda: sofa.knn(queries[0], k=10))
