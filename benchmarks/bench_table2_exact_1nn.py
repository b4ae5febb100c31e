"""Table II — mean and median 1-NN query time and work per method.

The paper's headline result: over the 17-dataset mixed workload SOFA answers
exact 1-NN queries fastest at every core count, MESSI second among the index
methods, FAISS in between, and the UCR-suite scan an order of magnitude slower.
This benchmark measures every method single-threaded on the scaled-down
datasets (one query at a time; FAISS is charged an equal share of its
mini-batched search); absolute milliseconds differ from the paper's server.

Asserted shape:

* SOFA computes no more exact distances per query than MESSI, and MESSI no
  more than the scan — the pruning advantage behind the paper's ordering,
  and a count that does not depend on the machine;
* SOFA's measured time is below the scan's.

Both tree indexes walk their trees (``common.gemini_tree_path``, applied by
the ``workload_1nn`` fixture): a shattered tree would otherwise take the
certified flat path, whose count of exact distances (about ``k``) says
nothing about the lower bound.  SOFA's measured time is *not* asserted
against MESSI's; the time ratio is reported in the table and in the
``--bench-json`` record.
"""

from __future__ import annotations

from common import record_result, report

from repro.evaluation.reporting import format_table
from repro.evaluation.workloads import METHODS
from repro.index.sofa import SofaIndex


def test_table2_exact_1nn(workload_1nn, benchmark_suite, benchmark):
    rows = []
    time_ms = {}
    work = {}
    for method in ("FAISS", "MESSI", "SOFA", "UCR-SUITE"):
        stats = workload_1nn.mean_query_times(method, k=1).as_milliseconds()
        time_ms[method] = stats["mean_ms"]
        work[method] = workload_1nn.mean_exact_distances(method, k=1)
        rows.append([method, stats["median_ms"], stats["mean_ms"], work[method]])

    report("Table II — measured 1-NN query times (ms, one thread) and mean exact "
           "distances per query over the 17-dataset mixed workload",
           format_table(["method", "median", "mean", "exact distances"], rows,
                        float_format="{:.2f}"))
    record_result(
        "table2_exact_1nn",
        sofa_mean_ms=time_ms["SOFA"], messi_mean_ms=time_ms["MESSI"],
        faiss_mean_ms=time_ms["FAISS"], ucr_suite_mean_ms=time_ms["UCR-SUITE"],
        sofa_over_messi_time=time_ms["SOFA"] / time_ms["MESSI"],
        sofa_exact_distances=work["SOFA"], messi_exact_distances=work["MESSI"],
        ucr_suite_exact_distances=work["UCR-SUITE"])

    # Paper shape: SOFA does less refinement work than MESSI, which does less
    # than the scan, and SOFA answers faster than the scan.  (The paper also
    # beats FAISS; at reproduction scale the BLAS-backed brute force has
    # almost no per-query overhead, so that margin is not asserted.)
    assert work["SOFA"] <= work["MESSI"] <= work["UCR-SUITE"]
    assert time_ms["SOFA"] <= time_ms["UCR-SUITE"]

    # Every method answered every query; here we only check the records
    # exist for all methods.
    assert {record.method for record in workload_1nn.query_records} == set(METHODS)

    index_set, queries = benchmark_suite["LenDB"]
    sofa = SofaIndex(leaf_size=100).build(index_set)
    benchmark(lambda: sofa.nearest_neighbor(queries[0]))
