"""Evaluation substrate: TLB, per-query timings, ranks, table output, workload runner."""

from repro.evaluation.ranks import (
    CriticalDifferenceResult,
    compute_average_ranks,
    critical_difference,
    friedman_test,
    holm_correction,
    wilcoxon_pvalue,
)
from repro.evaluation.reporting import format_table
from repro.evaluation.timing import QueryTimings
from repro.evaluation.tlb import (
    ABLATION_METHODS,
    TlbRecord,
    evaluate_tlb,
    make_ablation_method,
    mean_tlb_table,
    tlb_study,
)
from repro.evaluation.workloads import (
    METHODS,
    BuildRecord,
    QueryRecord,
    WorkloadResult,
    WorkloadRunner,
)

__all__ = [
    "ABLATION_METHODS",
    "BuildRecord",
    "CriticalDifferenceResult",
    "METHODS",
    "QueryRecord",
    "QueryTimings",
    "TlbRecord",
    "WorkloadResult",
    "WorkloadRunner",
    "compute_average_ranks",
    "critical_difference",
    "evaluate_tlb",
    "format_table",
    "friedman_test",
    "holm_correction",
    "make_ablation_method",
    "mean_tlb_table",
    "tlb_study",
    "wilcoxon_pvalue",
]
