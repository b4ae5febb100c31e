"""repro — a Python reproduction of the SOFA exact similarity-search system.

The package implements the SymbOlic Fourier Approximation index (SOFA) from
"Fast and Exact Similarity Search in Less than a Blink of an Eye" (ICDE 2025)
together with every substrate it depends on: the SFA and iSAX summarizations,
the MESSI-style tree index, the GEMINI exact-search engine, SIMD-style
lower-bound kernels, scan and brute-force baselines, synthetic stand-ins for
the paper's 17-dataset benchmark, and the evaluation machinery (TLB,
critical-difference ranks, measured build-and-query workloads).

Quickstart
----------
>>> from repro import SofaIndex, load_dataset, split_queries
>>> dataset = load_dataset("LenDB", num_series=500)
>>> index_set, queries = split_queries(dataset, num_queries=10)
>>> index = SofaIndex(leaf_size=50).build(index_set)
>>> result = index.nearest_neighbor(queries[0])
>>> result.nearest_distance >= 0.0
True
"""

from repro.baselines import FlatL2Index, SerialScan, UcrSuiteScan
from repro.core import (
    CorruptionError,
    Dataset,
    PartialResultError,
    ReproError,
    ShardError,
    ValidationError,
    WalError,
    euclidean,
    squared_euclidean,
    tightness_of_lower_bound,
    znormalize,
    znormalize_batch,
)
from repro.datasets import (
    dataset_names,
    generate_ucr_like_suite,
    high_frequency_names,
    load_dataset,
    split_queries,
)
from repro.evaluation import WorkloadRunner, critical_difference, evaluate_tlb, tlb_study
from repro.index import (
    BatchSearcher,
    DynamicIndex,
    ExactSearcher,
    MessiIndex,
    RetryPolicy,
    SearchResult,
    ShardedIndex,
    SofaIndex,
    TreeIndex,
    WriteAheadLog,
    compute_structure_stats,
    load_index,
    save_index,
)
from repro.obs import MetricsRegistry, SlowQueryLog, Trace, get_registry
from repro.transforms import DFT, PAA, SAX, SFA, HierarchicalBins

__version__ = "0.1.0"

__all__ = [
    "BatchSearcher",
    "CorruptionError",
    "DFT",
    "Dataset",
    "DynamicIndex",
    "ExactSearcher",
    "FlatL2Index",
    "HierarchicalBins",
    "MessiIndex",
    "MetricsRegistry",
    "PAA",
    "PartialResultError",
    "SAX",
    "SFA",
    "ReproError",
    "RetryPolicy",
    "SearchResult",
    "SerialScan",
    "ShardError",
    "ShardedIndex",
    "SlowQueryLog",
    "SofaIndex",
    "Trace",
    "TreeIndex",
    "UcrSuiteScan",
    "ValidationError",
    "WalError",
    "WorkloadRunner",
    "WriteAheadLog",
    "__version__",
    "compute_structure_stats",
    "critical_difference",
    "dataset_names",
    "euclidean",
    "evaluate_tlb",
    "generate_ucr_like_suite",
    "get_registry",
    "high_frequency_names",
    "load_dataset",
    "load_index",
    "save_index",
    "split_queries",
    "squared_euclidean",
    "tightness_of_lower_bound",
    "tlb_study",
    "znormalize",
    "znormalize_batch",
]
