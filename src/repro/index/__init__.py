"""Tree indexes and search engines: MESSI (iSAX), SOFA (SFA) and the exact
searchers over them.

Two entry points answer exact k-NN queries over a built
:class:`~repro.index.tree.TreeIndex`:

* :class:`~repro.index.search.ExactSearcher` — one query at a time, the
  paper's exploratory-analysis scenario (``knn`` / ``nearest_neighbor``),
  on one thread.  It holds the one GEMINI tree traversal.
* :class:`~repro.index.batch_search.BatchSearcher` — whole query workloads in
  one call (``knn_batch``).  On the certified flat path the batch shares one
  GEMM estimate, which is where batching pays; on the tree path it runs
  ``ExactSearcher``'s engine per query, so the answers and work counters are
  ``knn``'s and a batch costs what the loop costs.
  ``ExactSearcher.knn_batch`` and the index wrappers delegate to it.

Nothing threads a query, a batch or a tree build: in this Python
reproduction the GIL makes that a net loss, so multi-core parallelism comes
from :mod:`repro.cluster`'s shard processes.

Both entry points can serve a *mutating* collection through
:class:`~repro.index.dynamic.DynamicIndex`: buffered inserts and tombstone
deletes fused into the refinement loops, periodic compaction through the
build pipeline, and mid-ingest snapshots (format v2).

Durability: snapshots are written crash-consistently (temp directory +
fsync + atomic rename; format v3 adds per-array and manifest checksums,
verified on load through the ``verify`` knob), and a
:class:`~repro.index.wal.WriteAheadLog` makes individual dynamic writes
survive a crash between snapshots — ``DynamicIndex.recover`` replays the
log over the last snapshot bit-identically.
"""

from repro.index.batch_search import BatchSearcher
from repro.index.buffers import SummaryBuffer, fill_buffers
from repro.index.dynamic import DeltaView, DynamicIndex
from repro.index.messi import MessiIndex
from repro.index.node import InnerNode, LeafNode, Node, root_child_word
from repro.index.persistence import (
    FORMAT_VERSION,
    load_dynamic,
    load_index,
    load_tree,
    read_manifest,
    save_dynamic,
    save_index,
    save_tree,
)
from repro.index.search import (
    BestSoFar,
    ExactSearcher,
    SearchResult,
    SearchStats,
)
from repro.index.shard_health import (
    HEALTHY,
    QUARANTINED,
    SHARD_STATES,
    SUSPECT,
    HealthPolicy,
    RetryPolicy,
    ShardHealthBoard,
)
from repro.index.sharded import DEGRADED_MODES, ShardedIndex
from repro.index.sofa import SofaIndex
from repro.index.stats import (
    IndexStructureStats,
    compute_structure_stats,
    merge_search_stats,
    summarize_search_stats,
)
from repro.index.tree import BuildTimings, TreeIndex
from repro.index.wal import WalRecord, WriteAheadLog, read_records

__all__ = [
    "BatchSearcher",
    "BestSoFar",
    "BuildTimings",
    "DEGRADED_MODES",
    "DeltaView",
    "DynamicIndex",
    "ExactSearcher",
    "FORMAT_VERSION",
    "HEALTHY",
    "HealthPolicy",
    "IndexStructureStats",
    "InnerNode",
    "LeafNode",
    "MessiIndex",
    "Node",
    "QUARANTINED",
    "RetryPolicy",
    "SHARD_STATES",
    "SUSPECT",
    "SearchResult",
    "SearchStats",
    "ShardHealthBoard",
    "ShardedIndex",
    "SofaIndex",
    "SummaryBuffer",
    "TreeIndex",
    "WalRecord",
    "WriteAheadLog",
    "compute_structure_stats",
    "fill_buffers",
    "load_dynamic",
    "load_index",
    "load_tree",
    "merge_search_stats",
    "read_manifest",
    "read_records",
    "root_child_word",
    "save_dynamic",
    "save_index",
    "save_tree",
    "summarize_search_stats",
]
