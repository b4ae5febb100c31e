"""Index statistics: tree structure metrics (Figure 8) and search-stats merging."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.core.errors import IndexError_
from repro.index.tree import TreeIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (search imports stats lazily)
    from repro.index.search import SearchStats


def merge_search_stats(into: "SearchStats",
                       parts: "Iterable[SearchStats]") -> "SearchStats":
    """Merge per-shard search stats into one deterministic query report.

    The sharded gather gives every shard search its own
    :class:`~repro.index.search.SearchStats`; this merge folds them into the
    query-level report afterwards.  ``parts`` must be ordered by shard, never
    by completion time, so the merge is deterministic; each shard searches
    on its own best-so-far, so the merged counters are too.  Counters and
    ``refinement_time`` sum; the phases ``approximate_time`` and
    ``traversal_time`` and the whole-query ``wall_time_s`` belong to ``into``
    and are left untouched — a shard search's lifetime is contained in the
    query's wall time, not added to it.
    """
    for part in parts:
        into.leaves_visited += part.leaves_visited
        into.leaves_pruned_in_queue += part.leaves_pruned_in_queue
        into.nodes_pruned += part.nodes_pruned
        into.series_lower_bounds += part.series_lower_bounds
        into.exact_distances += part.exact_distances
        into.refinement_time += part.refinement_time
        # Any shard hitting the search deadline marks the whole query.
        into.timed_out = into.timed_out or part.timed_out
    return into


def summarize_search_stats(parts: "Iterable[SearchStats]") -> dict:
    """Aggregate per-query search stats into one serving-level report.

    This is the ``/stats`` plumbing of the HTTP layer: per-query
    :class:`~repro.index.search.SearchStats` are folded into JSON-ready
    totals — queries answered, timed-out count, work counters, and the mean
    pruning ratio over the aggregated work (exact distances over series
    served, the same definition as the per-query property).  Unlike
    :func:`merge_search_stats` this never mutates its inputs and reports
    *across* queries rather than across one query's shards.

    An **empty iterable** yields the well-formed zeroed summary: every
    counter 0, ``wall_time_s``/``engine_time_s`` 0.0, and the ratio fields
    at their vacuous identities (``pruning_ratio`` 0.0, ``coverage`` 1.0) —
    the same keys and types as a populated report, so consumers never need
    an emptiness special case.  Wall times *sum* across queries (total
    caller-observed latency; divide by ``queries`` for the mean) and the
    worst single query is reported as ``max_wall_time_s``.
    """
    queries = timed_out = partial_answers = 0
    series_served = lower_bounds = exact_distances = leaves_visited = 0
    shards_total = shards_answered = 0
    total_time = 0.0
    wall_time = 0.0
    max_wall_time = 0.0
    for part in parts:
        queries += 1
        timed_out += int(part.timed_out)
        partial_answers += int(part.partial)
        series_served += part.num_series
        lower_bounds += part.series_lower_bounds
        exact_distances += part.exact_distances
        leaves_visited += part.leaves_visited
        shards_total += part.shards_total
        shards_answered += part.shards_answered
        total_time += part.total_time
        wall_time += part.wall_time_s
        max_wall_time = max(max_wall_time, part.wall_time_s)
    return {
        "queries": queries,
        "timed_out": timed_out,
        "partial_answers": partial_answers,
        "series_served": series_served,
        "series_lower_bounds": lower_bounds,
        "exact_distances": exact_distances,
        "leaves_visited": leaves_visited,
        "shards_total": shards_total,
        "shards_answered": shards_answered,
        "engine_time_s": total_time,
        "wall_time_s": wall_time,
        "max_wall_time_s": max_wall_time,
        "pruning_ratio": (1.0 - exact_distances / series_served
                          if series_served else 0.0),
        # Coverage over the scatters actually performed: 1.0 when every
        # sharded query gathered all its shards (and when nothing is sharded).
        "coverage": (shards_answered / shards_total if shards_total else 1.0),
    }


@dataclass
class IndexStructureStats:
    """Aggregate structure metrics reported in Figure 8."""

    num_series: int
    num_subtrees: int
    num_nodes: int
    num_leaves: int
    average_depth: float
    max_depth: int
    average_leaf_size: float
    leaf_fill_ratio: float

    def as_dict(self) -> dict:
        return {
            "num_series": self.num_series,
            "num_subtrees": self.num_subtrees,
            "num_nodes": self.num_nodes,
            "num_leaves": self.num_leaves,
            "average_depth": self.average_depth,
            "max_depth": self.max_depth,
            "average_leaf_size": self.average_leaf_size,
            "leaf_fill_ratio": self.leaf_fill_ratio,
        }


def compute_structure_stats(index: TreeIndex) -> IndexStructureStats:
    """Average depth, leaf fill and root fanout of a built index."""
    if not index.is_built:
        raise IndexError_("the index must be built before computing statistics")
    leaves = index.leaves()
    leaf_sizes = np.array([leaf.size for leaf in leaves], dtype=np.float64)
    depths = []
    for subtree in index.root_children.values():
        depths.extend(_leaf_depths(subtree, 1))
    depths = np.asarray(depths, dtype=np.float64)
    num_nodes = sum(subtree.count_nodes() for subtree in index.root_children.values())
    return IndexStructureStats(
        num_series=index.num_series,
        num_subtrees=len(index.root_children),
        num_nodes=int(num_nodes),
        num_leaves=len(leaves),
        average_depth=float(depths.mean()) if depths.size else 0.0,
        max_depth=int(depths.max()) if depths.size else 0,
        average_leaf_size=float(leaf_sizes.mean()) if leaf_sizes.size else 0.0,
        leaf_fill_ratio=float(leaf_sizes.mean() / index.leaf_size) if leaf_sizes.size else 0.0,
    )


def _leaf_depths(node, depth: int) -> list[int]:
    if node.is_leaf():
        return [depth]
    depths: list[int] = []
    for child in node.children:
        depths.extend(_leaf_depths(child, depth + 1))
    return depths
