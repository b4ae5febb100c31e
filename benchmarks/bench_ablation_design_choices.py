"""Ablation — the design choices that make SOFA fast.

DESIGN.md calls out three SOFA design choices on top of the MESSI tree:
variance-based coefficient selection, equi-width (vs. equi-depth) learned
binning, and the learned quantization itself (vs. SAX's fixed Gaussian bins).
This benchmark removes them one at a time and measures how much pruning work
(exact distance computations per query) each variant needs on a high-frequency
dataset — the mechanism behind the speed-ups of Figure 12.  Every variant
walks its tree (``gemini_tree_path``), so the counts are lower-bound pruning.
"""

from __future__ import annotations

import numpy as np

from common import bench_leaf_size, gemini_tree_path, report

from repro.evaluation.reporting import format_table
from repro.index.messi import MessiIndex
from repro.index.sofa import SofaIndex


def _mean_exact_distances(index, queries) -> float:
    with gemini_tree_path():
        return float(np.mean([
            index.nearest_neighbor(query).stats.exact_distances
            for query in queries.values]))


def test_ablation_design_choices(sweep_suite, benchmark):
    index_set, queries = sweep_suite["LenDB"]
    variants = {
        "SOFA (EW + VAR)": SofaIndex(leaf_size=bench_leaf_size()),
        "SOFA EW, no VAR": SofaIndex(leaf_size=bench_leaf_size(), variance_selection=False),
        "SOFA ED + VAR": SofaIndex(leaf_size=bench_leaf_size(), binning="equi-depth"),
        "MESSI (SAX)": MessiIndex(leaf_size=bench_leaf_size()),
    }
    rows = []
    work = {}
    for label, index in variants.items():
        index.build(index_set)
        exact = _mean_exact_distances(index, queries)
        work[label] = exact
        rows.append([label, exact, 100.0 * exact / index_set.num_series])

    rows.sort(key=lambda row: row[1])
    report("Design-choice ablation — exact distance computations per 1-NN query "
           "(LenDB stand-in, lower is better)",
           format_table(["variant", "exact distances / query", "% of dataset"],
                        rows, float_format="{:.1f}"))

    # The full SOFA configuration does the least refinement work; removing the
    # variance-based selection hurts on a dataset whose energy sits in higher
    # coefficients; MESSI (fixed Gaussian bins on PAA) does the most work.
    assert work["SOFA (EW + VAR)"] <= work["SOFA EW, no VAR"]
    assert work["SOFA (EW + VAR)"] <= work["MESSI (SAX)"]
    assert work["MESSI (SAX)"] >= max(work["SOFA (EW + VAR)"], work["SOFA ED + VAR"])

    sofa = variants["SOFA (EW + VAR)"]
    benchmark(lambda: sofa.nearest_neighbor(queries[0]))
