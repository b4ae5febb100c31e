"""Two-stage index construction with the vectorized build pipeline.

The paper's construction pipeline (Figure 5) has two stages — chunked
summarization and independent per-root-subtree growth.  Both run on one
thread here (the GIL made a threaded build slower), and the speed comes from
vectorization instead:

1. the default *vectorized* builder grows each subtree a whole frontier of
   nodes per pass instead of recursing node by node, several times faster
   than the seed recursive builder,
2. the built index is **bit-identical** for both builders — same tree, same
   snapshots, same ``knn`` / ``knn_batch`` answers.

Run with::

    python examples/parallel_build.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import SofaIndex, load_dataset, split_queries


def timed_build(label: str, dataset, builder: str) -> SofaIndex:
    index = SofaIndex(word_length=16, alphabet_size=256, leaf_size=100,
                      builder=builder)
    start = time.perf_counter()
    index.build(dataset)
    elapsed = time.perf_counter() - start
    timings = index.timings
    print(f"{label:<20} {1000 * elapsed:7.1f} ms wall "
          f"(learn {1000 * timings.learn_time:.1f} ms, "
          f"transform {1000 * timings.transform_time:.1f} ms, "
          f"tree {1000 * timings.tree_time:.1f} ms)")
    return index


def main() -> None:
    dataset = load_dataset("LenDB", num_series=4000, seed=7)
    index_set, queries = split_queries(dataset, num_queries=16)
    print(f"building over {index_set.num_series} series x "
          f"{index_set.series_length} points\n")

    # The seed recursive builder (kept as the reference implementation).
    seed = timed_build("recursive builder", index_set, "recursive")
    # The vectorized frontier builder — the default.
    vectorized = timed_build("vectorized builder", index_set, "vectorized")

    # --- bit-identity: both builds answer exactly the same ------------------
    batch = queries.values
    for left, right in zip(seed.knn_batch(batch, k=5),
                           vectorized.knn_batch(batch, k=5)):
        assert np.array_equal(left.indices, right.indices)
        assert np.array_equal(left.distances, right.distances)
    print("\nboth builds answer 16 x 5-NN queries bit-identically")


if __name__ == "__main__":
    main()
