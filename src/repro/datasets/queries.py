"""Query-set generation.

The paper pairs every dataset with 100 held-out query series that are never
indexed; :func:`split_queries` holds out rows of the generated dataset, which
is what the paper does with the real collections.
"""

from __future__ import annotations

import numpy as np

from repro.core.series import Dataset


def split_queries(dataset: Dataset, num_queries: int = 100,
                  seed: int = 0) -> tuple[Dataset, Dataset]:
    """Hold out ``num_queries`` rows as the query set; return (index, queries)."""
    return dataset.split(num_queries, rng=np.random.default_rng(seed))
