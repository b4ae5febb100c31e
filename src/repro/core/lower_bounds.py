"""Lower-bound quality metrics: tightness of lower bound and the bound check.

The ablation study of the paper (Section V-E) ranks summarization techniques by
the *tightness of lower bound* (TLB), defined as the lower-bounding distance
divided by the true distance; it lies in ``[0, 1]`` and higher is better.
"""

from __future__ import annotations

import numpy as np


def tightness_of_lower_bound(lower_bounds: np.ndarray, true_distances: np.ndarray) -> float:
    """Mean TLB over a set of (lower bound, true distance) pairs.

    Pairs with a zero true distance (identical series) are skipped because the
    ratio is undefined there; if every pair is degenerate the TLB is reported
    as 1.0 (the lower bound is trivially tight).
    """
    lower_bounds = np.asarray(lower_bounds, dtype=np.float64)
    true_distances = np.asarray(true_distances, dtype=np.float64)
    if lower_bounds.shape != true_distances.shape:
        raise ValueError("lower_bounds and true_distances must have the same shape")
    valid = true_distances > 0.0
    if not valid.any():
        return 1.0
    ratios = lower_bounds[valid] / true_distances[valid]
    # Floating-point noise can push a valid lower bound epsilon above the true
    # distance; clip so the metric stays in [0, 1].
    return float(np.clip(ratios, 0.0, 1.0).mean())


def check_lower_bound_property(lower_bounds: np.ndarray, true_distances: np.ndarray,
                               rtol: float = 1e-7, atol: float = 1e-9) -> bool:
    """Return True when every lower bound is ≤ its true distance (within tolerance)."""
    lower_bounds = np.asarray(lower_bounds, dtype=np.float64)
    true_distances = np.asarray(true_distances, dtype=np.float64)
    return bool(np.all(lower_bounds <= true_distances * (1.0 + rtol) + atol))
