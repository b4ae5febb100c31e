"""Per-query timing summaries used by the workload runner and the benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class QueryTimings:
    """Collection of per-query times with the summary statistics the paper reports."""

    times: list[float] = field(default_factory=list)

    def add(self, seconds: float) -> None:
        self.times.append(float(seconds))

    @property
    def mean(self) -> float:
        return float(np.mean(self.times)) if self.times else 0.0

    @property
    def median(self) -> float:
        return float(np.median(self.times)) if self.times else 0.0

    @property
    def total(self) -> float:
        return float(np.sum(self.times)) if self.times else 0.0

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.times, q)) if self.times else 0.0

    def as_milliseconds(self) -> dict:
        """Mean/median in milliseconds, the unit used by Tables II-IV."""
        return {"mean_ms": 1000.0 * self.mean, "median_ms": 1000.0 * self.median}
