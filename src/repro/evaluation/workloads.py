"""Workload runner: build every method on a dataset, run queries, measure.

This module glues the indexes, baselines and dataset registry into the
experiment loop used by most benchmarks: for each dataset and method it builds
the structure, answers a set of held-out queries, and records the measured
build phases, the measured wall time of every query and the deterministic work
behind it (exact distances and per-series lower bounds computed).

Method names follow the paper: ``"SOFA"``, ``"MESSI"``, ``"FAISS"`` (the
FlatL2 analogue) and ``"UCR-SUITE"`` (the parallel-scan analogue).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.flatl2 import FlatL2Index
from repro.baselines.ucr_suite import UcrSuiteScan
from repro.core.errors import InvalidParameterError
from repro.core.series import Dataset
from repro.evaluation.timing import QueryTimings
from repro.index.messi import MessiIndex
from repro.index.sofa import SofaIndex
from repro.index.tree import BuildTimings

#: Methods understood by the workload runner, in the order the paper lists them.
METHODS = ("FAISS", "MESSI", "SOFA", "UCR-SUITE")


@dataclass
class BuildRecord:
    """Measured construction cost of one method on one dataset.

    The phases are the tree indexes' :class:`~repro.index.tree.BuildTimings`
    (zero for the baselines, which have no phases); ``wall_time`` is the
    whole ``build`` call.
    """

    dataset: str
    method: str
    learn_time: float
    transform_time: float
    tree_time: float
    wall_time: float


@dataclass
class QueryRecord:
    """Measured queries of one method on one dataset at one k.

    One entry per query in each list: its wall time in seconds, and the
    exact distances and per-series lower bounds it computed.
    """

    dataset: str
    method: str
    k: int
    query_times: list[float] = field(default_factory=list)
    exact_distances: list[int] = field(default_factory=list)
    series_lower_bounds: list[int] = field(default_factory=list)
    exact_correct: bool = True

    @property
    def mean_time(self) -> float:
        return float(np.mean(self.query_times)) if self.query_times else 0.0

    @property
    def median_time(self) -> float:
        return float(np.median(self.query_times)) if self.query_times else 0.0

    @property
    def mean_exact_distances(self) -> float:
        return float(np.mean(self.exact_distances)) if self.exact_distances else 0.0


@dataclass
class WorkloadResult:
    """All build and query records produced by one runner invocation."""

    build_records: list[BuildRecord] = field(default_factory=list)
    query_records: list[QueryRecord] = field(default_factory=list)

    def query_record(self, dataset: str, method: str, k: int = 1) -> QueryRecord:
        for record in self.query_records:
            if record.dataset == dataset and record.method == method and record.k == k:
                return record
        raise KeyError(f"no query record for {dataset}/{method}/k={k}")

    def _records(self, method: str, k: int) -> list[QueryRecord]:
        return [record for record in self.query_records
                if record.method == method and record.k == k]

    def mean_query_times(self, method: str, k: int = 1) -> QueryTimings:
        """Every measured query time of ``method`` at ``k``, over all datasets."""
        timings = QueryTimings()
        for record in self._records(method, k):
            timings.times.extend(record.query_times)
        return timings

    def mean_exact_distances(self, method: str, k: int = 1) -> float:
        """Mean exact distances per query of ``method`` at ``k``, over all datasets."""
        counts = [count for record in self._records(method, k)
                  for count in record.exact_distances]
        return float(np.mean(counts)) if counts else 0.0


class WorkloadRunner:
    """Runs the paper's build-then-query workload on scaled-down datasets.

    The tree indexes build and search on one thread, so every time is one
    uncontended thread's and every work count is independent of thread
    timing.

    Parameters
    ----------
    leaf_size:
        Leaf capacity of the tree indexes.
    word_length, alphabet_size:
        Summarization parameters (16 and 256 in the paper).
    sofa_kwargs:
        Extra keyword arguments forwarded to :class:`SofaIndex` (binning,
        sampling fraction, …), used by the ablation benchmarks.
    """

    def __init__(self, leaf_size: int = 100, word_length: int = 16,
                 alphabet_size: int = 256, sofa_kwargs: dict | None = None) -> None:
        self.leaf_size = leaf_size
        self.word_length = word_length
        self.alphabet_size = alphabet_size
        self.sofa_kwargs = dict(sofa_kwargs or {})

    # --------------------------------------------------------- method setup

    def make_method(self, method: str):
        """Instantiate one of the four competitors with the runner's parameters."""
        if method == "SOFA":
            return SofaIndex(word_length=self.word_length, alphabet_size=self.alphabet_size,
                             leaf_size=self.leaf_size, **self.sofa_kwargs)
        if method == "MESSI":
            return MessiIndex(word_length=self.word_length, alphabet_size=self.alphabet_size,
                              leaf_size=self.leaf_size)
        if method == "FAISS":
            return FlatL2Index()
        if method == "UCR-SUITE":
            return UcrSuiteScan()
        raise InvalidParameterError(f"unknown method '{method}'; expected one of {METHODS}")

    # --------------------------------------------------------------- query

    def _measure_queries(self, record: QueryRecord, instance, queries: Dataset,
                         reference: "list[tuple[int, float]] | None") -> None:
        """Answer every query once, filling ``record`` with times and work."""
        k = record.k
        if record.method == "FAISS":
            # FlatL2 answers the whole workload in mini-batches; each query is
            # charged an equal share of the search's wall time.
            start = time.perf_counter()
            batch = instance.search(queries.values, k=k)
            share = (time.perf_counter() - start) / max(1, queries.num_series)
            record.query_times = [share] * queries.num_series
            record.exact_distances = [instance.dataset.num_series] * queries.num_series
            record.series_lower_bounds = [0] * queries.num_series
            nearest = batch.distances[:, 0].tolist()
        else:
            nearest = []
            for query in queries.values:
                if record.method == "UCR-SUITE":
                    start = time.perf_counter()
                    result = instance.knn(query, k=k)
                    record.query_times.append(time.perf_counter() - start)
                    record.series_lower_bounds.append(0)
                else:
                    result = instance.knn(query, k=k)
                    record.query_times.append(result.stats.wall_time_s)
                    record.series_lower_bounds.append(result.stats.series_lower_bounds)
                record.exact_distances.append(result.stats.exact_distances)
                nearest.append(float(result.distances[0]))
        if reference is not None:
            record.exact_correct = all(
                self._matches_reference(distance, expected)
                for distance, (_, expected) in zip(nearest, reference))

    @staticmethod
    def _matches_reference(distance: float, reference_distance: float,
                           rtol: float = 1e-6, atol: float = 1e-8) -> bool:
        return bool(np.isclose(distance, reference_distance, rtol=rtol, atol=atol))

    # ----------------------------------------------------------------- run

    def run_dataset(self, dataset: Dataset, queries: Dataset,
                    methods: tuple[str, ...] = METHODS, k_values: tuple[int, ...] = (1,),
                    reference: "list[tuple[int, float]] | None" = None) -> WorkloadResult:
        """Build every method once and answer every query at every k.

        ``reference`` holds the brute-force 1-NN ``(row, distance)`` of each
        query; every method's nearest distance is checked against it.
        """
        result = WorkloadResult()
        for method in methods:
            instance = self.make_method(method)
            start = time.perf_counter()
            instance.build(dataset)
            wall_time = time.perf_counter() - start
            # Only the tree indexes have phases; the baselines report zeros.
            timings = getattr(instance, "timings", None) or BuildTimings()
            result.build_records.append(BuildRecord(
                dataset=dataset.name, method=method,
                learn_time=timings.learn_time, transform_time=timings.transform_time,
                tree_time=timings.tree_time, wall_time=wall_time,
            ))
            for k in k_values:
                record = QueryRecord(dataset=dataset.name, method=method, k=k)
                self._measure_queries(record, instance, queries, reference)
                result.query_records.append(record)
        return result

    def run_suite(self, suite: "dict[str, tuple[Dataset, Dataset]]",
                  methods: tuple[str, ...] = METHODS,
                  k_values: tuple[int, ...] = (1,)) -> WorkloadResult:
        """Run :meth:`run_dataset` over a named suite of (index, query) pairs."""
        combined = WorkloadResult()
        for _, (dataset, queries) in suite.items():
            partial = self.run_dataset(dataset, queries, methods=methods, k_values=k_values)
            combined.build_records.extend(partial.build_records)
            combined.query_records.extend(partial.query_records)
        return combined
