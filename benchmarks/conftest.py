"""Session fixtures shared by all benchmark modules.

The expensive work (building every index on every dataset and answering the
query workload) happens once per session in the fixtures below; the individual
benchmark modules then slice the cached results into the paper's tables and
figures and use ``pytest-benchmark`` to time one representative operation each.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))

from common import (  # noqa: E402
    SWEEP_DATASETS,
    bench_leaf_size,
    bench_num_queries,
    bench_num_series,
    collected_reports,
    gemini_tree_path,
    write_json_results,
)

from repro.datasets.registry import dataset_names, load_dataset  # noqa: E402
from repro.evaluation.workloads import WorkloadRunner  # noqa: E402


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json", default=os.environ.get("REPRO_BENCH_JSON"),
        metavar="PATH",
        help="write machine-readable benchmark results to PATH as JSON "
             "(defaults to $REPRO_BENCH_JSON when set)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print every queued paper-style table after the benchmark run."""
    del exitstatus
    json_path = config.getoption("--bench-json")
    if json_path:
        write_json_results(json_path)
        terminalreporter.write_line(
            f"benchmark JSON results written to {json_path}")
    reports = collected_reports()
    if not reports:
        return
    terminalreporter.section("paper-style benchmark reports")
    for title, text in reports:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"=== {title} ===")
        for line in text.splitlines():
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def benchmark_suite():
    """All 17 datasets (scaled) split into index and query sets."""
    suite = {}
    for offset, name in enumerate(dataset_names()):
        dataset = load_dataset(name, num_series=bench_num_series(), seed=100 + offset)
        suite[name] = dataset.split(bench_num_queries(), rng=np.random.default_rng(offset))
    return suite


@pytest.fixture(scope="session")
def sweep_suite(benchmark_suite):
    """The smaller dataset subset used by parameter sweeps."""
    return {name: benchmark_suite[name] for name in SWEEP_DATASETS}


@pytest.fixture(scope="session")
def workload_runner():
    return WorkloadRunner(leaf_size=bench_leaf_size())


@pytest.fixture(scope="session")
def workload_1nn(benchmark_suite, workload_runner):
    """The Table II workload: every method, every dataset, 1-NN, with the
    tree indexes on their trees (see :func:`common.gemini_tree_path`)."""
    with gemini_tree_path():
        return workload_runner.run_suite(benchmark_suite, k_values=(1,))


@pytest.fixture(scope="session")
def workload_knn(sweep_suite, workload_runner):
    """The Table III / Figure 9 workload: k sweep on the sweep subset, with
    the tree indexes on their trees."""
    with gemini_tree_path():
        return workload_runner.run_suite(
            sweep_suite, methods=("FAISS", "MESSI", "SOFA"),
            k_values=(1, 3, 5, 10, 20, 50))
