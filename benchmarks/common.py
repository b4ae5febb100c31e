"""Shared helpers for the benchmark harness.

Every benchmark module reproduces one table or figure of the paper.  The
measured numbers are rendered as plain-text tables; because pytest captures
stdout, the tables are collected here and emitted from a
``pytest_terminal_summary`` hook (see ``conftest.py``) so they always appear in
the benchmark transcript (``bench_output.txt``).

Scale knobs: the environment variables ``REPRO_BENCH_SERIES`` and
``REPRO_BENCH_QUERIES`` control how many series per dataset and how many
queries per dataset the harness uses (defaults keep the whole suite at a few
minutes on a laptop).  Absolute times are therefore not comparable with the
paper's 100M-series server runs; the *relative* behaviour (who wins, by how
much, where crossovers happen) is what the harness reproduces.

Machine-readable output: ``--bench-json PATH`` (or the ``REPRO_BENCH_JSON``
environment variable) writes every metric queued through
:func:`record_result` as one JSON document, which is what the CI smoke jobs
archive as ``BENCH_*.json`` artifacts.
"""

from __future__ import annotations

import json
import os
import platform
import time
from contextlib import contextmanager

import repro.index.search

#: Registry of (title, text) report blocks printed in the terminal summary.
_REPORTS: list[tuple[str, str]] = []

#: Registry of machine-readable per-benchmark metric dicts (--bench-json).
_RESULTS: list[dict] = []


def available_cores() -> int:
    """Hardware cores usable by this process (affinity-aware).

    Recorded in the ``--bench-json`` run context, and sizes the serving
    benchmark's client pool.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def report(title: str, text: str) -> None:
    """Queue a formatted table for the end-of-run benchmark report."""
    _REPORTS.append((title, text))


def collected_reports() -> list[tuple[str, str]]:
    return list(_REPORTS)


def record_result(name: str, **metrics) -> None:
    """Queue one benchmark's machine-readable metrics for ``--bench-json``.

    ``metrics`` values must be JSON-serializable scalars (numbers, strings,
    booleans); each call becomes one entry in the written document's
    ``results`` list.
    """
    _RESULTS.append({"benchmark": name, "metrics": dict(metrics)})


def collected_results() -> list[dict]:
    return list(_RESULTS)


def write_json_results(path: str) -> None:
    """Write every recorded result (plus run context) as one JSON document.

    The document is self-describing — the scale knobs in effect and the
    machine it ran on ride along — so a CI artifact can be compared across
    runs without reconstructing the environment from job logs.
    """
    payload = {
        "schema": "repro-bench/1",
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "platform": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "cores": available_cores(),
        },
        "scale": {
            "num_series": bench_num_series(),
            "num_queries": bench_num_queries(),
            "leaf_size": bench_leaf_size(),
        },
        "results": collected_results(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


@contextmanager
def gemini_tree_path():
    """Search every tree index by walking its tree, as the paper does.

    The paper's work counts (exact distances per query) measure how well an
    index's lower bound prunes.  A shattered tree otherwise takes the
    certified flat path, which estimates every distance with BLAS, computes
    no lower bound, and refines only about ``k`` rows, so its count says
    nothing about the bound.
    """
    saved = repro.index.search.FLAT_REFINEMENT_THRESHOLD
    repro.index.search.FLAT_REFINEMENT_THRESHOLD = 0.0
    try:
        yield
    finally:
        repro.index.search.FLAT_REFINEMENT_THRESHOLD = saved


def bench_num_series() -> int:
    """Number of series per benchmark dataset (paper: 0.5M - 100M, scaled down)."""
    return int(os.environ.get("REPRO_BENCH_SERIES", "4000"))


def bench_num_queries() -> int:
    """Number of queries per dataset (paper: 100, scaled down)."""
    return int(os.environ.get("REPRO_BENCH_QUERIES", "10"))


def bench_leaf_size() -> int:
    """Leaf capacity used by the tree indexes (paper: 20000, scaled down)."""
    return int(os.environ.get("REPRO_BENCH_LEAF_SIZE", "100"))


#: The subset of datasets used by the more expensive sweeps (k-NN, leaf size,
#: sampling) so the full harness stays laptop-sized; the 1-NN and TLB studies
#: cover all 17 datasets.
SWEEP_DATASETS = ("LenDB", "SCEDC", "ETHZ", "SALD", "SIFT1b", "Astro")
