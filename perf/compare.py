"""Compare two sets of benchmark results.

    python3 perf/compare.py OLD_DIR NEW_DIR

Each directory holds the result files ``perf/run.py --out DIR`` wrote.  One
row per (workload, end-to-end metric): both medians, the change as a share of
the old median, the metric's bound from ``BENCHMARK.json`` and a verdict —

``ok``          the new median is not worse than the old by more than the bound
``regressed``   it is
``unresolved``  the run-to-run spread (inter-quartile distance over the
                median, the wider of the two sets) exceeds the bound, so the
                runs cannot tell

Exits non-zero on any ``regressed`` row, or when a workload fails more
operations than before.  Spread needs at least two result sets per directory
(``perf/run.py --repeats N``); with one it reads 0.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perf.harness import REPO_ROOT, median, quartile_spread  # noqa: E402


def load_results(directory, traced: bool = False) -> dict:
    """``{workload: [result report, ...]}`` of one directory's untraced
    (end-to-end) or traced (per-layer) runs."""
    results = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        report = json.loads(path.read_text())
        if "workload" in report and bool(report.get("traced")) == traced:
            results[report["workload"]].append(report)
    return results


def metric_medians(reports: list) -> dict:
    """Median of every metric over the runs of one workload."""
    return {name: median([report["metrics"][name]["value"]
                          for report in reports])
            for name in reports[0]["metrics"]}


def verdict(old_values, new_values, better: str, bound: float):
    """``(old median, new median, worsening, spread, verdict)``."""
    old, new = median(old_values), median(new_values)
    change = (new - old) / old if old else 0.0
    worsening = change if better == "lower" else -change
    spread = max(quartile_spread(old_values), quartile_spread(new_values))
    if spread > bound:
        outcome = "unresolved"
    elif worsening > bound:
        outcome = "regressed"
    else:
        outcome = "ok"
    return old, new, worsening, spread, outcome


def compare(old_dir, new_dir, benchmark: dict) -> "tuple[list, bool]":
    """Rows for every (workload, metric) and whether the comparison fails."""
    old_results, new_results = load_results(old_dir), load_results(new_dir)
    rows, failing = [], False
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        old_runs, new_runs = old_results.get(workload), new_results.get(workload)
        if not old_runs or not new_runs:
            rows.append((workload, "-", "missing", "", "", "", "", "missing"))
            failing = True
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            old, new, worsening, spread, outcome = verdict(
                [run["metrics"][name]["value"] for run in old_runs],
                [run["metrics"][name]["value"] for run in new_runs],
                metric["better"], metric["bound"])
            failing |= outcome == "regressed"
            rows.append((workload, name, f"{old:.4f}", f"{new:.4f}",
                         f"{worsening:+.1%} of {old:.4f} {metric['unit']}",
                         f"{spread:.1%}", f"{metric['bound']:.0%}", outcome))
        old_failed = median([run["failed"] / run["attempted"]
                             for run in old_runs])
        new_failed = median([run["failed"] / run["attempted"]
                             for run in new_runs])
        worse = new_failed > old_failed
        failing |= worse
        rows.append((workload, "failed_ops_ratio", f"{old_failed:.6f}",
                     f"{new_failed:.6f}", "", "", "0 (absolute)",
                     "regressed" if worse else "ok"))
    return rows, failing


def main(argv: "list[str] | None" = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    rows, failing = compare(arguments[0], arguments[1], benchmark)
    header = ("workload", "metric", "old median", "new median",
              "worse by (base)", "spread", "bound", "verdict")
    widths = [max(len(str(row[column])) for row in [header] + rows)
              for column in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
