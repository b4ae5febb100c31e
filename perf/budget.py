"""Print the per-layer budget tables of a result directory as Markdown.

    python3 perf/budget.py perf/baseline

For every workload: the mean latency of one read request of the traced pass,
split into layer self times (median over the directory's traced runs), next
to the untraced ``query_p50_ms`` the shares apply to.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perf.compare import load_results, metric_medians  # noqa: E402
from perf.harness import REPO_ROOT  # noqa: E402
from perf.layers import BUDGET  # noqa: E402


def main(argv: "list[str] | None" = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) != 1:
        sys.exit(__doc__.split("\n\n")[1])
    untraced = load_results(arguments[0])
    traced = load_results(arguments[0], traced=True)
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        if workload not in traced or workload not in untraced:
            continue
        metrics = metric_medians(traced[workload])
        total = sum(metrics[name] for name in BUDGET)
        p50 = metric_medians(untraced[workload])["query_p50_ms"]
        print(f"\n**`{workload}`** — untraced `query_p50_ms` {p50:.2f} ms; "
              f"traced mean read {total:.2f} ms "
              f"(`obs.trace_overhead_ratio` "
              f"{metrics['obs.trace_overhead_ratio']:.3f}), of which:\n")
        print("| layer self time | ms | share |")
        print("|---|---:|---:|")
        for name in BUDGET:
            if abs(metrics[name]) >= 5e-4:
                print(f"| `{name}` | {metrics[name]:.3f} "
                      f"| {metrics[name] / total:.1%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
