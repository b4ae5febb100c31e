"""One command for the whole benchmark.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` every workload runs, untraced and
traced, each in a fresh subprocess (``--repeats N`` times), and the result
files land under ``--out`` for ``perf/compare.py``.

Exit status is non-zero when any answer differs from the brute-force oracle
or any operation fails.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _bootstrap() -> None:
    """Prepare a benchmark process; must run before NumPy is imported.

    The harness *and* the cluster workers (which inherit the environment)
    run BLAS single-threaded so BLAS threads never fight the closed-loop
    callers for the machine's few cores, and ``REPRO_NUM_WORKERS`` stays
    unset so the shipped default is what gets measured.
    """
    if not (REPO_ROOT / "src" / "repro").is_dir():
        sys.exit(f"perf: the program under test is missing: "
                 f"{REPO_ROOT / 'src'}")
    sys.path[:0] = [str(REPO_ROOT), str(REPO_ROOT / "src")]
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ.pop("REPRO_NUM_WORKERS", None)


if __name__ == "__main__":
    _bootstrap()

import numpy as np  # noqa: E402

from perf import harness, layers, spans  # noqa: E402

WORK_ROOT = REPO_ROOT / ".perf_work"

#: Set-ups a run makes before it stops adding untimed ones.
MIN_SETUP_SAMPLES = 4


@dataclass
class Measurement:
    """Everything the rounds of one pass observed."""

    setup_samples: "list[float]" = field(default_factory=list)
    read_latencies: "list[float]" = field(default_factory=list)
    write_latencies: "list[float]" = field(default_factory=list)
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    correct_queries: int = 0
    peak_rss_mb: float = 0.0
    rounds: list = field(default_factory=list)


def round_seed(seed: int, round_index: int) -> int:
    """The data seed of one round: every round sees its own collection."""
    return int(np.random.SeedSequence([seed, round_index]).generate_state(1)[0])


def measure(workload, prepare, seconds: float,
            recorder: "spans.Recorder | None" = None) -> Measurement:
    """Run rounds of ``workload`` until ``seconds`` of timed work are in.

    ``prepare(round_index)`` returns the round's ``(inputs, expected)``:
    data generation and the oracle run before the round, off the clock.
    Rounds draw different collections from the seed, so one run pools the
    data-dependent part of the latency over several index shapes.
    """
    from perf.workloads import mismatches

    def phase(name: str):
        return (recorder.in_phase(name, round_index) if recorder
                else nullcontext())

    def set_up_and_run(inputs, timed: bool):
        """Set the system up (one ``setup_s`` sample), optionally run the
        timed operation list, tear everything down again."""
        # A scratch directory no other round or process shares.
        workdir = WORK_ROOT / (f"{workload.name}-{os.getpid()}-"
                               f"{time.monotonic_ns()}")
        workdir.mkdir(parents=True)
        try:
            start = time.perf_counter()
            with phase("setup"):
                state = workload.setup(inputs, workdir)
            measurement.setup_samples.append(time.perf_counter() - start)
            result = None
            try:
                if timed:
                    with phase("round"):
                        result = workload.run_round(state, inputs)
            finally:
                with phase("recover"):
                    workload.teardown(state, inputs, result)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return result

    def one_round() -> None:
        # A function of its own, so the round's arrays die when it returns:
        # peak memory then does not grow with the number of rounds.
        inputs, expected = prepare(round_index)
        if len(measurement.setup_samples) < MIN_SETUP_SAMPLES:
            # Workloads with long rounds set up only a few times per run;
            # extra set-ups steady the median of ``setup_s``.
            set_up_and_run(inputs, timed=False)
        result = set_up_and_run(inputs, timed=True)
        wrong = mismatches(result, expected)
        measurement.rounds.append(result)
        measurement.read_latencies += result.read_latencies
        measurement.write_latencies += result.write_latencies
        measurement.wall_s += result.wall_s
        measurement.attempted += result.attempted
        measurement.failed += result.errors + wrong
        measurement.correct_queries += len(result.answers) - wrong
        result.answers = []   # verified; only round 0's bytes are reported
        if round_index:
            result.wire = []

    measurement = Measurement()
    round_index = 0
    while measurement.wall_s < seconds or not measurement.rounds:
        one_round()
        gc.collect()   # drop the round's reference cycles before the next set-up
        round_index += 1
    measurement.peak_rss_mb = harness.peak_rss_mb() + max(
        result.facts.get("worker_rss_mb", 0.0)
        for result in measurement.rounds)
    return measurement


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str, out: "Path | None", tag: str) -> dict:
    from perf.workloads import WORKLOADS

    if name not in WORKLOADS:
        sys.exit(f"perf: unknown workload {name!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[name]
    off_clock = {"generate_s": 0.0, "oracle_s": 0.0}
    prepared = {}

    def prepare(round_index: int):
        if round_index in prepared:
            return prepared[round_index]
        start = time.perf_counter()
        inputs = workload.generate(round_seed(seed, round_index), scale)
        generated = time.perf_counter()
        expected = workload.expectations(inputs)
        off_clock["generate_s"] += generated - start
        off_clock["oracle_s"] += time.perf_counter() - generated
        if trace:   # the traced pass replays the untraced pass's rounds
            prepared[round_index] = inputs, expected
        return inputs, expected

    if trace:
        # A short untraced pass gives the tracing overhead its base.
        untraced = measure(workload, prepare, seconds / 3.0)
        recorder = spans.Recorder()
        with spans.installed(recorder):
            traced = measure(workload, prepare, 2.0 * seconds / 3.0, recorder)
        paper = (workload.paper_fidelity(prepare(0)[0])
                 if workload.paper_fidelity else None)
        metrics = layers.per_layer_metrics(recorder, traced, untraced,
                                           workload.weighted, paper)
        passes = [untraced, traced]
        if out is not None:
            recorder.dump(out / f"{name}.{tag}.spans.jsonl")
    else:
        untraced = measure(workload, prepare, seconds)
        metrics = layers.end_to_end_metrics(untraced)
        passes = [untraced]

    attempted = sum(m.attempted for m in passes)
    failed = sum(m.failed for m in passes)
    samples = {
        "setup_s": sum(len(m.setup_samples) for m in passes),
        "read_latency": sum(len(m.read_latencies) for m in passes),
        "write_latency": sum(len(m.write_latencies) for m in passes),
        "rounds": sum(len(m.rounds) for m in passes),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": layers.UNITS[key]}
                    for key, value in metrics.items()},
    }
    report = {
        "workload": name, "why": workload.why, "traced": trace,
        "callers": workload.callers, "samples": samples,
        **off_clock,
        "environment": harness.environment(seed, scale, seconds), **result,
    }
    print(f"# {name}: closed loop, {workload.callers} caller(s), "
          f"{samples['rounds']} round(s), {samples['read_latency']} read "
          f"samples, {samples['setup_s']} set-ups; data generation "
          f"{off_clock['generate_s']:.2f} s and oracle "
          f"{off_clock['oracle_s']:.2f} s are off the clock")
    if not harness.percentile_supported(95, samples["read_latency"]):
        print(f"# caution: {samples['read_latency']} read samples leave "
              f"fewer than {harness.MIN_SAMPLES_BEYOND} beyond the p95")
    for key, value in metrics.items():
        print(f"{key:42s} {value:16.6f} {layers.UNITS[key]}")
    if out is not None:
        (out / f"{name}.{tag}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(result))
    return result


def exit_status(result: dict) -> int:
    """Non-zero when any answer was wrong or any operation failed."""
    return 0 if result["correct"] else 1


def reap_stray_workers() -> None:
    """Kill shard workers this process started and failed to stop."""
    me = os.getpid()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            parent = int(stat.rsplit(")", 1)[1].split()[1])
            command = (entry / "cmdline").read_bytes()
        except (OSError, ValueError, IndexError):
            continue
        if parent == me and b"repro.cluster.worker" in command:
            try:
                os.kill(int(entry.name), signal.SIGKILL)
            except OSError:
                pass


def run_all(options) -> int:
    """Every workload, untraced then traced, each in a fresh subprocess."""
    from perf.workloads import WORKLOADS

    out = Path(options.out or "perf_results").resolve()
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    for repeat in range(options.repeats):
        for name in WORKLOADS:
            for trace in (0, 1):
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(options.seed),
                    "--seconds", str(options.seconds), "--trace", str(trace),
                    "--scale", options.scale, "--out", str(out),
                    "--tag", f"run{repeat}.trace{trace}"]
                print("$", " ".join(command), flush=True)
                status |= subprocess.run(command).returncode
    return status


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="directory for result files")
    parser.add_argument("--repeats", type=int, default=1,
                        help="result sets to write when running everything")
    parser.add_argument("--tag", default="run0",
                        help="result file name suffix")
    options = parser.parse_args(argv)
    if options.workload is None:
        return run_all(options)
    out = None
    if options.out:
        out = Path(options.out).resolve()
        out.mkdir(parents=True, exist_ok=True)
    atexit.register(reap_stray_workers)
    try:
        result = run_workload(options.workload, options.seed, options.seconds,
                              bool(options.trace), options.scale, out,
                              options.tag)
    finally:
        try:
            WORK_ROOT.rmdir()   # only when no concurrent run is using it
        except OSError:
            pass
    return exit_status(result)


if __name__ == "__main__":
    sys.exit(main())
