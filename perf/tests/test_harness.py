"""Self-tests of the benchmark harness (fast; collected by the tier-1 run)."""

from __future__ import annotations

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from perf import compare, layers, oracle, run, spans
from perf.harness import REPO_ROOT, percentile_supported, quartile_spread
from perf.workloads import WORKLOADS, RoundResult, mismatches

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ---- statistics ------------------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    assert percentile_supported(95, 200)
    assert not percentile_supported(95, 199)
    assert percentile_supported(50, 20)
    assert not percentile_supported(99, 999)


def test_quartile_spread_is_iqr_over_median():
    assert quartile_spread([10.0]) == 0.0
    assert quartile_spread([8.0, 10.0, 10.0, 12.0]) == pytest.approx(0.3)


# ---- span arithmetic -------------------------------------------------------

def _span(sid, name, start, end, parent=-1, thread=1, **attrs):
    return (sid, name, start, end, parent, thread, "round", 0, attrs)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, "index.search.knn", 0.0, 10.0),
        _span(1, "core.simd.lb", 1.0, 4.0, parent=0),
        _span(2, "core.simd.lb", 3.0, 6.0, parent=0),    # overlaps span 1
        _span(3, "core.distance.ed", 7.0, 8.0, parent=0),
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0)
    assert spans.covered([(1.0, 4.0), (3.0, 6.0), (9.0, 20.0)], 0.0, 10.0) \
        == pytest.approx(6.0)


def test_budget_charges_a_coalesced_batch_to_every_rider():
    # Two requests block in submit while one scatter (n=2) runs on the
    # drainer thread and fans out to two RPC attempts on pool threads.
    tree = [
        _span(0, "serve.app.knn", 0.0, 11.0, thread=1),
        _span(1, "serve.batching.submit", 0.5, 10.5, parent=0, thread=1),
        _span(2, "serve.app.knn", 1.0, 11.0, thread=2),
        _span(3, "serve.batching.submit", 1.5, 10.5, parent=2, thread=2),
        _span(4, "index.sharded.knn", 2.0, 10.0, thread=3, n=2),
        _span(5, "cluster.client.rpc", 3.0, 7.0, thread=4, worker_s=1.0),
        _span(6, "cluster.client.rpc", 3.0, 9.0, thread=5, worker_s=2.0),
    ]
    budget = layers.read_budget(tree, weighted=True)
    assert budget["serve.batching.queue_wait_ms"] == pytest.approx(2.0 + 1.0)
    assert budget["cluster.worker.engine_ms"] == pytest.approx(2 * 2.0)
    assert budget["cluster.client.rpc_overhead_ms"] == pytest.approx(2 * 4.0)
    assert budget["index.sharded.merge_ms"] == pytest.approx(2 * 1.0)
    assert budget["index.sharded.scatter_self_ms"] == pytest.approx(2 * 1.0)
    assert budget["serve.app.knn_self_ms"] == pytest.approx(1.0 + 1.0)
    # The shares add up to what the two callers waited inside the app.
    assert sum(budget.values()) == pytest.approx(11.0 + 10.0)


def test_write_path_spans_stay_out_of_the_read_budget():
    tree = [
        _span(0, "serve.app.insert", 0.0, 5.0),
        _span(1, "index.dynamic.insert", 1.0, 4.0, parent=0),
        _span(2, "transforms.sfa_transform_batch", 2.0, 3.0, parent=1),
    ]
    assert sum(layers.read_budget(tree, weighted=True).values()) == 0.0


# ---- seeds -----------------------------------------------------------------

@pytest.mark.parametrize("name", ["engine_single_hf", "serve_ingest_rw"])
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    workload = WORKLOADS[name]

    def fingerprint(seed):
        inputs = workload.generate(seed, "smoke")
        if name == "serve_ingest_rw":
            return [(op, body) for op, body, _ in inputs["script"]]
        return inputs["queries"].tobytes(), inputs["order"]

    assert fingerprint(3) == fingerprint(3)
    assert fingerprint(3) != fingerprint(4)


# ---- oracle ----------------------------------------------------------------

def test_oracle_matches_a_sorted_scan_and_flags_a_corrupted_answer():
    rng = np.random.default_rng(0)
    values = oracle.RowModel(rng.standard_normal((300, 32)))
    query = rng.standard_normal(32)
    ids, distances = values.knn(query, 5)
    assert list(distances) == sorted(distances)
    assert oracle.answer_matches(ids, distances, ids, distances)
    corrupted = ids.copy()
    corrupted[[0, 1]] = corrupted[[1, 0]]
    assert not oracle.answer_matches(corrupted, distances, ids, distances)
    assert not oracle.answer_matches(ids, distances * 1.001, ids, distances)
    good = RoundResult(1.0, [0.1], [(0, ids, distances, True)])
    bad = RoundResult(1.0, [0.1], [(0, corrupted, distances, True)])
    timed_out = RoundResult(1.0, [0.1], [(0, ids, distances, False)])
    expected = [(ids, distances)]
    assert [mismatches(r, expected) for r in (good, bad, timed_out)] \
        == [0, 1, 1]


def test_row_model_follows_the_dynamic_index_id_rules():
    model = oracle.RowModel(np.random.default_rng(1).standard_normal((4, 8)))
    assert model.insert(np.arange(8.0)) == 4
    model.delete(1)
    with pytest.raises(ValueError):
        model.delete(1)
    assert list(model.alive_ids()) == [0, 2, 3, 4]
    model.compact()                      # survivors renumbered compactly
    assert list(model.alive_ids()) == [0, 1, 2, 3]
    assert model.insert(np.arange(8.0)[::-1]) == 4


def test_a_wrong_answer_fails_the_command(monkeypatch, capsys):
    workload = WORKLOADS["engine_single_hf"]
    honest = workload.expectations

    def corrupted(inputs):
        expected = honest(inputs)
        ids, distances = expected[0]
        expected[0] = (ids[::-1].copy(), distances)
        return expected

    monkeypatch.setattr(workload, "expectations", corrupted)
    result = run.run_workload("engine_single_hf", seed=0, seconds=0.05,
                              trace=False, scale="smoke", out=None,
                              tag="test")
    capsys.readouterr()
    assert not result["correct"] and result["failed"] > 0
    assert run.exit_status(result) == 1


# ---- BENCHMARK.json --------------------------------------------------------

def test_benchmark_json_names_and_caps():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perf"]
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in BENCHMARK[section]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert all(0 < metric["bound"] <= 0.25
               for metric in BENCHMARK["end_to_end"])
    assert all(len(workload["why"]) <= 200
               for workload in BENCHMARK["workloads"])


def test_benchmark_json_agrees_with_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_smoke_run_emits_exactly_the_declared_names(trace, section):
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         "engine_single_hf", "--seed", "0", "--seconds", "0.2", "--trace",
         str(trace), "--scale", "smoke"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} \
        == declared


# ---- compare ---------------------------------------------------------------

def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(steady, [v * 1.05 for v in steady],
                           "lower", 0.10)[-1] == "ok"
    assert compare.verdict(steady, [v * 1.2 for v in steady],
                           "lower", 0.10)[-1] == "regressed"
    assert compare.verdict(steady, [v * 0.8 for v in steady],
                           "higher", 0.10)[-1] == "regressed"
    assert compare.verdict([5.0, 10.0, 15.0, 20.0], steady,
                           "lower", 0.10)[-1] == "unresolved"
