"""Per-query tracing: span semantics, the phase-sum contract, bit-identity.

The two acceptance properties of the tracing layer:

* **accounting** — for a traced ``knn``, the phase spans partition the
  call's wall time: ``|wall - sum(phases)| <= max(0.1 * wall, 1 ms)``;
* **non-interference** — answers are bit-identical with tracing on and
  off, across the static, dynamic, and sharded engines and across worker
  counts.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index.search
from repro.datasets.synthetic import random_walk
from repro.index.dynamic import DynamicIndex
from repro.index.search import ExactSearcher
from repro.index.sharded import ShardedIndex
from repro.index.sofa import SofaIndex
from repro.obs.trace import Span, Trace


def assert_phases_partition_wall(trace: Trace, wall: float) -> None:
    phase_sum = trace.phase_seconds()
    assert abs(wall - phase_sum) <= max(0.1 * wall, 1e-3), (
        f"phases sum to {phase_sum:.6f}s against wall {wall:.6f}s")


class TestTrace:
    def test_phase_and_detail_kinds(self):
        trace = Trace()
        trace.add_phase("traversal", 0.5, leaves=3)
        trace.add_detail("shard0", 0.4, answered=True)
        kinds = {span.name: span.kind for span in trace.spans}
        assert kinds == {"traversal": "phase", "shard0": "detail"}
        # Details are excluded from the phase accounting.
        assert trace.phase_seconds() == pytest.approx(0.5)

    def test_breakdown_merges_by_name_in_first_seen_order(self):
        trace = Trace()
        trace.add_phase("b", 1.0)
        trace.add_phase("a", 2.0)
        trace.add_phase("b", 3.0)
        assert trace.breakdown() == {"b": 4.0, "a": 2.0}
        assert list(trace.breakdown()) == ["b", "a"]

    def test_context_managers_time_their_block(self):
        trace = Trace()
        with trace.phase("work"):
            pass
        with trace.detail("inner"):
            pass
        spans = {span.name: span for span in trace.spans}
        assert spans["work"].kind == "phase"
        assert spans["inner"].kind == "detail"
        assert spans["work"].seconds >= 0.0

    def test_to_dict_coerces_counters(self):
        trace = Trace()
        trace.add_phase("p", 0.1, leaves=np.int64(3), ratio=np.float64(0.5),
                        flag=True)
        (span,) = trace.to_dict()["spans"]
        assert span["counters"] == {"leaves": 3, "ratio": 0.5, "flag": 1}
        assert all(isinstance(v, (int, float))
                   for v in span["counters"].values())

    def test_concurrent_recording_is_safe(self):
        trace = Trace()
        threads = [threading.Thread(
            target=lambda: [trace.add_detail("d") for _ in range(500)])
            for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(trace.spans) == 2000

    def test_span_dataclass_defaults(self):
        span = Span("x", 1.0)
        assert span.kind == "phase"
        assert span.to_dict() == {"name": "x", "seconds": 1.0,
                                  "kind": "phase"}


ROWS = random_walk(240, 64, seed=2201)
QUERIES = random_walk(8, 64, seed=2202)


@pytest.fixture(scope="module")
def static_engine():
    return SofaIndex(word_length=8, alphabet_size=16, leaf_size=16).build(ROWS)


@pytest.fixture(scope="module")
def dynamic_engine():
    engine = DynamicIndex(
        SofaIndex(word_length=8, alphabet_size=16, leaf_size=16).build(ROWS))
    engine.insert_batch(random_walk(30, 64, seed=2203))
    engine.delete(5)
    return engine


@pytest.fixture(scope="module")
def sharded_engine(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs-shards")
    return ShardedIndex.build(ROWS, path, num_shards=3)


@pytest.fixture(scope="module")
def engines(static_engine, dynamic_engine, sharded_engine):
    return {"static": static_engine, "dynamic": dynamic_engine,
            "sharded": sharded_engine}


class TestEngineTracing:
    @pytest.mark.parametrize("engine_name", ["static", "dynamic", "sharded"])
    def test_phases_partition_wall_time(self, engines, engine_name):
        engine = engines[engine_name]
        engine.knn(QUERIES[0], k=3)  # warm caches
        for query in QUERIES[:4]:
            trace = Trace()
            result = engine.knn(query, k=3, trace=trace)
            assert trace.phase_seconds() > 0.0
            assert_phases_partition_wall(trace, result.stats.wall_time_s)

    @pytest.mark.parametrize("engine_name", ["static", "dynamic", "sharded"])
    def test_tracing_never_changes_answers(self, engines, engine_name):
        engine = engines[engine_name]
        for query in QUERIES:
            untraced = engine.knn(query, k=5)
            traced = engine.knn(query, k=5, trace=Trace())
            np.testing.assert_array_equal(traced.indices, untraced.indices)
            np.testing.assert_array_equal(traced.distances,
                                          untraced.distances)

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_bit_identity_property(self, static_engine, dynamic_engine,
                                   seed, k):
        """Random queries: tracing is invisible in the answer, everywhere."""
        query = random_walk(1, 64, seed=seed)[0]
        for engine in (static_engine, dynamic_engine):
            untraced = engine.knn(query, k=k)
            traced = engine.knn(query, k=k, trace=Trace())
            np.testing.assert_array_equal(traced.indices, untraced.indices)
            np.testing.assert_array_equal(traced.distances,
                                          untraced.distances)

    def test_sharded_trace_has_per_shard_details(self, sharded_engine):
        trace = Trace()
        sharded_engine.knn(QUERIES[0], k=3, trace=trace)
        details = {span.name for span in trace.spans
                   if span.kind == "detail"}
        assert {"shard0", "shard1", "shard2"} <= details
        phases = list(trace.breakdown())
        assert phases[0] == "normalize"
        assert "scatter" in phases and "merge" in phases

    def test_dynamic_trace_carries_delta_phase(self, dynamic_engine):
        trace = Trace()
        dynamic_engine.knn(QUERIES[0], k=3, trace=trace)
        assert "delta" in trace.breakdown()

    def test_batch_results_carry_batch_wall_time(self, static_engine,
                                                 sharded_engine):
        for engine in (static_engine, sharded_engine):
            results = engine.knn_batch(QUERIES[:4], k=3)
            walls = {result.stats.wall_time_s for result in results}
            assert len(walls) == 1, "every result carries the batch wall"
            assert walls.pop() > 0.0


class TestRefinementSpans:
    def test_tree_refinement_phase_is_the_stats_refinement_time(
            self, static_engine, monkeypatch):
        """On the static tree path the ``refinement`` phase and
        ``stats.refinement_time`` are one measurement: the queue drain's
        wall time."""
        monkeypatch.setattr(repro.index.search, "FLAT_REFINEMENT_THRESHOLD",
                            0.0)
        searcher = ExactSearcher(static_engine.tree)
        for query in QUERIES[:4]:
            trace = Trace()
            result = searcher.knn(query, k=3, trace=trace)
            assert (trace.breakdown()["refinement"]
                    == result.stats.refinement_time)

    @pytest.mark.parametrize("threshold", [0.0, np.inf], ids=["tree", "flat"])
    def test_refinement_has_no_per_worker_detail(self, static_engine,
                                                 threshold, monkeypatch):
        """The only detail span of an unsharded query is the heap's
        counters."""
        monkeypatch.setattr(repro.index.search, "FLAT_REFINEMENT_THRESHOLD",
                            threshold)
        searcher = ExactSearcher(static_engine.tree)
        trace = Trace()
        searcher.knn(QUERIES[0], k=3, trace=trace)
        details = [span.name for span in trace.spans if span.kind == "detail"]
        assert details == ["heap"]
