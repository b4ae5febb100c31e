"""Observability over HTTP: /metrics exposition, tracing, slow-query log.

The registry is process-wide and other tests touch it too, so every test
here serves its indexes under names unique to this module — their labelled
children start from zero regardless of what ran before.
"""

from __future__ import annotations

import threading
import time
import urllib.request
from http.client import HTTPConnection

import numpy as np
import pytest

from repro.datasets.synthetic import random_walk
from repro.index.sofa import SofaIndex
from repro.serve import IndexServer, SearchApp, ServeConfig


def parse_exposition(text: str) -> "tuple[dict, dict]":
    """Prometheus text format -> ({series: value}, {family: type}).

    Strict enough for the acceptance criteria: metadata must precede
    samples, types must be valid, histogram buckets must be cumulative
    and end at ``+Inf`` with ``_count`` agreeing.
    """
    samples: "dict[str, float]" = {}
    types: "dict[str, str]" = {}
    helped: "set[str]" = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            _, _, name, metric_type = line.split()
            assert name in helped, f"TYPE before HELP for {name}"
            assert metric_type in ("counter", "gauge", "histogram")
            types[name] = metric_type
            continue
        assert not line.startswith("#")
        series, _, value = line.rpartition(" ")
        samples[series] = float(value)
    # Histogram consistency: cumulative buckets, +Inf == _count.
    for name, metric_type in types.items():
        if metric_type != "histogram":
            continue
        buckets = {series: value for series, value in samples.items()
                   if series.startswith(f"{name}_bucket")}
        by_labels: "dict[str, list[tuple[float, float]]]" = {}
        for series, value in buckets.items():
            labels = series[series.index("{") + 1:-1]
            pairs = dict(part.split("=", 1)
                         for part in labels.split(","))
            bound = pairs.pop("le").strip('"')
            key = ",".join(f"{k}={v}" for k, v in sorted(pairs.items()))
            by_labels.setdefault(key, []).append(
                (float("inf") if bound == "+Inf" else float(bound), value))
        for key, entries in by_labels.items():
            entries.sort()
            counts = [value for _, value in entries]
            assert counts == sorted(counts), f"{name} buckets not cumulative"
            assert entries[-1][0] == float("inf")
    return samples, types


def scrape(url: str) -> "tuple[str, str]":
    with urllib.request.urlopen(f"{url}/metrics") as response:
        return response.headers.get("Content-Type"), response.read().decode()


ROWS = random_walk(260, 48, seed=3301)
QUERIES = random_walk(12, 48, seed=3302)


def build_index() -> SofaIndex:
    return SofaIndex(word_length=8, alphabet_size=16, leaf_size=16).build(ROWS)


@pytest.fixture()
def obs_app():
    app = SearchApp(ServeConfig(slow_query_s=1e-6, batch_max_wait_s=0.001))
    app.add_index("obs-static", build_index())
    app.add_index("obs-live", build_index().dynamic())
    yield app
    app.close()


@pytest.fixture()
def obs_server(obs_app):
    with IndexServer(obs_app) as server:
        yield server


@pytest.fixture()
def obs_client(obs_server, make_client):
    return make_client(obs_server.url)


class TestMetricsRoute:
    def test_content_type_is_prometheus_text(self, obs_server):
        content_type, _ = scrape(obs_server.url)
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"

    def test_exposition_covers_every_required_family(self, obs_server):
        _, text = scrape(obs_server.url)
        _, types = parse_exposition(text)
        assert types["repro_query_seconds"] == "histogram"
        assert types["repro_queries_total"] == "counter"
        assert types["repro_query_timeouts_total"] == "counter"
        assert types["repro_query_work_total"] == "counter"
        assert types["repro_microbatch_queue_wait_seconds"] == "histogram"
        assert types["repro_microbatch_batches_total"] == "counter"
        assert types["repro_microbatch_shed_total"] == "counter"
        assert types["repro_wal_appends_total"] == "counter"
        assert types["repro_wal_fsync_seconds"] == "histogram"
        assert types["repro_wal_depth"] == "gauge"
        assert types["repro_compactions_total"] == "counter"
        assert types["repro_compaction_phase_seconds"] == "histogram"
        assert types["repro_shard_outcomes_total"] == "counter"
        assert types["repro_shard_retries_total"] == "counter"
        assert types["repro_shard_quarantines_total"] == "counter"

    def test_counters_move_under_concurrent_load(self, obs_client,
                                                 obs_server):
        """Hammer /knn from many threads while scraping; the final scrape
        must account for every request, and every mid-flight scrape must
        stay parseable and monotonic."""
        num_threads, per_thread = 4, 6
        errors: "list[Exception]" = []

        def hammer(offset: int):
            try:
                for position in range(per_thread):
                    query = QUERIES[(offset + position) % len(QUERIES)]
                    status, body = obs_client.post(
                        "/obs-static/knn", {"query": query.tolist(), "k": 3})
                    assert status == 200, body
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(offset,))
                   for offset in range(num_threads)]
        for thread in threads:
            thread.start()
        last = -1.0
        while any(thread.is_alive() for thread in threads):
            _, text = scrape(obs_server.url)
            samples, _ = parse_exposition(text)
            value = samples.get('repro_queries_total{index="obs-static"}',
                                0.0)
            assert value >= last
            last = value
        for thread in threads:
            thread.join()
        assert not errors, errors
        samples, _ = parse_exposition(scrape(obs_server.url)[1])
        total = num_threads * per_thread
        assert samples['repro_queries_total{index="obs-static"}'] == total
        assert samples['repro_query_seconds_count{index="obs-static"}'] \
            == total
        assert samples['repro_query_seconds_bucket{index="obs-static",'
                       'le="+Inf"}'] == total
        # The micro-batch queue saw every one of those requests.
        batched = samples['repro_microbatch_items_total'
                          '{queue="knn-obs-static"}']
        assert batched == total
        waits = samples['repro_microbatch_queue_wait_seconds_count'
                        '{queue="knn-obs-static"}']
        assert waits == total
        work = samples['repro_query_work_total{index="obs-static",'
                       'kind="exact_distances"}']
        assert work > 0

    def test_open_connections_gauge_counts_client_connections(
            self, obs_server):
        idle = HTTPConnection(obs_server.host, obs_server.port, timeout=30)
        idle.connect()
        try:
            deadline = time.monotonic() + 10
            while obs_server._httpd.open_connections < 1:
                assert time.monotonic() < deadline, "never accepted"
                time.sleep(0.001)
            # The idle connection plus the scrape's own.
            samples, types = parse_exposition(scrape(obs_server.url)[1])
            assert types["repro_serve_open_connections"] == "gauge"
            assert samples["repro_serve_open_connections"] == 2
        finally:
            idle.close()

    def test_write_path_gauges_track_the_engine(self, obs_client,
                                                obs_server):
        obs_client.post("/obs-live/insert",
                        {"series": QUERIES[0].tolist()})
        obs_client.post("/obs-live/delete", {"row": 2})
        samples, _ = parse_exposition(scrape(obs_server.url)[1])
        assert samples['repro_delta_pending{index="obs-live"}'] == 1
        assert samples['repro_tombstones{index="obs-live"}'] == 1
        assert samples['repro_index_generation{index="obs-live"}'] == 1
        obs_client.post("/obs-live/compact", {})
        samples, _ = parse_exposition(scrape(obs_server.url)[1])
        assert samples['repro_delta_pending{index="obs-live"}'] == 0
        assert samples['repro_tombstones{index="obs-live"}'] == 0
        assert samples['repro_index_generation{index="obs-live"}'] == 2


class TestTraceRoute:
    def test_traced_answer_is_identical_and_carries_phases(self, obs_client):
        query = QUERIES[0].tolist()
        _, plain = obs_client.post("/obs-static/knn",
                                   {"query": query, "k": 5})
        status, traced = obs_client.post(
            "/obs-static/knn", {"query": query, "k": 5, "trace": True})
        assert status == 200
        assert traced["ids"] == plain["ids"]
        assert traced["distances"] == plain["distances"]
        assert traced["trace"]["phases"]
        assert traced["wall_time_s"] > 0.0
        phase_sum = traced["trace"]["phase_seconds"]
        wall = traced["wall_time_s"]
        assert abs(wall - phase_sum) <= max(0.1 * wall, 1e-3)

    def test_untraced_answer_has_no_trace_key(self, obs_client):
        _, body = obs_client.post("/obs-static/knn",
                                  {"query": QUERIES[0].tolist(), "k": 2})
        assert "trace" not in body and "wall_time_s" not in body

    def test_config_can_refuse_tracing(self):
        app = SearchApp(ServeConfig(tracing=False))
        app.add_index("obs-notrace", build_index())
        try:
            payload = app.knn("obs-notrace", QUERIES[0], k=2, trace=True)
            assert "trace" not in payload
        finally:
            app.close()


class TestSlowQueryRoute:
    def test_slow_queries_are_logged_and_counted(self, obs_client,
                                                 obs_server):
        query = QUERIES[1].tolist()
        obs_client.post("/obs-static/knn", {"query": query, "k": 3})
        obs_client.post("/obs-static/knn",
                        {"query": query, "k": 3, "trace": True})
        status, body = obs_client.get("/slow_queries")
        assert status == 200
        assert body["threshold_s"] == 1e-6
        assert body["logged"] >= 2
        from_this_index = [entry for entry in body["slow_queries"]
                           if entry["index"] == "obs-static"]
        assert from_this_index, body
        traced_entries = [entry for entry in from_this_index
                          if "phases" in entry]
        assert traced_entries, "the traced slow query carries its breakdown"
        assert "breakdown" in from_this_index[-1]
        assert "work" in from_this_index[-1]
        samples, _ = parse_exposition(scrape(obs_server.url)[1])
        assert samples['repro_slow_queries_total{index="obs-static"}'] >= 2

    def test_disabled_log_yields_empty_payload(self):
        app = SearchApp(ServeConfig())
        app.add_index("obs-nolog", build_index())
        try:
            app.knn("obs-nolog", QUERIES[0], k=1)
            assert app.slow_queries() == {
                "threshold_s": None, "logged": 0, "slow_queries": []}
        finally:
            app.close()


class TestBitIdentityThroughServing:
    def test_batched_traced_and_direct_answers_agree(self, obs_app):
        """The traced path bypasses the batcher; the answer must not care."""
        engine = build_index()
        for query in QUERIES[:6]:
            direct = engine.knn(query, k=4)
            via_batcher = obs_app.knn("obs-static", query, k=4)
            via_trace = obs_app.knn("obs-static", query, k=4, trace=True)
            assert via_batcher["ids"] == [int(i) for i in direct.indices]
            assert via_trace["ids"] == via_batcher["ids"]
            np.testing.assert_array_equal(
                np.asarray(via_trace["distances"]),
                np.asarray(via_batcher["distances"]))
