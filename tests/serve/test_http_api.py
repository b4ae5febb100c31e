"""The HTTP front end: routes, JSON framing, status codes, concurrent load."""

from __future__ import annotations

import json
import threading

import pytest


class TestGetRoutes:
    def test_healthz(self, client):
        status, body = client.get("/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["indexes"] == 2
        assert body["writers"] == {
            "live": {"wal_depth": 0, "delta_pending": 0, "tombstones": 0}}

    def test_indexes(self, client):
        status, body = client.get("/indexes")
        assert status == 200
        names = {entry["name"] for entry in body["indexes"]}
        assert names == {"static", "live"}

    def test_stats(self, client, serve_queries):
        client.post("/static/knn", {"query": serve_queries[0].tolist()})
        status, body = client.get("/stats")
        assert status == 200
        assert body["indexes"]["static"]["search"]["queries"] == 1
        assert body["indexes"]["static"]["batching"]["batched_queries"] == 1

    def test_unknown_get_route_is_404(self, client):
        status, body = client.get("/nope")
        assert status == 404
        assert body["error"]["type"] == "NotFound"


class TestKnnRoute:
    def test_exact_answer_matches_engine(self, client, static_index,
                                         serve_queries):
        expected = static_index.knn(serve_queries[0], k=3)
        status, body = client.post("/static/knn",
                                   {"query": serve_queries[0].tolist(), "k": 3})
        assert status == 200
        assert body["ids"] == [int(row) for row in expected.indices]
        assert body["distances"] == [float(d) for d in expected.distances]
        assert body["timed_out"] is False

    def test_tiny_timeout_returns_200_with_timed_out_flag(self, client,
                                                          serve_queries):
        """The acceptance scenario: an expired budget must be a well-formed
        degraded answer, never an untyped 500."""
        status, body = client.post("/static/knn",
                                   {"query": serve_queries[0].tolist(),
                                    "k": 2, "timeout_s": 1e-9})
        assert status == 200
        assert body["timed_out"] is True
        assert len(body["ids"]) == 2
        assert all(isinstance(d, float) for d in body["distances"])

    @pytest.mark.parametrize("payload, error_type", [
        ({"query": "zzz"}, "ValidationError"),
        ({"query": [1.0, 2.0]}, "ValidationError"),
        ({"query": None, "k": 1}, "ValidationError"),
        ({"k": "3"}, "ValidationError"),
        ({"k": 0}, "SearchError"),
        ({"k": 99}, "SearchError"),
        ({"timeout_s": "1"}, "ValidationError"),
        ({"timeout_s": -1.0}, "InvalidParameterError"),
    ])
    def test_bad_requests_are_400(self, client, serve_queries, payload,
                                  error_type):
        body = {"query": serve_queries[0].tolist()}
        body.update(payload)
        status, answer = client.post("/static/knn", body)
        assert status == 400
        assert answer["error"]["type"] == error_type
        assert answer["error"]["status"] == 400

    def test_unknown_index_is_404(self, client, serve_queries):
        status, body = client.post("/ghost/knn",
                                   {"query": serve_queries[0].tolist()})
        assert status == 404
        assert body["error"]["type"] == "UnknownIndexError"

    def test_concurrent_storm_is_correct(self, client, static_index,
                                         serve_queries):
        """Many client threads, every answer bit-identical to the engine."""
        expected = {position: static_index.knn(query, k=3)
                    for position, query in enumerate(serve_queries)}
        failures: list = []

        def storm(position):
            want = expected[position % len(serve_queries)]
            query = serve_queries[position % len(serve_queries)].tolist()
            for _ in range(5):
                status, body = client.post("/static/knn",
                                           {"query": query, "k": 3})
                if status != 200:
                    failures.append(body)
                    return
                if body["ids"] != [int(row) for row in want.indices]:
                    failures.append((body["ids"], want.indices))
                    return

        threads = [threading.Thread(target=storm, args=(position,))
                   for position in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not failures


class TestWriteRoutes:
    def test_insert_query_delete_cycle(self, client, serve_queries):
        probe = serve_queries[5].tolist()
        status, inserted = client.post("/live/insert", {"series": probe})
        assert status == 200
        (row,) = inserted["ids"]
        status, answer = client.post("/live/knn", {"query": probe, "k": 1})
        assert status == 200
        assert answer["ids"] == [row]
        status, deleted = client.post("/live/delete", {"row": row})
        assert status == 200
        assert deleted["num_surviving"] == 300

    def test_write_to_static_index_is_409(self, client, serve_queries):
        status, body = client.post("/static/insert",
                                   {"series": serve_queries[0].tolist()})
        assert status == 409
        assert body["error"]["type"] == "ReadOnlyIndexError"

    def test_compact_bumps_generation(self, client, serve_queries):
        client.post("/live/insert", {"series": serve_queries[6].tolist()})
        status, body = client.post("/live/compact")
        assert status == 200
        assert body["generation"] == 2
        status, answer = client.post("/live/knn",
                                     {"query": serve_queries[6].tolist(),
                                      "k": 1})
        assert answer["generation"] == 2
        assert answer["distances"][0] == pytest.approx(0.0, abs=1e-12)

    def test_boolean_row_is_400_and_deletes_nothing(self, client):
        """JSON ``true`` is not row 1."""
        status, body = client.post("/live/delete", {"row": True})
        assert status == 400
        assert body["error"]["type"] == "ValidationError"
        status, health = client.get("/healthz")
        assert health["writers"]["live"]["tombstones"] == 0

    def test_double_delete_is_409(self, client):
        client.post("/live/delete", {"row": 3})
        status, body = client.post("/live/delete", {"row": 3})
        assert status == 409
        assert body["error"]["type"] == "IndexError_"


class TestFraming:
    def test_invalid_json_body_is_400(self, client):
        status, body = client.post("/static/knn", raw=b"{not json")
        assert status == 400
        assert body["error"]["type"] == "ValidationError"
        assert "not valid JSON" in body["error"]["message"]

    def test_non_object_body_is_400(self, client):
        status, body = client.post("/static/knn", raw=b"[1, 2, 3]")
        assert status == 400
        assert "JSON object" in body["error"]["message"]

    def test_oversized_body_is_400(self, static_index, serve_queries,
                                   make_client):
        from repro.serve import IndexServer, SearchApp, ServeConfig

        app = SearchApp(ServeConfig(request_body_limit=2048))
        app.add_index("static", static_index)
        with IndexServer(app) as server:
            small_client = make_client(server.url)
            oversized = json.dumps(
                {"query": serve_queries[0].tolist() * 100}).encode()
            assert len(oversized) > 2048
            status, body = small_client.post("/static/knn", raw=oversized)
            assert status == 400
            assert "exceeds the server's limit" in body["error"]["message"]
