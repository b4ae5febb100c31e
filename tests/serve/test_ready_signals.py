"""Readiness, graceful signals, and the worker-mode RPC surface.

* ``GET /readyz`` answers 503 until the app can actually serve (an index is
  loaded, every micro-batch drainer is alive, the app is not draining) and
  200 after — distinct from ``/healthz``, which stays 200-with-degraded as
  pure liveness;
* worker mode (``ServeConfig(worker_mode=True)``) exposes the shard RPC
  actions and refuses the public write routes with a typed 403-class error
  (shard-local writes would desync the cluster coordinator's id maps);
  worker actions do not exist on a normal server;
* a served process asked to stop via SIGTERM/SIGINT drains in flight
  requests and exits 0 — the supervisor-facing "deliberate stop" contract;
  the handler only records the signal, and the main thread's wait notices
  it even when the signal interrupts some other thread.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.serve import IndexServer, SearchApp, ServeConfig
from repro.serve.routes import SignalTrigger

SRC_ROOT = str(Path(__file__).resolve().parents[2] / "src")


class TestReadyz:
    def test_not_ready_before_any_index(self, make_client):
        app = SearchApp(ServeConfig())
        try:
            with IndexServer(app) as server:
                status, payload = make_client(server.url).get("/readyz")
                assert status == 503
                assert payload["ready"] is False
                assert any("no index" in reason
                           for reason in payload["reasons"])
        finally:
            app.close()

    def test_ready_with_an_index_and_live_drainer(self, client):
        status, payload = client.get("/readyz")
        assert status == 503 or status == 200  # resolved below
        assert payload["ready"] is (status == 200)
        assert status == 200
        assert payload["indexes"] == 2
        assert "reasons" not in payload

    def test_healthz_stays_liveness_only(self, client):
        # /healthz is for "is the process alive", /readyz for "send traffic".
        status, _payload = client.get("/healthz")
        assert status == 200

    def test_draining_app_reports_not_ready(self, app, make_client):
        with IndexServer(app) as server:
            http = make_client(server.url)
            assert http.get("/readyz")[0] == 200
            app.close()
            status, payload = http.get("/readyz")
            assert status == 503
            assert any("draining" in reason for reason in payload["reasons"])

    def test_dead_drainer_reports_not_ready(self, app, make_client):
        with IndexServer(app) as server:
            http = make_client(server.url)
            assert http.get("/readyz")[0] == 200
            # Kill one index's micro-batch drainer out from under the app —
            # the readiness probe must notice the zombie.
            entry = app._entry("live")
            assert entry.batcher is not None
            entry.batcher.close()
            status, payload = http.get("/readyz")
            assert status == 503
            assert any("drainer" in reason for reason in payload["reasons"])


class TestWorkerMode:
    @pytest.fixture()
    def worker_server(self, serve_rows, make_index):
        app = SearchApp(ServeConfig(worker_mode=True, batching=False,
                                    max_k=50))
        app.add_index("shard", make_index(serve_rows).dynamic())
        try:
            with IndexServer(app) as server:
                yield server
        finally:
            app.close()

    def test_shard_rpc_routes_answer(self, worker_server, serve_queries,
                                     make_client):
        http = make_client(worker_server.url)
        status, payload = http.post("/shard/shard_knn", {
            "query": [float(v) for v in serve_queries[0]], "k": 3})
        assert status == 200
        assert len(payload["ids"]) == 3
        assert len(payload["squared"]) == 3
        assert payload["surviving"] > 0
        status, payload = http.post("/shard/shard_probe", {})
        assert status == 200 and payload["ok"] is True

    def test_a_threshold_field_does_not_change_the_answer(
            self, worker_server, serve_queries, make_client):
        """The shard RPC takes no pruning bound from its caller: a body that
        carries one is answered exactly like a body without it."""
        http = make_client(worker_server.url)
        body = {"query": [float(v) for v in serve_queries[0]], "k": 3}
        _, plain = http.post("/shard/shard_knn", body)
        status, bounded = http.post("/shard/shard_knn",
                                    {**body, "threshold": -1})
        assert status == 200
        assert len(plain["ids"]) == 3
        assert bounded["ids"] == plain["ids"]
        assert bounded["squared"] == plain["squared"]

    def test_worker_mode_refuses_public_writes(self, worker_server,
                                               serve_rows, make_client):
        http = make_client(worker_server.url)
        for action in ("insert", "delete", "compact"):
            status, payload = http.post(f"/shard/{action}",
                                        {"series": [0.0], "row": 0})
            assert payload["error"]["type"] == "ReadOnlyIndexError"
            assert "coordinator" in payload["error"]["message"]

    def test_normal_server_has_no_shard_routes(self, client, serve_queries):
        status, payload = client.post("/static/shard_knn", {
            "query": [float(v) for v in serve_queries[0]], "k": 3})
        assert status == 404


class TestSignalDrain:
    def test_trigger_wait_times_out_without_a_signal(self):
        trigger = SignalTrigger()
        assert trigger.wait(timeout=0.05) is False
        assert not trigger.is_set()

    def test_untimed_wait_ends_without_being_woken(self):
        """The signal may interrupt a thread other than the waiter; the
        handler's store then wakes nobody, so the untimed wait must notice
        the recorded signal on its own."""
        trigger = SignalTrigger()
        returned = threading.Event()

        def waiter():
            trigger.wait()
            returned.set()

        threading.Thread(target=waiter, daemon=True).start()
        trigger.set(signal.SIGTERM)  # a bare store: nothing notifies
        assert returned.wait(timeout=10.0)

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_installed_handler_records_the_signal(self, signum):
        server = IndexServer(SearchApp(ServeConfig(batching=False)))
        previous = {number: signal.getsignal(number)
                    for number in (signal.SIGTERM, signal.SIGINT)}
        try:
            trigger = server.install_signal_handlers()
            signal.raise_signal(signum)
            assert trigger.wait(timeout=5.0)
            assert trigger.signum == signum
        finally:
            for number, handler in previous.items():
                signal.signal(number, handler)
            server.stop()

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_served_process_exits_zero_on_signal(self, tmp_path, signum):
        script = tmp_path / "serve_until_signal.py"
        script.write_text(textwrap.dedent("""
            import sys
            import numpy as np
            from repro.datasets.synthetic import random_walk
            from repro.index.sofa import SofaIndex
            from repro.serve import IndexServer, SearchApp, ServeConfig

            app = SearchApp(ServeConfig(batching=False))
            app.add_index(
                "idx",
                SofaIndex(word_length=8, alphabet_size=16,
                          leaf_size=16).build(random_walk(64, 32, seed=7)))
            server = IndexServer(app)
            triggered = server.install_signal_handlers()
            server.start()
            print("READY", flush=True)
            triggered.wait()
            server.stop()
            app.close()
            print("DRAINED", flush=True)
        """))
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        process = subprocess.Popen([sys.executable, str(script)], env=env,
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE, text=True)
        try:
            assert process.stdout.readline().strip() == "READY"
            process.send_signal(signum)
            stdout, stderr = process.communicate(timeout=30)
            assert process.returncode == 0, stderr
            assert "DRAINED" in stdout  # the drain ran, not an abort
        finally:
            if process.poll() is None:
                process.kill()

    def test_worker_entrypoint_exits_zero_on_sigterm(self, tmp_path,
                                                     serve_rows, make_index):
        from repro.index.persistence import save_index

        snapshot = tmp_path / "snap"
        save_index(make_index(serve_rows), snapshot)
        endpoint_file = tmp_path / "endpoint.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cluster.worker",
             "--snapshot-dir", str(snapshot),
             "--endpoint-file", str(endpoint_file)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        try:
            deadline = time.monotonic() + 30.0
            while not endpoint_file.exists():
                assert time.monotonic() < deadline, "worker never published"
                assert process.poll() is None, process.stderr.read()
                time.sleep(0.02)
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
            assert process.returncode == 0
        finally:
            if process.poll() is None:
                process.kill()
