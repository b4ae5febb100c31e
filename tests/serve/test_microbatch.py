"""The micro-batching queue and the k-NN batcher built on it."""

from __future__ import annotations

import json
import sys
import threading
import time
from http.client import HTTPConnection

import numpy as np
import pytest

from repro.core.errors import (
    DrainerError,
    InvalidParameterError,
    OverloadedError,
    SearchError,
    ShutdownError,
    ValidationError,
)
from repro.parallel import MicroBatchQueue
from repro.serve import IndexServer, SearchApp, ServeConfig
from repro.serve.batching import KnnBatcher

#: A window cap far above any real wait here, so "dispatched before the cap"
#: and "held to the cap" are told apart by a wide margin, not micro-timings.
CAP_S = 1.0


class TestMicroBatchQueue:
    def test_single_submit_round_trips(self):
        queue = MicroBatchQueue(lambda items: [x * 2 for x in items],
                                max_wait_s=0.0)
        try:
            assert queue.submit(21) == 42
        finally:
            queue.close()

    def test_concurrent_submissions_coalesce(self):
        """While one batch is being processed, later submissions pile up and
        are drained as a single following batch."""
        release_first = threading.Event()
        first_entered = threading.Event()

        def process(items):
            if not first_entered.is_set():
                first_entered.set()
                assert release_first.wait(10)
            return [x + 1 for x in items]

        queue = MicroBatchQueue(process, max_batch=64, max_wait_s=0.0)
        try:
            results: dict = {}
            def submit(value):
                results[value] = queue.submit(value, timeout=30)
            first = threading.Thread(target=submit, args=(0,))
            first.start()
            assert first_entered.wait(10)
            rest = [threading.Thread(target=submit, args=(value,))
                    for value in range(1, 6)]
            for thread in rest:
                thread.start()
            # The five stragglers park in the pending list (nothing can drain
            # until the first batch's processor returns); wait until all five
            # actually enqueued before releasing, or the count is racy.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with queue._condition:
                    if len(queue._pending) == 5:
                        break
                time.sleep(0.001)
            release_first.set()
            first.join(10)
            for thread in rest:
                thread.join(10)
            assert results == {value: value + 1 for value in range(6)}
            stats = queue.stats
            assert stats["batched_queries"] == 6
            assert stats["batches"] == 2  # [0] then [1..5] coalesced
            assert stats["largest_batch"] == 5
            assert stats["mean_batch_size"] == 3.0
        finally:
            queue.close()

    def test_exception_outcome_hits_only_its_submitter(self):
        def process(items):
            return [ValueError("poisoned") if x < 0 else x for x in items]

        queue = MicroBatchQueue(process, max_wait_s=0.0)
        try:
            assert queue.submit(5) == 5
            with pytest.raises(ValueError, match="poisoned"):
                queue.submit(-1)
            assert queue.submit(7) == 7  # queue survives the failure
        finally:
            queue.close()

    def test_processor_raising_fails_the_whole_batch(self):
        def process(items):
            raise SearchError("engine exploded")

        queue = MicroBatchQueue(process, max_wait_s=0.0)
        try:
            with pytest.raises(SearchError, match="engine exploded"):
                queue.submit(1)
        finally:
            queue.close()

    def test_wrong_outcome_count_is_a_typed_failure(self):
        queue = MicroBatchQueue(lambda items: [], max_wait_s=0.0)
        try:
            with pytest.raises(InvalidParameterError, match="0 outcomes"):
                queue.submit(1)
        finally:
            queue.close()

    def test_submit_after_close_raises_shutdown(self):
        queue = MicroBatchQueue(lambda items: list(items), max_wait_s=0.0)
        queue.close()
        with pytest.raises(ShutdownError):
            queue.submit(1)

    def test_close_is_idempotent(self):
        queue = MicroBatchQueue(lambda items: list(items), max_wait_s=0.0)
        queue.close()
        queue.close()

    def test_constructor_validation(self):
        with pytest.raises(InvalidParameterError):
            MicroBatchQueue(lambda items: items, max_batch=0)
        with pytest.raises(InvalidParameterError):
            MicroBatchQueue(lambda items: items, max_wait_s=-1.0)
        with pytest.raises(InvalidParameterError):
            MicroBatchQueue(lambda items: items, max_pending=0)


class TestAdaptiveWindow:
    """The window closes once ``callers()`` submitters are pending."""

    def test_a_bound_of_one_dispatches_at_once(self):
        queue = MicroBatchQueue(lambda items: list(items), max_wait_s=CAP_S,
                                callers=lambda: 1)
        try:
            started = time.monotonic()
            assert queue.submit(7, timeout=10) == 7
            assert time.monotonic() - started < CAP_S / 2
        finally:
            queue.close()

    def test_a_bound_of_n_waits_for_n_items_then_dispatches(self):
        batches: list = []

        def process(items):
            batches.append(sorted(items))
            return list(items)

        queue = MicroBatchQueue(process, max_wait_s=CAP_S, callers=lambda: 3)
        try:
            started = time.monotonic()
            threads = []
            for value in range(3):
                thread = threading.Thread(
                    target=lambda value=value: queue.submit(value, timeout=10))
                thread.start()
                threads.append(thread)
                time.sleep(0.05)  # stragglers, well inside the window
            for thread in threads:
                thread.join(10)
            assert batches == [[0, 1, 2]]
            assert time.monotonic() - started < CAP_S / 2
        finally:
            queue.close()

    @pytest.mark.parametrize("callers", [None, lambda: None],
                             ids=["no-callable", "unknown-bound"])
    def test_no_bound_keeps_the_full_window(self, callers):
        queue = MicroBatchQueue(lambda items: list(items), max_wait_s=CAP_S,
                                callers=callers)
        try:
            started = time.monotonic()
            assert queue.submit(7, timeout=10) == 7
            assert time.monotonic() - started >= 0.9 * CAP_S
        finally:
            queue.close()


class TestAdaptiveWindowOverHttp:
    """The server's open connections are the bound: one connection is at
    most one in-flight ``/knn``."""

    @pytest.fixture()
    def server(self, static_index):
        app = SearchApp(ServeConfig(batch_max_wait_s=CAP_S))
        app.add_index("static", static_index)
        with IndexServer(app) as running:
            yield running

    @staticmethod
    def _connect(server, count: int) -> "list[HTTPConnection]":
        connections = [HTTPConnection(server.host, server.port, timeout=30)
                       for _ in range(count)]
        for connection in connections:
            connection.connect()
        # Counted at accept time, on the acceptor thread.
        deadline = time.monotonic() + 10
        while server._httpd.open_connections < count:
            assert time.monotonic() < deadline, "connections never accepted"
            time.sleep(0.001)
        return connections

    @staticmethod
    def _knn(connection: HTTPConnection, query) -> float:
        started = time.monotonic()
        connection.request("POST", "/static/knn",
                           body=json.dumps({"query": query.tolist(), "k": 2}),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        response.read()
        assert response.status == 200
        return time.monotonic() - started

    def test_one_keep_alive_connection_never_waits_for_the_cap(
            self, server, serve_queries):
        (connection,) = self._connect(server, 1)
        try:
            latencies = [self._knn(connection, query)
                         for query in serve_queries[:5]]
        finally:
            connection.close()
        assert max(latencies) < CAP_S / 2, latencies

    def test_an_idle_second_connection_holds_the_window_to_the_cap(
            self, server, serve_queries):
        active, idle = self._connect(server, 2)
        try:
            assert self._knn(active, serve_queries[0]) >= 0.9 * CAP_S
        finally:
            active.close()
            idle.close()

    def test_connections_released_together_still_coalesce(
            self, server, serve_queries):
        connections = self._connect(server, 4)
        barrier = threading.Barrier(len(connections))
        errors: list = []

        def ask(connection, query):
            barrier.wait(10)
            try:
                self._knn(connection, query)
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=ask, args=(connection, query))
                   for connection, query in zip(connections, serve_queries)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            for connection in connections:
                connection.close()
        assert not errors, errors
        assert server.app._entry("static").batcher.stats["largest_batch"] >= 2

    def test_connection_count_returns_to_zero_under_churn(self, server):
        """Accept (acceptor thread) and close (handler threads) race on the
        count; a lost update would leave it off zero once all are gone."""
        errors: list = []

        def churn():
            try:
                for _ in range(10):
                    connection = HTTPConnection(server.host, server.port,
                                                timeout=30)
                    connection.request("GET", "/healthz")
                    connection.getresponse().read()
                    connection.close()
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        deadline = time.monotonic() + 10
        while server._httpd.open_connections != 0:
            assert time.monotonic() < deadline, server._httpd.open_connections
            time.sleep(0.001)


class _PoisonedOutcomes:
    """A Sequence whose *iteration* raises: passes the in-``try`` length
    check, then kills the drain loop in its unprotected delivery phase —
    the exact shape of a drainer-level bug the watchdog exists for."""

    def __init__(self, count: int) -> None:
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        raise MemoryError("injected drainer death")


class TestDrainerWatchdog:
    def test_drainer_death_fails_pending_and_restarts(self):
        """Regression: a drainer-level failure must not wedge the queue.

        Submitters whose items were mid-load when the drainer died get a
        typed :class:`DrainerError` (never a silent hang), the death is
        counted, and a fresh drainer serves the next submission.
        """
        state = {"deaths": 1}

        def process(items):
            if state["deaths"]:
                state["deaths"] -= 1
                return _PoisonedOutcomes(len(items))
            return [item * 2 for item in items]

        queue = MicroBatchQueue(process, max_wait_s=0.0)
        try:
            with pytest.raises(DrainerError, match="drainer died") as excinfo:
                queue.submit(1, timeout=10)
            assert isinstance(excinfo.value.__cause__, MemoryError)
            # The restarted drainer keeps serving the same queue.
            assert queue.submit(21, timeout=10) == 42
            stats = queue.stats
            assert stats["drainer_restarts"] == 1
            assert stats["pending"] == 0
        finally:
            queue.close()

    def test_death_under_concurrency_fails_every_waiter(self):
        release = threading.Event()

        def process(items):
            release.wait(10)
            return _PoisonedOutcomes(len(items))

        queue = MicroBatchQueue(process, max_wait_s=0.0)
        try:
            outcomes: list = [None] * 4

            def ask(position):
                try:
                    outcomes[position] = queue.submit(position, timeout=10)
                except Exception as error:  # noqa: BLE001 - captured
                    outcomes[position] = error

            threads = [threading.Thread(target=ask, args=(position,))
                       for position in range(4)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and queue.stats["batches"] == 0:
                time.sleep(0.001)
            release.set()
            for thread in threads:
                thread.join(10)
            # Every submitter — in the dying batch or queued behind it — got
            # a typed failure; nobody hung.
            assert all(isinstance(outcome, DrainerError)
                       for outcome in outcomes)
        finally:
            queue.close()

    def test_close_after_death_stays_closed(self):
        queue = MicroBatchQueue(lambda items: _PoisonedOutcomes(len(items)),
                                max_wait_s=0.0)
        with pytest.raises(DrainerError):
            queue.submit(1, timeout=10)
        queue.close()
        with pytest.raises(ShutdownError):
            queue.submit(2)


class TestLoadShedding:
    def test_backlog_beyond_max_pending_is_shed(self):
        entered = threading.Event()
        release = threading.Event()

        def process(items):
            entered.set()
            release.wait(10)
            return list(items)

        queue = MicroBatchQueue(process, max_wait_s=0.0, max_pending=2)
        try:
            first = threading.Thread(target=lambda: queue.submit(0, timeout=30))
            first.start()
            assert entered.wait(10)  # the drainer is busy with item 0
            parked = [threading.Thread(
                target=lambda value=value: queue.submit(value, timeout=30))
                for value in (1, 2)]
            for thread in parked:
                thread.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and queue.pending_depth < 2:
                time.sleep(0.001)
            assert queue.pending_depth == 2
            with pytest.raises(OverloadedError, match="retry shortly"):
                queue.submit(3)
            release.set()
            first.join(10)
            for thread in parked:
                thread.join(10)
            # Draining the backlog restores capacity.
            assert queue.submit(4, timeout=10) == 4
        finally:
            queue.close()


class TestKnnBatcher:
    @pytest.fixture()
    def engine(self, static_index):
        return static_index

    @pytest.fixture()
    def batcher(self, engine):
        knn_batcher = KnnBatcher(lambda: engine, max_wait_s=0.001)
        yield knn_batcher
        knn_batcher.close()

    def test_batched_answers_match_direct_knn(self, batcher, engine,
                                              serve_queries):
        """Answers through the coalescing queue are bit-identical to direct
        per-query knn, under real thread concurrency."""
        expected = [engine.knn(query, k=3) for query in serve_queries]
        results: list = [None] * len(serve_queries)

        def ask(position):
            results[position] = batcher.submit(serve_queries[position], 3, None)

        threads = [threading.Thread(target=ask, args=(position,))
                   for position in range(len(serve_queries))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_array_equal(got.distances, want.distances)

    def test_mixed_k_requests_group_correctly(self, batcher, engine,
                                              serve_queries):
        expected_k1 = engine.knn(serve_queries[0], k=1)
        expected_k5 = engine.knn(serve_queries[1], k=5)
        outcomes: dict = {}

        def ask(key, query, k):
            outcomes[key] = batcher.submit(query, k, None)

        threads = [threading.Thread(target=ask,
                                    args=("k1", serve_queries[0], 1)),
                   threading.Thread(target=ask,
                                    args=("k5", serve_queries[1], 5))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        np.testing.assert_array_equal(outcomes["k1"].indices,
                                      expected_k1.indices)
        np.testing.assert_array_equal(outcomes["k5"].indices,
                                      expected_k5.indices)

    def test_malformed_query_cannot_poison_neighbours(self, batcher, engine,
                                                      serve_queries):
        """A wrong-length query in a coalesced batch fails alone; the valid
        neighbour still gets its exact answer."""
        expected = engine.knn(serve_queries[0], k=2)
        outcomes: dict = {}

        def ask_good():
            outcomes["good"] = batcher.submit(serve_queries[0], 2, None)

        def ask_bad():
            try:
                batcher.submit(np.zeros(7), 2, None)
            except Exception as error:  # noqa: BLE001 - captured for assertion
                outcomes["bad"] = error

        threads = [threading.Thread(target=ask_good),
                   threading.Thread(target=ask_bad)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert isinstance(outcomes["bad"], ValidationError)
        np.testing.assert_array_equal(outcomes["good"].indices,
                                      expected.indices)

    def test_k_and_timeout_validated_on_the_callers_thread(self, batcher):
        with pytest.raises(ValidationError, match="k must be an integer"):
            batcher.submit(np.zeros(64), "3", None)
        with pytest.raises(SearchError, match="k must be >= 1"):
            batcher.submit(np.zeros(64), 0, None)
        with pytest.raises(ValidationError, match="timeout_s must be a number"):
            batcher.submit(np.zeros(64), 1, [1.0])

    def test_engine_lookup_is_per_batch(self, make_index, serve_rows,
                                        serve_queries):
        """Swapping the engine behind the getter redirects the next batch —
        the hot-reload contract the app relies on."""
        holder = {"engine": make_index(serve_rows)}
        batcher = KnnBatcher(lambda: holder["engine"], max_wait_s=0.0)
        try:
            before = batcher.submit(serve_queries[0], 1, None)
            holder["engine"] = make_index(serve_rows[:100])
            after = batcher.submit(serve_queries[0], 1, None)
            assert before.stats.num_series == 300
            assert after.stats.num_series == 100
        finally:
            batcher.close()
