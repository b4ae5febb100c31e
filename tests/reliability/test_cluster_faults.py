"""Process-isolated shard serving: kill -9 survival and answer identity.

The cluster contract under test (see :mod:`repro.cluster`):

* **healthy** — a :class:`~repro.cluster.ClusterIndex` answers bit-identical
  to the in-process :class:`~repro.index.sharded.ShardedIndex` over the same
  snapshot, across shard counts and ``k``;
* **kill -9** — SIGKILLing a worker mid-storm never surfaces an untyped
  error: with ``degraded="allow"`` every query answers, the degraded answers
  bit-identical to an unsharded index over the surviving shards' rows;
* **recovery** — the supervisor restarts the dead worker, the inherited
  probe loop readmits the shard, coverage returns to ``1.0``, and the
  readmission resets the supervisor's restart ladder;
* **SIGTERM** — a worker asked to stop drains and exits 0; the supervisor
  restarts it without charging the crash-loop breaker;
* **crash loop** — a worker that cannot start (bad snapshot) trips the
  breaker after exactly ``crash_loop_threshold`` rapid crashes and the
  coordinator quarantines the shard via the ``on_crash_loop`` callback;
* the cluster is **read-only**: writes raise typed errors instead of
  desyncing the coordinator's global id maps.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.cluster import ClusterIndex, ShardSupervisor, SupervisorPolicy
from repro.core.errors import ReadOnlyIndexError, ReproError
from repro.datasets.synthetic import random_walk
from repro.index.shard_health import HealthPolicy, RetryPolicy
from repro.index.sharded import ShardedIndex
from repro.index.sofa import SofaIndex

SERIES_LENGTH = 40
NUM_SHARDS = 4
ROWS_PER_SHARD = 30


def _factory():
    return SofaIndex(word_length=8, alphabet_size=16, leaf_size=10)


@pytest.fixture(scope="module")
def base_rows() -> np.ndarray:
    return random_walk(NUM_SHARDS * ROWS_PER_SHARD, SERIES_LENGTH, seed=8801)


@pytest.fixture(scope="module")
def queries() -> np.ndarray:
    return random_walk(5, SERIES_LENGTH, seed=8802)


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory, base_rows):
    """One 4-shard snapshot on disk, shared by every cluster in the module."""
    path = tmp_path_factory.mktemp("cluster") / "shards"
    index = ShardedIndex.build(base_rows, path, num_shards=NUM_SHARDS,
                               index_factory=_factory)
    index.close()
    return path


def _fast_retry() -> RetryPolicy:
    return RetryPolicy(max_attempts=2, backoff_base_s=0.001,
                       backoff_cap_s=0.002)


def _fast_policy(**overrides) -> SupervisorPolicy:
    defaults = dict(restart_base_s=0.02, restart_cap_s=0.1, jitter=0.0,
                    heartbeat_interval_s=0.05, crash_loop_window_s=2.0)
    defaults.update(overrides)
    return SupervisorPolicy(**defaults)


def _launch(snapshot, **overrides) -> ClusterIndex:
    options = dict(retry=_fast_retry(),
                   health=HealthPolicy(quarantine_after=2,
                                       probe_interval_s=0.1),
                   policy=_fast_policy(), start_timeout_s=60.0)
    options.update(overrides)
    return ClusterIndex.launch(snapshot, **options)


def _worker_pid(cluster: ClusterIndex, shard: int) -> int:
    pid = cluster.supervisor.report()[shard]["pid"]
    assert pid is not None
    return pid


def _wait_until(predicate, timeout_s: float = 30.0, message: str = "") -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out waiting for: {message or predicate}")


def _survivor_reference(base_rows: np.ndarray, dead_shards: "set[int]"):
    """An unsharded index over the surviving rows plus the id translation."""
    keep = [shard for shard in range(NUM_SHARDS) if shard not in dead_shards]
    parts = [base_rows[shard * ROWS_PER_SHARD:(shard + 1) * ROWS_PER_SHARD]
             for shard in keep]
    global_ids = np.concatenate(
        [np.arange(shard * ROWS_PER_SHARD, (shard + 1) * ROWS_PER_SHARD)
         for shard in keep])
    return _factory().build(np.concatenate(parts, axis=0)), global_ids


class TestHealthyIdentity:
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_bit_identical_to_in_process_sharded(self, tmp_path, base_rows,
                                                 queries, num_shards):
        path = tmp_path / f"shards-{num_shards}"
        built = ShardedIndex.build(base_rows, path, num_shards=num_shards,
                                   index_factory=_factory)
        cluster = _launch(path)
        try:
            for k in (1, 5, 17):
                for query in queries:
                    local = built.knn(query, k=k)
                    remote = cluster.knn(query, k=k)
                    np.testing.assert_array_equal(remote.indices,
                                                  local.indices)
                    np.testing.assert_array_equal(remote.distances,
                                                  local.distances)
                    assert remote.stats.partial is False
                    assert remote.stats.coverage == 1.0
        finally:
            cluster.close()
            built.close()

    def test_batch_bit_identical(self, snapshot, base_rows, queries):
        built = ShardedIndex.load(snapshot)
        cluster = _launch(snapshot)
        try:
            local = built.knn_batch(queries, k=7)
            remote = cluster.knn_batch(queries, k=7)
            for expected, got in zip(local, remote):
                np.testing.assert_array_equal(got.indices, expected.indices)
                np.testing.assert_array_equal(got.distances,
                                              expected.distances)
        finally:
            cluster.close()
            built.close()

    def test_cross_shard_ties_survive_a_forwarded_threshold(self, tmp_path,
                                                            base_rows):
        """Shard 1 holds a copy of every shard-0 row and answers first, so
        shard 0's worker searches under a forwarded threshold equal to the
        canonical distance of its own best row — the tie the smaller global
        id must win, even when the worker's refinement-time distance for
        that row sits an ulp above the bound."""
        half = base_rows[:60]
        path = tmp_path / "duplicated"
        built = ShardedIndex.build(np.vstack([half, half]), path,
                                   num_shards=2, index_factory=_factory)
        cluster = _launch(path)
        first, second = (shard.remote for shard in cluster._shards)
        answered = threading.Event()

        class AskedAfter:
            """Shard 0's client, held back until shard 1 has answered."""

            def __getattr__(self, name):
                return getattr(first, name)

            def answer(self, *args):
                assert answered.wait(30.0)
                return first.answer(*args)

        class Announces:
            def __getattr__(self, name):
                return getattr(second, name)

            def answer(self, *args):
                try:
                    return second.answer(*args)
                finally:
                    answered.set()

        cluster._shards[0].remote = AskedAfter()
        cluster._shards[1].remote = Announces()
        noise = np.random.default_rng(8805).normal(scale=0.1,
                                                   size=half.shape)
        try:
            for k in (1, 3):
                for query in half + noise:
                    answered.clear()
                    local = built.knn(query, k=k)
                    remote = cluster.knn(query, k=k)
                    np.testing.assert_array_equal(remote.indices,
                                                  local.indices)
                    np.testing.assert_array_equal(remote.distances,
                                                  local.distances)
                    assert remote.indices[0] < 60, "the lower id wins the tie"
        finally:
            cluster.close()
            built.close()

    def test_cluster_is_read_only(self, snapshot, base_rows):
        cluster = _launch(snapshot)
        try:
            with pytest.raises(ReadOnlyIndexError):
                cluster.insert(base_rows[0])
            with pytest.raises(ReadOnlyIndexError):
                cluster.delete(0)
            with pytest.raises(ReadOnlyIndexError):
                cluster.compact()
            with pytest.raises(ReadOnlyIndexError):
                cluster.save()
        finally:
            cluster.close()


class TestKill9:
    def test_degraded_answers_match_survivors_index(self, snapshot, base_rows,
                                                    queries):
        # Slow restarts + no auto-probe hold the degraded state steady so
        # the survivor comparison is deterministic.
        victim = 2
        cluster = _launch(
            snapshot, health=HealthPolicy(quarantine_after=2,
                                          auto_probe=False),
            policy=_fast_policy(restart_base_s=60.0, restart_cap_s=60.0))
        try:
            os.kill(_worker_pid(cluster, victim), signal.SIGKILL)

            def _charged() -> bool:
                # The health ladder is charged from the answer path, so the
                # board only learns about the death through queries.
                cluster.knn(queries[0], k=1, timeout_s=10.0)
                return cluster.shard_states()[victim] == "quarantined"

            _wait_until(_charged, message="victim quarantined")
            reference, global_ids = _survivor_reference(base_rows, {victim})
            for query in queries:
                result = cluster.knn(query, k=5, timeout_s=10.0)
                expected = reference.knn(query, k=5)
                np.testing.assert_array_equal(result.indices,
                                              global_ids[expected.indices])
                np.testing.assert_array_equal(result.distances,
                                              expected.distances)
                assert result.stats.partial is True
                assert result.stats.coverage == pytest.approx(
                    (NUM_SHARDS - 1) / NUM_SHARDS)
        finally:
            cluster.close()

    def test_kill9_mid_storm_yields_no_untyped_errors(self, snapshot,
                                                      queries):
        cluster = _launch(snapshot)
        errors: "list[BaseException]" = []
        answers: "list[bool]" = []
        stop = threading.Event()

        def storm(seed: int) -> None:
            while not stop.is_set():
                try:
                    result = cluster.knn(queries[seed % len(queries)], k=5,
                                         timeout_s=10.0)
                    answers.append(result.stats.partial)
                except Exception as error:  # noqa: BLE001 — collected below
                    errors.append(error)

        threads = [threading.Thread(target=storm, args=(i,), daemon=True)
                   for i in range(4)]
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.3)
            os.kill(_worker_pid(cluster, 1), signal.SIGKILL)
            time.sleep(1.5)
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            # Untyped exceptions would break the serving contract; with
            # degraded="allow" and 3 of 4 shards alive, nothing raises at
            # all — the kill surfaces only as partial=True answers.
            untyped = [e for e in errors if not isinstance(e, ReproError)]
            assert untyped == [], untyped
            assert errors == [], [str(e) for e in errors]
            assert len(answers) > 0
        finally:
            stop.set()
            cluster.close()

    def test_supervisor_restarts_and_probe_readmits(self, snapshot, queries):
        victim = 0
        cluster = _launch(snapshot)
        try:
            os.kill(_worker_pid(cluster, victim), signal.SIGKILL)
            # Drive queries so the board learns about the death (the health
            # ladder is charged from the answer path).
            _wait_until(
                lambda: cluster.knn(queries[0], k=3,
                                    timeout_s=10.0).stats.partial,
                message="degraded answers after kill")
            # ... then full coverage again: restart + probe readmission.
            _wait_until(
                lambda: not cluster.knn(queries[0], k=3,
                                        timeout_s=10.0).stats.partial,
                message="coverage restored after restart")
            assert cluster.shard_states() == ["healthy"] * NUM_SHARDS
            report = cluster.supervisor.report()[victim]
            assert report["running"] is True
            # note_recovered reset the ladder on readmission.
            assert report["restarts"] == 0
            assert report["breaker_tripped"] is False
        finally:
            cluster.close()

    def test_sigterm_is_a_clean_exit_not_a_crash(self, snapshot, queries):
        victim = 3
        cluster = _launch(snapshot)
        try:
            first_pid = _worker_pid(cluster, victim)
            os.kill(first_pid, signal.SIGTERM)
            _wait_until(
                lambda: (cluster.supervisor.report()[victim]["pid"]
                         not in (None, first_pid)),
                message="worker respawned after SIGTERM")
            _wait_until(
                lambda: not cluster.knn(queries[0], k=3,
                                        timeout_s=10.0).stats.partial,
                message="coverage restored after SIGTERM restart")
            report = cluster.supervisor.report()[victim]
            # A deliberate stop charges neither the breaker nor the ladder.
            assert report["breaker_tripped"] is False
            assert report["restarts"] == 0
        finally:
            cluster.close()


class TestCrashLoop:
    def test_unstartable_worker_trips_breaker(self, tmp_path):
        trips: "list[int]" = []
        supervisor = ShardSupervisor(
            tmp_path, [tmp_path / "no-such-snapshot"],
            policy=_fast_policy(crash_loop_threshold=3,
                                crash_loop_window_s=30.0, cooloff_s=30.0),
            on_crash_loop=lambda shard, error: trips.append(shard))
        supervisor.start()
        try:
            deadline = time.monotonic() + 60.0
            while not trips and time.monotonic() < deadline:
                time.sleep(0.05)
            assert trips == [0]
            report = supervisor.report()[0]
            assert report["breaker_tripped"] is True
            # Three rapid crashes tripped it; half-open pacing (cooloff)
            # means no storm of further restarts piles up afterwards.
            assert report["restarts"] >= 3
        finally:
            supervisor.stop()
