"""Fault-tolerant scatter-gather: retries, quarantine, degraded bit-identity.

The fault contract under test (see :mod:`repro.index.sharded`):

* transient shard failures are retried with deterministic, deadline-bounded
  backoff; a shard that recovers within its retry budget leaves no trace in
  the answer;
* a shard that keeps failing (or is corrupt on load) trips the
  ``healthy → suspect → quarantined`` ladder and is skipped until a probe
  readmits it;
* with ``K`` of ``N`` shards down under ``degraded="allow"``, the answer is
  **bit-identical** to an index built over the surviving shards' rows alone,
  with ``coverage == (N-K)/N`` and ``partial=True``; ``degraded="forbid"``
  (and total failure) raise a typed
  :class:`~repro.core.errors.PartialResultError`;
* a hung shard cannot hang the query: the gather abandons it at the deadline
  plus a small grace;
* no failure mode lets an untyped exception or an unbounded wait escape.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    InvalidParameterError,
    PartialResultError,
    ReproError,
)
from repro.datasets.synthetic import random_walk
from repro.index.shard_health import (
    HEALTHY,
    QUARANTINED,
    SUSPECT,
    HealthPolicy,
    RetryPolicy,
    ShardHealthBoard,
)
from repro.index.sharded import ShardedIndex
from repro.index.sofa import SofaIndex

from fault_harness import FlakyShard, corruption_error

SERIES_LENGTH = 40
NUM_SHARDS = 4
ROWS_PER_SHARD = 30


def _factory():
    return SofaIndex(word_length=8, alphabet_size=16, leaf_size=10)


def _rows(count: int, seed: int) -> np.ndarray:
    return random_walk(count, SERIES_LENGTH, seed=seed)


@pytest.fixture(scope="module")
def base_rows() -> np.ndarray:
    return _rows(NUM_SHARDS * ROWS_PER_SHARD, seed=8801)


@pytest.fixture(scope="module")
def queries() -> np.ndarray:
    return _rows(5, seed=8802)


@pytest.fixture()
def sharded(tmp_path, base_rows) -> ShardedIndex:
    """Four shards, deterministic health (no background probe), fast retries."""
    index = ShardedIndex.build(
        base_rows, tmp_path / "shards", num_shards=NUM_SHARDS,
        index_factory=_factory,
        retry=RetryPolicy(max_attempts=3, backoff_base_s=0.001,
                          backoff_cap_s=0.002),
        health=HealthPolicy(auto_probe=False))
    yield index
    index.close()


def _wrap_shard(index: ShardedIndex, shard: int, **faults) -> FlakyShard:
    """Install a :class:`FlakyShard` in front of one shard engine (loading
    it first — shards load lazily)."""
    engine = index._engine(index._shards[shard])
    flaky = FlakyShard(engine, **faults)
    index._shards[shard].engine = flaky
    return flaky


def _survivor_reference(base_rows: np.ndarray, dead_shards: "set[int]"):
    """An unsharded index over the surviving rows plus the id translation."""
    keep = [shard for shard in range(NUM_SHARDS) if shard not in dead_shards]
    parts = [base_rows[shard * ROWS_PER_SHARD:(shard + 1) * ROWS_PER_SHARD]
             for shard in keep]
    global_ids = np.concatenate(
        [np.arange(shard * ROWS_PER_SHARD, (shard + 1) * ROWS_PER_SHARD)
         for shard in keep])
    return _factory().build(np.concatenate(parts, axis=0)), global_ids


class TestTransientRetries:
    def test_fail_twice_then_succeed_leaves_no_trace(self, sharded, base_rows,
                                                     queries):
        flaky = _wrap_shard(sharded, 1, fail_times=2)
        reference = _factory().build(base_rows)
        for query in queries:
            result = sharded.knn(query, k=5)
            expected = reference.knn(query, k=5)
            np.testing.assert_array_equal(result.indices, expected.indices)
            np.testing.assert_array_equal(result.distances,
                                          expected.distances)
            assert result.stats.coverage == 1.0
            assert result.stats.partial is False
        # Two injected failures consumed two retry attempts, the third won.
        assert flaky.calls == len(queries) + 2
        assert sharded.shard_states()[1] == HEALTHY

    def test_failure_after_offering_then_retry_stays_exact(self, tmp_path):
        """A shard attempt that dies *after* its search offered candidates to
        the cross-shard best-so-far, then succeeds on retry, offers the same
        rows twice: k=2 slots both hold the query's own row, the bound
        collapses to 0, and the other shard's true neighbour would be pruned
        — unless the gather re-scatters with a fresh heap."""
        base = _rows(60, seed=8803)
        noise = np.random.default_rng(8804).normal(scale=0.05, size=base.shape)
        rows = np.vstack([base, base + noise])  # row i's neighbour: 60 + i

        class SearchThenFailOnce:
            def __init__(self, engine):
                self._engine, self.failed = engine, False

            def __getattr__(self, name):
                return getattr(self._engine, name)

            def knn(self, *args, **kwargs):
                result = self._engine.knn(*args, **kwargs)
                if not self.failed:
                    self.failed = True
                    raise RuntimeError("died after searching")
                return result

        index = ShardedIndex.build(
            rows, tmp_path / "shards", num_shards=2, index_factory=_factory,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.001,
                              backoff_cap_s=0.002),
            health=HealthPolicy(quarantine_after=5, auto_probe=False))
        try:
            for row in range(10):
                index._shards[0].engine = SearchThenFailOnce(
                    index._engine(index._shards[0]))
                # The healthy shard searches after the doubled offers landed.
                _wrap_shard(index, 1, hang_s=0.03)
                result = index.knn(rows[row], k=2)
                assert result.indices.tolist() == [row, 60 + row]
                assert result.stats.partial is False
                for shard in index._shards:
                    shard.engine = shard.engine._engine
        finally:
            index.close()

    def test_retry_exhaustion_degrades_bit_identically(self, sharded,
                                                       base_rows, queries):
        """A shard failing past its retry budget is excluded; the answer is
        exactly what an index over the surviving shards' rows returns."""
        _wrap_shard(sharded, 2, fail_times=10_000)
        reference, global_ids = _survivor_reference(base_rows, {2})
        for query in queries:
            result = sharded.knn(query, k=6)
            expected = reference.knn(query, k=6)
            np.testing.assert_array_equal(result.indices,
                                          global_ids[expected.indices])
            np.testing.assert_array_equal(result.distances,
                                          expected.distances)
            assert result.stats.partial is True
            assert result.stats.shards_total == NUM_SHARDS
            assert result.stats.shards_answered == NUM_SHARDS - 1
            assert result.stats.coverage == pytest.approx(3 / 4)

    def test_knn_batch_degrades_bit_identically(self, sharded, base_rows,
                                                queries):
        _wrap_shard(sharded, 0, fail_times=10_000)
        reference, global_ids = _survivor_reference(base_rows, {0})
        expected = reference.knn_batch(queries, k=4, num_workers=1)
        observed = sharded.knn_batch(queries, k=4)
        for got, want in zip(observed, expected):
            np.testing.assert_array_equal(got.indices,
                                          global_ids[want.indices])
            np.testing.assert_array_equal(got.distances, want.distances)
            assert got.stats.partial is True

    def test_forbid_mode_raises_typed_partial_error(self, sharded, queries):
        _wrap_shard(sharded, 3, fail_times=10_000)
        with pytest.raises(PartialResultError) as excinfo:
            sharded.knn(queries[0], k=2, degraded="forbid")
        error = excinfo.value
        assert error.shards_total == NUM_SHARDS
        assert error.shards_answered == NUM_SHARDS - 1
        assert error.coverage == pytest.approx(3 / 4)
        assert len(error.failures) == 1
        # The allow-mode default still answers afterwards.
        assert sharded.knn(queries[0], k=2).stats.partial is True

    def test_total_failure_raises_even_under_allow(self, sharded, queries):
        for shard in range(NUM_SHARDS):
            _wrap_shard(sharded, shard, fail_times=10_000)
        with pytest.raises(PartialResultError, match="no shard"):
            sharded.knn(queries[0], k=1)

    def test_untyped_shard_exceptions_never_escape(self, sharded, queries):
        """Whatever a shard raises, the caller sees typed errors only."""
        _wrap_shard(sharded, 1, fail_times=10_000,
                    error_factory=lambda: ZeroDivisionError("boom"))
        try:
            sharded.knn(queries[0], k=3, degraded="forbid")
        except ReproError as error:
            assert isinstance(error, PartialResultError)
            ((shard, message),) = error.failures.items()
            assert shard == 1
            assert "ZeroDivisionError" in message
        else:  # pragma: no cover - the raise is the contract
            pytest.fail("expected a typed PartialResultError")
        # The degraded-allow path still answers (the shard is now skipped).
        result = sharded.knn(queries[0], k=3)
        assert result.stats.partial is True


class TestQuarantineAndReadmission:
    def test_transient_ladder_escalates_to_quarantine(self, sharded, queries):
        flaky = _wrap_shard(sharded, 2, fail_times=10_000)
        sharded.knn(queries[0], k=1)  # 3 failed attempts → quarantined
        assert sharded.shard_states()[2] == QUARANTINED
        calls_when_quarantined = flaky.calls
        sharded.knn(queries[1], k=1)  # quarantined shards are skipped
        assert flaky.calls == calls_when_quarantined
        report = sharded.health_report()
        assert report["status"] == "degraded"
        assert report["quarantined"] == 1
        assert report["shards"][2]["quarantine_trips"] == 1

    def test_injected_corruption_quarantines_immediately(self, sharded,
                                                         queries):
        flaky = _wrap_shard(sharded, 1, fail_times=10_000,
                            error_factory=corruption_error)
        sharded.knn(queries[0], k=1)
        assert sharded.shard_states()[1] == QUARANTINED
        assert flaky.calls == 1  # persistent failures never retry
        # The probe reloads the shard from its (healthy) on-disk snapshot —
        # dropping the fault wrapper — and readmits it.
        assert sharded.probe_shard(1) is True
        assert sharded.shard_states()[1] == HEALTHY
        result = sharded.knn(queries[0], k=4)
        assert result.stats.coverage == 1.0

    def test_on_disk_corruption_repair_and_readmit(self, tmp_path, base_rows,
                                                   queries):
        """The full lifecycle: corrupt payload bytes → quarantine → repair →
        probe → readmit → answers bit-identical to the pre-fault index."""
        index = ShardedIndex.build(
            base_rows, tmp_path / "shards", num_shards=NUM_SHARDS,
            index_factory=_factory,
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.001),
            health=HealthPolicy(auto_probe=False))
        try:
            before = index.knn(queries[0], k=5)
            victim_dir = index._shards[2].path
            index._shards[2].engine.close()
            index._shards[2].engine = None  # force the next query to reload
            (victim,) = sorted(victim_dir.glob("*.npy"))[:1]
            pristine = victim.read_bytes()
            victim.write_bytes(pristine[:64] + b"\xff" * 32 + pristine[96:])

            degraded = index.knn(queries[0], k=5)
            assert degraded.stats.partial is True
            assert index.shard_states()[2] == QUARANTINED
            assert index.probe_shard(2) is False  # still broken on disk

            victim.write_bytes(pristine)  # the repair
            assert index.probe_shard(2) is True
            assert index.shard_states()[2] == HEALTHY
            after = index.knn(queries[0], k=5)
            np.testing.assert_array_equal(after.indices, before.indices)
            np.testing.assert_array_equal(after.distances, before.distances)
        finally:
            index.close()

    def test_readmitted_shard_counts_in_health_report(self, sharded, queries):
        _wrap_shard(sharded, 0, fail_times=10_000,
                    error_factory=corruption_error)
        sharded.knn(queries[0], k=1)
        assert sharded.probe_shard(0) is True
        report = sharded.health_report()
        assert report["status"] == "ok"
        assert report["shards"][0]["readmits"] == 1
        assert report["shards"][0]["quarantine_trips"] == 1


class TestHungShards:
    def test_hung_shard_cannot_hang_the_query(self, tmp_path, base_rows,
                                              queries):
        hang_s = 3.0
        index = ShardedIndex.build(
            base_rows, tmp_path / "shards", num_shards=NUM_SHARDS,
            index_factory=_factory,
            retry=RetryPolicy(max_attempts=1),
            health=HealthPolicy(auto_probe=False),
            gather_grace_s=0.2)
        try:
            index.knn(queries[0], k=1)  # load every shard engine
            _wrap_shard(index, 3, hang_s=hang_s)
            started = time.monotonic()
            result = index.knn(queries[0], k=3, timeout_s=0.2)
            elapsed = time.monotonic() - started
            assert elapsed < hang_s / 2, (
                f"query took {elapsed:.2f}s — it waited for the hung shard")
            assert result.stats.partial is True
            assert result.stats.shards_answered == NUM_SHARDS - 1
            # The abandoned shard was charged a (transient) failure.
            assert index.shard_states()[3] in (SUSPECT, QUARANTINED)
        finally:
            index.close()


class TestRetryPolicyProperties:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), shard=st.integers(0, 64),
           attempt=st.integers(0, 8),
           limit=st.one_of(st.none(), st.floats(0.0, 0.5)))
    def test_backoff_is_deterministic_and_bounded(self, seed, shard, attempt,
                                                  limit):
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.004,
                             backoff_cap_s=0.05, jitter=0.5, seed=seed)
        first = policy.backoff_s(attempt, shard, limit=limit)
        second = policy.backoff_s(attempt, shard, limit=limit)
        assert first == second, "same (seed, shard, attempt) must be equal"
        assert first >= 0.0
        # Never above the exponential cap with full jitter...
        assert first <= policy.backoff_cap_s * (1.0 + policy.jitter) + 1e-12
        # ...and never above the remaining deadline slice.
        if limit is not None:
            assert first <= max(0.0, limit) + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(attempt=st.integers(0, 6), shard=st.integers(0, 16))
    def test_backoff_grows_no_faster_than_the_cap(self, attempt, shard):
        policy = RetryPolicy(backoff_base_s=0.002, backoff_cap_s=0.016,
                             jitter=0.25, seed=11)
        exponential = min(policy.backoff_cap_s,
                          policy.backoff_base_s * 2.0 ** attempt)
        delay = policy.backoff_s(attempt, shard)
        assert exponential <= delay <= exponential * (1.0 + policy.jitter)

    def test_policy_validation(self):
        with pytest.raises(InvalidParameterError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(InvalidParameterError):
            RetryPolicy(backoff_base_s=-1.0)
        with pytest.raises(InvalidParameterError):
            RetryPolicy(jitter=-0.5)
        with pytest.raises(InvalidParameterError):
            HealthPolicy(suspect_after=3, quarantine_after=2)

    def test_health_board_ladder(self):
        board = ShardHealthBoard(2, HealthPolicy(suspect_after=1,
                                                 quarantine_after=3,
                                                 auto_probe=False))
        error = RuntimeError("x")
        assert board.record_transient(0, error) == SUSPECT
        assert board.record_transient(0, error) == SUSPECT
        assert board.record_transient(0, error) == QUARANTINED
        assert board.state(1) == HEALTHY  # isolation between shards
        board.record_success(0)
        assert board.state(0) == HEALTHY
        assert board.report()[0]["readmits"] == 1
