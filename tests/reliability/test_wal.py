"""Write-ahead log: format, torn tails, crash sweeps and replay bit-identity.

The durability contract under test (see :mod:`repro.index.wal`):

* every acked ``insert``/``insert_batch``/``delete`` is in the log *before*
  the in-memory state mutates, so ``DynamicIndex.recover`` (snapshot + replay)
  reproduces the crashed index **bit-identically** up to the last acked write;
* a crash mid-append leaves a torn tail that the next open truncates — the
  recovered state is always the state after some *prefix* of the operations,
  never a torn mix;
* a flipped bit in a sealed record is detected as a typed
  :class:`~repro.core.errors.CorruptionError` naming the file and offset.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fsio
from repro.core.errors import (
    CorruptionError,
    InvalidParameterError,
    WalError,
)
from repro.datasets.synthetic import random_walk
from repro.index.dynamic import DynamicIndex
from repro.index.messi import MessiIndex
from repro.index.wal import (
    OP_COMPACT,
    OP_DELETE,
    OP_INSERT,
    WriteAheadLog,
    read_records,
)

from fault_harness import FaultInjector, SimulatedCrash

SERIES_LENGTH = 32


def _rows(count: int, seed: int) -> np.ndarray:
    return random_walk(count, SERIES_LENGTH, seed=seed)


def _build_dynamic(base: np.ndarray, wal_dir=None,
                   wal_fsync: str = "always") -> DynamicIndex:
    index = MessiIndex(word_length=8, alphabet_size=16, leaf_size=8).build(base)
    options = {}
    if wal_dir is not None:
        options = {"wal_dir": wal_dir, "wal_fsync": wal_fsync}
    return index.dynamic(**options)


def _signature(dynamic: DynamicIndex, queries: np.ndarray):
    results = dynamic.knn_batch(queries, k=2)
    return (dynamic.num_base, dynamic.delta_count, dynamic.num_surviving,
            [(result.indices.tolist(), result.distances.tolist())
             for result in results])


# --------------------------------------------------------------- log format


class TestLogFormat:
    def test_roundtrip_and_lsn_order(self, tmp_path):
        matrix = _rows(3, seed=1)
        with WriteAheadLog(tmp_path / "wal") as wal:
            first = wal.append_insert(matrix)
            second = wal.append_delete(7)
            third = wal.append_compact()
        assert (first, second, third) == (1, 2, 3)
        records = read_records(tmp_path / "wal")
        assert [record.op for record in records] == [OP_INSERT, OP_DELETE,
                                                     OP_COMPACT]
        assert [record.lsn for record in records] == [1, 2, 3]
        np.testing.assert_array_equal(records[0].values, matrix)
        assert records[0].values.dtype == np.float64
        assert records[1].row == 7
        # after_lsn filters the already-applied prefix.
        assert [record.lsn for record in read_records(tmp_path / "wal",
                                                      after_lsn=2)] == [3]

    def test_reopen_continues_lsn_sequence(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_delete(1)
        with WriteAheadLog(tmp_path / "wal") as wal:
            assert wal.last_lsn == 1
            assert wal.append_delete(2) == 2

    def test_rotation_spans_segments(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_delete(1)
            wal.rotate()
            wal.append_delete(2)
            assert len(list((tmp_path / "wal").glob("wal-*.log"))) == 2
        assert [record.lsn for record in read_records(tmp_path / "wal")] == [1, 2]

    def test_checkpoint_drops_old_segments(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_delete(1)
            wal.checkpoint()
            assert wal.append_delete(2) == 2  # LSNs keep counting
        segments = list((tmp_path / "wal").glob("wal-*.log"))
        assert len(segments) == 1
        assert [record.lsn for record in read_records(tmp_path / "wal")] == [2]

    def test_parameter_validation(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="fsync"):
            WriteAheadLog(tmp_path / "wal", fsync="sometimes")
        with pytest.raises(InvalidParameterError, match="batch_bytes"):
            WriteAheadLog(tmp_path / "wal2", fsync="batch", batch_bytes=0)
        with WriteAheadLog(tmp_path / "wal3") as wal:
            with pytest.raises(WalError, match="2-D"):
                wal.append_insert(np.zeros(4))
        with pytest.raises(WalError, match="closed"):
            wal.append_delete(0)
        with pytest.raises(WalError, match="not a write-ahead-log"):
            read_records(tmp_path / "nonexistent")

    def test_expect_empty_refuses_unreplayed_records(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_delete(3)
        with pytest.raises(WalError, match="recover"):
            WriteAheadLog(tmp_path / "wal", expect_empty=True)


class TestTornTailsAndCorruption:
    def _filled_log(self, tmp_path):
        directory = tmp_path / "wal"
        with WriteAheadLog(directory) as wal:
            wal.append_insert(_rows(2, seed=2))
            wal.append_delete(5)
            wal.append_insert(_rows(1, seed=3))
        (segment,) = directory.glob("wal-*.log")
        return directory, segment

    def test_torn_tail_truncation_sweep(self, tmp_path):
        """Cutting the segment at *every* byte length keeps a clean prefix."""
        directory, segment = self._filled_log(tmp_path)
        original = segment.read_bytes()
        full_records = [record.lsn for record in read_records(directory)]
        for cut in range(len(original) - 1, 15, -8):  # stride keeps it fast
            segment.write_bytes(original[:cut])
            survivors = [record.lsn for record in read_records(directory)]
            assert survivors == full_records[:len(survivors)], (
                f"cut at {cut} bytes returned a non-prefix of the log")
            # Re-opening for append truncates the torn tail and the log
            # accepts new records without complaint.
            with WriteAheadLog(directory) as wal:
                wal.append_delete(99)
            appended = [record.lsn for record in read_records(directory)]
            assert appended[-1] == (survivors[-1] if survivors else 0) + 1
            segment.write_bytes(original)  # restore for the next cut

    def test_bit_flip_in_sealed_record_is_detected(self, tmp_path):
        directory, segment = self._filled_log(tmp_path)
        original = bytearray(segment.read_bytes())
        # Flip a payload byte of the *first* record (not the tail): a
        # complete record failing its CRC is corruption, not a torn tail.
        position = 16 + 17 + 4  # file header + record header + into payload
        original[position] ^= 0x01
        segment.write_bytes(bytes(original))
        with pytest.raises(CorruptionError, match=segment.name):
            read_records(directory)

    def test_damage_in_non_last_segment_is_corruption(self, tmp_path):
        directory = tmp_path / "wal"
        with WriteAheadLog(directory) as wal:
            wal.append_delete(1)
            wal.rotate()
            wal.append_delete(2)
        first, _second = sorted(directory.glob("wal-*.log"))
        first.write_bytes(first.read_bytes()[:-4])  # tear the sealed segment
        with pytest.raises(CorruptionError, match=first.name):
            read_records(directory)

    def test_out_of_order_lsns_are_corruption(self, tmp_path):
        directory = tmp_path / "wal"
        with WriteAheadLog(directory) as wal:
            wal.append_delete(1)
            wal.append_delete(2)
        (segment,) = directory.glob("wal-*.log")
        data = bytearray(segment.read_bytes())
        # Both delete records are identical in size; swapping them breaks
        # the strictly-increasing LSN rule without breaking any CRC.
        record_size = 17 + 8
        first = bytes(data[16:16 + record_size])
        second = bytes(data[16 + record_size:16 + 2 * record_size])
        segment.write_bytes(bytes(data[:16]) + second + first)
        with pytest.raises(CorruptionError, match="out of order"):
            read_records(directory)

    def test_crash_while_creating_segment_recovers_header(self, tmp_path):
        directory = tmp_path / "wal"
        with WriteAheadLog(directory) as wal:
            wal.append_delete(1)
        (segment,) = directory.glob("wal-*.log")
        # Simulate a crash right after rotation created a short file.
        partial = directory / "wal-000002.log"
        partial.write_bytes(b"REPRO")  # shorter than the file header
        with WriteAheadLog(directory) as wal:
            assert wal.last_lsn == 1
            wal.append_delete(2)
        assert [record.lsn for record in read_records(directory)] == [1, 2]


# --------------------------------------------------- write-ahead crash sweeps


def _scripted_ops(extra_a: np.ndarray, extra_b: np.ndarray):
    """The operation script used by the deterministic crash sweeps."""
    return [
        ("insert", lambda dyn: dyn.insert_batch(extra_a)),
        ("delete", lambda dyn: dyn.delete(2)),
        ("compact", lambda dyn: dyn.compact()),
        ("insert", lambda dyn: dyn.insert_batch(extra_b)),
        ("delete", lambda dyn: dyn.delete(0)),
    ]


class TestWriteAheadCrashSweep:
    def test_recovery_is_a_prefix_at_every_crash_point(self, tmp_path):
        """Crash anywhere inside any operation; recover to an op boundary.

        Because every record is appended atomically-or-torn and the torn
        tail is truncated, the recovered index must equal the state after
        some prefix of the acked operations — and at least the operations
        acked *before* the crashed one must all be present.
        """
        base = _rows(24, seed=10)
        extra_a, extra_b = _rows(4, seed=11), _rows(3, seed=12)
        queries = _rows(2, seed=13)
        ops = _scripted_ops(extra_a, extra_b)

        # Reference run records the signature at every operation boundary.
        reference = _build_dynamic(base)
        prefix_signatures = [_signature(reference, queries)]
        for _name, operation in ops:
            operation(reference)
            prefix_signatures.append(_signature(reference, queries))

        injector = FaultInjector()
        for crashed_op in range(len(ops)):
            # Enumerate the durable effects of the operation to crash.
            probe_dir = tmp_path / f"probe-{crashed_op}"
            dynamic = _build_dynamic(base, wal_dir=probe_dir / "wal")
            dynamic.save(probe_dir / "snap")
            for _name, operation in ops[:crashed_op]:
                operation(dynamic)
            num_ops = injector.count_ops(
                lambda: ops[crashed_op][1](dynamic))
            dynamic.close()
            assert num_ops >= 1

            for point in range(num_ops):
                work = tmp_path / f"crash-{crashed_op}-{point}"
                dynamic = _build_dynamic(base, wal_dir=work / "wal")
                dynamic.save(work / "snap")
                for _name, operation in ops[:crashed_op]:
                    operation(dynamic)
                with pytest.raises(SimulatedCrash):
                    injector.crash_at(point,
                                      lambda: ops[crashed_op][1](dynamic))
                # The "process" is dead; recover from disk alone.
                recovered = DynamicIndex.recover(work / "snap", work / "wal")
                observed = _signature(recovered, queries)
                assert observed in prefix_signatures, (
                    f"op {crashed_op} crash point {point}: recovered state "
                    "is not an operation-boundary state")
                # Prefix property: everything acked before the crashed
                # operation survived.
                position = prefix_signatures.index(observed)
                assert position >= crashed_op, (
                    f"op {crashed_op} crash point {point}: an acked "
                    "operation was lost")
                recovered.close()

    def test_crash_before_the_log_append_leaves_memory_unmutated(self,
                                                                 tmp_path):
        """Write-ahead ordering: if the log write failed, nothing happened."""
        base = _rows(16, seed=20)
        queries = _rows(2, seed=21)
        dynamic = _build_dynamic(base, wal_dir=tmp_path / "wal")
        before = _signature(dynamic, queries)
        injector = FaultInjector()
        with pytest.raises(SimulatedCrash):
            injector.crash_at(0, lambda: dynamic.insert_batch(_rows(2, seed=22)))
        with pytest.raises(SimulatedCrash):
            injector.crash_at(0, lambda: dynamic.delete(3))
        assert _signature(dynamic, queries) == before
        # The survivor is fully usable: the failed calls left no half-state.
        dynamic.insert_batch(_rows(2, seed=22))
        dynamic.delete(3)
        dynamic.close()

    def test_snapshot_checkpoint_crash_sweep(self, tmp_path):
        """Crash anywhere inside save(): recovery always equals the live state.

        ``save`` commits the snapshot, then checkpoints the log.  Whichever
        effect the crash lands on, snapshot + replay must reconstruct the
        exact state being saved — the old snapshot still has the full log,
        the new snapshot skips covered records via ``wal.applied_lsn``.
        """
        base = _rows(20, seed=30)
        queries = _rows(2, seed=31)

        def prepare(work):
            dynamic = _build_dynamic(base, wal_dir=work / "wal")
            dynamic.save(work / "snap")
            dynamic.insert_batch(_rows(3, seed=32))
            dynamic.delete(1)
            return dynamic

        injector = FaultInjector()
        probe = prepare(tmp_path / "probe")
        expected = _signature(probe, queries)
        num_ops = injector.count_ops(lambda: probe.save(tmp_path / "probe" / "snap"))
        probe.close()
        assert num_ops > 5

        for point in range(num_ops):
            work = tmp_path / f"crash-{point}"
            dynamic = prepare(work)
            with pytest.raises(SimulatedCrash):
                injector.crash_at(point, lambda: dynamic.save(work / "snap"))
            recovered = DynamicIndex.recover(work / "snap", work / "wal")
            assert _signature(recovered, queries) == expected, (
                f"crash point {point} during save() lost acked writes")
            recovered.close()


# ------------------------------------------------- fsync policy: power loss


class _DurabilityWatermark:
    """fsio hook tracking, per file, the byte length covered by the last fsync.

    ``append_bytes`` flushes to the page cache (survives a *process* crash);
    only an fsync makes bytes survive a *power* failure.  At the moment the
    ``fsync`` effect fires, everything previously appended is in the file, so
    its current size is exactly the durable watermark — the prefix a power
    cut at any later instant is guaranteed to preserve.
    """

    def __init__(self) -> None:
        self.durable: "dict[str, int]" = {}

    def __call__(self, operation: str, path: str) -> None:
        if operation == "fsync":
            try:
                self.durable[path] = os.path.getsize(path)
            except OSError:
                self.durable[path] = 0


class TestBatchFsyncPowerLoss:
    """Pin the ``fsync="batch"`` durability trade: a record covered by the
    last fsync must survive a power cut; the un-fsynced acked tail *may* be
    lost — but only ever as a clean suffix, never a torn mix."""

    RECORD_COUNT = 10

    def _run_appends(self, directory, fsync: str, batch_bytes: int):
        """Append a fixed insert/delete script, recording after every ack
        ``(lsn, durable_bytes, file_bytes)`` — the durable fsync watermark
        and the segment length at that instant."""
        watermark = _DurabilityWatermark()
        previous = fsio.set_hook(watermark)
        try:
            checkpoints = []
            with WriteAheadLog(directory, fsync=fsync,
                               batch_bytes=batch_bytes) as wal:
                (segment,) = directory.glob("wal-*.log")
                for position in range(self.RECORD_COUNT):
                    if position % 3 == 2:
                        wal.append_delete(position)
                    else:
                        wal.append_insert(_rows(2, seed=70 + position))
                    checkpoints.append((wal.last_lsn,
                                        watermark.durable.get(str(segment), 0),
                                        segment.stat().st_size))
        finally:
            fsio.set_hook(previous)
        return segment, checkpoints

    @staticmethod
    def _survived_lsn(checkpoints, durable_bytes: int) -> int:
        """Highest LSN whose record lies entirely inside the durable prefix."""
        return max((lsn for lsn, _durable, file_bytes in checkpoints
                    if file_bytes <= durable_bytes), default=0)

    def test_power_cut_sweep_loses_only_the_unsynced_tail(self, tmp_path):
        directory = tmp_path / "wal"
        # batch_bytes below one insert record: inserts cross the threshold
        # and fsync, the small delete records ride unsynced — both sides of
        # the policy are exercised in one script.
        segment, checkpoints = self._run_appends(directory, "batch",
                                                 batch_bytes=400)
        original = segment.read_bytes()
        assert len({durable for _, durable, _ in checkpoints}) > 2, \
            "the script never crossed an fsync threshold"

        saw_tail_loss = saw_full_coverage = False
        for acked_lsn, durable_bytes, _file_bytes in checkpoints:
            # The power cut at this checkpoint: everything past the last
            # fsync is gone; the log never sees a close() (close would sync).
            segment.write_bytes(original[:durable_bytes])
            survivors = [record.lsn for record in read_records(directory)]
            durable_lsn = self._survived_lsn(checkpoints, durable_bytes)
            # Exactly the fsync-covered prefix survives: every record at or
            # below the watermark (acked-durable must survive), none above it
            # (our cut deletes the whole un-fsynced tail), no torn mix.
            assert survivors == list(range(1, durable_lsn + 1))
            assert durable_lsn <= acked_lsn
            saw_tail_loss |= durable_lsn < acked_lsn
            saw_full_coverage |= durable_lsn == acked_lsn
            segment.write_bytes(original)  # restore for the next cut
        # The sweep must exercise both regimes or it proves nothing.
        assert saw_tail_loss, "no checkpoint had an un-fsynced acked tail"
        assert saw_full_coverage, "no checkpoint was fully fsynced"

    def test_always_policy_never_loses_an_acked_record(self, tmp_path):
        """The contrast case: under ``fsync="always"`` every ack *is* the
        watermark, so the same power cut loses nothing."""
        directory = tmp_path / "wal"
        segment, checkpoints = self._run_appends(directory, "always",
                                                 batch_bytes=1 << 20)
        original = segment.read_bytes()
        for acked_lsn, durable_bytes, file_bytes in checkpoints:
            assert durable_bytes == file_bytes  # fsynced before the ack
            segment.write_bytes(original[:durable_bytes])
            survivors = [record.lsn for record in read_records(directory)]
            assert survivors == list(range(1, acked_lsn + 1)), (
                f"fsync=always lost an acked record at lsn {acked_lsn}")
            segment.write_bytes(original)

    def test_compact_record_is_durable_even_under_batch(self, tmp_path):
        """``append_compact`` force-syncs regardless of policy: a power cut
        right after the ack can never lose the compaction barrier — or any
        record before it."""
        directory = tmp_path / "wal"
        watermark = _DurabilityWatermark()
        previous = fsio.set_hook(watermark)
        try:
            with WriteAheadLog(directory, fsync="batch",
                               batch_bytes=1 << 20) as wal:
                (segment,) = directory.glob("wal-*.log")
                wal.append_insert(_rows(2, seed=80))
                wal.append_delete(1)
                compact_lsn = wal.append_compact()
                durable_bytes = watermark.durable[str(segment)]
                assert durable_bytes == segment.stat().st_size
        finally:
            fsio.set_hook(previous)
        original = segment.read_bytes()
        segment.write_bytes(original[:durable_bytes])
        survivors = [record.lsn for record in read_records(directory)]
        assert survivors == [1, 2, compact_lsn], (
            "the forced compact fsync must cover every earlier record too")

    def test_recovery_from_power_cut_is_a_clean_prefix(self, tmp_path,
                                                       small_rows):
        """End to end through ``DynamicIndex.recover``: cut the un-fsynced
        tail of a batch-policy log and recovery still lands on a clean
        prefix of the acked operations, bit-identical to replaying them."""
        queries = _rows(3, seed=91)
        wal_dir = tmp_path / "wal"
        dynamic = _build_dynamic(small_rows, wal_dir=wal_dir,
                                 wal_fsync="batch")
        dynamic.save(tmp_path / "snap")
        # Shrink the batch threshold so the short script below straddles
        # several fsync boundaries and ends on an un-fsynced tail.
        dynamic._wal._batch_bytes = 400
        segment = sorted(wal_dir.glob("wal-*.log"))[-1]
        watermark = _DurabilityWatermark()
        previous = fsio.set_hook(watermark)
        try:
            extra = _rows(6, seed=92)
            for position in range(len(extra)):
                dynamic.insert(extra[position])
            dynamic.delete(1)
            durable_bytes = watermark.durable.get(str(segment), 0)
            # Abandon without close(): close would fsync the tail away.
            raw = segment.read_bytes()
        finally:
            fsio.set_hook(previous)
        assert 0 < durable_bytes < len(raw), \
            "need a durable prefix and an un-fsynced tail for this cut"
        segment.write_bytes(raw[:durable_bytes])

        recovered = DynamicIndex.recover(tmp_path / "snap", wal_dir)
        surviving = read_records(wal_dir)
        # The survivors are a proper, clean prefix of the 7 acked operations.
        assert [record.lsn for record in surviving] == \
            list(range(1, len(surviving) + 1))
        assert 0 < len(surviving) < 7
        replayed = _build_dynamic(small_rows)
        for record in surviving:
            if record.op == OP_INSERT:
                replayed.insert_batch(record.values)
            else:
                replayed.delete(record.row)
        assert _signature(recovered, queries) == _signature(replayed, queries)
        recovered.close()
        replayed.close()


# ------------------------------------------------------- replay bit-identity


class TestReplayBitIdentity:
    @pytest.mark.parametrize("fsync", ["always", "batch", "off"])
    def test_abandoned_process_recovers_bit_identically(self, tmp_path, fsync):
        base = _rows(24, seed=40)
        queries = _rows(3, seed=41)
        work = tmp_path / fsync
        dynamic = _build_dynamic(base, wal_dir=work / "wal", wal_fsync=fsync)
        dynamic.save(work / "snap")
        dynamic.insert_batch(_rows(4, seed=42))
        dynamic.delete(3)
        dynamic.compact()
        dynamic.insert_batch(_rows(2, seed=43))
        dynamic.delete(0)
        expected = dynamic.knn_batch(queries, k=3)
        # Abandon without close(): the process "dies" with buffers unflushed
        # to stable storage (page-cache contents survive a process crash).
        recovered = DynamicIndex.recover(work / "snap", work / "wal",
                                         wal_fsync=fsync)
        observed = recovered.knn_batch(queries, k=3)
        for expected_result, observed_result in zip(expected, observed):
            np.testing.assert_array_equal(expected_result.indices,
                                          observed_result.indices)
            np.testing.assert_array_equal(expected_result.distances,
                                          observed_result.distances)
        # The recovered index accepts new writes through the re-attached log.
        recovered.insert_batch(_rows(1, seed=44))
        assert recovered.delta_count >= 1
        recovered.close()
        dynamic.close()

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_interleavings_crash_points_and_policies_property(self, data,
                                                              tmp_path_factory):
        """Hypothesis sweep: random op interleavings × crash point × fsync.

        Whatever interleaving of insert/delete/compact runs, and wherever in
        its durable-effect stream the process dies, recovery lands exactly on
        an operation-boundary state.
        """
        fsync = data.draw(st.sampled_from(["always", "batch", "off"]),
                          label="fsync")
        kinds = data.draw(st.lists(st.sampled_from(["insert", "delete",
                                                    "compact"]),
                                   min_size=1, max_size=5),
                          label="ops")
        base = _rows(12, seed=50)
        queries = _rows(2, seed=51)
        work = tmp_path_factory.mktemp("hypothesis-wal")

        def run(dynamic, on_boundary=None):
            """Apply the drawn script, deterministically per ``kinds``."""
            alive = list(range(len(base)))
            next_id = len(base)
            for position, kind in enumerate(kinds):
                if kind == "insert":
                    count = 1 + position % 2
                    dynamic.insert_batch(_rows(count, seed=60 + position))
                    for _ in range(count):
                        alive.append(next_id)
                        next_id += 1
                elif kind == "delete" and len(alive) > 2:
                    dynamic.delete(alive.pop(position % len(alive)))
                elif kind == "compact":
                    dynamic.compact()
                    alive = list(range(len(alive)))
                    next_id = len(alive)
                if on_boundary is not None:
                    on_boundary(dynamic)

        # Reference run records the signature at every operation boundary.
        signatures = []
        reference = _build_dynamic(base)
        signatures.append(_signature(reference, queries))
        run(reference,
            on_boundary=lambda dyn: signatures.append(_signature(dyn, queries)))

        # Enumerate the durable effects of the whole logged run.
        injector = FaultInjector()
        probe_dir = work / "probe"
        probe = _build_dynamic(base, wal_dir=probe_dir / "wal",
                               wal_fsync=fsync)
        probe.save(probe_dir / "snap")
        total_effects = injector.count_ops(lambda: run(probe))
        probe.close()
        if total_effects == 0:
            return  # the drawn script is all no-ops (e.g. empty compacts)

        point = data.draw(st.integers(min_value=0,
                                      max_value=total_effects - 1),
                          label="crash_point")
        crash_dir = work / "crash"
        dynamic = _build_dynamic(base, wal_dir=crash_dir / "wal",
                                 wal_fsync=fsync)
        dynamic.save(crash_dir / "snap")
        with pytest.raises(SimulatedCrash):
            injector.crash_at(point, lambda: run(dynamic))

        recovered = DynamicIndex.recover(crash_dir / "snap", crash_dir / "wal")
        observed = _signature(recovered, queries)
        assert observed in signatures, (
            "recovered state is not an operation-boundary state")
        recovered.close()
