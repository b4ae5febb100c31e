"""Tests of the dynamic-maintenance subsystem (``repro.index.dynamic``).

The central contract: a :class:`~repro.index.dynamic.DynamicIndex` serving
*tree ∪ delta − tombstones* answers ``knn`` and ``knn_batch`` **bit-identically
to a scratch rebuild** on the surviving rows — for any interleaving of
inserts, deletes and compactions (hypothesis-driven), for SOFA and MESSI, on
both the tree and the flat refinement paths, including the edge cases
``k > surviving-row-count``, everything-deleted and an empty delta.  The
persistence contract (format-v2 snapshots round-trip the delta and
tombstones; v1 snapshots upgrade to a compacted index) is covered in
``test_persistence.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import IndexError_, InvalidParameterError, SearchError
from repro.datasets.synthetic import random_walk
from repro.index.dynamic import DynamicIndex
from repro.index.messi import MessiIndex
from repro.index.sofa import SofaIndex
from repro.index.tree import TreeIndex
from repro.transforms.sax import SAX

INDEX_CLASSES = {"sofa": SofaIndex, "messi": MessiIndex}

SERIES_LENGTH = 32
#: leaf_size=2 degenerates the tree into the flat refinement path;
#: leaf_size=64 keeps whole root subtrees in one leaf (tree path).
LEAF_SIZES = (2, 64)


def _build(kind: str, matrix: np.ndarray, leaf_size: int):
    return INDEX_CLASSES[kind](word_length=8, alphabet_size=16,
                               leaf_size=leaf_size).build(matrix)


class _ReferenceModel:
    """Book-keeping twin of a DynamicIndex: raw rows, aliveness, id mapping."""

    def __init__(self, base: np.ndarray) -> None:
        self.rows: list[np.ndarray] = [row for row in base]
        self.alive: list[bool] = [True] * len(self.rows)

    def insert(self, block: np.ndarray) -> None:
        for row in block:
            self.rows.append(row)
            self.alive.append(True)

    def delete(self, row: int) -> None:
        assert self.alive[row]
        self.alive[row] = False

    def compact(self, mapping: np.ndarray) -> None:
        survivors = [row for row, alive in zip(self.rows, self.alive) if alive]
        for old_id, new_id in enumerate(mapping):
            if self.alive[old_id]:
                assert new_id == sum(self.alive[:old_id])
            else:
                assert new_id == -1
        self.rows = survivors
        self.alive = [True] * len(survivors)

    @property
    def surviving_ids(self) -> list[int]:
        return [row for row, alive in enumerate(self.alive) if alive]

    def surviving_matrix(self) -> np.ndarray:
        return np.vstack([self.rows[row] for row in self.surviving_ids])


def _assert_matches_scratch(kind: str, leaf_size: int, dynamic: DynamicIndex,
                            model: _ReferenceModel, queries: np.ndarray,
                            k_values=(1, 3)) -> None:
    """Dynamic answers must be bit-identical to a fresh build on survivors."""
    surviving = model.surviving_ids
    assert dynamic.num_surviving == len(surviving)
    scratch = _build(kind, model.surviving_matrix(), leaf_size)
    to_scratch = {global_id: position
                  for position, global_id in enumerate(surviving)}
    for k in (*k_values, len(surviving)):
        if k > len(surviving):
            continue
        batched = dynamic.knn_batch(queries, k=k)
        scratch_batched = scratch.knn_batch(queries, k=k)
        for query, batch_result, scratch_batch in zip(queries, batched,
                                                      scratch_batched):
            result = dynamic.knn(query, k=k)
            expected = scratch.knn(query, k=k)
            mapped = [to_scratch[int(row)] for row in result.indices]
            assert mapped == expected.indices.tolist()
            assert np.array_equal(result.distances, expected.distances)
            mapped = [to_scratch[int(row)] for row in batch_result.indices]
            assert mapped == scratch_batch.indices.tolist()
            assert np.array_equal(batch_result.distances, scratch_batch.distances)


@pytest.fixture(params=sorted(INDEX_CLASSES))
def kind(request):
    return request.param


class TestEquivalenceWithScratchRebuild:
    @pytest.mark.parametrize("leaf_size", LEAF_SIZES)
    def test_inserts_then_deletes_match_scratch(self, kind, leaf_size):
        base = random_walk(40, SERIES_LENGTH, seed=11)
        extra = random_walk(16, SERIES_LENGTH, seed=12)
        queries = random_walk(4, SERIES_LENGTH, seed=13)
        dynamic = _build(kind, base, leaf_size).dynamic()
        model = _ReferenceModel(base)

        dynamic.insert_batch(extra[:10])
        model.insert(extra[:10])
        for row in (0, 17, 39, 41, 48):
            dynamic.delete(row)
            model.delete(row)
        dynamic.insert(extra[10])
        model.insert(extra[10:11])
        _assert_matches_scratch(kind, leaf_size, dynamic, model, queries)

    @pytest.mark.parametrize("leaf_size", LEAF_SIZES)
    def test_compaction_matches_scratch(self, kind, leaf_size):
        base = random_walk(30, SERIES_LENGTH, seed=21)
        extra = random_walk(12, SERIES_LENGTH, seed=22)
        queries = random_walk(3, SERIES_LENGTH, seed=23)
        dynamic = _build(kind, base, leaf_size).dynamic()
        model = _ReferenceModel(base)
        dynamic.insert_batch(extra)
        model.insert(extra)
        for row in (2, 31):
            dynamic.delete(row)
            model.delete(row)
        model.compact(dynamic.compact())
        assert dynamic.delta_count == 0
        assert dynamic.num_base == dynamic.num_surviving == len(model.rows)
        _assert_matches_scratch(kind, leaf_size, dynamic, model, queries)
        # A second ingest round on the compacted generation works the same.
        more = random_walk(5, SERIES_LENGTH, seed=24)
        dynamic.insert_batch(more)
        model.insert(more)
        dynamic.delete(1)
        model.delete(1)
        _assert_matches_scratch(kind, leaf_size, dynamic, model, queries)

    def test_tombstones_only_no_delta(self, kind):
        """Deletes without any pending insert still fuse correctly."""
        base = random_walk(25, SERIES_LENGTH, seed=31)
        queries = random_walk(3, SERIES_LENGTH, seed=32)
        dynamic = _build(kind, base, 8).dynamic()
        model = _ReferenceModel(base)
        for row in (0, 1, 24):
            dynamic.delete(row)
            model.delete(row)
        assert dynamic.delta_count == 0
        _assert_matches_scratch(kind, 8, dynamic, model, queries)

    def test_empty_delta_is_bit_identical_to_static(self, kind):
        """With no writes at all the dynamic layer is a pass-through."""
        base = random_walk(30, SERIES_LENGTH, seed=41)
        queries = random_walk(4, SERIES_LENGTH, seed=42)
        index = _build(kind, base, 8)
        dynamic = index.dynamic()
        for k in (1, 4):
            for query, batch_result in zip(queries,
                                           dynamic.knn_batch(queries, k=k)):
                static = index.knn(query, k=k)
                result = dynamic.knn(query, k=k)
                assert result.indices.tolist() == static.indices.tolist()
                assert np.array_equal(result.distances, static.distances)
                assert batch_result.indices.tolist() == static.indices.tolist()

    def test_exact_ties_across_base_and_delta(self, kind):
        """A delta row duplicating a base row produces a real, ordered tie."""
        base = random_walk(20, SERIES_LENGTH, seed=51)
        dynamic = _build(kind, base, 8).dynamic()
        dynamic.insert(base[4])  # duplicate of base row 4 -> global id 20
        result = dynamic.knn(base[4], k=2)
        assert result.indices.tolist() == [4, 20]  # smaller row wins the tie
        assert result.distances[0] == result.distances[1]

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_interleaved_operations_property(self, data):
        """Random insert/delete/compact interleavings stay scratch-identical."""
        kind = data.draw(st.sampled_from(sorted(INDEX_CLASSES)), label="kind")
        leaf_size = data.draw(st.sampled_from(LEAF_SIZES), label="leaf_size")
        seed = data.draw(st.integers(0, 10_000), label="seed")
        base = random_walk(data.draw(st.integers(15, 35), label="base"),
                           SERIES_LENGTH, seed=seed)
        queries = random_walk(3, SERIES_LENGTH, seed=seed + 1)
        fresh = iter(random_walk(64, SERIES_LENGTH, seed=seed + 2))
        dynamic = _build(kind, base, leaf_size).dynamic()
        model = _ReferenceModel(base)

        num_operations = data.draw(st.integers(3, 8), label="ops")
        for _ in range(num_operations):
            choice = data.draw(st.sampled_from(["insert", "delete", "compact"]))
            if choice == "insert":
                count = data.draw(st.integers(1, 4))
                block = np.vstack([next(fresh) for _ in range(count)])
                identifiers = dynamic.insert_batch(block)
                assert identifiers.tolist() == list(
                    range(len(model.rows), len(model.rows) + count))
                model.insert(block)
            elif choice == "delete":
                surviving = model.surviving_ids
                if len(surviving) <= 1:
                    continue  # keep at least one row alive
                row = surviving[data.draw(st.integers(0, len(surviving) - 1))]
                dynamic.delete(row)
                model.delete(row)
            else:
                model.compact(dynamic.compact())
        _assert_matches_scratch(kind, leaf_size, dynamic, model, queries)


class TestEdgeCases:
    def test_k_exceeding_surviving_rows_raises(self, kind):
        base = random_walk(10, SERIES_LENGTH, seed=61)
        dynamic = _build(kind, base, 4).dynamic()
        dynamic.delete(3)
        queries = random_walk(2, SERIES_LENGTH, seed=62)
        assert dynamic.num_surviving == 9
        dynamic.knn(queries[0], k=9)  # exactly the surviving count is fine
        with pytest.raises(SearchError, match="exceeds the number of surviving"):
            dynamic.knn(queries[0], k=10)
        with pytest.raises(SearchError, match="exceeds the number of surviving"):
            dynamic.knn_batch(queries, k=10)

    def test_all_deleted_raises_on_query_and_compact(self, kind):
        base = random_walk(4, SERIES_LENGTH, seed=63)
        dynamic = _build(kind, base, 4).dynamic()
        for row in range(4):
            dynamic.delete(row)
        assert dynamic.num_surviving == 0
        query = random_walk(1, SERIES_LENGTH, seed=64)[0]
        with pytest.raises(SearchError, match="surviving series \\(0\\)"):
            dynamic.knn(query, k=1)
        with pytest.raises(IndexError_, match="all deleted"):
            dynamic.compact()
        # Inserting brings the index back to life.
        dynamic.insert(query)
        result = dynamic.knn(query, k=1)
        assert result.indices.tolist() == [4]
        dynamic.compact()
        assert dynamic.num_base == 1

    def test_delete_validation(self, kind):
        base = random_walk(8, SERIES_LENGTH, seed=65)
        dynamic = _build(kind, base, 4).dynamic()
        dynamic.insert(random_walk(1, SERIES_LENGTH, seed=66)[0])
        with pytest.raises(IndexError_, match="out of range"):
            dynamic.delete(9)
        with pytest.raises(IndexError_, match="out of range"):
            dynamic.delete(-1)
        dynamic.delete(2)
        with pytest.raises(IndexError_, match="already deleted"):
            dynamic.delete(2)
        dynamic.delete(8)  # the buffered row
        with pytest.raises(IndexError_, match="already deleted"):
            dynamic.delete(8)

    def test_insert_validation(self, kind):
        base = random_walk(8, SERIES_LENGTH, seed=67)
        dynamic = _build(kind, base, 4).dynamic()
        with pytest.raises(IndexError_, match="length 16"):
            dynamic.insert(np.zeros(16))
        with pytest.raises(IndexError_, match="single 1-D series"):
            dynamic.insert(np.zeros((2, SERIES_LENGTH)))
        with pytest.raises(IndexError_, match="length 16"):
            dynamic.insert_batch(np.zeros((3, 16)))
        with pytest.raises(IndexError_, match="non-empty 2-D"):
            dynamic.insert_batch(np.zeros((0, SERIES_LENGTH)))
        with pytest.raises(IndexError_, match="NaN or infinite"):
            dynamic.insert(np.full(SERIES_LENGTH, np.nan))
        assert dynamic.delta_count == 0  # nothing was partially buffered

    def test_constructor_validation(self):
        with pytest.raises(IndexError_, match="requires a built index"):
            DynamicIndex(MessiIndex())
        with pytest.raises(IndexError_, match="cannot wrap"):
            DynamicIndex(object())
        built = _build("messi", random_walk(8, SERIES_LENGTH, seed=68), 4)
        with pytest.raises(InvalidParameterError, match="compact_threshold"):
            DynamicIndex(built, compact_threshold=0.0)

    def test_bare_tree_is_supported(self):
        tree = TreeIndex(SAX(word_length=8, alphabet_size=16), leaf_size=4)
        tree.build(random_walk(10, SERIES_LENGTH, seed=69))
        dynamic = DynamicIndex(tree)
        assert dynamic.index_type == "tree"
        dynamic.insert(random_walk(1, SERIES_LENGTH, seed=70)[0])
        dynamic.compact()
        assert dynamic.num_base == 11


class TestCompactionMachinery:
    def test_compact_without_pending_writes_is_identity(self, kind):
        base = random_walk(9, SERIES_LENGTH, seed=81)
        dynamic = _build(kind, base, 4).dynamic()
        tree_before = dynamic.tree
        mapping = dynamic.compact()
        assert mapping.tolist() == list(range(9))
        assert dynamic.tree is tree_before  # no rebuild happened

    def test_compact_remaps_row_ids(self, kind):
        base = random_walk(6, SERIES_LENGTH, seed=82)
        dynamic = _build(kind, base, 4).dynamic()
        dynamic.insert_batch(random_walk(3, SERIES_LENGTH, seed=83))
        dynamic.delete(1)
        dynamic.delete(7)
        mapping = dynamic.compact()
        assert mapping.tolist() == [0, -1, 1, 2, 3, 4, 5, -1, 6]

    def test_delta_fraction_and_needs_compaction(self, kind):
        base = random_walk(10, SERIES_LENGTH, seed=84)
        dynamic = _build(kind, base, 4).dynamic(compact_threshold=0.3)
        assert dynamic.delta_fraction == 0.0
        assert not dynamic.needs_compaction
        dynamic.insert_batch(random_walk(2, SERIES_LENGTH, seed=85))
        dynamic.delete(0)  # tombstones count as pending write work too
        assert dynamic.delta_fraction == pytest.approx(0.3)
        assert dynamic.needs_compaction
        dynamic.compact()
        assert dynamic.delta_fraction == 0.0

    def test_background_compaction_serves_during_merge(self, kind):
        base = random_walk(40, SERIES_LENGTH, seed=86)
        queries = random_walk(4, SERIES_LENGTH, seed=87)
        dynamic = _build(kind, base, 8).dynamic()
        dynamic.insert_batch(random_walk(10, SERIES_LENGTH, seed=88))
        dynamic.delete(5)
        expected = [dynamic.knn(query, k=3) for query in queries]
        task = dynamic.compact_in_background()
        # Queries issued while the merge may still be running stay exact.
        during = [dynamic.knn(query, k=3) for query in queries]
        mapping = task.wait(timeout=30.0)
        assert task.done()
        after = [dynamic.knn(query, k=3) for query in queries]
        assert dynamic.delta_count == 0
        for before_result, during_result, after_result in zip(expected, during,
                                                              after):
            remapped = [int(mapping[row]) for row in before_result.indices]
            assert remapped == after_result.indices.tolist()
            assert np.array_equal(before_result.distances,
                                  after_result.distances)
            assert np.array_equal(during_result.distances,
                                  after_result.distances)

    def test_auto_compact_triggers_in_background(self, kind):
        base = random_walk(10, SERIES_LENGTH, seed=89)
        dynamic = _build(kind, base, 4).dynamic(compact_threshold=0.2,
                                                auto_compact=True)
        dynamic.insert_batch(random_walk(4, SERIES_LENGTH, seed=90))
        task = dynamic._compaction_task
        assert task is not None
        task.wait(timeout=30.0)
        assert dynamic.delta_count == 0
        assert dynamic.num_base == 14

    def test_compact_in_background_shares_running_task(self, kind):
        """A second request while a merge runs returns the same handle."""
        import threading

        base = random_walk(12, SERIES_LENGTH, seed=93)
        dynamic = _build(kind, base, 4).dynamic()
        dynamic.insert_batch(random_walk(3, SERIES_LENGTH, seed=94))
        gate = threading.Event()
        original = dynamic._state.tree.clone_unbuilt

        def gated_clone():
            gate.wait(10.0)
            return original()

        dynamic._state.tree.clone_unbuilt = gated_clone
        first = dynamic.compact_in_background()
        second = dynamic.compact_in_background()
        assert second is first  # the in-flight merge's handle is shared
        gate.set()
        first.wait(timeout=30.0)
        assert dynamic.delta_count == 0

    def test_failed_auto_compaction_surfaces_on_next_write(self, kind):
        """A crashed background merge re-raises instead of being swallowed."""
        base = random_walk(10, SERIES_LENGTH, seed=91)
        dynamic = _build(kind, base, 4).dynamic(compact_threshold=0.2,
                                                auto_compact=True)

        def broken_clone():
            raise RuntimeError("rebuild exploded")

        dynamic._state.tree.clone_unbuilt = broken_clone
        block = random_walk(4, SERIES_LENGTH, seed=92)
        dynamic.insert_batch(block)  # crosses the threshold, starts the merge
        dynamic._compaction_task._thread.join(30.0)
        with pytest.raises(RuntimeError, match="rebuild exploded"):
            dynamic.insert_batch(block)
        # The failure was consumed; serving and manual recovery still work.
        assert dynamic._compaction_task is None
        dynamic.knn(block[0], k=3)
        del dynamic._state.tree.clone_unbuilt  # un-break the instance
        dynamic.compact()
        assert dynamic.delta_count == 0
