"""Sharded scatter-gather: bit-identity, global ids, persistence, lifecycle.

The healthy-path contract under test (see :mod:`repro.index.sharded`): a
:class:`ShardedIndex` over N shards answers ``knn`` / ``knn_batch``
**bit-identically** to one unsharded index built over the same rows — same
neighbour ids, same distance bits, for every shard count, every ``k``, and
under ties.  Global row ids survive inserts, deletes and per-shard
compaction, and a save/load round trip reproduces the same answers.
Fault-path behaviour (retries, quarantine, degraded answers) lives in
``tests/reliability/test_shard_faults.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    IndexError_,
    InvalidParameterError,
    ReadOnlyIndexError,
    SearchError,
    ValidationError,
)
from repro.core.normalization import znormalize, znormalize_batch
from repro.datasets.synthetic import random_walk
from repro.index.dynamic import DynamicIndex
from repro.index.search import canonical_squared, uses_flat_refinement
from repro.index.shard_health import HealthPolicy
from repro.index.sharded import ShardedIndex, shard_answer
from repro.index.sofa import SofaIndex

SERIES_LENGTH = 48


def _factory():
    return SofaIndex(word_length=8, alphabet_size=16, leaf_size=12)


def _rows(count: int, seed: int) -> np.ndarray:
    return random_walk(count, SERIES_LENGTH, seed=seed)


@pytest.fixture(scope="module")
def base_rows() -> np.ndarray:
    return _rows(170, seed=7001)


@pytest.fixture(scope="module")
def queries() -> np.ndarray:
    return _rows(6, seed=7002)


def _build_sharded(values, path, num_shards, **options) -> ShardedIndex:
    options.setdefault("health", HealthPolicy(auto_probe=False))
    return ShardedIndex.build(values, path, num_shards=num_shards,
                              index_factory=_factory, **options)


def _assert_same_result(observed, expected) -> None:
    np.testing.assert_array_equal(observed.indices, expected.indices)
    np.testing.assert_array_equal(observed.distances, expected.distances)


#: The work counters of :class:`~repro.index.search.SearchStats` (its
#: timings are wall clock).
WORK_COUNTERS = ("series_lower_bounds", "exact_distances", "leaves_visited",
                 "nodes_pruned", "leaves_pruned_in_queue", "timed_out")

#: Per-shard index factories whose trees take the tree path (7.5 to 10
#: series per leaf on 30-row shards) and the certified flat path
#: (shattered leaves).
PATH_FACTORIES = {
    "tree": lambda: SofaIndex(word_length=2, alphabet_size=4, leaf_size=30),
    "flat": _factory,
}


def assert_single_scatter_parity(index, queries, k: int) -> None:
    """``index.knn(q)`` equals ``index.knn_batch(q[None])[0]``: the same
    ids, distances, scatter accounting and work counters."""
    for query in queries:
        single = index.knn(query, k=k)
        batched = index.knn_batch(query[None], k=k)[0]
        _assert_same_result(single, batched)
        for name in WORK_COUNTERS + ("num_series", "shards_total",
                                     "shards_answered", "partial"):
            assert (getattr(single.stats, name)
                    == getattr(batched.stats, name)), name


class TestHealthyBitIdentity:
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_knn_matches_unsharded(self, tmp_path, base_rows, queries,
                                   num_shards, k):
        reference = _factory().build(base_rows)
        sharded = _build_sharded(base_rows, tmp_path / "s", num_shards)
        try:
            for query in queries:
                _assert_same_result(sharded.knn(query, k=k),
                                    reference.knn(query, k=k))
        finally:
            sharded.close()

    @pytest.mark.parametrize("num_shards", [2, 5])
    def test_knn_batch_matches_unsharded(self, tmp_path, base_rows, queries,
                                         num_shards):
        reference = _factory().build(base_rows)
        expected = reference.knn_batch(queries, k=4)
        sharded = _build_sharded(base_rows, tmp_path / "s", num_shards)
        try:
            observed = sharded.knn_batch(queries, k=4)
            for got, want in zip(observed, expected):
                _assert_same_result(got, want)
        finally:
            sharded.close()

    def test_ties_break_identically(self, tmp_path, queries):
        """Duplicated rows force exact distance ties across shard boundaries;
        the merge's (distance, row) total order must match the unsharded
        engine's tie-breaking bit for bit."""
        unique = _rows(40, seed=7003)
        values = np.concatenate([unique, unique, unique[:10]], axis=0)
        reference = _factory().build(values)
        sharded = _build_sharded(values, tmp_path / "ties", 3)
        try:
            for query in queries:
                _assert_same_result(sharded.knn(query, k=8),
                                    reference.knn(query, k=8))
        finally:
            sharded.close()


class TestSingleScatterParity:
    """Single-query ``knn`` scatters exactly like ``knn_batch``: each shard
    searches once on its own best-so-far, so a query's answer and work do
    not depend on the entry point."""

    @pytest.mark.parametrize("path", sorted(PATH_FACTORIES))
    @pytest.mark.parametrize("k", [1, 5])
    def test_knn_equals_a_batch_of_one(self, tmp_path, base_rows, queries,
                                       path, k):
        sharded = ShardedIndex.build(
            base_rows[:90], tmp_path / "s", num_shards=3,
            index_factory=PATH_FACTORIES[path],
            health=HealthPolicy(auto_probe=False))
        try:
            flat = {uses_flat_refinement(sharded._engine(shard).tree)
                    for shard in sharded._shards}
            assert flat == {path == "flat"}
            assert_single_scatter_parity(sharded, queries, k)
        finally:
            sharded.close()


class TestShardSideDistances:
    """The precondition of a values-free merge: the canonical distances² a
    shard computes for its own candidates (:func:`shard_answer`) are, bit
    for bit, what a coordinator recomputing them from the gathered values of
    the whole candidate union would get."""

    @settings(max_examples=25, deadline=None)
    @given(length=st.sampled_from([17, 33, 48, 63]),
           shard_sizes=st.lists(st.integers(4, 30), min_size=2, max_size=4),
           deltas=st.lists(st.integers(0, 6), min_size=4, max_size=4),
           duplicates=st.integers(0, 4), k=st.integers(1, 12),
           pad=st.integers(0, 9), batch=st.booleans(),
           seed=st.integers(0, 10_000))
    def test_shard_squared_equals_coordinator_recompute(
            self, length, shard_sizes, deltas, duplicates, k, pad, batch,
            seed):
        rng = np.random.default_rng(seed)
        engines, offsets = [], []
        first = None
        for shard, size in enumerate(shard_sizes):
            rows = random_walk(size, length, seed=seed + shard)
            if first is None:
                first = rows
            else:  # exact duplicates of shard-0 rows: cross-shard ties
                rows[:duplicates] = first[:duplicates]
            engine = SofaIndex(word_length=8, alphabet_size=16,
                               leaf_size=6).build(rows).dynamic()
            if deltas[shard]:
                engine.insert_batch(random_walk(deltas[shard], length,
                                                seed=seed + 100 + shard))
            offsets.append(sum(e.num_base + e.delta_count for e in engines))
            engines.append(engine)
        queries = random_walk(3, length, seed=seed + 200)
        if batch:
            asked, normalized = queries, znormalize_batch(queries)
        else:
            asked, normalized = queries[0], znormalize(queries[0])[None, :]
        answers = [shard_answer(engine, asked, k) for engine in engines]
        for position, query in enumerate(normalized):
            rows = np.concatenate([answer[0][position] + offset
                                   for answer, offset in zip(answers, offsets)])
            squared = np.concatenate([answer[1][position]
                                      for answer in answers])
            values = np.concatenate(
                [engine.gather_values(answer[0][position])
                 for engine, answer in zip(engines, answers)], axis=0)
            # What the coordinator used to rank: one recompute over the
            # row-sorted union, here behind `pad` unrelated rows so the
            # candidates sit at other offsets of a differently sized matrix.
            order = np.argsort(rows)
            union = np.concatenate([rng.normal(size=(pad, length)),
                                    values[order]], axis=0)
            recomputed = canonical_squared(query, union)[pad:]
            assert np.array_equal(squared[order], recomputed)
        for engine in engines:
            engine.close()


class TestMutationsAndGlobalIds:
    def test_insert_delete_match_unsharded_dynamic(self, tmp_path, base_rows,
                                                   queries):
        """The sharded wrapper assigns the same global ids in arrival order
        as one unsharded DynamicIndex, so mutated answers stay identical."""
        reference = _factory().build(base_rows).dynamic()
        sharded = _build_sharded(base_rows, tmp_path / "s", 4)
        try:
            extra = _rows(9, seed=7004)
            assert sharded.insert_batch(extra).tolist() == \
                reference.insert_batch(extra).tolist()
            single = _rows(1, seed=7005)[0]
            assert sharded.insert(single) == reference.insert_batch(
                single[np.newaxis])[0]
            for row in (3, 171, 40):
                sharded.delete(row)
                reference.delete(row)
            assert sharded.num_surviving == reference.num_surviving
            for query in queries:
                _assert_same_result(sharded.knn(query, k=6),
                                    reference.knn(query, k=6))
        finally:
            sharded.close()
            reference.close()

    def test_compact_keeps_global_ids_stable(self, tmp_path, base_rows,
                                             queries):
        """Unlike the unsharded engine (whose compaction renumbers rows),
        sharded compaction preserves global ids: answers before and after
        compact name the same rows."""
        sharded = _build_sharded(base_rows, tmp_path / "s", 4,
                                 degraded="forbid")
        try:
            sharded.insert_batch(_rows(6, seed=7006))
            for row in (0, 50, 100, 172):
                sharded.delete(row)
            before = [sharded.knn(query, k=5) for query in queries]
            dropped = sharded.compact()
            assert sum(dropped.values()) == 4
            after = [sharded.knn(query, k=5) for query in queries]
            for got, want in zip(after, before):
                _assert_same_result(got, want)
        finally:
            sharded.close()

    def test_delete_unknown_row_is_typed(self, tmp_path, base_rows):
        sharded = _build_sharded(base_rows, tmp_path / "s", 2)
        try:
            with pytest.raises(IndexError_, match="not mapped"):
                sharded.delete(10_000)
        finally:
            sharded.close()

    def test_read_only_rejects_writes(self, tmp_path, base_rows):
        _build_sharded(base_rows, tmp_path / "s", 2).close()
        sharded = ShardedIndex.load(tmp_path / "s", writable=False,
                                    health=HealthPolicy(auto_probe=False))
        try:
            with pytest.raises(ReadOnlyIndexError):
                sharded.insert_batch(_rows(1, seed=1))
            with pytest.raises(ReadOnlyIndexError):
                sharded.delete(0)
            with pytest.raises(ReadOnlyIndexError):
                sharded.compact()
        finally:
            sharded.close()


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, base_rows, queries):
        sharded = _build_sharded(base_rows, tmp_path / "s", 3)
        try:
            sharded.insert_batch(_rows(5, seed=7007))
            sharded.delete(2)
            expected = [sharded.knn(query, k=4) for query in queries]
            sharded.save()
        finally:
            sharded.close()
        reloaded = ShardedIndex.load(tmp_path / "s",
                                     health=HealthPolicy(auto_probe=False))
        try:
            assert reloaded.num_shards == 3
            assert reloaded.num_surviving == len(base_rows) + 5 - 1
            for query, want in zip(queries, expected):
                _assert_same_result(reloaded.knn(query, k=4), want)
            # New inserts continue the global id sequence past the reload.
            assert reloaded.insert_batch(_rows(1, seed=7008))[0] == \
                len(base_rows) + 5
        finally:
            reloaded.close()

    def test_load_opens_shard_engines_on_first_query(self, tmp_path,
                                                      base_rows, queries):
        """Load reads only the manifests; a healthy directory still answers
        its first query from every shard."""
        _build_sharded(base_rows, tmp_path / "s", 3).close()
        sharded = ShardedIndex.load(tmp_path / "s",
                                    health=HealthPolicy(auto_probe=False))
        try:
            assert sharded.shard_states() == ["healthy"] * 3
            assert all(shard.engine is None for shard in sharded._shards)
            assert sharded.knn(queries[0], k=2).stats.coverage == 1.0
            assert all(shard.engine is not None for shard in sharded._shards)
        finally:
            sharded.close()


class TestValidation:
    def test_build_parameters(self, tmp_path, base_rows):
        with pytest.raises(InvalidParameterError, match="num_shards"):
            ShardedIndex.build(base_rows, tmp_path / "a", num_shards=0,
                               index_factory=_factory)
        with pytest.raises(InvalidParameterError, match="num_shards"):
            ShardedIndex.build(base_rows, tmp_path / "t", num_shards=True,
                               index_factory=_factory)
        with pytest.raises(InvalidParameterError, match="non-empty shards"):
            ShardedIndex.build(base_rows[:2], tmp_path / "b", num_shards=5,
                               index_factory=_factory)

    def test_query_validation_is_typed(self, tmp_path, base_rows):
        sharded = _build_sharded(base_rows, tmp_path / "s", 2)
        try:
            with pytest.raises(ValidationError):
                sharded.knn(np.zeros(7), k=1)
            with pytest.raises(SearchError, match="k must be >= 1"):
                sharded.knn(np.zeros(SERIES_LENGTH), k=0)
            with pytest.raises(SearchError, match="surviving"):
                sharded.knn(_rows(1, seed=1)[0], k=10_000)
            with pytest.raises(InvalidParameterError, match="degraded"):
                sharded.knn(_rows(1, seed=1)[0], k=1, degraded="maybe")
            with pytest.raises(ValidationError):
                sharded.knn_batch(np.zeros((2, 7)), k=1)
        finally:
            sharded.close()

    def test_stats_carry_shard_counters(self, tmp_path, base_rows, queries):
        sharded = _build_sharded(base_rows, tmp_path / "s", 4)
        try:
            stats = sharded.knn(queries[0], k=3).stats
            assert stats.shards_total == 4
            assert stats.shards_answered == 4
            assert stats.coverage == 1.0
            assert stats.partial is False
        finally:
            sharded.close()
