"""Round-trip and golden-file tests of the index persistence subsystem.

The contract under test: a saved-then-loaded index (both ``mmap=True`` and
in-memory) answers ``knn`` and ``knn_batch`` *bit-identically* to the freshly
built index it came from, for SOFA and MESSI, across k values, exact-tie
datasets and worker-sharded batch search.  The golden fixture in
``tests/data/golden-messi-v1`` additionally pins the on-disk layout of format
version 1 across library versions.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import IndexError_
from repro.core.series import Dataset
from repro.datasets.synthetic import random_walk
from repro.index import persistence
from repro.index.dynamic import DynamicIndex
from repro.index.messi import MessiIndex
from repro.index.search import ExactSearcher
from repro.index.sofa import SofaIndex
from repro.index.stats import compute_structure_stats
from repro.index.tree import TreeIndex
from repro.transforms.sax import SAX

DATA_DIR = Path(__file__).parent.parent / "data"
GOLDEN_SNAPSHOT = DATA_DIR / "golden-messi-v1"
GOLDEN_EXPECTED = DATA_DIR / "golden-messi-v1.expected.json"
GOLDEN_DYNAMIC_SNAPSHOT = DATA_DIR / "golden-dynamic-v2"
GOLDEN_DYNAMIC_EXPECTED = DATA_DIR / "golden-dynamic-v2.expected.json"

INDEX_CLASSES = {"sofa": SofaIndex, "messi": MessiIndex}


@pytest.fixture()
def expected_golden():
    with open(GOLDEN_EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture()
def expected_golden_dynamic():
    with open(GOLDEN_DYNAMIC_EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def _tie_matrix() -> np.ndarray:
    """A dataset with duplicated rows, so exact ties are guaranteed."""
    base = random_walk(60, 64, seed=41)
    return np.vstack([base, base[:12]])


def _assert_same_result(built, loaded) -> None:
    assert np.array_equal(built.indices, loaded.indices)
    assert np.array_equal(built.distances, loaded.distances)
    assert built.distances.dtype == loaded.distances.dtype


@pytest.fixture(scope="module", params=sorted(INDEX_CLASSES))
def saved_index(request, tmp_path_factory):
    """(kind, built index, snapshot path, queries) for both index families."""
    kind = request.param
    index = INDEX_CLASSES[kind](word_length=8, alphabet_size=16,
                                leaf_size=8).build(_tie_matrix())
    path = tmp_path_factory.mktemp(f"snapshot-{kind}") / "index"
    index.save(path)
    queries = random_walk(6, 64, seed=97)
    return kind, index, path, queries


class TestRoundTrip:
    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "in-memory"])
    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_knn_bit_identical(self, saved_index, mmap, k):
        kind, index, path, queries = saved_index
        loaded = INDEX_CLASSES[kind].load(path, mmap=mmap)
        for query in queries:
            _assert_same_result(index.knn(query, k=k), loaded.knn(query, k=k))

    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "in-memory"])
    def test_knn_batch_bit_identical(self, saved_index, mmap):
        kind, index, path, queries = saved_index
        loaded = INDEX_CLASSES[kind].load(path, mmap=mmap)
        built_results = index.knn_batch(queries, k=4)
        loaded_results = loaded.knn_batch(queries, k=4)
        for built, loaded_result in zip(built_results, loaded_results):
            _assert_same_result(built, loaded_result)

    def test_exact_ties_round_trip(self, saved_index):
        """Queries that equal duplicated rows produce tied answers either way."""
        kind, index, path, _ = saved_index
        loaded = INDEX_CLASSES[kind].load(path)
        values = index.tree.dataset.values
        for row in (0, 5, 11):  # rows 0..11 are duplicated at 60..71
            built = index.knn(values[row], k=2)
            loaded_result = loaded.knn(values[row], k=2)
            assert built.distances[0] == built.distances[1]  # the tie is real
            assert set(built.indices) == {row, 60 + row}
            _assert_same_result(built, loaded_result)

    def test_generic_loader_restores_wrapper_type(self, saved_index):
        kind, _, path, _ = saved_index
        loaded = persistence.load_index(path)
        assert type(loaded) is INDEX_CLASSES[kind]
        assert loaded.is_built

    def test_resave_of_loaded_index_round_trips(self, saved_index, tmp_path):
        kind, index, path, queries = saved_index
        loaded = INDEX_CLASSES[kind].load(path)
        loaded.save(tmp_path / "again")
        again = INDEX_CLASSES[kind].load(tmp_path / "again")
        for query in queries:
            _assert_same_result(index.knn(query, k=3), again.knn(query, k=3))

    def test_in_place_resave_of_mmap_loaded_index(self, tmp_path):
        """Saving a mmap-loaded index over its own snapshot must not corrupt
        the files it is still reading (writes go to temp files + rename)."""
        index = MessiIndex(word_length=8, alphabet_size=16,
                           leaf_size=8).build(random_walk(40, 32, seed=5))
        path = tmp_path / "snap"
        index.save(path)
        loaded = MessiIndex.load(path, mmap=True)
        loaded.save(path)  # in place, while the maps are open
        reread = MessiIndex.load(path, mmap=True)
        for query in random_walk(4, 32, seed=6):
            _assert_same_result(index.knn(query, k=3), reread.knn(query, k=3))
        # The still-open first load keeps answering from the old inodes.
        for query in random_walk(4, 32, seed=7):
            _assert_same_result(index.knn(query, k=3), loaded.knn(query, k=3))

    def test_structure_and_timings_preserved(self, saved_index):
        kind, index, path, _ = saved_index
        loaded = INDEX_CLASSES[kind].load(path)
        assert (compute_structure_stats(loaded.tree).as_dict()
                == compute_structure_stats(index.tree).as_dict())
        assert loaded.timings.learn_time == index.timings.learn_time
        assert loaded.timings.total_time == index.timings.total_time

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=12, deadline=None)
    def test_random_queries_bit_identical(self, saved_index, seed, k):
        kind, index, path, _ = saved_index
        loaded = INDEX_CLASSES[kind].load(path)
        query = random_walk(1, 64, seed=seed)[0]
        _assert_same_result(index.knn(query, k=k), loaded.knn(query, k=k))


class TestTreeRoundTrip:
    def test_bare_tree_round_trip(self, tmp_path):
        tree = TreeIndex(SAX(word_length=8, alphabet_size=16), leaf_size=6)
        tree.build(Dataset(random_walk(50, 32, seed=13), name="walk50"))
        tree.save(tmp_path / "tree")

        loaded = TreeIndex.load(tmp_path / "tree")
        assert persistence.load_index(tmp_path / "tree") is not None
        assert type(persistence.load_index(tmp_path / "tree")) is TreeIndex
        assert loaded.is_built
        assert loaded.num_series == tree.num_series
        assert loaded.dataset.name == "walk50"
        np.testing.assert_array_equal(np.asarray(loaded.dataset.values),
                                      tree.dataset.values)
        np.testing.assert_array_equal(np.asarray(loaded._words), tree._words)
        for stored, restored in zip(tree.series_directory(),
                                    loaded.series_directory()):
            np.testing.assert_array_equal(np.asarray(stored), np.asarray(restored))

        built_searcher = ExactSearcher(tree)
        loaded_searcher = ExactSearcher(loaded)
        for query in random_walk(5, 32, seed=14):
            built = built_searcher.knn(query, k=3)
            restored = loaded_searcher.knn(query, k=3)
            _assert_same_result(built, restored)

    def test_mmap_load_is_zero_copy(self, tmp_path):
        tree = TreeIndex(SAX(word_length=8, alphabet_size=16), leaf_size=6)
        tree.build(Dataset(random_walk(50, 32, seed=13)))
        tree.save(tmp_path / "tree")
        loaded = TreeIndex.load(tmp_path / "tree", mmap=True)

        def backed_by_mmap(array: np.ndarray) -> bool:
            while array is not None:
                if isinstance(array, np.memmap):
                    return True
                array = array.base
            return False

        assert backed_by_mmap(loaded.dataset.values)
        assert backed_by_mmap(loaded._series_lower)
        assert backed_by_mmap(loaded.leaf_nodes[0].lower)
        assert backed_by_mmap(loaded.leaf_nodes[0].indices)
        # In-memory loading materializes plain arrays instead.
        eager = TreeIndex.load(tmp_path / "tree", mmap=False)
        assert not backed_by_mmap(eager.dataset.values)


class TestValidation:
    def test_save_unbuilt_raises(self, tmp_path):
        with pytest.raises(IndexError_, match="has not been built"):
            SofaIndex().save(tmp_path / "x")
        with pytest.raises(IndexError_, match="has not been built"):
            MessiIndex().save(tmp_path / "x")
        with pytest.raises(IndexError_, match="only a built index"):
            TreeIndex(SAX()).save(tmp_path / "x")

    def test_wrapper_mismatch_raises(self, tmp_path):
        index = MessiIndex(word_length=4, alphabet_size=4,
                           leaf_size=10).build(random_walk(20, 16, seed=3))
        index.save(tmp_path / "messi")
        with pytest.raises(IndexError_, match="holds a 'messi' index, not 'sofa'"):
            SofaIndex.load(tmp_path / "messi")

    def test_not_a_snapshot_raises(self, tmp_path):
        with pytest.raises(IndexError_, match="not an index snapshot"):
            persistence.load_index(tmp_path)

    def test_refuses_foreign_non_empty_directory(self, tmp_path):
        (tmp_path / "precious.txt").write_text("do not clobber")
        index = MessiIndex(word_length=4, alphabet_size=4,
                           leaf_size=10).build(random_walk(20, 16, seed=3))
        with pytest.raises(IndexError_, match="refusing to write"):
            index.save(tmp_path)
        assert (tmp_path / "precious.txt").read_text() == "do not clobber"


class TestFormatVersioning:
    @pytest.fixture()
    def snapshot(self, tmp_path):
        index = MessiIndex(word_length=4, alphabet_size=4,
                           leaf_size=10).build(random_walk(20, 16, seed=3))
        path = tmp_path / "snap"
        index.save(path)
        return path

    def _rewrite_manifest(self, path: Path, **overrides) -> None:
        manifest = json.loads((path / "manifest.json").read_text())
        manifest.update(overrides)
        # Re-stamp so the deliberate edit is not reported as corruption.
        persistence.stamp_manifest_checksum(manifest)
        (path / "manifest.json").write_text(json.dumps(manifest))

    def test_newer_version_raises_index_error(self, snapshot):
        self._rewrite_manifest(snapshot, version=persistence.FORMAT_VERSION + 1)
        with pytest.raises(IndexError_, match=(
                f"format version {persistence.FORMAT_VERSION + 1}.*only supports "
                f"versions up to {persistence.FORMAT_VERSION}")):
            persistence.load_index(snapshot)

    def test_invalid_version_raises(self, snapshot):
        self._rewrite_manifest(snapshot, version="two")
        with pytest.raises(IndexError_, match="invalid format version"):
            persistence.load_index(snapshot)

    def test_bad_magic_raises(self, snapshot):
        self._rewrite_manifest(snapshot, format="something-else")
        with pytest.raises(IndexError_, match="not an index snapshot"):
            persistence.load_index(snapshot)

    def test_corrupt_manifest_raises(self, snapshot):
        (snapshot / "manifest.json").write_text("{not json")
        with pytest.raises(IndexError_, match="unreadable snapshot manifest"):
            persistence.load_index(snapshot)

    def test_missing_array_file_raises(self, snapshot):
        (snapshot / "values.npy").unlink()
        with pytest.raises(IndexError_, match="missing array file values.npy"):
            persistence.load_index(snapshot)

    def test_missing_manifest_keys_raise_typed_error(self, snapshot, tmp_path):
        minimal = {"format": persistence.FORMAT_MAGIC,
                   "version": persistence.FORMAT_VERSION}
        (snapshot / "manifest.json").write_text(json.dumps(minimal))
        with pytest.raises(IndexError_, match="missing required key 'arrays'"):
            persistence.load_index(snapshot)

    def test_missing_tree_subkeys_raise_typed_error(self, snapshot):
        manifest = json.loads((snapshot / "manifest.json").read_text())
        del manifest["tree"]["leaf_size"]
        persistence.stamp_manifest_checksum(manifest)
        (snapshot / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(IndexError_, match="missing required key 'tree.leaf_size'"):
            persistence.load_index(snapshot)

    def test_foreign_split_policy_raises_typed_error(self, snapshot):
        """Every tree splits balanced; a manifest naming another policy
        describes a tree this library cannot rebuild, on either loader."""
        manifest = json.loads((snapshot / "manifest.json").read_text())
        assert manifest["tree"]["split_policy"] == "balanced"
        manifest["tree"]["split_policy"] = "round-robin"
        persistence.stamp_manifest_checksum(manifest)
        (snapshot / "manifest.json").write_text(json.dumps(manifest))
        for load in (persistence.load_index, persistence.load_dynamic):
            with pytest.raises(IndexError_, match="split policy 'round-robin'"):
                load(snapshot)


class TestGoldenSnapshot:
    """The checked-in format-v1 fixture must keep loading and answering."""

    def test_golden_manifest_is_format_v1(self):
        """The fixture pins format v1; the library must keep reading it."""
        manifest = persistence.read_manifest(GOLDEN_SNAPSHOT)
        assert manifest["version"] == 1
        assert manifest["version"] <= persistence.FORMAT_VERSION
        assert manifest["index_type"] == "messi"
        assert "dynamic" not in manifest  # v1 predates dynamic snapshots

    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "in-memory"])
    def test_golden_answers_are_stable(self, expected_golden, mmap):
        index = MessiIndex.load(GOLDEN_SNAPSHOT, mmap=mmap)
        queries = np.asarray(expected_golden["queries"], dtype=np.float64)
        for k, per_query in expected_golden["answers"].items():
            for query, answer in zip(queries, per_query):
                result = index.knn(query, k=int(k))
                assert result.indices.tolist() == answer["indices"]
                np.testing.assert_allclose(result.distances, answer["distances"],
                                           rtol=1e-9, atol=1e-12)

    def test_golden_batch_matches_per_query(self, expected_golden):
        index = MessiIndex.load(GOLDEN_SNAPSHOT)
        queries = np.asarray(expected_golden["queries"], dtype=np.float64)
        batched = index.knn_batch(queries, k=3)
        for query, batch_result in zip(queries, batched):
            _assert_same_result(index.knn(query, k=3), batch_result)

    def test_golden_snapshot_survives_newer_version_probe(self, tmp_path):
        """A future-versioned copy of the golden fixture fails cleanly."""
        copy = tmp_path / "future"
        shutil.copytree(GOLDEN_SNAPSHOT, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        manifest["version"] = 99
        (copy / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(IndexError_, match="format version 99"):
            MessiIndex.load(copy)


class TestGoldenDynamicV2:
    """The checked-in format-v2 dynamic fixture must keep loading mid-ingest.

    Format v2 predates the crash-safe storage metadata (``generation``,
    ``files``, ``checksums``, ``manifest_checksum``) — the v3 reader must
    fall back to plain filenames and skip checksum verification rather than
    reject the snapshot.
    """

    def test_golden_manifest_is_format_v2(self):
        manifest = persistence.read_manifest(GOLDEN_DYNAMIC_SNAPSHOT)
        assert manifest["version"] == 2
        assert manifest["version"] <= persistence.FORMAT_VERSION
        assert "dynamic" in manifest
        for v3_key in ("generation", "files", "checksums",
                       "manifest_checksum"):
            assert v3_key not in manifest

    def test_golden_v2_restores_pending_writes(self, expected_golden_dynamic):
        dynamic = DynamicIndex.load(GOLDEN_DYNAMIC_SNAPSHOT)
        assert dynamic.delta_count == 6
        assert dynamic.num_surviving == dynamic.num_base + 6 - 2
        assert dynamic.needs_compaction
        queries = np.asarray(expected_golden_dynamic["queries"],
                             dtype=np.float64)
        for k, per_query in expected_golden_dynamic["answers"].items():
            for query, answer in zip(queries, per_query):
                result = dynamic.knn(query, k=int(k))
                assert result.indices.tolist() == answer["indices"]
                np.testing.assert_allclose(result.distances,
                                           answer["distances"],
                                           rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("verify", ["eager", "lazy", "off"])
    def test_golden_v2_loads_under_every_verify_mode(self, verify):
        """No checksums recorded → nothing to verify, never a rejection."""
        dynamic = persistence.load_dynamic(GOLDEN_DYNAMIC_SNAPSHOT,
                                           verify=verify)
        assert dynamic.delta_count == 6

    def test_golden_v2_accepts_writes_and_compaction(
            self, expected_golden_dynamic):
        dynamic = DynamicIndex.load(GOLDEN_DYNAMIC_SNAPSHOT)
        queries = np.asarray(expected_golden_dynamic["queries"],
                             dtype=np.float64)
        surviving = dynamic.num_surviving
        inserted = dynamic.insert(queries[0])
        assert dynamic.knn(queries[0], k=1).nearest_index == inserted
        dynamic.compact()
        assert dynamic.delta_count == 0
        assert dynamic.num_surviving == surviving + 1


class TestBuildTimingsSnapshot:
    """Build phases travel as four scalars; older snapshots stored one time
    per work item (``transform_chunk_times`` / ``subtree_times``), and the
    loader sums those lists into the phase scalars."""

    @pytest.mark.parametrize("snapshot", [GOLDEN_SNAPSHOT, GOLDEN_DYNAMIC_SNAPSHOT],
                             ids=["golden-messi-v1", "golden-dynamic-v2"])
    def test_legacy_per_item_lists_load_as_sums(self, snapshot):
        stored = persistence.read_manifest(snapshot)["timings"]
        timings = persistence.load_dynamic(snapshot).tree.timings
        assert timings.learn_time == stored["learn_time"]
        assert timings.transform_time == sum(stored["transform_chunk_times"])
        assert timings.tree_time == sum(stored["subtree_times"])
        assert timings.wall_time == stored.get("wall_time", 0.0)

    def test_save_writes_scalars_and_round_trips(self, tmp_path):
        index = SofaIndex(word_length=8, alphabet_size=16,
                          leaf_size=8).build(random_walk(60, 32, seed=3))
        index.save(tmp_path / "snap")
        stored = persistence.read_manifest(tmp_path / "snap")["timings"]
        assert set(stored) == {"learn_time", "transform_time", "tree_time",
                               "wall_time"}
        loaded = SofaIndex.load(tmp_path / "snap").timings
        assert loaded == index.timings


class TestV1UpgradePath:
    """Format-v1 snapshots load as compacted dynamic indexes (empty delta)."""

    def test_golden_v1_loads_as_compacted_dynamic_index(self, expected_golden):
        dynamic = DynamicIndex.load(GOLDEN_SNAPSHOT)
        assert dynamic.index_type == "messi"
        assert dynamic.delta_count == 0
        assert dynamic.num_surviving == dynamic.num_base
        assert not dynamic.needs_compaction
        queries = np.asarray(expected_golden["queries"], dtype=np.float64)
        for k, per_query in expected_golden["answers"].items():
            for query, answer in zip(queries, per_query):
                result = dynamic.knn(query, k=int(k))
                assert result.indices.tolist() == answer["indices"]
                np.testing.assert_allclose(result.distances,
                                           answer["distances"],
                                           rtol=1e-9, atol=1e-12)

    def test_upgraded_v1_index_accepts_writes(self, expected_golden):
        dynamic = DynamicIndex.load(GOLDEN_SNAPSHOT)
        queries = np.asarray(expected_golden["queries"], dtype=np.float64)
        inserted = dynamic.insert(queries[0])
        result = dynamic.knn(queries[0], k=1)
        assert result.nearest_index == inserted
        dynamic.delete(inserted)
        dynamic.delete(0)
        dynamic.compact()
        assert dynamic.num_base == len(
            np.load(GOLDEN_SNAPSHOT / "values.npy")) - 1

    def test_static_v2_snapshot_also_upgrades(self, tmp_path):
        """A v2 snapshot written by save_index upgrades the same way."""
        index = MessiIndex(word_length=8, alphabet_size=16,
                           leaf_size=8).build(random_walk(30, 32, seed=15))
        index.save(tmp_path / "static")
        manifest = persistence.read_manifest(tmp_path / "static")
        assert manifest["version"] == persistence.FORMAT_VERSION
        dynamic = DynamicIndex.load(tmp_path / "static")
        assert dynamic.delta_count == 0
        query = random_walk(1, 32, seed=16)[0]
        static = index.knn(query, k=3)
        result = dynamic.knn(query, k=3)
        assert result.indices.tolist() == static.indices.tolist()
        assert np.array_equal(result.distances, static.distances)


class TestDynamicSnapshots:
    """Format-v2 snapshots round-trip the delta buffer and tombstones."""

    @pytest.fixture()
    def mid_ingest(self, tmp_path):
        base = random_walk(40, 32, seed=17)
        extra = random_walk(12, 32, seed=18)
        dynamic = MessiIndex(word_length=8, alphabet_size=16,
                             leaf_size=8).build(base).dynamic()
        dynamic.insert_batch(extra)
        for row in (3, 11, 45):
            dynamic.delete(row)
        path = tmp_path / "dynamic"
        dynamic.save(path)
        return dynamic, path

    def test_manifest_records_dynamic_section(self, mid_ingest):
        dynamic, path = mid_ingest
        manifest = persistence.read_manifest(path)
        assert manifest["version"] == persistence.FORMAT_VERSION
        assert manifest["dynamic"] == {"delta_count": 12, "base_dead": 2,
                                       "delta_dead": 1}

    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "in-memory"])
    def test_round_trip_is_bit_identical(self, mid_ingest, mmap):
        dynamic, path = mid_ingest
        loaded = DynamicIndex.load(path, mmap=mmap)
        assert loaded.num_surviving == dynamic.num_surviving
        assert loaded.delta_count == dynamic.delta_count
        queries = random_walk(5, 32, seed=19)
        for k in (1, 4):
            loaded_batch = loaded.knn_batch(queries, k=k)
            saved_batch = dynamic.knn_batch(queries, k=k)
            for query, loaded_result, saved_result in zip(queries, loaded_batch,
                                                          saved_batch):
                _assert_same_result(dynamic.knn(query, k=k),
                                    loaded.knn(query, k=k))
                _assert_same_result(saved_result, loaded_result)

    def test_loaded_index_resumes_ingest(self, mid_ingest):
        """The restart continues mid-ingest: same ids, writes keep working."""
        dynamic, path = mid_ingest
        loaded = DynamicIndex.load(path)
        series = random_walk(1, 32, seed=20)[0]
        assert loaded.insert(series) == dynamic.insert(series)
        loaded.delete(0)
        dynamic.delete(0)
        assert loaded.num_surviving == dynamic.num_surviving
        model_mapping = dynamic.compact()
        loaded_mapping = loaded.compact()
        assert np.array_equal(model_mapping, loaded_mapping)
        query = random_walk(1, 32, seed=21)[0]
        _assert_same_result(dynamic.knn(query, k=3), loaded.knn(query, k=3))

    def test_generic_loader_returns_dynamic_index(self, mid_ingest):
        _, path = mid_ingest
        loaded = persistence.load_index(path)
        assert type(loaded) is DynamicIndex

    def test_static_loader_refuses_pending_writes(self, mid_ingest):
        _, path = mid_ingest
        with pytest.raises(IndexError_, match="pending writes"):
            MessiIndex.load(path)
        with pytest.raises(IndexError_, match="pending writes"):
            persistence.load_index(path, expected_type="messi")

    def test_corrupt_delta_row_count_raises(self, mid_ingest):
        _, path = mid_ingest
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["dynamic"]["delta_count"] = 99
        persistence.stamp_manifest_checksum(manifest)
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(IndexError_, match="corrupt"):
            DynamicIndex.load(path)

    def test_compacted_dynamic_save_has_no_pending_writes(self, tmp_path):
        dynamic = MessiIndex(word_length=8, alphabet_size=16, leaf_size=8
                             ).build(random_walk(20, 32, seed=22)).dynamic()
        dynamic.insert_batch(random_walk(4, 32, seed=23))
        dynamic.compact()
        path = tmp_path / "compacted"
        dynamic.save(path)
        manifest = persistence.read_manifest(path)
        assert manifest["dynamic"] == {"delta_count": 0, "base_dead": 0,
                                       "delta_dead": 0}
        # No pending writes, so the static loader accepts it too.
        static = MessiIndex.load(path)
        assert static.is_built
