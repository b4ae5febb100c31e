"""Versioned, crash-consistent on-disk snapshots of built indexes.

Every process that answers queries over a SOFA/MESSI index today first pays
the full construction cost: learning the summarization, transforming every
series and growing the tree.  This module turns a *built* index into a
directory snapshot that any number of later processes can open in
milliseconds:

* ``manifest.json`` — format magic + version, the index/tree/summarization
  configuration, dataset identity, recorded build timings, and (since format
  v3) the file map and content checksums of every payload;
* one ``.npy`` file per array — the dataset's (normalized) value matrix, the
  full-resolution word matrix, the flattened tree topology (node words, split
  dimensions, child links), the leaf directory (per-leaf and per-series
  quantization intervals, dataset rows, offsets) and the summarization's
  learned state (breakpoints, weights, selected Fourier components).

``load(path, mmap=True)`` opens the large row-major payloads (values, words,
interval matrices) with ``numpy.load(..., mmap_mode="r")``: nothing is copied
into anonymous memory, the OS pages data in on first touch, and concurrent
processes serving the same snapshot share one page-cache copy — the
prerequisite for the ROADMAP's multi-process serving and sharding.  The small
structure arrays (node topology, leaf sizes) are materialized eagerly because
they are walked element-wise while rebuilding node objects.

A loaded index answers ``knn`` / ``knn_batch`` bit-identically to the freshly
built one: the search engines consume exactly the arrays the snapshot stores,
so every lower bound, pruning decision and refined distance is computed from
the same float64 values either way.

Crash consistency (format v3)
-----------------------------
Saving is atomic at snapshot granularity, built from three filesystem facts
(file fsync makes contents durable, directory fsync makes names durable,
``os.replace`` is atomic) routed through the injectable seam in
:mod:`repro.core.fsio` so the reliability harness can crash a save between
any two durable effects:

* **Fresh save** (the target is not an existing snapshot): every payload and
  the manifest are written and fsynced into a hidden *temp sibling*
  directory, which is then renamed into place in one atomic step.  A crash
  at any point leaves either no snapshot or the complete one.
* **In-place re-save** (the target already holds a snapshot): new payloads
  are written under *generation-suffixed* names (``values.g2.npy``) the old
  manifest does not reference, and the commit point is a single atomic
  rename of the new manifest over ``manifest.json``.  The old snapshot stays
  fully loadable until that instant — a crash leaves either the old or the
  new complete state, never a torn mix — and files of superseded
  generations are unlinked only after the commit (mmap-loaded readers of
  the old generation keep their inodes alive).

Every payload's CRC-32 is recorded in the manifest, and the manifest itself
carries a whole-manifest checksum.  ``verify="eager"`` re-checksums every
payload on load; ``"lazy"`` (the default) checks only the payloads the load
materializes anyway, so mmap loads stay O(structure) cheap; ``"off"`` skips
verification.  A failed checksum, a missing file or a truncated ``.npy``
raises a typed :class:`~repro.core.errors.CorruptionError` /
:class:`~repro.core.errors.IndexError_` naming the offending file — never a
raw numpy or OS exception, and never a silently wrong answer.

Snapshots are versioned.  :data:`FORMAT_VERSION` is bumped whenever the
layout changes; loading a snapshot written by a newer library raises a clear
:class:`~repro.core.errors.IndexError_`.  Format v1 and v2 snapshots (no file
map, no checksums) still load.

Format version 2 added *dynamic* snapshots: a
:class:`~repro.index.dynamic.DynamicIndex` saved mid-ingest stores, next to
its base tree, the delta buffer (values and quantization intervals of every
buffered series) and both tombstone sets, plus a ``dynamic`` manifest
section.  Loading restores the exact serving state — same surviving rows,
same global row ids, same answers.  Format v3 additionally records the
write-ahead-log position (``wal.applied_lsn``) captured by the snapshot, so
:meth:`~repro.index.dynamic.DynamicIndex.recover` replays only the WAL
records the snapshot does not already contain.  The upgrade path is total:
format-v1/v2 snapshots (and v3 snapshots of static indexes) load through
``DynamicIndex.load`` as a compacted index with an empty delta, while
``load_index`` returns whatever was saved (a dynamic snapshot comes back as
a :class:`~repro.index.dynamic.DynamicIndex`).
"""

from __future__ import annotations

import io
import json
import zlib
from pathlib import Path

import numpy as np

from repro.core import fsio
from repro.core.errors import (
    CorruptionError,
    IndexError_,
    InvalidParameterError,
    StorageFullError,
)
from repro.core.series import Dataset
from repro.index.messi import MessiIndex
from repro.index.node import InnerNode, LeafNode
from repro.index.search import ExactSearcher
from repro.index.sofa import SofaIndex
from repro.index.tree import BuildTimings, TreeIndex
from repro.transforms.sax import SAX
from repro.transforms.sfa import SFA

#: Magic string identifying a repro index snapshot directory.
FORMAT_MAGIC = "repro-index-snapshot"

#: Current snapshot layout version.  Bump on any incompatible layout change.
#: Version 2 (dynamic-maintenance subsystem) added the optional
#: delta/tombstone payload of dynamic indexes; version 3 (crash-safe storage)
#: added the per-payload file map + checksums, the whole-manifest checksum,
#: the save generation and the WAL position of dynamic snapshots.  v1/v2
#: snapshots still load (no checksums to verify).
FORMAT_VERSION = 3

#: Load-time payload verification modes (see :func:`load_tree`).
VERIFY_MODES = ("eager", "lazy", "off")

#: The node-splitting heuristic every tree uses (the iSAX2.0/MESSI balanced
#: split).  Manifests record it so the format stays unchanged; a snapshot
#: naming any other policy describes a tree this library cannot rebuild.
SPLIT_POLICY = "balanced"

#: Names of the delta/tombstone arrays of a dynamic (v2+) snapshot.
_DYNAMIC_ARRAYS = ("delta_values", "delta_lower", "delta_upper",
                   "delta_alive", "base_alive")

#: Manifest file name inside a snapshot directory.
MANIFEST_NAME = "manifest.json"

#: Arrays that are memory-mapped under ``mmap=True`` (the large, row-major
#: payloads sliced or gathered wholesale at query time).  Everything else is
#: small structure state that load-time reconstruction walks element-wise.
_MMAP_ARRAYS = frozenset({
    "values",
    "leaf_words",
    "series_lower",
    "series_upper",
    "series_rows",
    "leaf_lower",
    "leaf_upper",
})

#: Summarization registry: manifest type name -> class with snapshot support.
_SUMMARIZATIONS = {"SAX": SAX, "SFA": SFA}

#: Index-wrapper registry: manifest index_type -> wrapper class (``tree``
#: snapshots have no wrapper and are handled separately).
_WRAPPERS = {"sofa": SofaIndex, "messi": MessiIndex}


# ------------------------------------------------------------------ checksums


def _crc32_hex(data: bytes) -> str:
    return f"{zlib.crc32(data) & 0xFFFFFFFF:08x}"


def _npy_bytes(array: np.ndarray) -> bytes:
    """The exact ``.npy`` serialization of an array (checksummed as written)."""
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array))
    return buffer.getvalue()


def _file_crc32_hex(path: Path, chunk_size: int = 1 << 22) -> str:
    crc = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    return f"{crc & 0xFFFFFFFF:08x}"


def manifest_checksum(manifest: dict) -> str:
    """CRC-32 of the manifest's canonical JSON, ``manifest_checksum`` excluded.

    The canonical form (sorted keys, compact separators) makes the checksum
    independent of on-disk formatting, so a manifest survives pretty-printing
    round trips but any *semantic* edit — flipped version, altered checksum
    table, truncated array list — is detected.
    """
    body = {key: value for key, value in manifest.items()
            if key != "manifest_checksum"}
    data = json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _crc32_hex(data)


def stamp_manifest_checksum(manifest: dict) -> dict:
    """Set ``manifest_checksum`` to match the manifest's current content.

    Exposed for tests and tools that rewrite manifests deliberately (version
    probes, fixture regeneration): after any edit, re-stamp so the edit is
    distinguishable from corruption.
    """
    manifest["manifest_checksum"] = manifest_checksum(manifest)
    return manifest


def _manifest_bytes(manifest: dict) -> bytes:
    return (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")


# --------------------------------------------------------------------- saving


def _json_safe(mapping: dict) -> dict:
    """Best-effort JSON-serializable copy of a metadata dict (drops the rest)."""
    safe = {}
    for key, value in mapping.items():
        try:
            json.dumps({str(key): value})
        except (TypeError, ValueError):
            continue
        safe[str(key)] = value
    return safe


def _flatten_tree(tree: TreeIndex) -> dict[str, np.ndarray]:
    """Flatten the node forest into preorder structure arrays.

    Node ``0..num_nodes-1`` enumerate every node of every root subtree in
    preorder (children always after their parent), so reconstruction can
    rebuild bottom-up with one reversed pass.  Leaves carry their position in
    the leaf directory (``node_leaf``); inner nodes carry child links.
    """
    word_length = tree.summarization.bins.num_dimensions
    nodes = []
    node_of = {}
    root_keys = []
    root_nodes = []
    for key, subtree in tree.root_children.items():
        root_keys.append(key)
        root_nodes.append(len(nodes))
        for node in subtree.iter_nodes():
            node_of[id(node)] = len(nodes)
            nodes.append(node)

    num_nodes = len(nodes)
    node_symbols = np.empty((num_nodes, word_length), dtype=np.int64)
    node_bits = np.empty((num_nodes, word_length), dtype=np.int64)
    node_split = np.full(num_nodes, -1, dtype=np.int64)
    node_left = np.full(num_nodes, -1, dtype=np.int64)
    node_right = np.full(num_nodes, -1, dtype=np.int64)
    node_leaf = np.full(num_nodes, -1, dtype=np.int64)
    for position, node in enumerate(nodes):
        node_symbols[position] = node.symbols
        node_bits[position] = node.bits
        if node.is_leaf():
            node_leaf[position] = tree.leaf_position(node)
        else:
            node_split[position] = node.split_dimension
            if node.left is not None:
                node_left[position] = node_of[id(node.left)]
            if node.right is not None:
                node_right[position] = node_of[id(node.right)]

    (series_lower, series_upper, series_rows,
     _leaf_offsets, leaf_sizes) = tree.series_directory()
    return {
        "node_symbols": node_symbols,
        "node_bits": node_bits,
        "node_split": node_split,
        "node_left": node_left,
        "node_right": node_right,
        "node_leaf": node_leaf,
        "root_keys": np.asarray(root_keys, dtype=np.int64).reshape(
            len(root_keys), word_length),
        "root_nodes": np.asarray(root_nodes, dtype=np.int64),
        "leaf_sizes": np.asarray(leaf_sizes, dtype=np.int64),
        "leaf_lower": tree._leaf_lower,
        "leaf_upper": tree._leaf_upper,
        "series_lower": series_lower,
        "series_upper": series_upper,
        "series_rows": np.asarray(series_rows, dtype=np.int64),
        "leaf_words": np.vstack([leaf.words for leaf in tree.leaf_nodes]),
    }


def _existing_snapshot_manifest(path: Path) -> "dict | None":
    """The manifest of an existing snapshot at ``path``, or ``None``.

    Raises the refusal error for non-empty directories that are not (or no
    longer) valid snapshots — overwriting them in place would have no safe
    commit protocol.
    """
    if not path.exists():
        return None
    if not path.is_dir():
        raise IndexError_(f"snapshot target {path} exists and is not a directory")
    if (path / MANIFEST_NAME).is_file():
        try:
            return read_manifest(path)
        except IndexError_ as error:
            raise IndexError_(
                f"refusing to overwrite {path}: its manifest is unreadable "
                f"({error}); delete the directory to re-save from scratch"
            ) from None
    if any(path.iterdir()):
        raise IndexError_(
            f"refusing to write snapshot into non-empty directory {path} "
            "that is not an existing snapshot"
        )
    return None


def _commit_fresh(path: Path, files: dict[str, bytes],
                  manifest: dict) -> None:
    """Write a brand-new snapshot via a temp sibling + one atomic rename."""
    manifest["generation"] = 1
    stamp_manifest_checksum(manifest)
    staging = path.parent / f".{path.name}.saving"
    fsio.rmtree(staging)
    fsio.mkdir(staging)
    try:
        for filename, data in files.items():
            fsio.write_bytes(staging / filename, data)
            fsio.fsync_path(staging / filename)
        fsio.write_bytes(staging / MANIFEST_NAME, _manifest_bytes(manifest))
        fsio.fsync_path(staging / MANIFEST_NAME)
        fsio.fsync_dir(staging)
    except StorageFullError:
        # Nothing committed yet — reclaim the staging bytes so the caller
        # can retry once space is freed, instead of holding the volume full.
        fsio.rmtree(staging)
        raise
    try:
        if path.exists():
            # Validated empty by _existing_snapshot_manifest; clear the husk
            # so the rename lands.  A crash in between leaves no snapshot
            # plus a complete staging dir — the "old" state was no snapshot
            # either way.
            fsio.rmtree(path)
        fsio.rename(staging, path)
        fsio.fsync_dir(path.parent)
    except StorageFullError:
        # Some filesystems report a full volume from the rename itself (new
        # directory entry).  After a successful rename the rmtree is a no-op;
        # before it, it reclaims the staging bytes — old-or-new either way.
        fsio.rmtree(staging)
        raise


def _commit_in_place(path: Path, files: dict[str, bytes], manifest: dict,
                     previous_manifest: dict) -> None:
    """Re-save over a live snapshot; the manifest rename is the commit point.

    New payloads land under names the committed manifest does not reference,
    so readers of the old generation are never disturbed; after the atomic
    manifest swap, files the new manifest does not reference are unlinked
    (their inodes stay alive for already-open mmaps).
    """
    stamp_manifest_checksum(manifest)
    temporary = path / (MANIFEST_NAME + ".tmp")
    try:
        for filename, data in files.items():
            fsio.write_bytes(path / filename, data)
            fsio.fsync_path(path / filename)
        fsio.write_bytes(temporary, _manifest_bytes(manifest))
        fsio.fsync_path(temporary)
    except StorageFullError:
        # The committed manifest still references only the old generation's
        # payloads; unlink the uncommitted generation files (all written
        # under generation-suffixed names) to give the space back.
        for filename in files:
            fsio.unlink(path / filename)
        fsio.unlink(temporary)
        raise
    try:
        fsio.rename(temporary, path / MANIFEST_NAME)
    except StorageFullError:
        # The rename itself can report a full volume (new directory entry);
        # the old manifest is still the committed one, so drop the
        # uncommitted generation exactly as above.
        for filename in files:
            fsio.unlink(path / filename)
        fsio.unlink(temporary)
        raise
    fsio.fsync_dir(path)
    referenced = set(files) | {MANIFEST_NAME}
    for entry in sorted(path.iterdir()):
        if entry.name.endswith(".npy") and entry.name not in referenced:
            fsio.unlink(entry)


def save_tree(tree: TreeIndex, path: "str | Path",
              index_type: str = "tree",
              extra_arrays: "dict[str, np.ndarray] | None" = None,
              extra_manifest: "dict | None" = None) -> Path:
    """Write a built :class:`TreeIndex` as a crash-consistent snapshot.

    Returns the snapshot path.  ``index_type`` records which wrapper the
    snapshot restores to (``"sofa"``, ``"messi"`` or the bare ``"tree"``).
    ``extra_arrays``/``extra_manifest`` let :func:`save_dynamic` persist the
    delta/tombstone payload and its manifest section next to the base tree.

    The save commits atomically: a fresh snapshot appears via one directory
    rename, an in-place re-save via one manifest rename — a crash at any
    point leaves either the previous state or the complete new one (see the
    module docstring for the protocol).
    """
    if not tree.is_built:
        raise IndexError_("only a built index can be saved")
    if index_type != "tree" and index_type not in _WRAPPERS:
        raise IndexError_(f"unknown index_type '{index_type}'")
    summarization = tree.summarization
    type_name = type(summarization).__name__
    if type_name not in _SUMMARIZATIONS:
        raise IndexError_(
            f"summarization {type_name} does not support snapshots"
        )
    summarization_config, summarization_arrays = summarization.snapshot_state()

    path = Path(path)
    previous_manifest = _existing_snapshot_manifest(path)

    arrays = dict(_flatten_tree(tree))
    arrays["values"] = tree.dataset.values
    for name, array in summarization_arrays.items():
        arrays[f"summarization_{name}"] = array
    if extra_arrays:
        overlap = set(extra_arrays) & set(arrays)
        if overlap:
            raise IndexError_(
                f"extra snapshot arrays clash with tree arrays: {sorted(overlap)}"
            )
        arrays.update(extra_arrays)

    generation = 1 if previous_manifest is None else (
        int(previous_manifest.get("generation", 1)) + 1)
    suffix = "" if previous_manifest is None else f".g{generation}"
    payloads: dict[str, bytes] = {}
    file_map: dict[str, str] = {}
    checksums: dict[str, str] = {}
    for name, array in arrays.items():
        data = _npy_bytes(array)
        filename = f"{name}{suffix}.npy"
        payloads[filename] = data
        file_map[name] = filename
        checksums[name] = _crc32_hex(data)

    manifest = {
        "format": FORMAT_MAGIC,
        "version": FORMAT_VERSION,
        "index_type": index_type,
        "generation": generation,
        "files": file_map,
        "checksums": checksums,
        "tree": {
            "leaf_size": tree.leaf_size,
            "split_policy": SPLIT_POLICY,
            "transform_chunks": tree.transform_chunks,
            "num_series": tree.num_series,
            "series_length": tree.dataset.series_length,
            "num_leaves": len(tree.leaf_nodes),
        },
        "summarization": {"type": type_name, **summarization_config},
        "dataset": {
            "name": tree.dataset.name,
            "metadata": _json_safe(tree.dataset.metadata),
        },
        "timings": {
            "learn_time": tree.timings.learn_time,
            "transform_time": tree.timings.transform_time,
            "tree_time": tree.timings.tree_time,
            "wall_time": tree.timings.wall_time,
        },
        "arrays": sorted(arrays),
    }
    if extra_manifest:
        manifest.update(extra_manifest)

    if previous_manifest is None:
        _commit_fresh(path, payloads, manifest)
    else:
        _commit_in_place(path, payloads, manifest, previous_manifest)
    return path


# -------------------------------------------------------------------- loading


def read_manifest(path: "str | Path") -> dict:
    """Read and validate a snapshot manifest (magic, version, checksum)."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise IndexError_(
            f"{path} is not an index snapshot (missing {MANIFEST_NAME})"
        )
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise IndexError_(f"unreadable snapshot manifest {manifest_path}: {error}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_MAGIC:
        raise IndexError_(
            f"{path} is not an index snapshot (bad or missing format magic)"
        )
    version = manifest.get("version")
    if not isinstance(version, int) or version < 1:
        raise IndexError_(f"snapshot {path} has an invalid format version: {version!r}")
    if version > FORMAT_VERSION:
        raise IndexError_(
            f"snapshot {path} uses format version {version}, but this library "
            f"only supports versions up to {FORMAT_VERSION}; upgrade the "
            "library or re-save the index with this version"
        )
    stored = manifest.get("manifest_checksum")
    if stored is not None and stored != manifest_checksum(manifest):
        raise CorruptionError(
            f"snapshot manifest {manifest_path} fails its checksum "
            f"(stored {stored}, computed {manifest_checksum(manifest)}); "
            "the manifest is corrupt or was edited without re-stamping"
        )
    required = {
        "arrays": (),
        "summarization": ("type",),
        "tree": ("leaf_size", "split_policy", "transform_chunks", "num_leaves"),
    }
    for key, subkeys in required.items():
        section = manifest.get(key)
        if section is None:
            raise IndexError_(
                f"snapshot {path} manifest is missing required key '{key}'"
            )
        for subkey in subkeys:
            if subkey not in section:
                raise IndexError_(
                    f"snapshot {path} manifest is missing required key "
                    f"'{key}.{subkey}'"
                )
    return manifest


def _check_verify(verify: str) -> str:
    if verify not in VERIFY_MODES:
        raise InvalidParameterError(
            f"verify must be one of {VERIFY_MODES}, got {verify!r}")
    return verify


def _load_arrays(path: Path, names: list[str], manifest: dict, mmap: bool,
                 verify: str) -> dict[str, np.ndarray]:
    """Open every named array, verifying per-file checksums as configured.

    ``verify="eager"`` checksums every payload (reads all bytes, even the
    ones that would otherwise be lazily paged in); ``"lazy"`` checksums only
    the payloads this load materializes anyway — with ``mmap=True`` the big
    row-major matrices are skipped, keeping warm loads O(structure) cheap.
    Missing and truncated files raise typed errors naming the file.
    """
    files = manifest.get("files") or {}
    checksums = manifest.get("checksums") or {}
    arrays = {}
    for name in names:
        filename = files.get(name, f"{name}.npy")
        array_path = path / filename
        if not array_path.is_file():
            raise IndexError_(f"snapshot {path} is missing array file {filename}")
        use_mmap = mmap and name in _MMAP_ARRAYS
        expected = checksums.get(name)
        if expected is not None and (verify == "eager"
                                     or (verify == "lazy" and not use_mmap)):
            actual = _file_crc32_hex(array_path)
            if actual != expected:
                raise CorruptionError(
                    f"snapshot array file {array_path} fails its checksum "
                    f"(stored {expected}, computed {actual}); the payload is "
                    "corrupt — restore the snapshot or re-save the index"
                )
        try:
            arrays[name] = np.load(array_path,
                                   mmap_mode="r" if use_mmap else None)
        except (ValueError, OSError, EOFError) as error:
            raise CorruptionError(
                f"snapshot array file {array_path} is truncated or not a "
                f"valid .npy payload: {error}"
            ) from None
    return arrays


def _restore_summarization(manifest: dict, arrays: dict):
    config = dict(manifest["summarization"])
    type_name = config.pop("type", None)
    summarization_cls = _SUMMARIZATIONS.get(type_name)
    if summarization_cls is None:
        raise IndexError_(f"snapshot uses unknown summarization type '{type_name}'")
    prefix = "summarization_"
    state = {name[len(prefix):]: array for name, array in arrays.items()
             if name.startswith(prefix)}
    return summarization_cls.from_snapshot(config, state)


def _restore_nodes(arrays: dict, leaf_payloads: list[LeafNode]) -> list:
    """Rebuild every node object from the preorder structure arrays.

    ``leaf_payloads`` holds the ready LeafNode of each leaf-directory
    position; the reversed preorder pass guarantees both children exist by the
    time their parent is constructed.  The link columns are converted to
    Python lists up front: element-wise numpy (worse, memmap) scalar access
    inside the loop would dominate load time on degenerate trees with
    thousands of nodes.
    """
    node_symbols = np.asarray(arrays["node_symbols"])
    node_bits = np.asarray(arrays["node_bits"])
    node_split = np.asarray(arrays["node_split"]).tolist()
    node_left = np.asarray(arrays["node_left"]).tolist()
    node_right = np.asarray(arrays["node_right"]).tolist()
    node_leaf = np.asarray(arrays["node_leaf"]).tolist()
    num_nodes = node_symbols.shape[0]
    nodes: list = [None] * num_nodes
    for position in range(num_nodes - 1, -1, -1):
        leaf_id = node_leaf[position]
        if leaf_id >= 0:
            nodes[position] = leaf_payloads[leaf_id]
        else:
            left = node_left[position]
            right = node_right[position]
            nodes[position] = InnerNode(
                symbols=node_symbols[position],
                bits=node_bits[position],
                split_dimension=node_split[position],
                left=nodes[left] if left >= 0 else None,
                right=nodes[right] if right >= 0 else None,
            )
    return nodes


def load_tree(path: "str | Path", mmap: bool = True,
              manifest: dict | None = None, verify: str = "lazy") -> TreeIndex:
    """Load a snapshot back into a fully built :class:`TreeIndex`.

    With ``mmap=True`` (the default) the value matrix, word matrix and
    interval matrices are memory-mapped read-only; leaf payloads become
    zero-copy row slices of those maps, so loading touches only the structure
    arrays and the first query pays the page-in cost of exactly the data it
    prunes down to.  ``verify`` controls payload checksum verification:
    ``"eager"`` checks everything, ``"lazy"`` (default) checks what the load
    materializes anyway, ``"off"`` skips checks.
    """
    path = Path(path)
    _check_verify(verify)
    if manifest is None:
        manifest = read_manifest(path)
    arrays = _load_arrays(path, list(manifest["arrays"]), manifest,
                          mmap=mmap, verify=verify)
    summarization = _restore_summarization(manifest, arrays)

    tree_config = manifest["tree"]
    if tree_config["split_policy"] != SPLIT_POLICY:
        raise IndexError_(
            f"snapshot {path} was built with split policy "
            f"{tree_config['split_policy']!r}; only {SPLIT_POLICY!r} trees "
            "can be loaded"
        )
    tree = TreeIndex(summarization,
                     leaf_size=int(tree_config["leaf_size"]),
                     transform_chunks=int(tree_config["transform_chunks"]))

    dataset_config = manifest.get("dataset", {})
    tree.dataset = Dataset(arrays["values"],
                           name=dataset_config.get("name", "dataset"),
                           normalize=False,
                           metadata=dict(dataset_config.get("metadata", {})),
                           validate=False)

    leaf_sizes = np.ascontiguousarray(arrays["leaf_sizes"], dtype=np.int64)
    leaf_offsets = np.concatenate([[0], np.cumsum(leaf_sizes[:-1])]).astype(np.int64)
    node_symbols = np.asarray(arrays["node_symbols"])
    node_bits = np.asarray(arrays["node_bits"])
    node_leaf = np.asarray(arrays["node_leaf"])
    # Slice leaf payloads from base-class ndarray *views* of the maps: the
    # views share the mmap buffer (still zero-copy) but skip the np.memmap
    # subclass slicing overhead, which dominates on thousands of leaves.
    leaf_words = np.asarray(arrays["leaf_words"])
    series_lower = np.asarray(arrays["series_lower"])
    series_upper = np.asarray(arrays["series_upper"])
    series_rows = np.asarray(arrays["series_rows"])

    num_leaves = int(tree_config["num_leaves"])
    leaf_payloads: list[LeafNode | None] = [None] * num_leaves
    leaf_positions = np.flatnonzero(node_leaf >= 0)
    leaf_ids = node_leaf[leaf_positions].tolist()
    starts = leaf_offsets.tolist()
    sizes = leaf_sizes.tolist()
    for position, leaf_id in zip(leaf_positions.tolist(), leaf_ids):
        start = starts[leaf_id]
        stop = start + sizes[leaf_id]
        leaf_payloads[leaf_id] = LeafNode(
            symbols=node_symbols[position],
            bits=node_bits[position],
            indices=series_rows[start:stop],
            words=leaf_words[start:stop],
            lower=series_lower[start:stop],
            upper=series_upper[start:stop],
        )
    if any(leaf is None for leaf in leaf_payloads):
        raise IndexError_(f"snapshot {path} is corrupt: leaf directory and "
                          "node arrays disagree")

    nodes = _restore_nodes(arrays, leaf_payloads)
    root_keys = np.asarray(arrays["root_keys"]).tolist()
    root_nodes = np.asarray(arrays["root_nodes"]).tolist()
    tree.root_children = {
        tuple(key): nodes[node] for key, node in zip(root_keys, root_nodes)
    }

    # Install the leaf directory directly from the stored arrays (bit-identical
    # to what _build_leaf_directory would recompute, without touching the data).
    tree.leaf_nodes = list(leaf_payloads)
    tree._leaf_lower = arrays["leaf_lower"]
    tree._leaf_upper = arrays["leaf_upper"]
    tree._leaf_positions = {id(leaf): position
                            for position, leaf in enumerate(tree.leaf_nodes)}
    tree._leaf_sizes = leaf_sizes
    tree._leaf_offsets = leaf_offsets
    tree._series_lower = series_lower
    tree._series_upper = series_upper
    tree._series_rows = series_rows

    # Words in dataset-row order (scatter back from leaf order).
    words = np.empty_like(np.asarray(leaf_words))
    words[np.asarray(series_rows)] = leaf_words
    tree._words = words

    timings = manifest.get("timings", {})
    tree.timings = BuildTimings(
        learn_time=float(timings.get("learn_time", 0.0)),
        # Older snapshots store one time per work item; their sum is the phase.
        transform_time=float(timings.get(
            "transform_time", sum(timings.get("transform_chunk_times", [])))),
        tree_time=float(timings.get(
            "tree_time", sum(timings.get("subtree_times", [])))),
        wall_time=float(timings.get("wall_time", 0.0)),
    )
    return tree


# ----------------------------------------------------------- wrapper indexes


def save_index(index: "SofaIndex | MessiIndex | TreeIndex",
               path: "str | Path") -> Path:
    """Save any supported index (wrapper, bare tree or dynamic) as a snapshot."""
    from repro.index.dynamic import DynamicIndex

    if isinstance(index, DynamicIndex):
        index.save(path)
        return Path(path)
    if isinstance(index, TreeIndex):
        return save_tree(index, path, index_type="tree")
    for index_type, wrapper_cls in _WRAPPERS.items():
        if isinstance(index, wrapper_cls):
            if not index.is_built:
                raise IndexError_("only a built index can be saved")
            return save_tree(index.tree, path, index_type=index_type)
    raise IndexError_(f"cannot snapshot object of type {type(index).__name__}")


def load_index(path: "str | Path", mmap: bool = True,
               expected_type: str | None = None, verify: str = "lazy"):
    """Load a snapshot into the index object it was saved from.

    Returns a :class:`SofaIndex`, :class:`MessiIndex`, bare
    :class:`TreeIndex` or — for dynamic (mid-ingest) snapshots — a
    :class:`~repro.index.dynamic.DynamicIndex`, according to the manifest.
    ``expected_type`` (one of ``"sofa"``, ``"messi"``, ``"tree"``) makes
    mismatches a clear error — used by ``SofaIndex.load`` /
    ``MessiIndex.load``.  A static loader refuses a dynamic snapshot with
    pending writes rather than silently dropping them.  ``verify`` is the
    payload checksum mode (see :func:`load_tree`).
    """
    manifest = read_manifest(path)
    index_type = manifest.get("index_type", "tree")
    if expected_type is not None and index_type != expected_type:
        raise IndexError_(
            f"snapshot {path} holds a '{index_type}' index, not "
            f"'{expected_type}'; use the matching loader or repro.load_index"
        )
    dynamic_section = manifest.get("dynamic")
    if dynamic_section is not None:
        pending = (int(dynamic_section.get("delta_count", 0))
                   + int(dynamic_section.get("base_dead", 0)))
        if expected_type is None:
            return load_dynamic(path, mmap=mmap, manifest=manifest,
                                verify=verify)
        if pending:
            raise IndexError_(
                f"snapshot {path} holds a dynamic index with pending writes "
                f"(buffered inserts or tombstones); load it with "
                "DynamicIndex.load or repro.load_index to keep them"
            )
    tree = load_tree(path, mmap=mmap, manifest=manifest, verify=verify)
    if index_type == "tree":
        return tree
    wrapper_cls = _WRAPPERS.get(index_type)
    if wrapper_cls is None:
        raise IndexError_(f"snapshot {path} holds unknown index_type '{index_type}'")
    index = wrapper_cls.__new__(wrapper_cls)
    index.summarization = tree.summarization
    index.tree = tree
    index._searcher = ExactSearcher(tree)
    return index


# ------------------------------------------------------------ dynamic (v2+)


def save_dynamic(dynamic, path: "str | Path") -> Path:
    """Write a :class:`~repro.index.dynamic.DynamicIndex` snapshot.

    The base tree is stored exactly like a static snapshot; the delta buffer
    (values + quantization intervals + aliveness) and the base tombstone set
    ride along as extra arrays, described by a ``dynamic`` manifest section.
    When the index has a write-ahead log attached, the manifest records the
    last WAL sequence number the snapshot covers (``wal.applied_lsn``), so
    recovery replays only newer records.
    """
    state = dynamic._state
    delta_count = state.delta_count
    extra_arrays = {
        "delta_values": state.delta_values.view,
        "delta_lower": state.delta_lower.view,
        "delta_upper": state.delta_upper.view,
        "delta_alive": state.delta_alive.view,
        "base_alive": state.base_alive,
    }
    extra_manifest = {
        "dynamic": {
            "delta_count": delta_count,
            "base_dead": state.base_dead,
            "delta_dead": state.delta_dead,
        },
    }
    wal = getattr(dynamic, "_wal", None)
    if wal is not None:
        extra_manifest["wal"] = {"applied_lsn": int(wal.last_lsn)}
    return save_tree(state.tree, path, index_type=state.index_type,
                     extra_arrays=extra_arrays, extra_manifest=extra_manifest)


def load_dynamic(path: "str | Path", mmap: bool = True,
                 manifest: dict | None = None, verify: str = "lazy",
                 **options):
    """Load any snapshot into a :class:`~repro.index.dynamic.DynamicIndex`.

    Dynamic (v2+) snapshots restore the delta buffer and both tombstone sets
    — the serving process resumes mid-ingest with the same global row ids.
    Static snapshots, including every format-v1 snapshot, take the upgrade
    path: they load as a compacted index with an empty delta.  ``options``
    are forwarded to the ``DynamicIndex`` constructor.  To also replay a
    write-ahead log over the snapshot, use
    :meth:`~repro.index.dynamic.DynamicIndex.recover`.
    """
    from repro.index.dynamic import DynamicIndex

    path = Path(path)
    _check_verify(verify)
    if manifest is None:
        manifest = read_manifest(path)
    index_type = manifest.get("index_type", "tree")
    tree = load_tree(path, mmap=mmap, manifest=manifest, verify=verify)
    dynamic_section = manifest.get("dynamic")
    if dynamic_section is None:
        # v1 (or static v2+) upgrade path: a compacted index, empty delta.
        word_length = int(np.asarray(tree.summarization.weights).shape[0])
        return DynamicIndex._restore(
            tree, index_type,
            base_alive=np.ones(tree.num_series, dtype=bool),
            delta_values=np.empty((0, tree.dataset.series_length)),
            delta_lower=np.empty((0, word_length)),
            delta_upper=np.empty((0, word_length)),
            delta_alive=np.empty(0, dtype=bool),
            **options)
    arrays = _load_arrays(path, list(_DYNAMIC_ARRAYS), manifest,
                          mmap=False, verify=verify)
    delta_count = int(dynamic_section.get("delta_count",
                                          arrays["delta_values"].shape[0]))
    for name in ("delta_values", "delta_lower", "delta_upper", "delta_alive"):
        if arrays[name].shape[0] != delta_count:
            raise IndexError_(
                f"snapshot {path} is corrupt: {name} holds "
                f"{arrays[name].shape[0]} rows, manifest says {delta_count}"
            )
    return DynamicIndex._restore(
        tree, index_type,
        base_alive=np.asarray(arrays["base_alive"], dtype=bool),
        delta_values=np.asarray(arrays["delta_values"], dtype=np.float64),
        delta_lower=np.asarray(arrays["delta_lower"], dtype=np.float64),
        delta_upper=np.asarray(arrays["delta_upper"], dtype=np.float64),
        delta_alive=np.asarray(arrays["delta_alive"], dtype=bool),
        **options)
