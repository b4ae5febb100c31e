"""The MESSI-style tree index, generic over a symbolic summarization.

MESSI (with SAX words) and SOFA (with SFA words) share the same index
structure: a root whose children are the 1-bit-per-dimension prefixes of the
words, binary inner nodes obtained by appending one bit to one dimension, and
leaves holding the full-resolution words plus pointers to the raw series.
The only differences are which summarization produces the words and which
per-dimension weights enter the lower bound — both are encapsulated in the
:class:`~repro.transforms.base.SymbolicSummarization` passed to the tree.

Construction follows the paper's two index stages (Figure 5):

1. summarize every series into full-resolution words, chunk by chunk, and
   group them into per-root-child buffers;
2. build each root subtree independently from its buffer, splitting any node
   that exceeds ``leaf_size`` by appending one bit to the dimension that
   balances the two children best.  The default ``"vectorized"`` builder
   grows each subtree a whole *frontier* of nodes per pass (vectorized bit
   extraction, split scoring and stable partitioning) instead of recursing
   node by node; the seed ``"recursive"`` builder is kept as the reference
   implementation.

The paper runs both stages on many threads.  Here they run on one: the GIL
made a multi-threaded build slower (a 100 000-series SOFA build took 0.95 s
on one thread and 1.02 s on two, on a 2-core machine).  Both builders give
bit-identical trees: same shape, same leaf payloads, same directory arrays,
same query answers.  :class:`BuildTimings` records the measured wall time of
each stage and of the whole build (Figure 7).
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass

import numpy as np

from repro.core.errors import IndexError_, InvalidParameterError
from repro.core.series import Dataset
from repro.core.simd import batch_lower_bound, batch_lower_bound_multi
from repro.index.buffers import SummaryBuffer, fill_buffers
from repro.index.node import InnerNode, LeafNode, Node, root_child_word
from repro.transforms.base import SymbolicSummarization

#: Subtree builders: the vectorized frontier splitter (default) and the seed
#: recursive reference implementation (kept for regression benchmarks and
#: bit-identity tests).
BUILDERS = ("vectorized", "recursive")


@dataclass
class BuildTimings:
    """Measured wall time of each construction phase, in seconds."""

    learn_time: float = 0.0
    transform_time: float = 0.0
    tree_time: float = 0.0
    #: The whole build, including the buffer grouping and the leaf directory
    #: assembly that fall between the phases.
    wall_time: float = 0.0

    @property
    def total_time(self) -> float:
        return self.learn_time + self.transform_time + self.tree_time


class TreeIndex:
    """A GEMINI tree index over symbolic words (the shared MESSI/SOFA core).

    Parameters
    ----------
    summarization:
        An *unfitted* symbolic summarization (``SAX`` for MESSI, ``SFA`` for
        SOFA).  ``build`` fits it on the indexed dataset.
    leaf_size:
        Maximum number of series per leaf before the leaf splits (20 000 in the
        paper; scaled-down datasets use smaller values).  A full node splits
        on the dimension whose next bit divides it most evenly (the
        iSAX2.0/MESSI heuristic).
    transform_chunks:
        Number of chunks the summarization stage is divided into (bounds the
        memory of one transform call; recorded in snapshot manifests).
    builder:
        ``"vectorized"`` (default) grows subtrees frontier-at-a-time with
        vectorized splitting; ``"recursive"`` is the seed per-node reference
        builder.  Both produce bit-identical trees.
    """

    def __init__(self, summarization: SymbolicSummarization, leaf_size: int = 100,
                 transform_chunks: int = 36,
                 builder: str = "vectorized") -> None:
        try:
            leaf_size = operator.index(leaf_size)
        except TypeError:
            raise InvalidParameterError(
                f"leaf_size must be an integer, got {leaf_size!r}"
            ) from None
        if leaf_size < 1:
            raise InvalidParameterError(f"leaf_size must be >= 1, got {leaf_size}")
        if transform_chunks < 1:
            raise InvalidParameterError("transform_chunks must be >= 1")
        if builder not in BUILDERS:
            raise InvalidParameterError(
                f"builder must be one of {BUILDERS}, got '{builder}'"
            )
        self.summarization = summarization
        self.leaf_size = leaf_size
        self.transform_chunks = transform_chunks
        self.builder = builder

        self.dataset: Dataset | None = None
        self.root_children: dict[tuple[int, ...], Node] = {}
        self.timings: BuildTimings = BuildTimings()
        self._words: np.ndarray | None = None
        # Leaf directory: every leaf plus its node-level quantization intervals
        # stacked into two arrays so query-time leaf pruning is one batched
        # lower-bound kernel call (see ``leaf_lower_bounds``).
        self.leaf_nodes: list[LeafNode] = []
        self._leaf_lower: np.ndarray | None = None
        self._leaf_upper: np.ndarray | None = None
        self._leaf_positions: dict[int, int] = {}
        self._leaf_offsets: np.ndarray | None = None
        self._leaf_sizes: np.ndarray | None = None
        self._series_lower: np.ndarray | None = None
        self._series_upper: np.ndarray | None = None
        self._series_rows: np.ndarray | None = None
        self._squared_norms: np.ndarray | None = None

    # ------------------------------------------------------------ building

    @property
    def is_built(self) -> bool:
        return self.dataset is not None and bool(self.root_children)

    @property
    def num_series(self) -> int:
        if self.dataset is None:
            raise IndexError_("index has not been built yet")
        return self.dataset.num_series

    def build(self, dataset: Dataset) -> "TreeIndex":
        """Fit the summarization, summarize all series and grow the tree."""
        if not isinstance(dataset, Dataset):
            dataset = Dataset(np.asarray(dataset, dtype=np.float64))
        self.dataset = dataset
        self._squared_norms = None
        timings = BuildTimings()
        wall_start = time.perf_counter()

        start = time.perf_counter()
        self.summarization.fit(dataset)
        timings.learn_time = time.perf_counter() - start

        words = self._summarize_in_chunks(dataset, timings)
        self._words = words

        buffers = fill_buffers(words, self.summarization.bits)
        build_subtree = (self._build_subtree if self.builder == "recursive"
                         else self._build_subtree_bulk)

        # One subtree per root child, in buffer order, so the root-children
        # dict (and every downstream array) is deterministic.
        start = time.perf_counter()
        self.root_children = {buffer.key: build_subtree(buffer)
                              for buffer in buffers}
        timings.tree_time = time.perf_counter() - start
        self._build_leaf_directory()
        timings.wall_time = time.perf_counter() - wall_start
        self.timings = timings
        return self

    def clone_unbuilt(self) -> "TreeIndex":
        """A fresh, unbuilt tree with this tree's configuration.

        The summarization is cloned *unfitted*
        (:meth:`~repro.transforms.base.SymbolicSummarization.clone_unfitted`),
        so building the clone re-learns it on whatever dataset it is given —
        exactly what a scratch build would do.  Compaction of a dynamic index
        uses this to merge its delta through the build pipeline while
        staying bit-identical to a fresh build on the surviving series.
        """
        return TreeIndex(self.summarization.clone_unfitted(),
                         leaf_size=self.leaf_size,
                         transform_chunks=self.transform_chunks,
                         builder=self.builder)

    def _build_leaf_directory(self) -> None:
        """Stack every leaf's node-level intervals for batched query pruning.

        The directory also keeps a flat, per-series view (intervals and dataset
        row of every indexed series, concatenated across leaves) that the
        batched engine gathers its (query, leaf) work sets from.
        """
        self.leaf_nodes = self.leaves()
        self._leaf_positions = {id(leaf): position
                                for position, leaf in enumerate(self.leaf_nodes)}
        self._leaf_sizes = np.array([leaf.size for leaf in self.leaf_nodes],
                                    dtype=np.int64)
        self._leaf_offsets = np.concatenate(
            [[0], np.cumsum(self._leaf_sizes[:-1])]).astype(np.int64)
        self._series_rows = np.concatenate([leaf.indices for leaf in self.leaf_nodes])
        if self.builder == "recursive":
            # Seed reference path: one node-level intervals call per leaf,
            # per-series intervals already computed per leaf by `_make_leaf`.
            lower_rows = []
            upper_rows = []
            for leaf in self.leaf_nodes:
                lower, upper = self.summarization.bins.intervals(leaf.symbols,
                                                                 leaf.bits)
                lower_rows.append(lower)
                upper_rows.append(upper)
            self._leaf_lower = np.vstack(lower_rows)
            self._leaf_upper = np.vstack(upper_rows)
            self._series_lower = np.vstack([leaf.lower for leaf in self.leaf_nodes])
            self._series_upper = np.vstack([leaf.upper for leaf in self.leaf_nodes])
            return
        # Vectorized path.  Every leaf sits at its own refinement, so the
        # node-level intervals of all leaves come from one batched call over
        # the stacked (symbols, bits) matrices — bit-identical to the
        # per-leaf loop of the reference path.
        node_symbols = np.vstack([leaf.symbols for leaf in self.leaf_nodes])
        node_bits = np.vstack([leaf.bits for leaf in self.leaf_nodes])
        self._leaf_lower, self._leaf_upper = (
            self.summarization.bins.intervals_batch(node_symbols, node_bits))
        # The per-series intervals of all leaves (deferred by
        # `_fill_leaf_payloads`) likewise come from one full-resolution
        # intervals call over the leaf-ordered words — a single gather from
        # the word matrix rather than one vstack copy per leaf; each leaf
        # then points at its contiguous slice, the exact layout a loaded
        # snapshot restores.
        stacked_words = self._words[self._series_rows]
        self._series_lower, self._series_upper = (
            self.summarization.bins.intervals(stacked_words))
        offsets = self._leaf_offsets.tolist()
        sizes = self._leaf_sizes.tolist()
        for leaf, offset, size in zip(self.leaf_nodes, offsets, sizes):
            leaf.lower = self._series_lower[offset:offset + size]
            leaf.upper = self._series_upper[offset:offset + size]

    @property
    def average_leaf_size(self) -> float:
        """Mean number of series per leaf (used to pick the refinement strategy)."""
        if not self.leaf_nodes:
            return 0.0
        return self.num_series / len(self.leaf_nodes)

    @property
    def squared_norms(self) -> np.ndarray:
        """``‖x‖²`` of every indexed series for the certified flat path,
        computed on first use (never persisted)."""
        if self._squared_norms is None:
            values = self.dataset.values
            self._squared_norms = np.einsum("ij,ij->i", values, values)
        return self._squared_norms

    def all_series_lower_bounds(self, query_summary: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Squared lower bounds between query summaries and every indexed series.

        Returns ``(bounds, rows)`` where ``rows[i]`` is the dataset row the
        ``i``-th bound belongs to.  A 1-D ``query_summary`` yields 1-D bounds;
        a ``(Q, l)`` summary matrix yields a ``(Q, num_series)`` bound matrix
        from one multi-query kernel call.
        """
        if self._series_lower is None:
            raise IndexError_("index has not been built yet")
        summaries = np.asarray(query_summary, dtype=np.float64)
        if summaries.ndim == 2:
            bounds = batch_lower_bound_multi(summaries, self._series_lower,
                                             self._series_upper,
                                             self.summarization.weights)
        else:
            bounds = batch_lower_bound(summaries, self._series_lower, self._series_upper,
                                       self.summarization.weights)
        return bounds, self._series_rows

    def _summarize_in_chunks(self, dataset: Dataset,
                             timings: BuildTimings) -> np.ndarray:
        """Stage-1 summarization, one transform call per chunk.

        The blocks are stacked in chunk order.  The stage's wall time is
        recorded as ``timings.transform_time``.
        """
        chunks = [chunk for chunk in
                  np.array_split(np.arange(dataset.num_series),
                                 min(self.transform_chunks, dataset.num_series))
                  if chunk.size]
        values = dataset.values

        start = time.perf_counter()
        blocks = [self.summarization.words(values[chunk]) for chunk in chunks]
        timings.transform_time = time.perf_counter() - start
        return np.vstack(blocks)

    def _build_subtree(self, buffer: SummaryBuffer) -> Node:
        """Build one root subtree recursively (the seed reference builder)."""
        bits_per_symbol = self.summarization.bits
        root_symbols = np.asarray(buffer.key, dtype=np.int64)
        root_bits = np.ones(len(buffer.key), dtype=np.int64)
        return self._grow(buffer.indices, buffer.words, root_symbols, root_bits,
                          bits_per_symbol)

    def _build_subtree_bulk(self, buffer: SummaryBuffer) -> Node:
        """Build one root subtree iteratively, splitting whole frontiers per pass.

        The recursive builder pays Python for every node: a `_choose_split`
        loop over dimensions plus two boolean-mask copies of the node's rows.
        This builder keeps a single permutation over the buffer's rows,
        grouped by frontier node, and handles every node of a tree level
        together — next-bit extraction, split scoring and the stable
        left/right partition are each one vectorized operation over all rows
        of the frontier (the argsort-plus-boundaries grouping of
        :func:`~repro.index.buffers.fill_buffers`), so per-pass Python work is
        O(nodes), not O(rows x dimensions).  The produced tree, leaves and
        payload arrays are bit-identical to the recursive builder's.
        """
        max_bits = self.summarization.bits
        words = buffer.words
        num_rows, dims = words.shape

        if num_rows <= self.leaf_size:
            # Whole-buffer leaf (the common case on degenerate collections
            # whose root fan-out shatters the data): skip the frontier
            # machinery entirely.
            leaf = LeafNode(symbols=np.asarray(buffer.key, dtype=np.int64),
                            bits=np.ones(dims, dtype=np.int64))
            self._fill_leaf_payloads(buffer, [leaf], [np.arange(num_rows)])
            return leaf

        dim_range = np.arange(dims)
        unsplittable = np.iinfo(np.int64).max

        # Rows of all active (frontier) nodes, grouped into contiguous
        # segments; `starts`/`sizes` delimit the segment of each node.
        order = np.arange(num_rows)
        starts = np.zeros(1, dtype=np.int64)
        sizes = np.array([num_rows], dtype=np.int64)
        symbols_matrix = np.asarray(buffer.key, dtype=np.int64)[None, :].copy()
        bits_matrix = np.ones((1, dims), dtype=np.int64)
        # (parent InnerNode or None for the subtree root, side) per node.
        links: list[tuple[InnerNode | None, int]] = [(None, 0)]

        root: Node | None = None
        pending_leaves: list[LeafNode] = []
        leaf_segments: list[np.ndarray] = []

        while starts.size:
            num_nodes = starts.shape[0]
            segment_of_row = np.repeat(np.arange(num_nodes), sizes)

            # Next (not yet used) bit of every row in every dimension;
            # exhausted dimensions produce a garbage bit that `valid` masks.
            shifts = np.maximum(max_bits - bits_matrix - 1, 0)
            next_bits = (words[order] >> shifts[segment_of_row]) & 1
            ones = np.add.reduceat(next_bits, starts, axis=0)

            valid = ((bits_matrix < max_bits)
                     & (ones > 0) & (ones < sizes[:, None]))
            # Most balanced split; ties prefer coarser, then earlier
            # dimensions — the exact `_choose_split` total order.
            score = ((np.abs(sizes[:, None] - 2 * ones) * (max_bits + 1)
                      + bits_matrix) * dims + dim_range[None, :])
            score = np.where(valid, score, unsplittable)
            split_dim = np.argmin(score, axis=1)
            can_split = score[np.arange(num_nodes), split_dim] != unsplittable
            is_leaf = ((sizes <= self.leaf_size)
                       | np.all(bits_matrix >= max_bits, axis=1)
                       | ~can_split)

            # ---- materialize this pass's nodes and link them to parents.
            nodes: list[Node] = []
            for position in range(num_nodes):
                if is_leaf[position]:
                    node = LeafNode(symbols=symbols_matrix[position],
                                    bits=bits_matrix[position])
                    pending_leaves.append(node)
                    leaf_segments.append(
                        order[starts[position]:starts[position] + sizes[position]])
                else:
                    node = InnerNode(symbols=symbols_matrix[position],
                                     bits=bits_matrix[position],
                                     split_dimension=int(split_dim[position]))
                nodes.append(node)
                parent, side = links[position]
                if parent is None:
                    root = node
                elif side == 0:
                    parent.left = node
                else:
                    parent.right = node

            split_positions = np.flatnonzero(~is_leaf)
            if split_positions.size == 0:
                break

            # ---- stable left/right partition of every splitting node's rows:
            # rows are already grouped by node in original relative order, so
            # one stable sort on (node, appended bit) reproduces the
            # `indices[~mask]` / `indices[mask]` copies of the recursive path.
            keep = ~is_leaf[segment_of_row]
            appended_bit = next_bits[np.arange(order.shape[0]),
                                     split_dim[segment_of_row]]
            kept_rows = order[keep]
            partition = np.argsort(segment_of_row[keep] * 2 + appended_bit[keep],
                                   kind="stable")
            order = kept_rows[partition]

            right_sizes = ones[split_positions, split_dim[split_positions]]
            child_sizes = np.empty(2 * split_positions.size, dtype=np.int64)
            child_sizes[0::2] = sizes[split_positions] - right_sizes
            child_sizes[1::2] = right_sizes
            starts = np.concatenate([[0], np.cumsum(child_sizes[:-1])]).astype(np.int64)
            sizes = child_sizes

            # ---- child words: append a 0/1 bit to the split dimension.
            parent_symbols = symbols_matrix[split_positions]
            split_dims = split_dim[split_positions]
            symbols_matrix = np.repeat(parent_symbols, 2, axis=0)
            bits_matrix = np.repeat(bits_matrix[split_positions], 2, axis=0)
            left_rows = 2 * np.arange(split_positions.size)
            promoted = parent_symbols[np.arange(split_positions.size), split_dims] << 1
            symbols_matrix[left_rows, split_dims] = promoted
            symbols_matrix[left_rows + 1, split_dims] = promoted | 1
            bits_matrix[left_rows, split_dims] += 1
            bits_matrix[left_rows + 1, split_dims] += 1
            links = []
            for position in split_positions:
                inner = nodes[position]
                links.append((inner, 0))
                links.append((inner, 1))

        self._fill_leaf_payloads(buffer, pending_leaves, leaf_segments)
        return root

    def _fill_leaf_payloads(self, buffer: SummaryBuffer,
                            leaves: list[LeafNode],
                            segments: list[np.ndarray]) -> None:
        """Attach row indices and words to a subtree's freshly built leaves.

        The per-series quantization intervals (``leaf.lower`` / ``leaf.upper``
        in `_make_leaf`) are *not* computed here: the vectorized pipeline
        defers them to :meth:`_build_leaf_directory`, which derives the
        intervals of every leaf of every subtree in one batched call.
        """
        if not leaves:
            return
        stacked_rows = np.concatenate(segments)
        stacked_words = buffer.words[stacked_rows]
        stacked_indices = buffer.indices[stacked_rows].astype(np.int64)
        offset = 0
        for leaf, segment in zip(leaves, segments):
            stop = offset + segment.shape[0]
            leaf.indices = stacked_indices[offset:stop]
            leaf.words = stacked_words[offset:stop]
            offset = stop

    def _grow(self, indices: np.ndarray, words: np.ndarray, symbols: np.ndarray,
              bits: np.ndarray, max_bits: int) -> Node:
        if indices.shape[0] <= self.leaf_size or bool(np.all(bits >= max_bits)):
            return self._make_leaf(indices, words, symbols, bits)

        split_dimension, mask = self._choose_split(words, bits, max_bits)
        if split_dimension is None:
            # Every remaining dimension is degenerate (all series share the
            # same next bit everywhere): the node cannot be split further.
            return self._make_leaf(indices, words, symbols, bits)

        left_symbols = symbols.copy()
        right_symbols = symbols.copy()
        left_bits = bits.copy()
        right_bits = bits.copy()
        left_symbols[split_dimension] = (symbols[split_dimension] << 1) | 0
        right_symbols[split_dimension] = (symbols[split_dimension] << 1) | 1
        left_bits[split_dimension] += 1
        right_bits[split_dimension] += 1

        node = InnerNode(symbols=symbols, bits=bits, split_dimension=split_dimension)
        node.left = self._grow(indices[~mask], words[~mask], left_symbols, left_bits, max_bits)
        node.right = self._grow(indices[mask], words[mask], right_symbols, right_bits, max_bits)
        return node

    def _choose_split(self, words: np.ndarray, bits: np.ndarray, max_bits: int
                      ) -> tuple[int | None, np.ndarray | None]:
        """Pick the dimension to split on and return the right-child mask."""
        candidates = np.flatnonzero(bits < max_bits)
        best_dimension = None
        best_mask = None
        best_imbalance = None
        for dimension in candidates:
            mask = self._next_bit(words, bits, dimension, max_bits).astype(bool)
            ones = int(mask.sum())
            if ones == 0 or ones == mask.shape[0]:
                continue
            imbalance = abs(mask.shape[0] - 2 * ones)
            # Prefer balanced splits; among equals prefer coarser dimensions so
            # cardinalities grow evenly across the word (as in iSAX2.0).
            key = (imbalance, int(bits[dimension]))
            if best_imbalance is None or key < best_imbalance:
                best_imbalance = key
                best_dimension = int(dimension)
                best_mask = mask
        return best_dimension, best_mask

    @staticmethod
    def _next_bit(words: np.ndarray, bits: np.ndarray, dimension: int, max_bits: int
                  ) -> np.ndarray:
        """The next (not yet used) bit of every word in ``dimension``."""
        shift = max_bits - int(bits[dimension]) - 1
        return (words[:, dimension] >> shift) & 1

    def _make_leaf(self, indices: np.ndarray, words: np.ndarray, symbols: np.ndarray,
                   bits: np.ndarray) -> LeafNode:
        lower, upper = self.summarization.bins.intervals(words)
        return LeafNode(symbols=symbols, bits=bits, indices=indices.astype(np.int64),
                        words=words, lower=lower, upper=upper)

    # ---------------------------------------------------------- persistence

    def save(self, path) -> "TreeIndex":
        """Write this built index as a versioned snapshot directory.

        See :mod:`repro.index.persistence` for the on-disk layout.  Returns
        ``self`` so saving can be chained after :meth:`build`.
        """
        from repro.index.persistence import save_tree

        save_tree(self, path)
        return self

    @classmethod
    def load(cls, path, mmap: bool = True, verify: str = "lazy") -> "TreeIndex":
        """Load a snapshot back into a fully built tree.

        ``mmap=True`` memory-maps the large payload arrays (values, words,
        quantization intervals) read-only instead of copying them; loaded
        trees answer queries bit-identically to freshly built ones.
        ``verify`` controls checksum verification of the payload arrays
        (``"eager"``, ``"lazy"`` or ``"off"``; see
        :func:`repro.index.persistence.load_tree`).
        """
        from repro.index.persistence import load_tree

        return load_tree(path, mmap=mmap, verify=verify)

    # ----------------------------------------------------------- inspection

    def leaves(self) -> list[LeafNode]:
        """Every leaf of the index."""
        result: list[LeafNode] = []
        for subtree in self.root_children.values():
            result.extend(subtree.iter_leaves())
        return result

    def node_lower_bound(self, query_summary: np.ndarray, node: Node) -> float:
        """Squared lower bound between a query summary and a node's region."""
        return self.summarization.mindist(query_summary, node.symbols, node.bits)

    def leaf_lower_bounds(self, query_summary: np.ndarray) -> np.ndarray:
        """Squared lower bounds between query summaries and every leaf's region.

        One vectorized kernel call over the leaf directory — the query-time
        analogue of MESSI's subtree traversal.  A 1-D summary yields
        one bound per leaf; a ``(Q, l)`` summary matrix yields the full
        ``(Q, num_leaves)`` bound matrix of the batched engine.
        """
        if self._leaf_lower is None:
            raise IndexError_("index has not been built yet")
        summaries = np.asarray(query_summary, dtype=np.float64)
        if summaries.ndim == 2:
            return batch_lower_bound_multi(summaries, self._leaf_lower, self._leaf_upper,
                                           self.summarization.weights)
        return batch_lower_bound(summaries, self._leaf_lower, self._leaf_upper,
                                 self.summarization.weights)

    def series_lower_bounds(self, query_summary: np.ndarray, leaf: LeafNode) -> np.ndarray:
        """Squared lower bounds between query summaries and every series of a leaf."""
        summaries = np.asarray(query_summary, dtype=np.float64)
        if summaries.ndim == 2:
            return batch_lower_bound_multi(summaries, leaf.lower, leaf.upper,
                                           self.summarization.weights)
        return batch_lower_bound(summaries, leaf.lower, leaf.upper,
                                 self.summarization.weights)

    def leaf_position(self, leaf: LeafNode) -> int:
        """Position of ``leaf`` in the leaf directory (``leaf_nodes`` order)."""
        try:
            return self._leaf_positions[id(leaf)]
        except KeyError:
            raise IndexError_("leaf does not belong to this index") from None

    def series_directory(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                        np.ndarray, np.ndarray]:
        """The flat per-series directory backing batched refinement.

        Returns ``(lower, upper, rows, leaf_offsets, leaf_sizes)``: the
        per-series quantization intervals and dataset rows of every indexed
        series concatenated in leaf order, plus each leaf's starting offset
        and size in those arrays.  The batched engine gathers arbitrary
        (query, leaf) work sets from these arrays instead of re-stacking leaf
        contents per refinement call.
        """
        if self._series_lower is None:
            raise IndexError_("index has not been built yet")
        return (self._series_lower, self._series_upper, self._series_rows,
                self._leaf_offsets, self._leaf_sizes)

    def approximate_leaf(self, query_word: np.ndarray,
                         query_summary: np.ndarray) -> LeafNode | None:
        """The leaf whose region contains the query word (approximate descent).

        Descends from the root child matching the query's 1-bit prefix; when no
        such child exists the leaf with the smallest lower bound (from the leaf
        directory) is returned instead.  This is step 1 of exact search and the
        seed step of the batched engine.
        """
        bits = self.summarization.bits
        key = root_child_word(query_word >> (bits - 1), None)
        node = self.root_children.get(key)
        if node is None:
            if not self.leaf_nodes:
                return None
            bounds = self.leaf_lower_bounds(query_summary)
            return self.leaf_nodes[int(np.argmin(bounds))]
        while not node.is_leaf():
            dimension = node.split_dimension
            used_bits = int(node.bits[dimension]) + 1
            bit = (int(query_word[dimension]) >> (bits - used_bits)) & 1
            child = node.right if bit else node.left
            if child is None:
                child = node.left or node.right
            node = child
        return node

    def __len__(self) -> int:
        return self.num_series
