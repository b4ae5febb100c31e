"""MESSI: the state-of-the-art iSAX-based in-memory index (the paper's baseline).

``MessiIndex`` is the shared :class:`~repro.index.tree.TreeIndex` instantiated
with the SAX/iSAX summarization, exposing a small convenience API (``build``,
``knn``, ``nearest_neighbor``) used by the benchmarks and examples.
"""

from __future__ import annotations

from repro.index.facade import TreeFacade
from repro.transforms.sax import SAX


class MessiIndex(TreeFacade):
    """In-memory exact similarity-search index over iSAX words.

    Parameters
    ----------
    word_length:
        Number of PAA segments per word (16 in the paper).
    alphabet_size:
        Symbol cardinality (256 in the paper).
    leaf_size:
        Maximum series per leaf before splitting.
    builder:
        Subtree builder, see :class:`~repro.index.tree.TreeIndex`
        (``"vectorized"`` default, ``"recursive"`` reference).
    """

    summarization_name = "SAX"
    index_type = "messi"

    def __init__(self, word_length: int = 16, alphabet_size: int = 256,
                 leaf_size: int = 100, builder: str = "vectorized") -> None:
        super().__init__(
            SAX(word_length=word_length, alphabet_size=alphabet_size),
            leaf_size=leaf_size, builder=builder)
