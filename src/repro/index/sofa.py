"""SOFA: the paper's contribution — a MESSI-style tree over SFA words.

``SofaIndex`` plugs the learned Symbolic Fourier Approximation into the shared
:class:`~repro.index.tree.TreeIndex`.  Compared to MESSI it differs in

* the summarization (variance-selected Fourier components, learned equi-width
  quantization bins instead of fixed Gaussian breakpoints), and
* the per-dimension weights of the lower bound (the Parseval factor 2 instead
  of ``n / l``),

which is exactly the swap the paper performs (Section IV-G).
"""

from __future__ import annotations

from repro.index.facade import TreeFacade
from repro.transforms.sfa import SFA


class SofaIndex(TreeFacade):
    """In-memory exact similarity-search index over SFA words.

    Parameters
    ----------
    word_length:
        Number of retained Fourier components (16 in the paper: 8 complex
        coefficients).
    alphabet_size:
        Symbol cardinality (256 in the paper).
    leaf_size:
        Maximum series per leaf before splitting.
    binning:
        ``"equi-width"`` (SOFA's default) or ``"equi-depth"``.
    variance_selection:
        Select Fourier components by highest variance (the paper's strategy)
        instead of taking the first components.
    sample_fraction:
        Fraction of the data used by MCB to learn bins (1 % in the paper).
    num_workers:
        Worker threads used by both construction stages (``None`` = the
        ``REPRO_NUM_WORKERS`` process default); the built index is
        bit-identical for every worker count.
    builder:
        Subtree builder, see :class:`~repro.index.tree.TreeIndex`
        (``"vectorized"`` default, ``"recursive"`` reference).
    """

    summarization_name = "SFA"
    index_type = "sofa"

    def __init__(self, word_length: int = 16, alphabet_size: int = 256,
                 leaf_size: int = 100, binning: str = "equi-width",
                 variance_selection: bool = True, sample_fraction: float = 0.01,
                 num_candidate_coefficients: int | None = 16,
                 split_policy: str = "balanced", random_state: int = 0,
                 num_workers: "int | None" = None,
                 builder: str = "vectorized") -> None:
        super().__init__(
            SFA(
                word_length=word_length,
                alphabet_size=alphabet_size,
                binning=binning,
                variance_selection=variance_selection,
                sample_fraction=sample_fraction,
                num_candidate_coefficients=num_candidate_coefficients,
                random_state=random_state,
            ),
            leaf_size=leaf_size, split_policy=split_policy,
            num_workers=num_workers, builder=builder)

    def mean_selected_coefficient_index(self) -> float:
        """Mean index of the selected Fourier coefficients (Figure 13 x-axis)."""
        return self.summarization.mean_selected_coefficient_index()
