"""Summarization techniques: PAA, DFT, SAX/iSAX and SFA."""

from repro.transforms.base import Summarization, SymbolicSummarization
from repro.transforms.dft import DFT, component_weights, rfft_components
from repro.transforms.paa import PAA, paa_transform, paa_transform_batch
from repro.transforms.quantization import (
    BINNING_SCHEMES,
    HierarchicalBins,
    equi_depth_breakpoints,
    equi_width_breakpoints,
    gaussian_breakpoints,
)
from repro.transforms.sax import SAX
from repro.transforms.sfa import SFA

__all__ = [
    "BINNING_SCHEMES",
    "DFT",
    "HierarchicalBins",
    "PAA",
    "SAX",
    "SFA",
    "Summarization",
    "SymbolicSummarization",
    "component_weights",
    "equi_depth_breakpoints",
    "equi_width_breakpoints",
    "gaussian_breakpoints",
    "paa_transform",
    "paa_transform_batch",
    "rfft_components",
]
