"""Core substrate: series containers, distances, SIMD-style kernels, metrics."""

from repro.core.distance import (
    euclidean,
    pairwise_squared_euclidean,
    squared_euclidean,
    squared_euclidean_batch,
    squared_euclidean_early_abandon,
)
from repro.core.errors import (
    CorruptionError,
    DatasetError,
    DrainerError,
    InvalidParameterError,
    IndexError_,
    NotFittedError,
    OverloadedError,
    PartialResultError,
    ReadOnlyIndexError,
    ReproError,
    SearchError,
    ShardError,
    ShutdownError,
    UnknownIndexError,
    ValidationError,
    WalError,
)
from repro.core.lower_bounds import (
    check_lower_bound_property,
    tightness_of_lower_bound,
)
from repro.core.normalization import is_znormalized, znormalize, znormalize_batch
from repro.core.series import Dataset, GrowableArray
from repro.core.simd import (
    batch_lower_bound,
    chunked_masked_lower_bound,
    scalar_lower_bound,
    vectorized_lower_bound,
)

__all__ = [
    "CorruptionError",
    "Dataset",
    "DatasetError",
    "DrainerError",
    "GrowableArray",
    "IndexError_",
    "InvalidParameterError",
    "NotFittedError",
    "OverloadedError",
    "PartialResultError",
    "ReadOnlyIndexError",
    "ReproError",
    "SearchError",
    "ShardError",
    "ShutdownError",
    "UnknownIndexError",
    "ValidationError",
    "WalError",
    "batch_lower_bound",
    "check_lower_bound_property",
    "chunked_masked_lower_bound",
    "euclidean",
    "is_znormalized",
    "pairwise_squared_euclidean",
    "scalar_lower_bound",
    "squared_euclidean",
    "squared_euclidean_batch",
    "squared_euclidean_early_abandon",
    "tightness_of_lower_bound",
    "vectorized_lower_bound",
    "znormalize",
    "znormalize_batch",
]
