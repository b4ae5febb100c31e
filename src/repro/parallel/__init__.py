"""Threading helpers: a background task and a micro-batching request queue."""

from repro.parallel.batching import MicroBatchQueue
from repro.parallel.pool import (
    BackgroundTask,
    chunk_indices,
)

__all__ = [
    "BackgroundTask",
    "MicroBatchQueue",
    "chunk_indices",
]
