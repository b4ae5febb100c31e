"""Parallel substrate: a real thread pool and a micro-batching request queue."""

from repro.parallel.batching import MicroBatchQueue
from repro.parallel.pool import (
    BackgroundTask,
    WorkerPool,
    chunk_indices,
    default_num_workers,
    resolve_num_workers,
)

__all__ = [
    "BackgroundTask",
    "MicroBatchQueue",
    "WorkerPool",
    "chunk_indices",
    "default_num_workers",
    "resolve_num_workers",
]
