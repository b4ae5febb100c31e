"""Process-isolated shard serving: supervisor, workers, and coordinator.

The in-process :class:`~repro.index.sharded.ShardedIndex` isolates shard
*failures*; this package isolates shard *processes*.  Each shard runs in
its own supervised child (``python -m repro.cluster.worker``) serving its
snapshot over localhost RPC, so a segfault, an OOM kill, or a ``kill -9``
takes down one shard's address space and nothing else — the coordinator
answers degraded (or retries) through the exact fault paths already pinned
for in-process shard failures, and the supervisor restarts the worker with
deterministic capped-exponential backoff, a crash-loop breaker, and
heartbeat-based hang detection.

* :class:`ClusterIndex` — the coordinator: a ``ShardedIndex`` whose shards
  carry RPC clients; same attempt path, bit-identical answers.
* :class:`RemoteShardClient` — per-shard HTTP client with the in-process
  failure taxonomy (transport → transient, ``CorruptionError`` payloads →
  persistent).
* :class:`ShardSupervisor` — spawn/heartbeat/restart/breaker state machine;
  policy knobs live on :class:`~repro.index.shard_health.SupervisorPolicy`.
"""

from repro.cluster.client import RemoteShardClient
from repro.cluster.cluster_index import ClusterIndex
from repro.cluster.supervisor import ShardSupervisor
from repro.index.shard_health import CrashLoopBreaker, SupervisorPolicy

__all__ = [
    "ClusterIndex",
    "CrashLoopBreaker",
    "RemoteShardClient",
    "ShardSupervisor",
    "SupervisorPolicy",
]
