"""Process-isolated sharded serving: the coordinator side.

:class:`ClusterIndex` is a :class:`~repro.index.sharded.ShardedIndex` whose
shard engines live in *separate supervised processes* instead of in-process
threads.  It adds no query-path code: it launches the supervisor and gives
every shard record a :class:`~repro.cluster.client.RemoteShardClient`, and
the one attempt path of :class:`~repro.index.sharded.ShardedIndex` then asks
the worker for the same :func:`~repro.index.sharded.shard_answer` tuple it
would compute in process.  Scatter orchestration, retry/backoff, the health
board, quarantine, probes, the canonical candidate-union merge,
degraded-answer policy, metrics and tracing are that class's, which is the
point: a worker process dying under ``kill -9`` surfaces as an ordinary
transient shard failure and takes exactly the code path a wedged in-process
engine would.

Identity contract (now across a process boundary):

* **Healthy cluster** — answers are bit-identical to the in-process
  :class:`~repro.index.sharded.ShardedIndex` over the same snapshot, which
  is itself bit-identical to one unsharded index over the same rows.  The
  merge recomputes candidate distances from raw values on the coordinator;
  values travel as JSON numbers whose ``repr`` round-trips float64 exactly,
  so the recomputation sees the same bits it would in process.
* **Degraded cluster** — with ``degraded="allow"``, answers during a worker
  outage are bit-identical to an index over the surviving shards' rows,
  flagged ``partial=True`` with ``coverage < 1``.
* The cross-shard best-so-far is forwarded to workers as a *frozen*
  threshold snapshot per attempt.  A frozen bound is merely looser than the
  live heap, so it can only under-prune — admissible by the same argument
  as the in-process parent heap.

Recovery loop: worker dies → connection failures are transients → the board
quarantines the shard → the supervisor restarts the process with backoff →
the probe loop RPC-probes the worker → readmission resets the supervisor's
breaker and backoff ladder (:meth:`RemoteShardClient.probe
<repro.cluster.client.RemoteShardClient.probe>`), and coverage returns to 1.
The cluster is read-only: shard-local writes would desync the coordinator's
global id maps, so mutations must go through a writable in-process index and
a republished snapshot.
"""

from __future__ import annotations

from repro.core.errors import ReadOnlyIndexError
from repro.index.sharded import ShardedIndex
from repro.index.shard_health import SupervisorPolicy

from repro.cluster.client import RemoteShardClient
from repro.cluster.supervisor import ShardSupervisor


class ClusterIndex(ShardedIndex):
    """Scatter-gather over supervised per-shard worker processes.

    Construct with :meth:`launch`, which reads the sharded manifest, spawns
    one worker per shard under a :class:`~repro.cluster.supervisor
    .ShardSupervisor`, waits for readiness, and returns a read-only index
    whose ``knn`` / ``knn_batch`` match the in-process
    :class:`~repro.index.sharded.ShardedIndex` bit for bit.
    """

    def __init__(self, path, shards, *,
                 policy: "SupervisorPolicy | None" = None,
                 host: str = "127.0.0.1", **options) -> None:
        super().__init__(path, shards, writable=False, **options)
        self.supervisor = ShardSupervisor(
            self.path, [shard.path for shard in shards], policy=policy,
            host=host, mmap=self._mmap, verify=self._verify,
            on_crash_loop=self._on_crash_loop)
        for shard in shards:
            shard.remote = RemoteShardClient(shard.index, self.supervisor)

    # ---------------------------------------------------------------- launch

    @classmethod
    def launch(cls, path, *, degraded: str = "allow", retry=None, health=None,
               policy: "SupervisorPolicy | None" = None,
               host: str = "127.0.0.1", mmap: bool = True,
               verify: str = "lazy", gather_grace_s: float = 0.25,
               start_timeout_s: float = 30.0) -> "ClusterIndex":
        """Spawn one supervised worker per shard and attach to the cluster.

        Blocks until every worker answers ``/readyz`` (or raises a typed
        error after ``start_timeout_s``).  ``policy`` tunes supervision
        (restart backoff, heartbeats, the crash-loop breaker); ``retry`` /
        ``health`` tune the answer-path fault handling.
        """
        cluster = cls._attach(path, policy=policy, host=host,
                              degraded=degraded, retry=retry, health=health,
                              verify=verify, mmap=mmap,
                              gather_grace_s=gather_grace_s)
        supervisor = cluster.supervisor.start()
        try:
            supervisor.wait_ready(start_timeout_s)
        except BaseException:
            supervisor.stop()
            raise
        return cluster

    def _on_crash_loop(self, shard: int, error: BaseException) -> None:
        """Breaker tripped: quarantine now so queries skip the thrashing
        shard instead of paying connection-refused retries each scatter."""
        if self._closed:
            return
        self._board.record_persistent(shard, error)
        self._note_quarantine(shard)

    # ------------------------------------------------------------ lifecycle

    def save(self) -> "ClusterIndex":
        raise ReadOnlyIndexError(
            "a cluster index is a read-only serving view; snapshots are "
            "written by the in-process index that built them")

    def close(self) -> None:
        """Stop the probe loop and scatter pool, then the worker fleet."""
        super().close()
        self.supervisor.stop()
