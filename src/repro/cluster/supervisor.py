"""Process supervision for shard workers: spawn, heartbeat, restart, trip.

:class:`ShardSupervisor` owns one child process per shard.  Its monitor
thread runs a single state machine per worker:

* **spawn** — ``python -m repro.cluster.worker`` with the shard's snapshot
  directory; the worker binds an ephemeral port and publishes
  ``{pid, host, port}`` to an endpoint file (written atomically), which the
  supervisor polls and only trusts when the recorded pid matches the live
  child — a stale file from a previous incarnation is never believed.
* **heartbeat** — while the child runs, ``GET /readyz`` every
  ``heartbeat_interval_s``.  Transport failures count as misses;
  ``heartbeat_misses`` consecutive misses declare the worker *hung* and it
  is SIGKILLed — from there the crash path below takes over, so a hang and
  a crash converge on the same recovery.
* **crash** — a nonzero (or signal) exit is a crash: the restart is
  scheduled after :meth:`SupervisorPolicy.restart_delay_s` (deterministic
  capped-exponential backoff) and the crash feeds the shard's
  :class:`~repro.index.shard_health.CrashLoopBreaker`.  Exit 0 is a
  deliberate stop (the worker drains on SIGTERM and exits 0), restarted
  without charging the breaker or the ladder.
* **crash loop** — the breaker tripping fires ``on_crash_loop`` (the
  cluster index quarantines the shard on its health board) and restarts
  switch to half-open pacing: one attempt per ``cooloff_s`` until a probe
  readmits the shard, which resets both the breaker and the backoff ladder
  via :meth:`note_recovered`.

The supervisor never touches answer payloads — it only keeps processes
alive and publishes endpoints; all answer-path failure handling stays in the
scatter-gather layer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

from repro.core.errors import IndexError_, ShardError
from repro.index.shard_health import SupervisorPolicy
from repro.obs.metrics import get_registry

_REGISTRY = get_registry()
_SUPERVISOR_RESTARTS = _REGISTRY.counter(
    "repro_supervisor_restarts_total",
    "Shard worker processes respawned by the supervisor.",
    labelnames=("shard",))
_SUPERVISOR_EXITS = _REGISTRY.counter(
    "repro_supervisor_worker_exits_total",
    "Shard worker exits observed, by kind (clean = exit 0, crash = "
    "nonzero or signal, hung = killed after missed heartbeats).",
    labelnames=("shard", "kind"))
_SUPERVISOR_TRIPS = _REGISTRY.counter(
    "repro_supervisor_crash_loop_trips_total",
    "Crash-loop breaker trips (rapid repeated crashes of one shard).",
    labelnames=("shard",))
_SUPERVISOR_HEARTBEAT_SECONDS = _REGISTRY.histogram(
    "repro_supervisor_heartbeat_seconds",
    "Latency of successful worker heartbeat probes.",
    labelnames=("shard",))
_SUPERVISOR_MONITOR_ERRORS = _REGISTRY.counter(
    "repro_supervisor_monitor_errors_total",
    "Errors the monitor loop caught and survived (e.g. a failed respawn).",
    labelnames=("shard",))


class _Worker:
    """Mutable supervision record of one shard's child process."""

    __slots__ = ("shard", "snapshot_dir", "endpoint_file", "process",
                 "endpoint", "restart_count", "restart_at", "breaker",
                 "misses", "next_heartbeat", "spawned_once")

    def __init__(self, shard: int, snapshot_dir: Path,
                 endpoint_file: Path, breaker) -> None:
        self.shard = shard
        self.snapshot_dir = snapshot_dir
        self.endpoint_file = endpoint_file
        self.process: "subprocess.Popen | None" = None
        self.endpoint: "tuple[str, int] | None" = None
        self.restart_count = 0
        self.restart_at: "float | None" = None
        self.breaker = breaker
        self.misses = 0
        self.next_heartbeat = 0.0
        self.spawned_once = False


class ShardSupervisor:
    """Keep one worker process per shard alive (see the module docstring).

    ``on_crash_loop(shard, error)`` is called once per breaker trip — the
    cluster index uses it to quarantine the shard on its health board so
    queries skip it outright instead of paying connection-refused retries
    while the shard thrashes.
    """

    def __init__(self, path, shard_dirs: "list[Path]", *,
                 policy: "SupervisorPolicy | None" = None,
                 host: str = "127.0.0.1", index_name: str = "shard",
                 mmap: bool = True, verify: str = "lazy", max_k: int = 4096,
                 on_crash_loop=None) -> None:
        self.path = Path(path)
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.host = host
        self.index_name = index_name
        self._mmap = bool(mmap)
        self._verify = verify
        self._max_k = int(max_k)
        self._on_crash_loop = on_crash_loop
        self._endpoint_dir = self.path / ".workers"
        self._lock = threading.RLock()
        self._workers = [
            _Worker(index, Path(directory),
                    self._endpoint_dir / f"shard-{index:03d}.endpoint.json",
                    self._new_breaker())
            for index, directory in enumerate(shard_dirs)
        ]
        self._monitor: "threading.Thread | None" = None
        self._stop_event = threading.Event()
        self._stopping = False

    def _new_breaker(self):
        from repro.index.shard_health import CrashLoopBreaker

        return CrashLoopBreaker(self.policy.crash_loop_threshold,
                                self.policy.crash_loop_window_s)

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "ShardSupervisor":
        """Spawn every worker and start the monitor thread (idempotent)."""
        os.makedirs(self._endpoint_dir, exist_ok=True)
        with self._lock:
            for worker in self._workers:
                if worker.process is None:
                    self._spawn(worker)
            if self._monitor is None or not self._monitor.is_alive():
                self._stop_event.clear()
                self._stopping = False
                self._monitor = threading.Thread(
                    target=self._monitor_loop, name="repro-cluster-supervisor",
                    daemon=True)
                self._monitor.start()
        return self

    def stop(self, drain_timeout_s: float = 5.0) -> None:
        """SIGTERM every worker (graceful drain), SIGKILL stragglers."""
        with self._lock:
            self._stopping = True
        self._stop_event.set()
        monitor = self._monitor
        if monitor is not None and monitor.is_alive():
            monitor.join(timeout=drain_timeout_s)
        with self._lock:
            processes = [worker.process for worker in self._workers
                         if worker.process is not None]
        for process in processes:
            try:
                process.terminate()
            except OSError:
                pass
        deadline = time.monotonic() + drain_timeout_s
        for process in processes:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)
        with self._lock:
            for worker in self._workers:
                worker.process = None
                worker.endpoint = None

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------- spawning

    def _spawn(self, worker: _Worker) -> None:
        try:
            worker.endpoint_file.unlink()
        except OSError:
            pass
        worker.endpoint = None
        worker.misses = 0
        worker.restart_at = None
        argv = [
            sys.executable, "-m", "repro.cluster.worker",
            "--snapshot-dir", str(worker.snapshot_dir),
            "--endpoint-file", str(worker.endpoint_file),
            "--shard", str(worker.shard),
            "--host", self.host,
            "--index-name", self.index_name,
            "--verify", self._verify,
            "--max-k", str(self._max_k),
        ]
        if not self._mmap:
            argv.append("--no-mmap")
        import repro

        src_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        try:
            worker.process = subprocess.Popen(
                argv, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
        except BaseException:
            # Re-arm the restart, or a worker with neither a process nor a
            # restart time would never be respawned.
            worker.restart_at = time.monotonic() + self.policy.restart_delay_s(
                worker.restart_count, worker.shard)
            raise
        if worker.spawned_once:
            _SUPERVISOR_RESTARTS.labels(shard=str(worker.shard)).inc()
        worker.spawned_once = True

    # ------------------------------------------------------------ the loop

    def _monitor_loop(self) -> None:
        while not self._stop_event.wait(self.policy.heartbeat_interval_s):
            with self._lock:
                workers = list(self._workers)
                stopping = self._stopping
            if stopping:
                return
            now = time.monotonic()
            for worker in workers:
                try:
                    self._tick(worker, now)
                except Exception:  # noqa: BLE001 — supervision must survive
                    _SUPERVISOR_MONITOR_ERRORS.labels(
                        shard=str(worker.shard)).inc()

    def _tick(self, worker: _Worker, now: float) -> None:
        with self._lock:
            if self._stopping:
                return
            process = worker.process
            if process is None:
                if worker.restart_at is not None and now >= worker.restart_at:
                    self._spawn(worker)
                return
            code = process.poll()
            if code is not None:
                self._on_exit(worker, code, now)
                return
            if worker.endpoint is None:
                worker.endpoint = self._read_endpoint(worker)
        # The heartbeat does network I/O — outside the lock, so endpoint
        # resolution for query threads never waits on a probe.
        if worker.endpoint is not None and now >= worker.next_heartbeat:
            self._heartbeat(worker)
            worker.next_heartbeat = (time.monotonic()
                                     + self.policy.heartbeat_interval_s)

    def _on_exit(self, worker: _Worker, code: int, now: float) -> None:
        worker.process = None
        worker.endpoint = None
        if code == 0:
            # A deliberate stop (SIGTERM drain): respawn without charging
            # the breaker or the backoff ladder.
            _SUPERVISOR_EXITS.labels(shard=str(worker.shard),
                                     kind="clean").inc()
            worker.restart_at = now
            return
        _SUPERVISOR_EXITS.labels(shard=str(worker.shard), kind="crash").inc()
        if worker.breaker.record_crash(now):
            _SUPERVISOR_TRIPS.labels(shard=str(worker.shard)).inc()
            if self._on_crash_loop is not None:
                self._on_crash_loop(worker.shard, ShardError(
                    f"shard {worker.shard} worker is crash-looping "
                    f"({self.policy.crash_loop_threshold} crashes within "
                    f"{self.policy.crash_loop_window_s}s); breaker tripped"))
        if worker.breaker.tripped:
            # Half-open: one attempt per cooloff until a probe readmission
            # resets the breaker via note_recovered.
            worker.restart_at = now + self.policy.cooloff_s
        else:
            worker.restart_at = now + self.policy.restart_delay_s(
                worker.restart_count, worker.shard)
        worker.restart_count += 1

    def _read_endpoint(self, worker: _Worker) -> "tuple[str, int] | None":
        try:
            payload = json.loads(worker.endpoint_file.read_text())
        except (OSError, ValueError):
            return None
        process = worker.process
        if process is None or payload.get("pid") != process.pid:
            return None  # a stale file from a previous incarnation
        try:
            return str(payload["host"]), int(payload["port"])
        except (KeyError, TypeError, ValueError):
            return None

    def _heartbeat(self, worker: _Worker) -> None:
        endpoint = worker.endpoint
        if endpoint is None:
            return
        host, port = endpoint
        started = time.perf_counter()
        try:
            connection = HTTPConnection(
                host, port, timeout=self.policy.heartbeat_timeout_s)
            try:
                connection.request("GET", "/readyz")
                connection.getresponse().read()
            finally:
                connection.close()
        except OSError:
            # Any HTTP answer (even 503 warming) proves liveness; only
            # transport failure is a miss.
            worker.misses += 1
            if worker.misses >= self.policy.heartbeat_misses:
                self._kill_hung(worker)
            return
        worker.misses = 0
        _SUPERVISOR_HEARTBEAT_SECONDS.labels(
            shard=str(worker.shard)).observe(time.perf_counter() - started)

    def _kill_hung(self, worker: _Worker) -> None:
        _SUPERVISOR_EXITS.labels(shard=str(worker.shard), kind="hung").inc()
        worker.misses = 0
        process = worker.process
        if process is not None:
            try:
                process.kill()  # the next tick classifies this as a crash
            except OSError:
                pass

    # ------------------------------------------------------------ interface

    def endpoint(self, shard: int) -> "tuple[str, int] | None":
        """The shard worker's current ``(host, port)``, or ``None`` if down."""
        with self._lock:
            worker = self._workers[shard]
            if worker.endpoint is None and worker.process is not None \
                    and worker.process.poll() is None:
                # Resolve eagerly so a query right after a (re)spawn does not
                # have to wait a full monitor tick.
                worker.endpoint = self._read_endpoint(worker)
            return worker.endpoint

    def note_recovered(self, shard: int) -> None:
        """A probe readmitted the shard: reset its breaker and ladder."""
        with self._lock:
            worker = self._workers[shard]
            worker.breaker.reset()
            worker.restart_count = 0

    def restart_count(self, shard: int) -> int:
        with self._lock:
            return self._workers[shard].restart_count

    def wait_ready(self, timeout_s: float = 30.0) -> None:
        """Block until every worker answers ``/readyz`` 200; typed on timeout."""
        deadline = time.monotonic() + timeout_s
        pending = set(range(len(self._workers)))
        while pending:
            for shard in sorted(pending):
                endpoint = self.endpoint(shard)
                if endpoint is not None and self._ready_once(endpoint):
                    pending.discard(shard)
            if not pending:
                return
            if time.monotonic() >= deadline:
                raise IndexError_(
                    f"cluster workers {sorted(pending)} did not become "
                    f"ready within {timeout_s}s")
            time.sleep(0.02)

    def _ready_once(self, endpoint: "tuple[str, int]") -> bool:
        host, port = endpoint
        try:
            connection = HTTPConnection(
                host, port, timeout=self.policy.heartbeat_timeout_s)
            try:
                connection.request("GET", "/readyz")
                return connection.getresponse().status == 200
            finally:
                connection.close()
        except OSError:
            return False

    def report(self) -> "list[dict]":
        """JSON-ready supervision snapshot, one record per shard."""
        with self._lock:
            return [
                {
                    "shard": worker.shard,
                    "pid": (worker.process.pid
                            if worker.process is not None else None),
                    "running": (worker.process is not None
                                and worker.process.poll() is None),
                    "endpoint": (list(worker.endpoint)
                                 if worker.endpoint is not None else None),
                    "restarts": worker.restart_count,
                    "breaker_tripped": worker.breaker.tripped,
                }
                for worker in self._workers
            ]
