"""Per-shard health tracking and deterministic retry policy.

The sharded scatter-gather engine (:mod:`repro.index.sharded`) isolates
failures per shard instead of failing whole queries.  This module holds the
two pure, independently testable pieces of that machinery:

* :class:`RetryPolicy` — capped exponential backoff with *seeded* jitter.
  The jitter is a pure function of ``(seed, shard, attempt)``, so the retry
  schedule of any failure scenario is reproducible in tests and the property
  "a backoff sleep never exceeds the remaining per-shard deadline slice" can
  be checked exhaustively rather than statistically.
* :class:`ShardHealthBoard` — the ``healthy → suspect → quarantined`` state
  machine, one record per shard, updated from query outcomes and probes.
  Transient failures (timeouts, load races) escalate gradually; persistent
  ones (:class:`~repro.core.errors.CorruptionError`) quarantine immediately
  and mark the shard's engine for a reload-from-disk before readmission.

Neither piece knows about engines, snapshots or HTTP: the board is plain
bookkeeping under one lock, which is what keeps every transition atomic even
when scatter workers, the probe thread and ``/healthz`` race on it.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from repro.core.errors import InvalidParameterError

#: Shard states of the degradation state machine.  A ``healthy`` shard is
#: queried normally; a ``suspect`` shard is still queried (it failed recently
#: but below the quarantine threshold); a ``quarantined`` shard is excluded
#: from the scatter until a probe readmits it.
HEALTHY = "healthy"
SUSPECT = "suspect"
QUARANTINED = "quarantined"

SHARD_STATES = (HEALTHY, SUSPECT, QUARANTINED)


def _seeded_backoff(base_s: float, cap_s: float, jitter: float, seed: int,
                    shard: int, step: int, step_prime: int) -> float:
    """``min(cap_s, base_s * 2**step) * (1 + jitter * u)``, ``u ∈ [0, 1)``.

    ``u`` is a pure function of ``(seed, shard, step)`` (mixed into one
    integer — tuple seeding was removed from :class:`random.Random`);
    ``step_prime`` weights the step term so two schedules never alias.
    """
    exponential = min(cap_s, base_s * (2.0 ** step))
    mixed = (seed * 1_000_003 + shard * 8_191 + step * step_prime) & 0xFFFFFFFF
    return exponential * (1.0 + jitter * random.Random(mixed).random())


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic capped exponential backoff for per-shard retries.

    ``max_attempts`` bounds how often one query retries one shard before the
    failure is reported to the health board as exhausted.  The backoff before
    retry ``attempt`` (0-based: the sleep after the first failure is
    ``backoff_s(0, ...)``) is

    ``min(backoff_cap_s, backoff_base_s * 2**attempt) * (1 + jitter * u)``

    where ``u ∈ [0, 1)`` comes from a PRNG seeded with ``(seed, shard,
    attempt)`` — the same scenario always sleeps the same amounts, so fault
    tests are reproducible.  The result is clamped to the optional ``limit``
    (the remaining deadline slice), which is what guarantees a retrying
    scatter worker can never sleep past the query's deadline.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.005
    backoff_cap_s: float = 0.1
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise InvalidParameterError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if not self.backoff_base_s >= 0:
            raise InvalidParameterError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if not self.backoff_cap_s >= 0:
            raise InvalidParameterError(
                f"backoff_cap_s must be >= 0, got {self.backoff_cap_s}")
        if not 0 <= self.jitter <= 1:
            raise InvalidParameterError(
                f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_s(self, attempt: int, shard: int = 0,
                  limit: "float | None" = None) -> float:
        """Sleep before retry ``attempt`` of ``shard``; never above ``limit``.

        Deterministic: the jitter PRNG is seeded from ``(seed, shard,
        attempt)`` alone, so equal inputs always produce equal delays, and
        the bound ``backoff_cap_s * (1 + jitter)`` always holds.
        """
        delay = _seeded_backoff(self.backoff_base_s, self.backoff_cap_s,
                                self.jitter, self.seed, shard, attempt, 1)
        if limit is not None:
            delay = min(delay, max(0.0, limit))
        return delay


@dataclass(frozen=True)
class SupervisorPolicy:
    """How a :class:`~repro.cluster.supervisor.ShardSupervisor` restarts.

    Restart delays follow the same deterministic capped-exponential scheme as
    :class:`RetryPolicy` — the delay before restart ``restart`` (0-based) of a
    crashed worker is

    ``min(restart_cap_s, restart_base_s * 2**restart) * (1 + jitter * u)``

    with ``u ∈ [0, 1)`` a pure function of ``(seed, shard, restart)``, so a
    crash scenario replays identically in tests and the bound
    ``restart_cap_s * (1 + jitter)`` always holds.  A successful probe
    readmission resets the ladder to restart 0.

    ``crash_loop_threshold`` / ``crash_loop_window_s`` parameterize the
    :class:`CrashLoopBreaker`: that many crashes inside one sliding window
    trips the breaker, quarantining the shard (no more immediate restarts)
    until ``cooloff_s`` passes and a half-open restart attempt succeeds.

    ``heartbeat_interval_s`` paces liveness probes of a running worker;
    ``heartbeat_timeout_s`` bounds each probe; ``heartbeat_misses`` is how
    many consecutive failed probes declare a *hung* worker (it is then killed
    and treated as crashed — a hang and a crash look the same to callers).
    """

    restart_base_s: float = 0.05
    restart_cap_s: float = 1.0
    jitter: float = 0.5
    seed: int = 0
    crash_loop_threshold: int = 3
    crash_loop_window_s: float = 5.0
    cooloff_s: float = 1.0
    heartbeat_interval_s: float = 0.1
    heartbeat_timeout_s: float = 1.0
    heartbeat_misses: int = 3

    def __post_init__(self) -> None:
        if not self.restart_base_s >= 0:
            raise InvalidParameterError(
                f"restart_base_s must be >= 0, got {self.restart_base_s}")
        if not self.restart_cap_s >= 0:
            raise InvalidParameterError(
                f"restart_cap_s must be >= 0, got {self.restart_cap_s}")
        if not 0 <= self.jitter <= 1:
            raise InvalidParameterError(
                f"jitter must be in [0, 1], got {self.jitter}")
        if self.crash_loop_threshold < 1:
            raise InvalidParameterError(
                f"crash_loop_threshold must be >= 1, "
                f"got {self.crash_loop_threshold}")
        if not self.crash_loop_window_s > 0:
            raise InvalidParameterError(
                f"crash_loop_window_s must be positive, "
                f"got {self.crash_loop_window_s}")
        if not self.cooloff_s >= 0:
            raise InvalidParameterError(
                f"cooloff_s must be >= 0, got {self.cooloff_s}")
        if not self.heartbeat_interval_s > 0:
            raise InvalidParameterError(
                f"heartbeat_interval_s must be positive, "
                f"got {self.heartbeat_interval_s}")
        if not self.heartbeat_timeout_s > 0:
            raise InvalidParameterError(
                f"heartbeat_timeout_s must be positive, "
                f"got {self.heartbeat_timeout_s}")
        if self.heartbeat_misses < 1:
            raise InvalidParameterError(
                f"heartbeat_misses must be >= 1, got {self.heartbeat_misses}")

    def restart_delay_s(self, restart: int, shard: int = 0) -> float:
        """Delay before restart ``restart`` of ``shard`` — deterministic.

        Same mixing as :meth:`RetryPolicy.backoff_s` (a different prime for
        the attempt term so supervisor and retry schedules never alias).
        """
        return _seeded_backoff(self.restart_base_s, self.restart_cap_s,
                               self.jitter, self.seed, shard, restart, 131)


class CrashLoopBreaker:
    """Sliding-window crash counter: trips after N crashes within the window.

    Pure and time-injected — callers pass ``now`` (any monotonic clock) to
    :meth:`record_crash`, so the property tests drive it with a virtual
    clock.  Once tripped it stays tripped until :meth:`reset` (the probe
    readmission path); crashes recorded while tripped keep it tripped but
    are not double-counted as new trips.
    """

    def __init__(self, threshold: int = 3, window_s: float = 5.0) -> None:
        if threshold < 1:
            raise InvalidParameterError(
                f"threshold must be >= 1, got {threshold}")
        if not window_s > 0:
            raise InvalidParameterError(
                f"window_s must be positive, got {window_s}")
        self.threshold = int(threshold)
        self.window_s = float(window_s)
        self._crash_times: "list[float]" = []
        self._tripped = False

    @property
    def tripped(self) -> bool:
        return self._tripped

    def record_crash(self, now: float) -> bool:
        """Count one crash at time ``now``; returns ``True`` on the trip edge.

        Only crashes within ``window_s`` of ``now`` are retained, so a slow
        drip of isolated crashes never trips — exactly ``threshold`` crashes
        inside one window do.
        """
        self._crash_times.append(float(now))
        cutoff = float(now) - self.window_s
        self._crash_times = [t for t in self._crash_times if t > cutoff]
        if self._tripped:
            return False
        if len(self._crash_times) >= self.threshold:
            self._tripped = True
            return True
        return False

    def reset(self) -> None:
        """Forget the crash history (a probe readmitted the shard)."""
        self._crash_times.clear()
        self._tripped = False


@dataclass(frozen=True)
class HealthPolicy:
    """When failures escalate and how quarantined shards are probed.

    ``suspect_after`` / ``quarantine_after`` count *consecutive* transient
    failures (any success resets the streak).  Persistent failures skip the
    ladder and quarantine immediately.  ``probe_interval_s`` paces the
    background probe-and-readmit loop; ``auto_probe=False`` disables the
    background thread (probes then only happen via explicit
    ``probe_shard`` calls — what the deterministic fault tests use).
    """

    suspect_after: int = 1
    quarantine_after: int = 3
    probe_interval_s: float = 0.25
    auto_probe: bool = True

    def __post_init__(self) -> None:
        if self.suspect_after < 1:
            raise InvalidParameterError(
                f"suspect_after must be >= 1, got {self.suspect_after}")
        if self.quarantine_after < self.suspect_after:
            raise InvalidParameterError(
                f"quarantine_after ({self.quarantine_after}) must be >= "
                f"suspect_after ({self.suspect_after})")
        if not self.probe_interval_s > 0:
            raise InvalidParameterError(
                f"probe_interval_s must be positive, got {self.probe_interval_s}")


class _ShardHealth:
    """Mutable health record of one shard (guarded by the board's lock)."""

    __slots__ = ("state", "consecutive_failures", "quarantine_trips",
                 "readmits", "last_error", "needs_reload")

    def __init__(self) -> None:
        self.state = HEALTHY
        self.consecutive_failures = 0
        self.quarantine_trips = 0
        self.readmits = 0
        self.last_error: "str | None" = None
        self.needs_reload = False


class ShardHealthBoard:
    """Thread-safe ``healthy → suspect → quarantined`` records, one per shard.

    The scatter workers report outcomes (:meth:`record_success`,
    :meth:`record_transient`, :meth:`record_persistent`), the probe loop asks
    :meth:`quarantined_indices` and calls :meth:`readmit`, and the serving
    layer snapshots everything with :meth:`report`.  All transitions happen
    under one lock, so a success and a failure racing from two queries leave
    the record in one of the two serialized orders — never a torn mix.
    """

    def __init__(self, num_shards: int,
                 policy: "HealthPolicy | None" = None) -> None:
        if num_shards < 1:
            raise InvalidParameterError(
                f"num_shards must be >= 1, got {num_shards}")
        self.policy = policy if policy is not None else HealthPolicy()
        self._lock = threading.Lock()
        self._shards = [_ShardHealth() for _ in range(num_shards)]

    def __len__(self) -> int:
        return len(self._shards)

    # ------------------------------------------------------------- outcomes

    def record_success(self, shard: int) -> str:
        """An answered query (or passed probe): reset the failure streak."""
        with self._lock:
            record = self._shards[shard]
            if record.state == QUARANTINED:
                record.readmits += 1
            record.state = HEALTHY
            record.consecutive_failures = 0
            record.last_error = None
            record.needs_reload = False
            return record.state

    def record_transient(self, shard: int, error: BaseException) -> str:
        """A retryable failure (timeout, load race): escalate the ladder.

        Returns the shard's new state so the caller can react to the
        ``quarantined`` edge (stop retrying, wake the probe loop).
        """
        with self._lock:
            record = self._shards[shard]
            record.consecutive_failures += 1
            record.last_error = f"{type(error).__name__}: {error}"
            if record.state != QUARANTINED:
                if record.consecutive_failures >= self.policy.quarantine_after:
                    record.state = QUARANTINED
                    record.quarantine_trips += 1
                elif record.consecutive_failures >= self.policy.suspect_after:
                    record.state = SUSPECT
            return record.state

    def record_persistent(self, shard: int, error: BaseException) -> str:
        """A non-retryable failure (corruption): quarantine immediately.

        The shard is additionally marked ``needs_reload``: its in-memory
        engine (if any) must be dropped and reloaded from disk before a probe
        can readmit it — retrying a corrupt engine cannot succeed.
        """
        with self._lock:
            record = self._shards[shard]
            record.consecutive_failures += 1
            record.last_error = f"{type(error).__name__}: {error}"
            record.needs_reload = True
            if record.state != QUARANTINED:
                record.state = QUARANTINED
                record.quarantine_trips += 1
            return record.state

    def readmit(self, shard: int) -> None:
        """A probe succeeded: return the shard to the scatter set."""
        self.record_success(shard)

    # ----------------------------------------------------------- inspection

    def state(self, shard: int) -> str:
        with self._lock:
            return self._shards[shard].state

    def is_quarantined(self, shard: int) -> bool:
        with self._lock:
            return self._shards[shard].state == QUARANTINED

    def needs_reload(self, shard: int) -> bool:
        with self._lock:
            return self._shards[shard].needs_reload

    def quarantined_indices(self) -> "list[int]":
        with self._lock:
            return [index for index, record in enumerate(self._shards)
                    if record.state == QUARANTINED]

    def report(self) -> "list[dict]":
        """JSON-ready per-shard records for ``/healthz`` and ``health_report``."""
        with self._lock:
            return [
                {
                    "shard": index,
                    "state": record.state,
                    "consecutive_failures": record.consecutive_failures,
                    "quarantine_trips": record.quarantine_trips,
                    "readmits": record.readmits,
                    "last_error": record.last_error,
                }
                for index, record in enumerate(self._shards)
            ]
