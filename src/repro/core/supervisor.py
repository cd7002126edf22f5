"""Self-healing lease supervision for parallel campaign execution.

The parallel campaign runner used to be fail-fast: one dead worker aborted
the whole campaign, and a hung worker stalled the collector loop forever.
This module replaces that with a *lease* model:

* every shard of pending trial indices is a :class:`ShardLease`;
* a lease is served by one worker process at a time, identified by a
  ``(lease_id, attempt)`` token that tags every message the worker emits;
* the :class:`LeaseSupervisor` drives all leases to completion, detecting
  **dead** workers (process exited without completing its lease) and
  **hung** workers (no message for longer than the per-shard deadline),
  reclaiming the lease and re-running its *remaining* indices on a fresh
  worker with bounded retries and exponential backoff;
* a lease that keeps failing is quarantined as **poison** after
  ``max_retries`` re-attempts — either raising with the collected
  tracebacks (default) or recording them in the campaign result's recovery
  provenance (``poison_policy="quarantine"``).

Because campaign trials are pure functions of ``(seed, index)`` and records
merge by trial index, recovery cannot change the campaign's records — a
re-leased shard re-emits byte-identical records, and any duplicates (a
record delivered just before its worker died) collapse in the parent's
index-keyed merge.  The deterministic chaos harness
(:mod:`repro.core.chaos`) exists to prove exactly this.

Timing notes
------------

*Progress* is any message from the lease's current attempt (baseline meta,
records).  The hang deadline therefore bounds the gap between
consecutive records, not total shard duration; leave it ``None`` (disabled)
unless per-trial latency is predictable, and size it generously —
several multiples of the slowest expected trial group.

Stale messages — from an attempt that was already reclaimed (e.g. a worker
declared hung that was merely slow) — are *not* discarded wholesale:
records are accepted from any attempt (they are deterministic and keyed by
trial index), while lifecycle messages (completion, errors) are
honoured only from the current attempt.
"""

from __future__ import annotations

import queue as queue_module
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from repro.utils.logging import get_logger
from repro.utils.telemetry import TELEMETRY

logger = get_logger(__name__)

#: Ceiling on one exponential-backoff wait between lease attempts.
BACKOFF_CAP = 30.0

#: Default queue poll interval when no hang deadline bounds it.
DEFAULT_POLL = 0.5


def backoff_delay(backoff: float, retries_used: int) -> float:
    """Exponential backoff before re-attempt ``retries_used + 1`` (capped).

    Shared by the local :class:`LeaseSupervisor` and the fleet
    coordinator's network lease book (:mod:`repro.service.jobs`), so a
    lease behaves identically whether its worker is a local process or a
    remote node.
    """
    if not backoff:
        return 0.0
    return min(backoff * (2 ** retries_used), BACKOFF_CAP)


class LeaseState(Enum):
    RUNNING = "running"
    #: Reclaimed; waiting out its backoff before the next attempt.
    WAITING = "waiting"
    DONE = "done"
    POISON = "poison"


@dataclass
class ShardLease:
    """One shard of trial indices and its execution state."""

    lease_id: int
    indices: list[int]
    #: Indices not yet seen as records (shrinks across attempts, so a
    #: re-leased shard re-runs only what its dead worker left behind).
    remaining: set[int] = field(default_factory=set)
    attempt: int = 0
    state: LeaseState = LeaseState.WAITING
    proc: object | None = None
    #: Token of the current attempt (matches the tag on worker messages).
    token: tuple[int, int] | None = None
    last_progress: float = 0.0
    #: Earliest clock time the next attempt may launch (backoff).
    retry_at: float = 0.0
    #: One entry per failed attempt: what went wrong (traceback or reason).
    failures: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.remaining:
            self.remaining = set(self.indices)


class PoisonShardError(RuntimeError):
    """A lease exhausted its retries under ``poison_policy="raise"``."""

    def __init__(self, lease: ShardLease):
        self.lease = lease
        detail = lease.failures[-1] if lease.failures else "unknown failure"
        super().__init__(
            f"campaign worker {lease.lease_id} failed {lease.attempt} attempt(s) on "
            f"shard {lease.lease_id} ({len(lease.remaining)} of {len(lease.indices)} "
            f"trial(s) unfinished); completed trials are preserved in the checkpoint "
            f"(resume with resume=True).  Last failure:\n{detail}"
        )


@dataclass
class RecoveryLog:
    """Counters and provenance of everything the supervisor had to heal."""

    leases: int = 0
    attempts: int = 0
    reclaimed: int = 0
    dead_workers: int = 0
    hung_workers: int = 0
    worker_errors: int = 0
    poison: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "leases": self.leases,
            "attempts": self.attempts,
            "reclaimed": self.reclaimed,
            "dead_workers": self.dead_workers,
            "hung_workers": self.hung_workers,
            "worker_errors": self.worker_errors,
            "poison_shards": list(self.poison),
        }


class LeaseSupervisor:
    """Drives a set of shard leases to completion, healing worker failures.

    Parameters
    ----------
    results:
        The multiprocessing queue every worker reports into.  Messages are
        ``(kind, token, payload)`` with ``token == (lease_id, attempt)``.
    spawn:
        ``spawn(lease) -> (proc, token)``: launch (or re-use, when its
        worker is still healthy) a worker serving ``sorted(lease.remaining)``,
        tagging its messages with the returned token.  Called once per
        attempt.
    reap:
        ``reap(lease, failed)``: dispose of the lease's current worker.
        ``failed=True`` means the worker must not serve anything again
        (terminate/kill it); ``failed=False`` means it completed its lease
        normally (it may stay alive for the next round).
    handle:
        ``handle(kind, payload)``: runner-level message consumer for
        ``meta`` / ``record`` payloads (checkpoint writing, baseline
        checks).  The supervisor does lease bookkeeping; the runner owns
        campaign semantics.
    max_retries:
        Re-attempts after the first failure before a lease turns poison.
    timeout:
        Per-shard progress deadline in seconds (``None`` disables hang
        detection).
    backoff:
        Base of the exponential backoff between attempts: attempt *k*
        (1-based re-attempt) waits ``backoff * 2**(k-1)`` seconds, capped
        at :data:`BACKOFF_CAP`.
    poison_policy:
        ``"raise"`` aborts the campaign on the first poison shard (with
        the lease's failure history); ``"quarantine"`` records it in the
        :class:`RecoveryLog` and keeps going.
    """

    def __init__(
        self,
        leases: list[ShardLease],
        *,
        results,
        spawn: Callable[[ShardLease], tuple[object, tuple[int, int]]],
        reap: Callable[[ShardLease, bool], None],
        handle: Callable[[str, object], None],
        max_retries: int = 2,
        timeout: float | None = None,
        backoff: float = 0.25,
        poison_policy: str = "raise",
        clock: Callable[[], float] = time.monotonic,
        recovery: RecoveryLog | None = None,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ValueError("shard timeout must be positive (or None to disable)")
        if backoff < 0:
            raise ValueError("retry backoff must be >= 0")
        if poison_policy not in ("raise", "quarantine"):
            raise ValueError(
                f"poison_policy must be 'raise' or 'quarantine', got {poison_policy!r}"
            )
        self.leases = leases
        self._by_id = {lease.lease_id: lease for lease in leases}
        if len(self._by_id) != len(leases):
            raise ValueError("lease ids must be unique")
        self.results = results
        self.spawn = spawn
        self.reap = reap
        self.handle = handle
        self.max_retries = max_retries
        self.timeout = timeout
        self.backoff = backoff
        self.poison_policy = poison_policy
        self.clock = clock
        self.recovery = recovery if recovery is not None else RecoveryLog()
        self.recovery.leases += len(leases)
        #: Queue polls must wake often enough to notice a hang deadline.
        self.poll = min(DEFAULT_POLL, timeout / 4.0) if timeout else DEFAULT_POLL

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> RecoveryLog:
        """Serve every lease to DONE (or POISON) and return the recovery log."""
        for lease in self.leases:
            self._launch(lease)
        while self._unsettled():
            self._launch_due()
            try:
                message = self.results.get(timeout=self.poll)
            except queue_module.Empty:
                self._scan(queue_drained=True)
                continue
            self._dispatch(message)
            self._scan(queue_drained=False)
        return self.recovery

    def _unsettled(self) -> bool:
        return any(
            lease.state in (LeaseState.RUNNING, LeaseState.WAITING) for lease in self.leases
        )

    # ------------------------------------------------------------------
    # Launch / retry
    # ------------------------------------------------------------------
    def _launch(self, lease: ShardLease) -> None:
        lease.attempt += 1
        self.recovery.attempts += 1
        lease.proc, lease.token = self.spawn(lease)
        lease.state = LeaseState.RUNNING
        lease.last_progress = self.clock()
        TELEMETRY.event(
            "lease.launch",
            lease=lease.lease_id,
            attempt=lease.attempt,
            remaining=len(lease.remaining),
        )

    def _launch_due(self) -> None:
        now = self.clock()
        for lease in self.leases:
            if lease.state is LeaseState.WAITING and now >= lease.retry_at:
                logger.info(
                    "re-leasing shard %d (attempt %d, %d trial(s) remaining)",
                    lease.lease_id, lease.attempt + 1, len(lease.remaining),
                )
                self._launch(lease)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _dispatch(self, message) -> None:
        kind, token, payload = message
        lease = self._by_id.get(token[0])
        if lease is None:  # pragma: no cover - unknown sender
            logger.warning("ignoring message %r from unknown lease %r", kind, token)
            return
        current = lease.state is LeaseState.RUNNING and token == lease.token
        if kind == "record":
            # Records are deterministic and keyed by trial index: accept
            # them even from a stale attempt (the parent's merge dedups).
            self.handle("record", payload)
            lease.remaining.discard(payload.trial_index)
            if current:
                lease.last_progress = self.clock()
        elif kind == "meta":
            self.handle("meta", payload)
            if current:
                lease.last_progress = self.clock()
        elif kind == "error":
            if current:
                self.recovery.worker_errors += 1
                self._fail(lease, f"worker raised:\n{payload}")
        elif kind == "done":
            if current:
                if lease.remaining:
                    # The queue is FIFO per producer, so every record this
                    # worker emitted precedes its completion message: trials
                    # still unaccounted for were genuinely never run.
                    self._fail(
                        lease,
                        f"worker completed its lease with {len(lease.remaining)} "
                        f"trial(s) unaccounted for",
                    )
                else:
                    lease.state = LeaseState.DONE
                    self.reap(lease, False)
                    TELEMETRY.event(
                        "lease.done", lease=lease.lease_id, attempt=lease.attempt
                    )
        else:  # pragma: no cover - future message kinds
            logger.warning("ignoring unknown message kind %r from %r", kind, token)

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------
    def _scan(self, queue_drained: bool) -> None:
        now = self.clock()
        for lease in self.leases:
            if lease.state is not LeaseState.RUNNING:
                continue
            proc = lease.proc
            if proc is not None and not proc.is_alive():
                # Only declare death once the queue reads empty, so the
                # worker's trailing messages (records, its completion) get
                # consumed first: a worker that finished and exited is not
                # a casualty.
                if queue_drained:
                    self.recovery.dead_workers += 1
                    self._fail(
                        lease,
                        f"worker process died with exit code {proc.exitcode} "
                        f"before completing its lease",
                    )
            elif self.timeout is not None and now - lease.last_progress > self.timeout:
                self.recovery.hung_workers += 1
                logger.warning(
                    "lease %d: no progress for %.1fs (deadline %.1fs); terminating worker",
                    lease.lease_id, now - lease.last_progress, self.timeout,
                )
                self._fail(
                    lease,
                    f"worker made no progress for {self.timeout}s "
                    f"(hung; terminated by the supervisor)",
                )

    def _fail(self, lease: ShardLease, reason: str) -> None:
        lease.failures.append(reason)
        self.reap(lease, True)
        retries_used = lease.attempt - 1
        if retries_used >= self.max_retries:
            self._poison(lease)
            return
        self.recovery.reclaimed += 1
        wait = backoff_delay(self.backoff, retries_used)
        lease.state = LeaseState.WAITING
        lease.retry_at = self.clock() + wait
        TELEMETRY.event(
            "lease.reclaim",
            lease=lease.lease_id,
            attempt=lease.attempt,
            remaining=len(lease.remaining),
            reason=reason.splitlines()[0],
            backoff_seconds=wait,
        )
        logger.warning(
            "lease %d failed (attempt %d/%d): %s; retrying in %.2fs",
            lease.lease_id, lease.attempt, self.max_retries + 1,
            reason.splitlines()[0], wait,
        )

    def _poison(self, lease: ShardLease) -> None:
        lease.state = LeaseState.POISON
        TELEMETRY.event(
            "lease.poison",
            lease=lease.lease_id,
            attempts=lease.attempt,
            unfinished=len(lease.remaining),
        )
        self.recovery.poison.append(
            {
                "lease": lease.lease_id,
                "indices": sorted(lease.indices),
                "unfinished": sorted(lease.remaining),
                "attempts": lease.attempt,
                "failures": list(lease.failures),
            }
        )
        if self.poison_policy == "raise":
            raise PoisonShardError(lease)
        logger.error(
            "lease %d quarantined as poison after %d attempt(s); %d trial(s) unfinished",
            lease.lease_id, lease.attempt, len(lease.remaining),
        )


def terminate_process(proc, grace: float = 5.0) -> None:
    """Stop a worker process for good: terminate, then kill if it lingers."""
    if proc is None:
        return
    if proc.is_alive():
        proc.terminate()
        proc.join(grace)
        if proc.is_alive():  # pragma: no cover - SIGTERM normally suffices
            proc.kill()
            proc.join(grace)
    else:
        proc.join(grace)
