"""Coordinator-side job state: scenarios, network leases, merge, stopping.

A :class:`FleetJob` is one sweep spec executed by the fleet.  It carries
the same lease state machine as local execution — leases are
:class:`~repro.core.supervisor.ShardLease` instances (WAITING → RUNNING →
DONE, with WAITING backoff between reclaims and POISON after exhausted
retries), tokens are ``(lease_id, attempt)``, and
:func:`~repro.core.supervisor.backoff_delay` paces re-attempts — but the
"worker" behind a lease is a remote node, progress is heartbeats and
record batches instead of queue messages, and reclaim triggers on a missed
heartbeat deadline or an explicit failure report instead of a dead child
process.

Determinism contract (the reason the merge below is a plain index-keyed
dict): trials are pure functions of ``(seed, index)``, so

* records are accepted from **any** attempt, even one already reclaimed —
  a batch that raced the reclaim carries exactly the bytes the re-run
  would produce;
* identical duplicates (dup-delivery, re-leased overlap) collapse silently;
* *conflicting* duplicates mean the invariant is broken and fail the whole
  job loudly rather than merging garbage;
* the finished artifacts — per-scenario checkpoint JSONL and the merged
  ``sweep.jsonl`` — are byte-identical to a local ``--workers 1`` run of
  the same spec, which CI's fleet gate asserts with ``cmp``.

Every scenario runs in rounds — a fixed budget is one round, an adaptive
plan supplies its own — and the next round's leases open only once every
lease of the current one has settled.  At that barrier
:func:`~repro.core.parallel.round_progress`, the round rule local
execution applies, decides whether the scenario continues and which
records its result keeps, so a round left with holes by a quarantined
poison lease ends a scenario exactly as it ends a local campaign.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.parallel import (
    RoundProgress,
    campaign_rounds,
    checkpoint_header_line,
    checkpoint_record_line,
    round_progress,
)
from repro.core.results import CampaignResult, TrialRecord
from repro.core.supervisor import LeaseState, RecoveryLog, ShardLease, backoff_delay
from repro.core.sweep import (
    ExperimentSpec,
    FaultAxis,
    ModelAxis,
    PlatformAxis,
    Scenario,
    ScenarioResult,
    StrategyAxis,
    SweepResult,
)
from repro.faults.sites import FaultUniverse
from repro.service.protocol import JobStatus, LeaseGrant
from repro.utils.durable import durable_write_text
from repro.utils.jsonsafe import dump_json_safe
from repro.utils.logging import get_logger
from repro.utils.telemetry import TELEMETRY

logger = get_logger(__name__)

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

#: Trials per network lease (contiguous ranges; merge is index-keyed, so
#: the chunking cannot influence records, only scheduling granularity).
DEFAULT_SHARD_SIZE = 8


def scenario_to_wire(scenario: Scenario) -> dict:
    """Serialise a scenario's axes for a lease grant."""
    return {
        "id": scenario.scenario_id,
        "cell": list(scenario.cell),
        "model": scenario.model.to_dict(),
        "fault": scenario.fault.to_dict(),
        "strategy": scenario.strategy.to_dict(),
        "platform": scenario.platform.to_dict(),
    }


def scenario_from_wire(data: dict) -> Scenario:
    """Rebuild a :class:`Scenario` from :func:`scenario_to_wire` output."""
    if not isinstance(data, dict):
        raise ValueError(f"wire scenario must be an object, got {type(data).__name__}")
    try:
        model = ModelAxis.from_dict(dict(data["model"]))
        fault = FaultAxis.from_dict(dict(data["fault"]))
        strategy = StrategyAxis.from_dict(dict(data["strategy"]))
        platform = PlatformAxis.from_dict(dict(data["platform"]))
    except KeyError as exc:
        raise ValueError(f"wire scenario is missing axis {exc}") from None
    cell = tuple(int(v) for v in data.get("cell", (0, 0, 0, 0)))
    scenario_id = data.get(
        "id", f"{model.name}/{fault.name}/{strategy.name}/{platform.name}"
    )
    return Scenario(
        scenario_id=scenario_id,
        model=model,
        fault=fault,
        strategy=strategy,
        platform=platform,
        cell=cell,
    )


def _chunk(indices: list[int], size: int) -> list[list[int]]:
    """Contiguous shards of at most ``size`` trials (``[[]]`` when empty,
    so even a zero-trial scenario gets one lease to fetch its baseline)."""
    if not indices:
        return [[]]
    return [indices[start : start + size] for start in range(0, len(indices), size)]


@dataclass
class NetworkLease(ShardLease):
    """A :class:`ShardLease` served by a remote node instead of a child
    process (``proc`` stays ``None``; liveness is heartbeat recency)."""

    scenario_index: int = 0
    node: int | None = None


@dataclass
class _ScenarioState:
    """Progress of one grid cell inside a fleet job."""

    scenario: Scenario
    strategy_name: str
    total_trials: int
    records: dict[int, TrialRecord] = field(default_factory=dict)
    baseline: float | None = None
    ips: float | None = None
    num_images: int | None = None
    #: Rounds of the scenario (a fixed budget is one round).
    bounds: list[tuple[int, int]] = field(default_factory=list)
    progress: RoundProgress = field(default_factory=RoundProgress)
    #: Lease ids currently open (WAITING or RUNNING) for this scenario.
    open_leases: set[int] = field(default_factory=set)
    done: bool = False


class FleetJob:
    """One sweep spec driven to completion by the fleet's lease book."""

    def __init__(
        self,
        job_id: str,
        spec: ExperimentSpec,
        *,
        artifacts_dir: Path | str,
        shard_size: int = DEFAULT_SHARD_SIZE,
        max_retries: int = 2,
        backoff: float = 0.25,
        poison_policy: str = "raise",
        heartbeat_timeout: float = 10.0,
        fused_trials: int = 8,
        clock: Callable[[], float] = time.monotonic,
    ):
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if poison_policy not in ("raise", "quarantine"):
            raise ValueError(
                f"poison_policy must be 'raise' or 'quarantine', got {poison_policy!r}"
            )
        self.job_id = job_id
        self.spec = spec
        self.artifacts_dir = Path(artifacts_dir)
        self.shard_size = shard_size
        self.max_retries = max_retries
        self.backoff = backoff
        self.poison_policy = poison_policy
        self.heartbeat_timeout = heartbeat_timeout
        self.fused_trials = fused_trials
        self.clock = clock
        self.state = JOB_QUEUED
        self.error = ""
        self.recovery = RecoveryLog()
        self.plan = spec.adaptive
        self.leases: dict[int, NetworkLease] = {}
        self._next_lease_id = 0
        self.scenarios: list[_ScenarioState] = []
        for scenario in spec.grid():
            strategy = scenario.build_strategy()
            universe = FaultUniverse(
                scenario.platform.num_macs, scenario.platform.muls_per_mac
            )
            total = strategy.expected_trials(universe)
            state = _ScenarioState(
                scenario=scenario, strategy_name=strategy.name, total_trials=total
            )
            state.bounds = campaign_rounds(self.plan, total)
            state.progress = round_progress(self.plan, state.bounds, state.records)
            self.scenarios.append(state)
        for index in range(len(self.scenarios)):
            self._open_round(index)

    # ------------------------------------------------------------------
    # Lease opening
    # ------------------------------------------------------------------
    def _open_shards(self, scenario_index: int, indices: list[int]) -> None:
        state = self.scenarios[scenario_index]
        for shard in _chunk(indices, self.shard_size):
            lease = NetworkLease(
                self._next_lease_id, shard, scenario_index=scenario_index
            )
            self._next_lease_id += 1
            self.leases[lease.lease_id] = lease
            state.open_leases.add(lease.lease_id)
            self.recovery.leases += 1

    def _open_round(self, scenario_index: int) -> None:
        """Open the scenario's next round (a scenario with no trial to run
        still gets one empty lease, to fetch its baseline)."""
        state = self.scenarios[scenario_index]
        indices: list[int] = []
        if not state.progress.stopped:
            start, end = state.bounds[state.progress.rounds]
            indices = list(range(start, end))
        self._open_shards(scenario_index, indices)

    # ------------------------------------------------------------------
    # Worker-facing transitions (call under the coordinator's lock)
    # ------------------------------------------------------------------
    def grant(self, node_id: int) -> LeaseGrant | None:
        """Lease the oldest due WAITING shard to ``node_id``, if any."""
        now = self.clock()
        for lease_id in sorted(self.leases):
            lease = self.leases[lease_id]
            if lease.state is not LeaseState.WAITING or now < lease.retry_at:
                continue
            lease.attempt += 1
            self.recovery.attempts += 1
            lease.token = (lease.lease_id, lease.attempt - 1)
            lease.state = LeaseState.RUNNING
            lease.node = node_id
            lease.last_progress = now
            state = self.scenarios[lease.scenario_index]
            if self.state == JOB_QUEUED:
                self.state = JOB_RUNNING
            return LeaseGrant(
                job_id=self.job_id,
                scenario_index=lease.scenario_index,
                scenario=scenario_to_wire(state.scenario),
                lease_id=lease.lease_id,
                attempt=lease.attempt - 1,
                indices=tuple(sorted(lease.remaining)),
                seed=self.spec.seed,
                images=self.spec.images,
                batch_size=self.spec.batch_size,
                fused_trials=self.fused_trials,
            )
        return None

    def _current(self, lease: NetworkLease | None, attempt: int) -> bool:
        return (
            lease is not None
            and lease.state is LeaseState.RUNNING
            and lease.token == (lease.lease_id, attempt)
        )

    def add_records(
        self,
        lease_id: int,
        attempt: int,
        scenario_index: int,
        record_dicts,
        *,
        baseline: float | None = None,
        ips: float | None = None,
        num_images: int | None = None,
    ) -> tuple[int, bool]:
        """Merge a record batch; returns ``(accepted, token_still_current)``.

        Idempotent by construction: replaying the same batch (dup-delivery,
        a retried POST whose first copy did land) merges to the same state.
        """
        if not 0 <= scenario_index < len(self.scenarios):
            raise ValueError(
                f"job {self.job_id} has no scenario {scenario_index} "
                f"(0..{len(self.scenarios) - 1})"
            )
        state = self.scenarios[scenario_index]
        if baseline is not None:
            if state.baseline is None:
                state.baseline, state.ips = baseline, ips
            elif state.baseline != baseline:
                self._fail_job(
                    f"node-reported baseline {baseline!r} for scenario "
                    f"{state.scenario.scenario_id} disagrees with "
                    f"{state.baseline!r}; the platform or dataset is not "
                    f"deterministic across nodes, so fleet records cannot "
                    f"be trusted"
                )
                return 0, False
        if num_images is not None and state.num_images is None:
            state.num_images = num_images
        lease = self.leases.get(lease_id)
        accepted = 0
        for data in record_dicts:
            try:
                record = TrialRecord.from_dict(dict(data))
            except (TypeError, ValueError, KeyError) as exc:
                raise ValueError(f"malformed trial record on the wire: {exc}") from None
            existing = state.records.get(record.trial_index)
            if existing is None:
                state.records[record.trial_index] = record
                accepted += 1
            elif existing != record:
                self._fail_job(
                    f"trial {record.trial_index} of scenario "
                    f"{state.scenario.scenario_id} was reported twice with "
                    f"different contents; trials are pure functions of "
                    f"(seed, index), so conflicting duplicates mean the "
                    f"fleet's records cannot be trusted"
                )
                return accepted, False
            if lease is not None and lease.scenario_index == scenario_index:
                lease.remaining.discard(record.trial_index)
        current = self._current(lease, attempt)
        if current:
            lease.last_progress = self.clock()
        return accepted, current

    def heartbeat(self, lease_id: int, attempt: int) -> bool:
        lease = self.leases.get(lease_id)
        if not self._current(lease, attempt):
            return False
        lease.last_progress = self.clock()
        return True

    def complete(self, lease_id: int, attempt: int, ok: bool, error: str = "") -> bool:
        lease = self.leases.get(lease_id)
        if not self._current(lease, attempt):
            return False
        if not ok:
            self.recovery.worker_errors += 1
            self._fail_lease(lease, f"node reported failure:\n{error}")
            return True
        if lease.remaining:
            # Batches are merged before the completion is sent (the worker
            # posts in order over one logical stream), so trials still
            # unaccounted for were genuinely never delivered.
            self._fail_lease(
                lease,
                f"node completed lease {lease.lease_id} with "
                f"{len(lease.remaining)} trial(s) unaccounted for",
            )
            return True
        lease.state = LeaseState.DONE
        self._settle(lease)
        TELEMETRY.event(
            "lease.done", job=self.job_id, lease=lease.lease_id, attempt=lease.attempt
        )
        return True

    def check_timeouts(self) -> None:
        """Reclaim every RUNNING lease whose heartbeats went silent."""
        if self.state in (JOB_DONE, JOB_FAILED):
            return
        now = self.clock()
        for lease in list(self.leases.values()):
            if lease.state is not LeaseState.RUNNING:
                continue
            silent = now - lease.last_progress
            if silent > self.heartbeat_timeout:
                self.recovery.hung_workers += 1
                TELEMETRY.event(
                    "heartbeat.miss",
                    job=self.job_id,
                    lease=lease.lease_id,
                    node=lease.node,
                    silent_seconds=silent,
                )
                logger.warning(
                    "job %s lease %d: node %s silent for %.1fs (deadline %.1fs); reclaiming",
                    self.job_id, lease.lease_id, lease.node, silent, self.heartbeat_timeout,
                )
                self._fail_lease(
                    lease,
                    f"node {lease.node} missed the heartbeat deadline "
                    f"({self.heartbeat_timeout}s) — dead, partitioned or hung",
                )

    # ------------------------------------------------------------------
    # Failure / progression (mirrors LeaseSupervisor._fail)
    # ------------------------------------------------------------------
    def _fail_lease(self, lease: NetworkLease, reason: str) -> None:
        lease.failures.append(reason)
        lease.node = None
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
            job=self.job_id,
            lease=lease.lease_id,
            attempt=lease.attempt,
            remaining=len(lease.remaining),
            reason=reason.splitlines()[0],
            backoff_seconds=wait,
        )
        logger.warning(
            "job %s lease %d failed (attempt %d/%d): %s; re-leasing in %.2fs",
            self.job_id, lease.lease_id, lease.attempt, self.max_retries + 1,
            reason.splitlines()[0], wait,
        )

    def _poison(self, lease: NetworkLease) -> None:
        lease.state = LeaseState.POISON
        self.recovery.poison.append(
            {
                "lease": lease.lease_id,
                "scenario": self.scenarios[lease.scenario_index].scenario.scenario_id,
                "indices": sorted(lease.indices),
                "unfinished": sorted(lease.remaining),
                "attempts": lease.attempt,
                "failures": list(lease.failures),
            }
        )
        TELEMETRY.event(
            "lease.poison",
            job=self.job_id,
            lease=lease.lease_id,
            attempts=lease.attempt,
            unfinished=len(lease.remaining),
        )
        if self.poison_policy == "raise":
            detail = lease.failures[-1] if lease.failures else "unknown failure"
            self._fail_job(
                f"lease {lease.lease_id} of scenario "
                f"{self.scenarios[lease.scenario_index].scenario.scenario_id} "
                f"failed {lease.attempt} attempt(s) "
                f"({len(lease.remaining)} of {len(lease.indices)} trial(s) "
                f"unfinished).  Last failure:\n{detail}"
            )
            return
        logger.error(
            "job %s lease %d quarantined as poison after %d attempt(s)",
            self.job_id, lease.lease_id, lease.attempt,
        )
        self._settle(lease)

    def _fail_job(self, reason: str) -> None:
        if self.state in (JOB_DONE, JOB_FAILED):
            return
        self.state = JOB_FAILED
        self.error = reason
        TELEMETRY.event("job.failed", job=self.job_id, reason=reason.splitlines()[0])
        logger.error("job %s failed: %s", self.job_id, reason.splitlines()[0])

    def _settle(self, lease: NetworkLease) -> None:
        """A lease reached DONE/POISON: pass the round barrier once every
        lease of its scenario's round is settled."""
        state = self.scenarios[lease.scenario_index]
        state.open_leases.discard(lease.lease_id)
        if state.open_leases or self.state == JOB_FAILED:
            return
        self._round_barrier(lease.scenario_index)
        self._maybe_finish_job()

    def _round_barrier(self, scenario_index: int) -> None:
        """Every lease of the scenario's round settled: apply the round
        rule, then open the next round or end the scenario."""
        state = self.scenarios[scenario_index]
        state.progress = round_progress(
            self.plan, state.bounds, state.records, since=state.progress
        )
        if not state.progress.stopped:
            self._open_round(scenario_index)
            return
        if state.progress.missing:
            logger.error(
                "job %s scenario %s: round %d is missing %d trial(s) from poison "
                "lease(s); the scenario ends after round %d",
                self.job_id, state.scenario.scenario_id, state.progress.rounds + 1,
                state.progress.missing, state.progress.rounds,
            )
        self._finish_scenario(state)

    def _finish_scenario(self, state: _ScenarioState) -> None:
        if not state.done:
            state.done = True
            logger.info(
                "job %s scenario %s complete: %d record(s)",
                self.job_id, state.scenario.scenario_id, len(state.records),
            )

    def _maybe_finish_job(self) -> None:
        if self.state in (JOB_DONE, JOB_FAILED):
            return
        if any(not state.done for state in self.scenarios):
            return
        if any(
            lease.state in (LeaseState.RUNNING, LeaseState.WAITING)
            for lease in self.leases.values()
        ):  # pragma: no cover - scenarios only finish once their leases settle
            return
        self.write_artifacts()
        self.state = JOB_DONE
        TELEMETRY.event(
            "job.done",
            job=self.job_id,
            scenarios=len(self.scenarios),
            trials=sum(len(s.records) for s in self.scenarios),
            reclaimed=self.recovery.reclaimed,
        )

    # ------------------------------------------------------------------
    # Artifacts
    # ------------------------------------------------------------------
    def _scenario_checkpoint_text(self, state: _ScenarioState) -> str:
        """The scenario's checkpoint, byte-identical to a local serial run:
        the canonical header line, then records in trial-index order."""
        lines = [
            checkpoint_header_line(
                strategy=state.strategy_name,
                seed=self.spec.seed,
                num_images=(
                    state.num_images if state.num_images is not None else self.spec.images
                ),
                total_trials=state.total_trials,
                batch_size=self.spec.batch_size,
                baseline_accuracy=state.baseline,
                inferences_per_second=state.ips,
                plan=self.plan.to_dict() if self.plan is not None else None,
            )
        ]
        lines.extend(
            checkpoint_record_line(state.records[index]) for index in sorted(state.records)
        )
        return "".join(lines)

    def _sweep_result(self) -> SweepResult:
        scenario_results = []
        for state in self.scenarios:
            result = CampaignResult(
                baseline_accuracy=state.baseline if state.baseline is not None else 0.0,
                strategy=state.strategy_name,
                num_images=(
                    state.num_images if state.num_images is not None else self.spec.images
                ),
                seed=self.spec.seed,
                emulated_inferences_per_second=state.ips,
            )
            result.records = state.progress.kept(state.records)
            result.recovery = self.recovery.to_dict()
            scenario_results.append(
                ScenarioResult(scenario=state.scenario, result=result)
            )
        return SweepResult(scenario_results=scenario_results)

    def write_artifacts(self) -> None:
        """Durably write per-scenario checkpoints + merged sweep artifacts."""
        sweep = self._sweep_result()
        for state in self.scenarios:
            path = self.artifacts_dir / "scenarios" / state.scenario.checkpoint_name()
            path.parent.mkdir(parents=True, exist_ok=True)
            durable_write_text(path, self._scenario_checkpoint_text(state))
        self.artifacts_dir.mkdir(parents=True, exist_ok=True)
        durable_write_text(self.artifacts_dir / "sweep.jsonl", sweep.merged_jsonl_text())
        payload = {
            "job_id": self.job_id,
            "state": self.state if self.state != JOB_RUNNING else JOB_DONE,
            "spec": self.spec.to_dict(),
            "recovery": self.recovery.to_dict(),
            "structure_digest": sweep.structure_digest(),
            "scenarios": [
                {
                    "scenario": state.scenario.scenario_id,
                    "cell": list(state.scenario.cell),
                    "records": len(scenario_result.result.records),
                    "total_trials": state.total_trials,
                    "baseline_accuracy": state.baseline,
                }
                for state, scenario_result in zip(self.scenarios, sweep.scenario_results)
            ],
        }
        durable_write_text(
            self.artifacts_dir / "result.json",
            dump_json_safe(payload, indent=2, sort_keys=True) + "\n",
        )

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status(self, nodes: int = 0) -> JobStatus:
        return JobStatus(
            job_id=self.job_id,
            state=self.state,
            scenarios_total=len(self.scenarios),
            scenarios_done=sum(1 for state in self.scenarios if state.done),
            trials_total=sum(state.total_trials for state in self.scenarios),
            trials_done=sum(len(state.records) for state in self.scenarios),
            leases=self.recovery.leases,
            reclaimed=self.recovery.reclaimed,
            nodes=nodes,
            error=self.error,
            artifacts_dir=str(self.artifacts_dir),
        )
