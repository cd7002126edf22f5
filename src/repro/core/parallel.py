"""Parallel, resumable fault-injection campaign execution.

Campaign trials are embarrassingly parallel: each one evaluates an
independent :class:`~repro.faults.injector.InjectionConfig` on the same
frozen platform.  This module shards the trial index space of an indexable
:class:`~repro.core.strategies.InjectionStrategy` across a pool of worker
processes and guarantees that the resulting
:class:`~repro.core.results.CampaignResult` records are **identical to the
serial run** for any worker count and across interrupt/resume:

* Trial *i* is a pure function of ``(seed, i)`` — strategies derive all
  randomness from :meth:`SeededRNG.child <repro.utils.rng.SeededRNG.child>`
  streams keyed by the trial's own coordinates, never from iteration order.
* Sharding is deterministic: worker ``w`` of ``N`` evaluates the pending
  indices ``pending[w::N]`` (round-robin, so structured strategies spread
  evenly).  Because records are keyed by trial index, the assignment cannot
  influence the result, only the wall-clock balance.
* Each worker constructs its platform exactly once from a picklable
  :class:`PlatformSpec` and streams one record per finished trial back to
  the parent, which appends it to a JSONL checkpoint file.

Every campaign runs in rounds (:func:`campaign_rounds`): a fixed budget is
the single round ``[(0, total)]`` and an adaptive plan supplies its own.
One loop walks them, handing each round's pending indices to an executor —
in process for ``workers=1``, a persistent worker pool otherwise — and
:func:`round_progress`, the round rule the fleet coordinator applies too,
decides how many rounds are complete, whether the campaign stops and which
records its result keeps.

Checkpoint format (one JSON object per line)::

    {"kind": "header", "version": 1, "strategy": ..., "seed": ...,
     "num_images": ..., "total_trials": ..., "batch_size": ...,
     "baseline_accuracy": ..., "emulated_inferences_per_second": ...}
    {"kind": "record", "trial_index": 0, "description": ..., ...}
    {"kind": "record", "trial_index": 3, ...}

Records may appear in any order (workers finish out of order) and the file
tolerates a torn final line (a run killed mid-write), corrupted mid-file
lines (skipped and counted) and duplicate records from re-leased shards
(collapsed by trial index).  ``resume=True`` loads the completed trial
indices, validates the header against the requested campaign, and evaluates
only the remainder.

Execution is supervised, not fail-fast: every shard is a lease driven by
:class:`~repro.core.supervisor.LeaseSupervisor`, which detects dead and hung
workers, re-runs a lease's remaining trials with bounded retries, and
quarantines (or raises on) shards that keep failing.  See
:mod:`repro.core.supervisor` for the model and :mod:`repro.core.chaos` for
the deterministic fault harness that proves recovered runs stay
byte-identical.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import queue as queue_module
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import IO, Callable, Iterator, Sequence

import numpy as np

from repro.core.campaign import CampaignConfig
from repro.core.chaos import ChaosMonkey
from repro.core.platform import EmulationPlatform, PlatformConfig
from repro.core.results import CampaignResult, TrialRecord
from repro.core.shm import SharedBatch, release_batch, resolve_batch
from repro.core.stats import AdaptiveCampaignPlan
from repro.core.strategies import InjectionStrategy
from repro.core.supervisor import (
    LeaseSupervisor,
    RecoveryLog,
    ShardLease,
    terminate_process,
)
from repro.faults.sites import FaultUniverse
from repro.runtime.gemm import GEMM_STATS
from repro.utils.durable import fsync_fileobj
from repro.utils.logging import get_logger
from repro.utils.profiling import PROFILER, StageProfiler
from repro.utils.telemetry import TELEMETRY
from repro.utils.rng import SeededRNG

logger = get_logger(__name__)

#: Version tag written into checkpoint headers.
CHECKPOINT_VERSION = 1


def checkpoint_header_line(
    *,
    strategy: str,
    seed: int,
    num_images: int,
    total_trials: int | None,
    batch_size: int,
    baseline_accuracy: float,
    inferences_per_second: float | None,
    plan: dict | None = None,
) -> str:
    """The canonical JSONL header line of a campaign checkpoint.

    Factored to module level because byte-identity of checkpoints is an
    invariant across *execution topologies*: the serial runner, the
    multiprocessing pool and the fleet coordinator
    (:mod:`repro.service.coordinator`) must all emit exactly these bytes
    for the same campaign.
    """
    payload: dict = {
        "kind": "header",
        "version": CHECKPOINT_VERSION,
        "strategy": strategy,
        "seed": seed,
        "num_images": num_images,
        "total_trials": total_trials,
        "batch_size": batch_size,
        "baseline_accuracy": baseline_accuracy,
        "emulated_inferences_per_second": inferences_per_second,
    }
    if plan is not None:
        payload["plan"] = plan
    return json.dumps(payload) + "\n"


def checkpoint_record_line(record: TrialRecord) -> str:
    """The canonical JSONL line of one trial record (see header note)."""
    return json.dumps({"kind": "record", **record.to_dict()}) + "\n"

#: Header fields that must match between a checkpoint and the campaign
#: attempting to resume from it.  ``batch_size`` is part of the identity
#: because cycle-dependent fault models (per-cycle transients) derive their
#: firing pattern from each sample's position within its evaluation batch
#: chunk — resuming under a different batch size would silently mix records
#: computed under different effective fault behaviour.
_HEADER_IDENTITY = ("strategy", "seed", "num_images", "total_trials", "batch_size")


# ----------------------------------------------------------------------
# Platform specification (picklable platform recipe for workers)
# ----------------------------------------------------------------------
@dataclass
class PlatformSpec:
    """A picklable recipe from which a worker process builds its platform.

    :class:`~repro.core.platform.EmulationPlatform` itself holds compiled
    loadables, open runtimes and other state that should not cross process
    boundaries; a spec instead carries the trained weights plus everything
    needed to rebuild the platform deterministically.

    Attributes
    ----------
    graph_builder:
        Module-level callable returning the (untrained) model graph; must be
        picklable, i.e. importable by name in the worker process.
    builder_kwargs:
        Keyword arguments for ``graph_builder``.
    state:
        Trained weights, as produced by ``Graph.state_dict()``.
    calibration_images:
        Calibration batch used to quantise the model at build time.
    platform_config:
        Optional :class:`~repro.core.platform.PlatformConfig`; workers and
        the parent must share it for results to be identical.
    """

    graph_builder: Callable
    builder_kwargs: dict
    state: dict[str, np.ndarray]
    calibration_images: np.ndarray
    platform_config: PlatformConfig | None = None

    def geometry(self):
        return (self.platform_config or PlatformConfig()).geometry

    def universe(self) -> FaultUniverse:
        """The fault universe of the platform this spec builds."""
        geometry = self.geometry()
        return FaultUniverse(geometry.num_macs, geometry.muls_per_mac)

    def build(self) -> EmulationPlatform:
        """Construct the platform (expensive: compiles and calibrates)."""
        graph = self.graph_builder(**self.builder_kwargs)
        graph.load_state_dict(self.state)
        graph.eval()
        return EmulationPlatform(graph, self.calibration_images, config=self.platform_config)


# ----------------------------------------------------------------------
# Checkpoint I/O
# ----------------------------------------------------------------------
def load_checkpoint(
    path: Path | str,
) -> tuple[dict | None, dict[int, TrialRecord], dict[str, int]]:
    """Read a JSONL checkpoint, returning ``(header, records_by_index, stats)``.

    Crash-safe: tolerates a torn final line, corrupted mid-file lines
    (bit-rot, a write torn by a kill anywhere in the file) and duplicate
    records from re-leased shards — a worker that delivered a record and
    then died leaves the record in the file, and the shard's re-run appends
    it again.  Duplicates collapse by trial index; since trials are pure
    functions of ``(seed, index)``, duplicate entries that *disagree* mean
    the determinism invariant is broken and raise instead of being silently
    merged.  ``stats`` counts what was healed: ``corrupt_lines``,
    ``duplicate_records`` and ``unknown_lines``.
    """
    header: dict | None = None
    records: dict[int, TrialRecord] = {}
    stats = {"corrupt_lines": 0, "duplicate_records": 0, "unknown_lines": 0}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            logger.warning("checkpoint %s: skipping corrupt line %d", path, lineno)
            stats["corrupt_lines"] += 1
            continue
        if not isinstance(data, dict):
            logger.warning(
                "checkpoint %s: skipping non-object line %d (%s)",
                path, lineno, type(data).__name__,
            )
            stats["corrupt_lines"] += 1
            continue
        kind = data.pop("kind", None)
        if kind == "header":
            if header is None:
                header = data
        elif kind == "record":
            try:
                record = TrialRecord.from_dict(data)
            except (TypeError, ValueError, KeyError) as exc:
                logger.warning(
                    "checkpoint %s: skipping malformed record on line %d (%s)",
                    path, lineno, exc,
                )
                stats["corrupt_lines"] += 1
                continue
            existing = records.get(record.trial_index)
            if existing is None:
                records[record.trial_index] = record
            elif existing == record:
                stats["duplicate_records"] += 1
            else:
                raise ValueError(
                    f"checkpoint {path}: line {lineno} repeats trial "
                    f"{record.trial_index} with different contents; trials are "
                    "pure functions of (seed, index), so conflicting duplicates "
                    "mean the records cannot be trusted — delete the checkpoint "
                    "and re-run"
                )
        else:
            logger.warning("checkpoint %s: skipping unknown line kind %r", path, kind)
            stats["unknown_lines"] += 1
    if stats["corrupt_lines"] or stats["duplicate_records"]:
        logger.info(
            "checkpoint %s: healed %d corrupt line(s), collapsed %d duplicate record(s)",
            path, stats["corrupt_lines"], stats["duplicate_records"],
        )
    return header, records, stats


def shard_indices(indices: Sequence[int], workers: int) -> list[list[int]]:
    """Deterministic round-robin partition of ``indices`` across ``workers``.

    Every index appears in exactly one shard; empty shards are dropped.
    Round-robin interleaving spreads structured strategies (e.g. the
    exhaustive sweep's per-value blocks) evenly across workers.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    shards = [list(indices[w::workers]) for w in range(workers)]
    return [shard for shard in shards if shard]


def records_for_indices(
    platform: EmulationPlatform,
    strategy: InjectionStrategy,
    indices: Sequence[int],
    baseline: float,
    images: np.ndarray,
    labels: np.ndarray,
    config: CampaignConfig,
) -> Iterator[TrialRecord]:
    """Yield the records of trials ``indices`` evaluated on ``platform``.

    The one evaluation path of every executor — the in-process one, a pool
    worker and a fleet node — so records are bit-identical wherever a trial
    runs.  Trial *i* is ``strategy.trial_at(..., i)``; a sequential strategy
    that implements only ``trials()`` is streamed instead, skipping the
    indices not asked for.  Consecutive trials are evaluated
    ``config.fused_trials`` at a time through
    :meth:`EmulationPlatform.accuracies_with_faults`, which runs fusable
    configurations as stacked multi-trial engine passes and the rest one at
    a time — the records are bit-identical to per-trial evaluation for any
    group size, so sharding, resuming and fusing compose freely.
    """
    rng = SeededRNG(config.seed)
    universe = platform.universe
    if strategy.supports_random_access:
        pairs = ((index, strategy.trial_at(universe, rng, index)) for index in indices)
    else:
        wanted = set(indices)
        pairs = (
            pair for pair in enumerate(strategy.trials(universe, rng)) if pair[0] in wanted
        )
    group = max(1, config.fused_trials)
    while chunk := list(islice(pairs, group)):
        configs = [trial.config for _, trial in chunk]
        if len(configs) == 1:
            accuracies = [platform.accuracy_with_faults(
                configs[0], images, labels, batch_size=config.batch_size
            )]
        else:
            accuracies = platform.accuracies_with_faults(
                configs, images, labels, batch_size=config.batch_size
            )
        for (index, trial), accuracy in zip(chunk, accuracies):
            yield TrialRecord(
                trial_index=index,
                description=trial.config.describe(),
                num_faults=trial.num_faults,
                injected_value=trial.injected_value,
                mac_unit=trial.mac_unit,
                multiplier=trial.multiplier,
                accuracy=accuracy,
                accuracy_drop=baseline - accuracy,
                metadata=dict(trial.metadata),
            )


# ----------------------------------------------------------------------
# The round rule (shared with the fleet's lease book)
# ----------------------------------------------------------------------
def campaign_rounds(plan: AdaptiveCampaignPlan | None, total: int) -> list[tuple[int, int]]:
    """Half-open trial-index ranges a campaign runs in, one round at a time.

    A fixed budget is the single round ``[(0, total)]``; an adaptive plan
    partitions its (possibly capped) budget into rounds of its own size.
    """
    if plan is None:
        return [(0, total)]
    return plan.round_bounds(plan.budget(total))


@dataclass(frozen=True)
class RoundProgress:
    """Where a campaign stands in its rounds (see :func:`round_progress`)."""

    #: Leading rounds with a record for every trial index.
    rounds: int = 0
    #: Trial-index bound of those rounds.
    end: int = 0
    #: No further round runs.
    stopped: bool = False
    #: Trials missing from the round whose holes ended the campaign.
    missing: int = 0
    #: An adaptive plan's result keeps only its complete rounds' records.
    adaptive: bool = False

    def kept(self, records: dict[int, TrialRecord]) -> list[TrialRecord]:
        """The records a result keeps, in trial-index order.

        A fixed budget keeps every record.  An adaptive plan keeps only the
        records of its complete rounds: its estimate, and the stopping
        decision behind it, cover exactly those.
        """
        indices = range(self.end) if self.adaptive else sorted(records)
        return [records[index] for index in indices]


def round_progress(
    plan: AdaptiveCampaignPlan | None,
    bounds: Sequence[tuple[int, int]],
    records: dict[int, TrialRecord],
    since: RoundProgress | None = None,
) -> RoundProgress:
    """The one round rule of every campaign, local or fleet.

    Walks the rounds after ``since`` (all of them when ``None``, e.g. on
    resume): a round is complete once every index in it has a record, and
    after each complete round the plan's stopping rule — a pure function
    of the complete rounds' records — may end the campaign, as does the
    last round completing.  ``since`` means round ``since.rounds`` has just
    been run to settlement; if it still has holes (trials of a quarantined
    poison shard), the campaign ends at the last complete round.  Without
    ``since``, holes are just work left to do.
    """
    if since is not None and since.stopped:
        return since
    rounds, end = (since.rounds, since.end) if since is not None else (0, 0)
    adaptive = plan is not None
    for start, stop in bounds[rounds:]:
        missing = sum(1 for index in range(start, stop) if index not in records)
        if missing:
            if since is not None and rounds == since.rounds:
                return RoundProgress(rounds, end, True, missing, adaptive)
            return RoundProgress(rounds, end, False, 0, adaptive)
        rounds, end = rounds + 1, stop
        if adaptive and plan.should_stop(rounds, [records[index] for index in range(stop)]):
            break
    return RoundProgress(rounds, end, True, 0, adaptive)


# ----------------------------------------------------------------------
# Pool workers
# ----------------------------------------------------------------------
def _worker_setup(config: CampaignConfig) -> None:
    """Reset per-process counters a forked worker inherited from the parent."""
    # Ctrl-C belongs to the parent: it terminates the pool, flushes the
    # checkpoint and prints a resume hint.  Workers reacting to the terminal's
    # SIGINT on their own would just spray KeyboardInterrupt tracebacks over
    # that one-line message.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # The parent may have installed a raising SIGTERM handler (graceful
        # CLI termination with a resume hint); forked workers inherit it,
        # but for them SIGTERM is the supervisor's terminate_process() and
        # must keep its default kill semantics.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except ValueError:  # pragma: no cover - non-main-thread start methods
        pass
    GEMM_STATS.reset()
    PROFILER.enabled = config.profile
    PROFILER.reset()
    # The parent's telemetry sink (if --trace armed one) was inherited
    # across fork; workers must not write to the shared file descriptor.
    TELEMETRY.disable_inherited()


def _process_stats(platform: EmulationPlatform, gemm: dict, profile: bool) -> dict:
    """Execution statistics one process contributes to ``runtime_stats``."""
    return {
        "gemm": gemm,
        "clean_cache": platform.gemm_cache_stats(),
        "tape": platform.tape_stats(),
        "profile": PROFILER.as_dict() if profile else None,
    }


def _round_worker(
    token: tuple[int, int],
    spec: PlatformSpec,
    strategy: InjectionStrategy,
    config: CampaignConfig,
    batch,
    tasks: mp.Queue,
    results: mp.Queue,
) -> None:
    """Pool worker entry point: build the platform once, then serve leases.

    Every item from ``tasks`` is one lease's trial indices: the worker
    streams one ``record`` per trial, then ``done`` to complete the lease,
    and stays warm for the next round until the ``None`` sentinel retires
    it with a final ``stats`` message.  ``batch`` is either a zero-copy
    :class:`~repro.core.shm.SharedBatch` (mapped, not pickled) or a plain
    ``(images, labels)`` tuple.

    ``token`` is ``(pool slot, epoch)`` and tags every message: the epoch
    bumps every time the slot's process is respawned after a death or hang,
    so a terminated worker's late messages can never complete a later
    attempt's lease.
    """
    try:
        _worker_setup(config)
        monkey = ChaosMonkey(config.chaos, token[0], token[1], results)
        images, labels = resolve_batch(batch)
        platform = spec.build()
        platform.reset_caches()
        baseline = platform.baseline_accuracy(images, labels, batch_size=config.batch_size)
        results.put(("meta", token, (baseline, platform.inferences_per_second())))
        monkey.on_record(0)
        emitted = 0
        for indices in iter(tasks.get, None):
            for record in records_for_indices(
                platform, strategy, indices, baseline, images, labels, config
            ):
                results.put(("record", token, record))
                emitted += 1
                monkey.on_record(emitted)
            results.put(("done", token, None))
        stats = _process_stats(platform, GEMM_STATS.as_dict(), config.profile)
        results.put(("stats", token, stats))
    except Exception:  # pragma: no cover - exercised via the parent's error path
        results.put(("error", token, traceback.format_exc()))
    finally:
        release_batch(batch)


@dataclass
class _PoolSlot:
    """One persistent pool-worker slot; the epoch bumps on respawn."""

    slot_id: int
    proc: object | None = None
    tasks: object | None = None
    epoch: int = -1


# ----------------------------------------------------------------------
# One run's merge point and its two executors
# ----------------------------------------------------------------------
class _Ledger:
    """Baseline, records and checkpoint of one run.

    Both executors report here, so what reaches the checkpoint and the
    result does not depend on where a trial ran.  Records are written one
    line per record, as each arrives.
    """

    def __init__(
        self,
        runner: "ParallelCampaignRunner",
        header: dict | None,
        completed: dict[int, TrialRecord],
        num_images: int,
        total: int,
    ):
        self.runner = runner
        self.records = dict(completed)
        self.num_images = num_images
        self.total = total
        self.baseline: float | None = None
        self.ips: float | None = None
        self.reference = "the checkpoint header"
        if header is not None:
            self.baseline = header["baseline_accuracy"]
            self.ips = header.get("emulated_inferences_per_second")
        self.header_written = header is not None
        self.writer = runner._open_checkpoint(fresh=header is None)

    def meta(self, baseline: float, ips: float | None) -> None:
        if self.baseline is None:
            self.baseline, self.ips = baseline, ips
            self.reference = "another worker"
        else:
            # Every process must reproduce the exact same baseline — this
            # is the determinism invariant the records rely on.
            self.runner._check_baseline(baseline, self.baseline, self.reference)
        if not self.header_written:
            self.runner._write_header(self.writer, self.baseline, self.ips, self.num_images)
            self.header_written = True

    def record(self, record: TrialRecord) -> None:
        self.records[record.trial_index] = record
        self.runner._write_record(self.writer, record)
        log_every = self.runner.config.log_every
        if log_every and len(self.records) % log_every == 0:
            logger.info(
                "completed %d/%d trials (trial %d: %s -> accuracy %.3f, drop %.3f)",
                len(self.records), self.total, record.trial_index,
                record.description, record.accuracy, record.accuracy_drop,
            )

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()


class _InProcessExecutor:
    """Runs every round in this process, on the runner's own platform."""

    recovery = None

    def __init__(self, runner: "ParallelCampaignRunner", ledger: _Ledger, images, labels):
        cfg = runner.config
        self.runner, self.ledger = runner, ledger
        self.images, self.labels = images, labels
        platform = runner.platform if runner.platform is not None else runner.spec.build()
        # Fresh cache/tape per run: deterministic memory profile, and reused
        # platforms (serial campaigns) don't carry entries across campaigns.
        platform.reset_caches()
        self.platform = platform
        self.gemm_before = GEMM_STATS.as_dict()
        if cfg.profile:
            PROFILER.enabled = True
            PROFILER.reset()
        self.baseline = platform.baseline_accuracy(images, labels, batch_size=cfg.batch_size)
        ledger.meta(self.baseline, platform.inferences_per_second())

    def __enter__(self) -> "_InProcessExecutor":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def run_round(self, indices: list[int]) -> None:
        for record in records_for_indices(
            self.platform, self.runner.strategy, indices, self.baseline,
            self.images, self.labels, self.runner.config,
        ):
            self.ledger.record(record)

    def finish(self) -> dict | None:
        gemm = {
            key: value - self.gemm_before.get(key, 0)
            for key, value in GEMM_STATS.as_dict().items()
        }
        part = _process_stats(self.platform, gemm, self.runner.config.profile)
        return ParallelCampaignRunner._aggregate_runtime_stats([part], workers=1)


class _PoolExecutor:
    """Runs every round on persistent :func:`_round_worker` processes.

    Each round's pending indices are sharded round-robin into one
    :class:`~repro.core.supervisor.ShardLease` per pool slot and driven by a
    :class:`~repro.core.supervisor.LeaseSupervisor`.  A healthy slot keeps
    its warm worker (platform already built) across rounds; a slot whose
    worker died or hung gets a fresh process under a bumped epoch.
    """

    def __init__(self, runner: "ParallelCampaignRunner", ledger: _Ledger, images, labels):
        self.runner, self.ledger = runner, ledger
        self.images, self.labels = images, labels
        # fork is cheap (the spec crosses the process boundary by page
        # sharing, not pickling) but only reliably safe on Linux; macOS
        # frameworks (Accelerate, libdispatch) are not fork-safe.
        method = runner.start_method or (
            "fork"
            if sys.platform == "linux" and "fork" in mp.get_all_start_methods()
            else "spawn"
        )
        self.ctx = mp.get_context(method)
        self.results: mp.Queue = self.ctx.Queue()
        self.slots = [_PoolSlot(slot_id) for slot_id in range(runner.workers)]
        self.recovery = RecoveryLog()
        self.stats_parts: list[dict] = []
        # Made on the first round with work, and unlinked by __exit__:
        # workers release their attachment in a `finally`, but a worker
        # killed mid-trial never runs it, so the parent is the only thing
        # standing between an abnormal exit and a leaked /dev/shm segment.
        self.batch = None
        self.shared = None

    def __enter__(self) -> "_PoolExecutor":
        return self

    def __exit__(self, *exc) -> None:
        for slot in self.slots:
            terminate_process(slot.proc)
        if self.shared is not None:
            self.shared.unlink()

    def run_round(self, indices: list[int]) -> None:
        if not indices:
            return
        if self.batch is None:
            self.batch, self.shared = self.runner._make_batch(self.images, self.labels)
        cfg = self.runner.config
        shards = shard_indices(indices, self.runner.workers)
        LeaseSupervisor(
            [ShardLease(slot_id, shard) for slot_id, shard in enumerate(shards)],
            results=self.results,
            spawn=self._spawn,
            reap=self._reap,
            handle=self._handle,
            max_retries=cfg.max_shard_retries,
            timeout=cfg.shard_timeout,
            backoff=cfg.retry_backoff,
            poison_policy=cfg.poison_policy,
            recovery=self.recovery,
        ).run()

    def _handle(self, kind: str, payload) -> None:
        if kind == "meta":
            self.ledger.meta(*payload)
        elif kind == "record":
            self.ledger.record(payload)

    def _spawn(self, lease: ShardLease) -> tuple[object, tuple[int, int]]:
        # Lease ids are pool slot ids.  A re-leased shard serves only what
        # its failed worker left behind; records are keyed by index, so
        # re-running a subset is byte-identical to running it once.
        slot = self.slots[lease.lease_id]
        if slot.proc is None or not slot.proc.is_alive():
            slot.epoch += 1
            slot.tasks = self.ctx.Queue()
            slot.proc = self.ctx.Process(
                target=_round_worker,
                args=((slot.slot_id, slot.epoch), self.runner.spec, self.runner.strategy,
                      self.runner.config, self.batch, slot.tasks, self.results),
                daemon=True,
            )
            slot.proc.start()
        slot.tasks.put(sorted(lease.remaining))
        return slot.proc, (slot.slot_id, slot.epoch)

    def _reap(self, lease: ShardLease, failed: bool) -> None:
        if failed:
            # The slot's worker is unusable (dead, hung or erroring): stop
            # it so the next attempt respawns under a new epoch.
            terminate_process(self.slots[lease.lease_id].proc)
        # failed=False: keep the persistent worker warm for later rounds.

    def finish(self, deadline: float = 30.0) -> dict | None:
        """Retire surviving workers, collecting their final stats.

        Deadline-aware: a worker that dies or hangs while retiring forfeits
        its stats (they are observational) instead of stalling the campaign.
        """
        waiting = set()
        for slot in self.slots:
            if slot.proc is not None and slot.proc.is_alive():
                slot.tasks.put(None)
                waiting.add(slot.slot_id)
        deadline_at = time.monotonic() + deadline
        while waiting and time.monotonic() < deadline_at:
            try:
                kind, (slot_id, epoch), payload = self.results.get(timeout=0.25)
            except queue_module.Empty:
                waiting -= {s for s in waiting if not self.slots[s].proc.is_alive()}
                continue
            if epoch != self.slots[slot_id].epoch:
                continue  # a terminated epoch's stragglers
            if kind == "stats":
                self.stats_parts.append(payload)
                waiting.discard(slot_id)
                self.slots[slot_id].proc.join()
            elif kind in ("record", "meta"):
                # Late but valid data from the current epoch (deterministic,
                # deduplicated by trial index).
                self._handle(kind, payload)
        for slot_id in waiting:  # pragma: no cover - retirement stall
            logger.warning(
                "pool worker %d did not retire within %.0fs; terminating", slot_id, deadline
            )
            terminate_process(self.slots[slot_id].proc)
        return ParallelCampaignRunner._aggregate_runtime_stats(
            self.stats_parts, self.runner.workers
        )


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class ParallelCampaignRunner:
    """Executes a campaign's trials in rounds, in process or on a worker pool.

    One loop serves every mode: it loads the resume state, walks the
    campaign's rounds (:func:`campaign_rounds` — a fixed budget is one
    round) and hands each round's pending indices to an executor, applying
    :func:`round_progress` after each.  Serial execution (``workers=1``) is
    the in-process executor, used by
    :class:`~repro.core.campaign.FaultInjectionCampaign`; it accepts either
    an already-built :class:`~repro.core.platform.EmulationPlatform` or a
    :class:`PlatformSpec`.  Parallel execution requires a spec (platforms do
    not cross process boundaries) and a strategy that supports random trial
    access (:meth:`~repro.core.strategies.InjectionStrategy.trial_at`).

    Example
    -------
    ::

        spec, case = case_study_platform_spec()
        runner = ParallelCampaignRunner(
            spec, RandomMultipliers(), CampaignConfig(seed=0),
            workers=4, checkpoint="campaign.jsonl",
        )
        result = runner.run(images, labels)          # kill it mid-run, then:
        runner = ParallelCampaignRunner(..., resume=True)
        result = runner.run(images, labels)          # identical records
    """

    def __init__(
        self,
        platform_or_spec: EmulationPlatform | PlatformSpec,
        strategy: InjectionStrategy,
        config: CampaignConfig | None = None,
        *,
        workers: int = 1,
        checkpoint: Path | str | None = None,
        resume: bool = False,
        start_method: str | None = None,
        plan: AdaptiveCampaignPlan | None = None,
    ):
        if isinstance(platform_or_spec, PlatformSpec):
            self.spec: PlatformSpec | None = platform_or_spec
            self.platform: EmulationPlatform | None = None
        elif isinstance(platform_or_spec, EmulationPlatform):
            self.spec = None
            self.platform = platform_or_spec
        else:
            raise TypeError(
                f"expected EmulationPlatform or PlatformSpec, got {type(platform_or_spec).__name__}"
            )
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if workers > 1 and self.spec is None:
            raise ValueError(
                "parallel execution needs a picklable PlatformSpec; an "
                "EmulationPlatform cannot be shipped to worker processes"
            )
        if workers > 1 and not strategy.supports_random_access:
            raise TypeError(
                f"strategy {strategy.name!r} overrides only trials() and cannot be "
                "sharded; implement trial_at()/expected_trials() for parallel runs"
            )
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint path")
        if plan is not None and not strategy.supports_random_access:
            raise TypeError(
                f"adaptive campaigns evaluate the trial index space in rounds; "
                f"strategy {strategy.name!r} must implement trial_at()/expected_trials()"
            )
        self.plan = plan
        self.strategy = strategy
        self.config = config or CampaignConfig()
        self.workers = workers
        self.checkpoint = Path(checkpoint) if checkpoint is not None else None
        self.resume = resume
        self.start_method = start_method
        #: What load_checkpoint had to heal on resume (folded into the
        #: result's recovery provenance).
        self._checkpoint_stats: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, images: np.ndarray, labels: np.ndarray) -> CampaignResult:
        """Execute all (remaining) trials and return the merged result."""
        cfg = self.config
        if cfg.max_images is not None:
            images = images[: cfg.max_images]
            labels = labels[: cfg.max_images]
        if len(images) != len(labels):
            raise ValueError("images and labels must have the same length")
        if len(images) == 0:
            raise ValueError("campaign needs at least one evaluation image")

        header, completed = self._load_resume_state(len(labels))
        start = time.perf_counter()
        profiler_was_enabled = PROFILER.enabled
        with TELEMETRY.span(
            "campaign.run",
            strategy=type(self.strategy).__name__,
            workers=self.workers,
            resumed=len(completed),
        ) as span:
            try:
                result = self._run_rounds(images, labels, header, completed)
            finally:
                # The in-process executor arms the process-global profiler
                # when config.profile is set; restore it even when a run
                # raises so later campaigns in this process don't silently
                # pay for (and pollute) profiling state.
                PROFILER.enabled = profiler_was_enabled
            result.wall_seconds = time.perf_counter() - start
            result.sort_records()
            span["num_records"] = len(result)
        self._emit_runtime_telemetry(result)
        return result

    def _run_rounds(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        header: dict | None,
        completed: dict[int, TrialRecord],
    ) -> CampaignResult:
        """The one run loop: walk the rounds, one executor call per round."""
        plan = self.plan
        total = self._trial_count()
        bounds = campaign_rounds(plan, total)
        ledger = _Ledger(self, header, completed, len(labels), total)
        records = ledger.records
        progress = round_progress(plan, bounds, records)
        # A pool needs work to report a baseline; with nothing to run and no
        # header to take it from, the in-process executor establishes it.
        in_process = self.workers == 1 or (progress.stopped and header is None)
        executor_type = _InProcessExecutor if in_process else _PoolExecutor
        try:
            with executor_type(self, ledger, images, labels) as executor:
                while not progress.stopped:
                    start, end = bounds[progress.rounds]
                    executor.run_round([i for i in range(start, end) if i not in records])
                    progress = round_progress(plan, bounds, records, since=progress)
                    self._log_round(progress, bounds, records)
                runtime_stats = executor.finish()
        finally:
            ledger.close()

        if ledger.baseline is None:
            # No worker survived long enough to report a baseline (every
            # shard quarantined before its meta message) and the header
            # carried none either.
            raise RuntimeError("campaign finished without establishing a baseline accuracy")
        result = CampaignResult(
            baseline_accuracy=ledger.baseline,
            strategy=self.strategy.name,
            num_images=len(labels),
            seed=self.config.seed,
            emulated_inferences_per_second=ledger.ips,
        )
        result.records = progress.kept(records)
        if plan is not None:
            budget = plan.budget(total)
            interval = plan.interval(result.records)
            result.adaptive = {
                "plan": plan.to_dict(),
                "budget": budget,
                "rounds_completed": progress.rounds,
                "trials_evaluated": progress.end,
                "stopped_early": progress.end < budget,
                "final_half_width": interval.half_width if interval is not None else None,
                "final_interval": interval.to_dict() if interval is not None else None,
            }
        result.runtime_stats = runtime_stats
        if executor.recovery is not None:
            result.recovery = self._recovery_dict(executor.recovery)
        return result

    def _log_round(
        self,
        progress: RoundProgress,
        bounds: list[tuple[int, int]],
        records: dict[int, TrialRecord],
    ) -> None:
        if progress.missing:
            logger.error(
                "round %d is missing %d trial(s) from poison shard(s); "
                "the campaign ends after round %d",
                progress.rounds + 1, progress.missing, progress.rounds,
            )
        elif self.plan is not None and self.config.log_every:
            interval = self.plan.interval(progress.kept(records))
            logger.info(
                "round %d/%d (%d trials): half-width %s (target %g)",
                progress.rounds, len(bounds), progress.end,
                "n/a" if interval is None else f"{interval.half_width:.4f}",
                self.plan.target_half_width,
            )

    # ------------------------------------------------------------------
    # Resume / checkpoint plumbing
    # ------------------------------------------------------------------
    def _universe(self) -> FaultUniverse:
        if self.platform is not None:
            return self.platform.universe
        return self.spec.universe()

    def _total_trials(self) -> int | None:
        try:
            return self.strategy.expected_trials(self._universe())
        except NotImplementedError:
            return None

    def _trial_count(self) -> int:
        """Size of the trial index space.

        A sequential strategy (only ``trials()``) has no
        ``expected_trials()``, so its stream is counted: generating a trial
        is cheap next to evaluating it.
        """
        total = self._total_trials()
        if total is None:
            rng = SeededRNG(self.config.seed)
            total = sum(1 for _ in self.strategy.trials(self._universe(), rng))
        return total

    def _load_resume_state(self, num_images: int) -> tuple[dict | None, dict[int, TrialRecord]]:
        """Load and validate the checkpoint; returns (header, completed records)."""
        if self.checkpoint is None or not self.checkpoint.exists():
            if self.resume and self.checkpoint is not None:
                logger.info("checkpoint %s does not exist yet; starting fresh", self.checkpoint)
            return None, {}
        if not self.resume:
            raise FileExistsError(
                f"checkpoint {self.checkpoint} already exists; pass resume=True "
                "(--resume) to continue it or delete it to start over"
            )
        header, completed, stats = load_checkpoint(self.checkpoint)
        self._checkpoint_stats = stats
        if header is None:
            if completed:
                # Never silently truncate completed work: a missing/corrupt
                # header with intact records needs a human decision.
                raise ValueError(
                    f"checkpoint {self.checkpoint} has {len(completed)} records but no "
                    "readable header; repair the header line or delete the file to start over"
                )
            logger.warning("checkpoint %s has no readable header; starting fresh", self.checkpoint)
            return None, {}
        expected = {
            "strategy": self.strategy.name,
            "seed": self.config.seed,
            "num_images": num_images,
            "total_trials": self._total_trials(),
            "batch_size": self.config.batch_size,
            # The adaptive plan is campaign identity: it decides *which*
            # trials get evaluated (the stopping round), so resuming under a
            # different plan — or resuming a fixed-budget checkpoint
            # adaptively — would yield records a one-shot run of this
            # campaign could never produce.  Legacy checkpoints carry no
            # "plan" key, which get() maps to None = fixed-budget.
            "plan": self.plan.to_dict() if self.plan is not None else None,
        }
        for key in (*_HEADER_IDENTITY, "plan"):
            if key == "batch_size" and key not in header:
                # Legacy checkpoint written before batch_size joined the
                # identity (i.e. before cycle-dependent fault models existed,
                # whose firing pattern is the reason it matters); accept it.
                continue
            if header.get(key) != expected[key]:
                raise ValueError(
                    f"checkpoint {self.checkpoint} belongs to a different campaign: "
                    f"{key}={header.get(key)!r} but this run has {key}={expected[key]!r}"
                )
        logger.info(
            "resuming from %s: %d/%s trials already complete",
            self.checkpoint,
            len(completed),
            header.get("total_trials", "?"),
        )
        return header, completed

    def _open_checkpoint(self, fresh: bool) -> IO[str] | None:
        if self.checkpoint is None:
            return None
        self.checkpoint.parent.mkdir(parents=True, exist_ok=True)
        if fresh:
            return self.checkpoint.open("w")
        writer = self.checkpoint.open("a")
        # A run killed mid-write can leave a torn final line with no trailing
        # newline; terminate it so appended records start on their own line
        # (the torn fragment itself is skipped by load_checkpoint).
        size = self.checkpoint.stat().st_size
        if size > 0:
            with self.checkpoint.open("rb") as handle:
                handle.seek(size - 1)
                if handle.read(1) != b"\n":
                    writer.write("\n")
        return writer

    def _write_header(
        self, writer: IO[str] | None, baseline: float, ips: float | None, num_images: int
    ) -> None:
        if writer is None:
            return
        writer.write(checkpoint_header_line(
            strategy=self.strategy.name,
            seed=self.config.seed,
            num_images=num_images,
            total_trials=self._total_trials(),
            batch_size=self.config.batch_size,
            baseline_accuracy=baseline,
            inferences_per_second=ips,
            plan=self.plan.to_dict() if self.plan is not None else None,
        ))
        # fsync, not just flush: the checkpoint is what survives a node
        # power-loss, and a header that never reached stable storage makes
        # every following record unresumable.
        fsync_fileobj(writer)

    @staticmethod
    def _write_record(writer: IO[str] | None, record: TrialRecord) -> None:
        if writer is None:
            return
        writer.write(checkpoint_record_line(record))
        fsync_fileobj(writer)

    @staticmethod
    def _check_baseline(observed: float, reference: float, source: str) -> None:
        if observed != reference:
            raise RuntimeError(
                f"baseline accuracy {observed!r} disagrees with {source} "
                f"({reference!r}); the platform or dataset is not deterministic, "
                "so campaign records would not be reproducible"
            )

    # ------------------------------------------------------------------
    # Runtime statistics (observational; never part of campaign identity)
    # ------------------------------------------------------------------
    @staticmethod
    def _sum_counters(parts: list[dict | None]) -> dict | None:
        """Sum the numeric counters of per-process stats dicts.

        Booleans and derived rates are dropped (they do not add); hit rates
        are recomputed from the summed counters by the caller.
        """
        present = [p for p in parts if p]
        if not present:
            return None
        out: dict[str, int | float] = {}
        for part in present:
            for key, value in part.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                if key.endswith("_rate"):
                    continue
                out[key] = out.get(key, 0) + value
        return out

    @classmethod
    def _aggregate_runtime_stats(cls, parts: list[dict], workers: int) -> dict | None:
        """Merge per-process stats payloads into ``CampaignResult.runtime_stats``.

        Before this aggregation existed, everything a worker process counted
        (GEMM kernel dispatch, cache/tape hit rates, stage profiles) was
        silently dropped when the process exited; now each worker ships one
        stats message and the totals land in the campaign result.
        """
        if not parts:
            return None
        gemm = cls._sum_counters([p.get("gemm") for p in parts])
        cache = cls._sum_counters([p.get("clean_cache") for p in parts])
        if cache is not None:
            lookups = cache.get("hits", 0) + cache.get("misses", 0)
            cache["hit_rate"] = (cache.get("hits", 0) / lookups) if lookups else 0.0
        tape = cls._sum_counters([p.get("tape") for p in parts])
        if tape is not None:
            layers = tape.get("layer_hits", 0) + tape.get("layer_misses", 0)
            tape["layer_hit_rate"] = (tape.get("layer_hits", 0) / layers) if layers else 0.0
        profiles = [p.get("profile") for p in parts if p.get("profile")]
        return {
            "processes": len(parts),
            "workers": workers,
            "gemm": gemm,
            "clean_cache": cache,
            "tape": tape,
            "profile": StageProfiler.merge_dicts(profiles) if profiles else None,
        }

    @staticmethod
    def _emit_runtime_telemetry(result: CampaignResult) -> None:
        """Ship the aggregated cache/kernel counters to the trace sink.

        Purely observational (counter events never feed back into records);
        a single attribute check when tracing is off.
        """
        if not TELEMETRY.enabled:
            return
        stats = result.runtime_stats or {}
        for group in ("gemm", "clean_cache", "tape"):
            counters = stats.get(group)
            if not counters:
                continue
            for key in sorted(counters):
                TELEMETRY.counter(f"{group}.{key}", counters[key])
        TELEMETRY.event(
            "campaign.runtime-stats",
            strategy=result.strategy,
            num_records=len(result),
            processes=stats.get("processes"),
            workers=stats.get("workers"),
        )

    def _make_batch(self, images: np.ndarray, labels: np.ndarray):
        """``(batch payload, shared handle or None)`` for worker processes.

        With ``shared_batches`` the arrays live in one shared-memory block
        that workers map instead of unpickling private copies; any failure
        degrades to passing the arrays directly.
        """
        if self.config.shared_batches:
            try:
                shared = SharedBatch.create(images, labels)
                return shared, shared
            except Exception as exc:  # pragma: no cover - platform-specific
                logger.warning(
                    "shared-memory batch unavailable (%s); passing arrays directly", exc
                )
        return (images, labels), None


    def _recovery_dict(self, recovery: RecoveryLog) -> dict:
        """Recovery provenance for the result (observational, never identity)."""
        out = recovery.to_dict()
        if any(self._checkpoint_stats.values()):
            out["checkpoint"] = dict(self._checkpoint_stats)
        return out
