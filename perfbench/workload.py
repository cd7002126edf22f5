"""One repetition of a benchmark workload, in a fresh process tree.

``run.py`` starts this once per repetition so that every repetition pays its
own set-up and its peak memory is not inherited from an earlier one.  It can
also be run by hand from the repository root::

    PYTHONPATH=src python perfbench/workload.py --workload fig2-dense --seed 0 \\
        --weights .bench_build/perfbench/weights --out /tmp/rep [--trace]

The workload's spec is validated, then run as the user would run it: a
``SweepRunner`` (serially or on a process pool, with per-record durable
checkpoints) or a ``CampaignCoordinator`` in this process with HTTP worker
nodes in child processes.  The only instrument that is always on is a clock
on record delivery: the checkpoint line writer for sweeps, the coordinator's
record merge for the fleet.  ``--trace`` additionally installs the
outside-in tracer of ``tracer.py`` in every process of the tree.

The repetition writes ``<out>/result.json``: set-up time, the trial window,
record counts and delivery times, peak memory, where the merged records
are, and (traced) the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPECS = HERE / "specs"


@dataclass(frozen=True)
class Workload:
    """A benchmark workload: a committed spec plus how it is executed."""

    spec: str
    #: "serial" / "pool" run through SweepRunner; "fleet" through the service.
    mode: str
    workers: int
    #: Trials per fused engine pass (``repro sweep --fused-trials``).  The
    #: serial workload streams one record per trial, so the time to the first
    #: record and the record cadence measure trials, not delivery groups.  It
    #: leaves its engine path as it is at the default of 8: a fused pass
    #: would stack at most one trial at 64 images, so every trial takes the
    #: serial path either way (0 ``accuracy_multi`` calls traced).
    fused_trials: int
    #: Trials of each repetition re-run on a tape-off platform by the check.
    check_trials: int
    #: Records per timing block of ``trials_per_s`` (``run.py``): one trial
    #: for the serial workload, several delivery bursts (fused groups of 8
    #: on the pool, record batches of 8 from a fleet node) for memdw.
    block: int


#: Why each workload exists is recorded in BENCHMARK.json.  The fleet runs
#: one node, so the coordinator and the node are as many processes as the 2
#: cores the benchmark was sized on; with two nodes beside the coordinator
#: its trials/s moved by up to 40% between sets of runs on a 2-vCPU VM.
WORKLOADS: dict[str, Workload] = {
    "fig2-dense": Workload("fig2-dense.toml", "serial", 1, 1, 1, 1),
    "memdw-pool": Workload("memdw.toml", "pool", 2, 8, 3, 48),
    "memdw-fleet": Workload("memdw.toml", "fleet", 1, 8, 3, 48),
}


def load_spec(workload: Workload, seed: int):
    """The workload's validated spec with the benchmark seed applied."""
    from repro.core.sweep import ExperimentSpec, load_spec_data, validate_spec_data

    data = load_spec_data(SPECS / workload.spec)
    data["seed"] = seed
    problems = validate_spec_data(data)
    if problems:
        raise ValueError(
            f"spec {workload.spec} is invalid:\n" + "\n".join(f"  - {p}" for p in problems)
        )
    return ExperimentSpec.from_dict(data)


class RecordClock:
    """Timestamps of record delivery: ``(perf_counter, records delivered)``."""

    def __init__(self):
        self.stamps: list[tuple[float, int]] = []

    def on_sweep_records(self) -> None:
        """Stamp every checkpoint record line a sweep writes."""
        import repro.core.parallel as parallel

        line = parallel.checkpoint_record_line

        def stamped(record):
            self.stamps.append((time.perf_counter(), 1))
            return line(record)

        parallel.checkpoint_record_line = stamped

    def on_fleet_records(self) -> None:
        """Stamp every record batch the coordinator merges."""
        from repro.service.jobs import FleetJob

        merge = FleetJob.add_records

        def stamped(job, *args, **kwargs):
            accepted, current = merge(job, *args, **kwargs)
            if accepted:
                self.stamps.append((time.perf_counter(), accepted))
            return accepted, current

        FleetJob.add_records = stamped


def run_sweep(workload: Workload, spec, out: Path, weights: Path, trace: bool) -> dict:
    from repro.core.sweep import SweepRunner

    sweep = SweepRunner(
        spec.grid(),
        workers=workload.workers,
        sweep_dir=out / "artifacts",
        fused_trials=workload.fused_trials,
        cache_dir=weights,
        profile=trace,
    ).run()
    recovery = [sr.result.recovery or {} for sr in sweep.scenario_results]
    return {
        "runtime_stats": [sr.result.runtime_stats for sr in sweep.scenario_results],
        "supervisor_leases": sum(r.get("leases", 0) for r in recovery),
        "supervisor_reclaimed": sum(r.get("reclaimed", 0) for r in recovery),
        "artifacts": str(out / "artifacts"),
    }


def run_fleet(workload: Workload, spec, out: Path, weights: Path, trace_dir: Path | None) -> dict:
    from repro.service.coordinator import CampaignCoordinator
    from repro.service.jobs import JOB_DONE, JOB_FAILED

    coordinator = CampaignCoordinator(
        port=0, artifacts_dir=out / "fleet", fused_trials=workload.fused_trials
    )
    coordinator.start()
    env = dict(os.environ)
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    logs = [open(out / f"node-{ordinal}.log", "w") for ordinal in range(workload.workers)]
    nodes: list[subprocess.Popen] = []
    try:
        job_id = coordinator.submit(spec)
        job = coordinator.jobs[job_id]
        for ordinal, log in enumerate(logs):
            nodes.append(subprocess.Popen(
                [sys.executable, str(HERE / "fleet_node.py"),
                 "--coordinator", coordinator.url, "--name", f"node-{ordinal}",
                 "--cache-dir", str(weights), "--jitter-seed", str(ordinal)],
                env=env, stdout=subprocess.DEVNULL, stderr=log,
            ))
        while job.state not in (JOB_DONE, JOB_FAILED):
            if all(node.poll() is not None for node in nodes):
                raise RuntimeError("every fleet node exited before the job finished")
            time.sleep(0.01)
    finally:
        for node in nodes:
            if node.poll() is None:
                node.send_signal(signal.SIGTERM)
        for node in nodes:
            try:
                node.wait(timeout=30)
            except subprocess.TimeoutExpired:
                node.kill()
                node.wait()
        coordinator.shutdown()
        for log in logs:
            log.close()
    if job.state != JOB_DONE:
        raise RuntimeError(f"fleet job failed: {job.error}")
    return {
        "runtime_stats": [],
        "service_leases": job.recovery.leases,
        "service_reclaimed": job.recovery.reclaimed,
        "artifacts": str(out / "fleet" / job_id),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped descendant.

    This process's own peak is its VmHWM: Linux carries the high-water mark
    of the program that exec'd it into ``ru_maxrss``, which would charge the
    memory of ``run.py`` to the workload.
    """
    with open("/proc/self/status") as status:
        own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--weights", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)

    spec = load_spec(workload, args.seed)
    if workload.mode == "fleet":
        import repro.service.coordinator  # noqa: F401  (import time is not set-up)

    trace_dir = args.out / "trace" if args.trace else None
    tracer = None
    if trace_dir is not None:
        from tracer import Tracer

        tracer = Tracer(trace_dir, "workload").install()
    clock = RecordClock()
    if workload.mode == "fleet":
        clock.on_fleet_records()
    else:
        clock.on_sweep_records()

    start = time.perf_counter()
    if tracer is not None:
        tracer.start = start
    if workload.mode == "fleet":
        info = run_fleet(workload, spec, args.out, args.weights, trace_dir)
    else:
        info = run_sweep(workload, spec, args.out, args.weights, args.trace)
    end = time.perf_counter()

    stamps = clock.stamps
    if not stamps:
        raise RuntimeError("the workload produced no records")
    records = sum(n for _, n in stamps)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": stamps[0][0] - start,
        "window_s": stamps[-1][0] - stamps[0][0],
        "records": records,
        "records_after_first": records - stamps[0][1],
        "wall_s": end - start,
        "stamps": [(t - start, n) for t, n in stamps],
        "peak_rss_mb": peak_rss_mb(),
        "scenarios": len(spec.grid()),
        "artifacts": info["artifacts"],
    }
    if tracer is not None:
        from tracer import layer_metrics, load_payloads, self_time_shares

        tracer.flush()
        payloads = load_payloads(trace_dir)
        run = {**info, **result, "workers": workload.workers}
        result["layers"] = layer_metrics(payloads, run)
        result["shares"] = self_time_shares(payloads)
    (args.out / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
