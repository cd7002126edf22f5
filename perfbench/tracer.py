"""Outside-in tracer: spans and counts around the public functions of each layer.

Nothing under ``src/`` is changed.  :meth:`Tracer.install` rebinds the public
functions listed in :data:`LAYERS` *at their import sites* — ``engine.py``
and ``sdp.py`` bind ``exact_matmul``, ``im2col`` and ``requantize*`` by name,
so the wrapper has to replace the name in the calling module, not in the
defining one.  Each wrapper records a span (name, duration, and the time its
child spans cover), so a layer's self time is its span time minus its
children's.  Spans nest per thread; the coordinator serves requests from a
pool of handler threads.

Every traced process writes one JSON payload into the trace directory when it
ends: the benchmark's workload process, each pool worker (forked workers
inherit the wrappers; a ``multiprocessing`` after-fork hook resets the
inherited state and registers the flush as a ``Finalize`` that runs before
the worker's ``os._exit``) and each fleet node (started through
``fleet_node.py``).  :func:`layer_metrics` merges the payloads into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import statistics
import threading
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path

#: (span name, module, attribute path) of every wrapped function.  The span
#: name is the layer; several functions may feed one layer.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("zoo.load", "repro.zoo", "train_case_study_model"),
    ("compiler.compile", "repro.core.platform", "compile_model"),
    ("core.platform.build", "repro.core.parallel", "PlatformSpec.build"),
    ("core.platform.baseline", "repro.core.platform", "EmulationPlatform.baseline_accuracy"),
    ("runtime.gemm", "repro.accelerator.engine", "exact_matmul"),
    ("nn.im2col", "repro.accelerator.engine", "im2col"),
    ("accelerator.engine", "repro.accelerator.engine", "VectorisedEngine.conv_accumulate"),
    ("accelerator.engine", "repro.accelerator.engine", "VectorisedEngine.linear_accumulate"),
    ("accelerator.engine", "repro.accelerator.engine", "VectorisedEngine.conv_accumulate_fused"),
    ("accelerator.engine", "repro.accelerator.engine", "VectorisedEngine.linear_accumulate_fused"),
    ("accelerator.sdp.requant", "repro.accelerator.sdp", "requantize"),
    ("accelerator.sdp.requant", "repro.accelerator.sdp", "requantize_owned"),
    ("accelerator.execute", "repro.accelerator.accelerator", "NVDLAAccelerator.execute"),
    ("accelerator.execute_fused", "repro.accelerator.accelerator", "NVDLAAccelerator.execute_fused"),
    ("runtime.accuracy", "repro.runtime.runtime", "Runtime.accuracy"),
    ("runtime.accuracy_multi", "repro.runtime.runtime", "Runtime.accuracy_multi"),
    ("core.shm.create", "repro.core.shm", "SharedBatch.create"),
    ("utils.durable.fsync", "repro.core.parallel", "fsync_fileobj"),
    ("utils.durable.write", "repro.core.sweep", "durable_write_text"),
    ("utils.durable.write", "repro.service.jobs", "durable_write_text"),
    ("core.sweep", "repro.core.sweep", "SweepRunner.run"),
    ("service.jobs.grant", "repro.service.jobs", "FleetJob.grant"),
    ("service.jobs.add_records", "repro.service.jobs", "FleetJob.add_records"),
    ("service.jobs.write_artifacts", "repro.service.jobs", "FleetJob.write_artifacts"),
)

#: Message types a fleet node sends, by request path.
CLIENT_PATHS = ("register", "lease", "records", "heartbeat", "complete")


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _gemm_macs(a, b) -> int:
    """Multiply-accumulates of ``a @ b`` from the operand shapes (numpy rules)."""
    import numpy as np

    sa, sb = np.shape(a), np.shape(b)
    k = sa[-1]
    m = sa[-2] if len(sa) > 1 else 1
    n = sb[-1] if len(sb) > 1 else 1
    batch = 1
    for dim in np.broadcast_shapes(sa[:-2], sb[:-2]):
        batch *= dim
    return int(batch) * int(m) * int(k) * int(n)


def _resolve(module_name: str, path: str):
    """``(owner, attribute name)`` of a dotted attribute path in a module."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Tracer:
    """Span and count recorder for one process."""

    def __init__(self, out_dir: Path | str, role: str):
        self.out_dir = Path(out_dir)
        self._lock = threading.Lock()
        #: Platforms built in a fleet node, read at exit for the program's own
        #: tape and clean-cache counters (sweeps report them in runtime_stats).
        self.platforms: list = []
        self._reset(role)

    def _reset(self, role: str) -> None:
        self.role = role
        self._local = threading.local()
        self.spans: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.covered_s = 0.0
        self.counts: dict[str, float] = defaultdict(float)
        self.rtts: list[float] = []
        self.start = time.perf_counter()
        self.cpu_start = _cpu_seconds()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, duration: float, children: float) -> None:
        stack = self._stack()
        with self._lock:
            entry = self.spans[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - children
            if not stack:
                self.covered_s += duration
        if stack:
            stack[-1][0] += duration

    def wrap(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                tracer._close(name, duration, frame[0])
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    @staticmethod
    def _patch(owner, attr: str, replace) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(replace(raw.__func__)))
        else:
            setattr(owner, attr, replace(raw))

    def install(self) -> "Tracer":
        """Wrap every function in :data:`LAYERS`; returns ``self``."""
        after = {
            "runtime.gemm": self._after_gemm,
            "runtime.accuracy_multi": self._after_accuracy_multi,
            "core.platform.build": self._after_build,
        }
        for name, module, path in LAYERS:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, lambda fn, n=name: self.wrap(n, fn, after.get(n)))
        client = importlib.import_module("repro.service.client").HttpClient
        self._patch(client, "call", self._client_call)
        self._patch(client, "_once", self._client_attempt)
        mp_util.register_after_fork(self, Tracer._after_fork)
        return self

    def _after_gemm(self, args, result) -> None:
        self.count("runtime.gemm.macs", _gemm_macs(args[0], args[1]))

    def _after_accuracy_multi(self, args, result) -> None:
        self.count("runtime.accuracy_multi.trials", len(args[1]))

    def _after_build(self, args, result) -> None:
        if self.role == "fleet-node":
            self.platforms.append(result)

    def _client_call(self, fn):
        """Span around ``HttpClient.call`` plus per-path request counts."""
        traced = self.wrap("service.client", fn)

        @functools.wraps(fn)
        def call(client, path, *args, **kwargs):
            start = time.perf_counter()
            reply = traced(client, path, *args, **kwargs)
            rtt = time.perf_counter() - start
            with self._lock:
                self.rtts.append(rtt)
            self.count(f"service.client.requests.{path.strip('/').split('/')[0]}")
            if isinstance(reply, dict) and reply.get("type") == "no-work":
                self.count("service.client.nowork_replies")
            return reply

        return call

    def _client_attempt(self, fn):
        @functools.wraps(fn)
        def once(*args, **kwargs):
            self.count("service.client.attempts")
            return fn(*args, **kwargs)

        return once

    def _after_fork(self) -> None:
        """In a forked pool worker: drop the parent's state, flush at exit."""
        self._reset("pool-worker")
        mp_util.Finalize(None, self.flush, exitpriority=100)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def payload(self) -> dict:
        from repro.runtime.gemm import GEMM_STATS
        from repro.utils.profiling import PROFILER

        tapes = [platform.tape_stats() or {} for platform in self.platforms]
        return {
            "role": self.role,
            "pid": os.getpid(),
            "window_s": time.perf_counter() - self.start,
            "cpu_s": _cpu_seconds() - self.cpu_start,
            "covered_s": self.covered_s,
            "spans": {
                name: {"calls": calls, "total_s": total, "self_s": own}
                for name, (calls, total, own) in self.spans.items()
            },
            "counts": dict(self.counts),
            "rtts": list(self.rtts),
            "gemm": GEMM_STATS.as_dict(),
            "profile": PROFILER.as_dict() if PROFILER.enabled else None,
            "tape": _sum(tapes) | {"max_bytes": max((t.get("bytes", 0) for t in tapes), default=0)},
            "clean_cache": _sum(platform.gemm_cache_stats() for platform in self.platforms),
        }

    def flush(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"{self.role}-{os.getpid()}.json"
        path.write_text(json.dumps(self.payload(), sort_keys=True))


def load_payloads(trace_dir: Path | str) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(trace_dir).glob("*.json"))]


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(payloads: list[dict], run: dict) -> dict[str, float]:
    """Per-layer metrics from every process payload of one traced repetition.

    ``run`` carries what the workload process knows beyond the spans: the
    record count and trial window, the number of scenarios and workers, the
    program's aggregated ``runtime_stats`` (serial and pool sweeps) and the
    fleet job's lease book.
    """

    def span(name: str, field: str = "total_s") -> float:
        return sum(p["spans"].get(name, {}).get(field, 0) for p in payloads)

    def count(key: str) -> float:
        return sum(p["counts"].get(key, 0) for p in payloads)

    from repro.utils.profiling import StageProfiler

    stats = run.get("runtime_stats") or []
    if stats:  # the program's own aggregated counters
        gemm = _sum(s.get("gemm") for s in stats)
        tape = _sum(s.get("tape") for s in stats)
        cache = _sum(s.get("clean_cache") for s in stats)
        profile = StageProfiler.merge_dicts([s.get("profile") for s in stats])
        tape_mb = max(((s.get("tape") or {}).get("bytes", 0) for s in stats), default=0)
    else:  # fleet nodes: the same counters, read in each node at exit
        nodes = [p for p in payloads if p["role"] == "fleet-node"]
        gemm = _sum(p["gemm"] for p in nodes)
        tape = _sum(p["tape"] for p in nodes)
        cache = _sum(p["clean_cache"] for p in nodes)
        profile = StageProfiler.merge_dicts([p["profile"] for p in nodes])
        tape_mb = sum(p["tape"].get("max_bytes", 0) for p in nodes)
    layers = tape.get("layer_hits", 0) + tape.get("layer_misses", 0)
    trials = max(run["records"], 1)
    workers = [p for p in payloads if p["role"] == "pool-worker"]
    parents = [p for p in payloads if p["role"] == "workload"]
    worker_cpu = sum(p["cpu_s"] for p in workers)
    rtts_ms = sorted(1000 * r for p in payloads for r in p["rtts"])
    metrics = {
        "zoo.load_s": span("zoo.load"),
        "compiler.compile_s": span("compiler.compile"),
        "compiler.compile_calls": span("compiler.compile", "calls"),
        "core.platform.build_s": span("core.platform.build"),
        "core.platform.baseline_s": span("core.platform.baseline"),
        "runtime.gemm.calls": span("runtime.gemm", "calls"),
        "runtime.gemm.s": span("runtime.gemm", "self_s"),
        "runtime.gemm.gmacs": count("runtime.gemm.macs") / 1e9,
        "runtime.gemm.float32_calls": gemm.get("float32_calls", 0),
        "runtime.gemm.float64_calls": gemm.get("float64_calls", 0),
        "runtime.gemm.int64_calls": gemm.get("int64_calls", 0),
        "nn.im2col.s": span("nn.im2col", "self_s"),
        "nn.im2col.calls": span("nn.im2col", "calls"),
        "accelerator.engine.self_s": span("accelerator.engine", "self_s"),
        "accelerator.engine.calls": span("accelerator.engine", "calls"),
        "accelerator.sdp.requant_s": span("accelerator.sdp.requant", "self_s"),
        "accelerator.sdp.requant_calls": span("accelerator.sdp.requant", "calls"),
        "accelerator.execute.self_s": span("accelerator.execute", "self_s"),
        "accelerator.execute.calls": span("accelerator.execute", "calls"),
        "accelerator.execute_fused.self_s": span("accelerator.execute_fused", "self_s"),
        "accelerator.execute_fused.calls": span("accelerator.execute_fused", "calls"),
        "runtime.accuracy_multi.calls": span("runtime.accuracy_multi", "calls"),
        "runtime.fused_trial_frac": count("runtime.accuracy_multi.trials") / trials,
        "accelerator.tape.layer_hit_rate": (tape.get("layer_hits", 0) / layers) if layers else 0.0,
        "accelerator.tape.segment_hits": tape.get("segment_hits", 0),
        "accelerator.tape.segment_misses": tape.get("segment_misses", 0),
        "accelerator.tape.mb": tape_mb / 2**20,
        "accelerator.clean_cache.hits": cache.get("hits", 0),
        "accelerator.clean_cache.misses": cache.get("misses", 0),
        "core.parallel.worker_cpu_s": worker_cpu,
        "core.parallel.parent_cpu_s": sum(p["cpu_s"] for p in parents),
        "core.parallel.worker_util": (
            worker_cpu / (run["workers"] * run["window_s"]) if workers and run["window_s"] else 0.0
        ),
        "core.supervisor.leases": run.get("supervisor_leases", 0),
        "core.supervisor.reclaimed": run.get("supervisor_reclaimed", 0),
        "core.shm.create_s": span("core.shm.create"),
        "utils.durable.fsyncs": span("utils.durable.fsync", "calls"),
        "utils.durable.fsync_s": span("utils.durable.fsync") + span("utils.durable.write"),
        "utils.durable.writes": span("utils.durable.write", "calls"),
        "core.sweep.scenario_s": span("core.sweep") / run["scenarios"],
        "service.client.rtt_p50_ms": _percentile(rtts_ms, 50),
        "service.client.rtt_p90_ms": _percentile(rtts_ms, 90),
        "service.client.retries": count("service.client.attempts") - span("service.client", "calls"),
        "service.client.nowork_replies": count("service.client.nowork_replies"),
        "service.jobs.grant_s": span("service.jobs.grant"),
        "service.jobs.add_records_s": span("service.jobs.add_records"),
        "service.jobs.write_artifacts_s": span("service.jobs.write_artifacts"),
        "service.leases": run.get("service_leases", 0),
        "service.reclaimed": run.get("service_reclaimed", 0),
    }
    for path in CLIENT_PATHS:
        metrics[f"service.client.requests.{path}"] = count(f"service.client.requests.{path}")
    for stage in ("correction", "requant", "suffix_forward", "tape_build"):
        metrics[f"profile.{stage}_s"] = profile.get(stage, {}).get("seconds", 0.0)
    covered = sum(p["covered_s"] for p in payloads)
    window = sum(p["window_s"] for p in payloads)
    metrics["trace.attributed_frac"] = covered / window if window else 0.0
    return metrics


def self_time_shares(payloads: list[dict]) -> list[tuple[str, float, float]]:
    """``(layer, self seconds, share of traced wall)`` rows, largest first."""
    window = sum(p["window_s"] for p in payloads) or 1.0
    totals: dict[str, float] = defaultdict(float)
    for p in payloads:
        for name, entry in p["spans"].items():
            totals[name] += entry["self_s"]
    return sorted(
        ((name, own, own / window) for name, own in totals.items()),
        key=lambda row: -row[1],
    )


def _sum(parts) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for part in parts:
        for key, value in (part or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[key] += value
    return out
