"""Campaign benchmark: trials/s, set-up time and peak memory of three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig2-dense --seed 1 --seconds 10 --trace 0

    for w in fig2-dense memdw-pool memdw-fleet; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 10 --trace 0
    done

Workloads (specs under ``perfbench/specs``, execution in ``workload.py``):

* ``fig2-dense``  — the paper's Fig. 2 campaign, serial, 64 images per trial;
* ``memdw-pool``  — depthwise memory-fault sweep on a 2-process pool;
* ``memdw-fleet`` — the same sweep through a coordinator and 1 HTTP node.

``--seed`` selects the inputs: repetition *i* of a run sets the spec seed
to ``1000 * seed + i``, which decides the fault sites every trial arms.
Each repetition runs the whole workload in a fresh process tree
(``workload.py``); the work is a closed loop, each worker taking its next
trial when it finishes the last.  With ``--trace 0`` repetitions run
untraced while another one still fits in ``--seconds`` (judged by the
ones before), and at least three run:

* ``trials_per_s`` — the records delivered after each repetition's first
  one, divided by the time a typical repetition takes to deliver them: the
  trial window is cut into blocks of a fixed number of records (one trial
  on the serial workload), every block's time is its median over the
  repetitions, and the block medians are summed.  A stall of the host that
  hits one repetition's block does not move the figure; a change that
  slows every repetition does;
* ``setup_s`` — median wall time from workload start to the first record:
  model load from the weight cache, compile, platform build, baseline/tape
  pass and, for the pool and fleet, worker start and registration;
* ``peak_rss_mb`` — median peak resident memory of the largest process in
  a repetition's process tree.

Failures are counted in the result's ``attempted``/``failed`` (a trial fails
unless its record was produced and passed ``check.py``); ``failed_frac`` is
printed with the metrics.  With ``--trace 1`` untraced and traced
repetitions alternate and the per-layer metrics of ``tracer.py`` are
reported, with each layer's share of wall time and the tracing overhead.

The models' trained weights are committed under ``perfbench/weights``
beside the pins they produce; a run refuses to start when a model a spec
names has no weights there or they differ from the pinned build (re-pin
with ``pin.py``).  Their training time, measured when they were pinned, is
reported as metadata.  Every process runs with one BLAS thread and with
durable checkpoint writes on.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import HERE, WORKLOADS, load_spec

#: Environment of every benchmark process: processes x BLAS threads stay
#: within the 2 cores the workloads were sized on, durable writes stay on.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
#: Trained model weights, committed with the pins they were taken with.
WEIGHTS = HERE / "weights"
#: Repetition artifacts, relative to the repository root.
BUILD = Path(".bench_build") / "perfbench"
MIN_REPS = 3
#: Stop adding repetitions past this, whatever --seconds asks for, so a run
#: with its checks ends well within 180 s.
MAX_LOOP_S = 100.0
REP_TIMEOUT_S = 60.0


def pin_environment(root: Path) -> None:
    """Pin this process's environment; every benchmark process inherits it."""
    os.environ.pop("REPRO_NO_FSYNC", None)
    os.environ.update(PINNED_ENV)
    os.environ["PYTHONPATH"] = str(root / "src")
    os.environ["REPRO_CACHE_DIR"] = str(WEIGHTS)
    sys.path.insert(0, str(root / "src"))


def weight_problems(workload) -> list[str]:
    """Models of the workload's spec without committed, pinned weights."""
    import check

    pinned = json.loads(check.PINS.read_text())[Path(workload.spec).stem]["weights"]
    keys = {s.model.case_spec().cache_key() for s in load_spec(workload, 0).grid()}
    return [
        f"weights {key}.npz are missing or differ from the pinned build"
        for key in sorted(keys)
        if key not in pinned
        or not (WEIGHTS / f"{key}.npz").exists()
        or check.weights_digest(WEIGHTS / f"{key}.npz") != pinned[key]
    ]


def run_rep(name: str, seed: int, out: Path, trace: bool) -> dict | None:
    """One repetition in a fresh process tree; None when it failed."""
    shutil.rmtree(out, ignore_errors=True)
    command = [sys.executable, str(HERE / "workload.py"), "--workload", name,
               "--seed", str(seed), "--weights", str(WEIGHTS), "--out", str(out)]
    if trace:
        command.append("--trace")
    # A session of its own, so a repetition that overruns is stopped together
    # with every pool worker and fleet node it started.
    proc = subprocess.Popen(command, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"  {name}: repetition timed out", file=sys.stderr)
        return None
    if code != 0 or not (out / "result.json").exists():
        print(f"  {name}: repetition exited with code {code}", file=sys.stderr)
        return None
    return json.loads((out / "result.json").read_text())


def metadata(root: Path) -> dict:
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in (root / "src").rglob("*.py")
    )
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        ).stdout.strip() or commit
    ledger = json.loads((WEIGHTS / "build.json").read_text())
    return {"src_lines": src_lines, "commit": commit, "weight_build_s": ledger}


def rep_seed(seed: int, index: int) -> int:
    """Spec seed of repetition ``index``: each repetition of a run draws other
    fault sites, so one run averages over more inputs."""
    return 1000 * seed + index


def verify(name: str, reps: list[tuple[int, dict]],
           reference: tuple[int, dict] | None) -> tuple[int, list[str]]:
    """``(verified records, problems)`` over ``(spec seed, repetition)`` pairs."""
    import check

    workload = WORKLOADS[name]
    pins = json.loads(check.PINS.read_text())[Path(workload.spec).stem]
    platforms: dict = {}
    digests: dict[int, str] = {}
    if reference is not None:
        digests[reference[0]] = check.Merged.load(Path(reference[1]["artifacts"])).digest
    verified, problems = 0, []
    for seed, rep in reps:
        spec = load_spec(workload, seed)
        merged = check.Merged.load(Path(rep["artifacts"]))
        found = merged.problems(spec) + check.pin_problems(pins, merged, seed)
        if not found:
            found = check.recompute_problems(
                spec, merged, pins, seed, workload.check_trials, WEIGHTS, platforms
            )
        if digests.setdefault(seed, merged.digest) != merged.digest:
            found.append(f"seed {seed}: merged records differ between runs of the same input"
                         + (" (fleet vs process pool)" if reference else ""))
        problems += found
        if not found:
            verified += rep["records"]
    return verified, problems


def rep_rate(rep: dict) -> float:
    """Records after the repetition's first, over its first-to-last-record window."""
    return rep["records_after_first"] / rep["window_s"]


def block_times(rep: dict, block: int) -> list[float]:
    """Delivery time of each block of ``block`` records after the first record.

    A block ends at the first delivery that completes its record count; the
    last block holds the remainder.
    """
    stamps = rep["stamps"]
    first, total = stamps[0][1], rep["records"]
    ends = list(range(first + block, total, block)) + [total]
    times, start, delivered = [], stamps[0][0], first
    stamp = iter(stamps[1:])
    for end in ends:
        while delivered < end:
            at, count = next(stamp)
            delivered += count
        times.append(at - start)
        start = at
    return times


def trials_per_s(reps: list[dict], block: int) -> float:
    """Records after the first over the sum of per-block median times."""
    blocks = [block_times(rep, block) for rep in reps]
    if len({len(b) for b in blocks}) != 1:
        raise ValueError("repetitions delivered their records in different blocks")
    typical = sum(statistics.median(times) for times in zip(*blocks))
    return reps[0]["records_after_first"] / typical


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    pin_environment(root)
    reps_dir = root / BUILD / "reps"

    workload = WORKLOADS[args.workload]
    load_spec(workload, args.seed)  # validates the spec before anything runs
    problems = weight_problems(workload)
    if problems:
        for problem in problems:
            print(f"  CHECK FAILED: {problem}", file=sys.stderr)
        print("error: re-pin deliberately with python3 perfbench/pin.py", file=sys.stderr)
        return 1
    import check

    trials_per_rep = sum(check.scenario_trials(s) for s in load_spec(workload, 0).grid())
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  metadata: {json.dumps(metadata(root), sort_keys=True)}")

    shutil.rmtree(reps_dir, ignore_errors=True)
    plain: list[dict | None] = []
    traced: list[dict | None] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # Another repetition (a traced pair with --trace 1) is started only
        # while it is expected to end within --seconds, going by the mean
        # duration of those before it.
        runs = len(plain) + len(traced)
        fits = not runs or elapsed * (runs + 1 + args.trace) / runs <= args.seconds
        if args.trace:
            done = plain and len(traced) == len(plain) and not fits
        else:
            done = len(plain) >= MIN_REPS and not fits
        if done or (elapsed >= MAX_LOOP_S and len(traced) == len(plain) * args.trace):
            break
        # Traced repetition i runs the same input as untraced repetition i.
        tracing = bool(args.trace) and len(traced) < len(plain)
        batch = traced if tracing else plain
        seed = rep_seed(args.seed, len(batch))
        kind = "traced" if tracing else "plain"
        rep = run_rep(args.workload, seed, reps_dir / f"{kind}-{len(batch)}", tracing)
        batch.append(rep)
        if rep is not None:
            print(f"  {kind:<6} rep {len(batch)} (spec seed {seed}): setup "
                  f"{rep['setup_s']:.3f} s, {rep['records_after_first']} records in "
                  f"{rep['window_s']:.3f} s ({rep_rate(rep):.3f}/s), "
                  f"peak {rep['peak_rss_mb']:.1f} MB")

    done_reps = [(rep_seed(args.seed, i), rep) for batch in (plain, traced)
                 for i, rep in enumerate(batch) if rep is not None]
    reference = None
    if workload.mode == "fleet":
        # The fleet must merge exactly the records a process pool produces.
        seed = rep_seed(args.seed, 0)
        pool = run_rep("memdw-pool", seed, reps_dir / "pool-reference", False)
        reference = (seed, pool) if pool is not None else None
    if workload.mode == "fleet" and reference is None:
        verified, problems = 0, ["the process-pool reference run failed"]
    else:
        verified, problems = verify(args.workload, done_reps, reference)
    attempted = trials_per_rep * (len(plain) + len(traced))
    failed = attempted - verified
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  check: {verified}/{attempted} trial records verified"
          + (" (fleet records identical to the pool run)" if reference and not problems else ""))

    good = [rep for rep in plain if rep is not None]
    if not good:
        print("error: no untraced repetition completed", file=sys.stderr)
        return 1
    end_to_end = {
        "trials_per_s": (trials_per_s(good, workload.block), "1/s"),
        "setup_s": (statistics.median(r["setup_s"] for r in good), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in good), "MB"),
    }
    for key, (value, unit) in end_to_end.items():
        print(f"  {key:<14} {value:12.4f} {unit}")
    print(f"  {'failed_frac':<14} {failed / max(attempted, 1):12.4f} ({failed}/{attempted})")

    declared = json.loads((root / "BENCHMARK.json").read_text())
    if args.trace:
        values = per_layer(plain, traced, workload.block)
        names = declared["per_layer"]
    else:
        values = {key: value for key, (value, _) in end_to_end.items()}
        names = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def per_layer(plain: list[dict | None], traced: list[dict | None],
              block: int) -> dict[str, float]:
    """Median per-layer metrics of the traced repetitions, printed as a table.

    The tracing overhead compares traced repetitions with the untraced
    repetitions of the same inputs.
    """
    pairs = [(p, t) for p, t in zip(plain, traced) if p is not None and t is not None]
    good = [t for _, t in pairs]
    layers = {
        name: statistics.median(rep["layers"][name] for rep in good)
        for name in good[0]["layers"]
    }
    layers["trace.overhead_frac"] = 1.0 - (
        trials_per_s(good, block) / trials_per_s([p for p, _ in pairs], block)
    )
    print("  self time by layer (first traced repetition, share of traced wall):")
    for layer, seconds, share in good[0]["shares"]:
        print(f"    {layer:<32} {seconds:9.3f} s {100 * share:6.1f} %")
    print(f"  attributed to named layers: {100 * layers['trace.attributed_frac']:.1f} % of wall; "
          f"tracing overhead {100 * layers['trace.overhead_frac']:.1f} % of trials/s")
    for name in sorted(layers):
        print(f"    {name:<40} {layers[name]:14.4f}")
    return layers


if __name__ == "__main__":
    sys.exit(main())
