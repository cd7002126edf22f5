"""Write ``pins.json``: the values ``check.py`` compares every run against.

Usage, from the repository root::

    python3 perfbench/pin.py

Trains every model a spec names that has no weights under
``perfbench/weights`` yet (delete a model's ``.npz`` to retrain it) and
records the training time in ``weights/build.json``.  Then runs one
repetition of each spec at its default seed and records the merged records'
sha256, each scenario's baseline accuracy, emulated inferences/s and
fault-free logits digest, and the digest of the model weights they came
from.  Re-pin only when a change is meant to alter records or weights, and
commit the weights with the pins.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from run import BUILD, WEIGHTS, pin_environment, run_rep
from workload import WORKLOADS, load_spec


def train_missing() -> None:
    """Train the models without committed weights and time the training."""
    from repro.zoo import train_case_study_model

    ledger_path = WEIGHTS / "build.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    cases = {
        scenario.model.case_spec().cache_key(): scenario.model.case_spec()
        for workload in WORKLOADS.values()
        for scenario in load_spec(workload, 0).grid()
    }
    for key, case in sorted(cases.items()):
        if (WEIGHTS / f"{key}.npz").exists():
            continue
        start = time.perf_counter()
        train_case_study_model(case, cache_dir=WEIGHTS)
        ledger[key] = time.perf_counter() - start
    ledger_path.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")


def main() -> int:
    root = Path.cwd()
    pin_environment(root)
    import check

    train_missing()
    pins = {}
    for name, workload in WORKLOADS.items():
        stem = Path(workload.spec).stem
        if stem in pins:
            continue
        spec = load_spec(workload, 0)
        rep = run_rep(name, spec.seed, root / BUILD / "pin" / stem, False)
        if rep is None:
            raise RuntimeError(f"{name}: repetition failed")
        merged = check.Merged.load(Path(rep["artifacts"]))
        keys = sorted({s.model.case_spec().cache_key() for s in spec.grid()})
        platforms: dict = {}
        pins[stem] = {
            "seed": spec.seed,
            "sha256": merged.digest,
            "weights": {key: check.weights_digest(WEIGHTS / f"{key}.npz") for key in keys},
            "scenarios": {
                scenario.scenario_id: {
                    "baseline_accuracy": merged.scenarios[scenario.scenario_id][
                        "baseline_accuracy"
                    ],
                    "emulated_inferences_per_second": merged.ips[scenario.scenario_id],
                    "clean_logits_sha256": check.tape_off(
                        scenario, spec, WEIGHTS, platforms
                    ).logits_sha256,
                }
                for scenario in spec.grid()
            },
        }
    check.PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
