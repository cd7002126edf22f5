"""Correctness checks of a benchmark run's merged records.

Every check here runs outside the timed repetitions:

* **structure** — each repetition's merged ``sweep.jsonl`` holds every trial
  index of every scenario exactly once, and each record's accuracy drop is
  its scenario's baseline minus its accuracy;
* **determinism** — every repetition's merged records are byte-identical
  (and, for the fleet, identical to a process-pool run of the same spec);
* **pins** — baseline accuracy and emulated inferences/s of each scenario
  equal the values in ``pins.json``, and on the default seed the merged
  records' sha256 equals the pinned digest.  The pins hold for the
  committed model weights, whose digest (``weights_digest``) ``run.py``
  checks before anything runs;
* **recompute** — every scenario is rebuilt with the clean-activation tape
  off (``tape_bytes=0``): its fault-free logits must hash to the pinned
  digest, and its baseline and ``timing_report()`` throughput must equal
  the recorded ones; a seed-derived sample of trials is re-run on it, and
  their descriptions and accuracies must equal the recorded ones.

This emulator is not validated against FPGA hardware, so no error against
the paper's measured inference rate is computed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import numpy as np

PINS = Path(__file__).resolve().parent / "pins.json"


def weights_digest(path: Path) -> str:
    """SHA-256 over the arrays of a cached weight file (key order fixed)."""
    digest = hashlib.sha256()
    with np.load(path) as arrays:
        for key in sorted(arrays.files):
            digest.update(key.encode())
            digest.update(np.ascontiguousarray(arrays[key]).tobytes())
    return digest.hexdigest()


@dataclasses.dataclass
class Merged:
    """One repetition's merged records, parsed."""

    digest: str
    scenarios: dict[str, dict]
    records: dict[str, dict[int, dict]]
    ips: dict[str, float]

    @classmethod
    def load(cls, artifacts: Path) -> "Merged":
        text = (artifacts / "sweep.jsonl").read_bytes()
        scenarios: dict[str, dict] = {}
        records: dict[str, dict[int, dict]] = {}
        for line in text.decode().splitlines():
            data = json.loads(line)
            if data["kind"] == "scenario":
                scenarios[data["scenario"]] = data
                records[data["scenario"]] = {}
            else:
                index = data["trial_index"]
                if index in records[data["scenario"]]:
                    raise ValueError(f"{data['scenario']}: trial {index} appears twice")
                records[data["scenario"]][index] = data
        ips = {}
        for scenario in scenarios:
            model, fault, strategy, platform = scenario.split("/")
            checkpoint = artifacts / "scenarios" / model / fault / strategy / f"{platform}.jsonl"
            with checkpoint.open() as handle:
                ips[scenario] = json.loads(handle.readline())["emulated_inferences_per_second"]
        return cls(hashlib.sha256(text).hexdigest(), scenarios, records, ips)

    def problems(self, spec) -> list[str]:
        """Structural problems: missing trials, inconsistent accuracy drops."""
        out = []
        expected = {s.scenario_id: s for s in spec.grid()}
        if sorted(expected) != sorted(self.scenarios):
            return [f"scenarios {sorted(self.scenarios)} != spec {sorted(expected)}"]
        for scenario_id, scenario in expected.items():
            total = scenario_trials(scenario)
            header = self.scenarios[scenario_id]
            got = self.records[scenario_id]
            if header["total_trials"] != total or sorted(got) != list(range(total)):
                out.append(f"{scenario_id}: {len(got)} records, expected trials 0..{total - 1}")
            baseline = header["baseline_accuracy"]
            for index, record in got.items():
                if record["accuracy_drop"] != baseline - record["accuracy"]:
                    out.append(f"{scenario_id} trial {index}: accuracy drop inconsistent")
        return out


def scenario_trials(scenario) -> int:
    """Trials one scenario of a spec grid runs."""
    from repro.faults.sites import FaultUniverse

    geometry = scenario.platform_config().geometry
    universe = FaultUniverse(geometry.num_macs, geometry.muls_per_mac)
    return scenario.build_strategy().expected_trials(universe)


def pin_problems(pins: dict, merged: Merged, seed: int) -> list[str]:
    """Compare with one spec's pins: scenario statistics, and digests on its seed."""
    out = []
    if seed == pins["seed"] and merged.digest != pins["sha256"]:
        out.append(f"sweep.jsonl sha256 {merged.digest} != pinned {pins['sha256']}")
    for scenario, pinned in pins["scenarios"].items():
        if merged.ips.get(scenario) != pinned["emulated_inferences_per_second"]:
            out.append(f"{scenario}: emulated inferences/s {merged.ips.get(scenario)} != pinned")
        baseline = merged.scenarios.get(scenario, {}).get("baseline_accuracy")
        if baseline != pinned["baseline_accuracy"]:
            out.append(f"{scenario}: baseline accuracy {baseline} != pinned")
    return out


@dataclasses.dataclass
class TapeOff:
    """A scenario's platform with the clean-activation tape off."""

    platform: object
    images: np.ndarray
    labels: np.ndarray
    baseline: float
    ips: float
    #: SHA-256 of the fault-free logits of the images.  It is pinned, so a
    #: numeric change on the clean inference path fails a run of any seed.
    logits_sha256: str


def tape_off(scenario, spec, weights: Path, platforms: dict) -> TapeOff:
    """Build (memoised in ``platforms``) the scenario's tape-off platform."""
    from repro.zoo import case_study_platform_spec

    key = json.dumps(
        [scenario.model.to_dict(), scenario.platform.to_dict(), spec.images], sort_keys=True
    )
    if key not in platforms:
        config = dataclasses.replace(scenario.platform_config(), tape_bytes=0)
        platform_spec, case = case_study_platform_spec(
            scenario.model.case_spec(), platform_config=config, cache_dir=weights
        )
        platform = platform_spec.build()
        images = case.dataset.test_images[: spec.images]
        labels = case.dataset.test_labels[: spec.images]
        logits = np.ascontiguousarray(platform.runtime.infer(images).logits)
        platforms[key] = TapeOff(
            platform,
            images,
            labels,
            platform.baseline_accuracy(images, labels, batch_size=spec.batch_size),
            platform.timing_report().inferences_per_second,
            hashlib.sha256(logits.tobytes()).hexdigest(),
        )
    return platforms[key]


def recompute_problems(
    spec, merged: Merged, pins: dict, seed: int, count: int, weights: Path, platforms: dict
) -> list[str]:
    """Rebuild every scenario with the tape off and re-run ``count``
    seed-derived trials; compare with the records and the pins.

    ``platforms`` memoises the tape-off platforms across calls of one run.
    """
    from repro.utils.rng import SeededRNG

    out = []
    grid = list(spec.grid())
    for scenario in grid:
        clean = tape_off(scenario, spec, weights, platforms)
        sid = scenario.scenario_id
        if clean.logits_sha256 != pins["scenarios"][sid]["clean_logits_sha256"]:
            out.append(f"{sid}: clean logits sha256 {clean.logits_sha256} != pinned")
        if clean.baseline != merged.scenarios[sid]["baseline_accuracy"]:
            out.append(f"{sid}: tape-off baseline {clean.baseline} != recorded")
        if abs(clean.ips - merged.ips[sid]) > 1e-9 * clean.ips:
            out.append(f"{sid}: timing_report {clean.ips} inf/s != recorded")
    pairs = [(s, i) for s in grid for i in sorted(merged.records[s.scenario_id])]
    sample = random.Random(seed).sample(pairs, min(count, len(pairs)))
    for scenario, index in sorted(sample, key=lambda pair: (pair[0].scenario_id, pair[1])):
        clean = tape_off(scenario, spec, weights, platforms)
        trial = scenario.build_strategy().trial_at(clean.platform.universe, SeededRNG(seed), index)
        accuracy = clean.platform.accuracy_with_faults(
            trial.config, clean.images, clean.labels, batch_size=spec.batch_size
        )
        record = merged.records[scenario.scenario_id][index]
        if trial.config.describe() != record["description"] or accuracy != record["accuracy"]:
            out.append(
                f"{scenario.scenario_id} trial {index}: tape-off accuracy {accuracy} "
                f"({trial.config.describe()}) != recorded {record['accuracy']}"
            )
    return out
