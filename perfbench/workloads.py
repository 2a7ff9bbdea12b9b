"""The four benchmark workloads, each a closed loop of identical work units.

A workload sets up once per set-up repetition and then runs numbered units
back to back; a unit starts only after the previous one returned. Every
unit gets its own master seed derived from the benchmark seed, so no two
units in a run share a world. ``run`` is the timed part; ``check`` reads its
outputs afterwards and is not timed.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cellpilot as cp

# Unit sizes. desk keeps the Q-network the dominant layer (training starts
# once the replay buffer holds a batch of 200). full_rate evaluates rates
# once per method. churn evaluates none, and its units are short so that a
# run holds several of them.
DESK_STEPS = 700
FULL_RATE_STEPS = 100
CHURN_STEPS = 100
SEARCH_CONFIG = dict(L=5, K=4, M=100)
SEARCH_WORLDS_PER_UNIT = 1
# random assignments the exhaustive optimum must not lose to
SEARCH_PROBES = 200

# Files that are byte-identical across reruns with the same seed.
IDENTICAL_FILES = ("results.csv", "costs.csv", "manifest.json")
IDENTICAL_PREFIX = "drl_"


def derive_seed(seed: int, *path: int) -> int:
    """32-bit seed derived from the benchmark seed and an integer path."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=path)
    return int(seq.generate_state(1)[0])


@dataclass
class UnitCheck:
    """What one unit did and whether its outputs passed the checks."""

    failed: int          # operations whose outputs failed a check
    digest: str
    ops: dict            # operation name -> count, e.g. steps, rate_evals
    problems: list


def _digest(out_dir: Path) -> str:
    names = sorted(p.name for p in out_dir.iterdir()
                   if p.name in IDENTICAL_FILES
                   or (p.name.startswith(IDENTICAL_PREFIX) and p.suffix == ".csv"))
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0" + (out_dir / name).read_bytes() + b"\0")
    return h.hexdigest()


def _rows_by_method(path: Path, column: str) -> dict:
    out = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.setdefault(row["method"], []).append(
                (int(row["step"]), float(row[column])))
    return out


def _count_rows(path: Path) -> int:
    with open(path, newline="") as fh:
        return sum(1 for _ in csv.DictReader(fh))


@dataclass
class ExperimentWorkload:
    """run_experiment on one preset; an operation is one method's run."""

    preset: cp.ExperimentPreset
    op: str               # operation counted by ops_per_s
    min_units: int = 2
    setup_repeats: int = 5
    # seconds of speed probe around each set-up and unit; 0 = raw times
    probe_s: float = 0.0

    @property
    def operations(self) -> int:
        return len(self.preset.methods)

    @property
    def eval_steps(self) -> list:
        every = self.preset.rate.eval_every
        return list(range(every - 1, self.preset.total_steps, every))

    def setup(self, seed: int):
        """One make_env: world, pair-cost matrix and threshold calibration."""
        cp.make_env(self.preset.config, self.preset.env, seed)

    def run(self, seed: int, out_dir: Path):
        cp.run_experiment(self.preset, seed, out_dir=out_dir)

    def check(self, seed: int, out_dir: Path, result) -> UnitCheck:
        methods = tuple(self.preset.methods)
        steps = list(range(self.preset.total_steps))
        problems = []
        bad = set()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        for m in methods:
            status = manifest["methods"].get(m, {}).get("status")
            if status != "ok":
                bad.add(m)
                problems.append(f"{m}: status {status!r}")
        costs = _rows_by_method(out_dir / "costs.csv", "global_max")
        rates = _rows_by_method(out_dir / "results.csv", "min_rate")
        for m in methods:
            if [s for s, _ in costs.get(m, [])] != steps:
                bad.add(m)
                problems.append(f"{m}: cost rows do not cover steps 0..{steps[-1]}")
            if [s for s, _ in rates.get(m, [])] != self.eval_steps:
                bad.add(m)
                problems.append(f"{m}: rate rows do not match eval steps")
            values = [v for _, v in costs.get(m, []) + rates.get(m, [])]
            if not all(math.isfinite(v) for v in values):
                bad.add(m)
                problems.append(f"{m}: non-finite cost or rate")
        if "drl" in methods:
            for name in ("drl_training_log.csv", "drl_trajectory.csv"):
                path = out_dir / name
                if not path.exists() or _count_rows(path) != len(steps):
                    bad.add("drl")
                    problems.append(f"drl: {name} missing or wrong row count")
        return UnitCheck(
            failed=len(bad), digest=_digest(out_dir),
            ops={"steps": len(methods) * len(steps),
                 "rate_evals": len(methods) * len(self.eval_steps)},
            problems=problems)


@dataclass
class SearchWorkload:
    """exhaustive_search on fresh worlds; an operation is one solved world.

    A unit solves SEARCH_WORLDS_PER_UNIT worlds back to back. One world
    (about a second) per unit gives a run many units to take the median
    over, and many speed probes (speed.py) between them.
    """

    config: cp.SystemConfig
    op: str = "searches"
    min_units: int = 8
    setup_repeats: int = 5
    probe_s: float = 0.15

    @property
    def operations(self) -> int:
        return SEARCH_WORLDS_PER_UNIT

    def _world(self, seed: int):
        return cp.fresh_world(self.config, np.random.default_rng(seed))

    def setup(self, seed: int):
        """Build the first world."""
        self._world(derive_seed(seed, 0))

    def run(self, seed: int, out_dir: Path):
        solved = []
        for k in range(SEARCH_WORLDS_PER_UNIT):
            world = self._world(derive_seed(seed, k))
            solved.append((world, *cp.exhaustive_search(world)))
        return solved

    def _problems(self, seed: int, world, best, table) -> list:
        problems = []
        pairwise = cp.pairwise_cost_matrix(world)
        recomputed = cp.total_costs(world, best.pilot_to_user,
                                    pairwise=pairwise).global_max
        if not math.isfinite(table.global_max):
            problems.append("non-finite optimum")
        if table.global_max != recomputed:
            problems.append(f"returned cost {table.global_max!r} != "
                            f"total_costs {recomputed!r}")
        rng = np.random.default_rng(seed)
        probe = min(
            cp.total_costs(world, cp.random_assignment(
                self.config.L, self.config.K, rng).pilot_to_user,
                pairwise=pairwise).global_max
            for _ in range(SEARCH_PROBES))
        if table.global_max > probe:
            problems.append(f"optimum {table.global_max!r} beaten by a "
                            f"random assignment ({probe!r})")
        return problems

    def check(self, seed: int, out_dir: Path, result) -> UnitCheck:
        failed, problems = 0, []
        h = hashlib.sha256()
        for k, (world, best, table) in enumerate(result):
            found = self._problems(derive_seed(seed, k), world, best, table)
            failed += bool(found)
            problems += [f"world {k}: {p}" for p in found]
            h.update((best.to_text() + repr(table.global_max)).encode())
        return UnitCheck(failed=failed, digest=h.hexdigest(),
                         ops={"searches": len(result)}, problems=problems)


def workloads() -> dict:
    """Name -> workload. Each row of the README table explains one choice."""
    presets = cp.presets()
    desk, full = presets["desk"], presets["full"]
    baselines = dict(methods=("random", "spr_like"), long_run_methods=())
    return {
        "desk": ExperimentWorkload(
            dataclasses.replace(desk, total_steps=DESK_STEPS),
            op="steps"),
        "full_rate": ExperimentWorkload(
            dataclasses.replace(
                full, total_steps=FULL_RATE_STEPS, **baselines,
                rate=dataclasses.replace(full.rate, eval_every=FULL_RATE_STEPS)),
            op="rate_evals", min_units=4),
        "churn": ExperimentWorkload(
            dataclasses.replace(
                full, total_steps=CHURN_STEPS, **baselines,
                env=dataclasses.replace(full.env, redraw="positions"),
                # no rate evaluation: eval_every lies past the last step
                rate=dataclasses.replace(full.rate, eval_every=CHURN_STEPS + 1)),
            # each set-up calibrates on 1000 fresh worlds (~10 s), so two
            # repetitions keep the run inside its time budget; churn and
            # search are single-threaded and slow down with the speed probe,
            # while desk and full_rate spend their time in 2-thread BLAS,
            # which the probe does not track, and report raw times
            op="steps", min_units=4, setup_repeats=2, probe_s=0.3),
        "search": SearchWorkload(
            dataclasses.replace(full.config, **SEARCH_CONFIG)),
    }
