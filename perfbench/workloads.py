"""The three benchmark workloads as rounds of ``solitonlab`` command lines.

A round is a fixed list of operations; the seed only shuffles the order in
which a round runs them (for ``study``, the order of the velocity list in the
config, which the program sorts). Every operation writes into its own output
directory, which is emptied before the operation runs, and is then checked
by the oracles in :mod:`oracles`. A workload may also name warm-up
operations, which run once before timing starts.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

DELTA = 0.6
#: launch at the threshold x0 = -v^(1-delta), so even v=4 crosses the
#: potential within the horizon (1-delta) log v
X0_FACTOR = 1.0

STUDY_POTENTIAL = {"kind": "algebraic", "q": 0.5, "s": 3.0}
STUDY_VELOCITIES = (4.0, 8.0, 16.0, 32.0)
STUDY_JOBS = min(2, os.cpu_count() or 1)

SIMULATE_POTENTIALS = (
    {"kind": "algebraic", "q": 0.5, "s": 3.0},
    {"kind": "gaussian", "q": 2.0, "sigma": 1.0},
    {"kind": "sech2_scaled", "beta": 0.5},
)
SIMULATE_VELOCITIES = (4.0, 6.0, 8.0, 10.0)
#: admissible on a wide domain, but transmission_run judges admissibility on
#: [-40, 40] where |V(40)| = 4.9e-4 > 1e-4, so simulate exits 1 every time
KNOWN_FAULT = {"potential": {"kind": "algebraic", "q": 5.0, "s": 2.5}, "v": 8.0}

SPECTRAL_POTENTIALS = (
    {"kind": "algebraic", "q": 0.5, "s": 3.0},
    {"kind": "gaussian", "q": 2.0, "sigma": 1.0},
    {"kind": "sech2_scaled", "beta": 0.5},
    {"kind": "poschl_teller", "ell": 2.0},
)
SPECTRAL_LAMBDA = (0.5, 40.0, 48)  # geometric table: min, max, points
SPECTRAL_WARMUP_POINTS = 8
SPECTRAL_N = 2048
SPECTRAL_HALF_WIDTH = 60.0


@dataclass
class Op:
    """One command line plus the oracle for its output directory. The oracle
    returns the study fingerprint, or None."""

    label: str
    argv: list[str]
    out: Path
    check: Callable[[Path], dict | None]
    known_fault: bool = False


def _check_simulate(out: Path, spec: dict, v: float, x0: float) -> None:
    oracles.check_run(out, spec, v, x0)


def write_config(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config, indent=1))
    return str(path)


class Workload:
    def __init__(self, name: str, work: Path, seed: int):
        self.rng = random.Random(seed)
        self.name = name
        self.work = work
        self.ops = getattr(self, f"_{name}_ops")(work)

    def warmup(self) -> list[Op]:
        """Operations run once, untimed, before the first round, so that lazy
        imports and per-grid caches are filled. ``study`` has none: every
        study starts its own pool of fresh workers, as it does for a user.
        ``simulate`` runs one round; ``spectral`` runs each potential on a
        short lambda table over the same grid."""
        if self.name == "simulate":
            return list(self.ops)
        if self.name == "spectral":
            return self._spectral_ops(self.work / "warmup", SPECTRAL_WARMUP_POINTS)
        return []

    def round(self) -> list[Op]:
        ops = list(self.ops)
        self.rng.shuffle(ops)
        return ops

    def _study_ops(self, work: Path) -> list[Op]:
        velocities = list(STUDY_VELOCITIES)
        self.rng.shuffle(velocities)
        cfg = write_config(work / "study.json", {
            "potential": STUDY_POTENTIAL, "delta": DELTA, "velocities": velocities,
            "x0_factor": X0_FACTOR})
        out = work / "study"
        argv = ["study", "--config", cfg, "--out", str(out), "--jobs", str(STUDY_JOBS)]
        return [Op("study", argv, out,
                   lambda o: oracles.check_study(o, STUDY_POTENTIAL, DELTA, X0_FACTOR))]

    def _simulate_ops(self, work: Path) -> list[Op]:
        ops = []
        cases = [(p, v) for p in SIMULATE_POTENTIALS for v in SIMULATE_VELOCITIES]
        cases.append((KNOWN_FAULT["potential"], KNOWN_FAULT["v"]))
        for i, (spec, v) in enumerate(cases):
            label = f"{spec['kind']}-{i}-v{v:g}"
            cfg = write_config(work / f"{label}.json", {
                "potential": spec, "delta": DELTA, "v": v, "x0_factor": X0_FACTOR})
            out = work / label
            x0 = -X0_FACTOR * v ** (1.0 - DELTA)
            ops.append(Op(label, ["simulate", "--config", cfg, "--out", str(out)], out,
                          lambda o, s=spec, v=v, x0=x0: _check_simulate(o, s, v, x0),
                          known_fault=spec is KNOWN_FAULT["potential"]))
        return ops

    def _spectral_ops(self, work: Path, points: int = SPECTRAL_LAMBDA[2]) -> list[Op]:
        lo, hi, _ = SPECTRAL_LAMBDA
        lams = np.geomspace(lo, hi, points)
        ops = []
        for spec in SPECTRAL_POTENTIALS:
            flags = [f"--{k}={spec[k]:g}" for k in sorted(spec) if k != "kind"]
            out = work / spec["kind"]
            argv = ["spectral", "--kind", spec["kind"], *flags,
                    "--lambda-min", f"{lo:g}", "--lambda-max", f"{hi:g}",
                    "--lambda-points", str(points), "--n", str(SPECTRAL_N),
                    "--half-width", f"{SPECTRAL_HALF_WIDTH:g}", "--out", str(out)]
            ops.append(Op(spec["kind"], argv, out,
                          lambda o, s=spec: oracles.check_spectral(
                              o, s, lams, SPECTRAL_N, SPECTRAL_HALF_WIDTH)))
        return ops
