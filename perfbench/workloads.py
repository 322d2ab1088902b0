"""Benchmark workloads: a `converge` subcommand plus a config derived from a pinned one.

Each workload starts from a config under `scripts/configs/`, replaces a few
keys to size it for one benchmark run, and takes its master seed from the
benchmark's `--seed`. The program only ever sees the generated config file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

TWO_LAYER_ABS = {
    "widths": [1, 1, 1],
    "filters": [[[{"family": "exponential"}]], [[{"family": "exponential"}]]],
    "nonlinearity": "abs",
}
TINY_GRID = [160, 200, 256]  # self-test grid, above the n<=128 dense shortcut


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # `converge` subcommand: "run" or "eigen"
    pinned: str  # file name under scripts/configs
    overrides: dict = field(default_factory=dict)

    def config(self, root: Path, seed: int, tiny: bool = False) -> dict:
        """The config the program receives for this workload and seed."""
        cfg = json.loads((root / "scripts" / "configs" / self.pinned).read_text())
        cfg.update(self.overrides)
        cfg["seed"] = seed
        if tiny:
            cfg["n_grid"] = list(TINY_GRID)
            cfg["trials"] = 2
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sphere-rate",
            why="headline sphere_rate.json grid (n 1024-8192, all dense): kernel build and Lanczos "
            "are nearly all of a trial, and parallel workers set peak memory",
            command="run",
            pinned="sphere_rate.json",
            overrides={"trials": 1},
        ),
        Workload(
            name="circle-eigen",
            why="circle_eigen.json via `converge eigen`: the eigen_convergence_experiment path and alignment "
            "with K=3 (~30 sweeps a trial) and no network",
            command="eigen",
            pinned="circle_eigen.json",
            overrides={"trials": 1},
        ),
        Workload(
            name="sphere-deep",
            why="sphere_rate.json signal and graph with a 2-layer abs network at n <= 2048: the "
            "continuum quadrature re-expansion dominates and graph work is small",
            command="run",
            pinned="sphere_rate.json",
            overrides={"network": TWO_LAYER_ABS, "n_grid": [512, 1024, 2048], "trials": 4},
        ),
    )
}
