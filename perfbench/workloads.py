"""Workload inputs: problem JSON and run configuration for each CLI workload.

Every workload drives one real CLI command on a problem from
``lcflow.presets``, written through ``problem_to_json``.  The Monte Carlo
seed is not part of the config file: it is passed to the CLI as
``--seed``, so the config hash the CLI reports is the same for every seed
and identifies the inputs across commits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

SMOKE_M = 400   # path count of the wrapper self-check call


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    problem: str              # name of a function in lcflow.presets
    N: int
    M: int
    x0: tuple
    checks: dict = field(default_factory=dict)

    def config(self, M=None) -> dict:
        return {
            "problem": "problem.json",
            "grid": {"N": self.N},
            "monte_carlo": {"M": self.M if M is None else M, "antithetic": True},
            "basis": {"degree": 2, "ridge": 1e-8},
            "descent": {"eta": "auto"},
            "initial": {"t": 0.0, "x": list(self.x0)},
            "checks": dict(self.checks),
            "output": {"directory": "out", "formats": ["json"]},
        }


# Path counts are scaled down from desk scale (M=50,000) so that one CLI
# call takes 1-3 s on one core and a run holds ten or more calls: on a
# shared host single calls vary by 15% and only the median of many is
# steady.  Grid sizes, bases and commands are the desk-scale ones.  The
# working sets fit in cache, so the memory-bound regime of desk scale is
# not reproduced.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("p1-verify", "verify-lq", "p1", N=50, M=4000, x0=(0.0,),
                 checks={"with_derivative": True}),
        Workload("p2-feedback", "feedback", "p2", N=50, M=1000, x0=(0.3,),
                 checks={"perturbations": 10}),
        Workload("p2-convexity", "convexity-check", "p2", N=50, M=1000, x0=(0.0,)),
    )
}


def write_inputs(workload: Workload, directory: Path, M=None) -> Path:
    """Write problem.json and run.json into directory; returns the config path."""
    directory.mkdir(parents=True, exist_ok=True)
    from lcflow import presets
    from lcflow.problem import problem_to_json

    problem = problem_to_json(getattr(presets, workload.problem)())
    (directory / "problem.json").write_text(json.dumps(problem), encoding="utf-8")
    cfg_path = directory / "run.json"
    cfg_path.write_text(json.dumps(workload.config(M)), encoding="utf-8")
    return cfg_path
