"""The benchmark's span wrappers still find every name they patch, and fire.

perfbench/spans.py patches each (module, attribute) in WRAPPED at install
time; a renamed target would only surface there, after a long traced run.
The files are executed read-only here and nothing in this process is
patched.  The self-check of perfbench/run.py runs each workload once at a
tiny path count in a worker process and fails when a wrapped name does not
fire where it should, for instance after a call is routed around it.
"""

import importlib
import runpy
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_every_wrapped_target_resolves():
    wrapped = runpy.run_path(str(SPANS))["WRAPPED"]
    targets = [target for _, group in wrapped for target in group]
    assert ("lcflow.adjoint", "StepRegression.__init__") in targets
    assert ("lcflow.adjoint", "StepRegression.fit") in targets
    for module, attr in targets:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"


@pytest.mark.parametrize("workload", ["p1-verify", "p2-feedback", "p2-convexity"])
def test_benchmark_self_check(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = runpy.run_path(str(PERFBENCH / "run.py"))
    call = run["smoke"](run["WORKLOADS"][workload], tmp_path, 201)
    assert call["error"] is None
    assert call["trace"]["spans"]["cli.main"]["calls"] == 1
