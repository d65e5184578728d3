"""The benchmark's span wrappers still find every name they patch.

perfbench/spans.py patches each (module, attribute) in WRAPPED at install
time; a renamed target would only surface there, after a long traced run.
The file is executed read-only here and nothing is patched.
"""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
