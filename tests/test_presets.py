"""The preset problems, pinned to their JSON documents.

perfbench/workloads.py writes each workload's problem.json as
json.dumps(problem_to_json(preset)), so any drift in the presets would
change what the benchmark measures.  The strings below are those bytes.
"""

import json

import pytest

from lcflow import presets
from lcflow.problem import problem_to_json

PINNED = {
    "p1": (
        '{"dims": {"n": 1, "m": 1, "d": 1}, "horizon": 1.0, '
        '"coefficients": {"A": [[0.0]], "B": [[1.0]], "C": [[[0.0]]], "D": [[[0.0]]], '
        '"b": [0.0], "sigma": [[0.3]]}, "cost": {"family": "quadratic", '
        '"params": {"G": [[1.0]], "r": [0.0], "Q": [[1.0]], "S": [[0.0]], "R": [[1.0]], '
        '"q": [0.0], "rho": [0.0]}}, "certificate": {"delta": 1.0, "mode": "case1", '
        '"k_lip": "auto"}, "label": "P1"}'
    ),
    "p1_d_variant": (
        '{"dims": {"n": 1, "m": 1, "d": 1}, "horizon": 1.0, '
        '"coefficients": {"A": [[0.0]], "B": [[1.0]], "C": [[[0.0]]], "D": [[[0.5]]], '
        '"b": [0.0], "sigma": [[0.3]]}, "cost": {"family": "quadratic", '
        '"params": {"G": [[1.0]], "r": [0.0], "Q": [[1.0]], "S": [[0.0]], "R": [[1.0]], '
        '"q": [0.0], "rho": [0.0]}}, "certificate": {"delta": 1.0, "mode": "case1", '
        '"k_lip": "auto"}, "label": "P1-D"}'
    ),
    "p2": (
        '{"dims": {"n": 1, "m": 1, "d": 1}, "horizon": 1.0, '
        '"coefficients": {"A": [[0.0]], "B": [[1.0]], "C": [[[0.0]]], "D": [[[0.0]]], '
        '"b": [0.0], "sigma": [[0.3]]}, "cost": {"family": "case1_smooth", '
        '"params": {"delta": 1.0, "kappa_x": 0.5, "kappa_u": 0.0, "kappa_g": 1.0}}, '
        '"certificate": {"delta": 1.0, "mode": "case1", "k_lip": "auto"}, '
        '"label": "P2"}'
    ),
    "zero_problem": (
        '{"dims": {"n": 1, "m": 1, "d": 1}, "horizon": 1.0, '
        '"coefficients": {"A": [[0.0]], "B": [[1.0]], "C": [[[0.0]]], "D": [[[0.0]]], '
        '"b": [0.0], "sigma": [[0.0]]}, "cost": {"family": "quadratic", '
        '"params": {"G": [[0.0]], "r": [0.0], "Q": [[0.0]], "S": [[0.0]], "R": [[1.0]], '
        '"q": [0.0], "rho": [0.0]}}, "certificate": {"delta": 1.0, "mode": "case1", '
        '"k_lip": "auto"}, "label": "zero"}'
    ),
    "linear_terminal": (
        '{"dims": {"n": 1, "m": 1, "d": 1}, "horizon": 1.0, '
        '"coefficients": {"A": [[0.0]], "B": [[1.0]], "C": [[[0.0]]], "D": [[[0.0]]], '
        '"b": [0.0], "sigma": [[0.0]]}, "cost": {"family": "quadratic", '
        '"params": {"G": [[0.0]], "r": [1.0], "Q": [[0.0]], "S": [[0.0]], "R": [[1.0]], '
        '"q": [0.0], "rho": [0.0]}}, "certificate": {"delta": 1.0, "mode": "case1", '
        '"k_lip": "auto"}, "label": "linear-terminal"}'
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_preset_document_is_pinned(name):
    spec = getattr(presets, name)()
    assert json.dumps(problem_to_json(spec)) == PINNED[name]
