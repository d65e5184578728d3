"""Tolerance budgets shared by the CLI contract checks and the test suites.

Most budgets combine a discretization term proportional to the step size
with a Monte Carlo term proportional to a standard error; verify-lq's
control and Riccati-state allowances are plain numbers.  The constants are
fixed here once and nowhere else.
"""

from __future__ import annotations

import numpy as np

# verify-lq: the solver's control against the oracle feedback on the solver's
# own paths, relative L2 error over the horizon
CONTROL_REL_L2_BUDGET = 0.05
# verify-lq with the derivative solve: the largest error of the recovered
# Riccati state P = gradY (gradX)^-1 against the oracle's P
RICCATI_STATE_BUDGET = 0.07


def mc_term(stderr: float) -> float:
    """The sampling-noise share of a budget: 4 * stderr."""
    return 4.0 * stderr


def lq_value_budget(dt: float, value: float, stderr: float) -> float:
    """|J - V| allowance for oracle equivalence checks."""
    return max(2.0 * dt * abs(value) + 0.002, mc_term(stderr))


def relative_budget(target):
    """Hybrid absolute/relative allowance 0.05 * (1 + |target|)."""
    return 0.05 * (1.0 + float(np.max(np.abs(target))))


def dpp_budget(dt: float, scale: float, stderr: float) -> float:
    return max(3.0 * dt * scale, mc_term(stderr))


def hjb_solver_budget(dt: float, h_t: float, stderr: float) -> float:
    return 5.0 * (mc_term(stderr) + dt + h_t)


def contraction_bound(eta: float, delta: float, k_hat: float) -> float:
    """Per-step decay allowance of the gradient norms under step size eta, with 0.05 slack."""
    inner = max(1.0 - 2.0 * eta * delta + eta * eta * k_hat, 0.0)
    return float(np.sqrt(inner) + 0.05)
