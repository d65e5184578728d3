"""End-to-end checks on a two-dimensional problem with every term nonzero.

Exercises the matrix/vector index plumbing (n = m = d = 2) and the affine
and scalar companions of the Riccati oracle, which stay silent on the
scalar presets with zero drift offsets.  The problem is the rich_lq
fixture of conftest.py.
"""

from dataclasses import replace

import numpy as np
import pytest

import lcflow.variational
from lcflow import (
    CoefficientSet,
    DescentConfig,
    Dimensions,
    RegressionBasis,
    TimeGrid,
    build_smooth_convex_problem,
    evaluate_value,
    freeze_second_order,
    generate_brownian,
    hessian_from_derivative,
    simulate_closed_loop,
    solve_hamiltonian,
    solve_linear_hamiltonian,
    validate_problem,
)
from lcflow.descent import core_from_spec
from lcflow.paths import l2_norm_array, mc_stderr
from lcflow.riccati import lq_value, solve_riccati_ode
from lcflow.value import RiccatiValueSource, hjb_residual


@pytest.fixture(scope="module")
def grid30():
    return TimeGrid(0.0, 1.0, 30)


@pytest.fixture(scope="module")
def ric_rich(rich_lq, grid30):
    return solve_riccati_ode(rich_lq, grid=grid30)


@pytest.fixture(scope="module")
def sol_rich(rich_lq, grid30):
    W = generate_brownian(grid30, 6000, seed=88, antithetic=True, d=2)
    basis = RegressionBasis(degree=2, ridge=1e-8)
    cfg = DescentConfig(eta="auto", max_iter=150, tol_grad=1e-3)
    sol = solve_hamiltonian(rich_lq, grid30, 0.0, [0.3, -0.2], W, basis, cfg)
    return sol, W, basis, cfg


def test_validates(rich_lq):
    report = validate_problem(rich_lq, samples=60)
    assert report.passed, [c.name for c in report.checks if not c.passed]


def test_oracle_companion_odes_satisfy_the_pde(rich_lq, ric_rich, grid30):
    # residual of the dynamic-programming PDE under the quadratic ansatz:
    # second-order in the time step of the finite difference, far below the
    # size of its components
    source = RiccatiValueSource(ric_rich)
    sub = (ric_rich.times[1] - ric_rich.times[0])
    x = np.array([0.4, -0.3])
    samples = [(float(ric_rich.times[8]), x), (float(ric_rich.times[60]), x)]
    rep_coarse = hjb_residual(rich_lq, source, samples, h_t=4 * sub)
    rep_fine = hjb_residual(rich_lq, source, samples, h_t=2 * sub)
    comp_scale = max(abs(rep_fine.entries[0].generator_part),
                     abs(rep_fine.entries[0].hamiltonian_part), 1.0)
    assert rep_fine.max_abs_residual <= 1e-3 * comp_scale
    # quadratic decay in the step confirms the residual is differencing
    # error, not a wrong coefficient in the companion equations
    assert rep_fine.max_abs_residual <= 0.35 * rep_coarse.max_abs_residual + 1e-12


def test_solver_matches_oracle_value(ric_rich, grid30, sol_rich):
    sol, W, basis, cfg = sol_rich
    costs = sol.per_path_cost
    j = float(costs.mean())
    V, DxV, _ = lq_value(ric_rich, 0.0, [0.3, -0.2])
    budget = max(3 * grid30.dt * abs(V) + 0.003, 4 * mc_stderr(costs, True))
    assert abs(j - V) <= budget
    y0 = sol.Y[:, 0].mean(axis=0)
    assert np.max(np.abs(y0 - DxV)) <= 0.05 * (1 + np.max(np.abs(DxV)))


def test_solver_control_matches_oracle_gain(rich_lq, ric_rich, grid30, sol_rich):
    sol, *_ = sol_rich
    ref = np.empty_like(sol.U)
    for k in range(grid30.N):
        Theta, theta = ric_rich.gain_at(float(grid30.nodes[k]))
        ref[:, k] = sol.X[:, k] @ Theta.T + theta
    rel = l2_norm_array(sol.U - ref, grid30.dt) / l2_norm_array(ref, grid30.dt)
    assert rel <= 0.07


@pytest.fixture(scope="module")
def deriv_rich(rich_lq, sol_rich):
    """(frozen blocks, derivative solution, path count of each direction's descend call)."""
    sol, _, basis, cfg = sol_rich
    frozen = freeze_second_order(rich_lq, sol)
    seen = []
    real = lcflow.variational.descend

    def spy(core, W, *args, **kwargs):
        seen.append(W.M)
        return real(core, W, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lcflow.variational, "descend", spy)
        deriv = solve_linear_hamiltonian(rich_lq, basis, sol, frozen, cfg)
    return frozen, deriv, seen


def test_noisy_derivative_keeps_the_full_ensemble(sol_rich, deriv_rich):
    # C != 0 (and D != 0): noise reaches the direction system, so both
    # directions run on every path
    sol, *_ = sol_rich
    *_, seen = deriv_rich
    assert seen == [sol.W.M, sol.W.M]


def test_curvature_matches_oracle_state(ric_rich, deriv_rich):
    frozen, deriv, _ = deriv_rich
    # quadratic costs: every frozen block equals its first (path, step) block
    for block, first in ((frozen.Qh, frozen.Qh[:1, :1]), (frozen.Sh, frozen.Sh[:1, :1]),
                         (frozen.Rh, frozen.Rh[:1, :1]), (frozen.Gh, frozen.Gh[:1])):
        np.testing.assert_allclose(block, np.broadcast_to(first, block.shape), rtol=0, atol=1e-12)
    hess = hessian_from_derivative(deriv)
    P0 = ric_rich.P_at(0.0)
    assert np.max(np.abs(hess.matrix - P0)) <= 0.07 * max(1.0, float(np.linalg.norm(P0)))
    assert hess.asymmetry <= 0.05


def test_derivative_solve_reuses_the_primal_k(rich_lq, sol_rich, deriv_rich):
    # C != 0, so the probe base is not removed by the feature normalization;
    # the derivative problem's own K still agrees with the primal one
    sol, _, basis, cfg = sol_rich
    frozen, reused, _ = deriv_rich
    no_k = replace(sol, report=replace(sol.report, k_hat=None))
    probed = solve_linear_hamiltonian(rich_lq, basis, no_k, frozen, cfg)
    k_primal = sol.report.k_hat
    assert [r.k_hat for r in reused.reports] == [k_primal, k_primal]
    assert abs(probed.reports[0].k_hat - k_primal) <= 0.01 * k_primal
    assert [r.iterations for r in reused.reports] == [r.iterations for r in probed.reports]
    np.testing.assert_allclose(reused.grad_Y[:, 0], probed.grad_Y[:, 0], rtol=0, atol=1e-6)


def test_closed_loop_matches_oracle(rich_lq, ric_rich, grid30, sol_rich):
    _, W, *_ = sol_rich
    res = simulate_closed_loop(rich_lq, core_from_spec(rich_lq, grid30, [0.3, -0.2]), W,
                               RiccatiValueSource(ric_rich))
    V, _, _ = lq_value(ric_rich, 0.0, [0.3, -0.2])
    assert abs(res.cost - V) <= max(3 * grid30.dt * abs(V) + 0.003, 4 * res.stderr)


def test_case2_convexity_through_the_noise():
    # running cost barely convex in the control; uniform convexity rides on
    # the control entering the diffusion with D^T D above the modulus
    dims = Dimensions(1, 1, 1)
    coeffs = CoefficientSet.build(dims, A=[[0.0]], B=[[1.0]], D=[[[1.2]]],
                                  sigma=[[0.2]])
    spec = build_smooth_convex_problem("case2_smooth", dims, 1.0, coeffs,
                                       delta=1.0, kappa_g=0.5, r_u=0.25)
    grid = TimeGrid(0.0, 1.0, 40)
    W = generate_brownian(grid, 6000, seed=91, antithetic=True)
    basis = RegressionBasis(degree=2, ridge=1e-8)
    cfg = DescentConfig(eta="auto", max_iter=200, tol_grad=1e-3)
    vs = evaluate_value(spec, grid, 0.0, [0.5], W, basis, cfg, with_hessian=False)
    assert vs.diagnostics["final_residual"] <= 1e-3
    # value below the zero-control cost and above the terminal floor
    zero_cfg = DescentConfig(eta=0.3, max_iter=0, tol_grad=np.inf)
    vs_zero = evaluate_value(spec, grid, 0.0, [0.5], W, basis, zero_cfg, with_hessian=False)
    assert vs.V <= vs_zero.V + 4 * vs.stderr_V
    assert vs.V >= 0.0
