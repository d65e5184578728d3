"""Acceptance suite: one test per shipped guarantee, at desk scale.

Desk scale is a 50-step grid with 50,000 antithetic paths and the default
degree-2 basis.  Probe-heavy finite-difference checks run on a 12,000-path
slice of the same ensemble: their tolerances carry explicit standard-error
terms, so they adapt to the path count they actually use.  Every test
prints one PASS line with the numbers it checked.
"""

import json

import numpy as np
import pytest

from lcflow import (
    DescentConfig,
    RegressionBasis,
    TimeGrid,
    convexity_probe,
    dpp_gap,
    evaluate_value,
    freeze_second_order,
    generate_brownian,
    hessian_from_derivative,
    hjb_residual,
    regularity_margin,
    riccati_state_check,
    solve_hamiltonian,
    solve_linear_hamiltonian,
    uniform_convexity_gap,
    verify_optimality,
)
from lcflow.budgets import contraction_bound, dpp_budget, hjb_solver_budget, lq_value_budget
from lcflow.cli import main as cli_main
from lcflow.paths import BrownianEnsemble, l2_norm_array, mc_stderr
from lcflow.presets import linear_terminal, p1, p1_d_variant, p2, zero_problem
from lcflow.problem import problem_to_json
from lcflow.riccati import (
    lq_policy_value,
    lq_value,
    solve_riccati_ode,
)
from lcflow.value import RiccatiValueSource, SolverValueSource, fd_gradient_of_value

DESK_N = 50
DESK_M = 50_000
MID_M = 12_000
SEED = 2024
DELTA = 1.0


def _report(criterion, detail):
    print(f"criterion {criterion:>2}: PASS  {detail}")


@pytest.fixture(scope="session")
def desk_grid():
    return TimeGrid(0.0, 1.0, DESK_N)


@pytest.fixture(scope="session")
def desk_basis():
    return RegressionBasis(degree=2, ridge=1e-8)


@pytest.fixture(scope="session")
def w_desk(desk_grid):
    return generate_brownian(desk_grid, DESK_M, seed=SEED, antithetic=True, d=1)


@pytest.fixture(scope="session")
def w_mid(desk_grid, w_desk):
    inc = w_desk.increments[:MID_M]
    return BrownianEnsemble(grid=desk_grid, M=MID_M, increments=inc, seed=SEED,
                            antithetic=True)


@pytest.fixture(scope="session")
def spec_p1_a():
    return p1()


@pytest.fixture(scope="session")
def spec_p2_a():
    return p2()


@pytest.fixture(scope="session")
def auto_cfg():
    return DescentConfig(eta="auto", max_iter=80, tol_grad=1e-3)


@pytest.fixture(scope="session")
def sol_p1(spec_p1_a, desk_grid, w_desk, desk_basis, auto_cfg):
    # the one auto-step-size run the contraction criterion inspects
    return solve_hamiltonian(spec_p1_a, desk_grid, 0.0, [0.0], w_desk, desk_basis, auto_cfg)


@pytest.fixture(scope="session")
def cfg_p1(sol_p1):
    # reuse the measured step size in the many replay solves
    return DescentConfig(eta=sol_p1.report.eta, max_iter=120, tol_grad=1e-3)


@pytest.fixture(scope="session")
def sol_p2(spec_p2_a, desk_grid, w_desk, desk_basis, auto_cfg):
    return solve_hamiltonian(spec_p2_a, desk_grid, 0.0, [0.3], w_desk, desk_basis, auto_cfg)


@pytest.fixture(scope="session")
def cfg_p2(sol_p2):
    return DescentConfig(eta=sol_p2.report.eta, max_iter=120, tol_grad=1e-3)


@pytest.fixture(scope="session")
def ric_p1(spec_p1_a, desk_grid):
    return solve_riccati_ode(spec_p1_a, grid=desk_grid)


@pytest.fixture(scope="session")
def deriv_p1(spec_p1_a, desk_basis, sol_p1):
    frozen = freeze_second_order(spec_p1_a, sol_p1)
    return solve_linear_hamiltonian(spec_p1_a, desk_basis, sol_p1, frozen,
                                    DescentConfig(eta="auto", max_iter=120, tol_grad=1e-3))


def test_criterion_01_lq_oracle_equivalence(desk_grid, sol_p1, ric_p1, w_desk):
    costs = sol_p1.per_path_cost
    j = float(costs.mean())
    stderr = mc_stderr(costs, w_desk.antithetic)
    V, DxV, _ = lq_value(ric_p1, 0.0, [0.0])
    assert V == pytest.approx(0.045, abs=1e-12)
    budget = lq_value_budget(desk_grid.dt, V, stderr)
    assert abs(j - V) <= budget
    y0 = sol_p1.Y[:, 0].mean(axis=0)
    assert np.max(np.abs(y0 - DxV)) <= 0.05 * (1.0 + np.max(np.abs(DxV)))
    ref = np.empty_like(sol_p1.U)
    for k in range(desk_grid.N):
        Theta, theta = ric_p1.gain_at(float(desk_grid.nodes[k]))
        ref[:, k] = sol_p1.X[:, k] @ Theta.T + theta
    rel = l2_norm_array(sol_p1.U - ref, desk_grid.dt) / l2_norm_array(ref, desk_grid.dt)
    assert rel <= 0.05
    _report(1, f"|J - V| = {abs(j - V):.2e} <= {budget:.2e}; "
               f"|Y0 - DxV| = {float(np.max(np.abs(y0 - DxV))):.2e}; "
               f"control error {rel:.3%} <= 5%")


def test_criterion_02_stationarity(sol_p1, sol_p2):
    r1 = sol_p1.report.final_residual
    r2 = sol_p2.report.final_residual
    assert r1 <= 1e-3 and r2 <= 1e-3
    _report(2, f"residuals P1 {r1:.2e}, P2 {r2:.2e} <= 1e-3")


def test_criterion_03_contraction(sol_p1):
    rep = sol_p1.report
    bound = contraction_bound(rep.eta, DELTA, rep.k_hat)
    gs = rep.grad_norms
    ratios = [gs[i + 1] / gs[i] for i in range(len(gs) - 1) if gs[i] > 0]
    assert max(ratios) <= bound, (ratios, bound)
    assert rep.iterations <= 60
    _report(3, f"max decay ratio {max(ratios):.3f} <= {bound:.3f}; "
               f"{rep.iterations} iterations <= 60")


def test_criterion_04_uniform_convexity_gap(sol_p1, sol_p2):
    g1 = uniform_convexity_gap(sol_p1, trials=20, seed=31)
    g2 = uniform_convexity_gap(sol_p2, trials=20, seed=32)
    assert g1 >= DELTA - 0.05
    assert g2 >= DELTA - 0.05
    _report(4, f"gap ratios P1 {g1:.3f}, P2 {g2:.3f} >= {DELTA - 0.05:.2f}")


@pytest.mark.parametrize("which", ["p1", "p2"])
def test_criterion_05_gradient_identity(which, spec_p1_a, spec_p2_a, desk_grid, w_mid,
                                        desk_basis, cfg_p1, cfg_p2):
    spec = spec_p1_a if which == "p1" else spec_p2_a
    cfg = cfg_p1 if which == "p1" else cfg_p2
    worst = 0.0
    for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
        h = 0.05 * (1.0 + abs(x))
        vs = evaluate_value(spec, desk_grid, 0.0, [x], w_mid, desk_basis, cfg,
                            with_hessian=False)
        fd, se = fd_gradient_of_value(spec, desk_grid, [x], h, w_mid, desk_basis, cfg)
        err = abs(vs.DxV[0] - fd[0])
        tol = max(3.0 * se[0], 0.01 * (1.0 + abs(x)))
        assert err <= tol, (x, err, tol)
        worst = max(worst, err)
    _report(5, f"{which}: worst |DxV - FD(V)| = {worst:.2e} over 5 probe points")


def test_criterion_06_hessian_identity(deriv_p1, ric_p1):
    hess = hessian_from_derivative(deriv_p1)
    assert hess.matrix[0, 0] == pytest.approx(1.0, abs=0.07)
    assert hess.asymmetry <= 0.05
    rep = riccati_state_check(deriv_p1, oracle=ric_p1)
    assert rep.oracle_err_max <= 0.07
    assert not rep.invertibility_flagged
    _report(6, f"DxxV(0,0) = {hess.matrix[0, 0]:.4f} (target 1 +- 7%); "
               f"max Riccati-state error {rep.oracle_err_max:.3%} <= 7%")


def test_criterion_07_regular_condition(spec_p1_a, desk_grid, w_mid, desk_basis,
                                        cfg_p1, sol_p1, deriv_p1, spec_p2_a, cfg_p2,
                                        w_desk, sol_p2):
    # exact margin on the noiseless-control preset
    vs1 = evaluate_value(spec_p1_a, desk_grid, 0.0, [0.0], w_desk, desk_basis, cfg_p1,
                         sol=sol_p1, with_hessian=True)
    vs1.DxxV = hessian_from_derivative(deriv_p1).matrix
    m1 = regularity_margin(spec_p1_a, vs1, samples=64)
    assert m1 == pytest.approx(1.0, abs=1e-12)
    # control noise bumps the margin through the curvature
    spec_d = p1_d_variant()
    cfg_d = DescentConfig(eta="auto", max_iter=120, tol_grad=1e-3)
    vs_d = evaluate_value(spec_d, desk_grid, 0.0, [0.0], w_mid, desk_basis, cfg_d)
    m_d = regularity_margin(spec_d, vs_d, samples=64)
    assert m_d == pytest.approx(1.25, abs=0.05 * 1.25)
    # smooth preset keeps the floor from the control weight alone
    vs2 = evaluate_value(spec_p2_a, desk_grid, 0.0, [0.3], w_mid, desk_basis, cfg_p2,
                         with_hessian=True)
    m2 = regularity_margin(spec_p2_a, vs2, samples=64)
    assert m2 >= DELTA - 0.05
    _report(7, f"margins: P1 {m1:.6f} (exact 1), D-variant {m_d:.4f} (1.25 +- 5%), "
               f"P2 {m2:.4f} >= {DELTA - 0.05:.2f}")


def test_criterion_08_dpp(desk_grid, w_desk, ric_p1, sol_p1):
    # the continuation is the oracle's: a regression of the same paths' cost-to-go reproduces
    # their mean (test_adjoint), so its gap reads zero whatever the control
    gap1 = dpp_gap(sol_p1, 0.2, RiccatiValueSource(ric_p1))
    costs1 = sol_p1.per_path_cost
    budget1 = dpp_budget(desk_grid.dt, 1.0 + abs(float(costs1.mean())),
                         mc_stderr(costs1, w_desk.antithetic))
    assert abs(gap1) <= budget1
    _report(8, f"gap P1 {gap1:+.2e} (budget {budget1:.2e})")


def test_criterion_09_hjb_residual(spec_p1_a, desk_grid, ric_p1, w_mid, desk_basis, cfg_p1):
    h_t = 2.0 * desk_grid.dt
    ts = np.linspace(0.1, 0.9, 9)
    samples = [(round(float(t) / desk_grid.dt) * desk_grid.dt, np.array([0.4])) for t in ts]
    oracle_rep = hjb_residual(spec_p1_a, RiccatiValueSource(ric_p1), samples, h_t=h_t)
    assert oracle_rep.max_abs_residual <= 1e-6
    source = SolverValueSource(spec_p1_a, desk_grid, w_mid, desk_basis, cfg_p1)
    solver_samples = [(0.2, np.array([0.5])), (0.5, np.array([0.0])), (0.7, np.array([-0.5]))]
    solver_rep = hjb_residual(spec_p1_a, source, solver_samples, h_t=h_t)
    stderr = max(source.sample(t, x).stderr_V for t, x in solver_samples)
    tol = hjb_solver_budget(desk_grid.dt, h_t, stderr)
    assert solver_rep.max_abs_residual <= tol
    _report(9, f"oracle residual {oracle_rep.max_abs_residual:.2e} <= 1e-6 at 9 points; "
               f"solver residual {solver_rep.max_abs_residual:.2e} <= {tol:.2e}")


def test_criterion_10_verification(spec_p1_a, desk_grid, ric_p1, sol_p1):
    report = verify_optimality(spec_p1_a, sol_p1, RiccatiValueSource(ric_p1),
                               n_perturbed=10, seed=77, gain_scale=1.3)
    budget = lq_value_budget(desk_grid.dt, report.value,
                             max(report.stderr_closed, report.stderr_open))
    assert abs(report.gap_closed_open) <= budget
    assert abs(report.gap_closed_value) <= budget
    for p in report.perturbed:
        assert p.gap_vs_closed >= -4.0 * p.stderr_gap - budget
    wrong_value, _ = lq_policy_value(spec_p1_a, desk_grid, [[-1.3]])
    oracle_gap = wrong_value([0.0]) - report.value
    strict = report.scaled_gain
    assert strict.gap_vs_closed > 4.0 * strict.stderr_gap
    assert strict.gap_vs_closed == pytest.approx(oracle_gap, rel=0.5)
    _report(10, f"|J_closed - J_open| = {abs(report.gap_closed_open):.2e}, "
                f"|J_closed - V| = {abs(report.gap_closed_value):.2e} <= {budget:.2e}; "
                f"10 perturbed loops not below V; 1.3-gain excess "
                f"{strict.gap_vs_closed:.2e} > {4.0 * strict.stderr_gap:.2e} "
                f"(oracle {oracle_gap:.2e})")


def test_criterion_11_convexity(spec_p1_a, spec_p2_a, desk_grid, w_mid, desk_basis,
                                cfg_p1, cfg_p2):
    rep1 = convexity_probe(spec_p1_a, desk_grid, 0.0,
                           [(np.array([-1.0]), np.array([1.0]))], [0.5],
                           w_mid, desk_basis, cfg_p1)
    e = rep1.entries[0]
    budget = max(3.0 * desk_grid.dt * 0.5, 4.0 * e.stderr) + 0.01
    assert e.gap == pytest.approx(0.5, abs=budget)
    rep2 = convexity_probe(spec_p2_a, desk_grid, 0.0,
                           [(np.array([-1.0]), np.array([1.0]))], [0.3, 0.5],
                           w_mid, desk_basis, cfg_p2)
    assert rep2.passed()
    _report(11, f"P1 midpoint gap {e.gap:.4f} (target 0.5 +- {budget:.3f}); "
                f"P2 gaps {[f'{x.gap:+.4f}' for x in rep2.entries]} >= -4 stderr")


def test_criterion_12_exact_degenerate_cases(desk_grid, desk_basis):
    W = generate_brownian(desk_grid, 2000, seed=9, antithetic=True)
    spec_z = zero_problem()
    cfg = DescentConfig(eta=0.5, max_iter=10, tol_grad=1e-9)
    vs = evaluate_value(spec_z, desk_grid, 0.0, [1.0], W, desk_basis, cfg)
    assert abs(vs.V) <= 1e-8
    assert np.max(np.abs(vs.DxV)) <= 1e-8
    assert np.max(np.abs(vs.DxxV)) <= 1e-8
    assert vs.diagnostics["final_residual"] <= 1e-8
    source = SolverValueSource(spec_z, desk_grid, W, desk_basis, cfg)
    hjb = hjb_residual(spec_z, source, [(0.3, np.array([1.0]))], h_t=2 * desk_grid.dt)
    assert hjb.max_abs_residual <= 1e-8
    gap = dpp_gap(solve_hamiltonian(spec_z, desk_grid, 0.0, [1.0], W, desk_basis, cfg), 0.2,
                  RiccatiValueSource(solve_riccati_ode(spec_z, desk_grid)))
    assert abs(gap) <= 1e-8

    spec_lt = linear_terminal(r=1.0)
    cfg_lt = DescentConfig(eta="auto", max_iter=200, tol_grad=1e-6)
    vs_lt = evaluate_value(spec_lt, desk_grid, 0.0, [0.0], W, desk_basis, cfg_lt,
                           with_hessian=False)
    assert vs_lt.DxV[0] == pytest.approx(1.0, abs=1e-10)
    assert vs_lt.V == pytest.approx(-0.5, abs=1e-5)
    _report(12, f"zero problem all quantities <= 1e-8; linear terminal DxV = "
                f"{vs_lt.DxV[0]:.12f}, V(0,0) = {vs_lt.V:.8f} (target -0.5)")


def test_criterion_13_determinism(tmp_path):
    probs = tmp_path / "problems"
    probs.mkdir()
    (probs / "p1.json").write_text(json.dumps(problem_to_json(p1())), encoding="utf-8")
    cfg = {
        "problem": "problems/p1.json",
        "grid": {"N": 20},
        "monte_carlo": {"M": 2000, "seed": 7, "antithetic": True},
        "basis": {"degree": 2, "ridge": 1e-8},
        "descent": {"eta": "auto", "max_iter": 80, "tol_grad": 2e-3},
        "initial": {"t": 0.0, "x": [0.0]},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        assert cli_main(["verify-lq", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    _report(13, "verify-lq reruns bit-identical")
