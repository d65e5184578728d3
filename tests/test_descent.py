import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lcflow

from lcflow import (
    BlowupError,
    CoefficientSet,
    ConvergenceError,
    DescentConfig,
    Dimensions,
    TimeGrid,
    build_lq_problem,
    generate_brownian,
    solve_hamiltonian,
    uniform_convexity_gap,
)
from lcflow.budgets import contraction_bound
from lcflow.adjoint import per_path_cost_core
from lcflow.descent import (LIPSCHITZ_PROBES, _evaluate_gradient, core_from_spec,
                            estimate_lipschitz_core)
from lcflow.paths import l2_norm_array


def _decoupled_spec():
    # B = D = 0: the control never touches the state, the gradient map is
    # the identity plus the control-cost derivative
    dims = Dimensions(1, 1, 1)
    coeffs = CoefficientSet.build(dims, A=[[0.0]], sigma=[[0.2]])
    return build_lq_problem(horizon=1.0, coeffs=coeffs, G=np.zeros((1, 1)), r=np.zeros(1),
                            Q=np.zeros((1, 1)), S=np.zeros((1, 1)), R=np.eye(1),
                            q=np.zeros(1), rho=np.zeros(1), delta=1.0)


def test_zero_problem_converges_immediately(grid, basis, spec_zero):
    W = generate_brownian(grid, 256, seed=1)
    cfg = DescentConfig(eta=0.5, max_iter=5, tol_grad=1e-8)
    sol = solve_hamiltonian(spec_zero, grid, 0.0, [1.0], W, basis, cfg)
    assert sol.report.iterations == 0
    assert np.max(np.abs(sol.U)) == 0.0
    assert np.max(np.abs(sol.Y)) == 0.0
    assert sol.report.final_residual == 0.0


def test_lipschitz_identity_operator(grid, basis):
    spec = _decoupled_spec()
    W = generate_brownian(grid, 1000, seed=2)
    k_hat, _ = estimate_lipschitz_core(core_from_spec(spec, grid, [0.0]), W.increments, basis,
                                       probes=3, seed=5)
    # raw squared ratio is exactly one, doubled by the safety factor
    assert k_hat == pytest.approx(2.0, abs=1e-9)


def test_auto_eta_is_delta_over_k(grid, basis, spec_p1):
    W = generate_brownian(grid, 2000, seed=3, antithetic=True)
    cfg = DescentConfig(eta="auto", max_iter=60, tol_grad=1e-3)
    sol = solve_hamiltonian(spec_p1, grid, 0.0, [0.0], W, basis, cfg)
    assert sol.report.k_hat is not None
    assert sol.report.eta == pytest.approx(spec_p1.certificate.delta / sol.report.k_hat)
    # the raw ratios of the 4 probes are kept, and K is twice the largest
    assert len(sol.report.probe_ratios) == 4
    assert sol.report.k_hat == 2.0 * max(sol.report.probe_ratios)
    assert json.loads(json.dumps(sol.report.to_dict()))["probe_ratios"] == sol.report.probe_ratios
    # a returned report is a converged one, and each step_norm is eta times the residual before it
    rep = sol.report.to_dict()
    assert rep["converged"] is True and rep["reason"] == "stationarity"
    assert [h["step_norm"] for h in rep["history"]] == [0.0] + [
        sol.report.eta * g for g in sol.report.grad_norms[:-1]]


def test_p1_small_scale_matches_oracle(sol_p1_small, grid):
    J = float(sol_p1_small.per_path_cost.mean())
    assert J == pytest.approx(0.045, abs=0.004)
    ref = -sol_p1_small.X[:, :-1]
    num = l2_norm_array(sol_p1_small.U - ref, grid.dt)
    den = l2_norm_array(ref, grid.dt)
    assert num / den <= 0.05


def test_contraction_ratios_within_bound(sol_p1_small):
    rep = sol_p1_small.report
    bound = contraction_bound(rep.eta, 1.0, rep.k_hat)
    gs = rep.grad_norms
    ratios = [gs[i + 1] / gs[i] for i in range(len(gs) - 1) if gs[i] > 0]
    assert max(ratios) <= bound
    # non-increasing up to 5 percent per step
    assert all(r <= 1.05 for r in ratios)


def test_affine_map_is_contractive(grid, basis, spec_p1):
    M = 4000
    W = generate_brownian(grid, M, seed=6, antithetic=True)
    cfg = DescentConfig(eta="auto", max_iter=60, tol_grad=1e-3)
    sol = solve_hamiltonian(spec_p1, grid, 0.0, [0.2], W, basis, cfg)
    eta, k_hat = sol.report.eta, sol.report.k_hat
    factor = contraction_bound(eta, 1.0, k_hat)
    rng = np.random.Generator(np.random.Philox(key=7))
    core = core_from_spec(spec_p1, grid, [0.2])

    def apply_map(vals):
        U = np.broadcast_to(vals, (M, grid.N, 1)).copy()
        return U - eta * _evaluate_gradient(core, U, W.increments, basis)[3]

    uv = rng.standard_normal((grid.N, 1)) * 0.5
    vv = rng.standard_normal((grid.N, 1)) * 0.5
    tu, tv = apply_map(uv), apply_map(vv)
    num = l2_norm_array(tu - tv, grid.dt)
    den = l2_norm_array(np.broadcast_to(uv - vv, tu.shape), grid.dt)
    assert num / den <= factor


def test_restart_reaches_same_fixed_point(grid, basis, spec_p1):
    M = 4000
    W = generate_brownian(grid, M, seed=8, antithetic=True)
    cfg = DescentConfig(eta="auto", max_iter=200, tol_grad=1e-6)
    sol_a = solve_hamiltonian(spec_p1, grid, 0.0, [0.3], W, basis, cfg)
    rng = np.random.Generator(np.random.Philox(key=9))
    u0 = rng.uniform(-1.0, 1.0, (grid.N, 1))
    sol_b = solve_hamiltonian(spec_p1, grid, 0.0, [0.3], W, basis, cfg, u0=u0)
    dist = l2_norm_array(sol_a.U - sol_b.U, grid.dt)
    assert dist <= 1e-4


def test_a_priori_envelope(sol_p1_small, sol_p1_d_small, grid):
    # second-moment envelope K (1 + |x0|^2), a sanity bound not a sharp one; Z is fitted, and
    # enters the envelope, only where a C or D block reads it (P1-D), and is None on P1
    K = 50.0
    assert sol_p1_small.Z is None
    for sol in (sol_p1_small, sol_p1_d_small):
        x0_sq = float(sol.core.x0 @ sol.core.x0)
        sup_x = float((sol.X**2).sum(axis=2).max(axis=1).mean())
        sup_y = float((sol.Y**2).sum(axis=2).max(axis=1).mean())
        int_z = 0.0 if sol.Z is None else float((sol.Z**2).sum(axis=(2, 3)).mean() * grid.dt)
        int_u = float((sol.U**2).sum(axis=2).mean() * grid.dt)
        assert sup_x + sup_y + int_z + int_u <= K * (1.0 + x0_sq)
    assert sol_p1_d_small.Z.any()


def test_max_iter_exhaustion_raises_with_history(grid, basis, spec_p2):
    W = generate_brownian(grid, 512, seed=10)
    cfg = DescentConfig(eta=0.05, max_iter=1, tol_grad=1e-9)
    with pytest.raises(ConvergenceError) as err:
        solve_hamiltonian(spec_p2, grid, 0.0, [0.3], W, basis, cfg)
    assert len(err.value.history) >= 1


def test_max_iter_error_carries_eta_and_k(grid, basis, spec_p1):
    W = generate_brownian(grid, 512, seed=10)
    cfg = DescentConfig(eta="auto", max_iter=2, tol_grad=1e-9)
    with pytest.raises(ConvergenceError) as err:
        solve_hamiltonian(spec_p1, grid, 0.0, [0.3], W, basis, cfg)
    assert len(err.value.history) == 3
    assert err.value.k_hat > 0
    assert err.value.eta == spec_p1.certificate.delta / err.value.k_hat


def test_a_stalled_descent_is_not_converged(grid, basis, spec_p1):
    # a tiny fixed step barely moves the control while the residual stays far above tol_grad:
    # a small step is a stall, so the descent runs out of iterations instead of reporting
    # convergence
    W = generate_brownian(grid, 200, seed=201, antithetic=True)
    cfg = DescentConfig(eta=1e-6, tol_grad=1e-4, max_iter=60)
    with pytest.raises(ConvergenceError, match="no stationarity after 60 iterations") as err:
        solve_hamiltonian(spec_p1, grid, 0.0, [0.3], W, basis, cfg)
    assert len(err.value.history) == 61
    assert min(err.value.history) == pytest.approx(0.53, abs=0.01)
    assert err.value.eta == 1e-6 and err.value.k_hat is None


@pytest.mark.parametrize("which", ["p1", "p2"])
@pytest.mark.parametrize("M", [200, 1000])
def test_auto_step_reaches_a_tight_tolerance(which, M, grid, basis, spec_p1, spec_p2):
    # the fixed step eta = delta / K makes the gradient map a contraction, so the descent needs
    # no line search to get the regression-estimated residual below 1e-4
    W = generate_brownian(grid, M, seed=201, antithetic=True)
    spec = spec_p1 if which == "p1" else spec_p2
    cfg = DescentConfig(tol_grad=1e-4, max_iter=60)
    sol = solve_hamiltonian(spec, grid, 0.0, [0.3], W, basis, cfg)
    assert sol.report.final_residual <= cfg.tol_grad
    assert sol.report.iterations <= 12


def test_non_finite_residual_raises_at_once(grid, basis, spec_p1, monkeypatch):
    import lcflow.descent

    calls = []
    evaluate = lcflow.descent._evaluate_gradient

    def poisoned(*args):
        calls.append(1)
        X, Y, Z, D, diag = evaluate(*args)
        return X, Y, Z, (D if len(calls) < 3 else np.full_like(D, np.nan)), diag

    monkeypatch.setattr(lcflow.descent, "_evaluate_gradient", poisoned)
    W = generate_brownian(grid, 256, seed=10)
    cfg = DescentConfig(eta=0.5, max_iter=50, tol_grad=1e-9)
    with pytest.raises(ConvergenceError, match="non-finite residual nan at iteration 2") as err:
        solve_hamiltonian(spec_p1, grid, 0.0, [0.3], W, basis, cfg)
    assert len(calls) == 3
    assert len(err.value.history) == 2
    assert err.value.eta == 0.5
    assert err.value.k_hat is None


def test_too_large_fixed_eta_fails_with_its_history(grid, basis, spec_p1):
    # eta = 1.5 is three times the auto step delta / K_hat (about 0.49 here): the iterates grow
    # until the state blows up, and the error carries the residuals that led there
    W = generate_brownian(grid, 1000, seed=11, antithetic=True)
    cfg = DescentConfig(eta=1.5, max_iter=120, tol_grad=5e-3)
    with pytest.raises((BlowupError, ConvergenceError)) as err:
        solve_hamiltonian(spec_p1, grid, 0.0, [0.2], W, basis, cfg)
    history = err.value.history
    assert err.value.eta == 1.5 and err.value.k_hat is None
    assert len(history) >= 10 and history[-1] > 100 * history[0]
    assert all(b > a for a, b in zip(history, history[1:]))


def test_uniform_convexity_gap_decoupled_exact(grid, basis):
    spec = _decoupled_spec()
    M = 1000
    W = generate_brownian(grid, M, seed=12)
    cfg = DescentConfig(eta=0.5, max_iter=40, tol_grad=1e-6)
    sol = solve_hamiltonian(spec, grid, 0.0, [0.0], W, basis, cfg)
    gap = uniform_convexity_gap(sol, trials=8, seed=13)
    assert gap == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("which", ["p1", "p2"])
def test_uniform_convexity_gap_presets(which, sol_p1_small, sol_p2_small, spec_p1, spec_p2):
    spec, sol = (spec_p1, sol_p1_small) if which == "p1" else (spec_p2, sol_p2_small)
    gap = uniform_convexity_gap(sol, trials=20, seed=14)
    assert gap >= spec.certificate.delta - 0.05


def test_stationarity_invariant_of_solution(sol_p1_small, grid, basis, spec_p1):
    # the returned quadruple satisfies the algebraic optimality line at the
    # declared tolerance, with Y pinned to the terminal gradient exactly
    assert sol_p1_small.report.final_residual <= 1e-3
    np.testing.assert_array_equal(
        sol_p1_small.Y[:, -1],
        spec_p1.cost.dx_g(sol_p1_small.X[:, -1]),
    )


def test_lipschitz_estimate_stable_across_seeds(grid, basis, spec_p1):
    W = generate_brownian(grid, 4000, seed=20, antithetic=True)
    core = core_from_spec(spec_p1, grid, [0.0])
    a, _ = estimate_lipschitz_core(core, W.increments, basis, probes=8, seed=101)
    b, _ = estimate_lipschitz_core(core, W.increments, basis, probes=8, seed=202)
    assert abs(a - b) <= 0.10 * max(a, b)


def test_cost_is_evaluated_per_whole_path(grid, basis, cfg, spec_p2, monkeypatch):
    # a gradient evaluation asks the cost 3 times (Dx_g, Dx_l, Du_l) and a
    # cost evaluation twice (g, l), whatever the step count: a per-step loop
    # over the cost would multiply these by N
    import lcflow.descent
    from lcflow.costs import GridCost

    counts = {"cost": 0, "grad": 0, "cost_eval": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    for meth in ("terminal_value", "terminal_gradient", "running_value", "running_grad_x",
                 "running_grad_u"):
        monkeypatch.setattr(GridCost, meth, counting("cost", getattr(GridCost, meth)))
    monkeypatch.setattr(lcflow.descent, "_evaluate_gradient",
                        counting("grad", lcflow.descent._evaluate_gradient))
    monkeypatch.setattr(lcflow.descent, "per_path_cost_core",
                        counting("cost_eval", lcflow.descent.per_path_cost_core))
    W = generate_brownian(grid, 400, seed=201, antithetic=True)
    sol = solve_hamiltonian(spec_p2, grid, 0.0, [0.3], W, basis, cfg)
    assert grid.N == 50
    assert counts["grad"] > 0 and counts["cost_eval"] > 0
    assert counts["cost"] <= 3 * counts["grad"] + 2 * counts["cost_eval"], counts


@pytest.mark.parametrize("which", ["p1", "p2"])
@pytest.mark.parametrize("t0", [0.0, 0.5])
def test_solution_carries_its_per_path_cost(which, t0, spec_p1, spec_p2, basis, cfg):
    # the per-path cost descend computed for J is the one a consumer would
    # recompute from the spec, bit for bit, on the solution's own subgrid
    grid = TimeGrid(0.0, 1.0, 20)
    W = generate_brownian(grid, 500, seed=41, antithetic=True)
    spec, x0 = (spec_p1, [0.0]) if which == "p1" else (spec_p2, [0.3])
    sol = solve_hamiltonian(spec, grid, t0, x0, W, basis, cfg)
    assert sol.grid.t0 == pytest.approx(t0) and sol.grid.N == sol.W.increments.shape[1]
    core = core_from_spec(spec, sol.grid, x0)
    np.testing.assert_array_equal(sol.per_path_cost,
                                  per_path_cost_core(core.cost_eval, sol.grid, sol.X, sol.U))
    assert sol.report.costs[-1] == float(sol.per_path_cost.mean())


@pytest.mark.parametrize("case", ["converged_at_iteration_0", "several_iterations", "fixed_eta",
                                  "d_block"])
def test_solution_arrays_are_the_evaluation_of_its_control(case, grid, basis, spec_p1, spec_p2,
                                                          spec_p1_d, spec_linear_terminal):
    # descend reuses its buffers across evaluations and runs the probes in them: the returned
    # X, Y, Z and D must still be one evaluation at the returned U, bit for bit; from the
    # optimum u = -r, iteration 0 is the solution and the probes must leave its arrays alone.
    # Z is fitted only where a C or D block reads it (P1-D), and is None on the others
    spec, x0, u0, cfg = {
        "converged_at_iteration_0": (spec_linear_terminal, [0.0], -1.0, DescentConfig()),
        "several_iterations": (spec_p2, [0.3], None, DescentConfig()),
        "fixed_eta": (spec_p1, [0.2], None, DescentConfig(eta=0.5, tol_grad=5e-3)),
        "d_block": (spec_p1_d, [0.4], None, DescentConfig()),
    }[case]
    W = generate_brownian(grid, 400, seed=19, antithetic=True)
    sol = solve_hamiltonian(spec, grid, 0.0, x0, W, basis, cfg, u0=u0)
    assert (sol.report.iterations == 0) == (case == "converged_at_iteration_0")
    assert (sol.report.k_hat is not None) == (cfg.eta == "auto")
    assert (sol.report.probe_ratios == []) == (case == "fixed_eta")
    X, Y, Z, D, _ = _evaluate_gradient(sol.core, sol.U, W.increments, basis)
    assert (sol.Z is None) == (Z is None) == (case != "d_block")
    for got, want in ((sol.X, X), (sol.Y, Y), (sol.D, D),
                      (sol.per_path_cost, per_path_cost_core(sol.core.cost_eval, grid, X, sol.U))
                      ) + (((sol.Z, Z),) if Z is not None else ()):
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("case", ["p1", "p2", "fixed_eta", "zero_at_iteration_0"])
def test_solution_carries_its_running_cost(case, grid, basis, spec_p1, spec_p2, spec_zero):
    # the solution hands over the running costs its last cost evaluation formed, l(t_k, X_k, u_k)
    # dt, step-major and bit for bit a fresh evaluation's; when iteration 0 is the solution, the
    # probes run after it in buffers of their own and must leave them alone
    spec, x0, cfg = {
        "p1": (spec_p1, [0.0], DescentConfig()),
        "p2": (spec_p2, [0.3], DescentConfig()),
        "fixed_eta": (spec_p1, [0.2], DescentConfig(eta=0.5, tol_grad=5e-3)),
        "zero_at_iteration_0": (spec_zero, [1.0], DescentConfig()),
    }[case]
    W = generate_brownian(grid, 400, seed=19, antithetic=True)
    sol = solve_hamiltonian(spec, grid, 0.0, x0, W, basis, cfg)
    assert (sol.report.iterations == 0) == (case == "zero_at_iteration_0")
    assert len(sol.report.probe_ratios) == (0 if case == "fixed_eta" else LIPSCHITZ_PROBES)
    assert (sol.report.k_hat is None) == (case == "fixed_eta")
    want = sol.core.cost_eval.running_value(sol.X[:, :grid.N], sol.U) * grid.dt
    assert sol.running.shape == (400, grid.N) and sol.running.T.flags.c_contiguous
    assert np.ascontiguousarray(sol.running).tobytes() == np.ascontiguousarray(want).tobytes()


_FAULTS_PER_EVALUATION = """
import json, resource
import lcflow.descent as descent
from lcflow import DescentConfig, RegressionBasis, TimeGrid, generate_brownian
from lcflow.presets import p1
grid = TimeGrid(0.0, 1.0, 50)
W = generate_brownian(grid, 4000, seed=201, antithetic=True)
faults, evaluate = [], descent._evaluate_gradient
def counting(*args):
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = evaluate(*args)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
    return out
descent._evaluate_gradient = counting
sol = descent.solve_hamiltonian(p1(), grid, 0.0, [0.0], W, RegressionBasis(2, 1e-8),
                                DescentConfig())
print(json.dumps({"faults": faults, "iterations": sol.report.iterations}))
"""


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults of glibc's allocator")
def test_steady_state_evaluations_do_not_page_fault():
    # descend allocates its whole-path buffers once, so after the first two evaluations (the
    # buffers' first touch) no evaluation faults in as many pages as one [4000, 50] array; with
    # fresh arrays per evaluation, glibc returned them to the system and faulted them back in
    resource = pytest.importorskip("resource")
    src = str(Path(lcflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _FAULTS_PER_EVALUATION], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(done.stdout.splitlines()[-1])
    pages = -(-4000 * 50 * 8 // resource.getpagesize())
    steady = result["faults"][2:]
    # 4 probe evaluations and one per iteration
    assert len(steady) == 4 + result["iterations"] - 1 > 4
    assert max(steady) < pages, (result["faults"], pages)


_FAULTS_PER_P2_EVALUATION = """
import json, resource
import lcflow.descent as descent
from lcflow import DescentConfig, RegressionBasis, TimeGrid, generate_brownian
from lcflow.presets import p2
grid = TimeGrid(0.0, 1.0, 50)
W = generate_brownian(grid, 1000, seed=201, antithetic=True)
faults = []
def counting(fn, starts_an_evaluation):
    def wrapped(*args, **kwargs):
        start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        out = fn(*args, **kwargs)
        count = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start
        if starts_an_evaluation:
            faults.append(count)
        else:
            faults[-1] += count
        return out
    return wrapped
descent._evaluate_gradient = counting(descent._evaluate_gradient, True)
descent.per_path_cost_core = counting(descent.per_path_cost_core, False)
sol = descent.solve_hamiltonian(p2(), grid, 0.0, [0.3], W, RegressionBasis(2, 1e-8),
                                DescentConfig())
print(json.dumps({"faults": faults, "iterations": sol.report.iterations}))
"""


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults of glibc's allocator")
def test_p2_loop_evaluations_do_not_page_fault():
    # on P2 the running cost forms its pseudo-Huber and delta_u terms in the workspace's
    # scratch, so an evaluation of the loop (the gradient and the per-path cost) faults in
    # fewer pages than a quarter of one [1000, 50] array; with whole-path temporaries in the
    # running cost, each faulted 358
    resource = pytest.importorskip("resource")
    src = str(Path(lcflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _FAULTS_PER_P2_EVALUATION], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(done.stdout.splitlines()[-1])
    pages = -(-1000 * 50 * 8 // resource.getpagesize())
    # iteration 0, then 4 probe evaluations, then one per further iteration
    loop = result["faults"][5:]
    assert len(loop) == result["iterations"] > 1
    assert max(loop) < pages // 4, (result["faults"], pages)


def test_steady_state_evaluation_allocates_no_whole_path_array(basis):
    # in a workspace, the forward sweep forms its noise in X's rows and its drift in the
    # workspace's BU, and a regression block centres and squares its features in its design,
    # so an evaluation's traced memory never grows by as much as one state array [4000, 51]
    tracemalloc = pytest.importorskip("tracemalloc")
    from lcflow.descent import Workspace
    from lcflow.presets import p1

    grid = TimeGrid(0.0, 1.0, 50)
    W = generate_brownian(grid, 4000, seed=201, antithetic=True)
    core = core_from_spec(p1(), grid, [0.3])
    ws = Workspace.allocate(core, 4000, basis)
    ws.U[...] = 0.1
    _evaluate_gradient(core, ws.U, W.increments, basis, ws)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _evaluate_gradient(core, ws.U, W.increments, basis, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < ws.X.nbytes, (peak - start, ws.X.nbytes)


def test_workspace_designs_are_smaller_than_the_arrays_beside_them(basis):
    # on P1 at N=50, M=4000 a regression design of BLOCK_STEPS steps stays below the primal
    # state X [4000, 51, 1] (p = 3) and below a derivative solve's features [4000, 51, 2]
    # (p = 6) on all paths.  At 17 steps each is exactly as large as the array beside it; once
    # freed it lifts glibc's mmap threshold over the whole-path arrays, and p1-verify's peak
    # resident memory rose 4.9% (about 6% at 25 steps).  A grid shorter than a block sizes it.
    from dataclasses import replace
    from lcflow.adjoint import BLOCK_STEPS
    from lcflow.descent import Workspace
    from lcflow.paths import step_major
    from lcflow.presets import p1

    M, K = 4000, min(BLOCK_STEPS, 50)
    core = core_from_spec(p1(), TimeGrid(0.0, 1.0, 50), [0.3])
    ws = Workspace.allocate(core, M, basis)
    assert ws.design.shape == (3, K, M) and ws.design.nbytes < ws.X.nbytes
    store = step_major(M, 51, 2)
    ws = Workspace.allocate(replace(core, feature_store=store), M, basis)
    assert ws.design.shape == (6, K, M) and ws.design.nbytes < store.nbytes
    short = core_from_spec(p1(), TimeGrid(0.0, 1.0, 5), [0.3])
    assert Workspace.allocate(short, M, basis).design.shape == (3, 5, M)


@pytest.mark.parametrize("which", ["p1", "p2"])
def test_report_carries_the_converged_regression_health(which, grid, basis, spec_p1, spec_p2):
    # the largest condition number over the steps with spread, of the evaluation at the returned
    # control: far below the 1 / ridge of step 0, where every path sits at x0
    spec, x0 = (spec_p1, [0.2]) if which == "p1" else (spec_p2, [0.3])
    W = generate_brownian(grid, 600, seed=29, antithetic=True)
    sol = solve_hamiltonian(spec, grid, 0.0, x0, W, basis, DescentConfig())
    *_, cond_max = _evaluate_gradient(sol.core, sol.U, W.increments, basis)
    assert sol.report.regression_cond_max == cond_max
    assert 1.0 <= cond_max <= 1e-4 / basis.ridge
    assert json.loads(json.dumps(sol.report.to_dict()))["regression"] == {"cond_max": cond_max}
