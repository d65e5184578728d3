import numpy as np
import pytest

from lcflow import (
    DescentConfig,
    convexity_probe,
    dpp_gap,
    evaluate_value,
    hjb_residual,
    regularity_margin,
    solve_hamiltonian,
)
from lcflow.budgets import dpp_budget
from lcflow.descent import LIPSCHITZ_PROBES, PROBE_SEED, core_from_spec, estimate_lipschitz_core
from lcflow.riccati import solve_riccati_ode
from lcflow.value import (
    RiccatiValueSource,
    SolverValueSource,
    ValueSample,
    fd_gradient_of_value,
    value_surface_to_csv,
)
from lcflow.variational import freeze_second_order, solve_linear_hamiltonian


@pytest.fixture(scope="module")
def oracle_p1(grid, spec_p1):
    return RiccatiValueSource(solve_riccati_ode(spec_p1, grid=grid))


def test_zero_problem_value_sample(spec_zero, grid, basis, w_small):
    cfg = DescentConfig(eta=0.5, max_iter=5, tol_grad=1e-9)
    vs = evaluate_value(spec_zero, grid, 0.0, [1.0], w_small, basis, cfg)
    assert abs(vs.V) <= 1e-8
    assert np.max(np.abs(vs.DxV)) <= 1e-8
    assert np.max(np.abs(vs.DxxV)) <= 1e-8


def test_linear_terminal_value_sample(spec_linear_terminal, grid, basis, w_small):
    cfg = DescentConfig(eta="auto", max_iter=200, tol_grad=1e-6)
    sol = solve_hamiltonian(spec_linear_terminal, grid, 0.0, [0.0], w_small, basis, cfg)
    vs = evaluate_value(spec_linear_terminal, grid, 0.0, [0.0], w_small, basis, cfg,
                        with_hessian=False, sol=sol)
    # adjoint is the constant vector r regardless of the control
    assert vs.DxV[0] == pytest.approx(1.0, abs=1e-10)
    # V(0,0) = -r^2 T / 2, reached quadratically from the converged control
    assert vs.V == pytest.approx(-0.5, abs=1e-5)
    # every path starts from one state under one control: equal start-node rows
    for rows in (sol.Y[:, 0], sol.U[:, 0]):
        assert (rows == rows[0]).all()


def test_p1_value_sample(spec_p1, grid, basis, cfg, w_small, sol_p1_small):
    vs = evaluate_value(spec_p1, grid, 0.0, [0.0], w_small, basis, cfg, sol=sol_p1_small)
    assert vs.V == pytest.approx(0.045, abs=max(2 * grid.dt * 0.045 + 0.002, 4 * vs.stderr_V))
    assert abs(vs.DxV[0]) <= 0.05
    assert vs.DxxV[0, 0] == pytest.approx(1.0, abs=0.07)


def test_value_gradient_identity_fd(spec_p1, grid, basis, cfg, w_small):
    for x in (-0.5, 0.5):
        h = 0.05 * (1 + abs(x))
        fd, se = fd_gradient_of_value(spec_p1, grid, [x], h, w_small, basis, cfg)
        vs = evaluate_value(spec_p1, grid, 0.0, [x], w_small, basis, cfg, with_hessian=False)
        assert abs(vs.DxV[0] - fd[0]) <= max(3 * se[0], 0.01 * (1 + abs(x)))


def test_cross_path_determinism_of_gradient(basis, cfg, request):
    # all paths start from one state under one control, so the start node's
    # regression is its intercept: the rows of the solution and of the
    # derivative there are exactly equal, with noise (P1-D, P2) or without
    for name in ("p1", "p1_d", "p2"):
        spec = request.getfixturevalue(f"spec_{name}")
        sol = request.getfixturevalue(f"sol_{name}_small")
        deriv = solve_linear_hamiltonian(spec, basis, sol, freeze_second_order(spec, sol), cfg)
        for rows in (sol.Y[:, 0], sol.U[:, 0], deriv.grad_Y[:, 0], deriv.grad_u[:, 0]):
            assert (rows == rows[0]).all(), name


def test_hjb_residual_oracle_nine_points(spec_p1, grid, oracle_p1):
    ts = np.linspace(0.1, 0.9, 9)
    samples = [(round(float(t) / grid.dt) * grid.dt, np.array([0.4])) for t in ts]
    report = hjb_residual(spec_p1, oracle_p1, samples, h_t=2 * grid.dt)
    assert report.max_abs_residual <= 1e-6
    for e in report.entries:
        assert e.residual == pytest.approx(e.time_derivative + e.generator_part + e.hamiltonian_part)


@pytest.mark.parametrize("name", ["rich_lq", "spec_p1_d"])
def test_hjb_control_is_the_oracle_feedback(name, grid, request):
    # D is nonzero on both, and rich_lq has C, S and rho too: the reduced
    # objective carries its curvature bump and its C x + sigma terms
    spec = request.getfixturevalue(name)
    ric = solve_riccati_ode(spec, grid=grid)
    source = RiccatiValueSource(ric)
    rng = np.random.Generator(np.random.Philox(key=8))
    samples = [(float(grid.nodes[k]), rng.uniform(-1.5, 1.5, spec.dims.n)) for k in (5, 20, 35, 45)]
    report = hjb_residual(spec, source, samples, h_t=grid.dt / 4)
    coeffs = spec.coeffs
    for e in report.entries:
        Theta, theta = ric.gain_at(e.t)
        np.testing.assert_allclose(e.control, Theta @ e.x + theta, rtol=0, atol=1e-9)
        # the reduced objective u.p + 1/2 u.Q u + l(t, x, u), written out
        DxV, DxxV = source.derivatives(e.t, e.x)
        B, C, D, sigma = (pw.at(e.t) for pw in (coeffs.B, coeffs.C, coeffs.D, coeffs.sigma))
        drift = np.einsum("inj,j->in", C, e.x) + sigma
        p = DxV @ B + np.einsum("inm,nk,ik->m", D, DxxV, drift)
        Q = np.einsum("inm,nk,ikl->ml", D, DxxV, D)
        u = e.control
        L = float(u @ p + 0.5 * u @ Q @ u + spec.cost.at(e.t).value(e.x, u))
        assert e.hamiltonian_part == pytest.approx(L, rel=1e-12, abs=1e-14)


def test_hjb_residual_zero_problem(spec_zero, grid, basis, w_small):
    cfg = DescentConfig(eta=0.5, max_iter=5, tol_grad=1e-9)
    source = SolverValueSource(spec_zero, grid, w_small, basis, cfg)
    samples = [(0.2, np.array([1.0])), (0.6, np.array([-2.0]))]
    report = hjb_residual(spec_zero, source, samples, h_t=2 * grid.dt)
    assert report.max_abs_residual <= 1e-10


def test_hjb_residual_solver_source_p1(spec_p1, grid, basis, cfg, w_small):
    source = SolverValueSource(spec_p1, grid, w_small, basis, cfg)
    h_t = 2 * grid.dt
    samples = [(0.5, np.array([0.3]))]
    report = hjb_residual(spec_p1, source, samples, h_t=h_t)
    vs = source.sample(0.5, np.array([0.3]))
    tol = 5.0 * (4.0 * vs.stderr_V + grid.dt + h_t)
    assert report.max_abs_residual <= tol


def test_dpp_gap_zero_problem(spec_zero, grid, basis, w_small):
    cfg = DescentConfig(eta=0.5, max_iter=5, tol_grad=1e-9)
    sol = solve_hamiltonian(spec_zero, grid, 0.0, [1.0], w_small, basis, cfg)
    gap = dpp_gap(sol, 0.2, RiccatiValueSource(solve_riccati_ode(spec_zero, grid=grid)))
    assert abs(gap) <= 1e-10


def test_dpp_gap_oracle_p1(spec_p1, grid, basis, cfg, w_small, oracle_p1, sol_p1_small):
    gap = dpp_gap(sol_p1_small, 0.2, oracle_p1)
    vs = evaluate_value(spec_p1, grid, 0.0, [0.0], w_small, basis, cfg, sol=sol_p1_small)
    assert abs(gap) <= dpp_budget(grid.dt, 1.0 + abs(vs.V), vs.stderr_V)


def test_dpp_gap_requires_grid_multiple(oracle_p1, sol_p1_small):
    with pytest.raises(ValueError):
        dpp_gap(sol_p1_small, 0.2345, oracle_p1)


@pytest.mark.parametrize("which", ["p1_oracle", "p2_lattice"])
def test_dpp_gap_reads_the_solution_running_cost(which, monkeypatch, spec_p2, grid, w_small, basis,
                                                 cfg, oracle_p1, sol_p1_small, sol_p2_small):
    # the gap takes V and the running cost off the solve and evaluates no running cost; it is
    # the gap of the running cost's own evaluation, split at t + h and summed in time order
    from lcflow.costs import GridCost
    from lcflow.feedback import build_lattice_source

    if which == "p1_oracle":
        sol, source = sol_p1_small, oracle_p1
    else:
        sol = sol_p2_small
        source = build_lattice_source(spec_p2, grid, 0.0, [0.3], w_small, basis, cfg, sol=sol)
    X, grid = sol.X, sol.grid
    running = sol.core.cost_eval.running_value(X[:, :grid.N], sol.U)
    kh = int(round(0.2 / grid.dt))
    head = np.zeros(X.shape[0])
    for k in range(kh):
        head += running[:, k] * grid.dt
    tail = sol.core.cost_eval.terminal_value(X[:, -1]).astype(float)
    for k in range(kh, grid.N):
        tail += running[:, k] * grid.dt
    cont = source.value(float(grid.nodes[kh]), X[:, kh])
    want = float((head + tail).mean()) - float((head + cont).mean())

    def refuse(*args, **kwargs):
        raise AssertionError("the running cost was evaluated again")

    monkeypatch.setattr(GridCost, "running_value", refuse)
    assert dpp_gap(sol, 0.2, source) == want


def test_regularity_margin_p1_exact(spec_p1, grid, basis, cfg, w_small, sol_p1_small):
    vs = evaluate_value(spec_p1, grid, 0.0, [0.0], w_small, basis, cfg, sol=sol_p1_small)
    margin = regularity_margin(spec_p1, vs, samples=32)
    # no control noise: the margin is the control weight itself
    assert margin == pytest.approx(1.0, abs=1e-12)


def test_regularity_margin_d_variant(spec_p1_d, grid, basis, cfg, w_small):
    vs = evaluate_value(spec_p1_d, grid, 0.0, [0.0], w_small, basis, cfg)
    margin = regularity_margin(spec_p1_d, vs, samples=32)
    # oracle start-node curvature is 1.1043, so the exact margin is 1.2761
    ric = solve_riccati_ode(spec_p1_d, grid=grid)
    target = 1.0 + 0.25 * float(ric.P_at(0.0)[0, 0])
    assert margin == pytest.approx(target, abs=0.05 * target)
    assert margin == pytest.approx(1.25, abs=0.0625)


def test_regularity_margin_p2(spec_p2, grid, basis, cfg, w_small, sol_p2_small):
    vs = evaluate_value(spec_p2, grid, 0.0, [0.3], w_small, basis, cfg, sol=sol_p2_small)
    margin = regularity_margin(spec_p2, vs, samples=32)
    assert margin >= 1.0 - 0.05


def test_convexity_probe_linear_terminal(spec_linear_terminal, grid, basis, w_small):
    cfg = DescentConfig(eta="auto", max_iter=200, tol_grad=1e-6)
    report = convexity_probe(spec_linear_terminal, grid, 0.0,
                             [(np.array([-1.0]), np.array([1.0]))], [0.5],
                             w_small, basis, cfg)
    # affine value function: the gap vanishes
    assert abs(report.entries[0].gap) <= max(4 * report.entries[0].stderr, 1e-5)


def test_convexity_probe_p1_quadratic_gap(spec_p1, grid, basis, cfg, w_small):
    report = convexity_probe(spec_p1, grid, 0.0, [(np.array([-1.0]), np.array([1.0]))],
                             [0.5], w_small, basis, cfg)
    e = report.entries[0]
    assert e.gap == pytest.approx(0.5, abs=max(3 * grid.dt * 0.5, 4 * e.stderr) + 0.01)
    assert report.passed()


def test_value_surface_csv(tmp_path, spec_zero, grid, basis, w_small):
    cfg = DescentConfig(eta=0.5, max_iter=5, tol_grad=1e-9)
    vs = evaluate_value(spec_zero, grid, 0.0, [1.0], w_small, basis, cfg)
    out = tmp_path / "surface.csv"
    value_surface_to_csv([vs], out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("t,x_0,V,stderr_V")
    assert len(lines) == 2


@pytest.mark.parametrize("lambdas, solves", [([0.5], 3), ([0.25, 0.5], 4)])
def test_convexity_probe_solves_each_point_once(monkeypatch, spec_p1, grid, basis, cfg,
                                                w_small, lambdas, solves):
    # a stand-in for the solve: per-path cost |x|^2 on every path, so the
    # gap of the pair (-1, 1) is 1 - (2 lam - 1)^2
    calls = []

    def fake_evaluate_value(spec, grid, t, x, W, basis, cfg, with_hessian=True, sol=None):
        assert not with_hessian
        x = np.atleast_1d(np.asarray(x, dtype=float))
        calls.append(x.copy())
        cost = np.full(W.M, float(x @ x))
        return ValueSample(t=t, x=x, V=float(x @ x), DxV=2.0 * x, DxxV=None, stderr_V=0.0,
                           per_path_cost=cost)

    monkeypatch.setattr("lcflow.value.evaluate_value", fake_evaluate_value)
    rep = convexity_probe(spec_p1, grid, 0.0, [(np.array([-1.0]), np.array([1.0]))],
                          lambdas, w_small, basis, cfg)
    assert len(calls) == solves
    for entry, lam in zip(rep.entries, lambdas):
        assert entry.gap == pytest.approx(1.0 - (2.0 * lam - 1.0) ** 2, abs=1e-15)


def _count_probes(monkeypatch):
    import lcflow.descent

    calls = []
    probe = lcflow.descent.estimate_lipschitz_core

    def counting(core, *args, **kwargs):
        calls.append(float(core.grid.t0))
        return probe(core, *args, **kwargs)

    monkeypatch.setattr(lcflow.descent, "estimate_lipschitz_core", counting)
    return calls


def test_fd_gradient_probes_once(monkeypatch, spec_p1, grid, basis, cfg, w_small):
    calls = _count_probes(monkeypatch)
    fd_gradient_of_value(spec_p1, grid, [0.5], 0.05, w_small, basis, cfg)
    assert calls == [0.0]


def test_solver_source_probes_once_per_start_time(monkeypatch, spec_p1, grid, basis, cfg,
                                                  w_small):
    calls = _count_probes(monkeypatch)
    source = SolverValueSource(spec_p1, grid, w_small, basis, cfg)
    samples = [source.sample(t, [x]) for t in (0.0, 0.5) for x in (-0.5, 0.5)]
    assert calls == [0.0, 0.5]
    k_hat = [vs.diagnostics["k_hat"] for vs in samples]
    assert k_hat[0] == k_hat[1] and k_hat[2] == k_hat[3]


def test_p2_lipschitz_constant_barely_moves_with_x(spec_p2, grid, basis, cfg, w_small):
    # sharing one K per start time rests on this: probed on its own, each
    # convexity point's K is within 5% of the shared one
    source = SolverValueSource(spec_p2, grid, w_small, basis, cfg)
    shared = {source.sample(0.0, [x]).diagnostics["k_hat"] for x in (1.0, -1.0, 0.0)}
    assert len(shared) == 1
    shared = shared.pop()
    for x in (-1.0, 0.0, 1.0):
        own, _ = estimate_lipschitz_core(core_from_spec(spec_p2, grid, [x]), w_small.increments,
                                         basis, LIPSCHITZ_PROBES, PROBE_SEED)
        assert own == pytest.approx(shared, rel=0.05)
