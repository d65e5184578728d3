import numpy as np
import pytest

from lcflow import (
    DescentConfig,
    Dimensions,
    RegressionBasis,
    RegularityError,
    TimeGrid,
    build_lattice_source,
    build_smooth_convex_problem,
    feedback_map,
    generate_brownian,
    simulate_closed_loop,
    solve_hamiltonian,
    verify_optimality,
)
from lcflow.budgets import lq_value_budget
from lcflow.costs import min_eigenvalue, solve_spd
from lcflow.descent import core_from_spec
from lcflow.feedback import (
    NEWTON_TOL_FACTOR,
    feedback_field_to_csv,
    newton_minimize_batch,
)
from lcflow.paths import l2_norm_array
from lcflow.adjoint import BLOCK_STEPS, StepRegression
from lcflow.riccati import lq_optimal_trajectory, lq_policy_value, lq_value, solve_riccati_ode
from lcflow.value import RiccatiValueSource


@pytest.fixture(scope="module")
def oracle_p1(grid, spec_p1):
    return RiccatiValueSource(solve_riccati_ode(spec_p1, grid=grid))


def test_quadratic_minimizer_one_step(spec_p1):
    # R = I, Q = 0, p = 2: the stationarity equation is linear, one Newton
    # step lands exactly on u = -2
    u = newton_minimize_batch(spec_p1.cost.at(0.0), np.array([[0.0]]), np.array([[2.0]]), None,
                              spec_p1.certificate.delta)[0]
    assert u[0] == pytest.approx(-2.0, abs=1e-12)


def test_minimizer_at_rest_point(spec_p1):
    u = newton_minimize_batch(spec_p1.cost.at(0.0), np.array([[0.4]]), np.array([[0.0]]), None,
                              spec_p1.certificate.delta)[0]
    assert u[0] == 0.0


def test_minimizer_growth_bound(spec_p2):
    # |u| <= K (1 + |x| + |p|) with a stable fitted constant across seeds
    delta = spec_p2.certificate.delta
    fits = []
    for seed in (1, 2):
        rng = np.random.Generator(np.random.Philox(key=seed))
        ratios = []
        for _ in range(1000):
            x = rng.uniform(-4, 4, 1)
            p = rng.uniform(-6, 6, 1)
            qm = np.array([[abs(rng.uniform(0, 2.0))]])
            t = float(rng.uniform(0, 1))
            u = newton_minimize_batch(spec_p2.cost.at(t), x[None], p[None], qm[None], delta)[0]
            ratios.append(abs(u[0]) / (1.0 + abs(x[0]) + abs(p[0])))
        fits.append(max(ratios))
    assert all(f < 5.0 for f in fits)
    assert abs(fits[0] - fits[1]) <= 0.5 * max(fits)


def test_minimizer_is_the_infimum(spec_p2):
    rng = np.random.Generator(np.random.Philox(key=3))
    delta = spec_p2.certificate.delta

    def reduced(lt, x, p, qm, u):
        return float(u @ p) + 0.5 * float(u @ qm @ u) + float(lt.value(x, u))

    for _ in range(10):
        t = float(rng.uniform(0, 1))
        x, p = rng.uniform(-2, 2, 1), rng.uniform(-3, 3, 1)
        qm = np.array([[rng.uniform(0, 1.5)]])
        lt = spec_p2.cost.at(t)
        u_star = newton_minimize_batch(lt, x[None], p[None], qm[None], delta)[0]
        best = reduced(lt, x, p, qm, u_star)
        for _ in range(50):
            u = rng.uniform(-6, 6, 1)
            assert best <= reduced(lt, x, p, qm, u) + 1e-12


def test_minimizer_continuity(spec_p2):
    rng = np.random.Generator(np.random.Philox(key=4))
    lt = spec_p2.cost.at(0.4)
    delta = spec_p2.certificate.delta
    lips = []
    for _ in range(40):
        x, p = rng.uniform(-2, 2, 1), rng.uniform(-3, 3, 1)
        qm = np.array([[rng.uniform(0, 1.0)]])
        du = rng.uniform(-1e-3, 1e-3, 3)
        ua = newton_minimize_batch(lt, x[None], p[None], qm[None], delta)[0]
        ub = newton_minimize_batch(lt, (x + du[0])[None], (p + du[1])[None],
                                   (qm + abs(du[2]))[None], delta)[0]
        dist = np.abs(du).sum()
        if dist > 1e-9:
            lips.append(abs(ub[0] - ua[0]) / dist)
    assert max(lips) < 20.0


def test_regularity_floor_enforced(spec_p1):
    with pytest.raises(RegularityError):
        newton_minimize_batch(spec_p1.cost.at(0.0), np.array([[0.0]]), np.array([[1.0]]),
                              np.array([[[-0.9]]]), spec_p1.certificate.delta)


class _Recording:
    """A running cost, frozen at one t, that records the batch size of each Newton call."""

    def __init__(self, running):
        self.running = running
        self.grad_sizes, self.hess_sizes = [], []

    def grad_u(self, x, u):
        self.grad_sizes.append(len(u))
        return self.running.grad_u(x, u)

    def hess_uu(self, x, u):
        self.hess_sizes.append(len(u))
        return self.running.hess_uu(x, u)


class _Quartic:
    """l(u) = u^4 / 4 + u^2 / 2, whose curvature grows away from u = 0."""

    def grad_u(self, x, u):
        return u ** 3 + u

    def hess_uu(self, x, u):
        return (3.0 * u * u + 1.0)[..., None]


@pytest.mark.parametrize("kind", ["pseudo_huber", "quartic"])
def test_scalar_newton_rows_equal_single_row_calls(spec_p2, kind):
    # the pseudo-Huber control term makes rows converge at different
    # iterations; its curvature falls away from u = 0, so Newton from 0
    # never overshoots, and the quartic is the cost that makes it damp
    t = 0.3
    if kind == "pseudo_huber":
        spec = build_smooth_convex_problem("case1_smooth", Dimensions(1, 1, 1), 1.0, spec_p2.coeffs,
                                           delta=1.0, kappa_x=0.5, kappa_u=2.0, kappa_g=1.0)
        running = spec.cost.at(t)
    else:
        running = _Quartic()
    rng = np.random.Generator(np.random.Philox(key=71))
    B = 300
    X = rng.normal(size=(B, 1))
    P = rng.normal(size=(B, 1)) * 10.0 ** rng.uniform(-3, 2, size=(B, 1))
    Q = rng.uniform(-0.4, 2.0, size=(B, 1, 1))
    cost = _Recording(running)
    U = newton_minimize_batch(cost, X, P, Q, 1.0)
    assert any(0 < size < B for size in cost.hess_sizes)             # partial masks
    damped = len(cost.grad_sizes) > len(cost.hess_sizes) + 1
    assert damped == (kind == "quartic")
    residual = P + Q[:, :, 0] * U + running.grad_u(X, U)
    assert np.all(np.abs(residual) <= NEWTON_TOL_FACTOR * (1.0 + np.abs(P)))
    for b in range(B):
        row = slice(b, b + 1)
        np.testing.assert_array_equal(newton_minimize_batch(cost, X[row], P[row], Q[row], 1.0),
                                      U[row])


def test_scalar_newton_curvature_floor(spec_p2):
    # on P2, Duu l = 1, so the curvature is 1 + q and the floor delta / 2 is 0.5
    X, P = np.zeros((3, 1)), np.ones((3, 1))
    Q = np.array([0.0, 1.0, -0.5]).reshape(3, 1, 1)
    U = newton_minimize_batch(spec_p2.cost.at(0.2), X, P, Q, 1.0)
    np.testing.assert_allclose(U[:, 0], -1.0 / (1.0 + Q[:, 0, 0]), rtol=1e-12)
    Q[2] = np.nextafter(-0.5, -1.0)
    with pytest.raises(RegularityError):
        newton_minimize_batch(spec_p2.cost.at(0.2), X, P, Q, 1.0)


@pytest.mark.parametrize("rhs", [1, 3])
def test_scalar_spd_solve_equals_lapack_bitwise(rhs):
    rng = np.random.Generator(np.random.Philox(key=72 + rhs))
    K = np.exp(3.0 * rng.normal(size=(500, 1, 1)))
    b = rng.normal(size=(500, 1, rhs)) * 10.0 ** rng.uniform(-5, 5, size=(500, 1, 1))
    np.testing.assert_array_equal(solve_spd(K, b), np.linalg.solve(K, b))
    np.testing.assert_array_equal(min_eigenvalue(K), np.linalg.eigvalsh(K)[:, 0])
    for k, v in zip(K[:50], b[:50]):
        np.testing.assert_array_equal(solve_spd(k, v), np.linalg.solve(k, v))
        np.testing.assert_array_equal(solve_spd(k, v[:, 0]), np.linalg.solve(k, v[:, 0]))


def test_feedback_map_p1(spec_p1, oracle_p1):
    for t, x in ((0.0, 0.7), (0.5, -1.2), (0.9, 0.1)):
        u = feedback_map(spec_p1, oracle_p1, t, [x])
        assert abs(u[0] + x) <= 0.05 * (1 + abs(x))


def test_feedback_map_linear_terminal(spec_linear_terminal, grid):
    ric = solve_riccati_ode(spec_linear_terminal, grid=grid)
    source = RiccatiValueSource(ric)
    for t, x in ((0.0, 0.0), (0.4, 2.0), (0.8, -1.0)):
        u = feedback_map(spec_linear_terminal, source, t, [x])
        assert u[0] == pytest.approx(-1.0, abs=1e-10)


def test_closed_loop_zero_problem(spec_zero, grid, w_small):
    ric = solve_riccati_ode(spec_zero, grid=grid)
    res = simulate_closed_loop(spec_zero, core_from_spec(spec_zero, grid, [1.0]), w_small,
                               RiccatiValueSource(ric))
    assert np.max(np.abs(res.U)) == 0.0
    assert res.cost == 0.0


def test_closed_loop_needs_the_ensemble_on_its_grid(spec_p1, grid, w_small, oracle_p1):
    core = core_from_spec(spec_p1, grid.subgrid(grid.N // 2), [0.0])
    with pytest.raises(ValueError, match="not on the loop's grid"):
        simulate_closed_loop(spec_p1, core, w_small, oracle_p1)
    res = simulate_closed_loop(spec_p1, core, w_small.slice_from(grid.N // 2), oracle_p1)
    assert res.X.shape[1] == core.grid.N + 1 and res.U.shape[1] == core.grid.N


def test_closed_loop_matches_oracle_trajectory(spec_p1, grid, w_small, oracle_p1):
    res = simulate_closed_loop(spec_p1, core_from_spec(spec_p1, grid, [0.0]), w_small, oracle_p1)
    ref = lq_optimal_trajectory(oracle_p1.ric, spec_p1, grid, [0.0], w_small)
    num = l2_norm_array(res.X - ref.X, grid.dt)
    den = max(l2_norm_array(ref.X, grid.dt), 1e-12)
    assert num / den <= 0.05
    assert res.cost == pytest.approx(ref.cost, abs=1e-9)


def test_verify_optimality_p1(spec_p1, grid, basis, cfg, w_small, oracle_p1, sol_p1_small):
    report = verify_optimality(spec_p1, sol_p1_small, oracle_p1, n_perturbed=5, gain_scale=1.3)
    budget = max(2 * grid.dt * abs(report.value) + 0.002,
                 4 * max(report.stderr_closed, report.stderr_open))
    assert abs(report.gap_closed_open) <= budget
    assert abs(report.gap_closed_value) <= budget
    for p in report.perturbed:
        assert p.gap_vs_closed >= -4 * p.stderr_gap
    # wrong-gain loop is strictly worse, by the amount the policy oracle says
    wrong, _ = lq_policy_value(spec_p1, grid, [[-1.3]])
    oracle_gap = wrong([0.0]) - 0.045
    run = report.scaled_gain
    assert run.gap_vs_closed > 4 * run.stderr_gap
    assert run.gap_vs_closed == pytest.approx(oracle_gap, rel=0.5)


def test_verify_optimality_runs_on_the_solution_subgrid(monkeypatch, spec_p1, grid, basis, cfg,
                                                        w_small, oracle_p1):
    import lcflow.feedback

    sol = solve_hamiltonian(spec_p1, grid, 0.5, [0.0], w_small, basis, cfg)
    loops = []
    simulate = lcflow.feedback.simulate_closed_loop

    def recording(spec, core, W, *args, **kwargs):
        loops.append((core, W))
        return simulate(spec, core, W, *args, **kwargs)

    monkeypatch.setattr(lcflow.feedback, "simulate_closed_loop", recording)
    report = verify_optimality(spec_p1, sol, oracle_p1, n_perturbed=2)
    assert sol.grid.N == grid.N // 2
    assert len(loops) == 3
    for core, W in loops:
        assert core is sol.core and core.grid is sol.grid and W is sol.W
    budget = lq_value_budget(sol.grid.dt, report.value,
                             max(report.stderr_closed, report.stderr_open))
    assert abs(report.gap_closed_value) <= budget


def test_lattice_source_p2(spec_p2, grid, basis, cfg, w_small, sol_p2_small):
    source = build_lattice_source(spec_p2, grid, 0.0, [0.3], w_small, basis, cfg,
                                  sol=sol_p2_small)
    res = simulate_closed_loop(spec_p2, core_from_spec(spec_p2, grid, [0.3]), w_small, source)
    j_open = float(sol_p2_small.per_path_cost.mean())
    # the feedback loop reproduces the open-loop optimum within the budget
    assert abs(res.cost - j_open) <= max(3 * grid.dt * abs(j_open) + 0.003,
                                         4 * max(res.stderr, 1e-12))
    v_fit = source.value(0.0, np.array([0.3]))
    assert abs(v_fit - j_open) <= 0.01 * (1 + abs(j_open))


def _keep_derivative_solves(monkeypatch):
    """Record the derivative solves of lattice builds; returns the list they are kept in."""
    import lcflow.feedback

    solve = lcflow.feedback.solve_linear_hamiltonian
    derivs = []

    def keep(*args, **kwargs):
        derivs.append(solve(*args, **kwargs))
        return derivs[-1]

    monkeypatch.setattr(lcflow.feedback, "solve_linear_hamiltonian", keep)
    return derivs


def test_lattice_solves_a_broadcast_row_once(monkeypatch, spec_p1, grid, basis, cfg, w_small,
                                             sol_p1_small):
    # on P1 no noise reaches the derivative system, so every path holds one broadcast row of
    # gradX and gradY; the lattice solves P = gradY (gradX)^-1 on that row alone, and its
    # coefficients are the ones it fits when every path holds its own copy of the row
    import dataclasses

    import lcflow.feedback

    derivs = _keep_derivative_solves(monkeypatch)
    once = build_lattice_source(spec_p1, grid, 0.0, [0.0], w_small, basis, cfg, sol=sol_p1_small)
    deriv = derivs[0]
    assert deriv.grad_X.strides[0] == 0 and deriv.grad_Y.strides[0] == 0
    copied = dataclasses.replace(deriv, grad_X=np.array(deriv.grad_X),
                                 grad_Y=np.array(deriv.grad_Y))
    monkeypatch.setattr(lcflow.feedback, "solve_linear_hamiltonian", lambda *a, **k: copied)
    every_row = build_lattice_source(spec_p1, grid, 0.0, [0.0], w_small, basis, cfg,
                                     sol=sol_p1_small)
    assert len(once.steps) == len(every_row.steps) == grid.N
    for (_, coef), (_, want) in zip(once.steps, every_row.steps):
        assert coef.tobytes() == want.tobytes()


def _ratio(deriv):
    """The derivative ratio P = gradY (gradX)^-1 of a derivative solve, per path and step."""
    gX, gY = deriv.grad_X, deriv.grad_Y
    return np.swapaxes(np.linalg.solve(np.swapaxes(gX, -1, -2), np.swapaxes(gY, -1, -2)), -1, -2)


def _lattice_fits(sol, basis, P, run):
    """Per step k: the regression block the lattice builds, k's index j in it, and the targets
    it fits there, the cost-to-go (summed from the running costs run, in time order), Y and P."""
    X, M, N = sol.X, sol.W.M, sol.grid.N
    n = X.shape[2]
    ctg_k = sol.core.cost_eval.terminal_value(X[:, -1]).astype(float) + run.sum(axis=1)
    for k in range(N):
        if k % BLOCK_STEPS == 0:
            reg = StepRegression(X[:, k:min(k + BLOCK_STEPS, N)], basis, first_step=k)
        targets = np.concatenate([ctg_k[:, None], sol.Y[:, k], P[:, k].reshape(M, n * n)], axis=1)
        yield k, reg, k % BLOCK_STEPS, targets
        ctg_k = ctg_k - run[:, k]


def test_lattice_reads_the_solution_running_cost(monkeypatch, spec_p2, grid, basis, cfg, w_small,
                                                 sol_p2_small):
    # the lattice takes the running cost off the solve and evaluates none; its coefficients are
    # the ones the running cost's own evaluation gives, each path's cost-to-go summed in time
    # order
    from lcflow.costs import GridCost

    sol = sol_p2_small
    run = np.multiply(sol.core.cost_eval.running_value(sol.X[:, :sol.grid.N], sol.U), sol.grid.dt,
                      order="C")
    derivs = _keep_derivative_solves(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("the running cost was evaluated again")

    monkeypatch.setattr(GridCost, "running_value", refuse)
    source = build_lattice_source(spec_p2, grid, 0.0, [0.3], w_small, basis, cfg, sol=sol)
    for k, reg, j, targets in _lattice_fits(sol, basis, _ratio(derivs[0]), run):
        features, coef = source.steps[k]
        want = reg.features(j)
        assert coef.tobytes() == reg.coefficients(j, targets).tobytes(), k
        for name in ("mu", "sd", "degenerate"):
            assert getattr(features, name).tobytes() == getattr(want, name).tobytes(), (k, name)


def test_lattice_answers_the_step_fits_on_the_paths(monkeypatch, spec_p2, grid, basis, cfg,
                                                    w_small, sol_p2_small):
    # at a grid node and the solution's own states, the source's V, DxV and DxxV are the
    # block's least-squares fits of its targets, to rounding
    sol = sol_p2_small
    M = sol.W.M
    derivs = _keep_derivative_solves(monkeypatch)
    source = build_lattice_source(spec_p2, grid, 0.0, [0.3], w_small, basis, cfg, sol=sol)
    run = np.ascontiguousarray(sol.running)
    for k, reg, j, targets in _lattice_fits(sol, basis, _ratio(derivs[0]), run):
        t, X = float(sol.grid.nodes[k]), sol.X[:, k]
        DxV, DxxV = source.derivatives(t, X)
        got = np.column_stack([source.value(t, X), DxV, DxxV.reshape(M, -1)])
        want = reg.fit(j, targets)
        assert np.all(np.max(np.abs(got - want), axis=0)
                      <= 1e-12 * np.max(np.abs(want), axis=0)), k


def test_lattice_keeps_its_shape_beyond_the_data(spec_p1):
    # the fitted polynomials are evaluated where no path went, with no clamp: at x = +-3, far
    # beyond the paths from x0 = 0.3, DxV stays close to the Riccati oracle's
    grid = TimeGrid(0.0, 1.0, 50)
    W = generate_brownian(grid, 1000, seed=201, antithetic=True, d=1)
    source = build_lattice_source(spec_p1, grid, 0.0, [0.3], W,
                                  RegressionBasis(degree=2, ridge=1e-8),
                                  DescentConfig(eta="auto", max_iter=80, tol_grad=1e-3))
    ric = solve_riccati_ode(spec_p1, grid=grid)
    X = np.array([[-3.0], [3.0]])
    for t in (0.2, 0.6):
        DxV, _ = source.derivatives(t, X)
        want = lq_value(ric, t, X)[1]
        assert np.all(np.abs(DxV - want) <= 0.15 * np.abs(want)), (t, DxV, want)


def test_feedback_field_csv(tmp_path, spec_p1, oracle_p1):
    out = tmp_path / "field.csv"
    feedback_field_to_csv(spec_p1, oracle_p1, [0.0, 0.5], [[-1.0], [0.0], [1.0]], out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,x_0,u_0"
    assert len(lines) == 7


@pytest.fixture(scope="module")
def lattice_p2(spec_p2):
    grid = TimeGrid(0.0, 1.0, 20)
    W = generate_brownian(grid, 1000, seed=3, antithetic=True, d=1)
    return build_lattice_source(spec_p2, grid, 0.0, [0.3], W, RegressionBasis(degree=2, ridge=1e-8),
                                DescentConfig(eta="auto", max_iter=80, tol_grad=1e-3))


def _sources(spec_p1, spec_p2, rich_lq, lattice_p2):
    grid = TimeGrid(0.0, 1.0, 30)
    return [
        (spec_p1, RiccatiValueSource(solve_riccati_ode(spec_p1, grid=grid))),
        (rich_lq, RiccatiValueSource(solve_riccati_ode(rich_lq, grid=grid))),
        (spec_p2, lattice_p2),
    ]


@pytest.mark.parametrize("t", [0.0, 0.3, 0.55, 1.0])
def test_value_sources_answer_a_batch_bitwise(spec_p1, spec_p2, rich_lq, lattice_p2, t):
    for spec, source in _sources(spec_p1, spec_p2, rich_lq, lattice_p2):
        X = np.random.Generator(np.random.Philox(key=41)).normal(size=(13, spec.dims.n))
        V = source.value(t, X)
        DxV, DxxV = source.derivatives(t, X)
        U = feedback_map(spec, source, t, X)
        n, m = spec.dims.n, spec.dims.m
        assert V.shape == (13,) and DxV.shape == (13, n) and DxxV.shape == (13, n, n)
        assert U.shape == (13, m)
        for b, x in enumerate(X):
            v = source.value(t, x)
            dxv, dxxv = source.derivatives(t, x)
            assert isinstance(v, float), source.kind
            assert V[b] == v, source.kind
            np.testing.assert_array_equal(DxV[b], dxv)
            np.testing.assert_array_equal(DxxV[b], dxxv)
            np.testing.assert_array_equal(U[b], feedback_map(spec, source, t, x))


def test_closed_loops_look_up_nothing_per_step(monkeypatch, spec_p2):
    # the closed loops of verify_optimality read the solution's step coefficients and GridCost
    # rows, so no cost block or coefficient is looked up per loop and step: the rows are frozen
    # once, N CostModel.at calls of five block lookups each, for all the loops together.  One
    # Newton call per loop and step is what the benchmark's self-check pins for the feedback
    # command
    import lcflow.feedback
    from lcflow import PiecewiseConstant
    from lcflow.costs import CostModel

    grid = TimeGrid(0.0, 1.0, 10)
    W = generate_brownian(grid, 200, seed=5, antithetic=True)
    basis = RegressionBasis(degree=2, ridge=1e-8)
    cfg = DescentConfig(eta="auto", max_iter=80, tol_grad=1e-3)
    sol = solve_hamiltonian(spec_p2, grid, 0.0, [0.3], W, basis, cfg)
    source = build_lattice_source(spec_p2, grid, 0.0, [0.3], W, basis, cfg, sol=sol)
    calls = {}

    def counting(owner, name, label):
        fn = getattr(owner, name)
        calls[label] = 0

        def counted(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(CostModel, "at", "CostModel.at")
    counting(PiecewiseConstant, "at", "PiecewiseConstant.at")
    counting(lcflow.feedback, "newton_minimize_batch", "newton")
    n_perturbed = 3
    verify_optimality(spec_p2, sol, source, n_perturbed=n_perturbed)
    assert calls == {"CostModel.at": grid.N, "PiecewiseConstant.at": 5 * grid.N,
                     "newton": (n_perturbed + 1) * grid.N}
