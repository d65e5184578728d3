import numpy as np
import pytest

from lcflow import (
    ConditioningError,
    ControlEnsemble,
    RegressionBasis,
    TimeGrid,
    evaluate_cost,
    frechet_gradient,
    generate_brownian,
    per_path_costs,
    simulate_forward,
    solve_adjoint,
)
from lcflow.adjoint import StepRegression
from lcflow.paths import l2_norm_array
from lcflow.presets import linear_terminal


def _controls(grid, M, values=0.0):
    vals = np.full((M, grid.N, 1), values) if np.isscalar(values) else values
    return ControlEnsemble(grid=grid, values=vals, producer="test")


def test_constant_terminal_gradient_reproduced_exactly(grid, basis):
    # linear terminal r.x, no running state cost: the adjoint is the
    # constant r and the noise loading vanishes identically
    spec = linear_terminal(r=1.0)
    M = 2000
    W = generate_brownian(grid, M, seed=2)
    u = _controls(grid, M, 0.0)
    X = simulate_forward(spec, grid, [0.3], u, W)
    adj, diag = solve_adjoint(spec, X, u, W, basis)
    assert np.max(np.abs(adj.Y - 1.0)) <= 1e-10
    assert np.max(np.abs(adj.Z)) <= 1e-10
    assert diag.basis_size == 3


def test_zero_terminal_zero_driver(grid, basis, spec_zero):
    M = 1000
    W = generate_brownian(grid, M, seed=3)
    u = _controls(grid, M, 0.0)
    X = simulate_forward(spec_zero, grid, [1.0], u, W)
    adj, _ = solve_adjoint(spec_zero, X, u, W, basis)
    assert np.max(np.abs(adj.Y)) == 0.0
    assert np.max(np.abs(adj.Z)) == 0.0


def test_terminal_condition_exact(grid, basis, spec_p1):
    M = 500
    W = generate_brownian(grid, M, seed=4)
    u = _controls(grid, M, 0.2)
    X = simulate_forward(spec_p1, grid, [0.5], u, W)
    adj, _ = solve_adjoint(spec_p1, X, u, W, basis)
    np.testing.assert_array_equal(adj.Y[:, -1], spec_p1.cost.dx_g(X.values[:, -1]))


def test_deterministic_backward_ode(grid, basis, spec_p1_nonoise):
    # sigma = 0, u = 0, x0 = 1: X = 1 and Y' = -Q X gives Y(t) = 2 - t
    M = 64
    W = generate_brownian(grid, M, seed=5)
    u = _controls(grid, M, 0.0)
    X = simulate_forward(spec_p1_nonoise, grid, [1.0], u, W)
    adj, _ = solve_adjoint(spec_p1_nonoise, X, u, W, basis)
    assert adj.Y[0, 0, 0] == pytest.approx(2.0, abs=2 * grid.dt)
    mid = grid.N // 2
    assert adj.Y[0, mid, 0] == pytest.approx(2.0 - grid.nodes[mid], abs=2 * grid.dt)


def test_martingale_mean_of_residuals(grid, basis, spec_p1):
    M = 4000
    W = generate_brownian(grid, M, seed=6)
    u = _controls(grid, M, 0.1)
    X = simulate_forward(spec_p1, grid, [0.2], u, W)
    _, diag = solve_adjoint(spec_p1, X, u, W, basis)
    for rm, rb in zip(diag.residual_mean, diag.residual_bound):
        assert rm <= rb + 1e-14


def test_adjoint_superposition_for_lq(grid, basis, spec_p1):
    M = 4000
    W = generate_brownian(grid, M, seed=7, antithetic=True)
    rng = np.random.Generator(np.random.Philox(key=10))
    uv = rng.standard_normal((grid.N, 1)) * 0.4
    vv = rng.standard_normal((grid.N, 1)) * 0.4

    def solve_for(vals):
        u = _controls(grid, M, np.broadcast_to(vals, (M, grid.N, 1)).copy())
        X = simulate_forward(spec_p1, grid, [0.3], u, W)
        adj, _ = solve_adjoint(spec_p1, X, u, W, basis)
        return adj.Y

    y_sum = solve_for(uv + vv)
    y_u = solve_for(uv)
    y_v = solve_for(vv)
    y_0 = solve_for(np.zeros((grid.N, 1)))
    lhs = y_sum - y_0
    rhs = (y_u - y_0) + (y_v - y_0)
    scale = max(float(np.sqrt((rhs**2).mean())), 1e-12)
    assert float(np.sqrt(((lhs - rhs) ** 2).mean())) / scale <= 0.02


def test_frechet_zero_problem(grid, basis, spec_zero):
    M = 512
    W = generate_brownian(grid, M, seed=8)
    u = _controls(grid, M, 0.0)
    X = simulate_forward(spec_zero, grid, [1.0], u, W)
    adj, _ = solve_adjoint(spec_zero, X, u, W, basis)
    D = frechet_gradient(spec_zero, X, u, adj)
    assert np.max(np.abs(D.values)) == 0.0


def test_frechet_deterministic_profile(grid, basis, spec_p1_nonoise):
    # B = 1, D = 0, Du_l = 0 at u = 0, so the gradient equals Y = 2 - t
    M = 64
    W = generate_brownian(grid, M, seed=9)
    u = _controls(grid, M, 0.0)
    X = simulate_forward(spec_p1_nonoise, grid, [1.0], u, W)
    adj, _ = solve_adjoint(spec_p1_nonoise, X, u, W, basis)
    D = frechet_gradient(spec_p1_nonoise, X, u, adj)
    expected = 2.0 - grid.nodes[:-1]
    assert np.max(np.abs(D.values[0, :, 0] - expected)) <= 2 * grid.dt


def test_directional_derivative_consistency(basis, spec_p1):
    # (J(u + eps v) - J(u)) / eps against <D[u], v> on common noise; the
    # left-endpoint gradient convention carries an O(dt) offset, so the
    # 1e-2 relative match needs a fine grid
    grid = TimeGrid(0.0, 1.0, 200)
    M = 20_000
    W = generate_brownian(grid, M, seed=11, antithetic=True)
    rng = np.random.Generator(np.random.Philox(key=12))
    u_vals = np.broadcast_to(rng.standard_normal((grid.N, 1)) * 0.3, (M, grid.N, 1))
    v_vals = np.broadcast_to(rng.standard_normal((grid.N, 1)), (M, grid.N, 1))
    u = _controls(grid, M, u_vals.copy())
    X = simulate_forward(spec_p1, grid, [0.4], u, W)
    adj, _ = solve_adjoint(spec_p1, X, u, W, basis)
    D = frechet_gradient(spec_p1, X, u, adj)
    pairing = float((D.values * v_vals).sum() * grid.dt / M)
    eps = 1e-4
    u_eps = _controls(grid, M, (u_vals + eps * v_vals).copy())
    X_eps = simulate_forward(spec_p1, grid, [0.4], u_eps, W)
    fd = (evaluate_cost(spec_p1, X_eps, u_eps) - evaluate_cost(spec_p1, X, u)) / eps
    assert fd == pytest.approx(pairing, rel=1e-2)


def test_duality_identity(grid, basis, spec_p1):
    # <D[u], v - u> equals the terminal plus running pairing of the raw
    # cost derivatives with the state and control differences
    M = 20_000
    W = generate_brownian(grid, M, seed=13, antithetic=True)
    rng = np.random.Generator(np.random.Philox(key=14))
    u_vals = np.broadcast_to(rng.standard_normal((grid.N, 1)) * 0.5, (M, grid.N, 1)).copy()
    v_vals = np.broadcast_to(rng.standard_normal((grid.N, 1)) * 0.5, (M, grid.N, 1)).copy()
    u = _controls(grid, M, u_vals)
    v = _controls(grid, M, v_vals)
    Xu = simulate_forward(spec_p1, grid, [0.4], u, W)
    Xv = simulate_forward(spec_p1, grid, [0.4], v, W)
    adj, _ = solve_adjoint(spec_p1, Xu, u, W, basis)
    D = frechet_gradient(spec_p1, Xu, u, adj)
    lhs = float((D.values * (v_vals - u_vals)).sum() * grid.dt / M)
    cost = spec_p1.cost
    terminal = (cost.dx_g(Xu.values[:, -1]) * (Xv.values[:, -1] - Xu.values[:, -1])).sum(axis=1)
    running = np.zeros(M)
    for k in range(grid.N):
        t = float(grid.nodes[k])
        running += (
            (cost.dx_l(t, Xu.values[:, k], u_vals[:, k]) * (Xv.values[:, k] - Xu.values[:, k])).sum(axis=1)
            + (cost.du_l(t, Xu.values[:, k], u_vals[:, k]) * (v_vals[:, k] - u_vals[:, k])).sum(axis=1)
        ) * grid.dt
    rhs = float((terminal + running).mean())
    scale = 1.0 + abs(rhs)
    assert abs(lhs - rhs) <= 3.0 * (2.0 * grid.dt * scale) * 0.5 + 0.02 * scale


@pytest.mark.parametrize("which", ["p1", "p2"])
def test_gradient_monotonicity(which, grid, basis, spec_p1, spec_p2):
    # uniform convexity through the first-order map: <D[u]-D[v], u-v> >=
    # delta ||u-v||^2 up to sampling slack
    spec = spec_p1 if which == "p1" else spec_p2
    small = TimeGrid(0.0, 1.0, 25)
    M = 2000
    W = generate_brownian(small, M, seed=15, antithetic=True)
    rng = np.random.Generator(np.random.Philox(key=16))

    def grad(vals):
        u = _controls(small, M, np.broadcast_to(vals, (M, small.N, 1)).copy())
        X = simulate_forward(spec, small, [0.2], u, W)
        adj, _ = solve_adjoint(spec, X, u, W, basis)
        return frechet_gradient(spec, X, u, adj).values

    delta = spec.certificate.delta
    for _ in range(20):
        uv = rng.standard_normal((small.N, 1)) * 0.6
        vv = rng.standard_normal((small.N, 1)) * 0.6
        Du, Dv = grad(uv), grad(vv)
        diff = np.broadcast_to(uv - vv, Du.shape)
        inner = float((np.asarray(Du - Dv) * diff).sum() * small.dt / M)
        nrm2 = l2_norm_array(diff, small.dt) ** 2
        assert inner >= delta * nrm2 - 0.05 * nrm2


def test_cost_evaluations(grid, basis, spec_zero, spec_p1_nonoise):
    M = 128
    W = generate_brownian(grid, M, seed=17)
    u = _controls(grid, M, 0.0)
    Xz = simulate_forward(spec_zero, grid, [1.0], u, W)
    assert evaluate_cost(spec_zero, Xz, u) == 0.0
    Xd = simulate_forward(spec_p1_nonoise, grid, [1.0], u, W)
    # X = 1: terminal 1/2 plus running integral of 1/2
    assert evaluate_cost(spec_p1_nonoise, Xd, u) == pytest.approx(1.0, abs=2 * grid.dt)
    assert per_path_costs(spec_p1_nonoise, Xd, u).shape == (M,)


def test_regression_predict_matches_fit():
    rng = np.random.Generator(np.random.Philox(key=20))
    # the third feature is constant, so it collapses onto the intercept
    F = np.column_stack([rng.normal(size=500), rng.uniform(-1, 1, 500), np.full(500, 0.7)])
    reg = StepRegression(F[:, None], RegressionBasis(degree=2, ridge=1e-8))
    targets = np.column_stack([np.sin(F[:, 0]), F[:, 1] ** 3])
    np.testing.assert_allclose(reg.predict(0, F, targets), reg.fit(0, targets), rtol=0, atol=1e-12)
    np.testing.assert_allclose(reg.predict(0, F, targets[:, 0]), reg.fit(0, targets[:, 0]),
                               rtol=0, atol=1e-12)
    # a quadratic target is reproduced away from the training points too
    G = np.column_stack([rng.normal(size=50), rng.uniform(-2, 2, 50), np.full(50, 0.7)])
    quad = lambda A: 1.0 + A[:, 0] - 2.0 * A[:, 0] * A[:, 1] + 0.5 * A[:, 1] ** 2
    np.testing.assert_allclose(reg.predict(0, G, quad(F)), quad(G), rtol=0, atol=1e-6)


def _block_features(M=600, K=10, seed=21):
    rng = np.random.Generator(np.random.Philox(key=seed))
    # per-step location and scale, so every step has its own normalization
    return (rng.normal(size=(M, K, 2)) * rng.uniform(0.5, 3.0, size=(1, K, 2))
            + rng.uniform(-1, 1, size=(1, K, 2)))


def test_block_regression_matches_single_steps():
    F = _block_features()
    M, K, _ = F.shape
    basis = RegressionBasis(degree=2, ridge=1e-8)
    rng = np.random.Generator(np.random.Philox(key=22))
    targets = np.column_stack([np.sin(F[:, 4, 0]), F[:, 4, 1] ** 3, rng.normal(size=M)])
    G = rng.normal(size=(40, 2))
    block = StepRegression(F, basis, first_step=30)
    for j in range(K):
        single = StepRegression(F[:, j:j + 1], basis, first_step=30 + j)
        np.testing.assert_allclose(block.fit(j, targets), single.fit(0, targets),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(block.predict(j, G, targets), single.predict(0, G, targets),
                                   rtol=0, atol=1e-12)
        assert block.cond[j] == pytest.approx(single.cond[0], rel=1e-9)


def test_blocked_sweep_matches_single_step_sweep(basis, spec_p1, monkeypatch):
    # N = 25 gives blocks of 10, 10 and 5 steps: two block boundaries and a
    # shorter last block
    import lcflow.adjoint as adjoint

    grid = TimeGrid(0.0, 1.0, 25)
    M = 800
    W = generate_brownian(grid, M, seed=23)
    u = _controls(grid, M, 0.1)
    X = simulate_forward(spec_p1, grid, [0.2], u, W)
    blocked, diag_blocked = solve_adjoint(spec_p1, X, u, W, basis)
    monkeypatch.setattr(adjoint, "BLOCK_STEPS", 1)
    single, diag_single = solve_adjoint(spec_p1, X, u, W, basis)
    np.testing.assert_allclose(blocked.Y, single.Y, rtol=0, atol=1e-12)
    np.testing.assert_allclose(blocked.Z, single.Z, rtol=0, atol=1e-12)
    np.testing.assert_allclose(diag_blocked.cond, diag_single.cond, rtol=1e-9)


def test_constant_feature_collapses_at_its_step_only():
    F = _block_features()
    F[:, 3, 1] = 0.7
    basis = RegressionBasis(degree=2, ridge=1e-8)
    reg = StepRegression(F, basis, first_step=0)
    # at step 3 the fit is the regression on the other coordinate alone
    y = np.cos(F[:, 3, 0]) + F[:, 3, 0] * F[:, 3, 1]
    alone = StepRegression(F[:, 3:4, :1], basis, first_step=3)
    np.testing.assert_allclose(reg.fit(3, y), alone.fit(0, y), rtol=0, atol=1e-9)
    # at every other step the second coordinate stays in the basis
    for j in (2, 4, 9):
        np.testing.assert_allclose(reg.fit(j, F[:, j, 1]), F[:, j, 1], rtol=0, atol=1e-6)


def test_non_finite_feature_names_its_absolute_step():
    F = _block_features()
    F[17, 5, 0] = np.nan
    with pytest.raises(ConditioningError, match="at step 25") as info:
        StepRegression(F, RegressionBasis(degree=2, ridge=1e-8), first_step=20)
    assert info.value.step == 25


def test_regression_rejects_too_few_paths():
    F = _block_features(M=5)
    with pytest.raises(ValueError, match="path count 5 below basis size 6"):
        StepRegression(F, RegressionBasis(degree=2, ridge=1e-8), first_step=20)


def test_insufficient_paths_rejected(grid, spec_p1):
    M = 2
    W = generate_brownian(grid, M, seed=18)
    u = _controls(grid, M, 0.0)
    X = simulate_forward(spec_p1, grid, [0.0], u, W)
    with pytest.raises(ValueError):
        solve_adjoint(spec_p1, X, u, W, RegressionBasis(degree=2))


def test_diagnostics_json_round_trip(grid, basis, spec_p1):
    import json

    M = 1000
    W = generate_brownian(grid, M, seed=19)
    u = _controls(grid, M, 0.1)
    X = simulate_forward(spec_p1, grid, [0.2], u, W)
    _, diag = solve_adjoint(spec_p1, X, u, W, basis)
    doc = json.loads(diag.to_json())
    assert doc["basis_size"] == 3
    assert len(doc["steps"]) == grid.N
    assert all(s["cond"] >= 1.0 for s in doc["steps"])
