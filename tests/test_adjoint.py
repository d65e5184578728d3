import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lcflow import (
    BlowupError,
    CoefficientSet,
    ConditioningError,
    RegressionBasis,
    TimeGrid,
    build_lq_problem,
    generate_brownian,
)
from lcflow.adjoint import (
    BLOCK_STEPS,
    StepRegression,
    _monomial_exponents,
    backward_solve,
    per_path_cost_core,
)
from lcflow.costs import GridCost
from lcflow.descent import Workspace, _evaluate_gradient, core_from_spec
from lcflow.paths import _simulate_core, l2_norm_array, step_major
from lcflow.presets import _scalar_coeffs, linear_terminal


def _controls(grid, M, values=0.0):
    return np.full((M, grid.N, 1), values) if np.isscalar(values) else values


def _with_c(spec, c=0.3):
    """spec with the state noise C x dW added, so that the backward sweep fits Z."""
    return build_lq_problem(coeffs=_scalar_coeffs(C=c, sigma=0.0), horizon=spec.horizon,
                            G=spec.cost.G, r=spec.cost.r, R=spec.cost.R, delta=1.0, mode="case1")


def test_constant_terminal_gradient_reproduced_exactly(grid, basis):
    # linear terminal r.x, no running state cost: the adjoint is the
    # constant r and the noise loading vanishes identically; without a C or
    # D block nothing reads Z and it is not fitted
    M = 2000
    W = generate_brownian(grid, M, seed=2)
    U = _controls(grid, M, 0.0)
    for spec, fits_z in ((linear_terminal(r=1.0), False), (_with_c(linear_terminal(r=1.0)), True)):
        _, Y, Z, _, _ = _evaluate_gradient(core_from_spec(spec, grid, [0.3]), U, W.increments,
                                           basis)
        assert np.max(np.abs(Y - 1.0)) <= 1e-10
        assert np.max(np.abs(Z)) <= 1e-10 if fits_z else Z is None


def test_zero_terminal_zero_driver(grid, basis, spec_zero):
    M = 1000
    W = generate_brownian(grid, M, seed=3)
    U = _controls(grid, M, 0.0)
    for spec, fits_z in ((spec_zero, False), (_with_c(spec_zero), True)):
        _, Y, Z, _, _ = _evaluate_gradient(core_from_spec(spec, grid, [1.0]), U, W.increments,
                                           basis)
        assert np.max(np.abs(Y)) == 0.0
        assert np.max(np.abs(Z)) == 0.0 if fits_z else Z is None


def test_terminal_condition_exact(grid, basis, spec_p1):
    M = 500
    W = generate_brownian(grid, M, seed=4)
    U = _controls(grid, M, 0.2)
    X, Y, *_ = _evaluate_gradient(core_from_spec(spec_p1, grid, [0.5]), U, W.increments, basis)
    np.testing.assert_array_equal(Y[:, -1], spec_p1.cost.dx_g(X[:, -1]))


def test_deterministic_backward_ode(grid, basis, spec_p1_nonoise):
    # sigma = 0, u = 0, x0 = 1: X = 1 and Y' = -Q X gives Y(t) = 2 - t
    M = 64
    W = generate_brownian(grid, M, seed=5)
    U = _controls(grid, M, 0.0)
    _, Y, *_ = _evaluate_gradient(core_from_spec(spec_p1_nonoise, grid, [1.0]), U, W.increments,
                                  basis)
    assert Y[0, 0, 0] == pytest.approx(2.0, abs=2 * grid.dt)
    mid = grid.N // 2
    assert Y[0, mid, 0] == pytest.approx(2.0 - grid.nodes[mid], abs=2 * grid.dt)


def test_martingale_mean_of_residuals(grid, basis, spec_p1):
    # the intercept is not ridge-penalized, so each step's residuals have mean zero by the
    # normal equations: their mean is rounding, far inside any Monte Carlo bound 4 std / sqrt(M)
    M = 4000
    W = generate_brownian(grid, M, seed=6)
    U = _controls(grid, M, 0.1)
    X, Y, *_ = _evaluate_gradient(core_from_spec(spec_p1, grid, [0.2]), U, W.increments, basis)
    reg = StepRegression(X[:, :grid.N], basis)
    for k in range(grid.N):
        resid = Y[:, k + 1] - reg.fit(k, Y[:, k + 1])
        assert np.max(np.abs(resid.mean(axis=0))) <= 1e-12 * resid.std(axis=0).max()


@pytest.mark.parametrize("name", ["spec_p1", "rich_lq"])
def test_diagnostics_equal_the_per_step_formulas(name, grid, basis, request):
    # the sweep's cond_max against the largest condition number of the steps where no feature
    # coordinate is degenerate, read step by step; step 0 (every path at x0) is left out
    spec = request.getfixturevalue(name)
    M, n, m = 1000, spec.dims.n, spec.dims.m
    W = generate_brownian(grid, M, seed=6, d=spec.dims.d)
    U = _controls(grid, M, np.full((M, grid.N, m), 0.1))
    X, _, _, _, cond_max = _evaluate_gradient(core_from_spec(spec, grid, np.full(n, 0.2)), U,
                                              W.increments, basis)
    cond = {}
    k0 = grid.N
    for k in range(grid.N - 1, -1, -1):
        if k < k0:
            k0 = max(k + 1 - BLOCK_STEPS, 0)
            reg = StepRegression(X[:, k0:k + 1], basis, first_step=k0)
        if not reg._degenerate[k - k0].any():
            cond[k] = float(reg.cond[k - k0])
    assert sorted(cond) == list(range(1, grid.N))
    assert cond_max == max(cond.values())


def test_non_finite_adjoint_raises_at_the_first_step_reached(grid, basis, spec_p1):
    # a NaN driver at (path 5, step 30) spreads to every path at earlier
    # steps through the regressions; the error names where it entered
    M = 500
    W = generate_brownian(grid, M, seed=6)
    U = _controls(grid, M, 0.1)
    core = core_from_spec(spec_p1, grid, [0.2])
    X = _simulate_core(core.sc, grid, core.x0, U, W.increments)

    class PoisonedCost(GridCost):
        def running_grad_x(self, X, U, out=None):
            out = super().running_grad_x(X, U, out)
            out[5, 30] = np.nan
            return out

    with pytest.raises(BlowupError, match="path 5, step 30") as err:
        backward_solve(core.sc, PoisonedCost(spec_p1.cost, grid), grid, X, U, W.increments, basis)
    assert (err.value.path, err.value.step) == (5, 30)


@pytest.mark.parametrize("name, fits_per_step", [("spec_p1", 1), ("spec_p1_d", 2)])
def test_z_is_fitted_only_where_a_c_or_d_block_reads_it(name, fits_per_step, grid, basis,
                                                        request, monkeypatch):
    # Y's fit at every step, and Z's only on a problem with a nonzero C or D block
    spec = request.getfixturevalue(name)
    M = 500
    W = generate_brownian(grid, M, seed=6)
    U = _controls(grid, M, 0.1)
    core = core_from_spec(spec, grid, [0.2])
    X = _simulate_core(core.sc, grid, core.x0, U, W.increments)
    steps, fit = [], StepRegression.fit
    monkeypatch.setattr(StepRegression, "fit",
                        lambda self, j, targets: steps.append(j) or fit(self, j, targets))
    Y, Z, _ = backward_solve(core.sc, core.cost_eval, grid, X, U, W.increments, basis)
    assert len(steps) == fits_per_step * grid.N
    assert Z is None if fits_per_step == 1 else Z.shape == (M, grid.N, 1, 1)


@pytest.mark.parametrize("c, d", [(0.3, 0.0), (0.0, 0.5)])
def test_non_finite_z_raises_at_its_path_and_step(c, d, grid, basis, monkeypatch):
    # a NaN in the fit of Z at (path 7, step 20): a C block carries it into Y_20 too, a D
    # block alone leaves it in Z, where the finiteness check finds it
    spec = build_lq_problem(coeffs=_scalar_coeffs(C=c, D=d), horizon=1.0, G=[[1.0]], Q=[[1.0]],
                            R=[[1.0]], delta=1.0, mode="case1")
    M = 500
    W = generate_brownian(grid, M, seed=6)
    U = _controls(grid, M, 0.1)
    core = core_from_spec(spec, grid, [0.2])
    X = _simulate_core(core.sc, grid, core.x0, U, W.increments)
    calls, fit = [], StepRegression.fit

    def poisoned(self, j, targets):
        # two fits per step from step N - 1 down, Y's then Z's
        out = fit(self, j, targets)
        calls.append(j)
        if len(calls) == 2 * (grid.N - 1 - 20) + 2:
            out[7] = np.nan
        return out

    monkeypatch.setattr(StepRegression, "fit", poisoned)
    with pytest.raises(BlowupError, match="path 7, step 20") as err:
        backward_solve(core.sc, core.cost_eval, grid, X, U, W.increments, basis)
    assert (err.value.path, err.value.step) == (7, 20)


def test_adjoint_superposition_for_lq(grid, basis, spec_p1):
    M = 4000
    W = generate_brownian(grid, M, seed=7, antithetic=True)
    rng = np.random.Generator(np.random.Philox(key=10))
    uv = rng.standard_normal((grid.N, 1)) * 0.4
    vv = rng.standard_normal((grid.N, 1)) * 0.4

    core = core_from_spec(spec_p1, grid, [0.3])

    def solve_for(vals):
        U = _controls(grid, M, np.broadcast_to(vals, (M, grid.N, 1)).copy())
        return _evaluate_gradient(core, U, W.increments, basis)[1]

    y_sum = solve_for(uv + vv)
    y_u = solve_for(uv)
    y_v = solve_for(vv)
    y_0 = solve_for(np.zeros((grid.N, 1)))
    lhs = y_sum - y_0
    rhs = (y_u - y_0) + (y_v - y_0)
    scale = max(float(np.sqrt((rhs**2).mean())), 1e-12)
    assert float(np.sqrt(((lhs - rhs) ** 2).mean())) / scale <= 0.02


def _without_multiplicative_noise(spec):
    """spec with C = D = 0, every other coefficient and cost block kept."""
    c, cost = spec.coeffs, spec.cost
    coeffs = CoefficientSet.build(spec.dims, A=c.A, B=c.B, b=c.b, sigma=c.sigma)
    return build_lq_problem(horizon=spec.horizon, coeffs=coeffs, G=cost.G, r=cost.r, Q=cost.Q,
                            S=cost.S, R=cost.R, q=cost.q, rho=cost.rho,
                            delta=spec.certificate.delta)


_STEP_CONTROLS = arrays(np.float64, (10, 2), elements=st.floats(-1.0, 1.0))


@settings(max_examples=30)
@given(which=st.sampled_from(["p1", "rich_lq"]), u=_STEP_CONTROLS, v=_STEP_CONTROLS,
       x0=arrays(np.float64, 2, elements=st.floats(-1.0, 1.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_adjoint_and_gradient_superpose_to_rounding_for_lq(which, u, v, x0, seed, spec_p1,
                                                             rich_lq, basis):
    # With C = D = 0, a control that is deterministic in time shifts every
    # path's state by the same deterministic amount.  The regressions centre
    # their features, so the shift leaves every design as it was, and Y and D
    # are affine in the control up to rounding.  The defect is rounding of
    # the four solves, so it is measured against their size.
    spec = spec_p1 if which == "p1" else _without_multiplicative_noise(rich_lq)
    grid = TimeGrid(0.0, 1.0, 10)
    M, m = 256, spec.dims.m
    W = generate_brownian(grid, M, seed=seed, d=spec.dims.d)
    core = core_from_spec(spec, grid, x0[:spec.dims.n])

    def evaluate(vals):
        U = np.broadcast_to(vals[:, :m], (M, grid.N, m)).copy()
        _, Y, _, D, _ = _evaluate_gradient(core, U, W.increments, basis)
        return Y, D

    solves = [evaluate(vals) for vals in (u + v, u, v, np.zeros_like(u))]
    for full, a, b, zero in zip(*solves):
        scale = max(_rms(x) for x in (full, a, b, zero))
        assert _rms((full - zero) - ((a - zero) + (b - zero))) <= 1e-10 * scale


def test_frechet_zero_problem(grid, basis, spec_zero):
    M = 512
    W = generate_brownian(grid, M, seed=8)
    U = _controls(grid, M, 0.0)
    *_, D, _ = _evaluate_gradient(core_from_spec(spec_zero, grid, [1.0]), U, W.increments, basis)
    assert np.max(np.abs(D)) == 0.0


def test_frechet_deterministic_profile(grid, basis, spec_p1_nonoise):
    # B = 1, D = 0, Du_l = 0 at u = 0, so the gradient equals Y = 2 - t
    M = 64
    W = generate_brownian(grid, M, seed=9)
    U = _controls(grid, M, 0.0)
    *_, D, _ = _evaluate_gradient(core_from_spec(spec_p1_nonoise, grid, [1.0]), U, W.increments,
                                  basis)
    expected = 2.0 - grid.nodes[:-1]
    assert np.max(np.abs(D[0, :, 0] - expected)) <= 2 * grid.dt


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
    U = _controls(grid, M, u_vals.copy())
    core = core_from_spec(spec_p1, grid, [0.4])
    X, _, _, D, _ = _evaluate_gradient(core, U, W.increments, basis)
    pairing = float((D * v_vals).sum() * grid.dt / M)
    eps = 1e-4
    U_eps = _controls(grid, M, (u_vals + eps * v_vals).copy())
    X_eps = _simulate_core(core.sc, grid, core.x0, U_eps, W.increments)

    def cost(X, U):
        return float(per_path_cost_core(core.cost_eval, grid, X, U).mean())

    fd = (cost(X_eps, U_eps) - cost(X, U)) / eps
    assert fd == pytest.approx(pairing, rel=1e-2)


def test_duality_identity(grid, basis, spec_p1):
    # <D[u], v - u> equals the terminal plus running pairing of the raw
    # cost derivatives with the state and control differences
    M = 20_000
    W = generate_brownian(grid, M, seed=13, antithetic=True)
    rng = np.random.Generator(np.random.Philox(key=14))
    u_vals = np.broadcast_to(rng.standard_normal((grid.N, 1)) * 0.5, (M, grid.N, 1)).copy()
    v_vals = np.broadcast_to(rng.standard_normal((grid.N, 1)) * 0.5, (M, grid.N, 1)).copy()
    core = core_from_spec(spec_p1, grid, [0.4])
    Xu, _, _, D, _ = _evaluate_gradient(core, u_vals, W.increments, basis)
    Xv = _simulate_core(core.sc, grid, core.x0, v_vals, W.increments)
    lhs = float((D * (v_vals - u_vals)).sum() * grid.dt / M)
    cost = spec_p1.cost
    terminal = (cost.dx_g(Xu[:, -1]) * (Xv[:, -1] - Xu[:, -1])).sum(axis=1)
    running = np.zeros(M)
    for k in range(grid.N):
        lt = cost.at(float(grid.nodes[k]))
        running += (
            (lt.grad_x(Xu[:, k], u_vals[:, k]) * (Xv[:, k] - Xu[:, k])).sum(axis=1)
            + (lt.grad_u(Xu[:, k], u_vals[:, k]) * (v_vals[:, k] - u_vals[:, k])).sum(axis=1)
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

    core = core_from_spec(spec, small, [0.2])

    def grad(vals):
        U = _controls(small, M, np.broadcast_to(vals, (M, small.N, 1)).copy())
        return _evaluate_gradient(core, U, W.increments, basis)[3]

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
    U = _controls(grid, M, 0.0)

    def per_path(spec):
        core = core_from_spec(spec, grid, [1.0])
        X = _simulate_core(core.sc, grid, core.x0, U, W.increments)
        return per_path_cost_core(core.cost_eval, grid, X, U)

    assert float(per_path(spec_zero).mean()) == 0.0
    # X = 1: terminal 1/2 plus running integral of 1/2
    costs = per_path(spec_p1_nonoise)
    assert float(costs.mean()) == pytest.approx(1.0, abs=2 * grid.dt)
    assert costs.shape == (M,)


def _predict(reg, j, F_eval, targets):
    """The least-squares fit of targets at step j, evaluated at the points F_eval [L, q]."""
    return reg.features(j).design(F_eval).T @ reg.coefficients(j, targets)


def test_regression_predict_matches_fit():
    # the coefficients and the design at the training points give the fit, and a step's
    # features give the design at other points
    rng = np.random.Generator(np.random.Philox(key=20))
    # the third feature is constant, so it collapses onto the intercept
    F = np.column_stack([rng.normal(size=500), rng.uniform(-1, 1, 500), np.full(500, 0.7)])
    reg = StepRegression(F[:, None], RegressionBasis(degree=2, ridge=1e-8))
    targets = np.column_stack([np.sin(F[:, 0]), F[:, 1] ** 3])
    assert reg.coefficients(0, targets).shape == (10, 2)
    assert reg.coefficients(0, targets[:, 0]).shape == (10,)
    assert reg.features(0).design(F).tobytes() == reg.Phi[:, 0].tobytes()
    np.testing.assert_allclose(_predict(reg, 0, F, targets), reg.fit(0, targets),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(_predict(reg, 0, F, targets[:, 0]), reg.fit(0, targets[:, 0]),
                               rtol=0, atol=1e-12)
    # a quadratic target is reproduced away from the training points too
    G = np.column_stack([rng.normal(size=50), rng.uniform(-2, 2, 50), np.full(50, 0.7)])
    quad = lambda A: 1.0 + A[:, 0] - 2.0 * A[:, 0] * A[:, 1] + 0.5 * A[:, 1] ** 2
    np.testing.assert_allclose(_predict(reg, 0, G, quad(F)), quad(G), rtol=0, atol=1e-6)


def _rms(v):
    return float(np.sqrt(np.mean(v ** 2)))


@settings(max_examples=60)
@given(q=st.sampled_from([1, 2]), degree=st.sampled_from([1, 2]),
       ridge=st.sampled_from([0.0, 1e-10, 1e-8, 1e-6]),
       loc=st.floats(-3.0, 3.0), scale=st.floats(0.2, 5.0), seed=st.integers(0, 2 ** 32 - 1))
def test_regression_reproduces_polynomials_of_its_degree(q, degree, ridge, loc, scale, seed):
    # Tolerance.  The ridge term ridge * M on the non-intercept coefficients
    # is the only bias: with G = Phi Phi^T / M the Gram matrix of the
    # normalized basis, the RMS error of the fit over the training points is
    # at most ridge * |G^-1| * RMS(y), and |G^-1| <= cond(G) because G's
    # intercept entry is 1.  The test allows twice that, with cond(G) read
    # from reg.cond, plus 1e-13 * cond for rounding; fresh points from the
    # same distribution get ten times the training bound.
    rng = np.random.Generator(np.random.Philox(key=seed))
    exps = [e for e in product(range(degree + 1), repeat=q) if sum(e) <= degree]
    coef = rng.normal(size=len(exps))

    def poly(F):
        return sum(c * np.prod(F ** np.array(e), axis=1) for c, e in zip(coef, exps))

    F, G = (loc + scale * rng.normal(size=(L, q)) for L in (200, 100))
    reg = StepRegression(F[:, None], RegressionBasis(degree=degree, ridge=ridge))
    y = poly(F)
    tol = 2.0 * (ridge + 1e-13) * reg.cond[0] * _rms(y)
    assert _rms(reg.fit(0, y) - y) <= tol
    assert _rms(_predict(reg, 0, G, y) - poly(G)) <= 10.0 * tol


@settings(max_examples=300)
@given(q=st.sampled_from([1, 2]), degree=st.integers(0, 3),
       ridge=st.sampled_from([0.0, 1e-8]) | st.floats(1e-6, 1.0), K=st.integers(1, 4),
       collapsed=st.booleans(), loc=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_a_fit_reproduces_the_mean_of_its_targets(q, degree, ridge, K, collapsed, loc, seed):
    # the intercept is not penalized, so the residual of every fit is orthogonal to the ones:
    # a regression of the paths' own cost-to-go has their mean, and a dynamic-programming gap
    # that continued with it would read zero whatever the control
    rng = np.random.Generator(np.random.Philox(key=seed))
    F = loc + rng.uniform(0.2, 3.0, size=(1, K, q)) * rng.normal(size=(200, K, q))
    if collapsed and ridge > 0:     # with no ridge a collapsed coordinate leaves A singular
        F[:, K - 1, 0] = loc        # every path at one point, as at the start node
    y = np.column_stack([rng.standard_exponential(200) * 5.0 - loc, F[:, 0, -1] ** 3])
    reg = StepRegression(F, RegressionBasis(degree=degree, ridge=ridge))
    for j in range(K):
        fit = reg.fit(j, y)
        assert np.all(np.abs(fit.mean(axis=0) - y.mean(axis=0)) <= 1e-12 * np.abs(y).max(axis=0))


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
        assert _same(block.fit(j, targets), single.fit(0, targets))
        assert _same(_predict(block, j, G, targets), _predict(single, 0, G, targets))
        assert block.cond[j] == single.cond[0]


def test_condition_numbers_are_those_of_the_normal_matrices():
    F = _block_features()
    F[:, 6, 1] = F[:, 6, 0] + 1e-2 * F[:, 6, 1]      # nearly collinear at step 6
    basis = RegressionBasis(degree=2, ridge=1e-8)
    reg = StepRegression(F, basis)
    M, K, _ = F.shape
    penalty = np.diag([0.0] + [1.0] * (reg.Phi.shape[0] - 1))
    for j in range(K):
        A = reg.Phi[:, j] @ reg.Phi[:, j].T + basis.ridge * M * penalty
        assert reg.cond[j] == pytest.approx(np.linalg.cond(A), rel=1e-6)
    assert reg.cond[6] > 1e5 > reg.cond[5]


def test_blocked_sweep_matches_single_step_sweep(basis, request, monkeypatch):
    # the sweep's outputs do not depend on its block length, to the byte.  N = 40 in blocks of
    # 16 gives blocks of 16, 16 and 8 steps: two block boundaries and a shorter last block; in
    # blocks of 7 the last has 5 steps, and one block of 40 holds the grid.  On P1-D (D != 0)
    # the sweep fits Z as well as Y, on P2 Y alone.  It runs with fresh arrays and in a
    # workspace, whose design holds one block.
    import lcflow.adjoint as adjoint
    import lcflow.descent as descent

    grid = TimeGrid(0.0, 1.0, 40)
    M = 800
    W = generate_brownian(grid, M, seed=23)
    U = _controls(grid, M, 0.1)

    def evaluations(core, steps):
        monkeypatch.setattr(adjoint, "BLOCK_STEPS", steps)
        monkeypatch.setattr(descent, "BLOCK_STEPS", steps)
        ws = Workspace.allocate(core, M, basis)
        ws.U[...] = U
        return [_evaluate_gradient(core, U, W.increments, basis)[1:],
                _evaluate_gradient(core, ws.U, W.increments, basis, ws)[1:]]

    for name in ("spec_p1_d", "spec_p2"):
        core = core_from_spec(request.getfixturevalue(name), grid, [0.2])
        Y1, Z1, D1, cond1 = evaluations(core, 1)[0]
        assert (Z1 is None) == (name == "spec_p2")
        for steps in (7, 16, 40):
            for Y, Z, D, cond in evaluations(core, steps):
                assert _same(Y, Y1) and _same(D, D1) and cond == cond1, (name, steps)
                assert Z is None if Z1 is None else _same(Z, Z1), (name, steps)


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
    U = _controls(grid, M, 0.0)
    with pytest.raises(ValueError):
        _evaluate_gradient(core_from_spec(spec_p1, grid, [0.0]), U, W.increments,
                           RegressionBasis(degree=2))


def test_diagnostics_json_round_trip(grid, basis, spec_p1, spec_p1_nonoise):
    # cond_max is a float, or None (JSON null) when no step has spread: sigma = 0 and a
    # deterministic control keep every path at one state
    M = 1000
    W = generate_brownian(grid, M, seed=19)
    U = _controls(grid, M, 0.1)
    for spec, kind in ((spec_p1, float), (spec_p1_nonoise, type(None))):
        *_, cond_max = _evaluate_gradient(core_from_spec(spec, grid, [0.2]), U, W.increments,
                                          basis)
        assert type(cond_max) is kind
        assert json.loads(json.dumps(cond_max)) == cond_max


class _RefStepRegression(StepRegression):
    """StepRegression's build written out on its own: the feature build in its earlier form
    (np.std on the raw features, and the design filled with ones and multiplied by every
    factor, for the whole block at once) in a step-major design Phi [K, p, M], then the einsum
    Gram matrix with the ridge added as a matrix, and one eigendecomposition for the condition
    number and the inverse; its fits read step j's design Phi[j]."""

    def __init__(self, features, basis, first_step=0):
        F = np.ascontiguousarray(np.moveaxis(np.asarray(features, dtype=float), 0, -1))
        M = F.shape[2]
        p = basis.size(F.shape[1])
        self._mu = F.mean(axis=2)
        sd = F.std(axis=2)
        self._degenerate = sd < 1e-12 * (1.0 + np.abs(self._mu))
        self._sd = np.where(self._degenerate, 1.0, sd)
        self._degree = basis.degree
        self.Phi = Phi = self._design(F, slice(None))
        penalty = np.ones(p)
        penalty[0] = 0.0
        A = np.einsum("kam,kbm->kab", Phi, Phi) + basis.ridge * M * np.diag(penalty)
        lam, V = np.linalg.eigh(A)
        self.cond = np.abs(lam).max(axis=1) / np.abs(lam).min(axis=1)
        self._Ainv = np.matmul(V / lam[:, None, :], np.transpose(V, (0, 2, 1)))

    def coefficients(self, j, targets):
        return self._Ainv[j] @ (self.Phi[j] @ targets)

    def fit(self, j, targets):
        y = targets if targets.ndim == 2 else targets[:, None]
        out = self.Phi[j].T @ self.coefficients(j, y)
        return out if targets.ndim == 2 else out[:, 0]

    def _design(self, F, j):
        Z = (F - self._mu[j, :, None]) / self._sd[j, :, None]
        Z[self._degenerate[j]] = 0.0
        exps = _monomial_exponents(F.shape[-2], self._degree)
        Phi = np.ones(F.shape[:-2] + (len(exps), F.shape[-1]))
        for col, e in enumerate(exps):
            for i, power in enumerate(e):
                if power:
                    Phi[..., col, :] *= Z[..., i, :] ** power
        return Phi


def _same(a, b):
    return (a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def _pinned_features(degree, q):
    """Features of 3 steps, on a step-major array as the backward sweep holds them; coordinate 0
    is constant at step 1, so it collapses onto the intercept there.  Also targets and points
    off the training points."""
    rng = np.random.Generator(np.random.Philox(key=90 + 5 * q + degree))
    M, K = 80, 3
    F = step_major(M, K, q)
    F[...] = rng.normal(0.4, 1.7, size=(M, K, q))
    F[:, 1, 0] = 0.3
    targets = np.column_stack([np.sin(F[:, 0, 0]), F[:, 2, -1] ** 3, rng.normal(size=M)])
    return F, targets, rng.normal(0.0, 3.0, size=(25, q))


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_regression_build_equals_reference_bytes(degree, q):
    F, targets, F_eval = _pinned_features(degree, q)
    M, K, _ = F.shape
    basis = RegressionBasis(degree=degree, ridge=1e-8)
    ref = _RefStepRegression(F, basis)
    assert ref._degenerate[1, 0] and not ref._degenerate[[0, 2], 0].any()
    # with a fresh design, and in a workspace's design buffer that holds a longer block; the
    # design is coordinate-major [p, K, M], so step j's design is Phi[:, j]
    design = np.full((basis.size(q), BLOCK_STEPS, M), np.nan)
    for reg in (StepRegression(F, basis, first_step=7),
                StepRegression(F, basis, first_step=7, design=design)):
        assert reg.Phi.shape == (basis.size(q), K, M)
        for name in ("_Ainv", "cond", "_mu", "_sd", "_degenerate"):
            assert _same(getattr(reg, name), getattr(ref, name)), name
        for j in range(K):
            assert _same(reg.Phi[:, j], ref.Phi[j])
            assert _same(reg.fit(j, targets), ref.fit(j, targets))
            assert _same(reg.fit(j, targets[:, 1]), ref.fit(j, targets[:, 1]))
            assert _same(reg.coefficients(j, targets), ref.coefficients(j, targets))
            assert _same(reg.features(j).design(F_eval), ref._design(F_eval.T, j))
    assert np.shares_memory(reg.Phi, design)


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_normal_equations_match_the_gemm_cholesky_formulas(degree, q):
    # the inverse, condition number, fits and predictions of the earlier formulas (a gemm Gram
    # matrix, eigvalsh, and the inverse from the Cholesky factor), to rounding: an inverse's
    # relative accuracy is that of its matrix times its condition number, so the tolerance is
    # 10 eps cond, which is 1e-13 or tighter wherever cond <= 45
    F, targets, F_eval = _pinned_features(degree, q)
    M, K, _ = F.shape
    basis = RegressionBasis(degree=degree, ridge=1e-8)
    reg = StepRegression(F, basis, first_step=7)
    Phi = reg.Phi.transpose(1, 0, 2)        # [K, p, M]: step j's design Phi[j]
    penalty = np.diag([0.0] + [1.0] * (Phi.shape[1] - 1))
    A = Phi @ np.swapaxes(Phi, 1, 2) + basis.ridge * M * penalty
    lam = np.abs(np.linalg.eigvalsh(A))
    cond = lam.max(axis=1) / lam.min(axis=1)
    Linv = np.linalg.inv(np.linalg.cholesky(A))
    Ainv = np.swapaxes(Linv, 1, 2) @ Linv

    def rel(got, want):
        return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))

    for j in range(K):
        tol = 10.0 * np.finfo(float).eps * cond[j]
        assert abs(reg.cond[j] / cond[j] - 1.0) <= tol
        assert rel(reg._Ainv[j], Ainv[j]) <= tol
        coef = Ainv[j] @ (Phi[j] @ targets)
        assert rel(reg.fit(j, targets), Phi[j].T @ coef) <= tol
        design = reg.features(j).design(F_eval)
        assert rel(design.T @ reg.coefficients(j, targets), design.T @ coef) <= tol


def test_duplicated_coordinate_without_ridge_raises_at_its_step():
    # two equal coordinates make equal design columns: without a ridge the normal matrix is
    # singular, and the eigendecomposition that replaced the Cholesky test must still say so
    for degree in (1, 2, 3):
        F = _block_features()
        F[:, 6, 1] = F[:, 6, 0]
        with pytest.raises(ConditioningError, match="at step 26") as info:
            StepRegression(F, RegressionBasis(degree=degree, ridge=0.0), first_step=20)
        assert info.value.step == 26
        # with the ridge, the same block builds
        StepRegression(F, RegressionBasis(degree=degree, ridge=1e-6), first_step=20)


def _twin_sign_features(M=1024):
    """One step of features +-1, twice: with degree 1, the normal matrix is exactly
    M [[1, 0, 0], [0, 1 + r, 1], [0, 1, 1 + r]] up to the rounding of the ridge r M."""
    x = np.tile([1.0, -1.0], M // 2)
    return np.stack([x, x], axis=1)[:, None, :]


@pytest.mark.parametrize("factor", [0.98, 1.02])
def test_condition_number_threshold(factor):
    # the condition number of the twin-sign normal matrix is (2 + r) / r
    F = _twin_sign_features()
    target = factor * 1e14
    basis = RegressionBasis(degree=1, ridge=2.0 / (target - 1.0))
    if factor > 1:
        with pytest.raises(ConditioningError, match="too ill-conditioned at step 4") as info:
            StepRegression(F, basis, first_step=4)
        assert info.value.step == 4
    else:
        reg = StepRegression(F, basis, first_step=4)
        assert reg.cond[0] == pytest.approx(target, rel=5e-3)


def test_a_singular_normal_matrix_is_named_singular():
    # without a ridge the twin-sign normal matrix is exactly singular: its smallest eigenvalue
    # is not positive, which the definiteness test names before the condition number
    with pytest.raises(ConditioningError, match="singular normal equations at step 4") as info:
        StepRegression(_twin_sign_features(), RegressionBasis(degree=1, ridge=0.0), first_step=4)
    assert info.value.step == 4


@pytest.mark.parametrize("order", ["non_finite_first", "singular_first"])
def test_only_a_non_finite_block_is_replaced(order):
    # a non-finite step is replaced by the identity and no other step is: a singular step
    # still fails, and whichever of the two the backward sweep (last step first) reaches first
    # names the error
    F = _block_features()
    nan_step, dup_step = (7, 3) if order == "non_finite_first" else (3, 7)
    F[17, nan_step, 0] = np.nan
    F[:, dup_step, 1] = F[:, dup_step, 0]
    with pytest.raises(ConditioningError, match="at step 27") as info:
        StepRegression(F, RegressionBasis(degree=2, ridge=0.0), first_step=20)
    assert info.value.step == 27
    assert ("non-finite" in str(info.value)) == (order == "non_finite_first")
