import hashlib

import numpy as np
import pytest

from lcflow import (
    BlowupError,
    CoefficientSet,
    ControlEnsemble,
    Dimensions,
    TimeGrid,
    build_lq_problem,
    generate_brownian,
    l2_norm,
    simulate_forward,
)
from lcflow.paths import BLOWUP_LIMIT, _euler_step, mc_stderr
from lcflow.problem import materialize


def _scalar_spec(A=0.0, B=0.0, b=0.0, sigma=0.0):
    dims = Dimensions(1, 1, 1)
    coeffs = CoefficientSet.build(dims, A=[[A]], B=[[B]], b=[b], sigma=[[sigma]])
    return build_lq_problem(horizon=1.0, coeffs=coeffs, G=np.zeros((1, 1)), r=np.zeros(1),
                            Q=np.zeros((1, 1)), S=np.zeros((1, 1)), R=np.eye(1),
                            q=np.zeros(1), rho=np.zeros(1), delta=1.0)


def _zero_controls(grid, M):
    return ControlEnsemble(grid=grid, values=np.zeros((M, grid.N, 1)))


def test_grid_nodes_and_lookup():
    grid = TimeGrid(0.0, 1.0, 7)
    assert grid.nodes[-1] == 1.0
    assert grid.index_of(grid.nodes[3]) == 3
    with pytest.raises(ValueError):
        grid.index_of(0.123)
    sub = grid.subgrid(3)
    assert sub.N == 4 and sub.t0 == pytest.approx(grid.nodes[3])


def test_brownian_determinism(grid):
    a = generate_brownian(grid, 64, seed=11, d=2)
    b = generate_brownian(grid, 64, seed=11, d=2)
    assert np.array_equal(a.increments, b.increments)
    c = generate_brownian(grid, 64, seed=12, d=2)
    assert not np.array_equal(a.increments, c.increments)


def test_brownian_antithetic_pairs(grid):
    w = generate_brownian(grid, 2, seed=3, antithetic=True)
    np.testing.assert_array_equal(w.increments[1], -w.increments[0])
    with pytest.raises(ValueError):
        generate_brownian(grid, 3, seed=3, antithetic=True)


@pytest.mark.parametrize("grid_args, M, seed, antithetic, d, digest", [
    ((0.0, 1.0, 7), 6, 13, False, 2, "e4f9b6d7ef999280b6309d5bb1e20e64fdeb969be1e43406dfcb118b1f421758"),
    ((0.0, 1.0, 7), 6, 13, True, 2, "bc92cefecc2dfd5d99482b6cfee2fb7515830f47588cb3e8e9caa23e700169ff"),
    ((0.5, 2.0, 5), 10, 4, True, 1, "d3077076921fb1700240f19cf518b48eb59a29330c11769fb4b4b482194f42c1"),
])
def test_brownian_variates_are_pinned(grid_args, M, seed, antithetic, d, digest):
    # digests of the [M, N, d] increments as the path-major layout stored them
    grid = TimeGrid(*grid_args)
    W = generate_brownian(grid, M, seed=seed, antithetic=antithetic, d=d)
    assert W.increments.shape == (M, grid.N, d)
    assert hashlib.sha256(np.ascontiguousarray(W.increments).tobytes()).hexdigest() == digest
    assert not W.increments.flags.writeable
    with pytest.raises(ValueError):
        W.increments[0, 0, 0] = 1.0
    assert W.increments[:, 2].flags.c_contiguous           # one step's increments are contiguous
    for k in (1, 3):
        assert np.array_equal(W.slice_from(k).increments, W.increments[:, k:])


def test_brownian_moments():
    grid = TimeGrid(0.0, 1.0, 50)
    M = 100_000
    w = generate_brownian(grid, M, seed=5)
    dt = grid.dt
    assert abs(w.increments.mean()) <= 4 * np.sqrt(dt / (M * grid.N))
    assert abs(w.increments.var() - dt) <= 0.05 * dt


def test_forward_pure_drift_is_exact():
    spec = _scalar_spec(b=1.0)
    grid = TimeGrid(0.0, 1.0, 40)
    W = generate_brownian(grid, 8, seed=1)
    X = simulate_forward(spec, grid, [0.0], _zero_controls(grid, 8), W)
    np.testing.assert_allclose(X.values[:, :, 0], np.broadcast_to(grid.nodes, (8, 41)), atol=1e-14)


def test_forward_pure_noise_telescopes():
    spec = _scalar_spec(sigma=1.0)
    grid = TimeGrid(0.0, 1.0, 50)
    M = 20_000
    W = generate_brownian(grid, M, seed=2)
    X = simulate_forward(spec, grid, [0.0], _zero_controls(grid, M), W)
    np.testing.assert_allclose(X.values[:, -1, 0], W.increments.sum(axis=(1, 2)), atol=1e-12)
    assert abs(X.values[:, -1, 0].mean()) <= 4.0 / np.sqrt(M)


def test_forward_exponential_growth_euler_product():
    spec = _scalar_spec(A=1.0)
    grid = TimeGrid(0.0, 1.0, 100)
    W = generate_brownian(grid, 4, seed=3)
    X = simulate_forward(spec, grid, [1.0], _zero_controls(grid, 4), W)
    # (1 + dt)^N with dt = 0.01, frozen from an independent evaluation
    assert X.values[0, -1, 0] == pytest.approx(1.01**100, rel=1e-12)
    assert X.values[0, -1, 0] == pytest.approx(2.704813829421526, rel=1e-12)
    assert abs(X.values[0, -1, 0] - np.e) < 0.02


def test_l2_norm_exact_cases(grid):
    M = 16
    zero = _zero_controls(grid, M)
    assert l2_norm(zero) == 0.0
    const = ControlEnsemble(grid=grid, values=np.full((M, grid.N, 1), -2.0))
    assert l2_norm(const) == pytest.approx(2.0 * np.sqrt(1.0), rel=1e-12)


def test_l2_norm_quadrature():
    # u(t) = t on [0, 1]: the integral of t^2 is 1/3
    grid = TimeGrid(0.0, 1.0, 2000)
    vals = np.broadcast_to(grid.nodes[:-1][None, :, None], (3, grid.N, 1)).copy()
    ens = ControlEnsemble(grid=grid, values=vals)
    assert l2_norm(ens) == pytest.approx(np.sqrt(1.0 / 3.0), abs=2.0 / grid.N)


def test_superposition_of_affine_dynamics():
    dims = Dimensions(2, 1, 2)
    rng = np.random.Generator(np.random.Philox(key=9))
    coeffs = CoefficientSet.build(
        dims,
        A=rng.uniform(-1, 1, (2, 2)), B=rng.uniform(-1, 1, (2, 1)),
        C=rng.uniform(-0.5, 0.5, (2, 2, 2)), D=rng.uniform(-0.5, 0.5, (2, 2, 1)),
        b=rng.uniform(-1, 1, 2), sigma=rng.uniform(-0.5, 0.5, (2, 2)),
    )
    hom = CoefficientSet.build(dims, A=coeffs.A, B=coeffs.B, C=coeffs.C, D=coeffs.D)
    spec = build_lq_problem(horizon=1.0, coeffs=coeffs, G=np.zeros((2, 2)), r=np.zeros(2),
                            Q=np.zeros((2, 2)), S=np.zeros((1, 2)), R=np.eye(1),
                            q=np.zeros(2), rho=np.zeros(1), delta=1.0, mode="declared")
    spec_h = build_lq_problem(horizon=1.0, coeffs=hom, G=np.zeros((2, 2)), r=np.zeros(2),
                              Q=np.zeros((2, 2)), S=np.zeros((1, 2)), R=np.eye(1),
                              q=np.zeros(2), rho=np.zeros(1), delta=1.0, mode="declared")
    grid = TimeGrid(0.0, 1.0, 30)
    M = 32
    W = generate_brownian(grid, M, seed=21, d=2)
    u1 = rng.standard_normal((M, grid.N, 1))
    u2 = rng.standard_normal((M, grid.N, 1))
    x1, x2 = np.array([0.4, -0.2]), np.array([-1.0, 0.7])
    full = simulate_forward(spec, grid, x1 + x2,
                            ControlEnsemble(grid=grid, values=u1 + u2), W)
    base = simulate_forward(spec, grid, x1,
                            ControlEnsemble(grid=grid, values=u1), W)
    extra = simulate_forward(spec_h, grid, x2,
                             ControlEnsemble(grid=grid, values=u2), W)
    np.testing.assert_allclose(full.values, base.values + extra.values, atol=1e-12)


def _run_geometric(a, c, N, inc, x0=1.0, T=1.0):
    dims = Dimensions(1, 1, 1)
    coeffs = CoefficientSet.build(dims, A=[[a]], C=[[[c]]])
    spec = build_lq_problem(horizon=T, coeffs=coeffs, G=np.zeros((1, 1)), r=np.zeros(1),
                            Q=np.zeros((1, 1)), S=np.zeros((1, 1)), R=np.eye(1),
                            q=np.zeros(1), rho=np.zeros(1), delta=1.0, mode="declared")
    grid = TimeGrid(0.0, T, N)
    M = inc.shape[0]
    from lcflow.paths import BrownianEnsemble

    W = BrownianEnsemble(grid=grid, M=M, increments=inc, seed=0)
    X = simulate_forward(spec, grid, [x0], _zero_controls(grid, M), W)
    return X.values[:, -1, 0]


def test_euler_strong_order_geometric():
    # noise-dominated geometric dynamics against the exact pathwise solution
    a, c, T = 0.05, 1.0, 1.0
    N0, M = 32, 50_000
    fine = generate_brownian(TimeGrid(0.0, T, 2 * N0), M, seed=33)
    inc_fine = fine.increments
    w_total = inc_fine.sum(axis=(1, 2))
    exact = np.exp((a - 0.5 * c * c) * T + c * w_total)
    errs = []
    for N, factor in ((N0, 2), (2 * N0, 1)):
        inc = inc_fine.reshape(M, -1, factor, 1).sum(axis=2)
        coarse = _run_geometric(a, c, N, inc)
        errs.append(np.sqrt(np.mean((coarse - exact) ** 2)))
    slope = np.log2(errs[0] / errs[1])
    assert 0.35 <= slope <= 0.65, errs


def test_euler_weak_order_geometric():
    # drift-dominated regime; the exact mean is x0 e^{aT}
    a, c, T = 1.0, 0.2, 1.0
    N0, M = 8, 100_000
    fine = generate_brownian(TimeGrid(0.0, T, 2 * N0), M, seed=34, antithetic=True)
    inc_fine = fine.increments
    exact_mean = np.exp(a * T)
    errs = []
    for N, factor in ((N0, 2), (2 * N0, 1)):
        inc = inc_fine.reshape(M, -1, factor, 1).sum(axis=2)
        coarse = _run_geometric(a, c, N, inc)
        errs.append(abs(coarse.mean() - exact_mean))
    slope = np.log2(errs[0] / errs[1])
    assert 0.8 <= slope <= 1.2, errs


def test_blowup_names_first_offender():
    spec = _scalar_spec(A=80.0, sigma=1.0)
    grid = TimeGrid(0.0, 1.0, 10)
    W = generate_brownian(grid, 4, seed=1)
    x0 = np.array([[1e6], [2e10], [1e9], [3e10]])
    U = _zero_controls(grid, 4)
    # the per-step reference: check every path after every step
    sc = materialize(spec.coeffs, grid)
    x = x0
    for k in range(grid.N):
        x = _euler_step(sc, k, x, U.values[:, k], W.increments[:, k], grid.dt)
        bad = ~np.isfinite(x).all(axis=1) | (np.abs(x).max(axis=1) > BLOWUP_LIMIT)
        if bad.any():
            expected = (int(np.argmax(bad)), k + 1)
            break
    assert expected == (1, 2)      # paths 1 and 3 leave the range together
    with pytest.raises(BlowupError, match="path 1, step 2") as err:
        simulate_forward(spec, grid, x0, U, W)
    assert (err.value.path, err.value.step) == expected


def test_mc_stderr_antithetic_pairs_counted_once():
    vals = np.array([1.0, 1.0, 2.0, 2.0])
    assert mc_stderr(vals, antithetic=True) == pytest.approx(np.std([1.0, 2.0], ddof=1) / np.sqrt(2))


def test_simulation_bit_identical_on_rerun(grid):
    spec = _scalar_spec(A=0.3, B=1.0, b=0.1, sigma=0.4)
    W = generate_brownian(grid, 512, seed=44)
    u = _zero_controls(grid, 512)
    a = simulate_forward(spec, grid, [0.7], u, W)
    b = simulate_forward(spec, grid, [0.7], u, W)
    assert np.array_equal(a.values, b.values)
