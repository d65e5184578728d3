"""The structured cost: whole-path evaluation, JSON round trips and the Riccati oracle."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcflow import (
    CoefficientSet,
    Dimensions,
    PiecewiseConstant,
    TimeGrid,
    build_lq_problem,
    problem_from_json,
    problem_to_json,
)
from lcflow.costs import (
    CostModel,
    GridCost,
    RunningCost,
    case1_smooth_cost,
    case2_smooth_cost,
    pseudo_huber,
    pseudo_huber_d1,
    pseudo_huber_d2,
)
from lcflow.paths import step_major
from lcflow.riccati import solve_riccati_ode
from lcflow.variational import FrozenQuadratic


def _round_trip(spec):
    return problem_from_json(json.loads(json.dumps(problem_to_json(spec))))


@pytest.mark.parametrize("name", ["spec_p1", "spec_p2", "rich_lq", "spec_p1_piecewise"])
def test_grid_cost_equals_pointwise_cost(name, request):
    # one whole-path call answers every node exactly as the pointwise cost does
    spec = request.getfixturevalue(name)
    cost = spec.cost
    grid = TimeGrid(0.0, spec.horizon, 20)
    view = GridCost(cost, grid)
    rng = np.random.Generator(np.random.Philox(key=12))
    X = rng.normal(size=(64, grid.N, spec.dims.n))
    U = rng.normal(size=(64, grid.N, spec.dims.m))
    value, grad_x, grad_u = (view.running_value(X, U), view.running_grad_x(X, U),
                             view.running_grad_u(X, U))
    assert value.shape == (64, grid.N)
    assert grad_x.shape == X.shape and grad_u.shape == U.shape
    for k in range(grid.N):
        t = float(grid.nodes[k])
        x, u, lt = X[:, k], U[:, k], cost.at(t)
        np.testing.assert_array_equal(value[:, k], lt.value(x, u))
        np.testing.assert_array_equal(grad_x[:, k], lt.grad_x(x, u))
        np.testing.assert_array_equal(grad_u[:, k], lt.grad_u(x, u))


@pytest.mark.parametrize("name", ["spec_p1", "rich_lq"])
def test_all_zero_blocks_are_dropped_where_frozen(name, request):
    spec = request.getfixturevalue(name)
    grid = TimeGrid(0.0, spec.horizon, 20)
    n, m = spec.dims.n, spec.dims.m
    running = GridCost(spec.cost, grid).running
    for frozen in (running, spec.cost.at(0.4)):
        kept = [block is not None for block in (frozen.S, frozen.q, frozen.rho)]
        assert kept == ([False] * 3 if name == "spec_p1" else [True] * 3)
    # dropping a zero block changes no bit of a value, gradient or Hessian
    zeros = lambda a, shape: np.zeros((grid.N,) + shape) if a is None else a
    explicit = RunningCost(running.Q, zeros(running.S, (m, n)), running.R,
                           zeros(running.q, (n,)), zeros(running.rho, (m,)))
    rng = np.random.Generator(np.random.Philox(key=14))
    X = rng.normal(size=(16, grid.N, n))
    U = rng.normal(size=(16, grid.N, m))
    for method in ("value", "grad_x", "grad_u", "hess_ux"):
        np.testing.assert_array_equal(getattr(running, method)(X, U),
                                      getattr(explicit, method)(X, U))


def test_frozen_quadratic_whole_path_matches_per_path_forms():
    M, N, n, m = 5, 4, 2, 3
    rng = np.random.Generator(np.random.Philox(key=13))
    Qh = rng.normal(size=(M, N, n, n))
    Qh = Qh + np.swapaxes(Qh, -1, -2)
    Sh = rng.normal(size=(M, N, m, n))
    Rh = rng.normal(size=(M, N, m, m))
    Rh = Rh + np.swapaxes(Rh, -1, -2)
    Gh = rng.normal(size=(M, n, n))
    Gh = Gh + np.swapaxes(Gh, -1, -2)
    frozen = FrozenQuadratic(TimeGrid(0.0, 1.0, N), Qh, Sh, Rh, Gh)
    X = rng.normal(size=(M, N, n))
    U = rng.normal(size=(M, N, m))
    value, grad_x, grad_u = (frozen.running_value(X, U), frozen.running_grad_x(X, U),
                             frozen.running_grad_u(X, U))
    xT = rng.normal(size=(M, n))
    close = dict(rtol=1e-13, atol=1e-13)
    for p in range(M):
        np.testing.assert_allclose(frozen.terminal_value(xT)[p], 0.5 * xT[p] @ Gh[p] @ xT[p], **close)
        np.testing.assert_allclose(frozen.terminal_gradient(xT)[p], Gh[p] @ xT[p], **close)
        for k in range(N):
            x, u, Q, S, R = X[p, k], U[p, k], Qh[p, k], Sh[p, k], Rh[p, k]
            np.testing.assert_allclose(value[p, k], 0.5 * x @ Q @ x + u @ S @ x + 0.5 * u @ R @ u,
                                       **close)
            np.testing.assert_allclose(grad_x[p, k], Q @ x + S.T @ u, **close)
            np.testing.assert_allclose(grad_u[p, k], S @ x + R @ u, **close)


def test_piecewise_cost_round_trips_into_the_oracle(spec_p1_piecewise):
    # a time-varying Q keeps its breakpoints through JSON and reaches the
    # Riccati oracle as a piecewise block
    doc = problem_to_json(spec_p1_piecewise)
    assert doc["cost"]["params"]["Q"] == {"times": [0.0, 0.5], "values": [[[1.0]], [[2.0]]]}
    spec = _round_trip(spec_p1_piecewise)
    assert float(spec.cost.at(0.25).value(np.array([1.0]), np.array([0.0]))) == 0.5
    assert float(spec.cost.at(0.5).value(np.array([1.0]), np.array([0.0]))) == 1.0
    grid = TimeGrid(0.0, 1.0, 20)
    ric = solve_riccati_ode(spec, grid=grid)
    ref = solve_riccati_ode(spec_p1_piecewise, grid=grid)
    np.testing.assert_array_equal(ric.P, ref.P)
    # P' = P^2 - Q(t) with P(1) = 1: the doubled weight lifts P above one
    assert ric.P_at(0.0)[0, 0] > 1.0


def _random_lq(n, m, d, breakpoints, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    times = np.sort(rng.uniform(0.05, 0.95, size=breakpoints - 1)).tolist()
    times = [0.0] + times

    def joint():
        # a psd (n+m) block matrix with R positive definite
        L = rng.normal(scale=0.5, size=(n + m, n + m))
        return L @ L.T + np.diag([0.0] * n + [0.5] * m)

    blocks = [joint() for _ in times]
    piecewise = lambda vals: PiecewiseConstant(np.stack(vals), times)
    L = rng.normal(scale=0.5, size=(n, n))
    coeffs = CoefficientSet.build(
        Dimensions(n, m, d),
        A=rng.normal(scale=0.2, size=(n, n)), B=rng.normal(scale=0.5, size=(n, m)),
        C=rng.normal(scale=0.1, size=(d, n, n)), D=rng.normal(scale=0.1, size=(d, n, m)),
        b=rng.normal(scale=0.1, size=n), sigma=rng.normal(scale=0.2, size=(d, n)),
    )
    spec = build_lq_problem(
        horizon=1.0, coeffs=coeffs, G=L @ L.T, r=rng.normal(size=n),
        Q=piecewise([J[:n, :n] for J in blocks]), S=piecewise([J[n:, :n] for J in blocks]),
        R=piecewise([J[n:, n:] for J in blocks]),
        q=piecewise([rng.normal(size=n) for _ in times]),
        rho=piecewise([rng.normal(size=m) for _ in times]),
        delta=0.5, mode="declared",
    )
    return spec, times, rng


@settings(max_examples=30)
@given(n=st.integers(1, 2), m=st.integers(1, 2), d=st.integers(1, 2),
       breakpoints=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_random_piecewise_lq_round_trips(n, m, d, breakpoints, seed):
    spec, times, rng = _random_lq(n, m, d, breakpoints, seed)
    back = _round_trip(spec)
    ts = list(times) + rng.uniform(0.0, 1.0, size=4).tolist()
    for t in ts:
        x = rng.normal(size=(5, n))
        u = rng.normal(size=(5, m))
        for name in ("value", "grad_x", "grad_u"):
            np.testing.assert_array_equal(getattr(back.cost.at(t), name)(x, u),
                                          getattr(spec.cost.at(t), name)(x, u))
        np.testing.assert_array_equal(back.cost.g(x), spec.cost.g(x))
    grid = TimeGrid(0.0, 1.0, 8)
    ric = solve_riccati_ode(back, grid=grid, substeps=1)
    ref = solve_riccati_ode(spec, grid=grid, substeps=1)
    for field in ("P", "phi", "c", "theta_gain", "theta_offset"):
        np.testing.assert_array_equal(getattr(ric, field), getattr(ref, field))


@settings(max_examples=200)
@given(z=st.floats(-1e-4, 1e-4))
@example(z=1e-9)
def test_pseudo_huber_does_not_cancel_near_zero(z):
    # sqrt(1 + z^2) - 1 written without the subtraction keeps its Taylor series
    assert pseudo_huber(np.float64(z)) == pytest.approx(z * z / 2 - z**4 / 8, rel=1e-12, abs=0)


@settings(max_examples=200)
@given(z=st.floats(-20.0, 20.0))
def test_pseudo_huber_derivatives(z):
    h = 1e-5 * (1.0 + abs(z))
    central = (pseudo_huber(np.float64(z + h)) - pseudo_huber(np.float64(z - h))) / (2 * h)
    assert pseudo_huber_d1(np.float64(z)) == pytest.approx(central, abs=1e-8)
    assert 0.0 < pseudo_huber_d2(np.float64(z)) <= 1.0


# ---------------------------------------------------------------------------
# the running cost written into a caller's array, and its zero Q and R terms dropped


def _catalog_cost(family, n, m, kappa_x, kappa_u, r_u, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    if family == "quadratic":           # every block nonzero and piecewise in time
        return _random_lq(n, m, 1, 2, seed)[0].cost
    if family == "quadratic_zero_q":    # S, q and rho but no Q
        return CostModel(n, m, G=np.eye(n), S=rng.normal(size=(m, n)), R=np.eye(m),
                         q=rng.normal(size=n), rho=rng.normal(size=m))
    if family == "pseudo_huber":        # P2's family: Q and R are zero
        return case1_smooth_cost(n, m, 1.0, kappa_x=0.5, kappa_u=kappa_u, kappa_g=1.0)
    return case2_smooth_cost(n, m, 1.0, kappa_g=1.0, kappa_x=kappa_x, kappa_u=kappa_u, r_u=r_u)


def _kept_formula(lt, x, u):
    """value, grad_x and grad_u of a frozen running cost, its Q and R terms formed, zero or not."""
    quad = lambda mat, v: 0.5 * np.einsum("...i,...ij,...j->...", v, mat, v)
    val = quad(lt.Q, x)
    if lt.S is not None:
        val = val + np.einsum("...i,...ij,...j->...", u, lt.S, x)
    val = val + quad(lt.R, u)
    if lt.q is not None:
        val = val + np.einsum("...i,...i->...", x, lt.q)
    if lt.rho is not None:
        val = val + np.einsum("...i,...i->...", u, lt.rho)
    if lt.delta_u:
        val = val + 0.5 * lt.delta_u * (u * u).sum(axis=-1)
    if lt.kappa_x:
        val = val + lt.kappa_x * pseudo_huber(x).sum(axis=-1)
    if lt.kappa_u:
        val = val + lt.kappa_u * pseudo_huber(u).sum(axis=-1)
    gx = np.einsum("...ij,...j->...i", lt.Q, x)
    if lt.S is not None:
        gx = gx + np.einsum("...ji,...j->...i", lt.S, u)
    if lt.q is not None:
        gx = gx + lt.q
    if lt.kappa_x:
        gx = gx + lt.kappa_x * pseudo_huber_d1(x)
    gu = np.einsum("...ij,...j->...i", lt.R, u)
    if lt.S is not None:
        gu = gu + np.einsum("...ij,...j->...i", lt.S, x)
    if lt.rho is not None:
        gu = gu + lt.rho
    if lt.delta_u:
        gu = gu + lt.delta_u * u
    if lt.kappa_u:
        gu = gu + lt.kappa_u * pseudo_huber_d1(u)
    return val, gx, gu


def _same(a, b):
    """Equal shapes and bits, so a -0.0 against a 0.0 is a difference."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


FAMILIES = ["quadratic", "quadratic_zero_q", "pseudo_huber", "case2"]


def _path_costs(cost, n, m, seed):
    """Step-major paths X, U and the whole-path costs on them: GridCost, and FrozenQuadratic
    with per-path blocks from the cost's Hessians along the paths (as freeze_second_order has)."""
    rng = np.random.Generator(np.random.Philox(key=seed + 1))
    M, grid = 5, TimeGrid(0.0, 1.0, 6)
    X, U = step_major(M, grid.N + 1, n), step_major(M, grid.N, m)
    X[...] = rng.normal(size=X.shape)
    U[...] = rng.normal(size=U.shape)
    view = GridCost(cost, grid)
    Xn = X[:, :grid.N]
    frozen = FrozenQuadratic(grid, view.running.hess_xx(Xn, U), view.running.hess_ux(Xn, U),
                             view.running.hess_uu(Xn, U), cost.dxx_g(X[:, -1]))
    return Xn, U, (view, frozen)


@settings(max_examples=60)
@given(family=st.sampled_from(FAMILIES), n=st.integers(1, 2), m=st.integers(1, 2),
       kappa_x=st.sampled_from([0.0, 0.3]), kappa_u=st.sampled_from([0.0, 0.3]),
       r_u=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2**16))
def test_running_cost_into_out_equals_the_allocating_call(family, n, m, kappa_x, kappa_u, r_u,
                                                          seed):
    # the gradient evaluation writes the cost terms into its own buffers: the same bits as a
    # fresh result, for the whole-path costs on step-major paths and for one grid node's row
    cost = _catalog_cost(family, n, m, kappa_x, kappa_u, r_u, seed)
    X, U, path_costs = _path_costs(cost, n, m, seed)
    M, N = U.shape[:2]
    for path_cost in path_costs:
        for name, tail in (("running_value", ()), ("running_grad_x", (n,)),
                           ("running_grad_u", (m,))):
            fresh = getattr(path_cost, name)(X, U)
            out = step_major(M, N, *tail)
            out[...] = np.nan
            assert getattr(path_cost, name)(X, U, out=out) is out
            assert _same(out, fresh), (type(path_cost).__name__, name)
    row = path_costs[0].steps[2]
    for name, tail in (("value", ()), ("grad_x", (n,)), ("grad_u", (m,))):
        out = np.full((M,) + tail, np.nan)
        assert _same(getattr(row, name)(X[:, 2], U[:, 2], out=out),
                     getattr(row, name)(X[:, 2], U[:, 2]))


@settings(max_examples=60)
@given(n=st.integers(1, 2), m=st.integers(1, 2), kappa_u=st.sampled_from([0.0, 0.3]),
       M=st.integers(1, 7), N=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_running_value_in_scratch_equals_the_allocating_call(n, m, kappa_u, M, N, seed):
    # P2's family: delta_u |u|^2 / 2 and kappa_x ph(x), and kappa_u ph(u) when it is not zero;
    # the terms formed in a caller's scratch, of the documented size, are the same bits
    cost = case1_smooth_cost(n, m, 1.0, kappa_x=0.5, kappa_u=kappa_u, kappa_g=1.0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    grid = TimeGrid(0.0, 1.0, N)
    X, U = step_major(M, N, n), step_major(M, N, m)
    X[...] = rng.normal(scale=2.0, size=X.shape)
    U[...] = rng.normal(scale=2.0, size=U.shape)
    path_cost = GridCost(cost, grid)
    fresh = path_cost.running_value(X, U)
    out = step_major(M, N)
    scratch = [np.full(M * N * max(n, m), np.nan) for _ in range(3)]
    assert path_cost.running_value(X, U, out=out, scratch=scratch) is out
    assert _same(out, fresh)
    # and pseudo_huber formed in out and scratch
    ph = np.full(X.shape, np.nan)
    assert pseudo_huber(X, out=ph, scratch=np.empty_like(X)) is ph
    assert _same(ph, pseudo_huber(X))


@settings(max_examples=60)
@given(family=st.sampled_from(FAMILIES), n=st.integers(1, 2), m=st.integers(1, 2),
       kappa_x=st.sampled_from([0.0, 0.3]), kappa_u=st.sampled_from([0.0, 0.3]),
       r_u=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2**16))
def test_dropping_zero_q_and_r_equals_the_formula_that_keeps_them(family, n, m, kappa_x, kappa_u,
                                                                  r_u, seed):
    # a zero Q or R block adds an exact zero, so leaving its terms out changes no number
    cost = _catalog_cost(family, n, m, kappa_x, kappa_u, r_u, seed)
    X, U, (view, frozen) = _path_costs(cost, n, m, seed)
    for lt, x, u in ((view.running, X, U), (frozen.running, X, U),
                     (view.steps[3], X[:, 3], U[:, 3]), (cost.at(0.4), X[0, 1], U[0, 1])):
        for got, want in zip((lt.value(x, u), lt.grad_x(x, u), lt.grad_u(x, u)),
                             _kept_formula(lt, x, u)):
            np.testing.assert_array_equal(got, want)
    if family == "pseudo_huber":
        assert not view.running._Q_nonzero and not view.running._R_nonzero
