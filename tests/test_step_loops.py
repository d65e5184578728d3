"""The step loops against reference copies of their earlier path-major form.

The forward sweep, the backward sweep, the closed loop, the gradient and
the cost sum work on step-major arrays (paths.step_major) and drop the
terms of a zero A, C or D block; the backward sweep fits Z only on a
problem with a nonzero C or D block.  Neither may change a bit: every
output here must equal the reference loops below, which read and write
path-major arrays [M, N, .] column by column, form every term and fit Z
at every step.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcflow import (CoefficientSet, Dimensions, PiecewiseConstant, RegressionBasis, TimeGrid,
                    generate_brownian, solve_hamiltonian)
from lcflow.adjoint import (
    BLOCK_STEPS,
    StepRegression,
    _feature_block,
    backward_solve,
    gradient_core,
    per_path_cost_core,
)
from lcflow.costs import CostModel, GridCost
from lcflow.descent import CoreProblem, Workspace, core_from_spec
from lcflow.errors import ConditioningError
from lcflow.feedback import feedback_map, simulate_closed_loop
from lcflow.paths import _euler_step, _simulate_core, step_major
from lcflow.problem import StepCoeffs, materialize
from lcflow.variational import freeze_second_order

# ---------------------------------------------------------------------------
# reference loops: path-major columns, every term formed


def _ref_advance(sc, k, X, BU, DU, dWk, dt):
    Xn = X + (X @ sc.A[k].T + BU + sc.b[k]) * dt
    diff = np.einsum("inj,pj->pin", sc.C[k], X) + DU + sc.sigma[k]
    return Xn + np.einsum("pin,pi->pn", diff, dWk)


def _ref_euler_step(sc, k, X, U, dWk, dt):
    return _ref_advance(sc, k, X, U @ sc.B[k].T, np.einsum("inj,pj->pin", sc.D[k], U), dWk, dt)


def _ref_simulate(sc, grid, x0, U, dW):
    M = U.shape[0]
    n = sc.A.shape[1]
    X = np.empty((M, grid.N + 1, n))
    x0 = np.asarray(x0, dtype=float)
    X[:, 0] = x0 if x0.ndim == 2 else np.broadcast_to(x0.reshape(n), (M, n))
    BU = np.einsum("kij,pkj->pki", sc.B, U)
    DU = np.einsum("kinm,pkm->pkin", sc.D, U)
    for k in range(grid.N):
        X[:, k + 1] = _ref_advance(sc, k, X[:, k], BU[:, k], DU[:, k], dW[:, k], grid.dt)
    return X


def _ref_backward(sc, cost_eval, grid, X, U, dW, basis, features=None):
    M, _, n = X.shape
    d = dW.shape[2]
    N = grid.N
    dt = grid.dt
    Y = np.empty((M, N + 1, n))
    Z = np.empty((M, N, d, n))
    spread = []     # the condition numbers of the steps where no coordinate is degenerate
    Y[:, N] = cost_eval.terminal_gradient(X[:, N])
    Y[:, :N] = cost_eval.running_grad_x(X[:, :N], U)
    with_c = bool(sc.C.any())
    F = X if features is None else features
    k0 = N
    for k in range(N - 1, -1, -1):
        if k < k0:
            k0 = max(k + 1 - BLOCK_STEPS, 0)
            reg = StepRegression(F[:, k0:k + 1], basis, first_step=k0)
        j = k - k0
        if not reg._degenerate[j].any():
            spread.append(float(reg.cond[j]))
        m_fit = reg.fit(j, Y[:, k + 1])
        r = Y[:, k + 1] - m_fit
        zt = (r[:, None, :] * dW[:, k, :, None]) / dt
        Z[:, k] = reg.fit(j, zt.reshape(M, d * n)).reshape(M, d, n)
        driver = m_fit @ sc.A[k]
        if with_c:
            driver = driver + np.einsum("pij,ijn->pn", Z[:, k], sc.C[k])
        Y[:, k] = m_fit + (driver + Y[:, k]) * dt
    return Y, Z, max(spread) if spread else None


def _ref_gradient(sc, cost_eval, grid, X, U, Y, Z):
    N = grid.N
    D = np.einsum("pkn,knm->pkm", Y[:, :N], sc.B) + np.einsum("pkij,kijm->pkm", Z, sc.D)
    return D + cost_eval.running_grad_u(X[:, :N], U)


def _ref_cost(cost_eval, grid, X, U):
    total = cost_eval.terminal_value(X[:, -1]).astype(float)
    running = cost_eval.running_value(X[:, :grid.N], U)
    for k in range(grid.N):
        total = total + running[:, k] * grid.dt
    return total


def _ref_closed_loop(spec, sc, grid, x0, dW, value_source, override):
    M = dW.shape[0]
    n, m = spec.dims.n, spec.dims.m
    X = np.empty((M, grid.N + 1, n))
    U = np.empty((M, grid.N, m))
    X[:, 0] = x0
    for k in range(grid.N):
        t = float(grid.nodes[k])
        u = feedback_map(spec, value_source, t, X[:, k])
        U[:, k] = u if override is None else override(t, X[:, k], u)
        X[:, k + 1] = _ref_euler_step(sc, k, X[:, k], U[:, k], dW[:, k], grid.dt)
    return X, U


# ---------------------------------------------------------------------------


def _same(a, b):
    """Equal shapes and bits, so a -0.0 against a 0.0 is a difference."""
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def _same_z(Z, Z_ref, sc):
    """Z is the reference's bit for bit where a C or D block reads it, else None."""
    return _same(Z, Z_ref) if sc.C.any() or sc.D.any() else Z is None


def _or_error(fn, *args, **kwargs):
    """fn's result, or the message of the ConditioningError it raised."""
    try:
        return fn(*args, **kwargs)
    except ConditioningError as exc:
        return str(exc)


class _QuadraticValue:
    """V(t, x) = x^T P x / 2 + p^T x: DxV and DxxV for the feedback law."""

    def __init__(self, P, p):
        self.P, self.p = P, p

    def derivatives(self, t, X):
        return X @ self.P + self.p, np.broadcast_to(self.P, (X.shape[0],) + self.P.shape)


# a block is zero, random at every step, or random at every other step (from step 0 or 1)
BLOCK = st.sampled_from(["zero", "random", "alternate"])


def _block(rng, kind, shape, scale):
    out = np.zeros(shape)
    if kind != "zero":
        out[:] = scale * rng.standard_normal(shape)
    if kind == "alternate":
        out[rng.integers(2)::2] = 0.0
    return out


@settings(max_examples=40)
# mixed plain and non-plain steps (A, C or D zero at some steps only) with d = 2
@example(n=2, m=2, d=2, A="alternate", C="zero", D="zero", b="random", sigma="random",
         S="zero", q="zero", rho="zero", kappa_u=0.0, N=12, zero_start=False, antithetic=True,
         seed=5)
@example(n=1, m=2, d=2, A="zero", C="alternate", D="alternate", b="alternate", sigma="random",
         S="random", q="random", rho="zero", kappa_u=2.0, N=12, zero_start=True,
         antithetic=False, seed=11)
@given(n=st.integers(1, 2), m=st.integers(1, 2), d=st.integers(1, 2),
       A=BLOCK, C=BLOCK, D=BLOCK, b=BLOCK, sigma=BLOCK, S=BLOCK, q=BLOCK, rho=BLOCK,
       kappa_u=st.sampled_from([0.0, 2.0]), N=st.sampled_from([3, 12]),
       zero_start=st.booleans(), antithetic=st.booleans(), seed=st.integers(0, 2**16))
def test_step_loops_match_reference_bit_for_bit(n, m, d, A, C, D, b, sigma, S, q, rho, kappa_u,
                                                N, zero_start, antithetic, seed):
    rng = np.random.default_rng(seed)
    M = 40
    grid = TimeGrid(0.0, 1.0, N)
    sc = StepCoeffs(A=_block(rng, A, (N, n, n), 0.5), B=rng.standard_normal((N, n, m)),
                    C=_block(rng, C, (N, d, n, n), 0.3), D=_block(rng, D, (N, d, n, m), 0.3),
                    b=_block(rng, b, (N, n), 1.0), sigma=_block(rng, sigma, (N, d, n), 0.3))
    W = generate_brownian(grid, M, seed=seed, antithetic=antithetic, d=d)
    dW_pm = np.array(W.increments)                  # the same increments, path-major
    # a zero start with a -0.0 control keeps signed zeros in the paths where b and sigma vanish
    x0 = np.zeros(n) if zero_start else rng.standard_normal(n)
    U_pm = np.full((M, N, m), -0.0) if zero_start else rng.standard_normal((M, N, m))
    U = step_major(M, N, m)
    U[...] = U_pm
    # S, q and rho are piecewise constant on the grid: a zero block is dropped from the whole
    # stack, an alternating one from the rows where it vanishes
    nodes = grid.nodes[:-1]
    cost = CostModel(n, m, G=np.eye(n), r=rng.standard_normal(n), Q=0.5 * np.eye(n), R=np.eye(m),
                     S=PiecewiseConstant(_block(rng, S, (N, m, n), 0.3), nodes),
                     q=PiecewiseConstant(_block(rng, q, (N, n), 1.0), nodes),
                     rho=PiecewiseConstant(_block(rng, rho, (N, m), 1.0), nodes), kappa_u=kappa_u)
    cost_eval = GridCost(cost, grid)
    basis = RegressionBasis(degree=2, ridge=1e-8)

    X_ref = _ref_simulate(sc, grid, x0, U_pm, dW_pm)
    X = _simulate_core(sc, grid, x0, U, W.increments)
    assert _same(X, X_ref) and _same(_simulate_core(sc, grid, x0, U, dW_pm), X_ref)

    for k in range(N):
        assert _same(_euler_step(sc, k, X[:, k], U[:, k], W.increments[:, k], grid.dt),
                     _ref_euler_step(sc, k, X_ref[:, k], U_pm[:, k], dW_pm[:, k], grid.dt))

    Y_ref, Z_ref, cond_ref = _ref_backward(sc, cost_eval, grid, X_ref, U_pm, dW_pm, basis)
    for dW in (W.increments, dW_pm):
        Y, Z, cond_max = backward_solve(sc, cost_eval, grid, X, U, dW, basis)
        assert _same(Y, Y_ref) and _same_z(Z, Z_ref, sc)
        assert cond_max == cond_ref

    assert _same(gradient_core(sc, cost_eval, grid, X, U, Y, Z),
                 _ref_gradient(sc, cost_eval, grid, X_ref, U_pm, Y_ref, Z_ref))
    assert _same(per_path_cost_core(cost_eval, grid, X, U), _ref_cost(cost_eval, grid, X_ref, U_pm))

    # the derivative solve's features: (direction state, base state), q = 2n
    base = _simulate_core(sc, grid, rng.standard_normal(n), rng.standard_normal((M, N, m)),
                          W.increments)
    features = step_major(M, N + 1, 2 * n)
    features[..., :n], features[..., n:] = X, base
    features_ref = np.concatenate([X_ref, np.array(base)], axis=2)
    got = _or_error(backward_solve, sc, cost_eval, grid, X, U, W.increments, basis, features)
    ref = _or_error(_ref_backward, sc, cost_eval, grid, X_ref, U_pm, dW_pm, basis, features_ref)
    if isinstance(ref, str):
        assert got == ref
    else:
        assert _same(got[0], ref[0]) and _same_z(got[1], ref[1], sc)
        assert got[2] == ref[2]

    # the closed loop under a quadratic value's feedback, with and without a perturbation; the
    # reference looks every block up at t through feedback_map, so spec.coeffs holds sc's rows
    dims = Dimensions(n, m, d)
    coeffs = CoefficientSet.build(dims, **{key: PiecewiseConstant(getattr(sc, key), nodes)
                                           for key in ("A", "B", "C", "D", "b", "sigma")})
    assert all(_same(getattr(materialize(coeffs, grid), key), getattr(sc, key))
               for key in ("A", "B", "C", "D", "b", "sigma"))
    spec = SimpleNamespace(dims=dims, cost=cost, certificate=SimpleNamespace(delta=1.0),
                           coeffs=coeffs)
    P = rng.standard_normal((n, n))
    value_source = _QuadraticValue(np.eye(n) + 0.1 * (P @ P.T), rng.standard_normal(n))
    core = CoreProblem(sc=sc, grid=grid, cost_eval=cost_eval, delta=1.0, x0=x0)
    K, c = rng.uniform(-0.25, 0.25, (m, n)), rng.uniform(-0.25, 0.25, m)
    for override in (None, lambda t, Xk, u: u + Xk @ K.T + c):
        run = simulate_closed_loop(spec, core, W, value_source, control_override=override)
        X_cl, U_cl = _ref_closed_loop(spec, sc, grid, x0, dW_pm, value_source, override)
        assert _same(run.X, X_cl) and _same(run.U, U_cl)
        assert _same(run.per_path_cost, _ref_cost(cost_eval, grid, X_cl, U_cl))

    # in a descent's workspace, filled with NaN first: the forward sweep forms its noise in X's
    # rows and its drift in ws.BU (Y's first N rows), the regressions their designs in ws.design
    ws = Workspace.allocate(core, M, basis)
    for a in (ws.X, ws.U, ws.Y, ws.Z, ws.D, ws.design, ws.grad):
        if a is not None:
            a[...] = np.nan
    ws.U[...] = U
    assert _simulate_core(sc, grid, x0, ws.U, W.increments, ws) is ws.X
    assert _same(ws.X, X_ref)
    Y, Z, cond_max = backward_solve(sc, cost_eval, grid, ws.X, ws.U, W.increments, basis, ws=ws)
    assert Y is ws.Y and Z is ws.Z and _same(Y, Y_ref) and _same_z(Z, Z_ref, sc)
    assert cond_max == cond_ref
    assert ws.design.shape[1] == min(N, BLOCK_STEPS)
    assert np.shares_memory(ws.BU, Y) and not np.isnan(ws.design).any()
    assert _same(gradient_core(sc, cost_eval, grid, ws.X, ws.U, Y, Z, ws),
                 _ref_gradient(sc, cost_eval, grid, X_ref, U_pm, Y_ref, Z_ref))


def _is_step_major(a):
    """a [M, steps, ...] is the view of C-contiguous [steps, M, ...] storage."""
    return a.swapaxes(0, 1).flags.c_contiguous and not a.flags.c_contiguous


def test_whole_path_arrays_are_step_major(spec_p2, spec_p1_d, basis, cfg):
    grid = TimeGrid(0.0, 1.0, 12)
    W = generate_brownian(grid, 200, seed=3, antithetic=True)
    sol = solve_hamiltonian(spec_p2, grid, 0.0, [0.3], W, basis, cfg)
    X = sol.X
    for a in (W.increments, X, sol.U, sol.Y, sol.D):
        assert _is_step_major(a)
    # Z is fitted only where a C or D block reads it, as on P1-D
    assert sol.Z is None
    assert _is_step_major(solve_hamiltonian(spec_p1_d, grid, 0.0, [0.3], W, basis, cfg).Z)
    frozen = freeze_second_order(spec_p2, sol)
    assert all(_is_step_major(a) for a in (frozen.Qh, frozen.Sh, frozen.Rh))
    # a regression block of one feature coordinate is read in place, coordinate first
    K = min(BLOCK_STEPS, grid.N - 1)
    block = _feature_block(X[:, 2:2 + K])
    assert block.shape == (1, K, 200) and np.shares_memory(block, X)


@pytest.mark.parametrize("name", ["spec_p1_d", "rich_lq"])
def test_z_where_it_is_read_matches_the_reference_bit_for_bit(name, basis, request):
    # a nonzero C or D block reads Z: the sweep fits it at every step, as the reference does,
    # and Z, Y and the gradient are the reference's bit for bit
    spec = request.getfixturevalue(name)
    grid = TimeGrid(0.0, 1.0, 25)
    M, n, m = 600, spec.dims.n, spec.dims.m
    W = generate_brownian(grid, M, seed=31, antithetic=True, d=spec.dims.d)
    core = core_from_spec(spec, grid, np.full(n, 0.3))
    U = step_major(M, grid.N, m)
    U[...] = 0.3 * np.random.default_rng(4).standard_normal((M, grid.N, m))
    X = _simulate_core(core.sc, grid, core.x0, U, W.increments)
    X_pm, U_pm, dW_pm = (np.ascontiguousarray(a) for a in (X, U, W.increments))
    Y_ref, Z_ref, cond_ref = _ref_backward(core.sc, core.cost_eval, grid, X_pm, U_pm, dW_pm,
                                           basis)
    Y, Z, cond_max = backward_solve(core.sc, core.cost_eval, grid, X, U, W.increments, basis)
    assert _same(Y, Y_ref) and _same(Z, Z_ref) and cond_max == cond_ref
    assert _same(gradient_core(core.sc, core.cost_eval, grid, X, U, Y, Z),
                 _ref_gradient(core.sc, core.cost_eval, grid, X_pm, U_pm, Y_ref, Z_ref))
