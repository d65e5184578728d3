"""The step loops against reference copies of their earlier path-major form.

The forward sweep, the backward sweep and the cost sum carry each step in
a contiguous array and drop the terms of a zero A or C block.  Neither
may change a bit: every output here must equal the reference loops below,
which read and write the path-major columns [:, k] and form every term.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lcflow import RegressionBasis, TimeGrid, generate_brownian
from lcflow.adjoint import (
    BLOCK_STEPS,
    AdjointDiagnostics,
    StepRegression,
    backward_solve,
    per_path_cost_core,
)
from lcflow.costs import CostModel, GridCost
from lcflow.paths import _euler_step, _simulate_core
from lcflow.problem import StepCoeffs

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


def _ref_backward(sc, cost_eval, grid, X, U, dW, basis):
    M, _, n = X.shape
    d = dW.shape[2]
    N = grid.N
    dt = grid.dt
    Y = np.empty((M, N + 1, n))
    Z = np.empty((M, N, d, n))
    resid = np.empty((BLOCK_STEPS, M, n))
    cond, rmean, rbound = np.empty(N), np.empty(N), np.empty(N)
    Y[:, N] = cost_eval.terminal_gradient(X[:, N])
    Y[:, :N] = cost_eval.running_grad_x(X[:, :N], U)
    with_c = bool(sc.C.any())
    k0 = N
    for k in range(N - 1, -1, -1):
        if k < k0:
            k0 = max(k + 1 - BLOCK_STEPS, 0)
            reg = StepRegression(X[:, k0:k + 1], basis, first_step=k0)
        j = k - k0
        m_fit = reg.fit(j, Y[:, k + 1])
        r = np.subtract(Y[:, k + 1], m_fit, out=resid[j])
        zt = (r[:, None, :] * dW[:, k, :, None]) / dt
        Z[:, k] = reg.fit(j, zt.reshape(M, d * n)).reshape(M, d, n)
        driver = m_fit @ sc.A[k]
        if with_c:
            driver = driver + np.einsum("pij,ijn->pn", Z[:, k], sc.C[k])
        Y[:, k] = m_fit + (driver + Y[:, k]) * dt
        if j == 0:
            R, block = resid[:len(reg.cond)], slice(k0, k0 + len(reg.cond))
            cond[block] = reg.cond
            rmean[block] = np.abs(R.mean(axis=1)).max(axis=1)
            rbound[block] = 4.0 * R.std(axis=1).max(axis=1) / np.sqrt(M)
    return Y, Z, AdjointDiagnostics(reg.Phi.shape[1], cond.tolist(), rmean.tolist(), rbound.tolist())


def _ref_cost(cost_eval, grid, X, U):
    total = cost_eval.terminal_value(X[:, -1]).astype(float)
    running = cost_eval.running_value(X[:, :grid.N], U)
    for k in range(grid.N):
        total = total + running[:, k] * grid.dt
    return total


# ---------------------------------------------------------------------------

# a block is zero, random at every step, or random at every other step
BLOCK = st.sampled_from(["zero", "random", "alternate"])


def _block(rng, kind, shape, scale):
    out = np.zeros(shape)
    if kind != "zero":
        out[:] = scale * rng.standard_normal(shape)
    if kind == "alternate":
        out[1::2] = 0.0
    return out


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 2), m=st.integers(1, 2), d=st.integers(1, 2),
       A=BLOCK, C=BLOCK, D=BLOCK, b=BLOCK, N=st.sampled_from([3, 12]),
       antithetic=st.booleans(), seed=st.integers(0, 2**16))
def test_step_loops_match_reference_bit_for_bit(n, m, d, A, C, D, b, N, antithetic, seed):
    rng = np.random.default_rng(seed)
    M = 40
    grid = TimeGrid(0.0, 1.0, N)
    sc = StepCoeffs(A=_block(rng, A, (N, n, n), 0.5), B=rng.standard_normal((N, n, m)),
                    C=_block(rng, C, (N, d, n, n), 0.3), D=_block(rng, D, (N, d, n, m), 0.3),
                    b=_block(rng, b, (N, n), 1.0), sigma=0.3 * rng.standard_normal((N, d, n)))
    W = generate_brownian(grid, M, seed=seed, antithetic=antithetic, d=d)
    path_major = np.array(W.increments)             # the same increments in the earlier layout
    U = rng.standard_normal((M, N, m))
    x0 = rng.standard_normal(n)
    cost_eval = GridCost(CostModel(n, m, G=np.eye(n), r=rng.standard_normal(n), Q=0.5 * np.eye(n),
                                   R=np.eye(m), q=rng.standard_normal(n)), grid)
    basis = RegressionBasis(degree=2, ridge=1e-8)

    X_ref = _ref_simulate(sc, grid, x0, U, path_major)
    for dW in (W.increments, path_major):
        assert np.array_equal(_simulate_core(sc, grid, x0, U, dW), X_ref)

    for k in range(N):
        assert np.array_equal(
            _euler_step(sc, k, np.ascontiguousarray(X_ref[:, k]), np.ascontiguousarray(U[:, k]),
                        W.increments[:, k], grid.dt),
            _ref_euler_step(sc, k, X_ref[:, k], U[:, k], path_major[:, k], grid.dt))

    Y_ref, Z_ref, diag_ref = _ref_backward(sc, cost_eval, grid, X_ref, U, path_major, basis)
    for dW in (W.increments, path_major):
        Y, Z, diag = backward_solve(sc, cost_eval, grid, X_ref, U, dW, basis)
        assert np.array_equal(Y, Y_ref) and np.array_equal(Z, Z_ref)
        assert diag.to_json() == diag_ref.to_json()

    assert np.array_equal(per_path_cost_core(cost_eval, grid, X_ref, U),
                          _ref_cost(cost_eval, grid, X_ref, U))
