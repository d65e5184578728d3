"""Ground-truth oracle for deterministic-coefficient LQ problems.

Backward matrix Riccati ODE with affine and scalar companion terms, solved
by classical RK4 on a refinement of the solver grid.  The companion ODEs
are obtained by substituting the quadratic ansatz

    V(t, x) = 1/2 <P(t) x, x> + <phi(t), x> + c(t)

into the dynamic-programming PDE of the control problem; the hjb residual
check doubles as the unit test of that derivation.  With

    K(t)  = R + sum_i D_i^T P D_i          (m x m, kept >= delta I)
    Mx(t) = B^T P + sum_i D_i^T P C_i + S  (m x n)
    mv(t) = B^T phi + sum_i D_i^T P sigma_i + rho

the feedback is u = Theta x + theta, Theta = -K^{-1} Mx, theta = -K^{-1} mv,
and the backward ODEs read

    P'   = -(P A + A^T P + sum C_i^T P C_i + Q - Mx^T K^{-1} Mx)
    phi' = -(A^T phi + P b + sum C_i^T P sigma_i + q - Mx^T K^{-1} mv)
    c'   = -(<phi, b> + 1/2 sum <P sigma_i, sigma_i> - 1/2 <K^{-1} mv, mv>)

with P(T) = G, phi(T) = r, c(T) = 0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .costs import CostModel, _sym, min_eigenvalue, solve_spd
from .errors import LcflowError, StructuralError
from .grids import TimeGrid


class RiccatiSingularError(LcflowError):
    """R + sum D^T P D lost positivity during the backward sweep."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


@dataclass
class RiccatiSolution:
    """P, phi, c and the feedback gains on a refined copy of the grid."""

    grid: TimeGrid
    times: np.ndarray          # refined, ascending, times[0] = t0, times[-1] = T
    P: np.ndarray              # [K+1, n, n]
    phi: np.ndarray            # [K+1, n]
    c: np.ndarray              # [K+1]
    theta_gain: np.ndarray     # [K+1, m, n]
    theta_offset: np.ndarray   # [K+1, m]
    regular_margin_min: float = np.inf

    def _locate(self, t):
        t0, T = float(self.times[0]), float(self.times[-1])
        if t < t0 - 1e-12 or t > T + 1e-12:
            raise ValueError(f"t={t} outside [{t0}, {T}]")
        t = min(max(t, t0), T)
        j = int(np.searchsorted(self.times, t, side="right")) - 1
        j = min(max(j, 0), len(self.times) - 2)
        w = (t - self.times[j]) / (self.times[j + 1] - self.times[j])
        return j, w

    def _interp(self, arr, t):
        j, w = self._locate(t)
        return (1.0 - w) * arr[j] + w * arr[j + 1]

    def P_at(self, t):
        return self._interp(self.P, t)

    def phi_at(self, t):
        return self._interp(self.phi, t)

    def c_at(self, t):
        return float(self._interp(self.c, t))

    def gain_at(self, t):
        return self._interp(self.theta_gain, t), self._interp(self.theta_offset, t)


def _quadratic_cost(spec) -> CostModel:
    """The cost of spec, which the oracle can only solve for the quadratic family."""
    if spec.cost.family != "quadratic":
        raise StructuralError(f"spec cost family {spec.cost.family!r} is not quadratic")
    return spec.cost


def _freeze(spec, t):
    """Coefficient and cost matrices of spec at time t (right-continuous)."""
    coeffs, cost = spec.coeffs, spec.cost
    return tuple(pw.at(t) for pw in (coeffs.A, coeffs.B, coeffs.C, coeffs.D, coeffs.b,
                                     coeffs.sigma, cost.Q, cost.S, cost.R, cost.q, cost.rho))


def _rk4(rhs, state, h, substeps, sym):
    """Generic RK4 over one frozen-coefficient interval; state is a tuple, sym symmetrizes P."""
    P, phi, c = state
    for _ in range(substeps):
        k1 = rhs(P, phi, c)
        k2 = rhs(P + 0.5 * h * k1[0], phi + 0.5 * h * k1[1], c + 0.5 * h * k1[2])
        k3 = rhs(P + 0.5 * h * k2[0], phi + 0.5 * h * k2[1], c + 0.5 * h * k2[2])
        k4 = rhs(P + h * k3[0], phi + h * k3[1], c + h * k3[2])
        P = sym(P + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]))
        phi = phi + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        c = c + (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        yield P, phi, c


def _matrix_terms(frozen, regular, hand_off):
    """The right-hand side on one interval, with frozen coefficients, on numpy blocks.

    Returns rhs(P, phi, c), k_min(P, phi), the smallest eigenvalue of K, and
    gains(P, phi).  Before rhs solves with K it passes K's smallest
    eigenvalue to regular; its solves K^-1 Mx and K^-1 mv go to hand_off.
    """
    A, B, C, D, b, sigma, Qt, St, Rt, qt, rhot = frozen
    with_c, with_d = bool(C.any()), bool(D.any())

    def forms(P, phi):
        """K, Mx and mv at (P, phi), without the terms of a zero C or D block."""
        Kmat, Mx, mv = Rt, B.T @ P, B.T @ phi
        if with_d:
            Kmat = Kmat + np.einsum("inm,nj,ijk->mk", D, P, D)
            if with_c:
                Mx = Mx + np.einsum("inm,nj,ijk->mk", D, P, C)
            mv = mv + np.einsum("inm,nj,ij->m", D, P, sigma)
        return Kmat, Mx + St, mv + rhot

    def k_min(P, phi):
        return float(min_eigenvalue(_sym(forms(P, phi)[0])))

    def rhs(P, phi, c):
        Kmat, Mx, mv = forms(P, phi)
        regular(float(min_eigenvalue(_sym(Kmat))))
        Kinv_Mx = solve_spd(Kmat, Mx)
        Kinv_mv = solve_spd(Kmat, mv)
        hand_off(Kinv_Mx, Kinv_mv)
        dP = P @ A + A.T @ P
        dphi = A.T @ phi + P @ b
        if with_c:
            dP = dP + np.einsum("ijn,jk,ikl->nl", C, P, C)
            dphi = dphi + np.einsum("ijn,jk,ik->n", C, P, sigma)
        dP = -(dP + Qt - Mx.T @ Kinv_Mx)
        dphi = -(dphi + qt - Mx.T @ Kinv_mv)
        dc = -(float(phi @ b) + 0.5 * float(np.einsum("ij,jk,ik->", sigma, P, sigma))
               - 0.5 * float(mv @ Kinv_mv))
        return _sym(dP), dphi, dc

    def gains(P, phi):
        Kmat, Mx, mv = forms(P, phi)
        return -solve_spd(Kmat, Mx), -solve_spd(Kmat, mv)

    return rhs, k_min, gains


def _float_terms(frozen, regular, hand_off):
    """_matrix_terms for n = m = d = 1 on Python floats, with the same bits.

    Each product of 1 x 1 blocks is written as the same float products, left
    to right, plus 0.0: a 1 x 1 matmul or einsum sums its one product into
    +0.0, so a product of -0.0 comes back as +0.0.  K is its own smallest
    eigenvalue, and a solve with K divides by it, as costs.solve_spd does.
    """
    A, B, C, D, b, sigma, Qt, St, Rt, qt, rhot = (v.item() for v in frozen)
    with_c, with_d = C != 0.0, D != 0.0

    def forms(P, phi):
        Kmat, Mx, mv = Rt, B * P + 0.0, B * phi + 0.0
        if with_d:
            Kmat = Kmat + (D * P * D + 0.0)
            if with_c:
                Mx = Mx + (D * P * C + 0.0)
            mv = mv + (D * P * sigma + 0.0)
        return Kmat, Mx + St, mv + rhot

    def k_min(P, phi):
        return forms(P, phi)[0]

    def rhs(P, phi, c):
        Kmat, Mx, mv = forms(P, phi)
        regular(Kmat)
        Kinv_Mx, Kinv_mv = Mx / Kmat, mv / Kmat
        hand_off(Kinv_Mx, Kinv_mv)
        dP = (P * A + 0.0) + (A * P + 0.0)
        dphi = (A * phi + 0.0) + (P * b + 0.0)
        if with_c:
            dP = dP + (C * P * C + 0.0)
            dphi = dphi + (C * P * sigma + 0.0)
        dP = -(dP + Qt - (Mx * Kinv_Mx + 0.0))
        dphi = -(dphi + qt - (Mx * Kinv_mv + 0.0))
        dc = -((phi * b + 0.0) + 0.5 * (sigma * P * sigma + 0.0) - 0.5 * (mv * Kinv_mv + 0.0))
        return dP, dphi, dc

    def gains(P, phi):
        # no stage has checked K at this state: at K = 0 numpy divides into inf or nan,
        # where a Python float division would raise
        Kmat, Mx, mv = forms(P, phi)
        Kmat = np.float64(Kmat)
        return -(Mx / Kmat), -(mv / Kmat)

    return rhs, k_min, gains


def _on_floats(dims) -> bool:
    """Whether the oracle runs on Python floats: n = m = d = 1."""
    return dims.n == dims.m == dims.d == 1


def solve_riccati_ode(spec, grid: TimeGrid, substeps: int = 4) -> RiccatiSolution:
    """Integrate the Riccati system backward with RK4 sub-stepping.

    Coefficients are frozen per grid interval (left node, right-continuous),
    so each interval's right-hand side is smooth and RK4 keeps the oracle
    error negligible next to Monte Carlo error.  P is symmetrized after
    every step; values are stored at sub-step resolution so interpolated
    lookups stay smooth.

    A scalar problem (n = m = d = 1 in spec.dims) is integrated on Python
    floats (_float_terms), every other one on numpy blocks (_matrix_terms);
    the float path skips numpy's per-call cost on 1 x 1 arrays and gives a
    scalar problem the matrix path's bits.  It writes each product of 1 x 1
    blocks as the same float products, left to right, plus 0.0: numpy's
    1 x 1 matmul and einsum sum their one product into +0.0, so a product
    of -0.0 comes back as +0.0.  Everything else is shared: the interval
    loop, the stored arrays, the gain hand-off, both RiccatiSingularError
    checks and the regularity margin.
    """
    cost = _quadratic_cost(spec)
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    n, m = spec.dims.n, spec.dims.m

    K_total = grid.N * substeps
    times = np.empty(K_total + 1)
    P_out = np.empty((K_total + 1, n, n))
    phi_out = np.empty((K_total + 1, n))
    c_out = np.empty(K_total + 1)
    th_out = np.empty((K_total + 1, m, n))
    to_out = np.empty((K_total + 1, m))
    margin = [np.inf]
    # The gains at a stored state are -K^-1 Mx and -K^-1 mv there.  Unless
    # the state ends its interval, the next RK4 stage k1 solves for exactly
    # those, at the same state with the same frozen coefficients, and
    # stores them at the index left here.
    pending = [None]

    def regular_from(t_stamp):
        """The check of K's smallest eigenvalue w0 at each RK4 stage of the interval from t_stamp."""
        def regular(w0):
            if w0 < margin[0]:
                margin[0] = w0
            if w0 < 1e-12:
                raise RiccatiSingularError(
                    f"R + D^T P D lost positivity (min eig {w0:.3e}) near t={t_stamp:.6g}",
                    t=t_stamp,
                )
        return regular

    def hand_off(Kinv_Mx, Kinv_mv):
        if pending[0] is not None:
            th_out[pending[0]], to_out[pending[0]] = -Kinv_Mx, -Kinv_mv
            pending[0] = None

    if _on_floats(spec.dims):
        # float(p) is p: a float is its own symmetric part
        terms, sym, P, phi = _float_terms, float, cost.G.item(), cost.r.item()
    else:
        terms, sym, P, phi = _matrix_terms, _sym, cost.G.copy(), cost.r.copy()
    c = 0.0
    idx = K_total
    times[idx] = grid.T
    P_out[idx], phi_out[idx], c_out[idx] = P, phi, c

    # the last interval's coefficients: its first stage k1 supplies the terminal gains
    _, k_min, _ = terms(_freeze(spec, float(grid.nodes[grid.N - 1])), None, None)
    if k_min(P, phi) < 1e-12:
        raise RiccatiSingularError("R + D^T G D is singular at the terminal time", t=grid.T)
    pending[0] = idx

    for k in range(grid.N - 1, -1, -1):
        t_left = float(grid.nodes[k])
        rhs, _, gains_fn = terms(_freeze(spec, t_left), regular_from(t_left), hand_off)
        h = -(float(grid.nodes[k + 1]) - t_left) / substeps
        t_cur = float(grid.nodes[k + 1])
        for s, (P, phi, c) in enumerate(_rk4(rhs, (P, phi, c), h, substeps, sym), 1):
            t_cur += h
            idx -= 1
            times[idx] = t_cur
            P_out[idx], phi_out[idx], c_out[idx] = P, phi, c
            if s < substeps:
                pending[0] = idx
            else:
                th_out[idx], to_out[idx] = gains_fn(P, phi)
    times[0] = grid.t0

    return RiccatiSolution(
        grid=grid, times=times, P=P_out, phi=phi_out, c=c_out,
        theta_gain=th_out, theta_offset=to_out, regular_margin_min=float(margin[0]),
    )


def lq_value(ric: RiccatiSolution, t: float, x) -> tuple:
    """(V, DxV, DxxV) of the quadratic value at (t, x).

    One point x gives (float, [n], [n, n]); a batch X [B, n] gives
    ([B], [B, n], [B, n, n]).
    """
    P = ric.P_at(t)
    phi = ric.phi_at(t)
    x = np.asarray(x, dtype=float)
    X = x.reshape(-1, P.shape[0])
    # einsum, not a BLAS product: a row's result does not depend on the batch size
    XP = np.einsum("pi,ij->pj", X, P)      # P is symmetric
    V = 0.5 * (XP * X).sum(axis=1) + np.einsum("pi,i->p", X, phi) + ric.c_at(t)
    DxV = XP + phi
    if x.ndim == 2:
        return V, DxV, np.broadcast_to(P, (X.shape[0],) + P.shape)
    return float(V[0]), DxV[0], P


def lq_optimal_trajectory(ric: RiccatiSolution, spec, grid: TimeGrid, x0, W):
    """Closed-loop simulation under the oracle feedback u = Theta x + theta.

    Returns the trajectory, the control and the Monte Carlo cost of spec's
    quadratic cost along it.
    """
    from .adjoint import per_path_cost_core
    from .costs import GridCost
    from .paths import ClosedLoopResult, _euler_step, mc_stderr, step_major
    from .problem import materialize

    cost = _quadratic_cost(spec)
    sc = materialize(spec.coeffs, grid)
    M = W.M
    n = sc.A.shape[1]
    m = sc.B.shape[2]
    X = step_major(M, grid.N + 1, n)
    U = step_major(M, grid.N, m)
    X[:, 0] = np.asarray(x0, dtype=float).reshape(n)
    dt = grid.dt
    for k in range(grid.N):
        Theta, theta = ric.gain_at(float(grid.nodes[k]))
        U[:, k] = X[:, k] @ Theta.T + theta
        _euler_step(sc, k, X[:, k], U[:, k], W.increments[:, k], dt, out=X[:, k + 1])
    per_path = per_path_cost_core(GridCost(cost, grid), grid, X, U)
    return ClosedLoopResult(X=X, U=U, cost=float(per_path.mean()),
                            per_path_cost=per_path, stderr=mc_stderr(per_path, W.antithetic))


def lq_policy_value(spec, grid: TimeGrid, Theta, theta=None, substeps: int = 4):
    """Quadratic value of the fixed affine policy u = Theta x + theta.

    No minimization is involved: with the policy substituted, the closed
    loop is an affine SDE with quadratic running cost, so the value solves
    linear Lyapunov-type ODEs.  Used as the oracle for perturbed-feedback
    suboptimality checks.
    """
    cost = _quadratic_cost(spec)
    n, m = spec.dims.n, spec.dims.m
    Theta = np.asarray(Theta, dtype=float).reshape(m, n)
    theta = np.zeros(m) if theta is None else np.asarray(theta, dtype=float).reshape(m)

    P, phi, c = cost.G.copy(), cost.r.copy(), 0.0
    for k in range(grid.N - 1, -1, -1):
        t_left = float(grid.nodes[k])
        A, B, C, D, b, sigma, Qt, St, Rt, qt, rhot = _freeze(spec, t_left)
        Abar = A + B @ Theta
        Cbar = C + np.einsum("inm,mk->ink", D, Theta)
        bbar = b + B @ theta
        sbar = sigma + np.einsum("inm,m->in", D, theta)
        Qbar = _sym(Qt + Theta.T @ St + St.T @ Theta + Theta.T @ Rt @ Theta)
        qbar = St.T @ theta + Theta.T @ (Rt @ theta) + qt + Theta.T @ rhot
        cbar = 0.5 * float(theta @ Rt @ theta) + float(rhot @ theta)

        def rhs(P, phi, c):
            dP = -(P @ Abar + Abar.T @ P + np.einsum("ijn,jk,ikl->nl", Cbar, P, Cbar) + Qbar)
            dphi = -(Abar.T @ phi + P @ bbar + np.einsum("ijn,jk,ik->n", Cbar, P, sbar) + qbar)
            dc = -(float(phi @ bbar) + 0.5 * float(np.einsum("ij,jk,ik->", sbar, P, sbar)) + cbar)
            return _sym(dP), dphi, dc

        h = -(float(grid.nodes[k + 1]) - t_left) / substeps
        for P, phi, c in _rk4(rhs, (P, phi, c), h, substeps, _sym):
            pass

    def value(x):
        x = np.asarray(x, dtype=float).reshape(n)
        return 0.5 * float(x @ P @ x) + float(phi @ x) + c

    return value, (P, phi, c)


def riccati_to_csv(ric: RiccatiSolution, path):
    """Dump (t, vec(P), phi, c, vec(Theta), theta) rows."""
    n = ric.P.shape[1]
    m = ric.theta_gain.shape[1]
    header = (
        ["t"]
        + [f"P_{i}{j}" for i in range(n) for j in range(n)]
        + [f"phi_{i}" for i in range(n)]
        + ["c"]
        + [f"Theta_{i}{j}" for i in range(m) for j in range(n)]
        + [f"theta_{i}" for i in range(m)]
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for j, t in enumerate(ric.times):
            row = [repr(float(t))]
            row += [repr(float(v)) for v in ric.P[j].ravel()]
            row += [repr(float(v)) for v in ric.phi[j]]
            row.append(repr(float(ric.c[j])))
            row += [repr(float(v)) for v in ric.theta_gain[j].ravel()]
            row += [repr(float(v)) for v in ric.theta_offset[j]]
            writer.writerow(row)
