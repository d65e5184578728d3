"""State derivatives of the optimal quadruple and the curvature they carry.

Freezing the second derivatives of the costs along the converged optimal
path turns the optimality system for the state-derivative processes
(gradX, gradY, gradZ, gradu) into a linear-quadratic problem with
path-indexed coefficients, zero inhomogeneity and unit initial data per
basis direction.  That problem is uniformly convex with the same modulus,
so the very same descent contraction solves it; no bespoke linear solver
is involved.

The curvature of the value function is read off at the initial node
(gradY there), and the Riccati state is recovered pointwise through
P = gradY (gradX)^{-1}.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .adjoint import RegressionBasis
from .descent import (PROBE_SEED, CoreProblem, DescentConfig, HamiltonianSolution, descend,
                      estimate_lipschitz_core)
from .grids import TimeGrid
from .paths import BrownianEnsemble
from .problem import StepCoeffs, materialize


@dataclass(frozen=True)
class FrozenQuadratic:
    """Second derivatives of the costs along (X*, u*), one block per (path, step).

    Doubles as the cost evaluator of the induced linear-quadratic problem:
    quadratic values, linear gradients, all indexed by the path axis.
    """

    grid: TimeGrid
    Qh: np.ndarray   # [M, N, n, n]
    Sh: np.ndarray   # [M, N, m, n]
    Rh: np.ndarray   # [M, N, m, m]
    Gh: np.ndarray   # [M, n, n]
    is_constant: bool = False

    def terminal_value(self, xT):
        return 0.5 * np.einsum("pi,pij,pj->p", xT, self.Gh, xT)

    def terminal_gradient(self, xT):
        return np.einsum("pij,pj->pi", self.Gh, xT)

    def running_value(self, k, x, u):
        return (
            0.5 * np.einsum("pi,pij,pj->p", x, self.Qh[:, k], x)
            + np.einsum("pi,pij,pj->p", u, self.Sh[:, k], x)
            + 0.5 * np.einsum("pi,pij,pj->p", u, self.Rh[:, k], u)
        )

    def running_grad_x(self, k, x, u):
        return np.einsum("pij,pj->pi", self.Qh[:, k], x) + np.einsum("pji,pj->pi", self.Sh[:, k], u)

    def running_grad_u(self, k, x, u):
        return np.einsum("pij,pj->pi", self.Sh[:, k], x) + np.einsum("pij,pj->pi", self.Rh[:, k], u)


@dataclass(frozen=True)
class DerivativeSolution:
    """Derivative processes, last axis indexing the initial basis direction."""

    grid: TimeGrid
    grad_X: np.ndarray   # [M, N+1, n, n]
    grad_Y: np.ndarray   # [M, N+1, n, n]
    grad_Z: np.ndarray   # [M, N, d, n, n]
    grad_u: np.ndarray   # [M, N, m, n]
    reports: tuple = ()


def _sym_batch(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def freeze_second_order(spec, sol: HamiltonianSolution) -> FrozenQuadratic:
    """Evaluate and symmetrize the cost Hessians along the optimal ensemble."""
    grid = sol.grid
    X = sol.states.values
    U = sol.controls.values
    M, _, n = X.shape
    m = U.shape[2]
    N = grid.N
    cost = spec.cost
    Qh = np.empty((M, N, n, n))
    Sh = np.empty((M, N, m, n))
    Rh = np.empty((M, N, m, m))
    worst_asym = 0.0
    worst_entry = 0.0
    for k in range(N):
        t = float(grid.nodes[k])
        qk = cost.dxx_l(t, X[:, k], U[:, k])
        rk = cost.duu_l(t, X[:, k], U[:, k])
        worst_asym = max(
            worst_asym,
            float(np.max(np.abs(qk - np.swapaxes(qk, -1, -2)))) if n > 1 else 0.0,
            float(np.max(np.abs(rk - np.swapaxes(rk, -1, -2)))) if m > 1 else 0.0,
        )
        Qh[:, k] = _sym_batch(qk)
        Rh[:, k] = _sym_batch(rk)
        Sh[:, k] = cost.dux_l(t, X[:, k], U[:, k])
        worst_entry = max(worst_entry, float(np.max(np.abs(qk))), float(np.max(np.abs(rk))),
                          float(np.max(np.abs(Sh[:, k]))))
    gk = cost.dxx_g(X[:, N])
    if n > 1:
        worst_asym = max(worst_asym, float(np.max(np.abs(gk - np.swapaxes(gk, -1, -2)))))
    Gh = _sym_batch(gk)
    worst_entry = max(worst_entry, float(np.max(np.abs(gk))))
    if worst_asym > 1e-10:
        warnings.warn(f"Hessian asymmetry {worst_asym:.2e} before symmetrization")
    if worst_entry > spec.cost.k_hess * 1.01:
        warnings.warn(
            f"sampled second derivative {worst_entry:.4g} exceeds declared bound "
            f"{spec.cost.k_hess:.4g}"
        )
    is_const = bool(
        np.allclose(Qh, Qh[:1, :1], atol=1e-12)
        and np.allclose(Sh, Sh[:1, :1], atol=1e-12)
        and np.allclose(Rh, Rh[:1, :1], atol=1e-12)
        and np.allclose(Gh, Gh[:1], atol=1e-12)
    )
    return FrozenQuadratic(grid=grid, Qh=Qh, Sh=Sh, Rh=Rh, Gh=Gh, is_constant=is_const)


def _zero_inhomogeneity(sc: StepCoeffs) -> StepCoeffs:
    return StepCoeffs(A=sc.A, B=sc.B, C=sc.C, D=sc.D,
                      b=np.zeros_like(sc.b), sigma=np.zeros_like(sc.sigma))


def solve_linear_hamiltonian(spec, grid: TimeGrid, W: BrownianEnsemble,
                             basis: RegressionBasis, sol: HamiltonianSolution,
                             frozen: FrozenQuadratic, cfg: DescentConfig) -> DerivativeSolution:
    """Solve the frozen-coefficient system once per basis direction.

    All directions share the Brownian ensemble of the base solve.  The
    regression features are the pair (direction state, base state): the
    adjoint of the frozen problem is a function of both when the frozen
    coefficients vary along the path, and the pure-direction monomials are
    still in the span, so the constant-coefficient case stays exact.
    """
    wgrid = sol.grid
    if W.grid.N != wgrid.N:
        k0 = grid.index_of(wgrid.t0)
        W = W.slice_from(k0)
    n = spec.dims.n
    base_X = sol.states.values
    sc = _zero_inhomogeneity(materialize(spec.coeffs, wgrid))

    def features_fn(Xv):
        return np.concatenate([Xv, base_X], axis=2)

    M = W.M
    N = wgrid.N
    m = spec.dims.m
    d = W.d
    grad_X = np.empty((M, N + 1, n, n))
    grad_Y = np.empty((M, N + 1, n, n))
    grad_Z = np.empty((M, N, d, n, n))
    grad_u = np.empty((M, N, m, n))
    reports = []

    k_hat = None
    for i in range(n):
        e_i = np.zeros(n)
        e_i[i] = 1.0
        core = CoreProblem(sc=sc, grid=wgrid, cost_eval=frozen,
                           delta=spec.certificate.delta, x0=e_i, features_fn=features_fn)
        sub_cfg = cfg
        if cfg.eta == "auto":
            if k_hat is None:
                k_hat = estimate_lipschitz_core(core, W.increments, basis,
                                                cfg.lipschitz_probes, PROBE_SEED)
            sub_cfg = replace(cfg, eta=spec.certificate.delta / k_hat)
        try:
            dsol = descend(core, W.increments, basis, sub_cfg, producer="variational")
        except Exception as exc:
            exc.args = (f"direction {i}: {exc.args[0]}",) + exc.args[1:]
            raise
        if dsol.report.k_hat is None:
            dsol.report.k_hat = k_hat
        grad_X[..., i] = dsol.states.values
        grad_Y[..., i] = dsol.adjoint.Y
        grad_Z[..., i] = dsol.adjoint.Z
        grad_u[..., i] = dsol.controls.values
        reports.append(dsol.report)
    return DerivativeSolution(grid=wgrid, grad_X=grad_X, grad_Y=grad_Y,
                              grad_Z=grad_Z, grad_u=grad_u, reports=tuple(reports))


@dataclass
class HessianEstimate:
    matrix: np.ndarray
    asymmetry: float          # relative, before symmetrization
    cross_path_std: float     # largest entrywise std across paths


def hessian_from_derivative(deriv: DerivativeSolution) -> HessianEstimate:
    """Value-function curvature: the ensemble value of gradY at the start node.

    Across paths the start-node gradY is deterministic up to regression
    noise; the cross-path spread is reported.
    """
    H_paths = deriv.grad_Y[:, 0]            # [M, n, n]
    H = H_paths.mean(axis=0)
    scale = max(float(np.max(np.abs(H))), 1e-12)
    asym = float(np.max(np.abs(H - H.T))) / scale
    spread = float(H_paths.std(axis=0).max())
    return HessianEstimate(matrix=0.5 * (H + H.T), asymmetry=asym, cross_path_std=spread)


@dataclass
class RiccatiStateReport:
    min_abs_det: float
    invertibility_flagged: bool
    symmetry_defect_max: float
    oracle_err_max: float = np.nan
    oracle_err_mean: float = np.nan
    step_times: np.ndarray = None
    step_err_mean: np.ndarray = None
    step_err_max: np.ndarray = None


def riccati_state_check(deriv: DerivativeSolution, oracle=None) -> RiccatiStateReport:
    """Pointwise P = gradY (gradX)^{-1}: determinant, symmetry, oracle error.

    The check reads 200 evenly spaced paths.  A |det gradX| below 1e-10 is
    flagged in the report, never raised: coarse grids can visit
    ill-conditioned samples without invalidating the run.
    """
    M = deriv.grad_X.shape[0]
    take = np.linspace(0, M - 1, min(200, M)).astype(int)
    gX = deriv.grad_X[take]                  # [B, N+1, n, n]
    gY = deriv.grad_Y[take]
    dets = np.linalg.det(gX)
    min_det = float(np.min(np.abs(dets)))
    flagged = bool(min_det < 1e-10)
    # P^T solves gradX^T P^T = gradY^T
    Pt = np.linalg.solve(np.swapaxes(gX, -1, -2), np.swapaxes(gY, -1, -2))
    P_hat = np.swapaxes(Pt, -1, -2)
    sym_defect = float(np.max(np.abs(P_hat - np.swapaxes(P_hat, -1, -2))))
    report = RiccatiStateReport(min_abs_det=min_det, invertibility_flagged=flagged,
                                symmetry_defect_max=sym_defect)
    if oracle is not None:
        times = deriv.grid.nodes
        errs = np.empty(P_hat.shape[:2])
        for k, t in enumerate(times):
            P_or = oracle.P_at(float(t))
            scale = max(float(np.linalg.norm(P_or)), 1.0)
            errs[:, k] = np.linalg.norm(P_hat[:, k] - P_or, axis=(-2, -1)) / scale
        report.oracle_err_max = float(errs.max())
        report.oracle_err_mean = float(errs.mean())
        report.step_times = np.asarray(times, dtype=float)
        report.step_err_mean = errs.mean(axis=0)
        report.step_err_max = errs.max(axis=0)
    return report


def riccati_state_to_csv(report: RiccatiStateReport, path):
    """Per-node statistics of the recovered Riccati state vs the oracle."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "err_mean", "err_max"])
        if report.step_times is None:
            return
        for t, em, ex in zip(report.step_times, report.step_err_mean, report.step_err_max):
            writer.writerow([repr(float(t)), repr(float(em)), repr(float(ex))])
