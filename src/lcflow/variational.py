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

When no noise reaches the derivative system (zero C and D blocks and a
quadratic cost, see _noise_free), every path solves the same deterministic
problem.  The direction solves then run on the fewest paths the regression
accepts, and their first row stands for all M paths.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .adjoint import RegressionBasis
from .costs import PathCost, RunningCost, _sym
from .descent import (LIPSCHITZ_PROBES, PROBE_SEED, CoreProblem, DescentConfig, HamiltonianSolution,
                      descend, estimate_lipschitz_core)
from .grids import TimeGrid
from .paths import step_major
from .problem import StepCoeffs


@dataclass(frozen=True)
class FrozenQuadratic(PathCost):
    """Second derivatives of the costs along (X*, u*), one block per (path, step), step-major.

    Doubles as the whole-path cost evaluator of the induced linear-quadratic
    problem: the running cost's formulas on the quadratic blocks alone.
    """

    grid: TimeGrid
    Qh: np.ndarray   # [M, N, n, n]
    Sh: np.ndarray   # [M, N, m, n]
    Rh: np.ndarray   # [M, N, m, m]
    Gh: np.ndarray   # [M, n, n]

    @cached_property
    def running(self) -> RunningCost:
        return RunningCost(self.Qh, self.Sh, self.Rh)

    def terminal_value(self, xT):
        return 0.5 * np.einsum("pi,pij,pj->p", xT, self.Gh, xT)

    def terminal_gradient(self, xT):
        return np.einsum("pij,pj->pi", self.Gh, xT)


@dataclass(frozen=True)
class DerivativeSolution:
    """Derivative processes, last axis indexing the initial basis direction.

    grad_Z is None unless some step has a nonzero C or D block, which makes
    the case noisy (adjoint.backward_solve).  In the noise-free case every
    array is a read-only broadcast of one path.
    """

    grid: TimeGrid
    grad_X: np.ndarray   # [M, N+1, n, n]
    grad_Y: np.ndarray   # [M, N+1, n, n]
    grad_Z: np.ndarray   # [M, N, d, n, n], or None
    grad_u: np.ndarray   # [M, N, m, n]
    reports: tuple = ()

    def riccati_state(self, paths=None) -> np.ndarray:
        """P = gradY (gradX)^{-1} along all M paths, or the indices paths: [B, N+1, n, n].

        In the noise-free case every path holds one broadcast row, solved once.
        """
        one_row = self.grad_X.strides[0] == 0 and self.grad_Y.strides[0] == 0
        rows = slice(0, 1) if one_row else slice(None) if paths is None else paths
        gX, gY = self.grad_X[rows], self.grad_Y[rows]
        # P^T solves gradX^T P^T = gradY^T
        P = np.swapaxes(np.linalg.solve(np.swapaxes(gX, -1, -2), np.swapaxes(gY, -1, -2)), -1, -2)
        count = len(self.grad_X) if paths is None else len(paths)
        return np.broadcast_to(P, (count,) + P.shape[1:]) if one_row else P


def _noise_free(spec, sc: StepCoeffs) -> bool:
    """Whether no noise reaches the frozen direction system, so that every path solves it alike.

    Its inhomogeneity is zeroed, so with zero C and D blocks at every step
    the direction state has no diffusion; a quadratic cost has the same
    Hessians on every path.  From the same start and control the state,
    adjoint and control iterates are then the same on every path, and no Z
    is fitted.  The test is structural and exact: it reads no sampled spread.
    """
    return spec.cost.family == "quadratic" and not sc.reads_z


def freeze_second_order(spec, sol: HamiltonianSolution) -> FrozenQuadratic:
    """Evaluate and symmetrize the cost Hessians along the optimal ensemble.

    The per-step blocks come out step-major like the paths they are
    evaluated on (costs._hessian keeps its argument's layout), so the
    derivative solve's cost terms are step-major too.  In the noise-free
    case the blocks are the cost's own on every path: they are evaluated on
    the first path and broadcast to all M as read-only views.
    """
    X, U = sol.X, sol.U
    M = X.shape[0]
    if _noise_free(spec, sol.core.sc):
        X, U = X[:1], U[:1]
    N = sol.grid.N
    running = sol.core.cost_eval.running
    qh = running.hess_xx(X[:, :N], U)
    rh = running.hess_uu(X[:, :N], U)
    Sh = running.hess_ux(X[:, :N], U)
    gh = spec.cost.dxx_g(X[:, N])
    worst_asym = max(float(np.max(np.abs(a - np.swapaxes(a, -1, -2)))) for a in (qh, rh, gh))
    worst_entry = max(float(np.max(np.abs(a))) for a in (qh, rh, Sh, gh))
    Qh, Rh, Gh = _sym(qh), _sym(rh), _sym(gh)
    if worst_asym > 1e-10:
        warnings.warn(f"Hessian asymmetry {worst_asym:.2e} before symmetrization")
    if worst_entry > spec.cost.k_hess * 1.01:
        warnings.warn(
            f"sampled second derivative {worst_entry:.4g} exceeds declared bound "
            f"{spec.cost.k_hess:.4g}"
        )
    Qh, Sh, Rh, Gh = (np.broadcast_to(a, (M,) + a.shape[1:]) for a in (Qh, Sh, Rh, Gh))
    return FrozenQuadratic(grid=sol.grid, Qh=Qh, Sh=Sh, Rh=Rh, Gh=Gh)


def _zero_inhomogeneity(sc: StepCoeffs) -> StepCoeffs:
    return StepCoeffs(A=sc.A, B=sc.B, C=sc.C, D=sc.D,
                      b=np.zeros_like(sc.b), sigma=np.zeros_like(sc.sigma))


def _direction_paths(spec, basis: RegressionBasis, sol: HamiltonianSolution) -> int:
    """How many of the base ensemble's paths the direction solves run on.

    All M, unless the system is noise-free: then the fewest that the
    regression accepts, the basis size of the (direction, base) features,
    rounded up to whole antithetic pairs.
    """
    M = sol.W.M
    if not _noise_free(spec, sol.core.sc):
        return M
    rows = basis.size(2 * spec.dims.n)
    if sol.W.antithetic:
        rows += rows % 2
    return min(rows, M)


def solve_linear_hamiltonian(spec, basis: RegressionBasis, sol: HamiltonianSolution,
                             frozen: FrozenQuadratic, cfg: DescentConfig) -> DerivativeSolution:
    """Solve the frozen-coefficient system once per basis direction.

    All directions run on the base solve's subproblem, its inhomogeneity
    zeroed, and share its Brownian ensemble.  The regression features are
    the pair (direction state, base state): the adjoint of the frozen
    problem is a function of both when the frozen coefficients vary along
    the path, and the pure-direction monomials are still in the span, so
    the constant-coefficient case stays exact.  Their step-major storage
    holds the base state from the start; an evaluation writes only its
    direction state.

    In the noise-free case the directions run on the first few paths of the
    ensemble (_direction_paths) and of the frozen blocks, and the first
    row of each result is broadcast to all M paths as a read-only view.
    The regression reproduces a path-constant target exactly (its
    intercept is not penalized), so the few paths solve what all M would.
    """
    wgrid = sol.grid
    n = spec.dims.n
    sc = _zero_inhomogeneity(sol.core.sc)
    W = sol.W
    M_all = W.M
    M = _direction_paths(spec, basis, sol)
    if M < M_all:
        W = replace(W, M=M, increments=W.increments[:M])
        frozen = replace(frozen, Qh=frozen.Qh[:M], Sh=frozen.Sh[:M], Rh=frozen.Rh[:M],
                         Gh=frozen.Gh[:M])
    N = wgrid.N
    features = step_major(M, N + 1, 2 * n)
    features[..., n:] = sol.X[:M]
    m = spec.dims.m
    d = W.d
    grad_X = np.empty((M, N + 1, n, n))
    grad_Y = np.empty((M, N + 1, n, n))
    grad_Z = np.empty((M, N, d, n, n)) if sc.reads_z else None
    grad_u = np.empty((M, N, m, n))
    reports = []

    def direction_core(i, k_lip):
        return CoreProblem(sc=sc, grid=wgrid, cost_eval=frozen, delta=spec.certificate.delta,
                           x0=np.eye(n)[i], feature_store=features, k_lip=k_lip)

    # the frozen problem is the primal gradient map linearised along the
    # optimum: same modulus, and the same K, which the primal solve carries
    k_hat = sol.report.k_hat
    if k_hat is None and cfg.eta == "auto":
        k_hat, _ = estimate_lipschitz_core(direction_core(0, None), W.increments, basis,
                                           LIPSCHITZ_PROBES, PROBE_SEED)
    for i in range(n):
        try:
            dsol = descend(direction_core(i, k_hat), W, basis, cfg)
        except Exception as exc:
            exc.args = (f"direction {i}: {exc.args[0]}",) + exc.args[1:]
            raise
        grad_X[..., i] = dsol.X
        grad_Y[..., i] = dsol.Y
        if grad_Z is not None:
            grad_Z[..., i] = dsol.Z
        grad_u[..., i] = dsol.U
        reports.append(dsol.report)
    if M < M_all:
        grad_X, grad_Y, grad_u = (np.broadcast_to(a[:1], (M_all,) + a.shape[1:])
                                  for a in (grad_X, grad_Y, grad_u))
    return DerivativeSolution(grid=wgrid, grad_X=grad_X, grad_Y=grad_Y,
                              grad_Z=grad_Z, grad_u=grad_u, reports=tuple(reports))


@dataclass
class HessianEstimate:
    matrix: np.ndarray
    asymmetry: float          # relative, before symmetrization


def hessian_from_derivative(deriv: DerivativeSolution) -> HessianEstimate:
    """Value-function curvature: the ensemble value of gradY at the start node.

    All paths start from one state under one control, so the start node's
    regression reduces to its intercept and every path holds the same gradY
    there.
    """
    H = deriv.grad_Y[:, 0].mean(axis=0)
    scale = max(float(np.max(np.abs(H))), 1e-12)
    asym = float(np.max(np.abs(H - H.T))) / scale
    return HessianEstimate(matrix=0.5 * (H + H.T), asymmetry=asym)


@dataclass
class RiccatiStateReport:
    min_abs_det: float
    invertibility_flagged: bool
    symmetry_defect_max: float
    oracle_err_max: float
    step_times: np.ndarray
    step_err_mean: np.ndarray
    step_err_max: np.ndarray


def riccati_state_check(deriv: DerivativeSolution, oracle) -> RiccatiStateReport:
    """Pointwise P = gradY (gradX)^{-1}: determinant, symmetry, error against the oracle.

    The check reads 200 evenly spaced paths.  A |det gradX| below 1e-10 is
    flagged in the report, never raised: coarse grids can visit
    ill-conditioned samples without invalidating the run.
    """
    M = deriv.grad_X.shape[0]
    take = np.linspace(0, M - 1, min(200, M)).astype(int)
    dets = np.linalg.det(deriv.grad_X[take])     # [B, N+1]
    min_det = float(np.min(np.abs(dets)))
    flagged = bool(min_det < 1e-10)
    P_hat = deriv.riccati_state(take)               # [B, N+1, n, n]
    sym_defect = float(np.max(np.abs(P_hat - np.swapaxes(P_hat, -1, -2))))
    times = deriv.grid.nodes
    errs = np.empty(P_hat.shape[:2])
    for k, t in enumerate(times):
        P_or = oracle.P_at(float(t))
        scale = max(float(np.linalg.norm(P_or)), 1.0)
        errs[:, k] = np.linalg.norm(P_hat[:, k] - P_or, axis=(-2, -1)) / scale
    return RiccatiStateReport(min_abs_det=min_det, invertibility_flagged=flagged,
                              symmetry_defect_max=sym_defect, oracle_err_max=float(errs.max()),
                              step_times=np.asarray(times, dtype=float),
                              step_err_mean=errs.mean(axis=0), step_err_max=errs.max(axis=0))


def riccati_state_to_csv(report: RiccatiStateReport, path):
    """Per-node statistics of the recovered Riccati state vs the oracle."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "err_mean", "err_max"])
        for t, em, ex in zip(report.step_times, report.step_err_mean, report.step_err_max):
            writer.writerow([repr(float(t)), repr(float(em)), repr(float(ex))])
