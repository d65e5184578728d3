"""Backward least-squares Monte Carlo solve of the linear adjoint equation.

The adjoint pair (Y, Z) satisfies, backward from Y_T = Dx_g(X_T),

    dY = -(A^T Y + C^T Z + Dx_l(t, X, u)) dt + sum_i Z^i dW^i.

On the grid, conditional expectations are replaced by per-step polynomial
regressions on the state.  The scheme per step k, from the stored Y_{k+1}:

    m_k   = fit(Y_{k+1} | basis at X_k)
    Z_k^i = fit((Y_{k+1} - m_k) * dW^i_k / dt | basis at X_k)
    Y_k   = m_k + (A^T m_k + sum_i C_i^T Z_k^i + Dx_l(t_k, X_k, u_k)) dt

Subtracting the fitted continuation before the dW-weighted regression is a
control variate: it changes nothing in expectation (the increment is mean
zero given X_k) and removes the variance carried by the continuation value,
so constant terminal data yields Z identically zero.

Y is stored per path as the fitted value plus the driver increment, never
as the raw rollback, which keeps Y_k a function of the step's information.

Only the recursion runs step by step: Dx_l is evaluated for the whole path
before the sweep, the diagnostics once per regression block, and the
finiteness check once after the sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .costs import GridCost
from .errors import BlowupError, ConditioningError
from .grids import TimeGrid
from .paths import BrownianEnsemble, ControlEnsemble, StateEnsemble
from .problem import StepCoeffs, materialize


@dataclass(frozen=True)
class RegressionBasis:
    """All monomials of total degree <= degree in the regression coordinates."""

    degree: int = 2
    ridge: float = 1e-8

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if self.ridge < 0:
            raise ValueError("ridge must be >= 0")

    def size(self, q: int) -> int:
        return comb(q + self.degree, self.degree)


@lru_cache(maxsize=64)
def _monomial_exponents(q: int, degree: int):
    """Exponent multi-indices of total degree <= degree, intercept first."""
    exps = [(0,) * q]
    for deg in range(1, degree + 1):
        for combo in combinations_with_replacement(range(q), deg):
            e = [0] * q
            for i in combo:
                e[i] += 1
            exps.append(tuple(e))
    return tuple(exps)


# Steps per regression build in a backward sweep.  A build copies its
# features path-contiguous and holds their design, so the block size bounds
# the extra memory at about this many steps' worth of design.
BLOCK_STEPS = 10


class StepRegression:
    """The normal equations of K consecutive steps, shared across all regression targets.

    features [M, K, q] holds steps first_step .. first_step + K - 1; they are
    copied once into a path-contiguous [K, q, M] array and every step is
    built in one vectorized pass.  Features are centered and scaled by each
    step's ensemble mean and std before monomials are formed; degenerate
    coordinates collapse onto the intercept.  The intercept column is never
    ridge-penalized, so constants are reproduced exactly.  The batched
    Cholesky factor L of each step's normal matrix A tests it for positive
    definiteness and gives its inverse A^-1 = L^-T L^-1, so a fit is
    products only.  fit and predict take the step's index j within the block.
    """

    def __init__(self, features: np.ndarray, basis: RegressionBasis, first_step: int = 0):
        F = np.ascontiguousarray(np.moveaxis(np.asarray(features, dtype=float), 0, -1))
        K, q, M = F.shape
        p = basis.size(q)
        if M < p:
            raise ValueError(
                f"path count {M} below basis size {p} at step {first_step + K - 1}"
            )
        self._mu = F.mean(axis=2)
        sd = F.std(axis=2)
        self._degenerate = sd < 1e-12 * (1.0 + np.abs(self._mu))
        self._sd = np.where(self._degenerate, 1.0, sd)
        self._degree = basis.degree
        self.Phi = Phi = self._design(F, slice(None))          # [K, p, M]
        penalty = np.ones(p)
        penalty[0] = 0.0
        A = Phi @ np.swapaxes(Phi, 1, 2) + basis.ridge * M * np.diag(penalty)
        finite = np.isfinite(A).all(axis=(1, 2))
        A = np.where(finite[:, None, None], A, np.eye(p))
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            L = None
        with np.errstate(all="ignore"):
            # A is symmetric: its 2-norm condition number is its |eigenvalue| ratio
            lam = np.abs(np.linalg.eigvalsh(A))
            self.cond = lam.max(axis=1) / lam.min(axis=1)       # [K]
        # checked in the order the backward sweep visits the steps
        for j in range(K - 1, -1, -1):
            step = first_step + j
            if not finite[j]:
                raise ConditioningError(f"non-finite normal equations at step {step}", step=step)
            if L is None:
                try:
                    np.linalg.cholesky(A[j])
                except np.linalg.LinAlgError as exc:
                    raise ConditioningError(
                        f"singular normal equations at step {step} (after ridge {basis.ridge})",
                        step=step,
                    ) from exc
            if not np.isfinite(self.cond[j]) or self.cond[j] > 1e14:
                raise ConditioningError(
                    f"normal equations too ill-conditioned at step {step} "
                    f"(cond {self.cond[j]:.2e})",
                    step=step,
                )
        Linv = np.linalg.inv(L)
        self._Ainv = np.swapaxes(Linv, 1, 2) @ Linv             # [K, p, p]

    def _design(self, F: np.ndarray, j) -> np.ndarray:
        """Monomials of F [..., q, L], normalized with step j's training mean and std.

        j is a step index (F [q, L]) or slice(None) for the whole block
        (F [K, q, L]); the result is [..., p, L].
        """
        Z = (F - self._mu[j, :, None]) / self._sd[j, :, None]
        Z[self._degenerate[j]] = 0.0
        exps = _monomial_exponents(F.shape[-2], self._degree)
        Phi = np.ones(F.shape[:-2] + (len(exps), F.shape[-1]))
        for col, e in enumerate(exps):
            for i, power in enumerate(e):
                if power:
                    Phi[..., col, :] *= Z[..., i, :] ** power
        return Phi

    def _coef(self, j: int, y: np.ndarray) -> np.ndarray:
        return self._Ainv[j] @ (self.Phi[j] @ y)

    def fit(self, j: int, targets: np.ndarray) -> np.ndarray:
        """Fitted values at step j of the block of one or more targets; targets [M] or [M, r]."""
        y = targets if targets.ndim == 2 else targets[:, None]
        out = self.Phi[j].T @ self._coef(j, y)
        return out if targets.ndim == 2 else out[:, 0]

    def predict(self, j: int, F_eval: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """The least-squares fit of targets on step j's training features, evaluated at F_eval [L, q]."""
        y = targets if targets.ndim == 2 else targets[:, None]
        out = self._design(np.asarray(F_eval, dtype=float).T, j).T @ self._coef(j, y)
        return out if targets.ndim == 2 else out[:, 0]


@dataclass(frozen=True)
class AdjointEnsemble:
    grid: TimeGrid
    Y: np.ndarray      # [M, N+1, n]
    Z: np.ndarray      # [M, N, d, n], block i is the loading on dW^i

    @property
    def M(self):
        return self.Y.shape[0]


@dataclass(frozen=True)
class GradientEnsemble:
    grid: TimeGrid
    values: np.ndarray  # [M, N, m]

    @property
    def M(self):
        return self.values.shape[0]


@dataclass
class AdjointDiagnostics:
    basis_size: int
    cond: list = field(default_factory=list)            # per step
    residual_mean: list = field(default_factory=list)   # per step, max |mean| over components
    residual_bound: list = field(default_factory=list)  # per step, 4 std / sqrt(M)

    def to_json(self) -> str:
        return json.dumps(
            {
                "basis_size": self.basis_size,
                "steps": [
                    {"cond": c, "residual_mean": rm, "residual_bound": rb}
                    for c, rm, rb in zip(self.cond, self.residual_mean, self.residual_bound)
                ],
            }
        )


def backward_solve(sc: StepCoeffs, cost_eval, grid: TimeGrid, X: np.ndarray, U: np.ndarray,
                   dW: np.ndarray, basis: RegressionBasis, features: np.ndarray = None):
    """Core backward sweep; returns (Y, Z, diagnostics).

    A non-finite Y or Z raises BlowupError at the first step the sweep reached.
    """
    M, _, n = X.shape
    d = dW.shape[2]
    N = grid.N
    dt = grid.dt
    Y = np.empty((M, N + 1, n))
    Z = np.empty((M, N, d, n))
    resid = np.empty((BLOCK_STEPS, M, n))      # a block's residuals, each step contiguous
    cond, rmean, rbound = np.empty(N), np.empty(N), np.empty(N)
    Y[:, N] = cost_eval.terminal_gradient(X[:, N])
    Y[:, :N] = cost_eval.running_grad_x(X[:, :N], U)     # Dx_l, until step k overwrites Y_k
    Yk = Y[:, N].copy()                                   # the current Y, contiguous
    F = features if features is not None else X
    k0 = N
    for k in range(N - 1, -1, -1):
        if k < k0:
            k0 = max(k + 1 - BLOCK_STEPS, 0)
            reg = StepRegression(F[:, k0:k + 1], basis, first_step=k0)
        j = k - k0
        m_fit = reg.fit(j, Yk)
        r = np.subtract(Yk, m_fit, out=resid[j])
        zt = (r[:, None, :] * dW[:, k, :, None]) / dt             # [M, d, n]
        Zk = reg.fit(j, zt.reshape(M, d * n)).reshape(M, d, n)
        Z[:, k] = Zk
        # A^T m + sum_i C_i^T Z^i, without the terms of a zero A or C block
        driver = m_fit @ sc.A[k] if sc.A_nonzero[k] else None
        if sc.C_nonzero[k]:
            zc = np.einsum("pij,ijn->pn", Zk, sc.C[k])
            driver = zc if driver is None else driver + zc
        Yk = m_fit + (Y[:, k] if driver is None else driver + Y[:, k]) * dt
        Y[:, k] = Yk
        if j == 0:      # the block is done: its diagnostics in one pass
            R, block = resid[:len(reg.cond)], slice(k0, k0 + len(reg.cond))
            cond[block] = reg.cond
            rmean[block] = np.abs(R.mean(axis=1)).max(axis=1)
            rbound[block] = 4.0 * R.std(axis=1).max(axis=1) / np.sqrt(M)
    bad = ~np.isfinite(Y).all(axis=2)                           # [M, N+1]
    bad[:, :N] |= ~np.isfinite(Z).all(axis=(2, 3))
    if bad.any():
        k = int(np.flatnonzero(bad.any(axis=0))[-1])
        p = int(np.argmax(bad[:, k]))
        raise BlowupError(f"adjoint left the finite range at path {p}, step {k}", path=p, step=k)
    diag = AdjointDiagnostics(reg.Phi.shape[1], cond.tolist(), rmean.tolist(), rbound.tolist())
    return Y, Z, diag


def gradient_core(sc: StepCoeffs, cost_eval, grid: TimeGrid, X, U, Y, Z) -> np.ndarray:
    """Cost gradient in the control: B^T Y + D^T Z + Du_l, per (path, step)."""
    N = grid.N
    D = np.einsum("pkn,knm->pkm", Y[:, :N], sc.B) + np.einsum("pkij,kijm->pkm", Z, sc.D)
    return D + cost_eval.running_grad_u(X[:, :N], U)


def per_path_cost_core(cost_eval, grid: TimeGrid, X, U) -> np.ndarray:
    total = cost_eval.terminal_value(X[:, -1]).astype(float)
    # one contiguous row per step
    running = np.multiply(cost_eval.running_value(X[:, :grid.N], U).T, grid.dt, order="C")
    # a sequential sum in time order, which fixes the rounding of every reported cost
    for row in running:
        total += row
    return total


# ---------------------------------------------------------------------------
# public wrappers on a ProblemSpec


def solve_adjoint(spec, X: StateEnsemble, u: ControlEnsemble, W: BrownianEnsemble,
                  basis: RegressionBasis, frozen=None, features: np.ndarray = None):
    """Adjoint ensemble for the given state/control pair.

    With frozen supplied, its path-indexed quadratic derivatives replace the
    cost model's (the terminal gradient included), which is how the
    state-derivative system reuses this routine.
    """
    grid = X.grid
    if u.values.shape[0] != X.values.shape[0] or W.M != X.values.shape[0]:
        raise ValueError("ensembles disagree on the path count")
    if u.grid.N != grid.N or W.grid.N != grid.N:
        raise ValueError("ensembles disagree on the grid")
    sc = materialize(spec.coeffs, grid)
    cost_eval = frozen if frozen is not None else GridCost(spec.cost, grid)
    Y, Z, diag = backward_solve(sc, cost_eval, grid, X.values, u.values, W.increments,
                                basis, features)
    return AdjointEnsemble(grid=grid, Y=Y, Z=Z), diag


def frechet_gradient(spec, X: StateEnsemble, u: ControlEnsemble, adj: AdjointEnsemble,
                     frozen=None) -> GradientEnsemble:
    """Pointwise representation of the cost derivative in the control."""
    grid = X.grid
    sc = materialize(spec.coeffs, grid)
    cost_eval = frozen if frozen is not None else GridCost(spec.cost, grid)
    D = gradient_core(sc, cost_eval, grid, X.values, u.values, adj.Y, adj.Z)
    return GradientEnsemble(grid=grid, values=D)


def evaluate_cost(spec, X: StateEnsemble, u: ControlEnsemble) -> float:
    """Monte Carlo cost: terminal value plus left-endpoint running sum."""
    return float(per_path_costs(spec, X, u).mean())


def per_path_costs(spec, X: StateEnsemble, u: ControlEnsemble) -> np.ndarray:
    cost_eval = GridCost(spec.cost, X.grid)
    return per_path_cost_core(cost_eval, X.grid, X.values, u.values)
