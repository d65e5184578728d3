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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

import numpy as np
from scipy.linalg import cho_solve

from .costs import GridCost
from .errors import ConditioningError
from .grids import TimeGrid
from .paths import BrownianEnsemble, ControlEnsemble, StateEnsemble, mc_stderr
from .problem import StepCoeffs, materialize


@dataclass(frozen=True)
class RegressionBasis:
    """All monomials of total degree <= degree in the regression coordinates."""

    degree: int = 2
    ridge: float = 1e-8
    kind: str = "polynomial"

    def __post_init__(self):
        if self.kind != "polynomial":
            raise ValueError(f"unsupported basis kind {self.kind!r}")
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
    ridge-penalized, so constants are reproduced exactly.  fit and predict
    take the step's index j within the block.
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
            self._chol = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            self._chol = None
        with np.errstate(all="ignore"):
            self.cond = np.linalg.cond(A / M)                   # [K]
        # checked in the order the backward sweep visits the steps
        for j in range(K - 1, -1, -1):
            step = first_step + j
            if not finite[j]:
                raise ConditioningError(f"non-finite normal equations at step {step}", step=step)
            if self._chol is None:
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
        return cho_solve((self._chol[j], True), self.Phi[j] @ y)

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
    """Core backward sweep; returns (Y, Z, diagnostics)."""
    M, _, n = X.shape
    d = dW.shape[2]
    N = grid.N
    dt = grid.dt
    Y = np.empty((M, N + 1, n))
    Z = np.empty((M, N, d, n))
    Y[:, N] = cost_eval.terminal_gradient(X[:, N])
    F = features if features is not None else X
    diag = AdjointDiagnostics(basis_size=0)
    k0 = N
    for k in range(N - 1, -1, -1):
        if k < k0:
            k0 = max(k + 1 - BLOCK_STEPS, 0)
            reg = StepRegression(F[:, k0:k + 1], basis, first_step=k0)
            diag.basis_size = reg.Phi.shape[1]
        j = k - k0
        m_fit = reg.fit(j, Y[:, k + 1])
        resid = Y[:, k + 1] - m_fit
        diag.cond.append(float(reg.cond[j]))
        diag.residual_mean.append(float(np.max(np.abs(resid.mean(axis=0)))))
        diag.residual_bound.append(float(4.0 * resid.std(axis=0).max() / np.sqrt(M)))
        zt = (resid[:, None, :] * dW[:, k, :, None]) / dt          # [M, d, n]
        Z[:, k] = reg.fit(j, zt.reshape(M, d * n)).reshape(M, d, n)
        driver = (
            m_fit @ sc.A[k]
            + np.einsum("pij,ijn->pn", Z[:, k], sc.C[k])
            + cost_eval.running_grad_x(k, X[:, k], U[:, k])
        )
        Y[:, k] = m_fit + driver * dt
    diag.cond.reverse()
    diag.residual_mean.reverse()
    diag.residual_bound.reverse()
    return Y, Z, diag


def gradient_core(sc: StepCoeffs, cost_eval, grid: TimeGrid, X, U, Y, Z) -> np.ndarray:
    """Cost gradient in the control: B^T Y + D^T Z + Du_l, per (path, step)."""
    N = grid.N
    D = np.einsum("pkn,knm->pkm", Y[:, :N], sc.B) + np.einsum("pkij,kijm->pkm", Z, sc.D)
    for k in range(N):
        D[:, k] += cost_eval.running_grad_u(k, X[:, k], U[:, k])
    return D


def per_path_cost_core(cost_eval, grid: TimeGrid, X, U) -> np.ndarray:
    total = cost_eval.terminal_value(X[:, -1]).astype(float)
    dt = grid.dt
    for k in range(grid.N):
        total = total + cost_eval.running_value(k, X[:, k], U[:, k]) * dt
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


def cost_stderr(spec, X: StateEnsemble, u: ControlEnsemble, antithetic=False) -> float:
    return mc_stderr(per_path_costs(spec, X, u), antithetic)
