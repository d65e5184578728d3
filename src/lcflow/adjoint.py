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
so constant terminal data yields Z identically zero.  Only C^T Z and D^T Z
read Z, so it is fitted only on a problem with a nonzero C or D block
(StepCoeffs.reads_z), and is None on any other.  It is then fitted at every
step, as the gradient reads every row of Z once some D is nonzero.

Y is stored per path as the fitted value plus the driver increment, never
as the raw rollback, which keeps Y_k a function of the step's information.

Only the recursion runs step by step: Dx_l is evaluated for the whole path
before the sweep, straight into the rows of Y that step k then overwrites
with Y_k, the condition numbers are read once per regression block, and
the finiteness check runs once after the sweep.  X, U, Y, Z, the gradient
and the regression features are step-major (paths.step_major), so every
step reads and writes whole contiguous rows Y[:, k], Z[:, k], and a
regression block of one feature coordinate is used in place.  A block's
design is [p, K, M], each monomial's K steps one contiguous [K, M] block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .errors import BlowupError, ConditioningError
from .grids import TimeGrid
from .paths import step_major
from .problem import StepCoeffs


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


# Steps per regression build in a backward sweep.  A build holds its design
# (and a copy of its features when they have several coordinates), so the
# block size bounds the extra memory at about this many steps' worth of it.
# Longer blocks build faster on 1000 paths, but at N=50, M=4000 a 17-step
# design is as large as the state X [4000, 51, 1] (p = 3) or a derivative
# solve's features [4000, 51, 2] (p = 6), and once freed it lifts glibc's
# mmap threshold over them: p1-verify's peak RSS rose 4.9% at 17, 6% at 25.
BLOCK_STEPS = 16


def _feature_block(features: np.ndarray) -> np.ndarray:
    """The features [M, K, q] of a block as [q, K, M], each coordinate's K steps contiguous.

    Step-major features of one coordinate are that layout already, and are
    not copied (a view, features.transpose(2, 1, 0)).
    """
    return np.ascontiguousarray(np.asarray(features, dtype=float).transpose(2, 1, 0))


def _monomials(Z: np.ndarray, degree: int, out: np.ndarray = None) -> np.ndarray:
    """The monomials [p, ...] of the normalized features Z [q, ...], intercept first.

    They are written into out [p, ...] when it is given, else into a fresh
    array; a Z that shares memory with out must be out's degree-1 rows,
    which are then left as they are.  Each monomial is written from its
    first factor on, so none is filled with ones and multiplied by them.
    """
    def factor(i, power):
        return Z[i] if power == 1 else Z[i] ** power

    q = Z.shape[0]
    exps = _monomial_exponents(q, degree)
    Phi = np.empty((len(exps),) + Z.shape[1:]) if out is None else out
    in_place = out is not None and np.may_share_memory(Z, out)
    Phi[0] = 1.0
    for col, e in enumerate(exps[1:], start=1):
        (i, power), *rest = [(i, power) for i, power in enumerate(e) if power]
        if in_place and col <= q:
            continue
        Phi[col] = factor(i, power)
        for i, power in rest:
            Phi[col] *= factor(i, power)
    return Phi


class StepRegression:
    """The normal equations of K consecutive steps, shared across all regression targets.

    features [M, K, q] holds steps first_step .. first_step + K - 1, read as
    [q, K, M] with each coordinate's steps contiguous (_feature_block: a view
    of step-major features when q = 1, a copy otherwise); every step is
    built in one vectorized pass.  Features are centered and scaled by each
    step's ensemble mean and std before monomials are formed; degenerate
    coordinates collapse onto the intercept.  The intercept column is never
    ridge-penalized, so constants are reproduced exactly.

    The design Phi [p, K, M] (step j's is Phi[:, j]) is written into
    design[:, :K] when a buffer design [p, >= K, M] is given (the backward
    sweep passes descent.Workspace.design), else into a fresh array.  Each
    step's normal matrix A = Phi Phi^T + ridge M diag(0, 1, ..., 1) is
    formed by einsum and its ridge added on the diagonal in place.  One
    batched symmetric eigendecomposition A = V diag(lam) V^T gives the
    definiteness test (lam > 0), the condition number max |lam| / min |lam|
    and the inverse A^-1 = V diag(1 / lam) V^T, so a fit is products only.
    Only a block that is not finite is replaced (by the identity) before the
    decomposition; the steps are then checked in the order the backward
    sweep visits them, and the first failing one raises.  fit, coefficients
    and features take the step's index j within the block; features(j)
    gives the design at other points, to evaluate a fit without the block.
    """

    def __init__(self, features: np.ndarray, basis: RegressionBasis, first_step: int = 0,
                 design: np.ndarray = None):
        F = _feature_block(features)
        q, K, M = F.shape
        p = basis.size(q)
        if M < p:
            raise ValueError(f"path count {M} below basis size {p} at step {first_step + K - 1}")
        Phi = np.empty((p, K, M)) if design is None else design[:, :K]
        if Phi.shape != (p, K, M):
            raise ValueError(f"design buffer of shape {Phi.shape}, expected {(p, K, M)}")
        # the centered features serve the std (numpy's own steps: subtract the
        # mean, square, sum, divide, root) and then the design: they are
        # formed in its degree-1 rows, their squares in the rows after them,
        # which the monomials overwrite next; a design without those rows
        # (degree < 2) leaves them to temporaries
        mu = F.mean(axis=2)                                         # [q, K]
        degree = basis.degree
        Z = np.subtract(F, mu[:, :, None], out=Phi[1:q + 1] if degree >= 1 else None)
        squares = np.square(Z, out=Phi[q + 1:2 * q + 1] if degree >= 2 else None)
        sd = np.sqrt(squares.sum(axis=2) / M)
        degenerate = sd < 1e-12 * (1.0 + np.abs(mu))
        sd = np.where(degenerate, 1.0, sd)
        self._mu, self._sd, self._degenerate = mu.T, sd.T, degenerate.T    # [K, q]
        self._degree = degree
        Z /= sd[:, :, None]
        Z[degenerate] = 0.0
        self.Phi = _monomials(Z, degree, Phi)
        A = np.einsum("akm,bkm->kab", Phi, Phi)
        A.reshape(K, p * p)[:, p + 1::p + 1] += basis.ridge * M     # the diagonal after the intercept
        finite = np.isfinite(A).all(axis=(1, 2))
        if not finite.all():
            A[~finite] = np.eye(p)
        lam, V = np.linalg.eigh(A)
        with np.errstate(all="ignore"):
            # A is symmetric: its 2-norm condition number is its |eigenvalue| ratio
            size = np.abs(lam)
            self.cond = size.max(axis=1) / size.min(axis=1)         # [K]
        bad = ~finite | ~(lam[:, 0] > 0) | ~(self.cond <= 1e14)
        if bad.any():
            j = int(np.flatnonzero(bad)[-1])        # the step the backward sweep reaches first
            step = first_step + j
            if not finite[j]:
                raise ConditioningError(f"non-finite normal equations at step {step}", step=step)
            if not lam[j, 0] > 0:
                raise ConditioningError(f"singular normal equations at step {step} "
                                        f"(after ridge {basis.ridge})", step=step)
            raise ConditioningError(f"normal equations too ill-conditioned at step {step} "
                                    f"(cond {self.cond[j]:.2e})", step=step)
        self._Ainv = (V / lam[:, None, :]) @ np.swapaxes(V, 1, 2)  # [K, p, p]

    def features(self, j: int) -> StepFeatures:
        """Step j's feature normalization, which gives the design at any points."""
        return StepFeatures(self._mu[j], self._sd[j], self._degenerate[j], self._degree)

    def coefficients(self, j: int, targets: np.ndarray) -> np.ndarray:
        """The least-squares coefficients [p, r] at step j of targets [M, r]; [p] of targets [M]."""
        return self._Ainv[j] @ (self.Phi[:, j] @ targets)

    def fit(self, j: int, targets: np.ndarray) -> np.ndarray:
        """Fitted values at step j of the block of one or more targets; targets [M] or [M, r]."""
        y = targets if targets.ndim == 2 else targets[:, None]
        out = self.Phi[:, j].T @ self.coefficients(j, y)
        return out if targets.ndim == 2 else out[:, 0]


@dataclass(frozen=True)
class StepFeatures:
    """One step's feature normalization: the training mean and std of each coordinate, and
    which coordinates are degenerate (collapsed onto the intercept)."""

    mu: np.ndarray              # [q]
    sd: np.ndarray              # [q], 1 where degenerate
    degenerate: np.ndarray      # [q]
    degree: int

    def design(self, F: np.ndarray) -> np.ndarray:
        """The monomials [p, L] of the points F [L, q], normalized as the training features."""
        Z = (np.asarray(F, dtype=float).T - self.mu[:, None]) / self.sd[:, None]
        Z[self.degenerate] = 0.0
        return _monomials(Z, self.degree)


def backward_solve(sc: StepCoeffs, cost_eval, grid: TimeGrid, X: np.ndarray, U: np.ndarray,
                   dW: np.ndarray, basis: RegressionBasis, features: np.ndarray = None, ws=None):
    """Core backward sweep; returns (Y, Z, cond_max), step-major, Z None unless sc.reads_z.

    cond_max is the largest condition number of the normal equations over
    the steps where every feature coordinate has spread, None when no step
    has.  A step with a collapsed coordinate (step 0, every path at x0)
    reads about 1 / ridge whatever the regression, so it is left out.
    With a workspace ws (descent.Workspace), Y, Z and the regression
    designs are written into its arrays Y, Z and design; else they are fresh.
    A non-finite Y or Z raises BlowupError at the first step the sweep reached.
    """
    M, _, n = X.shape
    d = dW.shape[2]
    N = grid.N
    dt = grid.dt
    if ws is None:
        Y, Z = step_major(M, N + 1, n), step_major(M, N, d, n) if sc.reads_z else None
        design = None
    else:
        Y, Z, design = ws.Y, ws.Z, ws.design
    spread = []     # the condition numbers of the steps whose features all have spread
    Y[:, N] = cost_eval.terminal_gradient(X[:, N])
    cost_eval.running_grad_x(X[:, :N], U, out=Y[:, :N])     # Dx_l, until step k overwrites Y_k
    F = features if features is not None else X
    k0 = N
    for k in range(N - 1, -1, -1):
        if k < k0:
            k0 = max(k + 1 - BLOCK_STEPS, 0)
            reg = StepRegression(F[:, k0:k + 1], basis, first_step=k0, design=design)
            spread += reg.cond[~reg._degenerate.any(axis=1)].tolist()
        j = k - k0
        Yn, Yk = Y[:, k + 1], Y[:, k]
        m_fit = reg.fit(j, Yn)
        # A^T m + sum_i C_i^T Z^i, without the terms of a zero A or C block
        driver = m_fit @ sc.A[k] if sc.A_nonzero[k] else None
        if Z is not None:
            zt = ((Yn - m_fit)[:, None, :] * dW[:, k, :, None]) / dt     # [M, d, n]
            Z[:, k] = reg.fit(j, zt.reshape(M, d * n)).reshape(M, d, n)
            if sc.C_nonzero[k]:
                zc = np.einsum("pij,ijn->pn", Z[:, k], sc.C[k])
                driver = zc if driver is None else driver + zc
        np.add(m_fit, (Yk if driver is None else driver + Yk) * dt, out=Yk)
    # all finite iff the extremes are (a NaN or an infinity reaches them)
    if not all(np.isfinite(a.min()) and np.isfinite(a.max()) for a in (Y, Z) if a is not None):
        bad = ~np.isfinite(Y).all(axis=2)                           # [M, N+1]
        if Z is not None:
            bad[:, :N] |= ~np.isfinite(Z).all(axis=(2, 3))
        k = int(np.flatnonzero(bad.any(axis=0))[-1])
        p = int(np.argmax(bad[:, k]))
        raise BlowupError(f"adjoint left the finite range at path {p}, step {k}", path=p, step=k)
    return Y, Z, max(spread, default=None)


def gradient_core(sc: StepCoeffs, cost_eval, grid: TimeGrid, X, U, Y, Z, ws=None) -> np.ndarray:
    """Cost gradient in the control: B^T Y + D^T Z + Du_l, per (path, step), step-major.

    The D^T Z term is not formed, nor Z read, when D is zero at every step.
    With a workspace ws (descent.Workspace), the gradient is written into
    ws.D and its terms are formed in ws.grad; else both are fresh.
    """
    N = grid.N
    M, m = X.shape[0], sc.B.shape[2]
    D = step_major(M, N, m) if ws is None else ws.D
    term = step_major(M, N, m) if ws is None else ws.grad
    np.einsum("pkn,knm->pkm", Y[:, :N], sc.B, out=D)
    if any(sc.D_nonzero):
        D += np.einsum("pkij,kijm->pkm", Z, sc.D, out=term)
    D += cost_eval.running_grad_u(X[:, :N], U, out=term)
    return D


def per_path_cost_core(cost_eval, grid: TimeGrid, X, U, ws=None) -> np.ndarray:
    """The cost of each path: the terminal cost plus the running cost summed in time order.

    With a workspace ws (descent.Workspace), the running costs are formed
    in ws.run and their terms' temporaries in ws.terms.
    """
    N = grid.N
    total = cost_eval.terminal_value(X[:, -1]).astype(float)
    if ws is None:
        running = cost_eval.running_value(X[:, :N], U)
    else:
        running = cost_eval.running_value(X[:, :N], U, out=ws.run, scratch=ws.terms)
    rows = running.T        # one row per step, contiguous for step-major paths
    rows *= grid.dt
    # a sequential sum in time order, which fixes the rounding of every reported cost
    for row in rows:
        total += row
    return total
