"""Brownian ensembles and forward Euler-Maruyama simulation.

One Brownian ensemble is generated per study and reused across control
iterates, finite-difference probes and derivative solves (common random
numbers), which is what makes pathwise differences of solutions nearly
noise-free.  Variates come from a counter-based generator keyed by the
seed, so the ensemble is reproducible bit for bit.  The increments are
stored step-major, so one step's increments are contiguous.  The forward
sweep computes the control's terms for the whole path before its loop,
step-major, carries the current state in a contiguous [M, n] array, and
checks for blow-up once, after the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BlowupError
from .grids import TimeGrid
from .problem import StepCoeffs, materialize

BLOWUP_LIMIT = 1e12


@dataclass(frozen=True)
class BrownianEnsemble:
    grid: TimeGrid
    M: int
    increments: np.ndarray          # [M, N, d], units sqrt(time); a view of [N, M, d] storage
    seed: int
    antithetic: bool = False

    @property
    def d(self):
        return self.increments.shape[2]

    def slice_from(self, k: int) -> "BrownianEnsemble":
        """The trailing part of the ensemble starting at node k."""
        if k == 0:
            return self
        sub = self.increments[:, k:, :]
        return BrownianEnsemble(grid=self.grid.subgrid(k), M=self.M, increments=sub,
                                seed=self.seed, antithetic=self.antithetic)


@dataclass(frozen=True)
class StateEnsemble:
    grid: TimeGrid
    values: np.ndarray              # [M, N+1, n]

    @property
    def M(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class ControlEnsemble:
    grid: TimeGrid
    values: np.ndarray              # [M, N, m], control held on [t_k, t_{k+1})

    @property
    def M(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class ClosedLoopResult:
    states: StateEnsemble
    controls: ControlEnsemble
    cost: float
    per_path_cost: Optional[np.ndarray] = None
    stderr: float = np.nan


def generate_brownian(grid: TimeGrid, M: int, seed: int, antithetic: bool = False,
                      d: int = 1) -> BrownianEnsemble:
    """i.i.d. normal(0, dt) increments, deterministic in (grid, M, seed, d).

    With antithetic pairing, path 2j+1 is the negation of path 2j, so M must
    be even.  The variates are drawn path by path and stored step-major:
    increments is the [M, N, d] view of a C-contiguous [N, M, d] array, so
    increments[:, k] is contiguous.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    scale = np.sqrt(grid.dt)
    if antithetic and M % 2 != 0:
        raise ValueError("antithetic pairing needs an even path count")
    inc = np.empty((grid.N, M, d))
    if antithetic:
        np.multiply(rng.standard_normal((M // 2, grid.N, d)).transpose(1, 0, 2), scale,
                    out=inc[:, 0::2])
        np.negative(inc[:, 0::2], out=inc[:, 1::2])
    else:
        np.multiply(rng.standard_normal((M, grid.N, d)).transpose(1, 0, 2), scale, out=inc)
    inc.flags.writeable = False
    return BrownianEnsemble(grid=grid, M=M, increments=inc.transpose(1, 0, 2), seed=seed,
                            antithetic=antithetic)


def _euler_step(sc: StepCoeffs, k: int, X, U, dWk, dt: float):
    """One explicit Euler-Maruyama step, coefficients frozen at the left node."""
    return _advance(sc, k, X, U @ sc.B[k].T, np.einsum("inj,pj->pin", sc.D[k], U), dWk, dt)


def _advance(sc: StepCoeffs, k: int, X, BU, DU, dWk, dt: float):
    """The Euler-Maruyama step from X, given the control's terms B u [M, n] and D_i u [M, d, n].

    The A x and C_i x terms are dropped at a step whose A or C block is
    zero; the other sums keep their order, so the result is the same bits.
    """
    drift = X @ sc.A[k].T + BU if sc.A_nonzero[k] else BU
    Xn = X + (drift + sc.b[k]) * dt
    # diffusion: sum_i (C_i X + D_i U + sigma_i) dW^i
    diff = np.einsum("inj,pj->pin", sc.C[k], X) + DU if sc.C_nonzero[k] else DU
    return Xn + np.einsum("pin,pi->pn", diff + sc.sigma[k], dWk)


def _simulate_core(sc: StepCoeffs, grid: TimeGrid, x0, U: np.ndarray, dW: np.ndarray) -> np.ndarray:
    """Forward sweep of the controlled linear SDE; returns [M, N+1, n].

    The sweep carries the current state in a contiguous [M, n] array and
    stores it into the path-major result once per step.  A state beyond
    BLOWUP_LIMIT raises BlowupError at its first step and path.
    """
    M = U.shape[0]
    n = sc.A.shape[1]
    X = np.empty((M, grid.N + 1, n))
    x0 = np.asarray(x0, dtype=float)
    Xk = np.array(np.broadcast_to(x0 if x0.ndim == 2 else x0.reshape(n), (M, n)))
    X[:, 0] = Xk
    BU = np.einsum("kij,pkj->kpi", sc.B, U, order="C")          # step-major
    DU = np.einsum("kinm,pkm->kpin", sc.D, U, order="C")
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.N):
            Xk = _advance(sc, k, Xk, BU[k], DU[k], dW[:, k], grid.dt)
            X[:, k + 1] = Xk
        bad = ~(np.abs(X[:, 1:]) <= BLOWUP_LIMIT).all(axis=2)     # NaN compares False
        if bad.any():
            k = int(np.argmax(bad.any(axis=0)))
            p = int(np.argmax(bad[:, k]))
            raise BlowupError(f"state blew up at path {p}, step {k + 1}", path=p, step=k + 1)
    return X


def simulate_forward(spec, grid: TimeGrid, x0, u: ControlEnsemble, W: BrownianEnsemble) -> StateEnsemble:
    """Euler-Maruyama simulation of the controlled linear dynamics.

    u and W must live on the same grid and share the path count.
    """
    if u.grid.N != grid.N or W.grid.N != grid.N:
        raise ValueError("control, noise and grid disagree on the step count")
    if u.M != W.M:
        raise ValueError("control and noise disagree on the path count")
    sc = materialize(spec.coeffs, grid)
    X = _simulate_core(sc, grid, x0, u.values, W.increments)
    return StateEnsemble(grid=grid, values=X)


def l2_norm(ens) -> float:
    """Monte Carlo estimate of the time-integrated L2 norm, square-rooted.

    sqrt( (1/M) sum_p sum_k |v[p][k]|^2 dt ), the norm the descent theory
    contracts in.
    """
    vals = ens.values
    dt = ens.grid.dt
    return float(np.sqrt((vals * vals).sum() * dt / vals.shape[0]))


def l2_norm_array(arr: np.ndarray, dt: float) -> float:
    return float(np.sqrt((arr * arr).sum() * dt / arr.shape[0]))


def mc_stderr(per_path: np.ndarray, antithetic: bool = False) -> float:
    """Standard error of the ensemble mean; antithetic pairs count once."""
    v = np.asarray(per_path, dtype=float)
    if antithetic and v.shape[0] % 2 == 0:
        v = v.reshape(-1, 2).mean(axis=1)
    if v.shape[0] < 2:
        return 0.0
    return float(v.std(ddof=1) / np.sqrt(v.shape[0]))
