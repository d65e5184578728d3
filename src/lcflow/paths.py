"""Brownian ensembles and forward Euler-Maruyama simulation.

One Brownian ensemble is generated per study and reused across control
iterates, finite-difference probes and derivative solves (common random
numbers), which is what makes pathwise differences of solutions nearly
noise-free.  Variates come from a counter-based generator keyed by the
seed, so the ensemble is reproducible bit for bit.

Every whole-path array of the gradient evaluation (increments, states,
controls, adjoints, gradients and regression features) is step-major: it
is stored C-contiguous as [steps, M, ...] and handled as its
[M, steps, ...] view, so one step's slice a[:, k] is contiguous and the
step loops read and write whole rows.  step_major allocates such an
array; within a descent the arrays are the buffers of one
descent.Workspace, allocated once and written in place by every
evaluation.  The forward sweep computes the control's terms for the
whole path before its loop, drops the terms of a zero A, C or D block,
and checks for blow-up once, after the loop, on the extremes of the
states.  At a plain step, one whose A, C and D blocks are all zero, it
needs no temporary: the noise sigma dW of every step is written into the
state rows by one einsum, B u is turned into (B u + b) dt in its own
buffer, and the step adds X_k into that row and the row into X_{k+1}.
After the sweep the B u buffer holds X_k + (B u + b) dt at the plain
steps and B u at the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowupError
from .grids import TimeGrid
from .problem import StepCoeffs

BLOWUP_LIMIT = 1e12


@dataclass(frozen=True)
class BrownianEnsemble:
    grid: TimeGrid
    M: int
    increments: np.ndarray          # [M, N, d], units sqrt(time); read-only, step-major
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
class ClosedLoopResult:
    X: np.ndarray                   # [M, N+1, n], step-major
    U: np.ndarray                   # [M, N, m], step-major; control held on [t_k, t_{k+1})
    cost: float
    per_path_cost: np.ndarray
    stderr: float


def step_major(M: int, steps: int, *tail: int) -> np.ndarray:
    """An uninitialised whole-path array [M, steps, *tail].

    It is the view of C-contiguous [steps, M, *tail] storage, so a[:, k]
    is contiguous.  Elementwise results of such arrays keep the layout.
    """
    return np.empty((steps, M) + tail).swapaxes(0, 1)


def generate_brownian(grid: TimeGrid, M: int, seed: int, antithetic: bool = False,
                      d: int = 1) -> BrownianEnsemble:
    """i.i.d. normal(0, dt) increments, deterministic in (grid, M, seed, d).

    With antithetic pairing, path 2j+1 is the negation of path 2j, so M must
    be even.  The variates are drawn path by path and stored step-major.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    scale = np.sqrt(grid.dt)
    if antithetic and M % 2 != 0:
        raise ValueError("antithetic pairing needs an even path count")
    inc = step_major(M, grid.N, d)
    if antithetic:
        np.multiply(rng.standard_normal((M // 2, grid.N, d)), scale, out=inc[0::2])
        np.negative(inc[0::2], out=inc[1::2])
    else:
        np.multiply(rng.standard_normal((M, grid.N, d)), scale, out=inc)
    inc.flags.writeable = False
    return BrownianEnsemble(grid=grid, M=M, increments=inc, seed=seed, antithetic=antithetic)


def _euler_step(sc: StepCoeffs, k: int, X, U, dWk, dt: float, out=None):
    """One explicit Euler-Maruyama step, coefficients frozen at the left node."""
    DU = np.einsum("inj,pj->pin", sc.D[k], U) if sc.D_nonzero[k] else None
    return _advance(sc, k, X, U @ sc.B[k].T, DU, dWk, dt, out)


def _advance(sc: StepCoeffs, k: int, X, BU, DU, dWk, dt: float, out=None):
    """The Euler-Maruyama step from X [M, n], into out if given.

    BU [M, n] is B u; DU [M, d, n] is D_i u, or None where D is zero.  The
    A x, C_i x and D_i u terms are dropped at a step whose block is zero;
    the other sums keep their order, so the result is the same bits.
    """
    drift = X @ sc.A[k].T + BU if sc.A_nonzero[k] else BU
    Xn = X + (drift + sc.b[k]) * dt
    # diffusion: sum_i (C_i X + D_i U + sigma_i) dW^i
    diff = np.einsum("inj,pj->pin", sc.C[k], X) if sc.C_nonzero[k] else None
    if DU is not None:
        diff = DU if diff is None else diff + DU
    if diff is None:
        noise = np.einsum("in,pi->pn", sc.sigma[k], dWk)
    else:
        noise = np.einsum("pin,pi->pn", diff + sc.sigma[k], dWk)
    return np.add(Xn, noise, out=out)


def _simulate_core(sc: StepCoeffs, grid: TimeGrid, x0, U: np.ndarray, dW: np.ndarray,
                   ws=None) -> np.ndarray:
    """Forward sweep of the controlled linear SDE; returns X [M, N+1, n], step-major.

    Each step reads the state row X[:, k] and writes X[:, k + 1] in place.
    With a workspace ws (descent.Workspace), X and the control's terms B u
    and D u are written into its arrays X, BU and DU; else they are fresh.
    A plain step (A, C and D zero) adds the same terms as _advance, the
    noise last there and first here, which addition's commutativity makes
    the same bits.
    A state beyond BLOWUP_LIMIT raises BlowupError at its first step and path.
    """
    M = U.shape[0]
    N = grid.N
    d, n = sc.sigma.shape[1:]
    X = step_major(M, N + 1, n) if ws is None else ws.X
    X[:, 0] = np.asarray(x0, dtype=float).reshape(-1, n)
    BU = np.einsum("kij,pkj->pki", sc.B, U,
                   out=step_major(M, N, n) if ws is None else ws.BU)
    D_nonzero = sc.D_nonzero
    DU = None
    if any(D_nonzero):
        DU = np.einsum("kinm,pkm->pkin", sc.D, U,
                       out=step_major(M, N, d, n) if ws is None else ws.DU)
    # a plain step (A, C and D zero) is X_k + (B u + b) dt + sigma dW: the noise of every
    # step goes into its state row, and B u becomes (B u + b) dt in place; the other steps'
    # rows are overwritten by _advance
    plain = ~(np.array(sc.A_nonzero) | sc.C_nonzero | D_nonzero)
    with np.errstate(over="ignore", invalid="ignore"):
        if plain.any():
            np.einsum("kin,pki->pkn", sc.sigma, dW, out=X[:, 1:])
            where = True if plain.all() else plain[:, None]    # a mask triples a multiply's time
            np.add(BU, sc.b, out=BU, where=where)
            np.multiply(BU, grid.dt, out=BU, where=where)
        for k, plain_k in enumerate(plain.tolist()):
            if plain_k:
                # the same sums as _advance's, (X + drift) + noise, added in the other order
                np.add(X[:, k], BU[:, k], out=BU[:, k])
                X[:, k + 1] += BU[:, k]
            else:
                _advance(sc, k, X[:, k], BU[:, k], DU[:, k] if D_nonzero[k] else None,
                         dW[:, k], grid.dt, out=X[:, k + 1])
        # |x| <= limit everywhere iff the extremes are within it (a NaN makes both NaN)
        states = X[:, 1:]
        if not (-BLOWUP_LIMIT <= states.min() and states.max() <= BLOWUP_LIMIT):
            bad = ~(np.abs(states) <= BLOWUP_LIMIT).all(axis=2)
            k = int(np.argmax(bad.any(axis=0)))
            p = int(np.argmax(bad[:, k]))
            raise BlowupError(f"state blew up at path {p}, step {k + 1}", path=p, step=k + 1)
    return X


def l2_norm_array(arr: np.ndarray, dt: float, squares: np.ndarray = None) -> float:
    """The integrated L2 norm sqrt(E int |arr|^2 dt) of a whole-path array [M, N, ...].

    The squares are laid out path-major, so the sum has one order whatever
    arr's layout; squares, a C-contiguous array of arr's shape, holds them
    when given.
    """
    sq = np.square(arr, order="C") if squares is None else np.square(arr, out=squares)
    return float(np.sqrt(sq.sum() * dt / arr.shape[0]))


def mc_stderr(per_path: np.ndarray, antithetic: bool = False) -> float:
    """Standard error of the ensemble mean; antithetic pairs count once."""
    v = np.asarray(per_path, dtype=float)
    if antithetic and v.shape[0] % 2 == 0:
        v = v.reshape(-1, 2).mean(axis=1)
    if v.shape[0] < 2:
        return 0.0
    return float(v.std(ddof=1) / np.sqrt(v.shape[0]))
