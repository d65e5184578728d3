"""Implicit feedback law and closed-loop machinery.

The pointwise control is the minimizer of the reduced objective

    L(u) = <u, p> + 1/2 <Q u, u> + l(t, x, u)

with p and Q assembled from the value function's gradient and curvature.
Uniform positivity of Q + Duu_l makes damped Newton from u = 0 globally
convergent, and the same solve runs batched across paths during
closed-loop simulation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

import numpy as np

from .adjoint import BLOCK_STEPS, RegressionBasis, StepRegression, per_path_cost_core
from .costs import min_eigenvalue, solve_spd
from .descent import CoreProblem, DescentConfig, solve_hamiltonian
from .errors import ConvergenceError, RegularityError
from .grids import TimeGrid
from .paths import (
    BrownianEnsemble,
    ClosedLoopResult,
    ControlEnsemble,
    StateEnsemble,
    _euler_step,
    mc_stderr,
)
from .variational import freeze_second_order, solve_linear_hamiltonian


# damped Newton: relative residual tolerance, iteration cap, halvings per step
NEWTON_TOL_FACTOR = 1e-10
NEWTON_MAX_ITER = 100
NEWTON_MAX_DAMPING = 40


@dataclass(frozen=True)
class FeedbackQuery:
    """The reduced objective at one point, or at a batch of B points sharing t.

    One point: x [n], p [m], q_mat [m, m].  A batch: x [B, n], p [B, m],
    q_mat [B, m, m].
    """

    t: float
    x: np.ndarray
    p: np.ndarray          # linear coefficient of the reduced objective
    q_mat: np.ndarray      # symmetric curvature bump


def _res_norm(r):
    return np.abs(r[:, 0]) if r.shape[1] == 1 else np.linalg.norm(r, axis=-1)


def newton_minimize_batch(cost, t, X, P, Qm, delta):
    """Batched damped Newton on the reduced objective; X [B,n], P [B,m], Qm [B,m,m].

    Stops when every row satisfies |p + Q u + Du_l| <= NEWTON_TOL_FACTOR (1 + |p|);
    a curvature sample below delta / 2 raises RegularityError.  An iteration
    in which every row is still active works on the whole arrays.
    """
    B, m = P.shape
    u = np.zeros((B, m))
    lt = cost.at(t)

    def residual(uv):
        return P + np.einsum("bij,bj->bi", Qm, uv) + lt.grad_u(X, uv)

    r = residual(u)
    rn = _res_norm(r)
    tol = NEWTON_TOL_FACTOR * (1.0 + _res_norm(P))
    floor = delta / 2.0
    for _ in range(NEWTON_MAX_ITER):
        active = rn > tol
        if not active.any():
            return u
        rows = slice(None) if active.all() else active
        u_act = u[rows]
        x_act = X[rows]
        p_act = P[rows]
        q_act = Qm[rows]
        rn_act = rn[rows]
        H = q_act + lt.hess_uu(x_act, u_act)
        H = 0.5 * (H + np.swapaxes(H, -1, -2))
        eigmin = min_eigenvalue(H)
        if float(eigmin.min()) < floor:
            raise RegularityError(
                f"reduced objective curvature {float(eigmin.min()):.3e} fell below "
                f"{floor:.3e} during Newton"
            )
        step = solve_spd(H, r[rows][..., None])[..., 0]
        alpha = np.ones(step.shape[0])
        for _damp in range(NEWTON_MAX_DAMPING):
            u_try = u_act - alpha[:, None] * step
            r_try = p_act + np.einsum("bij,bj->bi", q_act, u_try) + lt.grad_u(x_act, u_try)
            better = _res_norm(r_try) <= rn_act * (1.0 - 1e-10) + 1e-300
            if better.all():
                break
            alpha[~better] *= 0.5
        u[rows] = u_try
        r[rows] = r_try
        rn = _res_norm(r)
    raise ConvergenceError(
        f"Newton did not reach tolerance in {NEWTON_MAX_ITER} iterations "
        f"(worst residual {float(rn.max()):.3e})"
    )


def minimize_hamiltonian_in_u(spec, query: FeedbackQuery) -> np.ndarray:
    """The unique minimizer of the reduced objective: [m] for one point, [B, m] for a batch."""
    p = np.atleast_2d(np.asarray(query.p, dtype=float))
    B, m = p.shape
    x = np.asarray(query.x, dtype=float).reshape(B, -1)
    q = np.asarray(query.q_mat, dtype=float).reshape(B, m, m)
    q = 0.5 * (q + np.swapaxes(q, -1, -2))
    u = newton_minimize_batch(spec.cost, float(query.t), x, p, q, spec.certificate.delta)
    return u if np.ndim(query.p) == 2 else u[0]


def assemble_query(spec, t, X, DxV, DxxV) -> FeedbackQuery:
    """The batched reduced objective from the value derivatives at the points (t, X[b]).

    X and DxV are [B, n], DxxV is [B, n, n].
    """
    coeffs = spec.coeffs
    B = coeffs.B.at(t)
    D = coeffs.D.at(t)
    X = np.asarray(X, dtype=float)
    drift_lin = coeffs.state_diffusion(t, X)                          # [B, d, n]
    p = DxV @ B + np.einsum("inm,bnk,bik->bm", D, DxxV, drift_lin)
    q = np.einsum("inm,bnk,ikl->bml", D, DxxV, D)
    return FeedbackQuery(t=float(t), x=X, p=p, q_mat=0.5 * (q + np.swapaxes(q, -1, -2)))


def feedback_map(spec, value_source, t, x) -> np.ndarray:
    """The state-feedback control of the value source: [m] at one point x [n], [B, m] at X [B, n]."""
    x = np.asarray(x, dtype=float)
    X = x.reshape(-1, spec.dims.n)
    DxV, DxxV = value_source.derivatives(float(t), X)
    u = minimize_hamiltonian_in_u(spec, assemble_query(spec, t, X, DxV, DxxV))
    return u if x.ndim == 2 else u[0]


class LatticeValueSource:
    """Value derivatives tabulated on (grid node) x (state lattice).

    Built from a single open-loop solve: along optimal paths the adjoint is
    the value gradient and the derivative ratio is its curvature, so
    per-step regressions of those quantities, evaluated on the lattice,
    tabulate DxV and DxxV without re-solving anything.  table
    [N+1, P..., 1 + n + n^2] holds V, DxV and the rows of DxxV at each node
    and lattice point.  Lookups snap t to the nearest node and interpolate
    multilinearly in x, clamped at the lattice edge.
    """

    kind = "lattice"

    def __init__(self, grid, axes, table):
        self.grid = grid
        self.axes = axes
        self.table = table

    def _snap(self, t):
        k = int(round((t - self.grid.t0) / self.grid.dt))
        return min(max(k, 0), self.grid.N)

    def _lookup(self, t, x, columns):
        """The table's columns at node t, interpolated at the points of x [n] or [B, n]: [B, c]."""
        X = np.atleast_2d(np.asarray(x, dtype=float))
        idx, w = [], []
        for ax, xi in zip(self.axes, X.T):
            xi = np.clip(xi, ax[0], ax[-1])
            i = np.minimum(np.searchsorted(ax, xi, side="right") - 1, len(ax) - 2)
            idx.append(i)
            w.append((xi - ax[i]) / (ax[i + 1] - ax[i]))
        tab = self.table[self._snap(t)]
        shape = tab.shape[:-1]
        flat = tab.reshape(-1, tab.shape[-1])[:, columns]
        base = np.ravel_multi_index(idx, shape)
        out = 0.0
        for corner in product((0, 1), repeat=len(idx)):
            weight = 1.0
            for c, wi in zip(corner, w):
                weight = weight * (wi if c else 1.0 - wi)
            out = out + flat.take(base + np.ravel_multi_index(corner, shape), axis=0) * weight[:, None]
        return out

    def value(self, t, x):
        V = self._lookup(t, x, slice(0, 1))[:, 0]
        return V if np.ndim(x) == 2 else float(V[0])

    def derivatives(self, t, x):
        n = len(self.axes)
        D = self._lookup(t, x, slice(1, None))
        DxV, DxxV = D[:, :n], D[:, n:].reshape(-1, n, n)
        return (DxV, DxxV) if np.ndim(x) == 2 else (DxV[0], DxxV[0])


def build_lattice_source(spec, grid: TimeGrid, t0: float, x0, W: BrownianEnsemble,
                         basis: RegressionBasis, cfg: DescentConfig,
                         points_per_dim: int = 21, margin_std: float = 4.0,
                         sol=None) -> LatticeValueSource:
    """Tabulate the value derivatives on an auto-sized rectangular lattice.

    A precomputed optimality solve from (t0, x0) may be passed in as sol.
    """
    if sol is None:
        sol = solve_hamiltonian(spec, grid, t0, x0, W, basis, cfg)
    deriv = solve_linear_hamiltonian(spec, basis, sol, freeze_second_order(spec, sol), cfg)
    wgrid = sol.grid
    n = spec.dims.n
    X = sol.states.values
    lo = X.mean(axis=(0, 1)) - margin_std * X.std(axis=(0, 1)) - 1e-6
    hi = X.mean(axis=(0, 1)) + margin_std * X.std(axis=(0, 1)) + 1e-6
    axes = tuple(np.linspace(lo[i], hi[i], points_per_dim) for i in range(n))
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    shape = (points_per_dim,) * n

    cost_eval = sol.core.cost_eval
    M = X.shape[0]
    N = wgrid.N
    dt = wgrid.dt
    ctg = cost_eval.terminal_value(X[:, -1]).astype(float)
    run = cost_eval.running_value(X[:, :N], sol.controls.values) * dt
    # P along paths: gradY (gradX)^{-1}
    Pt = np.linalg.solve(np.swapaxes(deriv.grad_X, -1, -2), np.swapaxes(deriv.grad_Y, -1, -2))
    P_paths = np.swapaxes(Pt, -1, -2)

    table = np.empty((N + 1,) + shape + (1 + n + n * n,))
    ctg_k = ctg + run.sum(axis=1)
    for k in range(N):
        if k % BLOCK_STEPS == 0:
            reg = StepRegression(X[:, k:min(k + BLOCK_STEPS, N)], basis, first_step=k)
        targets = np.concatenate(
            [ctg_k[:, None], sol.adjoint.Y[:, k], P_paths[:, k].reshape(M, n * n)], axis=1
        )
        table[k] = reg.predict(k % BLOCK_STEPS, mesh, targets).reshape(table.shape[1:])
        ctg_k = ctg_k - run[:, k]
    table[N] = np.concatenate(
        [cost_eval.terminal_value(mesh)[:, None], cost_eval.terminal_gradient(mesh),
         spec.cost.dxx_g(mesh).reshape(-1, n * n)], axis=1,
    ).reshape(table.shape[1:])
    return LatticeValueSource(wgrid, axes, table)


def simulate_closed_loop(spec, core: CoreProblem, W: BrownianEnsemble, value_source,
                         control_override=None) -> ClosedLoopResult:
    """Euler-Maruyama under the pointwise feedback of the value source.

    The loop runs on the subproblem core (its grid, step coefficients, cost
    and start point) with the increments of W, an ensemble on that grid.
    control_override(t, X, u_feedback) may reshape the control per step; it
    is how perturbed-feedback suboptimality probes are generated.
    """
    grid, sc = core.grid, core.sc
    if W.grid.N != grid.N or W.grid.t0 != grid.t0:
        raise ValueError("the Brownian ensemble is not on the loop's grid")
    M = W.M
    n = spec.dims.n
    m = spec.dims.m
    X = np.empty((M, grid.N + 1, n))
    U = np.empty((M, grid.N, m))
    Xk = np.array(np.broadcast_to(core.x0.reshape(n), (M, n)))    # the current state, contiguous
    X[:, 0] = Xk
    dt = grid.dt
    for k in range(grid.N):
        t = float(grid.nodes[k])
        u_fb = feedback_map(spec, value_source, t, Xk)
        if control_override is not None:
            u_fb = control_override(t, Xk, u_fb)
        U[:, k] = u_fb
        Xk = _euler_step(sc, k, Xk, U[:, k], W.increments[:, k], dt)
        X[:, k + 1] = Xk
    per_path = per_path_cost_core(core.cost_eval, grid, X, U)
    return ClosedLoopResult(states=StateEnsemble(grid=grid, values=X),
                            controls=ControlEnsemble(grid=grid, values=U),
                            cost=float(per_path.mean()), per_path_cost=per_path,
                            stderr=mc_stderr(per_path, W.antithetic))


@dataclass
class PerturbedRun:
    cost: float
    gap_vs_closed: float
    stderr_gap: float


@dataclass
class VerificationReport:
    j_closed: float
    j_open: float
    value: float
    stderr_closed: float
    stderr_open: float
    gap_closed_open: float
    gap_closed_value: float
    perturbed: list = field(default_factory=list)
    scaled_gain: Optional[PerturbedRun] = None
    scale: float = np.nan

    def to_dict(self):
        out = {
            "j_closed": self.j_closed, "j_open": self.j_open, "value": self.value,
            "stderr_closed": self.stderr_closed, "stderr_open": self.stderr_open,
            "gap_closed_open": self.gap_closed_open, "gap_closed_value": self.gap_closed_value,
            "perturbed": [
                {"cost": p.cost, "gap_vs_closed": p.gap_vs_closed, "stderr_gap": p.stderr_gap}
                for p in self.perturbed
            ],
        }
        if self.scaled_gain is not None:
            out["scaled_gain"] = {
                "scale": self.scale, "cost": self.scaled_gain.cost,
                "gap_vs_closed": self.scaled_gain.gap_vs_closed,
                "stderr_gap": self.scaled_gain.stderr_gap,
            }
        return out


def verify_optimality(spec, sol, value_source, n_perturbed: int = 10, seed: int = 11,
                      perturb_scale: float = 0.25,
                      gain_scale: Optional[float] = None) -> VerificationReport:
    """Closed loop vs the open-loop solution sol vs value, plus suboptimality of perturbations.

    The closed loops run from the solution's start point on its subgrid and
    share its noise, so the pathwise cost differences of the perturbed runs
    carry far less noise than the costs themselves; gain_scale (when set) additionally
    runs the feedback scaled by that factor, the classic wrong-gain probe.
    """
    core, W = sol.core, sol.W
    closed = simulate_closed_loop(spec, core, W, value_source)
    open_costs = sol.per_path_cost
    j_open = float(open_costs.mean())
    V = value_source.value(sol.grid.t0, core.x0)

    def probe(override):
        run = simulate_closed_loop(spec, core, W, value_source, control_override=override)
        diff = run.per_path_cost - closed.per_path_cost
        return PerturbedRun(cost=run.cost, gap_vs_closed=float(diff.mean()),
                            stderr_gap=mc_stderr(diff, W.antithetic))

    rng = np.random.Generator(np.random.Philox(key=seed))
    n, m = spec.dims.n, spec.dims.m
    perturbed = []
    for _ in range(n_perturbed):
        d_th = rng.uniform(-perturb_scale, perturb_scale, size=(m, n))
        d_of = rng.uniform(-perturb_scale, perturb_scale, size=m)
        perturbed.append(probe(lambda t, X, u_fb, d_th=d_th, d_of=d_of: u_fb + X @ d_th.T + d_of))
    report = VerificationReport(
        j_closed=closed.cost, j_open=j_open, value=float(V),
        stderr_closed=closed.stderr, stderr_open=mc_stderr(open_costs, W.antithetic),
        gap_closed_open=closed.cost - j_open, gap_closed_value=closed.cost - float(V),
        perturbed=perturbed,
    )
    if gain_scale is not None:
        report.scaled_gain = probe(lambda t, X, u_fb: gain_scale * u_fb)
        report.scale = gain_scale
    return report


def feedback_field_to_csv(spec, value_source, times, xs, path):
    """Tabulated feedback (t, x..., u...) on the given lattice."""
    n = spec.dims.n
    m = spec.dims.m
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x_{i}" for i in range(n)] + [f"u_{j}" for j in range(m)])
        for t in times:
            for x in xs:
                u = feedback_map(spec, value_source, float(t), x)
                row = [repr(float(t))] + [repr(float(v)) for v in np.atleast_1d(x)]
                row += [repr(float(v)) for v in u]
                writer.writerow(row)
