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
from typing import Optional

import numpy as np

from .adjoint import BLOCK_STEPS, RegressionBasis, StepRegression, per_path_costs
from .costs import GridCost
from .descent import DescentConfig, solve_hamiltonian
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
from .problem import materialize
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
    return np.linalg.norm(r, axis=-1)


def newton_minimize_batch(cost, t, X, P, Qm, delta):
    """Batched damped Newton on the reduced objective; X [B,n], P [B,m], Qm [B,m,m].

    Stops when every row satisfies |p + Q u + Du_l| <= NEWTON_TOL_FACTOR (1 + |p|);
    a curvature sample below delta / 2 raises RegularityError.
    """
    B, m = P.shape
    u = np.zeros((B, m))
    lt = cost.at(t)

    def residual(uv):
        return P + np.einsum("bij,bj->bi", Qm, uv) + lt.grad_u(X, uv)

    r = residual(u)
    rn = _res_norm(r)
    tol = NEWTON_TOL_FACTOR * (1.0 + _res_norm(P))
    for _ in range(NEWTON_MAX_ITER):
        active = rn > tol
        if not active.any():
            return u
        H = Qm[active] + lt.hess_uu(X[active], u[active])
        H = 0.5 * (H + np.swapaxes(H, -1, -2))
        eigmin = np.linalg.eigvalsh(H)[:, 0]
        floor = delta / 2.0
        if float(eigmin.min()) < floor:
            raise RegularityError(
                f"reduced objective curvature {float(eigmin.min()):.3e} fell below "
                f"{floor:.3e} during Newton"
            )
        step = np.linalg.solve(H, r[active][..., None])[..., 0]
        alpha = np.ones(step.shape[0])
        u_act = u[active]
        x_act = X[active]
        p_act = P[active]
        q_act = Qm[active]
        rn_act = rn[active]
        for _damp in range(NEWTON_MAX_DAMPING):
            u_try = u_act - alpha[:, None] * step
            r_try = p_act + np.einsum("bij,bj->bi", q_act, u_try) + lt.grad_u(x_act, u_try)
            better = _res_norm(r_try) <= rn_act * (1.0 - 1e-10) + 1e-300
            if better.all():
                break
            alpha[~better] *= 0.5
        u_new = u.copy()
        u_new[active] = u_try
        u = u_new
        r_full = r.copy()
        r_full[active] = r_try
        r = r_full
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
    tabulate DxV and DxxV without re-solving anything.  Lookups snap t to
    the nearest node and interpolate linearly in x (clamped at the lattice
    edge).
    """

    kind = "lattice"

    def __init__(self, grid, axes, v_tab, dxv_tab, dxxv_tab):
        from scipy.interpolate import RegularGridInterpolator

        self.grid = grid
        self.axes = axes
        self.v_tab = v_tab
        self.dxv_tab = dxv_tab
        self.dxxv_tab = dxxv_tab
        self._interp = {}
        self._mk = lambda table: RegularGridInterpolator(
            axes, table, method="linear", bounds_error=False, fill_value=None
        )

    def _tables(self, k):
        if k not in self._interp:
            self._interp[k] = (
                self._mk(self.v_tab[k]), self._mk(self.dxv_tab[k]), self._mk(self.dxxv_tab[k])
            )
        return self._interp[k]

    def _snap(self, t):
        k = int(round((t - self.grid.t0) / self.grid.dt))
        return min(max(k, 0), self.grid.N)

    def _clamp(self, X):
        Xc = np.array(np.atleast_2d(X), dtype=float)
        for i, ax in enumerate(self.axes):
            Xc[:, i] = np.clip(Xc[:, i], ax[0], ax[-1])
        return Xc

    def value(self, t, x):
        fv, _, _ = self._tables(self._snap(t))
        V = fv(self._clamp(x))
        return V if np.ndim(x) == 2 else float(V[0])

    def derivatives(self, t, x):
        _, fg, fh = self._tables(self._snap(t))
        Xc = self._clamp(x)
        DxV, DxxV = fg(Xc), fh(Xc)
        return (DxV, DxxV) if np.ndim(x) == 2 else (DxV[0], DxxV[0])


def build_lattice_source(spec, grid: TimeGrid, t0: float, x0, W: BrownianEnsemble,
                         basis: RegressionBasis, cfg: DescentConfig,
                         points_per_dim: int = 21, margin_std: float = 4.0,
                         sol=None, deriv=None) -> LatticeValueSource:
    """Tabulate the value derivatives on an auto-sized rectangular lattice."""
    if sol is None:
        sol = solve_hamiltonian(spec, grid, t0, x0, W, basis, cfg)
    if deriv is None:
        frozen = freeze_second_order(spec, sol)
        deriv = solve_linear_hamiltonian(spec, grid, W, basis, sol, frozen, cfg)
    wgrid = sol.grid
    n = spec.dims.n
    X = sol.states.values
    lo = X.mean(axis=(0, 1)) - margin_std * X.std(axis=(0, 1)) - 1e-6
    hi = X.mean(axis=(0, 1)) + margin_std * X.std(axis=(0, 1)) + 1e-6
    axes = tuple(np.linspace(lo[i], hi[i], points_per_dim) for i in range(n))
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    shape = (points_per_dim,) * n

    cost_eval = GridCost(spec.cost, wgrid)
    M = X.shape[0]
    N = wgrid.N
    dt = wgrid.dt
    ctg = cost_eval.terminal_value(X[:, -1]).astype(float)
    run = np.empty((M, N))
    for k in range(N):
        run[:, k] = cost_eval.running_value(k, X[:, k], sol.controls.values[:, k]) * dt
    # P along paths: gradY (gradX)^{-1}
    Pt = np.linalg.solve(np.swapaxes(deriv.grad_X, -1, -2), np.swapaxes(deriv.grad_Y, -1, -2))
    P_paths = np.swapaxes(Pt, -1, -2)

    v_tab = np.empty((N + 1,) + shape)
    dxv_tab = np.empty((N + 1,) + shape + (n,))
    dxxv_tab = np.empty((N + 1,) + shape + (n, n))
    L = mesh.shape[0]
    ctg_k = ctg + run.sum(axis=1)
    for k in range(N + 1):
        t = float(wgrid.nodes[k])
        if k == N:
            v_tab[k] = cost_eval.terminal_value(mesh).reshape(shape)
            dxv_tab[k] = cost_eval.terminal_gradient(mesh).reshape(shape + (n,))
            dxxv_tab[k] = spec.cost.dxx_g(mesh).reshape(shape + (n, n))
            break
        if k % BLOCK_STEPS == 0:
            reg = StepRegression(X[:, k:min(k + BLOCK_STEPS, N)], basis, first_step=k)
        targets = np.concatenate(
            [ctg_k[:, None], sol.adjoint.Y[:, k], P_paths[:, k].reshape(M, n * n)], axis=1
        )
        lattice_reg = reg.predict(k % BLOCK_STEPS, mesh, targets)
        v_tab[k] = lattice_reg[:, 0].reshape(shape)
        dxv_tab[k] = lattice_reg[:, 1:1 + n].reshape(shape + (n,))
        dxxv_tab[k] = lattice_reg[:, 1 + n:].reshape(shape + (n, n))
        ctg_k = ctg_k - run[:, k]
    return LatticeValueSource(wgrid, axes, v_tab, dxv_tab, dxxv_tab)


def simulate_closed_loop(spec, grid: TimeGrid, t0: float, x0, W: BrownianEnsemble,
                         value_source, control_override=None) -> ClosedLoopResult:
    """Euler-Maruyama under the pointwise feedback of the value source.

    control_override(t, X, u_feedback) may reshape the control per step; it
    is how perturbed-feedback suboptimality probes are generated.
    """
    k0 = grid.index_of(t0)
    wgrid = grid.subgrid(k0)
    Wsub = W.slice_from(k0)
    sc = materialize(spec.coeffs, wgrid)
    M = Wsub.M
    n = spec.dims.n
    m = spec.dims.m
    X = np.empty((M, wgrid.N + 1, n))
    U = np.empty((M, wgrid.N, m))
    X[:, 0] = np.asarray(x0, dtype=float).reshape(n)
    dt = wgrid.dt
    for k in range(wgrid.N):
        t = float(wgrid.nodes[k])
        u_fb = feedback_map(spec, value_source, t, X[:, k])
        if control_override is not None:
            u_fb = control_override(t, X[:, k], u_fb)
        U[:, k] = u_fb
        X[:, k + 1] = _euler_step(sc, k, X[:, k], U[:, k], Wsub.increments[:, k], dt)
    states = StateEnsemble(grid=wgrid, values=X)
    controls = ControlEnsemble(grid=wgrid, values=U, producer="feedback")
    per_path = per_path_costs(spec, states, controls)
    return ClosedLoopResult(states=states, controls=controls, cost=float(per_path.mean()),
                            per_path_cost=per_path, stderr=mc_stderr(per_path, Wsub.antithetic))


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


def verify_optimality(spec, grid: TimeGrid, t0: float, x0, W: BrownianEnsemble,
                      value_source, basis: RegressionBasis, cfg: DescentConfig,
                      n_perturbed: int = 10, seed: int = 11, perturb_scale: float = 0.25,
                      gain_scale: Optional[float] = None, open_loop_sol=None) -> VerificationReport:
    """Closed loop vs open loop vs value, plus suboptimality of perturbations.

    Perturbed runs share the Brownian ensemble with the closed loop, so the
    pathwise cost differences carry far less noise than the costs
    themselves; gain_scale (when set) additionally runs the feedback scaled
    by that factor, the classic wrong-gain probe.
    """
    closed = simulate_closed_loop(spec, grid, t0, x0, W, value_source)
    sol = open_loop_sol if open_loop_sol is not None else solve_hamiltonian(
        spec, grid, t0, x0, W, basis, cfg)
    open_costs = per_path_costs(spec, sol.states, sol.controls)
    j_open = float(open_costs.mean())
    V = value_source.value(t0, np.asarray(x0, dtype=float))

    def probe(override):
        run = simulate_closed_loop(spec, grid, t0, x0, W, value_source, control_override=override)
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
