"""Implicit feedback law and closed-loop machinery.

The pointwise control is the minimizer of the reduced objective

    L(u) = <u, p> + 1/2 <Q u, u> + l(t, x, u)

with p and Q assembled from the value function's gradient and curvature
(_reduced_objective).  Uniform positivity of Q + Duu_l makes damped Newton
from u = 0 globally convergent.  One batched solve, newton_minimize_batch,
is the only minimizer: the closed loop runs it across paths, feedback_map
at the points asked for, and value.hjb_residual's Hamiltonian at each
sample.  One feedback step (feedback_step) takes the blocks frozen at its
time: the closed loop passes its step's rows of the solution's step
coefficients and GridCost, feedback_map looks them up at t (_blocks_at).
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .adjoint import BLOCK_STEPS, RegressionBasis, StepRegression, per_path_cost_core
from .costs import min_eigenvalue, solve_spd
from .descent import CoreProblem, DescentConfig, solve_hamiltonian
from .errors import ConvergenceError, RegularityError
from .grids import TimeGrid
from .paths import BrownianEnsemble, ClosedLoopResult, _euler_step, mc_stderr, step_major
from .variational import freeze_second_order, solve_linear_hamiltonian


# damped Newton: relative residual tolerance, iteration cap, halvings per step
NEWTON_TOL_FACTOR = 1e-10
NEWTON_MAX_ITER = 100
NEWTON_MAX_DAMPING = 40

PERTURB_SCALE = 0.25    # half-width of the draws that perturb verify_optimality's gain and offset


def _res_norm(r):
    return np.abs(r[:, 0]) if r.shape[1] == 1 else np.linalg.norm(r, axis=-1)


def newton_minimize_batch(running, X, P, Qm, delta):
    """Batched damped Newton on the reduced objective; X [B,n], P [B,m], Qm [B,m,m] or None.

    running is the running cost frozen at the points' time (a
    costs.RunningCost, e.g. CostModel.at(t) or a GridCost step); Qm None
    stands for a zero curvature bump, whose terms are then not formed.
    Qm must be exactly symmetric, as _reduced_objective makes it: with the
    symmetric hess_uu of the running cost, the Newton curvature is then
    symmetric without a fix-up.
    Stops when every row satisfies |p + Q u + Du_l| <= NEWTON_TOL_FACTOR (1 + |p|);
    a curvature sample below delta / 2 raises RegularityError.  An iteration
    in which every row is still active works on the whole arrays.
    """
    B, m = P.shape
    u = np.zeros((B, m))

    def residual(x, p, q, uv):
        r = p if q is None else p + np.einsum("bij,bj->bi", q, uv)
        return r + running.grad_u(x, uv)

    r = residual(X, P, Qm, u)
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
        q_act = None if Qm is None else Qm[rows]
        rn_act = rn[rows]
        H = running.hess_uu(x_act, u_act)
        if q_act is not None:
            H = q_act + H
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
            r_try = residual(x_act, p_act, q_act, u_try)
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


def _diffusion_x(C, X, sigma):
    """The diffusion without its control term, C x + sigma [B, d, n], at the points X [B, n]."""
    return np.einsum("inj,bj->bin", C, X) + sigma


def _reduced_objective(X, DxV, DxxV, B, C, D, sigma):
    """p [B, m] and the symmetric curvature bump [B, m, m] at the points X [B, n].

    B, C, D and sigma are the dynamics' blocks at the points' time; D is None
    where it is zero, and then p is DxV B and the bump is None.
    """
    p = DxV @ B
    if D is None:
        return p, None
    drift_lin = _diffusion_x(C, X, sigma)
    p = p + np.einsum("inm,bnk,bik->bm", D, DxxV, drift_lin)
    q = np.einsum("inm,bnk,ikl->bml", D, DxxV, D)
    return p, 0.5 * (q + np.swapaxes(q, -1, -2))


def _blocks_at(spec, t):
    """The dynamics' B, C, D (None where zero) and sigma, looked up at time t."""
    coeffs = spec.coeffs
    D = coeffs.D.at(t)
    return coeffs.B.at(t), coeffs.C.at(t), D if D.any() else None, coeffs.sigma.at(t)


def feedback_step(value_source, t, X, blocks, running, delta) -> np.ndarray:
    """The feedback control [B, m] at the points X [B, n] at time t: one Newton call.

    blocks are the dynamics' (B, C, D, sigma) at t, D None where it is zero,
    and running is the running cost frozen at t (costs.RunningCost).  The
    closed loop passes its step's rows of the step coefficients and of the
    GridCost; feedback_map looks them up at t.
    """
    DxV, DxxV = value_source.derivatives(t, X)
    p, q = _reduced_objective(X, DxV, DxxV, *blocks)
    return newton_minimize_batch(running, X, p, q, delta)


def feedback_map(spec, value_source, t, x) -> np.ndarray:
    """The state-feedback control of the value source: [m] at one point x [n], [B, m] at X [B, n].

    The dynamics blocks and the running cost are looked up at t, and the
    feedback step is the closed loop's.
    """
    x = np.asarray(x, dtype=float)
    t = float(t)
    u = feedback_step(value_source, t, x.reshape(-1, spec.dims.n), _blocks_at(spec, t),
                      spec.cost.at(t), spec.certificate.delta)
    return u if x.ndim == 2 else u[0]


class LatticeValueSource:
    """Value derivatives from the per-step regressions of one open-loop solve.

    Along optimal paths the adjoint is the value gradient and the derivative
    ratio is its curvature, so per-step least-squares regressions of the
    cost-to-go, the adjoint and the derivative ratio on the state give V,
    DxV and DxxV without re-solving anything.  steps[k] holds node k's
    feature normalization (adjoint.StepFeatures) and the coefficients
    [p, 1 + n + n^2] of those targets, for the nodes before the horizon;
    at the horizon the terminal cost answers (g, Dx g, Dxx g).  Lookups
    snap t to the nearest node and evaluate the fitted polynomials at the
    points asked for, beyond the data as well as within it.
    """

    kind = "lattice"

    def __init__(self, grid, steps, terminal):
        self.grid = grid
        self.steps = steps
        self.terminal = terminal        # the terminal cost: a costs.CostModel

    def _snap(self, t):
        k = int(round((t - self.grid.t0) / self.grid.dt))
        return min(max(k, 0), self.grid.N)

    def _columns(self, t, x):
        """V, DxV and the rows of DxxV at the node nearest t and the points x [n] or [B, n].

        The answer is [B, 1 + n + n^2], one row per point.
        """
        X = np.atleast_2d(np.asarray(x, dtype=float))
        k = self._snap(t)
        if k == self.grid.N:
            cost = self.terminal
            return np.concatenate([cost.g(X)[:, None], cost.dx_g(X),
                                   cost.dxx_g(X).reshape(len(X), -1)], axis=1)
        features, coef = self.steps[k]
        # an einsum sums each row on its own, so a row's answer does not depend on the batch
        return np.einsum("pb,pc->cb", features.design(X), coef).T

    def value(self, t, x):
        V = self._columns(t, x)[:, 0]
        return V if np.ndim(x) == 2 else float(V[0])

    def derivatives(self, t, x):
        n = np.shape(x)[-1]
        D = self._columns(t, x)[:, 1:]
        DxV, DxxV = D[:, :n], D[:, n:].reshape(-1, n, n)
        return (DxV, DxxV) if np.ndim(x) == 2 else (DxV[0], DxxV[0])


def build_lattice_source(spec, grid: TimeGrid, t0: float, x0, W: BrownianEnsemble,
                         basis: RegressionBasis, cfg: DescentConfig,
                         sol=None) -> LatticeValueSource:
    """The value source of the per-step regressions along the optimal paths from (t0, x0).

    A precomputed optimality solve from (t0, x0) may be passed in as sol.
    """
    if sol is None:
        sol = solve_hamiltonian(spec, grid, t0, x0, W, basis, cfg)
    deriv = solve_linear_hamiltonian(spec, basis, sol, freeze_second_order(spec, sol), cfg)
    n = spec.dims.n
    X = sol.X
    M = X.shape[0]
    N = sol.grid.N
    ctg = sol.core.cost_eval.terminal_value(X[:, -1]).astype(float)
    run = np.ascontiguousarray(sol.running)     # path-major: run.sum(axis=1) keeps its order
    P_paths = deriv.riccati_state()

    steps = []
    ctg_k = ctg + run.sum(axis=1)
    for k in range(N):
        if k % BLOCK_STEPS == 0:
            reg = StepRegression(X[:, k:min(k + BLOCK_STEPS, N)], basis, first_step=k)
        targets = np.concatenate(
            [ctg_k[:, None], sol.Y[:, k], P_paths[:, k].reshape(M, n * n)], axis=1
        )
        j = k % BLOCK_STEPS
        steps.append((reg.features(j), reg.coefficients(j, targets)))
        ctg_k = ctg_k - run[:, k]
    return LatticeValueSource(sol.grid, steps, spec.cost)


def simulate_closed_loop(spec, core: CoreProblem, W: BrownianEnsemble, value_source,
                         control_override=None) -> ClosedLoopResult:
    """Euler-Maruyama under the pointwise feedback of the value source.

    The loop runs on the subproblem core (its grid, step coefficients, cost
    and start point) with the increments of W, an ensemble on that grid.
    Step k's feedback reads row k of the step coefficients and the GridCost
    row core.cost_eval.steps[k], so nothing is looked up at t; a zero D
    block drops the reduced objective's D terms.
    control_override(t, X, u_feedback) may reshape the control per step; it
    is how perturbed-feedback suboptimality probes are generated.
    """
    grid, sc = core.grid, core.sc
    if W.grid.N != grid.N or W.grid.t0 != grid.t0:
        raise ValueError("the Brownian ensemble is not on the loop's grid")
    M = W.M
    X = step_major(M, grid.N + 1, spec.dims.n)
    U = step_major(M, grid.N, spec.dims.m)
    X[:, 0] = core.x0.reshape(-1)
    dt = grid.dt
    running = core.cost_eval.steps
    for k in range(grid.N):
        t = float(grid.nodes[k])
        Xk = X[:, k]
        blocks = (sc.B[k], sc.C[k], sc.D[k] if sc.D_nonzero[k] else None, sc.sigma[k])
        u_fb = feedback_step(value_source, t, Xk, blocks, running[k], core.delta)
        if control_override is not None:
            u_fb = control_override(t, Xk, u_fb)
        U[:, k] = u_fb
        _euler_step(sc, k, Xk, U[:, k], W.increments[:, k], dt, out=X[:, k + 1])
    per_path = per_path_cost_core(core.cost_eval, grid, X, U)
    return ClosedLoopResult(X=X, U=U, cost=float(per_path.mean()), per_path_cost=per_path,
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
        """The fields in their order, the runs as dicts; scaled_gain, with its scale, if any."""
        out = asdict(self)
        scaled, scale = out.pop("scaled_gain"), out.pop("scale")
        if scaled is not None:
            out["scaled_gain"] = {"scale": scale, **scaled}
        return out


def verify_optimality(spec, sol, value_source, n_perturbed: int = 10, seed: int = 11,
                      gain_scale: Optional[float] = None) -> VerificationReport:
    """Closed loop vs the open-loop solution sol vs value, plus suboptimality of perturbations.

    The closed loops run from the solution's start point on its subgrid,
    read its step coefficients and cost rows, and share its noise, so the
    pathwise cost differences of the perturbed runs carry far less noise
    than the costs themselves; gain_scale (when set) additionally runs the
    feedback scaled by that factor, the classic wrong-gain probe.
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
        d_th = rng.uniform(-PERTURB_SCALE, PERTURB_SCALE, size=(m, n))
        d_of = rng.uniform(-PERTURB_SCALE, PERTURB_SCALE, size=m)
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
