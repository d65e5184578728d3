"""Fixed-point iteration u <- u - eta * D[u] for the Hamiltonian system.

Each sweep re-simulates the forward state on the fixed Brownian ensemble,
re-solves the adjoint by regression, assembles the control gradient and
takes a damped-free step.  Under uniform convexity with modulus delta and
gradient Lipschitz-squared constant K, the map is a contraction for
eta = delta / K, which is what the auto step size targets with an
empirically estimated, safety-inflated K.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .adjoint import (
    AdjointEnsemble,
    GradientEnsemble,
    RegressionBasis,
    backward_solve,
    gradient_core,
    per_path_cost_core,
)
from .costs import GridCost
from .errors import ConvergenceError
from .grids import TimeGrid
from .paths import (
    BrownianEnsemble,
    ControlEnsemble,
    StateEnsemble,
    _simulate_core,
    l2_norm_array,
)
from .problem import StepCoeffs, materialize

# seed of the Lipschitz probe controls, so that eta="auto" is reproducible
PROBE_SEED = 17


@dataclass(frozen=True)
class DescentConfig:
    eta: Union[float, str] = "auto"
    max_iter: int = 80
    tol_grad: float = 1e-3
    tol_step: float = 1e-9
    lipschitz_probes: int = 4
    backtracking: bool = False

    def __post_init__(self):
        if self.eta != "auto" and not (isinstance(self.eta, (int, float)) and self.eta > 0):
            raise ValueError("eta must be positive or 'auto'")
        if self.tol_grad <= 0 or self.tol_step <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class DescentReport:
    iterations: int = 0
    grad_norms: list = field(default_factory=list)
    step_norms: list = field(default_factory=list)
    costs: list = field(default_factory=list)
    final_residual: float = np.inf
    eta: float = np.nan
    k_hat: Optional[float] = None
    wall_time: float = 0.0
    converged: bool = False
    reason: str = ""

    def to_json(self) -> str:
        return json.dumps(
            {
                "iterations": self.iterations,
                "history": [
                    {"iter": i, "grad_norm": g, "step_norm": s, "cost": c}
                    for i, (g, s, c) in enumerate(zip(self.grad_norms, self.step_norms, self.costs))
                ],
                "eta": self.eta,
                "k_hat": self.k_hat,
                "final_residual": self.final_residual,
                "converged": self.converged,
                "reason": self.reason,
                "wall_time": self.wall_time,
            }
        )


@dataclass
class HamiltonianSolution:
    """Converged quadruple of the coupled forward/backward optimality system."""

    states: StateEnsemble
    adjoint: AdjointEnsemble
    controls: ControlEnsemble
    gradient: GradientEnsemble
    report: DescentReport

    @property
    def grid(self):
        return self.states.grid


@dataclass
class CoreProblem:
    """Everything the iteration needs, independent of where the data came from.

    cost_eval implements terminal_value/terminal_gradient/running_value/
    running_grad_x/running_grad_u; features_fn optionally maps the state
    array [M, N+1, n] to regression features (defaults to the state itself).
    """

    sc: StepCoeffs
    grid: TimeGrid
    cost_eval: object
    delta: float
    x0: np.ndarray
    features_fn: Optional[object] = None

    def features(self, X):
        return None if self.features_fn is None else self.features_fn(X)


def core_from_spec(spec, grid: TimeGrid, x0) -> CoreProblem:
    return CoreProblem(
        sc=materialize(spec.coeffs, grid),
        grid=grid,
        cost_eval=GridCost(spec.cost, grid),
        delta=spec.certificate.delta,
        x0=np.asarray(x0, dtype=float),
    )


def _evaluate_gradient(core: CoreProblem, U, dW, basis):
    X = _simulate_core(core.sc, core.grid, core.x0, U, dW)
    Y, Z, diag = backward_solve(core.sc, core.cost_eval, core.grid, X, U, dW, basis,
                                core.features(X))
    D = gradient_core(core.sc, core.cost_eval, core.grid, X, U, Y, Z)
    return X, Y, Z, D, diag


def _probe_controls(shape_nm, count, scale, seed, demean=False):
    """Deterministic-in-time random step controls (adapted by construction).

    With demean, each probe's time average is removed: the max-ratio
    statistic then concentrates instead of occasionally riding a
    low-frequency component, which keeps repeat-seed estimates stable.
    """
    N, m = shape_nm
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = []
    for _ in range(count):
        v = rng.standard_normal((N, m)) * scale
        if demean and N > 1:
            v = v - v.mean(axis=0)
        out.append(v)
    return out


def estimate_lipschitz_core(core: CoreProblem, dW, basis, probes: int, seed: int,
                            scale: float = 1.0) -> float:
    """Safety-inflated squared-norm ratio max ||D[u+v]-D[u]||^2 / ||v||^2."""
    if probes < 1:
        raise ValueError("probes must be >= 1")
    M = dW.shape[0]
    N = core.grid.N
    m = core.sc.B.shape[2]
    dt = core.grid.dt
    ratios = []
    bases = _probe_controls((N, m), probes, scale, seed)
    bumps = _probe_controls((N, m), probes, scale, seed + 1, demean=True)
    for ub, vb in zip(bases, bumps):
        vnorm = l2_norm_array(np.broadcast_to(vb, (1, N, m)), dt)
        if vnorm <= 1e-14:
            continue
        U1 = np.broadcast_to(ub, (M, N, m))
        U2 = np.broadcast_to(ub + vb, (M, N, m))
        *_, D1, _ = _evaluate_gradient(core, U1, dW, basis)
        *_, D2, _ = _evaluate_gradient(core, U2, dW, basis)
        ratios.append(l2_norm_array(D2 - D1, dt) ** 2 / vnorm**2)
    if not ratios:
        raise ValueError("all probe perturbations were degenerate")
    return 2.0 * float(max(ratios))


def descend(core: CoreProblem, dW, basis: RegressionBasis, cfg: DescentConfig,
            producer: str = "descent", u0: np.ndarray = None):
    """Iterate the gradient map from u = 0 until stationarity.

    Convergence is declared on the stationarity residual (the gradient's
    integrated norm) or on the step size; hitting the iteration cap raises
    ConvergenceError carrying the residual history.
    """
    t_start = time.perf_counter()
    M = dW.shape[0]
    N = core.grid.N
    m = core.sc.B.shape[2]
    dt = core.grid.dt
    report = DescentReport()
    if cfg.eta == "auto":
        report.k_hat = estimate_lipschitz_core(core, dW, basis, cfg.lipschitz_probes, PROBE_SEED)
        eta = core.delta / report.k_hat
    else:
        eta = float(cfg.eta)
    report.eta = eta

    U = np.zeros((M, N, m)) if u0 is None else np.broadcast_to(
        np.asarray(u0, dtype=float), (M, N, m)).copy()
    prev = None  # (U, D, J)
    step_norm = np.inf
    for it in range(cfg.max_iter + 1):
        X, Y, Z, D, diag = _evaluate_gradient(core, U, dW, basis)
        gnorm = l2_norm_array(D, dt)
        J = float(per_path_cost_core(core.cost_eval, core.grid, X, U).mean())
        if cfg.backtracking and prev is not None and J > prev[2] + 1e-12 and eta > 1e-8:
            eta *= 0.5
            report.eta = eta
            U = prev[0] - eta * prev[1]
            continue
        report.grad_norms.append(gnorm)
        report.step_norms.append(step_norm if np.isfinite(step_norm) else 0.0)
        report.costs.append(J)
        report.iterations = it
        if gnorm <= cfg.tol_grad or step_norm <= cfg.tol_step:
            report.final_residual = gnorm
            report.converged = True
            report.reason = "stationarity" if gnorm <= cfg.tol_grad else "step_size"
            report.wall_time = time.perf_counter() - t_start
            sol = HamiltonianSolution(
                states=StateEnsemble(grid=core.grid, values=X),
                adjoint=AdjointEnsemble(grid=core.grid, Y=Y, Z=Z),
                controls=ControlEnsemble(grid=core.grid, values=U, producer=producer),
                gradient=GradientEnsemble(grid=core.grid, values=D),
                report=report,
            )
            return sol
        prev = (U, D, J)
        U = U - eta * D
        step_norm = eta * gnorm
    report.final_residual = report.grad_norms[-1]
    report.wall_time = time.perf_counter() - t_start
    raise ConvergenceError(
        f"no stationarity after {cfg.max_iter} iterations "
        f"(last residual {report.grad_norms[-1]:.3e}, tol {cfg.tol_grad:.1e})",
        history=report.grad_norms,
    )


# ---------------------------------------------------------------------------
# public operations on a ProblemSpec


def estimate_lipschitz(spec, grid: TimeGrid, x0, W: BrownianEnsemble,
                       basis: RegressionBasis, probes: int = 4, seed: int = PROBE_SEED,
                       scale: float = 1.0) -> float:
    core = core_from_spec(spec, grid, x0)
    return estimate_lipschitz_core(core, W.increments, basis, probes, seed, scale)


def descent_step(spec, X: StateEnsemble, u: ControlEnsemble, adj: AdjointEnsemble,
                 eta: float) -> ControlEnsemble:
    """One update u - eta * D[u] on the current ensembles."""
    from .adjoint import frechet_gradient

    if eta <= 0:
        raise ValueError("eta must be positive")
    D = frechet_gradient(spec, X, u, adj)
    return ControlEnsemble(grid=u.grid, values=u.values - eta * D.values, producer="descent")


def solve_hamiltonian(spec, grid: TimeGrid, t0: float, x0, W: BrownianEnsemble,
                      basis: RegressionBasis, cfg: DescentConfig,
                      u0: np.ndarray = None) -> HamiltonianSolution:
    """Solve the coupled optimality system from (t0, x0) on the given noise.

    t0 must be a grid node; the ensembles of the returned solution live on
    the trailing subgrid starting there.  u0 optionally replaces the zero
    starting control (shape broadcastable to [M, N, m]).
    """
    k0 = grid.index_of(t0)
    if k0 >= grid.N:
        raise ValueError("t0 must be strictly before the horizon")
    wgrid = grid.subgrid(k0)
    Wsub = W.slice_from(k0)
    core = core_from_spec(spec, wgrid, x0)
    return descend(core, Wsub.increments, basis, cfg, u0=u0)


def uniform_convexity_gap(spec, grid: TimeGrid, x0, W: BrownianEnsemble,
                          basis: RegressionBasis, sol: HamiltonianSolution,
                          trials: int = 20, seed: int = 23, scale: float = 0.5) -> float:
    """min over random perturbations v of [J(u*+v) - J(u*)] / (||v||^2 / 2).

    A certificate with modulus delta promises the result is >= delta up to
    Monte Carlo slack.  Perturbations are deterministic step functions of
    time, so they are admissible controls.
    """
    wgrid = sol.grid
    Wsub = W.slice_from(grid.index_of(wgrid.t0)) if grid.N != wgrid.N else W
    core = core_from_spec(spec, wgrid, x0)
    M = Wsub.M
    N = wgrid.N
    m = core.sc.B.shape[2]
    dt = wgrid.dt
    base_cost = per_path_cost_core(core.cost_eval, wgrid, sol.states.values,
                                   sol.controls.values).mean()
    worst = np.inf
    for v in _probe_controls((N, m), trials, scale, seed):
        vnorm2 = l2_norm_array(np.broadcast_to(v, (1, N, m)), dt) ** 2
        if vnorm2 <= 1e-14:
            continue
        U = sol.controls.values + v
        X = _simulate_core(core.sc, wgrid, core.x0, U, Wsub.increments)
        J = per_path_cost_core(core.cost_eval, wgrid, X, U).mean()
        worst = min(worst, float((J - base_cost) / (0.5 * vnorm2)))
    return worst
