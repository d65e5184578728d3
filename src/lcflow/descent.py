"""Fixed-point iteration u <- u - eta * D[u] for the Hamiltonian system.

Each sweep re-simulates the forward state on the fixed Brownian ensemble,
re-solves the adjoint by regression, assembles the control gradient and
takes a damped-free step.  Under uniform convexity with modulus delta and
gradient Lipschitz-squared constant K, the map is a contraction for
eta = delta / K, which is what the auto step size targets: with the
certificate's declared K when there is one, else with an empirically
estimated, safety-inflated K probed around the starting control.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .adjoint import BLOCK_STEPS, RegressionBasis, backward_solve, gradient_core, per_path_cost_core
from .costs import GridCost
from .errors import BlowupError, ConvergenceError
from .grids import TimeGrid
from .paths import BrownianEnsemble, _simulate_core, l2_norm_array, step_major
from .problem import StepCoeffs, materialize

# seed and count of the Lipschitz probe controls, so that eta="auto" is reproducible
PROBE_SEED = 17
LIPSCHITZ_PROBES = 4


@dataclass(frozen=True)
class DescentConfig:
    eta: Union[float, str] = "auto"
    max_iter: int = 80
    tol_grad: float = 1e-3

    def __post_init__(self):
        if self.eta != "auto" and not (isinstance(self.eta, (int, float)) and self.eta > 0):
            raise ValueError("eta must be positive or 'auto'")
        if self.tol_grad <= 0:
            raise ValueError("tol_grad must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")


@dataclass
class DescentReport:
    iterations: int = 0
    grad_norms: list = field(default_factory=list)
    costs: list = field(default_factory=list)
    final_residual: float = np.inf
    eta: float = np.nan
    k_hat: Optional[float] = None
    probe_ratios: list = field(default_factory=list)
    # the converged evaluation's largest condition number over the steps with spread
    # (adjoint.backward_solve), None when no step has spread
    regression_cond_max: Optional[float] = None
    wall_time: float = 0.0      # kept out of to_dict, which a rerun reproduces byte for byte

    def to_dict(self):
        # a descent that fails raises and returns no report; the step that led to iteration i
        # is eta times the residual before it
        return {
            "iterations": self.iterations,
            "history": [
                {"iter": i, "grad_norm": g,
                 "step_norm": self.eta * self.grad_norms[i - 1] if i else 0.0, "cost": c}
                for i, (g, c) in enumerate(zip(self.grad_norms, self.costs))
            ],
            "eta": self.eta,
            "k_hat": self.k_hat,
            "probe_ratios": self.probe_ratios,
            "regression": {"cond_max": self.regression_cond_max},
            "final_residual": self.final_residual,
            "converged": True,
            "reason": "stationarity",
        }


@dataclass
class CoreProblem:
    """Everything the iteration needs, independent of where the data came from.

    cost_eval is a costs.PathCost (whole-path running methods) with
    terminal_value/terminal_gradient.  The regressions run on the state
    unless feature_store is given: step-major regression features
    [M, N+1, q], q > n, whose first n coordinates each evaluation overwrites
    with its state and whose others stay as they are.
    k_lip, when known, is the gradient's Lipschitz-squared constant K; the
    auto step size then uses it instead of probing.
    """

    sc: StepCoeffs
    grid: TimeGrid
    cost_eval: object
    delta: float
    x0: np.ndarray
    feature_store: Optional[np.ndarray] = None
    k_lip: Optional[float] = None

    def features(self, X):
        """The regression features at the state X: None for X itself, else feature_store."""
        if self.feature_store is None:
            return None
        self.feature_store[..., :X.shape[-1]] = X
        return self.feature_store

    def basis_size(self, basis: RegressionBasis) -> int:
        """The size p of the regression basis on this problem's features."""
        store = self.feature_store
        return basis.size(self.sc.B.shape[1] if store is None else store.shape[-1])


@dataclass
class HamiltonianSolution:
    """Converged quadruple of the coupled forward/backward optimality system.

    X [M, N+1, n], U [M, N, m], Y [M, N+1, n], Z [M, N, d, n] (block i is
    the loading on dW^i) and the gradient D [M, N, m] are the converged
    iterate's step-major whole-path arrays, Z None unless sc.reads_z
    (adjoint.backward_solve).  It carries what it was solved on, so that
    its consumers rebuild nothing: the subproblem (core: subgrid, step
    coefficients, cost evaluator, x0), the Brownian ensemble on that
    subgrid (W), the per-path cost, whose mean is the reported J, and its
    terms l(t_k, X_k, u_k) dt as running [M, N], step-major.
    """

    X: np.ndarray
    U: np.ndarray
    Y: np.ndarray
    Z: Optional[np.ndarray]
    D: np.ndarray
    report: DescentReport
    core: CoreProblem
    W: BrownianEnsemble
    per_path_cost: np.ndarray
    running: np.ndarray

    @property
    def grid(self):
        return self.core.grid


def core_from_spec(spec, grid: TimeGrid, x0) -> CoreProblem:
    return CoreProblem(
        sc=materialize(spec.coeffs, grid),
        grid=grid,
        cost_eval=GridCost(spec.cost, grid),
        delta=spec.certificate.delta,
        x0=np.asarray(x0, dtype=float),
        k_lip=None if spec.certificate.k_lip == "auto" else float(spec.certificate.k_lip),
    )


@dataclass(frozen=True)
class Workspace:
    """The whole-path buffers a gradient evaluation on M paths writes in place.

    X, Y, Z, D and run (the running costs times dt of per_path_cost_core)
    receive an evaluation's results and U holds the control it runs on; the
    other arrays are scratch that no result is left in; Z is not allocated
    unless sc.reads_z, the backward sweep's rule for fitting it.  BU and DU (None
    when D is zero at every step) hold the forward sweep's B u and D u;
    after the sweep, BU holds X_k + (B u + b) dt at a plain step (A, C and
    D zero) and B u at any other.  design holds a regression block's
    coordinate-major design (adjoint.StepRegression), of BLOCK_STEPS
    steps or the grid's N if fewer, and while the block is built its
    centred features and their squares; grad holds the gradient's terms
    and then the step eta D, terms (three flat arrays) the running costs'
    temporaries, and squares the squares of l2_norm_array.  The whole-path
    arrays are step-major, squares path-major.

    Scratch shares memory where lifetimes allow: B u and D u live in Y's
    first N rows and in Z, which the backward sweep writes only after the
    forward sweep is done with them, and grad, run and squares are views of
    one array, each used by one step of an iteration after the other.
    """

    X: np.ndarray       # [M, N+1, n]
    U: np.ndarray       # [M, N, m]
    Y: np.ndarray       # [M, N+1, n]
    Z: Optional[np.ndarray]     # [M, N, d, n], None unless sc.reads_z
    D: np.ndarray       # [M, N, m]
    BU: np.ndarray      # [M, N, n], Y[:, :N]
    DU: Optional[np.ndarray]    # [M, N, d, n], Z
    design: np.ndarray  # [p, min(BLOCK_STEPS, N), M]
    grad: np.ndarray    # [M, N, m]
    run: np.ndarray     # [M, N]
    terms: tuple        # three flat [N * M * max(n, m)]
    squares: np.ndarray     # [M, N, m], C-contiguous

    @classmethod
    def allocate(cls, core: CoreProblem, M: int, basis: RegressionBasis) -> "Workspace":
        sc, N = core.sc, core.grid.N
        d, n = sc.sigma.shape[1:]
        m = sc.B.shape[2]
        Y, Z = step_major(M, N + 1, n), step_major(M, N, d, n) if sc.reads_z else None
        scratch = np.empty(N * M * m)
        # the running cost's temporaries (costs.RunningCost.value) in arrays no larger than
        # the state's: a larger one, once freed, raises glibc's mmap threshold above every
        # whole-path array, which then stay in the heap and raise the peak resident memory
        terms = tuple(np.empty(N * M * max(n, m)) for _ in range(3))
        return cls(X=step_major(M, N + 1, n), U=step_major(M, N, m), Y=Y, Z=Z,
                   D=step_major(M, N, m), BU=Y[:, :N], DU=Z if any(sc.D_nonzero) else None,
                   design=np.empty((core.basis_size(basis), min(BLOCK_STEPS, N), M)),
                   grad=scratch.reshape(N, M, m).swapaxes(0, 1),
                   run=scratch[:N * M].reshape(N, M).T, terms=terms,
                   squares=scratch.reshape(M, N, m))


def _evaluate_gradient(core: CoreProblem, U, dW, basis, ws: Workspace = None):
    """One forward-backward evaluation at the control U: (X, Y, Z, D, cond_max).

    With a workspace ws, X, Y, Z and D are its arrays, overwritten; else they
    are fresh.
    """
    X = _simulate_core(core.sc, core.grid, core.x0, U, dW, ws)
    Y, Z, cond_max = backward_solve(core.sc, core.cost_eval, core.grid, X, U, dW, basis,
                                    core.features(X), ws)
    D = gradient_core(core.sc, core.cost_eval, core.grid, X, U, Y, Z, ws)
    return X, Y, Z, D, cond_max


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
                            base=None, ws: Workspace = None):
    """Safety-inflated squared-norm ratio max ||D[u+v]-D[u]||^2 / ||v||^2.

    The probes share one base control u: base is (U, D[U]) as already
    evaluated by the caller, else u = 0 is evaluated here.  The probes run
    in the workspace ws, which must hold neither array of base (one is
    allocated when ws is None).  Returns the estimate 2 * max ratio and the
    raw ratios.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    M = dW.shape[0]
    N = core.grid.N
    m = core.sc.B.shape[2]
    dt = core.grid.dt
    if base is None:
        U0 = step_major(M, N, m)
        U0[...] = 0.0
        base = (U0, _evaluate_gradient(core, U0, dW, basis)[3])
    if ws is None:
        ws = Workspace.allocate(core, M, basis)
    U0, D0 = base
    ratios = []
    for vb in _probe_controls((N, m), probes, 1.0, seed + 1, demean=True):
        vnorm = l2_norm_array(np.broadcast_to(vb, (1, N, m)), dt)
        if vnorm <= 1e-14:
            continue
        *_, D1, _ = _evaluate_gradient(core, np.add(U0, vb, out=ws.U), dW, basis, ws)
        diff = np.subtract(D1, D0, out=ws.U)       # the probe's control is spent
        ratios.append(float(l2_norm_array(diff, dt, ws.squares) ** 2 / vnorm**2))
    if not ratios:
        raise ValueError("all probe perturbations were degenerate")
    return 2.0 * max(ratios), ratios


def descend(core: CoreProblem, W: BrownianEnsemble, basis: RegressionBasis, cfg: DescentConfig,
            u0: np.ndarray = None):
    """Iterate the gradient map u <- u - eta D[u] from u = 0 (or u0) until stationarity.

    W is the Brownian ensemble on core.grid; the solution carries both.
    Iteration 0's evaluation doubles as the base of the Lipschitz probes.
    Convergence is declared on the stationarity residual, the gradient's
    integrated norm, alone.  A non-finite residual or hitting the iteration
    cap raises ConvergenceError; it, and a BlowupError of an iterate, carry
    the residual history, eta and K.

    Buffers: descend allocates one Workspace, and every evaluation writes
    into it, so the iterations allocate no whole-path array.  Its X, Y, Z
    and D are overwritten by each evaluation, and each step updates U in
    place.  The probes run in a spare U and D and overwrite X, Y and Z, so
    iteration 0's residual and cost are taken before them; only when
    iteration 0 is already the solution do they get buffers of their own.
    The returned solution takes the current X, U, Y, Z, D and running costs
    (the workspace's run), and descend keeps none of them.
    """
    t_start = time.perf_counter()
    dW = W.increments
    M = W.M
    dt = core.grid.dt
    report = DescentReport()
    ws = Workspace.allocate(core, M, basis)
    spare = replace(ws, U=np.empty_like(ws.U), D=np.empty_like(ws.D))

    def residual_and_cost(evaluation):
        """The stationarity residual and, when it is finite, the per-path cost of an iterate."""
        gnorm = l2_norm_array(evaluation[3], dt, ws.squares)
        return gnorm, (per_path_cost_core(core.cost_eval, core.grid, evaluation[0], U, ws)
                       if np.isfinite(gnorm) else None)

    U = ws.U
    U[...] = 0.0 if u0 is None else np.asarray(u0, dtype=float)
    evaluation = _evaluate_gradient(core, U, dW, basis, ws)
    gnorm, costs = residual_and_cost(evaluation)
    if cfg.eta == "auto":
        if core.k_lip is None:
            report.k_hat, report.probe_ratios = estimate_lipschitz_core(
                core, dW, basis, LIPSCHITZ_PROBES, PROBE_SEED, base=(U, evaluation[3]),
                ws=Workspace.allocate(core, M, basis) if gnorm <= cfg.tol_grad else spare)
        else:
            report.k_hat = core.k_lip
        eta = core.delta / report.k_hat
    else:
        eta = float(cfg.eta)
    report.eta = eta

    def failure(exc):
        exc.history, exc.eta, exc.k_hat = report.grad_norms, report.eta, report.k_hat
        return exc

    for it in range(cfg.max_iter + 1):
        if it:
            try:
                evaluation = _evaluate_gradient(core, U, dW, basis, ws)
            except BlowupError as exc:
                raise failure(exc)
            gnorm, costs = residual_and_cost(evaluation)
        X, Y, Z, D, cond_max = evaluation
        if not np.isfinite(gnorm):
            raise failure(ConvergenceError(f"non-finite residual {gnorm} at iteration {it}"))
        report.grad_norms.append(gnorm)
        report.costs.append(float(costs.mean()))
        report.iterations = it
        if gnorm <= cfg.tol_grad:
            report.final_residual = gnorm
            report.regression_cond_max = cond_max
            report.wall_time = time.perf_counter() - t_start
            return HamiltonianSolution(X=X, U=U, Y=Y, Z=Z, D=D, report=report, core=core, W=W,
                                       per_path_cost=costs, running=ws.run)
        np.subtract(U, np.multiply(D, eta, out=ws.grad), out=U)
    raise failure(ConvergenceError(
        f"no stationarity after {cfg.max_iter} iterations "
        f"(last residual {report.grad_norms[-1]:.3e}, tol {cfg.tol_grad:.1e})"
    ))


# ---------------------------------------------------------------------------
# public operations on a ProblemSpec


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
    core = core_from_spec(spec, grid.subgrid(k0), x0)
    return descend(core, W.slice_from(k0), basis, cfg, u0=u0)


def uniform_convexity_gap(sol: HamiltonianSolution, trials: int = 20, seed: int = 23) -> float:
    """min over random perturbations v of [J(u*+v) - J(u*)] / (||v||^2 / 2).

    A certificate with modulus delta promises the result is >= delta up to
    Monte Carlo slack.  Perturbations are deterministic step functions of
    time of scale 0.5, so they are admissible controls; each runs on the
    solution's own subproblem and noise.
    """
    core = sol.core
    N = core.grid.N
    m = core.sc.B.shape[2]
    dt = core.grid.dt
    base_cost = sol.per_path_cost.mean()
    worst = np.inf
    for v in _probe_controls((N, m), trials, 0.5, seed):
        vnorm2 = l2_norm_array(np.broadcast_to(v, (1, N, m)), dt) ** 2
        if vnorm2 <= 1e-14:
            continue
        U = sol.U + v
        X = _simulate_core(core.sc, core.grid, core.x0, U, sol.W.increments)
        J = per_path_cost_core(core.cost_eval, core.grid, X, U).mean()
        worst = min(worst, float((J - base_cost) / (0.5 * vnorm2)))
    return worst
