"""Sampling the value function and checking the identities it satisfies.

V(t, x) is the optimal Monte Carlo cost from (t, x); its gradient is the
start-node value of the adjoint, its curvature the start-node value of the
derivative system.  On top of these samples the module evaluates the
dynamic-programming gap, the pointwise residual of the dynamic-programming
PDE, the uniform positivity margin of the reduced control Hessian, and
convexity probes in the initial state.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .adjoint import RegressionBasis
from .budgets import mc_term
from .descent import DescentConfig, solve_hamiltonian
from .errors import LcflowError
from .grids import TimeGrid
from .paths import BrownianEnsemble, mc_stderr
from .riccati import RiccatiSolution, lq_value
from .variational import freeze_second_order, hessian_from_derivative, solve_linear_hamiltonian


@dataclass
class ValueSample:
    t: float
    x: np.ndarray
    V: float
    DxV: np.ndarray
    DxxV: Optional[np.ndarray]
    stderr_V: float
    diagnostics: dict = field(default_factory=dict)
    per_path_cost: Optional[np.ndarray] = field(default=None, repr=False)


def evaluate_value(spec, grid: TimeGrid, t: float, x, W: BrownianEnsemble,
                   basis: RegressionBasis, cfg: DescentConfig,
                   with_hessian: bool = True, sol=None) -> ValueSample:
    """One value-function sample: optimal cost, gradient, optional curvature.

    A precomputed optimality solve for the same (t, x) may be passed in to
    avoid repeating it.
    """
    if sol is None:
        sol = solve_hamiltonian(spec, grid, t, x, W, basis, cfg)
    per_path = sol.per_path_cost
    V = float(per_path.mean())
    stderr = mc_stderr(per_path, sol.W.antithetic)
    DxV = sol.Y[:, 0].mean(axis=0)
    diagnostics = {
        "iterations": sol.report.iterations,
        "final_residual": sol.report.final_residual,
        "eta": sol.report.eta,
        "k_hat": sol.report.k_hat,
    }
    DxxV = None
    if with_hessian:
        frozen = freeze_second_order(spec, sol)
        deriv = solve_linear_hamiltonian(spec, basis, sol, frozen, cfg)
        hess = hessian_from_derivative(deriv)
        DxxV = hess.matrix
        diagnostics["DxxV_asymmetry"] = hess.asymmetry
    return ValueSample(t=float(t), x=np.asarray(x, dtype=float).reshape(-1), V=V, DxV=DxV,
                       DxxV=DxxV, stderr_V=stderr, diagnostics=diagnostics,
                       per_path_cost=per_path)


class RiccatiValueSource:
    """Value, gradient and curvature read off the quadratic oracle.

    Value sources have a `kind`, `value(t, x)` -> V and `derivatives(t, x)`
    -> (DxV, DxxV), at one point x [n] or, shaped as in lq_value, X [B, n].
    """

    kind = "riccati_oracle"

    def __init__(self, ric: RiccatiSolution):
        self.ric = ric

    def value(self, t, x):
        return lq_value(self.ric, t, x)[0]

    def derivatives(self, t, x):
        return lq_value(self.ric, t, x)[1:]


class SolverValueSource:
    """Value samples from optimality solves, cached per (t, x); one point at a time.

    Only the first solve from each start time probes K; later ones declare
    it.  With linear dynamics K hardly moves with x; a new t changes the subgrid.
    """

    kind = "solver"

    def __init__(self, spec, grid, W, basis, cfg):
        self.spec = spec
        self.grid = grid
        self.W = W
        self.basis = basis
        self.cfg = cfg
        self._cache = {}
        self._k_hat = {}     # start time -> K of its first solve

    def sample(self, t, x, with_hessian=False) -> ValueSample:
        key = (round(float(t), 12), tuple(np.round(np.atleast_1d(np.asarray(x, dtype=float)), 12)))
        hit = self._cache.get(key)
        if hit is not None and (hit.DxxV is not None or not with_hessian):
            return hit
        spec = self.spec
        k_hat = self._k_hat.get(key[0])
        if k_hat is not None:
            spec = replace(spec, certificate=replace(spec.certificate, k_lip=k_hat))
        vs = evaluate_value(spec, self.grid, t, x, self.W, self.basis, self.cfg,
                            with_hessian=with_hessian)
        self._k_hat.setdefault(key[0], vs.diagnostics.get("k_hat"))
        self._cache[key] = vs
        return vs

    def value(self, t, x):
        if self.grid.index_of(t) == self.grid.N:     # V(T, .) is the terminal cost
            return float(self.spec.cost.g(np.asarray(x, dtype=float)))
        return self.sample(t, x, with_hessian=False).V

    def derivatives(self, t, x):
        vs = self.sample(t, x, with_hessian=True)
        return vs.DxV, vs.DxxV


@dataclass
class HJBResidualEntry:
    t: float
    x: np.ndarray
    residual: float
    time_derivative: float
    generator_part: float
    hamiltonian_part: float
    control: np.ndarray


@dataclass
class HJBResidualReport:
    h_t: float
    source: str
    entries: list = field(default_factory=list)

    @property
    def max_abs_residual(self) -> float:
        return max((abs(e.residual) for e in self.entries), default=0.0)

    def to_dict(self):
        return {
            "h_t": self.h_t,
            "source": self.source,
            "max_abs_residual": self.max_abs_residual,
            "entries": [{**asdict(e), "x": e.x.tolist(), "control": e.control.tolist()}
                        for e in self.entries],
        }


def generator_and_hamiltonian(spec, t, x, DxV, DxxV):
    """The diffusion generator applied to V, and the minimized Hamiltonian.

    The Hamiltonian is the feedback law's reduced objective at its minimizer:
    the same blocks, assembly and Newton solve as feedback_map at (t, x).
    """
    from .feedback import _blocks_at, _diffusion_x, _reduced_objective, newton_minimize_batch

    coeffs = spec.coeffs
    A = coeffs.A.at(t)
    b = coeffs.b.at(t)
    B, C, D, sigma = _blocks_at(spec, t)
    X = np.asarray(x, dtype=float).reshape(1, -1)
    x = X[0]
    drift_lin = _diffusion_x(C, X, sigma)[0]
    LV = float(DxV @ (A @ x + b)) + 0.5 * float(np.einsum("in,nk,ik->", drift_lin, DxxV, drift_lin))
    p, q = _reduced_objective(X, np.asarray(DxV)[None], np.asarray(DxxV)[None], B, C, D, sigma)
    running = spec.cost.at(t)
    u_star = newton_minimize_batch(running, X, p, q, spec.certificate.delta)[0]
    H = float(u_star @ p[0])
    if q is not None:
        H += 0.5 * float(u_star @ q[0] @ u_star)
    H += float(running.value(x, u_star))
    return LV, H, u_star


def hjb_residual(spec, value_fn_source, samples, h_t: float) -> HJBResidualReport:
    """Pointwise residual dV/dt + LV + H at the given (t, x) samples.

    The time derivative is a central difference of the source's value with
    step h_t, one-sided at the ends of the horizon; the spatial derivatives
    come from the source directly.  Components are stored so they sum to
    the residual exactly.
    """
    if h_t <= 0:
        raise ValueError("h_t must be positive")
    report = HJBResidualReport(h_t=h_t, source=value_fn_source.kind)
    T = spec.horizon
    for (t, x) in samples:
        t = float(t)
        x = np.asarray(x, dtype=float).reshape(-1)
        DxV, DxxV = value_fn_source.derivatives(t, x)
        lo, hi = t - h_t, t + h_t
        if lo < 0.0:
            v_hi = value_fn_source.value(t + h_t, x)
            v_lo = value_fn_source.value(t, x)
            dtV = (v_hi - v_lo) / h_t
        elif hi > T:
            v_hi = value_fn_source.value(t, x)
            v_lo = value_fn_source.value(t - h_t, x)
            dtV = (v_hi - v_lo) / h_t
        else:
            v_hi = value_fn_source.value(hi, x)
            v_lo = value_fn_source.value(lo, x)
            dtV = (v_hi - v_lo) / (2.0 * h_t)
        LV, H, u_star = generator_and_hamiltonian(spec, t, x, DxV, DxxV)
        report.entries.append(HJBResidualEntry(
            t=t, x=x, residual=dtV + LV + H, time_derivative=dtV,
            generator_part=LV, hamiltonian_part=H, control=u_star,
        ))
    return report


def dpp_steps(grid: TimeGrid, h: float) -> int:
    """The number of steps of h on grid; ValueError unless h is a step multiple in (0, T - t0)."""
    kh = int(round(h / grid.dt))
    if kh < 1 or kh >= grid.N:
        raise ValueError(f"h={h} must be a step multiple inside (0, T - t)")
    if abs(kh * grid.dt - h) > 1e-9:
        raise ValueError(f"h={h} is not a multiple of dt={grid.dt}")
    return kh


def dpp_gap(sol, h: float, value_source) -> float:
    """V(t,x) minus the Monte Carlo mean of V(t+h, X*_{t+h}) + running cost.

    V and the running cost are read off the solve sol from (t, x), the
    continuation value off value_source, an oracle.  A regression of the same
    paths' cost-to-go is none: it reproduces their mean, so its gap reads 0.
    """
    wgrid = sol.grid
    kh = dpp_steps(wgrid, h)
    X, running = sol.X, sol.running
    head = np.zeros(X.shape[0])
    for k in range(kh):
        head += running[:, k]
    tail = sol.core.cost_eval.terminal_value(X[:, -1]).astype(float)
    for k in range(kh, wgrid.N):
        tail += running[:, k]
    V = float((head + tail).mean())
    cont = value_source.value(float(wgrid.nodes[kh]), X[:, kh])
    return V - float((head + cont).mean())


def regularity_margin(spec, value_sample: ValueSample, samples: int = 64) -> float:
    """min eig of Duu_l(t,x,u) + sum_i D_i^T DxxV D_i at u = 0 and samples u in [-3, 3]^m."""
    if value_sample.DxxV is None:
        raise LcflowError("value sample carries no curvature")
    t, x = value_sample.t, value_sample.x
    D = spec.coeffs.D.at(t)
    bump = np.einsum("inm,nk,ikl->ml", D, value_sample.DxxV, D)
    rng = np.random.Generator(np.random.Philox(key=5))
    m = spec.dims.m
    us = np.concatenate([np.zeros((1, m)), rng.uniform(-3.0, 3.0, size=(samples, m))])
    H = spec.cost.at(t).hess_uu(np.broadcast_to(x, (len(us), x.shape[0])), us) + bump
    return float(np.linalg.eigvalsh(0.5 * (H + np.swapaxes(H, -1, -2)))[:, 0].min())


@dataclass
class ConvexityProbeEntry:
    x0: np.ndarray
    x1: np.ndarray
    lam: float
    gap: float
    stderr: float


@dataclass
class ConvexityProbeReport:
    entries: list = field(default_factory=list)

    def passed(self) -> bool:
        return all(e.gap >= -mc_term(e.stderr) for e in self.entries)

    def to_dict(self):
        return {
            "passed": self.passed(),
            "entries": [
                {"x0": e.x0.tolist(), "x1": e.x1.tolist(), "lambda": e.lam,
                 "gap": e.gap, "stderr": e.stderr}
                for e in self.entries
            ],
        }


def convexity_probe(spec, grid: TimeGrid, t: float, x_pairs, lambdas,
                    W: BrownianEnsemble, basis: RegressionBasis,
                    cfg: DescentConfig) -> ConvexityProbeReport:
    """Midpoint convexity gaps of x -> V(t, x) on common noise.

    gap = lam V(x1) + (1-lam) V(x0) - V(lam x1 + (1-lam) x0), reported with
    the standard error of the pathwise combination; convex values keep the
    gap above -4 stderr.  Each point is solved once, however many pairs and
    lambdas share it.
    """
    source = SolverValueSource(spec, grid, W, basis, cfg)

    def costs_at(x):
        return source.sample(t, x).per_path_cost

    report = ConvexityProbeReport()
    for (x0, x1) in x_pairs:
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        x1 = np.atleast_1d(np.asarray(x1, dtype=float))
        for lam in lambdas:
            if not 0.0 < lam < 1.0:
                raise ValueError("lambda must lie in (0, 1)")
            xl = lam * x1 + (1.0 - lam) * x0
            pathwise = lam * costs_at(x1) + (1.0 - lam) * costs_at(x0) - costs_at(xl)
            report.entries.append(ConvexityProbeEntry(
                x0=x0, x1=x1, lam=float(lam), gap=float(pathwise.mean()),
                stderr=mc_stderr(pathwise, W.antithetic),
            ))
    return report


def fd_gradient_of_value(spec, grid, x, h, W, basis, cfg, t: float = None):
    """Central difference of V(t, .) on common noise; returns (fd, stderr)."""
    t = grid.t0 if t is None else t
    x = np.atleast_1d(np.asarray(x, dtype=float))
    source = SolverValueSource(spec, grid, W, basis, cfg)
    n = x.shape[0]
    fd = np.empty(n)
    se = np.empty(n)
    for i in range(n):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        diff = (source.sample(t, xp).per_path_cost - source.sample(t, xm).per_path_cost) / (2.0 * h)
        fd[i] = float(diff.mean())
        se[i] = mc_stderr(diff, W.antithetic)
    return fd, se


def value_surface_to_csv(samples, path):
    """Rows (t, x..., V, stderr, DxV..., vec(DxxV)...)."""
    if not samples:
        return
    n = samples[0].x.shape[0]
    header = ["t"] + [f"x_{i}" for i in range(n)] + ["V", "stderr_V"]
    header += [f"DxV_{i}" for i in range(n)]
    header += [f"DxxV_{i}{j}" for i in range(n) for j in range(n)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for s in samples:
            row = [repr(float(s.t))] + [repr(float(v)) for v in s.x]
            row += [repr(float(s.V)), repr(float(s.stderr_V))]
            row += [repr(float(v)) for v in s.DxV]
            if s.DxxV is not None:
                row += [repr(float(v)) for v in np.asarray(s.DxxV).ravel()]
            else:
                row += [""] * (n * n)
            writer.writerow(row)
