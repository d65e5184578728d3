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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adjoint import RegressionBasis, StepRegression, per_path_costs
from .costs import GridCost
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
    per_path = per_path_costs(spec, sol.states, sol.controls)
    V = float(per_path.mean())
    stderr = mc_stderr(per_path, W.antithetic)
    Y0 = sol.adjoint.Y[:, 0]
    DxV = Y0.mean(axis=0)
    diagnostics = {
        "iterations": sol.report.iterations,
        "final_residual": sol.report.final_residual,
        "eta": sol.report.eta,
        "DxV_cross_path_std": float(Y0.std(axis=0).max()),
    }
    DxxV = None
    if with_hessian:
        frozen = freeze_second_order(spec, sol)
        deriv = solve_linear_hamiltonian(spec, grid, W, basis, sol, frozen, cfg)
        hess = hessian_from_derivative(deriv)
        DxxV = hess.matrix
        diagnostics["DxxV_asymmetry"] = hess.asymmetry
        diagnostics["DxxV_cross_path_std"] = hess.cross_path_std
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
    """Value samples from fresh optimality solves, cached per (t, x); one point at a time."""

    kind = "solver"

    def __init__(self, spec, grid, W, basis, cfg):
        self.spec = spec
        self.grid = grid
        self.W = W
        self.basis = basis
        self.cfg = cfg
        self._cache = {}

    def sample(self, t, x, with_hessian=False) -> ValueSample:
        key = (round(float(t), 12), tuple(np.round(np.atleast_1d(np.asarray(x, dtype=float)), 12)))
        hit = self._cache.get(key)
        if hit is not None and (hit.DxxV is not None or not with_hessian):
            return hit
        vs = evaluate_value(self.spec, self.grid, t, x, self.W, self.basis, self.cfg,
                            with_hessian=with_hessian)
        self._cache[key] = vs
        return vs

    def value(self, t, x):
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
            "entries": [
                {
                    "t": e.t, "x": e.x.tolist(), "residual": e.residual,
                    "time_derivative": e.time_derivative,
                    "generator_part": e.generator_part,
                    "hamiltonian_part": e.hamiltonian_part,
                    "control": e.control.tolist(),
                }
                for e in self.entries
            ],
        }


def generator_and_hamiltonian(spec, t, x, DxV, DxxV):
    """The diffusion generator applied to V, and the minimized Hamiltonian."""
    from .feedback import assemble_query, minimize_hamiltonian_in_u

    coeffs = spec.coeffs
    A = coeffs.A.at(t)
    b = coeffs.b.at(t)
    x = np.asarray(x, dtype=float).reshape(-1)
    drift_lin = coeffs.state_diffusion(t, x[None])[0]           # [d, n]
    LV = float(DxV @ (A @ x + b)) + 0.5 * float(np.einsum("in,nk,ik->", drift_lin, DxxV, drift_lin))
    query = assemble_query(spec, t, x[None], np.asarray(DxV)[None], np.asarray(DxxV)[None])
    u_star = minimize_hamiltonian_in_u(spec, query)[0]
    H = (
        float(u_star @ query.p[0])
        + 0.5 * float(u_star @ query.q_mat[0] @ u_star)
        + float(spec.cost.l(t, x, u_star))
    )
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


def dpp_gap(spec, grid: TimeGrid, t: float, x, h: float, W: BrownianEnsemble,
            basis: RegressionBasis, cfg: DescentConfig, value_fn_source, sol=None) -> float:
    """V(t,x) minus the Monte Carlo mean of V(t+h, X*_{t+h}) + running cost.

    The continuation value comes from the given oracle source, or, with
    value_fn_source="fitted", from a regression of the per-path realized
    optimal cost-to-go on the basis at X*_{t+h} (the optimal ensemble is
    reused, nothing is re-solved).
    """
    if sol is None:
        sol = solve_hamiltonian(spec, grid, t, x, W, basis, cfg)
    wgrid = sol.grid
    dt = wgrid.dt
    kh = int(round(h / dt))
    if kh < 1 or kh >= wgrid.N:
        raise ValueError(f"h={h} must be a step multiple inside (0, T - t)")
    if abs(kh * dt - h) > 1e-9:
        raise ValueError(f"h={h} is not a multiple of dt={dt}")
    cost_eval = GridCost(spec.cost, wgrid)
    X = sol.states.values
    U = sol.controls.values
    M = X.shape[0]
    head = np.zeros(M)
    for k in range(kh):
        head += cost_eval.running_value(k, X[:, k], U[:, k]) * dt
    tail = cost_eval.terminal_value(X[:, -1]).astype(float)
    for k in range(kh, wgrid.N):
        tail += cost_eval.running_value(k, X[:, k], U[:, k]) * dt
    V = float((head + tail).mean())
    t_mid = float(wgrid.nodes[kh])
    if value_fn_source == "fitted":
        reg = StepRegression(X[:, kh:kh + 1], basis, first_step=kh)
        cont = reg.fit(0, tail)
    else:
        cont = value_fn_source.value(t_mid, X[:, kh])
    return V - float((head + cont).mean())


def regularity_margin(spec, value_sample: ValueSample, u_box: float = 3.0,
                      samples: int = 64, seed: int = 5) -> float:
    """min eig of Duu_l(t,x,u) + sum_i D_i^T DxxV D_i over sampled u."""
    if value_sample.DxxV is None:
        raise LcflowError("value sample carries no curvature")
    t, x = value_sample.t, value_sample.x
    D = spec.coeffs.D.at(t)
    bump = np.einsum("inm,nk,ikl->ml", D, value_sample.DxxV, D)
    rng = np.random.Generator(np.random.Philox(key=seed))
    m = spec.dims.m
    us = np.concatenate([np.zeros((1, m)), rng.uniform(-u_box, u_box, size=(samples, m))])
    worst = np.inf
    for u in us:
        H = spec.cost.duu_l(t, x, u) + bump
        w = np.linalg.eigvalsh(0.5 * (H + H.T))
        worst = min(worst, float(w[0]))
    return worst


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

    def passed(self, factor: float = 4.0) -> bool:
        return all(e.gap >= -factor * e.stderr for e in self.entries)

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
    n = x.shape[0]
    fd = np.empty(n)
    se = np.empty(n)
    for i in range(n):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        cp = evaluate_value(spec, grid, t, xp, W, basis, cfg, with_hessian=False).per_path_cost
        cm = evaluate_value(spec, grid, t, xm, W, basis, cfg, with_hessian=False).per_path_cost
        diff = (cp - cm) / (2.0 * h)
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
