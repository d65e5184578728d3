"""Problem definition: dimensions, linear dynamics, cost, convexity certificate.

A ProblemSpec is immutable after construction and safe to share.  Validation
is sampling-based: the certificate's modulus delta is declared by the user
and audited over a box, it is never derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .costs import CostModel, case1_smooth_cost, case2_smooth_cost, check_psd, stacked_hessian
from .errors import SchemaError, StructuralError, ValidationFailure
from .grids import PiecewiseConstant, TimeGrid, as_piecewise


@dataclass(frozen=True)
class Dimensions:
    n: int
    m: int
    d: int

    def __post_init__(self):
        for name in ("n", "m", "d"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise StructuralError(f"dimension {name} must be a positive integer, got {v!r}")


@dataclass(frozen=True)
class CoefficientSet:
    """Linear SDE coefficients; each entry constant or piecewise constant.

    C, D and sigma carry a leading Brownian-coordinate axis of length d.
    """

    dims: Dimensions
    A: PiecewiseConstant
    B: PiecewiseConstant
    C: PiecewiseConstant
    D: PiecewiseConstant
    b: PiecewiseConstant
    sigma: PiecewiseConstant

    @staticmethod
    def build(dims: Dimensions, A=None, B=None, C=None, D=None, b=None, sigma=None) -> "CoefficientSet":
        n, m, d = dims.n, dims.m, dims.d

        def pw(value, shape):
            if value is None:
                return PiecewiseConstant(np.zeros(shape))
            return as_piecewise(np.asarray(value, dtype=float) if not isinstance(value, PiecewiseConstant) else value, shape)

        return CoefficientSet(
            dims=dims,
            A=pw(A, (n, n)),
            B=pw(B, (n, m)),
            C=pw(C, (d, n, n)),
            D=pw(D, (d, n, m)),
            b=pw(b, (n,)),
            sigma=pw(sigma, (d, n)),
        )

    def state_diffusion(self, t, X) -> np.ndarray:
        """C(t) x + sigma(t) at the rows x of X [B, n]: the diffusion without D(t) u, [B, d, n]."""
        return np.einsum("inj,bj->bin", self.C.at(t), np.asarray(X, dtype=float)) + self.sigma.at(t)


@dataclass(frozen=True)
class StepCoeffs:
    """Coefficients materialized at the left node of every grid interval."""

    A: np.ndarray      # [N, n, n]
    B: np.ndarray      # [N, n, m]
    C: np.ndarray      # [N, d, n, n]
    D: np.ndarray      # [N, d, n, m]
    b: np.ndarray      # [N, n]
    sigma: np.ndarray  # [N, d, n]

    @cached_property
    def A_nonzero(self) -> list:
        """Per step, whether A_k has a nonzero entry; the step loops drop a zero block's terms."""
        return self.A.any(axis=(1, 2)).tolist()

    @cached_property
    def C_nonzero(self) -> list:
        """Per step, whether some C_k^i has a nonzero entry."""
        return self.C.any(axis=(1, 2, 3)).tolist()


def materialize(coeffs: CoefficientSet, grid: TimeGrid) -> StepCoeffs:
    ts = grid.nodes[:-1]
    stack = lambda pw: np.stack([pw.at(float(t)) for t in ts])
    out = StepCoeffs(
        A=stack(coeffs.A), B=stack(coeffs.B), C=stack(coeffs.C),
        D=stack(coeffs.D), b=stack(coeffs.b), sigma=stack(coeffs.sigma),
    )
    for arr in (out.A, out.B, out.C, out.D, out.b, out.sigma):
        if not np.all(np.isfinite(arr)):
            raise StructuralError("non-finite coefficient entries")
        arr.flags.writeable = False
    return out


@dataclass(frozen=True)
class ConvexityCertificate:
    """Declared uniform-convexity modulus of the control-to-cost map."""

    delta: float
    mode: str = "declared"          # case1 | case2 | declared
    k_lip: object = "auto"          # positive float or "auto"

    def __post_init__(self):
        if not self.delta > 0:
            raise StructuralError(f"delta must be positive, got {self.delta}")
        if self.mode not in ("case1", "case2", "declared"):
            raise StructuralError(f"unknown certificate mode {self.mode!r}")
        if self.k_lip != "auto" and not (isinstance(self.k_lip, (int, float)) and self.k_lip > 0):
            raise StructuralError("k_lip must be positive or 'auto'")


@dataclass(frozen=True)
class ProblemSpec:
    dims: Dimensions
    horizon: float
    coeffs: CoefficientSet
    cost: CostModel
    certificate: ConvexityCertificate
    label: str = ""

    def __post_init__(self):
        if not self.horizon > 0:
            raise StructuralError(f"horizon must be positive, got {self.horizon}")
        if self.cost.n != self.dims.n or self.cost.m != self.dims.m:
            raise StructuralError("cost dimensions disagree with problem dimensions")


@dataclass
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "margin": c.margin, "detail": c.detail}
                for c in self.checks
            ],
        }


DEFAULT_BOX = 5.0


def _sample_points(spec, box, samples, seed=0):
    rng = np.random.Generator(np.random.Philox(key=seed))
    n, m = spec.dims.n, spec.dims.m
    ts = rng.uniform(0.0, spec.horizon, size=samples)
    xs = rng.uniform(-box, box, size=(samples, n))
    us = rng.uniform(-box, box, size=(samples, m))
    return ts, xs, us


def _fd_gradient(f, z, h):
    g = np.zeros_like(z)
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (f(zp) - f(zm)) / (2 * h)
    return g


def validate_problem(spec: ProblemSpec, sample_box: float = DEFAULT_BOX, samples: int = 200, seed: int = 0) -> ValidationReport:
    """Audit the standing assumptions by sampling a box in (t, x, u).

    Structural problems (bad shapes) raise immediately; everything else is
    reported with a worst-case margin.  Margins are oriented so that
    nonnegative means pass.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    cost = spec.cost
    n, m = spec.dims.n, spec.dims.m
    # shape probe; raises StructuralError through numpy broadcasting failures
    try:
        probe_x = np.zeros(n)
        probe_u = np.zeros(m)
        np.asarray(cost.dx_g(probe_x), dtype=float).reshape(n)
        np.asarray(cost.du_l(0.0, probe_x, probe_u), dtype=float).reshape(m)
        materialize(spec.coeffs, TimeGrid(0.0, spec.horizon, 8))
    except (ValueError, TypeError) as exc:
        raise StructuralError(str(exc)) from exc

    ts, xs, us = _sample_points(spec, sample_box, samples, seed)
    checks = []

    def add(name, margin, detail="", tol=1e-10):
        checks.append(CheckResult(name, bool(margin >= -tol), float(margin), detail))

    # cross-block transpose consistency
    worst = 0.0
    worst_pt = None
    for t, x, u in zip(ts, xs, us):
        dxu = cost.dxu_l(t, x, u)
        dux = cost.dux_l(t, x, u)
        err = float(np.max(np.abs(dxu - dux.T)))
        if err > worst:
            worst, worst_pt = err, (t, x.copy(), u.copy())
    add("cross_block_transpose", 1e-10 - worst, f"worst |Dxu - Dux^T| = {worst:.2e} at {worst_pt}")

    # declared Hessian bound
    worst = 0.0
    for t, x, u in zip(ts, xs, us):
        H = stacked_hessian(cost, t, x, u)
        worst = max(worst, float(np.max(np.abs(H))), float(np.max(np.abs(cost.dxx_g(x)))))
    add("hessian_bound", cost.k_hess - worst, f"max sampled second derivative {worst:.4g} vs declared {cost.k_hess:.4g}")

    # finite-difference consistency of gradients and Hessians
    def rel_err(fd, exact):
        return float(np.max(np.abs(fd - exact))) / (1.0 + float(np.max(np.abs(exact))))

    fd_n = min(samples, 25)
    grad_err = 0.0
    hess_err = 0.0
    h = 1e-4
    for t, x, u in zip(ts[:fd_n], xs[:fd_n], us[:fd_n]):
        grad_err = max(
            grad_err,
            rel_err(_fd_gradient(lambda z: float(cost.g(z)), x.copy(), h), cost.dx_g(x)),
            rel_err(_fd_gradient(lambda z: float(cost.l(t, z, u)), x.copy(), h), cost.dx_l(t, x, u)),
            rel_err(_fd_gradient(lambda z: float(cost.l(t, x, z)), u.copy(), h), cost.du_l(t, x, u)),
        )
        # Hessian rows against finite differences of the gradients
        fd_hxx = np.stack([_fd_gradient(lambda z: float(cost.dx_l(t, z, u)[i]), x.copy(), h)
                           for i in range(n)])
        fd_huu = np.stack([_fd_gradient(lambda z: float(cost.du_l(t, x, z)[i]), u.copy(), h)
                           for i in range(m)])
        hess_err = max(hess_err, rel_err(fd_hxx, cost.dxx_l(t, x, u)),
                       rel_err(fd_huu, cost.duu_l(t, x, u)))
    add("gradient_fd_consistency", 1e-5 - grad_err, f"worst relative gradient FD error {grad_err:.2e}")
    add("hessian_fd_consistency", 1e-4 - hess_err, f"worst relative Hessian FD error {hess_err:.2e}")

    mode = spec.certificate.mode
    delta = spec.certificate.delta
    if mode == "case1":
        m_duu = np.inf
        m_joint = np.inf
        m_shift = np.inf
        m_term = np.inf
        worst_pt = None
        for t, x, u in zip(ts, xs, us):
            duu = cost.duu_l(t, x, u)
            e1 = check_psd(duu, shift=delta)
            H = stacked_hessian(cost, t, x, u)
            e2 = check_psd(H)
            Hs = H.copy()
            Hs[n:, n:] -= delta * np.eye(m)
            e3 = check_psd(Hs)
            e4 = check_psd(cost.dxx_g(x))
            if min(e1, e2, e3, e4) < min(m_duu, m_joint, m_shift, m_term):
                worst_pt = (float(t), x.copy(), u.copy())
            m_duu, m_joint = min(m_duu, e1), min(m_joint, e2)
            m_shift, m_term = min(m_shift, e3), min(m_term, e4)
        add("case1_duu_minus_delta_psd", m_duu, f"worst eigenvalue margin {m_duu:.3g} at {worst_pt}")
        add("case1_joint_hessian_psd", m_joint, f"worst eigenvalue margin {m_joint:.3g}")
        add("case1_shifted_joint_psd", m_shift, f"worst eigenvalue margin {m_shift:.3g}")
        add("case1_terminal_hessian_psd", m_term, f"worst eigenvalue margin {m_term:.3g}")
    elif mode == "case2":
        m_term = np.inf
        m_joint = np.inf
        for t, x, u in zip(ts, xs, us):
            m_term = min(m_term, check_psd(cost.dxx_g(x), shift=delta))
            m_joint = min(m_joint, check_psd(stacked_hessian(cost, t, x, u)))
        add("case2_terminal_minus_delta_psd", m_term, f"worst eigenvalue margin {m_term:.3g}")
        add("case2_joint_hessian_psd", m_joint, f"worst eigenvalue margin {m_joint:.3g}")
        dtd_margin = _dtd_margin(spec.coeffs, spec.horizon, delta)
        add("case2_dtd_lower_bound", dtd_margin, f"min eig(D^T D) - delta = {dtd_margin:.3g} over grid")
    else:
        add("certificate_declared", 0.0, "mode 'declared': delta taken on trust")

    return ValidationReport(checks=checks)


def _dtd_margin(coeffs: CoefficientSet, horizon: float, delta: float) -> float:
    """Smallest eigenvalue of D^T D - delta I over the left nodes of a 32-step grid."""
    grid = TimeGrid(0.0, horizon, 32)
    worst = np.inf
    for t in grid.nodes[:-1]:
        D = coeffs.D.at(float(t))
        dtd = np.einsum("inm,ink->mk", D, D)
        worst = min(worst, check_psd(dtd, shift=delta))
    return worst


def build_lq_problem(*, coeffs: CoefficientSet, horizon: float, delta: float, G=None, r=None,
                     Q=None, S=None, R=None, q=None, rho=None, mode: str = "case1",
                     k_lip="auto", label: str = "lq") -> ProblemSpec:
    """ProblemSpec with the quadratic cost of the given blocks.

    The blocks go to CostModel as they are: a missing block is zero, Q, S,
    R, q, rho may be piecewise constant, and G, Q, R are symmetrized (with
    a warning beyond rounding noise).
    """
    dims = coeffs.dims
    cost = CostModel(dims.n, dims.m, G=G, r=r, Q=Q, S=S, R=R, q=q, rho=rho)
    cert = ConvexityCertificate(delta=delta, mode=mode, k_lip=k_lip)
    return ProblemSpec(dims=dims, horizon=horizon, coeffs=coeffs, cost=cost,
                       certificate=cert, label=label)


# the certificate mode each smooth family carries
_SMOOTH_MODES = {"case1_smooth": "case1", "case2_smooth": "case2"}


def build_smooth_convex_problem(
    family: str,
    dims: Dimensions,
    horizon: float,
    coeffs: CoefficientSet,
    delta: float,
    kappa_x: float = 0.0,
    kappa_u: float = 0.0,
    kappa_g: float = 0.0,
    r_u: float = 0.0,
    label: str = "",
    k_lip="auto",
) -> ProblemSpec:
    """A member of the smooth non-quadratic convex family."""
    if family == "case1_smooth":
        cost = case1_smooth_cost(dims.n, dims.m, delta, kappa_x=kappa_x, kappa_u=kappa_u, kappa_g=kappa_g)
    elif family == "case2_smooth":
        cost = case2_smooth_cost(dims.n, dims.m, delta, kappa_g=kappa_g, kappa_x=kappa_x,
                                 kappa_u=kappa_u, r_u=r_u)
        worst = _dtd_margin(coeffs, horizon, delta)
        if worst < -1e-10:
            raise ValidationFailure(
                f"case2_smooth requires D^T D >= delta I on the grid; margin {worst:.3g}"
            )
    else:
        raise StructuralError(f"unknown smooth family {family!r}")
    cert = ConvexityCertificate(delta=delta, mode=_SMOOTH_MODES[family], k_lip=k_lip)
    return ProblemSpec(dims=dims, horizon=horizon, coeffs=coeffs, cost=cost,
                       certificate=cert, label=label or family)


# ---------------------------------------------------------------------------
# JSON serialization

_TOP_KEYS = {"dims", "horizon", "coefficients", "cost", "certificate", "label"}
# the params of each cost family, in the order problem_to_json writes them
_COST_PARAMS = {
    "quadratic": ("G", "r", "Q", "S", "R", "q", "rho"),
    "case1_smooth": ("delta", "kappa_x", "kappa_u", "kappa_g"),
    "case2_smooth": ("delta", "kappa_g", "kappa_x", "kappa_u", "r_u"),
}


def _pw_to_json(pw: PiecewiseConstant):
    if pw.is_constant:
        return pw.values.tolist()
    return {"times": pw.times.tolist(), "values": pw.values.tolist()}


def _pw_from_json(obj, shape, key):
    """A constant or {"times", "values"} entry; a malformed one raises SchemaError naming key."""
    if isinstance(obj, dict) and set(obj) != {"times", "values"}:
        raise SchemaError(f"piecewise entry {key!r} must have exactly the keys times, values; "
                          f"got {sorted(obj)}")
    try:
        if isinstance(obj, dict):
            return as_piecewise(PiecewiseConstant(obj["values"], obj["times"]), shape)
        return as_piecewise(np.asarray(obj, dtype=float), shape)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"entry {key!r}: {exc}") from exc


def _require(doc, key, where):
    if key not in doc:
        raise SchemaError(f"{where} lacks required key {key!r}")
    return doc[key]


def _cost_params(cost: CostModel) -> dict:
    if cost.family == "quadratic":
        return {"G": cost.G.tolist(), "r": cost.r.tolist(),
                **{key: _pw_to_json(getattr(cost, key)) for key in ("Q", "S", "R", "q", "rho")}}
    if cost.family == "case1_smooth":
        return {"delta": cost.delta_u, "kappa_x": cost.kappa_x, "kappa_u": cost.kappa_u,
                "kappa_g": cost.kappa_g}
    return {"delta": cost.delta_g, "kappa_g": cost.kappa_g, "kappa_x": cost.kappa_x,
            "kappa_u": cost.kappa_u, "r_u": float(cost.R.values[0, 0])}


def problem_to_json(spec: ProblemSpec) -> dict:
    return {
        "dims": {"n": spec.dims.n, "m": spec.dims.m, "d": spec.dims.d},
        "horizon": spec.horizon,
        "coefficients": {
            "A": _pw_to_json(spec.coeffs.A), "B": _pw_to_json(spec.coeffs.B),
            "C": _pw_to_json(spec.coeffs.C), "D": _pw_to_json(spec.coeffs.D),
            "b": _pw_to_json(spec.coeffs.b), "sigma": _pw_to_json(spec.coeffs.sigma),
        },
        "cost": {"family": spec.cost.family, "params": _cost_params(spec.cost)},
        "certificate": {
            "delta": spec.certificate.delta,
            "mode": spec.certificate.mode,
            "k_lip": spec.certificate.k_lip,
        },
        "label": spec.label,
    }


def problem_from_json(doc: dict) -> ProblemSpec:
    if not isinstance(doc, dict):
        raise SchemaError("problem document must be a JSON object")
    extra = set(doc) - _TOP_KEYS
    if extra:
        raise SchemaError(f"unknown top-level keys: {sorted(extra)}")
    for key in ("dims", "horizon", "coefficients", "cost", "certificate"):
        _require(doc, key, "problem document")
    dims_doc = doc["dims"]
    if set(dims_doc) != {"n", "m", "d"}:
        raise SchemaError("dims must have exactly the keys n, m, d")
    dims = Dimensions(int(dims_doc["n"]), int(dims_doc["m"]), int(dims_doc["d"]))
    n, m, d = dims.n, dims.m, dims.d
    cdoc = doc["coefficients"]
    shapes = {"A": (n, n), "B": (n, m), "C": (d, n, n), "D": (d, n, m), "b": (n,), "sigma": (d, n)}
    extra = set(cdoc) - set(shapes)
    if extra:
        raise SchemaError(f"unknown coefficient keys: {sorted(extra)}")
    coeffs = CoefficientSet.build(
        dims, **{key: _pw_from_json(value, shapes[key], key) for key, value in cdoc.items()})
    cert_doc = doc["certificate"]
    extra = set(cert_doc) - {"delta", "mode", "k_lip"}
    if extra:
        raise SchemaError(f"unknown certificate keys: {sorted(extra)}")
    horizon = float(doc["horizon"])
    cost_doc = doc["cost"]
    extra = set(cost_doc) - {"family", "params"}
    if extra:
        raise SchemaError(f"unknown cost keys: {sorted(extra)}")
    family = _require(cost_doc, "family", "cost")
    if family not in _COST_PARAMS:
        raise SchemaError(f"unknown cost family {family!r}")
    params = cost_doc.get("params", {})
    extra = set(params) - set(_COST_PARAMS[family])
    if extra:
        raise SchemaError(f"unknown {family} cost params: {sorted(extra)}")
    delta = float(_require(cert_doc, "delta", "certificate"))
    mode = cert_doc.get("mode", "declared")
    k_lip = cert_doc.get("k_lip", "auto")
    label = doc.get("label", "")
    if family == "quadratic":
        block_shapes = {"G": (n, n), "r": (n,), "Q": (n, n), "S": (m, n), "R": (m, m),
                        "q": (n,), "rho": (m,)}
        blocks = {key: _pw_from_json(value, block_shapes[key], key) for key, value in params.items()}
        for key in ("G", "r"):
            if key in blocks:
                if not blocks[key].is_constant:
                    raise SchemaError(f"cost param {key!r} must be constant")
                blocks[key] = blocks[key].values
        return build_lq_problem(coeffs=coeffs, horizon=horizon, delta=delta, mode=mode,
                                k_lip=k_lip, label=label, **blocks)
    if float(params.get("delta", delta)) != delta:
        raise SchemaError(f"cost param 'delta' {params['delta']} differs from the certificate's {delta}")
    if "mode" in cert_doc and mode != _SMOOTH_MODES[family]:
        raise SchemaError(f"certificate mode {mode!r} differs from {family}'s "
                          f"{_SMOOTH_MODES[family]!r}")
    return build_smooth_convex_problem(
        family, dims, horizon, coeffs, delta,
        kappa_x=float(params.get("kappa_x", 0.0)),
        kappa_u=float(params.get("kappa_u", 0.0)),
        kappa_g=float(params.get("kappa_g", 0.0)),
        r_u=float(params.get("r_u", 0.0)),
        label=label, k_lip=k_lip,
    )
