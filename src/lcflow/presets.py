"""Built-in benchmark problems used by the test suites and the CLI docs.

p1: scalar LQ with unit weights and additive noise; its value is
    V(t, x) = x^2/2 + sigma^2 (T - t)/2 since the Riccati state is
    identically one, and the optimal feedback is u = -x.
p2: scalar smooth non-quadratic convex problem, same dynamics, with
    pseudo-Huber state terms replacing the quadratic ones.
zero_problem: no terminal cost and a pure control penalty; the optimum is
    u = 0 with value 0, exactly.
linear_terminal: terminal r.x and pure control penalty; the optimal
    control is the constant -r, the value gradient is r everywhere.
"""

from __future__ import annotations

from .problem import (
    CoefficientSet,
    Dimensions,
    ProblemSpec,
    build_lq_problem,
    build_smooth_convex_problem,
)


def _scalar_coeffs(A=0.0, B=1.0, C=0.0, D=0.0, b=0.0, sigma=0.3) -> CoefficientSet:
    dims = Dimensions(1, 1, 1)
    return CoefficientSet.build(
        dims,
        A=[[A]], B=[[B]], C=[[[C]]], D=[[[D]]], b=[b], sigma=[[sigma]],
    )


def p1(sigma: float = 0.3) -> ProblemSpec:
    return build_lq_problem(coeffs=_scalar_coeffs(sigma=sigma), horizon=1.0, G=[[1.0]],
                            Q=[[1.0]], R=[[1.0]], delta=1.0, mode="case1", label="P1")


def p1_d_variant(sigma: float = 0.3, d_coef: float = 0.5) -> ProblemSpec:
    return build_lq_problem(coeffs=_scalar_coeffs(D=d_coef, sigma=sigma), horizon=1.0,
                            G=[[1.0]], Q=[[1.0]], R=[[1.0]], delta=1.0, mode="case1",
                            label="P1-D")


def p2(sigma: float = 0.3, kappa_x: float = 0.5, kappa_g: float = 1.0) -> ProblemSpec:
    coeffs = _scalar_coeffs(sigma=sigma)
    return build_smooth_convex_problem(
        "case1_smooth", Dimensions(1, 1, 1), 1.0, coeffs,
        delta=1.0, kappa_x=kappa_x, kappa_u=0.0, kappa_g=kappa_g, label="P2",
    )


def zero_problem() -> ProblemSpec:
    return build_lq_problem(coeffs=_scalar_coeffs(sigma=0.0), horizon=1.0, R=[[1.0]],
                            delta=1.0, mode="case1", label="zero")


def linear_terminal(r: float = 1.0) -> ProblemSpec:
    return build_lq_problem(coeffs=_scalar_coeffs(sigma=0.0), horizon=1.0, r=[r], R=[[1.0]],
                            delta=1.0, mode="case1", label="linear-terminal")
