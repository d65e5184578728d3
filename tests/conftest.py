import numpy as np
import pytest
from hypothesis import settings

from lcflow import (
    CoefficientSet,
    DescentConfig,
    Dimensions,
    PiecewiseConstant,
    RegressionBasis,
    TimeGrid,
    build_lq_problem,
    generate_brownian,
    solve_hamiltonian,
)
from lcflow.presets import linear_terminal, p1, p1_d_variant, p2, zero_problem

# every property test draws the same examples on every run and keeps no example
# database; each test sets only its own max_examples
settings.register_profile("lcflow", derandomize=True, database=None, deadline=None)
settings.load_profile("lcflow")


@pytest.fixture(scope="session")
def grid():
    return TimeGrid(0.0, 1.0, 50)


@pytest.fixture(scope="session")
def basis():
    return RegressionBasis(degree=2, ridge=1e-8)


@pytest.fixture(scope="session")
def cfg():
    return DescentConfig(eta="auto", max_iter=80, tol_grad=1e-3)


@pytest.fixture(scope="session")
def w_small(grid):
    # unit-test scale; antithetic keeps odd functionals exactly centered
    return generate_brownian(grid, 4000, seed=7, antithetic=True, d=1)


@pytest.fixture(scope="session")
def spec_p1():
    return p1()


@pytest.fixture(scope="session")
def spec_p1_nonoise():
    return p1(sigma=0.0)


@pytest.fixture(scope="session")
def spec_p1_d():
    return p1_d_variant()


@pytest.fixture(scope="session")
def spec_p1_piecewise():
    # P1 with the state weight doubled from t = 0.5 on
    data = p1()
    return build_lq_problem(horizon=data.horizon, coeffs=data.coeffs, G=data.cost.G, r=data.cost.r,
                            Q=PiecewiseConstant([[[1.0]], [[2.0]]], [0.0, 0.5]), S=data.cost.S,
                            R=data.cost.R, q=data.cost.q, rho=data.cost.rho,
                            delta=1.0, mode="case1", label="P1-piecewise")


@pytest.fixture(scope="session")
def rich_lq():
    """n = m = d = 2 with every coefficient and cost term nonzero."""
    dims = Dimensions(2, 2, 2)
    coeffs = CoefficientSet.build(
        dims,
        A=[[0.0, 0.2], [-0.1, 0.1]],
        B=[[1.0, 0.1], [0.0, 0.9]],
        C=[[[0.1, 0.0], [0.0, -0.1]], [[0.0, 0.05], [0.05, 0.0]]],
        D=[[[0.2, 0.0], [0.0, 0.1]], [[0.0, 0.1], [0.1, 0.0]]],
        b=[0.1, -0.05],
        sigma=[[0.2, 0.1], [0.05, 0.15]],
    )
    return build_lq_problem(
        horizon=1.0, coeffs=coeffs,
        G=np.array([[1.0, 0.1], [0.1, 0.8]]), r=np.array([0.2, -0.1]),
        Q=np.array([[1.0, 0.0], [0.0, 1.2]]),
        S=np.array([[0.2, 0.1], [0.0, 0.2]]),
        R=np.array([[1.0, 0.0], [0.0, 1.0]]),
        q=np.array([0.1, 0.0]), rho=np.array([0.0, -0.1]),
        delta=0.5, mode="case1", label="rich-2d",
    )


@pytest.fixture(scope="session")
def spec_p2():
    return p2()


@pytest.fixture(scope="session")
def spec_zero():
    return zero_problem()


@pytest.fixture(scope="session")
def spec_linear_terminal():
    return linear_terminal()


@pytest.fixture(scope="session")
def sol_p1_small(spec_p1, grid, w_small, basis, cfg):
    return solve_hamiltonian(spec_p1, grid, 0.0, [0.0], w_small, basis, cfg)


@pytest.fixture(scope="session")
def sol_p1_d_small(spec_p1_d, grid, w_small, basis, cfg):
    return solve_hamiltonian(spec_p1_d, grid, 0.0, [0.4], w_small, basis, cfg)


@pytest.fixture(scope="session")
def sol_p2_small(spec_p2, grid, w_small, basis, cfg):
    return solve_hamiltonian(spec_p2, grid, 0.0, [0.3], w_small, basis, cfg)
