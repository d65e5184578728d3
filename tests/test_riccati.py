import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcflow import (
    CoefficientSet,
    Dimensions,
    StructuralError,
    TimeGrid,
    build_lq_problem,
    generate_brownian,
)
from lcflow.grids import as_piecewise
from lcflow.presets import p1, p1_d_variant
from lcflow.riccati import (
    lq_optimal_trajectory,
    lq_policy_value,
    lq_value,
    riccati_to_csv,
    solve_riccati_ode,
)
from lcflow.value import RiccatiValueSource


@pytest.fixture(scope="module")
def ric_p1(grid):
    return solve_riccati_ode(p1(), grid=grid)


def test_p1_riccati_state_is_constant_one(ric_p1):
    # P' = P^2 - 1 with P(1) = 1 has the constant solution P = 1
    assert np.max(np.abs(ric_p1.P - 1.0)) < 1e-12
    assert np.max(np.abs(ric_p1.phi)) < 1e-12


def test_p1_scalar_companion_is_linear(ric_p1, grid):
    # c' = -sigma^2 P / 2 = -0.045, c(1) = 0
    for t in (0.0, 0.25, 0.6):
        assert ric_p1.c_at(t) == pytest.approx(0.045 * (1.0 - t), abs=1e-12)


def test_zero_data_gives_zero_solution(grid):
    lq = build_lq_problem(horizon=1.0, coeffs=p1().coeffs, G=np.zeros((1, 1)), r=np.zeros(1),
                          Q=np.zeros((1, 1)), S=np.zeros((1, 1)), R=np.eye(1),
                          q=np.zeros(1), rho=np.zeros(1), delta=1.0)
    ric = solve_riccati_ode(lq, grid=grid)
    assert np.max(np.abs(ric.P)) == 0.0
    assert np.max(np.abs(ric.phi)) == 0.0
    assert np.max(np.abs(ric.c)) == 0.0
    V, DxV, DxxV = lq_value(ric, 0.3, [2.0])
    assert V == 0.0 and DxV[0] == 0.0 and DxxV[0, 0] == 0.0


def test_lq_value_terminal_matches_terminal_cost(ric_p1):
    V, DxV, DxxV = lq_value(ric_p1, 1.0, [2.0])
    assert V == pytest.approx(2.0, abs=1e-12)
    assert DxV[0] == pytest.approx(2.0, abs=1e-12)
    V0, _, _ = lq_value(ric_p1, 0.0, [0.0])
    assert V0 == pytest.approx(0.045, abs=1e-12)


def test_lq_value_outside_horizon_rejected(ric_p1):
    with pytest.raises(ValueError):
        lq_value(ric_p1, -0.2, [0.0])
    with pytest.raises(ValueError):
        lq_value(ric_p1, 1.2, [0.0])


def test_rk4_substep_convergence(grid):
    # the integrator is far below Monte Carlo error: halving substeps moves
    # the start-node state by <= 1e-8 on a problem with genuine curvature
    lq = p1_d_variant()
    p_coarse = solve_riccati_ode(lq, grid=grid, substeps=2).P_at(0.0)
    p_fine = solve_riccati_ode(lq, grid=grid, substeps=4).P_at(0.0)
    assert np.max(np.abs(p_coarse - p_fine)) <= 1e-8


def test_regular_margin_monitored(grid):
    ric = solve_riccati_ode(p1_d_variant(), grid=grid)
    # R + D^T P D with D = 0.5, P in [1, 1.105]
    assert ric.regular_margin_min >= 1.0 - 1e-8
    ric1 = solve_riccati_ode(p1(), grid=grid)
    assert ric1.regular_margin_min == pytest.approx(1.0)


def test_optimal_trajectory_realizes_the_gain(grid, ric_p1):
    spec = p1()
    W = generate_brownian(grid, 20_000, seed=41, antithetic=True)
    res = lq_optimal_trajectory(ric_p1, spec, grid, [0.0], W)
    np.testing.assert_allclose(res.U, -res.X[:, :-1], atol=1e-12)
    # oracle self-consistency of the cost
    assert abs(res.cost - 0.045) <= max(3 * grid.dt * 0.045, 4 * res.stderr) + 5e-4


def _reference_per_path_cost(cost, grid, X, U):
    """Terminal plus left-endpoint running quadratic cost, written out by hand."""
    n, m = X.shape[2], U.shape[2]
    pws = [as_piecewise(v, shape) for v, shape in
           ((cost.Q, (n, n)), (cost.S, (m, n)), (cost.R, (m, m)), (cost.q, (n,)), (cost.rho, (m,)))]
    XT = X[:, -1]
    total = 0.5 * np.einsum("pi,ij,pj->p", XT, cost.G, XT) + XT @ cost.r
    for k in range(grid.N):
        Qt, St, Rt, qt, rhot = (pw.at(float(grid.nodes[k])) for pw in pws)
        xk, uk = X[:, k], U[:, k]
        lk = (
            0.5 * np.einsum("pi,ij,pj->p", xk, Qt, xk)
            + np.einsum("pi,ij,pj->p", uk, St, xk)
            + 0.5 * np.einsum("pi,ij,pj->p", uk, Rt, uk)
            + xk @ qt + uk @ rhot
        )
        total = total + lk * grid.dt
    return total


@pytest.mark.parametrize("name", ["spec_p1", "rich_lq", "spec_p1_piecewise"])
def test_optimal_trajectory_cost_matches_reference(name, request):
    spec = request.getfixturevalue(name)
    grid = TimeGrid(0.0, spec.horizon, 20)
    W = generate_brownian(grid, 400, seed=42, antithetic=True, d=spec.dims.d)
    res = lq_optimal_trajectory(solve_riccati_ode(spec, grid=grid), spec, grid,
                                np.full(spec.dims.n, 0.2), W)
    ref = _reference_per_path_cost(spec.cost, grid, res.X, res.U)
    np.testing.assert_allclose(res.per_path_cost, ref, rtol=1e-12, atol=1e-15)


def test_policy_value_reproduces_optimum(grid):
    spec = p1()
    value, (P, phi, c) = lq_policy_value(spec, grid, [[-1.0]])
    assert P[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert value([0.0]) == pytest.approx(0.045, abs=1e-10)


def test_policy_value_wrong_gain_hand_value(grid):
    # fixed policy u = -1.3 x: m(t) = E X_t^2 solves m' = -2.6 m + 0.09 and
    # J = (1 + 1.69)/2 int m + m(1)/2 = 0.0460023 by direct integration
    spec = p1()
    value, _ = lq_policy_value(spec, grid, [[-1.3]])
    theta = -1.3
    msc = 0.09 / (-2.0 * theta)
    integral = msc * (1.0 + (np.exp(2.0 * theta) - 1.0) / (-2.0 * theta))
    hand = 0.5 * (1.0 + theta**2) * integral + 0.5 * msc * (1.0 - np.exp(2.0 * theta))
    assert hand == pytest.approx(0.0460023, abs=1e-6)
    assert value([0.0]) == pytest.approx(hand, abs=2e-5)
    # any fixed policy costs at least the optimum
    assert value([0.0]) > 0.045


def test_random_policies_cost_more(grid):
    spec = p1()
    rng = np.random.Generator(np.random.Philox(key=8))
    for _ in range(10):
        theta = rng.uniform(-2.5, 0.5)
        value, _ = lq_policy_value(spec, grid, [[theta]])
        assert value([0.4]) >= lq_value(solve_riccati_ode(spec, grid=grid), 0.0, [0.4])[0] - 1e-10


def test_csv_export_header(tmp_path, ric_p1):
    out = tmp_path / "ric.csv"
    riccati_to_csv(ric_p1, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,P_00,phi_0,c,Theta_00,theta_0"
    assert len(lines) == len(ric_p1.times) + 1


def test_non_quadratic_family_rejected(grid, spec_p2):
    with pytest.raises(StructuralError, match="not quadratic"):
        solve_riccati_ode(spec_p2, grid=grid)
    with pytest.raises(StructuralError, match="not quadratic"):
        lq_policy_value(spec_p2, grid, [[-1.0]])


@pytest.mark.parametrize("t", [0.0, 0.3, 0.55, 1.0])
def test_lq_value_answers_a_batch(rich_lq, t):
    ric = solve_riccati_ode(rich_lq, grid=TimeGrid(0.0, 1.0, 30))
    X = np.random.Generator(np.random.Philox(key=31)).normal(size=(17, 2))
    V, DxV, DxxV = lq_value(ric, t, X)
    assert V.shape == (17,) and DxV.shape == (17, 2) and DxxV.shape == (17, 2, 2)
    src_DxV, src_DxxV = RiccatiValueSource(ric).derivatives(t, X)
    for b, x in enumerate(X):
        v, dxv, dxxv = lq_value(ric, t, x)
        assert isinstance(v, float)
        np.testing.assert_allclose(V[b], v, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(DxV[b], dxv, rtol=1e-13, atol=0.0)
        np.testing.assert_array_equal(DxxV[b], dxxv)
        np.testing.assert_allclose(src_DxV[b], dxv, rtol=1e-13, atol=0.0)
        np.testing.assert_array_equal(src_DxxV[b], dxxv)


@settings(max_examples=50)
@given(a=st.floats(-1.0, 1.0), b=st.floats(0.2, 2.0), q=st.floats(0.1, 2.0),
       r=st.floats(0.1, 2.0), sigma=st.floats(0.0, 1.0), x=st.floats(-2.0, 2.0))
def test_policy_value_at_the_oracle_gain_is_the_value(a, b, q, r, sigma, x):
    # G at the algebraic Riccati root P = r (a + sqrt(a^2 + b^2 q / r)) / b^2
    # keeps P(t) constant, so the oracle's gain at t = 0 is optimal on the
    # whole horizon and its policy value is the optimal value
    P = r * (a + np.sqrt(a * a + b * b * q / r)) / (b * b)
    coeffs = CoefficientSet.build(Dimensions(1, 1, 1), A=[[a]], B=[[b]], sigma=[[sigma]])
    spec = build_lq_problem(horizon=1.0, coeffs=coeffs, G=[[P]], Q=[[q]], R=[[r]], delta=r)
    grid = TimeGrid(0.0, 1.0, 20)
    ric = solve_riccati_ode(spec, grid=grid)
    value, _ = lq_policy_value(spec, grid, *ric.gain_at(0.0))
    V, _, _ = lq_value(ric, 0.0, [x])
    assert value([x]) == pytest.approx(V, rel=1e-12, abs=1e-12)


def _sym_always_formed(a):
    """costs._sym as it was before a 1 x 1 block was passed through: 0.5 (a + a^T) formed."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


@pytest.mark.parametrize("name", ["spec_p1", "spec_p1_d", "rich_lq"])
def test_oracle_equals_the_always_symmetrized_oracle_bytes(name, grid, request, monkeypatch):
    # 0.5 (p + p) is p exactly, so passing a 1 x 1 block through changes no bit of the oracle
    spec = request.getfixturevalue(name)
    ric = solve_riccati_ode(spec, grid=grid)
    monkeypatch.setattr("lcflow.riccati._sym", _sym_always_formed)
    ref = solve_riccati_ode(spec, grid=grid)
    for key in ("P", "phi", "c", "theta_gain", "theta_offset", "times"):
        got, want = getattr(ric, key), getattr(ref, key)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), key
    assert ric.regular_margin_min == ref.regular_margin_min


def test_symmetrized_cost_blocks_do_not_share_the_input():
    Q = np.array([[2.0]])
    spec = build_lq_problem(horizon=1.0, coeffs=p1().coeffs, G=[[1.0]], Q=Q, R=[[1.0]], delta=1.0)
    Q[0, 0] = 5.0
    assert spec.cost.Q.values[0, 0] == 2.0
