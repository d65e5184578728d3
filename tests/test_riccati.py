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
from lcflow import riccati
from lcflow.grids import PiecewiseConstant, as_piecewise
from lcflow.presets import p1, p1_d_variant
from lcflow.riccati import (
    RiccatiSingularError,
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


def test_rk4_substep_convergence(grid, rich_lq):
    # the integrator is far below Monte Carlo error: halving substeps moves
    # the start-node state by <= 1e-8 on a problem with genuine curvature,
    # on the float path (P1-D) and on the matrix path (rich 2-D)
    for lq in (p1_d_variant(), rich_lq):
        p_coarse = solve_riccati_ode(lq, grid=grid, substeps=2).P_at(0.0)
        p_fine = solve_riccati_ode(lq, grid=grid, substeps=4).P_at(0.0)
        assert np.max(np.abs(p_coarse - p_fine)) <= 1e-8, lq.label


def test_regular_margin_monitored(grid, rich_lq):
    ric = solve_riccati_ode(p1_d_variant(), grid=grid)
    # R + D^T P D with D = 0.5, P in [1, 1.105]
    assert ric.regular_margin_min >= 1.0 - 1e-8
    ric1 = solve_riccati_ode(p1(), grid=grid)
    assert ric1.regular_margin_min == pytest.approx(1.0)
    # the matrix path: R = I and P >= 0, so K >= I; every stored state but the
    # first is the state of some RK4 stage, so the margin is at most K's
    # smallest eigenvalue there (up to the rounding of this K)
    ric2 = solve_riccati_ode(rich_lq, grid=grid)
    D, R = rich_lq.coeffs.D.values, rich_lq.cost.R.values
    K = R + np.einsum("inm,knj,ijl->kml", D, ric2.P[1:], D)
    assert 1.0 - 1e-8 <= ric2.regular_margin_min <= np.linalg.eigvalsh(K)[:, 0].min() + 1e-12


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


def _matrix_path_only(dims):
    """riccati._on_floats forced off: every problem takes the matrix path."""
    return False


_SOLUTION_ARRAYS = ("times", "P", "phi", "c", "theta_gain", "theta_offset")


def _solve_or_raise(spec, grid, substeps):
    try:
        return solve_riccati_ode(spec, grid=grid, substeps=substeps)
    except RiccatiSingularError as exc:
        return exc


def _assert_same_outcome(got, want):
    """Two oracle runs gave the same bits, or raised the same error at the same t."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, RiccatiSingularError):
        assert str(got) == str(want) and got.t == want.t
        return
    for key in _SOLUTION_ARRAYS:
        a, b = getattr(got, key), getattr(want, key)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), key
    assert got.regular_margin_min == want.regular_margin_min


@pytest.mark.parametrize("name", ["spec_p1", "spec_p1_d", "rich_lq"])
def test_oracle_equals_the_always_symmetrized_oracle_bytes(name, grid, request, monkeypatch):
    # 0.5 (p + p) is p exactly, so passing a 1 x 1 block through changes no bit of the oracle;
    # the scalar problems go through the matrix path, the one that calls _sym
    spec = request.getfixturevalue(name)
    monkeypatch.setattr("lcflow.riccati._on_floats", _matrix_path_only)
    ric = solve_riccati_ode(spec, grid=grid)
    monkeypatch.setattr("lcflow.riccati._sym", _sym_always_formed)
    ref = solve_riccati_ode(spec, grid=grid)
    _assert_same_outcome(ric, ref)


def test_symmetrized_cost_blocks_do_not_share_the_input():
    Q = np.array([[2.0]])
    spec = build_lq_problem(horizon=1.0, coeffs=p1().coeffs, G=[[1.0]], Q=Q, R=[[1.0]], delta=1.0)
    Q[0, 0] = 5.0
    assert spec.cost.Q.values[0, 0] == 2.0


# an entry is a signed zero in some draws and a number in others
_ENTRY = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.5, 1.5))
_R_ENTRY = st.one_of(st.just(0.0), st.floats(0.2, 2.0))
_SHAPES = {"A": (1, 1), "B": (1, 1), "C": (1, 1, 1), "D": (1, 1, 1), "b": (1,), "sigma": (1, 1),
           "Q": (1, 1), "S": (1, 1), "R": (1, 1), "q": (1,), "rho": (1,)}


@st.composite
def _scalar_quadratic_problems(draw):
    """A scalar quadratic problem with every block drawn, some of them piecewise in t."""
    blocks = {}
    for name, shape in _SHAPES.items():
        entry = _R_ENTRY if name == "R" else _ENTRY
        if draw(st.booleans()):
            blocks[name] = np.full(shape, draw(entry))
        else:
            times = [0.0] + sorted(draw(st.sets(st.floats(0.02, 0.98), min_size=1, max_size=3)))
            values = [np.full(shape, draw(entry)) for _ in times]
            blocks[name] = PiecewiseConstant(values, times)
    coeffs = CoefficientSet.build(Dimensions(1, 1, 1), **{k: blocks.pop(k) for k in
                                                          ("A", "B", "C", "D", "b", "sigma")})
    return build_lq_problem(horizon=1.0, coeffs=coeffs, G=[[draw(_ENTRY)]], r=[draw(_ENTRY)],
                            delta=1.0, **blocks)


@settings(max_examples=300, deadline=None)
@given(spec=_scalar_quadratic_problems(), N=st.integers(1, 60), substeps=st.integers(1, 4))
def test_float_path_equals_the_matrix_path_bytes(spec, N, substeps):
    # the float path writes each 1 x 1 product as numpy's matmul and einsum
    # compute it, so a scalar problem gets the matrix path's bits, or its error
    grid = TimeGrid(0.0, 1.0, N)
    got = _solve_or_raise(spec, grid, substeps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("lcflow.riccati._on_floats", _matrix_path_only)
        want = _solve_or_raise(spec, grid, substeps)
    _assert_same_outcome(got, want)


@pytest.mark.parametrize("name, path", [("spec_p1", "_float_terms"), ("spec_p1_d", "_float_terms"),
                                        ("spec_p1_piecewise", "_float_terms"),
                                        ("rich_lq", "_matrix_terms")])
def test_scalar_problems_take_the_float_path(name, path, grid, request, monkeypatch):
    taken = set()
    for terms in ("_float_terms", "_matrix_terms"):
        real = getattr(riccati, terms)
        monkeypatch.setattr(riccati, terms,
                            lambda *args, _terms=terms, _real=real: taken.add(_terms) or _real(*args))
    solve_riccati_ode(request.getfixturevalue(name), grid=grid)
    assert taken == {path}


def test_gains_at_a_zero_k_divide_as_numpy_does():
    # the state that ends an interval solves for its gains before any stage
    # checks its K; at K = 0 both paths divide as numpy does, into inf or nan
    values = dict(A=0.0, B=1.0, C=0.0, D=0.0, b=0.0, sigma=0.3, Q=1.0, S=-2.0, R=-0.0, q=0.0, rho=0.0)
    frozen = tuple(np.full(shape, values[k]) for k, shape in _SHAPES.items())   # _freeze's order
    with np.errstate(divide="ignore", invalid="ignore"):
        got = riccati._float_terms(frozen, None, None)[2](2.0, 0.5)
        want = riccati._matrix_terms(frozen, None, None)[2](np.array([[2.0]]), np.array([0.5]))
    for a, b in zip(got, want):
        assert np.float64(a).tobytes() == b.ravel().tobytes()
    assert np.isnan(got[0]) and got[1] == np.inf


_SCALAR_SINGULAR = [
    (-10.0, 1.0, "R + D^T G D is singular at the terminal time", 1.0),
    (-3.0, -4.0, "R + D^T P D lost positivity (min eig -8.638e-01) near t=0.95", 0.9500000000000001),
]


@pytest.mark.parametrize("dims, G, Q, message, t, on_floats", [
    *[(1, *case, True) for case in _SCALAR_SINGULAR],
    *[(1, *case, False) for case in _SCALAR_SINGULAR],
    (2, -3.0, -4.0, "R + D^T P D lost positivity (min eig -1.646e-01) near t=0.8", 0.8, False),
], ids=["scalar-at-T-floats", "scalar-backward-floats", "scalar-at-T-matrix",
        "scalar-backward-matrix", "2d-backward-matrix"])
def test_singular_k_raises_with_its_time(dims, G, Q, message, t, on_floats, rich_lq, monkeypatch):
    # K = R + D^T P D loses positivity at T (G < 0 outweighs R) or on the way back
    # (Q < 0 drives P down); a scalar problem raises the same error at the same
    # time on the float path and on the matrix path
    coeffs = rich_lq.coeffs if dims == 2 else CoefficientSet.build(
        Dimensions(1, 1, 1), B=[[1.0]], D=[[[0.5]]], sigma=[[0.3]])
    spec = build_lq_problem(horizon=1.0, coeffs=coeffs, G=G * np.eye(dims), Q=Q * np.eye(dims),
                            R=np.eye(dims), delta=1.0)
    if not on_floats:
        monkeypatch.setattr("lcflow.riccati._on_floats", _matrix_path_only)
    with pytest.raises(RiccatiSingularError) as info:
        solve_riccati_ode(spec, grid=TimeGrid(0.0, 1.0, 20))
    assert str(info.value) == message
    assert info.value.t == t
