import numpy as np
import pytest

from lcflow import (
    DescentConfig,
    FeedbackQuery,
    RegressionBasis,
    RegularityError,
    TimeGrid,
    build_lattice_source,
    feedback_map,
    generate_brownian,
    minimize_hamiltonian_in_u,
    simulate_closed_loop,
    verify_optimality,
)
from lcflow.feedback import feedback_field_to_csv
from lcflow.paths import l2_norm_array
from lcflow.riccati import lq_optimal_trajectory, lq_policy_value, solve_riccati_ode
from lcflow.value import RiccatiValueSource


@pytest.fixture(scope="module")
def oracle_p1(grid, spec_p1):
    return RiccatiValueSource(solve_riccati_ode(spec_p1, grid=grid))


def test_quadratic_minimizer_one_step(spec_p1):
    # R = I, Q = 0, p = 2: the stationarity equation is linear, one Newton
    # step lands exactly on u = -2
    q = FeedbackQuery(t=0.0, x=np.array([0.0]), p=np.array([2.0]), q_mat=np.zeros((1, 1)))
    u = minimize_hamiltonian_in_u(spec_p1, q)
    assert u[0] == pytest.approx(-2.0, abs=1e-12)


def test_minimizer_at_rest_point(spec_p1):
    q = FeedbackQuery(t=0.0, x=np.array([0.4]), p=np.array([0.0]), q_mat=np.zeros((1, 1)))
    u = minimize_hamiltonian_in_u(spec_p1, q)
    assert u[0] == 0.0


def test_minimizer_growth_bound(spec_p2):
    # |u| <= K (1 + |x| + |p|) with a stable fitted constant across seeds
    fits = []
    for seed in (1, 2):
        rng = np.random.Generator(np.random.Philox(key=seed))
        ratios = []
        for _ in range(1000):
            x = rng.uniform(-4, 4, 1)
            p = rng.uniform(-6, 6, 1)
            qm = np.array([[abs(rng.uniform(0, 2.0))]])
            q = FeedbackQuery(t=float(rng.uniform(0, 1)), x=x, p=p, q_mat=qm)
            u = minimize_hamiltonian_in_u(spec_p2, q)
            ratios.append(abs(u[0]) / (1.0 + abs(x[0]) + abs(p[0])))
        fits.append(max(ratios))
    assert all(f < 5.0 for f in fits)
    assert abs(fits[0] - fits[1]) <= 0.5 * max(fits)


def test_minimizer_is_the_infimum(spec_p2):
    rng = np.random.Generator(np.random.Philox(key=3))

    def reduced(spec, q, u):
        return (float(u @ q.p) + 0.5 * float(u @ q.q_mat @ u)
                + float(spec.cost.l(q.t, q.x, u)))

    for _ in range(10):
        q = FeedbackQuery(t=float(rng.uniform(0, 1)), x=rng.uniform(-2, 2, 1),
                          p=rng.uniform(-3, 3, 1), q_mat=np.array([[rng.uniform(0, 1.5)]]))
        u_star = minimize_hamiltonian_in_u(spec_p2, q)
        best = reduced(spec_p2, q, u_star)
        for _ in range(50):
            u = rng.uniform(-6, 6, 1)
            assert best <= reduced(spec_p2, q, u) + 1e-12


def test_minimizer_continuity(spec_p2):
    rng = np.random.Generator(np.random.Philox(key=4))
    lips = []
    for _ in range(40):
        base = FeedbackQuery(t=0.4, x=rng.uniform(-2, 2, 1), p=rng.uniform(-3, 3, 1),
                             q_mat=np.array([[rng.uniform(0, 1.0)]]))
        du = rng.uniform(-1e-3, 1e-3, 3)
        bumped = FeedbackQuery(t=0.4, x=base.x + du[0], p=base.p + du[1],
                               q_mat=base.q_mat + abs(du[2]))
        ua = minimize_hamiltonian_in_u(spec_p2, base)
        ub = minimize_hamiltonian_in_u(spec_p2, bumped)
        dist = np.abs(du).sum()
        if dist > 1e-9:
            lips.append(abs(ub[0] - ua[0]) / dist)
    assert max(lips) < 20.0


def test_regularity_floor_enforced(spec_p1):
    q = FeedbackQuery(t=0.0, x=np.array([0.0]), p=np.array([1.0]),
                      q_mat=np.array([[-0.9]]))
    with pytest.raises(RegularityError):
        minimize_hamiltonian_in_u(spec_p1, q)


def test_feedback_map_p1(spec_p1, oracle_p1):
    for t, x in ((0.0, 0.7), (0.5, -1.2), (0.9, 0.1)):
        u = feedback_map(spec_p1, oracle_p1, t, [x])
        assert abs(u[0] + x) <= 0.05 * (1 + abs(x))


def test_feedback_map_linear_terminal(spec_linear_terminal, grid):
    ric = solve_riccati_ode(spec_linear_terminal, grid=grid)
    source = RiccatiValueSource(ric)
    for t, x in ((0.0, 0.0), (0.4, 2.0), (0.8, -1.0)):
        u = feedback_map(spec_linear_terminal, source, t, [x])
        assert u[0] == pytest.approx(-1.0, abs=1e-10)


def test_closed_loop_zero_problem(spec_zero, grid, w_small):
    ric = solve_riccati_ode(spec_zero, grid=grid)
    res = simulate_closed_loop(spec_zero, grid, 0.0, [1.0], w_small,
                               RiccatiValueSource(ric))
    assert np.max(np.abs(res.controls.values)) == 0.0
    assert res.cost == 0.0


def test_closed_loop_matches_oracle_trajectory(spec_p1, grid, w_small, oracle_p1):
    res = simulate_closed_loop(spec_p1, grid, 0.0, [0.0], w_small, oracle_p1)
    ref = lq_optimal_trajectory(oracle_p1.ric, spec_p1, grid, [0.0], w_small)
    num = l2_norm_array(res.states.values - ref.states.values, grid.dt)
    den = max(l2_norm_array(ref.states.values, grid.dt), 1e-12)
    assert num / den <= 0.05
    assert res.cost == pytest.approx(ref.cost, abs=1e-9)


def test_verify_optimality_p1(spec_p1, grid, basis, cfg, w_small, oracle_p1, sol_p1_small):
    report = verify_optimality(spec_p1, grid, 0.0, [0.0], w_small, oracle_p1, basis, cfg,
                               n_perturbed=5, gain_scale=1.3, open_loop_sol=sol_p1_small)
    budget = max(2 * grid.dt * abs(report.value) + 0.002,
                 4 * max(report.stderr_closed, report.stderr_open))
    assert abs(report.gap_closed_open) <= budget
    assert abs(report.gap_closed_value) <= budget
    for p in report.perturbed:
        assert p.gap_vs_closed >= -4 * p.stderr_gap
    # wrong-gain loop is strictly worse, by the amount the policy oracle says
    wrong, _ = lq_policy_value(spec_p1, grid, [[-1.3]])
    oracle_gap = wrong([0.0]) - 0.045
    run = report.scaled_gain
    assert run.gap_vs_closed > 4 * run.stderr_gap
    assert run.gap_vs_closed == pytest.approx(oracle_gap, rel=0.5)


def test_lattice_source_p2(spec_p2, grid, basis, cfg, w_small, sol_p2_small):
    source = build_lattice_source(spec_p2, grid, 0.0, [0.3], w_small, basis, cfg,
                                  points_per_dim=15, sol=sol_p2_small)
    res = simulate_closed_loop(spec_p2, grid, 0.0, [0.3], w_small, source)
    from lcflow import per_path_costs

    j_open = float(per_path_costs(spec_p2, sol_p2_small.states, sol_p2_small.controls).mean())
    # the feedback loop reproduces the open-loop optimum within the budget
    assert abs(res.cost - j_open) <= max(3 * grid.dt * abs(j_open) + 0.003,
                                         4 * max(res.stderr, 1e-12))
    v_fit = source.value(0.0, np.array([0.3]))
    assert abs(v_fit - j_open) <= 0.01 * (1 + abs(j_open))


def test_feedback_field_csv(tmp_path, spec_p1, oracle_p1):
    out = tmp_path / "field.csv"
    feedback_field_to_csv(spec_p1, oracle_p1, [0.0, 0.5], [[-1.0], [0.0], [1.0]], out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,x_0,u_0"
    assert len(lines) == 7


@pytest.fixture(scope="module")
def lattice_p2(spec_p2):
    grid = TimeGrid(0.0, 1.0, 20)
    W = generate_brownian(grid, 1000, seed=3, antithetic=True, d=1)
    return build_lattice_source(spec_p2, grid, 0.0, [0.3], W, RegressionBasis(degree=2, ridge=1e-8),
                                DescentConfig(eta="auto", max_iter=80, tol_grad=1e-3))


def _sources(spec_p1, spec_p2, rich_lq, lattice_p2):
    grid = TimeGrid(0.0, 1.0, 30)
    return [
        (spec_p1, RiccatiValueSource(solve_riccati_ode(spec_p1, grid=grid))),
        (rich_lq, RiccatiValueSource(solve_riccati_ode(rich_lq, grid=grid))),
        (spec_p2, lattice_p2),
    ]


@pytest.mark.parametrize("t", [0.0, 0.3, 0.55, 1.0])
def test_value_sources_answer_a_batch_bitwise(spec_p1, spec_p2, rich_lq, lattice_p2, t):
    for spec, source in _sources(spec_p1, spec_p2, rich_lq, lattice_p2):
        X = np.random.Generator(np.random.Philox(key=41)).normal(size=(13, spec.dims.n))
        V = source.value(t, X)
        DxV, DxxV = source.derivatives(t, X)
        U = feedback_map(spec, source, t, X)
        n, m = spec.dims.n, spec.dims.m
        assert V.shape == (13,) and DxV.shape == (13, n) and DxxV.shape == (13, n, n)
        assert U.shape == (13, m)
        for b, x in enumerate(X):
            v = source.value(t, x)
            dxv, dxxv = source.derivatives(t, x)
            assert isinstance(v, float), source.kind
            assert V[b] == v, source.kind
            np.testing.assert_array_equal(DxV[b], dxv)
            np.testing.assert_array_equal(DxxV[b], dxxv)
            u = feedback_map(spec, source, t, x)
            if m == 1:
                np.testing.assert_array_equal(U[b], u)
            else:
                # a BLAS matrix product inside the cost's Du_l may round a row
                # differently with the batch size
                np.testing.assert_allclose(U[b], u, rtol=1e-13, atol=0.0)
