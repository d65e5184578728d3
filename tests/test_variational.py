import json

import numpy as np
import pytest

import lcflow.variational
from lcflow import (
    DescentConfig,
    evaluate_value,
    freeze_second_order,
    generate_brownian,
    hessian_from_derivative,
    riccati_state_check,
    solve_hamiltonian,
    solve_linear_hamiltonian,
)
from lcflow.paths import l2_norm_array
from lcflow.riccati import solve_riccati_ode
from lcflow.value import fd_gradient_of_value

DERIVATIVE_ARRAYS = ("grad_X", "grad_Y", "grad_Z", "grad_u")


@pytest.fixture(scope="module")
def deriv_p1(spec_p1, basis, cfg, sol_p1_small):
    frozen = freeze_second_order(spec_p1, sol_p1_small)
    return solve_linear_hamiltonian(spec_p1, basis, sol_p1_small, frozen, cfg)


def spy_descend_paths(monkeypatch):
    """The path count of every descend call the derivative solve makes, in call order."""
    seen = []
    real = lcflow.variational.descend

    def spy(core, W, *args, **kwargs):
        seen.append(W.M)
        return real(core, W, *args, **kwargs)

    monkeypatch.setattr(lcflow.variational, "descend", spy)
    return seen


def full_ensemble_derivative(spec, basis, sol, cfg, monkeypatch):
    """The derivative solve with the noise-free predicate forced off: every direction on all M paths."""
    with monkeypatch.context() as patch:
        patch.setattr(lcflow.variational, "_noise_free", lambda spec, sc: False)
        return solve_linear_hamiltonian(spec, basis, sol, freeze_second_order(spec, sol), cfg)


def recovered_p(deriv):
    return deriv.grad_Y / deriv.grad_X       # n = 1: P = gradY (gradX)^{-1}


def test_freeze_lq_is_constant(spec_p1, sol_p1_small):
    frozen = freeze_second_order(spec_p1, sol_p1_small)
    assert np.max(np.abs(frozen.Qh - 1.0)) == 0.0
    assert np.max(np.abs(frozen.Sh)) == 0.0
    assert np.max(np.abs(frozen.Rh - 1.0)) == 0.0
    assert np.max(np.abs(frozen.Gh - 1.0)) == 0.0


def test_freeze_smooth_curvature_at_origin(spec_p2, sol_p2_small):
    # at a path point sitting at the origin the state curvature is the
    # pseudo-Huber weight itself: 0.5 * ph''(0) = 0.5
    frozen = freeze_second_order(spec_p2, sol_p2_small)
    # the pseudo-Huber state term makes the state curvature vary along the paths
    assert np.ptp(frozen.Qh) > 1e-3
    X0 = sol_p2_small.X[:, 0, 0]
    # the start states all equal 0.3; evaluate the frozen block against the
    # direct second derivative there
    lt = spec_p2.cost.at(0.0)
    d2 = lt.hess_xx(np.array([[0.3]]), np.array([[0.0]]))[0, 0, 0]
    assert np.max(np.abs(frozen.Qh[:, 0, 0, 0] - d2)) <= 1e-12
    d2_origin = lt.hess_xx(np.array([[0.0]]), np.array([[0.0]]))[0, 0, 0]
    assert d2_origin == pytest.approx(0.5)


def test_freeze_matches_finite_differences(spec_p2, sol_p2_small, grid):
    frozen = freeze_second_order(spec_p2, sol_p2_small)
    rng = np.random.Generator(np.random.Philox(key=2))
    X = sol_p2_small.X
    U = sol_p2_small.U
    h = 1e-4
    for _ in range(100):
        p = int(rng.integers(0, X.shape[0]))
        k = int(rng.integers(0, grid.N))
        t = float(grid.nodes[k])
        x, u = X[p, k], U[p, k]
        lt = spec_p2.cost.at(t)
        fd = (lt.grad_x(x + h, u)[0] - lt.grad_x(x - h, u)[0]) / (2 * h)
        ref = frozen.Qh[p, k, 0, 0]
        assert abs(fd - ref) <= 1e-4 * (1.0 + abs(ref))


def test_direction_initial_condition_is_identity(deriv_p1):
    M = deriv_p1.grad_X.shape[0]
    eye = np.broadcast_to(np.eye(1), (M, 1, 1))
    np.testing.assert_array_equal(deriv_p1.grad_X[:, 0], eye)


def test_zero_problem_derivatives_vanish(spec_zero, grid, basis, cfg):
    W = generate_brownian(grid, 512, seed=3)
    sol = solve_hamiltonian(spec_zero, grid, 0.0, [1.0], W, basis,
                            DescentConfig(eta=0.5, max_iter=5, tol_grad=1e-8))
    frozen = freeze_second_order(spec_zero, sol)
    deriv = solve_linear_hamiltonian(spec_zero, basis, sol, frozen,
                                     DescentConfig(eta=0.5, max_iter=5, tol_grad=1e-10))
    assert np.max(np.abs(deriv.grad_u)) == 0.0
    assert np.max(np.abs(deriv.grad_Y)) == 0.0
    hess = hessian_from_derivative(deriv)
    assert np.max(np.abs(hess.matrix)) <= 1e-12


def test_p1_derivative_adjoint_tracks_state(deriv_p1, grid):
    # gradY = P gradX with P = 1 on this preset
    num = l2_norm_array((deriv_p1.grad_Y - deriv_p1.grad_X)[:, :-1, :, 0], grid.dt)
    den = l2_norm_array(deriv_p1.grad_X[:, :-1, :, 0], grid.dt)
    assert num / den <= 0.05


def test_p1_closed_loop_gain_identity(deriv_p1, grid):
    # gradu = -(B^T P + S) / (R + D^T P D) gradX = -gradX on this preset
    num = l2_norm_array((deriv_p1.grad_u + deriv_p1.grad_X[:, :-1])[..., 0], grid.dt)
    den = l2_norm_array(deriv_p1.grad_X[:, :-1, :, 0], grid.dt)
    assert num / den <= 0.05


def test_hessian_from_derivative_p1(deriv_p1):
    hess = hessian_from_derivative(deriv_p1)
    assert hess.matrix[0, 0] == pytest.approx(1.0, abs=0.05)
    assert hess.asymmetry <= 1e-12
    # noise-free: every path holds the one broadcast row, exactly
    grad_Y0 = deriv_p1.grad_Y[:, 0]
    assert (grad_Y0 == grad_Y0[0]).all()


def test_riccati_state_check_p1(deriv_p1, grid, spec_p1):
    ric = solve_riccati_ode(spec_p1, grid=grid)
    rep = riccati_state_check(deriv_p1, oracle=ric)
    assert rep.min_abs_det > 0.0
    assert not rep.invertibility_flagged
    assert rep.oracle_err_max <= 0.07
    assert rep.symmetry_defect_max == 0.0


def test_difference_quotients_converge(spec_p2, grid, basis):
    # (X(x + h e) - X(x)) / h approaches the derivative column as h shrinks
    M = 4000
    W = generate_brownian(grid, M, seed=5, antithetic=True)
    tight = DescentConfig(eta="auto", max_iter=400, tol_grad=1e-6)
    x0 = 0.3
    base = solve_hamiltonian(spec_p2, grid, 0.0, [x0], W, basis, tight)
    frozen = freeze_second_order(spec_p2, base)
    deriv = solve_linear_hamiltonian(spec_p2, basis, base, frozen, tight)
    errs = []
    for h in (0.1, 0.05, 0.025):
        bumped = solve_hamiltonian(spec_p2, grid, 0.0, [x0 + h], W, basis, tight)
        dq = (bumped.X - base.X) / h
        errs.append(l2_norm_array((dq - deriv.grad_X[..., 0])[:, :-1], grid.dt))
    assert errs[0] >= errs[1] >= errs[2] - 1e-4
    C = 2.0
    tol_noise = 3 * (1e-6 / np.array([0.1, 0.05, 0.025]))
    for err, h, slack in zip(errs, (0.1, 0.05, 0.025), tol_noise):
        assert err <= C * h + slack + 0.01


def test_hessian_symmetry_and_fd_consistency_p2(spec_p2, grid, basis, cfg, w_small):
    vs = evaluate_value(spec_p2, grid, 0.0, [0.3], w_small, basis, cfg, with_hessian=True)
    assert vs.diagnostics["DxxV_asymmetry"] <= 0.05
    h = 0.1
    fd_p, _ = fd_gradient_of_value(spec_p2, grid, [0.3 + h], h=1e-3, W=w_small,
                                   basis=basis, cfg=cfg)
    fd_m, _ = fd_gradient_of_value(spec_p2, grid, [0.3 - h], h=1e-3, W=w_small,
                                   basis=basis, cfg=cfg)
    hess_fd = (fd_p[0] - fd_m[0]) / (2 * h)
    tol = max(0.05 * abs(hess_fd), 2 * 4 * vs.stderr_V)
    assert abs(vs.DxxV[0, 0] - hess_fd) <= tol + 0.05


def test_curvature_continuity_under_refinement(spec_p2, grid, basis, cfg, w_small):
    # the start-node curvature moves by at most C (|dx| + sqrt(dt))-size
    # amounts: refining the probe spacing shrinks the observed variation
    def hess_at(t, x):
        vs = evaluate_value(spec_p2, grid, t, [x], w_small, basis, cfg, with_hessian=True)
        return vs.DxxV[0, 0]

    def spread(dx, dt_probe):
        vals = [hess_at(0.0, 0.3), hess_at(0.0, 0.3 + dx), hess_at(dt_probe, 0.3)]
        return max(vals) - min(vals)

    wide = spread(0.8, 0.4)
    narrow = spread(0.4, 0.2)
    assert narrow <= wide + 0.04


def test_variational_carries_reports(deriv_p1, sol_p1_small):
    assert len(deriv_p1.reports) == 1
    # the derivative solve steps with the primal K and probes nothing
    assert deriv_p1.reports[0].k_hat == sol_p1_small.report.k_hat
    assert deriv_p1.reports[0].probe_ratios == []


def test_declared_k_lip_skips_every_probe(spec_p2, grid, basis, monkeypatch):
    import lcflow.descent
    import lcflow.variational
    from lcflow.problem import problem_from_json, problem_to_json

    doc = problem_to_json(spec_p2)
    doc["certificate"]["k_lip"] = 2.0
    spec = problem_from_json(json.loads(json.dumps(doc)))
    probes = []
    for module in (lcflow.descent, lcflow.variational):
        monkeypatch.setattr(module, "estimate_lipschitz_core",
                            lambda *args, **kwargs: probes.append(args))
    W = generate_brownian(grid, 500, seed=31, antithetic=True)
    cfg = DescentConfig(eta="auto", max_iter=80, tol_grad=1e-3)
    sol = solve_hamiltonian(spec, grid, 0.0, [0.3], W, basis, cfg)
    deriv = solve_linear_hamiltonian(spec, basis, sol, freeze_second_order(spec, sol), cfg)
    assert probes == []
    eta = spec.certificate.delta / 2.0
    assert (sol.report.eta, sol.report.k_hat, sol.report.probe_ratios) == (eta, 2.0, [])
    assert [(r.eta, r.k_hat) for r in deriv.reports] == [(eta, 2.0)]


def test_riccati_state_csv(tmp_path, deriv_p1, grid, spec_p1):
    from lcflow.riccati import solve_riccati_ode
    from lcflow.variational import riccati_state_to_csv

    ric = solve_riccati_ode(spec_p1, grid=grid)
    rep = riccati_state_check(deriv_p1, oracle=ric)
    out = tmp_path / "pstate.csv"
    riccati_state_to_csv(rep, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,err_mean,err_max"
    assert len(lines) == grid.N + 2


def test_few_path_solve_matches_the_full_ensemble(spec_p1, basis, cfg, sol_p1_small, monkeypatch):
    seen = spy_descend_paths(monkeypatch)
    few = solve_linear_hamiltonian(spec_p1, basis, sol_p1_small,
                                   freeze_second_order(spec_p1, sol_p1_small), cfg)
    full = full_ensemble_derivative(spec_p1, basis, sol_p1_small, cfg, monkeypatch)
    # the basis size of the (direction, base) features, already whole antithetic pairs
    M = sol_p1_small.W.M
    assert seen == [basis.size(2), M] == [6, M]
    # no C or D block reads Z, so neither solve fits it
    assert few.grad_Z is None and full.grad_Z is None
    for name in ("grad_X", "grad_Y", "grad_u"):
        arr = getattr(few, name)
        assert arr.shape == getattr(full, name).shape and not arr.flags.writeable
        np.testing.assert_allclose(arr, getattr(full, name), rtol=1e-12, atol=0, err_msg=name)
    np.testing.assert_allclose(recovered_p(few), recovered_p(full), rtol=1e-12, atol=0)
    assert [r.iterations for r in few.reports] == [r.iterations for r in full.reports]


def test_noisy_problem_keeps_the_full_ensemble(spec_p1_d, grid, basis, cfg, monkeypatch):
    # D != 0: the control's noise reaches the direction system
    W = generate_brownian(grid, 1000, seed=7, antithetic=True)
    sol = solve_hamiltonian(spec_p1_d, grid, 0.0, [0.0], W, basis, cfg)
    seen = spy_descend_paths(monkeypatch)
    deriv = solve_linear_hamiltonian(spec_p1_d, basis, sol, freeze_second_order(spec_p1_d, sol),
                                     cfg)
    assert seen == [W.M]
    assert deriv.grad_Z.shape == (W.M, grid.N, 1, 1, 1)    # a D block reads Z: it is fitted
    full = full_ensemble_derivative(spec_p1_d, basis, sol, cfg, monkeypatch)
    for name in DERIVATIVE_ARRAYS:
        np.testing.assert_array_equal(getattr(deriv, name), getattr(full, name), err_msg=name)
