import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lcflow import (
    CoefficientSet,
    Dimensions,
    SchemaError,
    StructuralError,
    ValidationFailure,
    build_lq_problem,
    build_smooth_convex_problem,
    problem_from_json,
    problem_to_json,
    validate_problem,
)
from lcflow.cli import main
from lcflow.costs import pseudo_huber, pseudo_huber_d2
from lcflow.presets import p1, p2


def test_dimensions_reject_nonpositive():
    with pytest.raises(StructuralError):
        Dimensions(0, 1, 1)
    with pytest.raises(StructuralError):
        Dimensions(1, -2, 1)


def test_p1_validates_clean(spec_p1):
    report = validate_problem(spec_p1, samples=60)
    assert report.passed, [c.name for c in report.checks if not c.passed]


def test_case1_with_weak_control_curvature_fails():
    # Duu_l = 0.5 I against a declared modulus of 1: margin -0.5 on the
    # shifted control block
    data = p1()
    spec = build_lq_problem(horizon=data.horizon, coeffs=data.coeffs, G=data.cost.G, r=data.cost.r,
                            Q=data.cost.Q, S=data.cost.S, R=np.array([[0.5]]), q=data.cost.q,
                            rho=data.cost.rho, delta=1.0, mode="case1")
    report = validate_problem(spec, samples=40)
    assert not report.passed
    failed = {c.name: c for c in report.checks if not c.passed}
    assert "case1_duu_minus_delta_psd" in failed
    assert failed["case1_duu_minus_delta_psd"].margin == pytest.approx(-0.5, abs=1e-12)


def test_p2_validates_with_hessian_bound(spec_p2):
    report = validate_problem(spec_p2, samples=120)
    assert report.passed
    # every second derivative of the smooth family is bounded by 1.5
    assert spec_p2.cost.k_hess <= 1.5


def test_build_lq_realizes_quadratic_derivatives(spec_p1):
    cost = spec_p1.cost
    assert cost.dx_g(np.array([2.0])) == pytest.approx([2.0])
    assert cost.at(0.3).grad_u(np.array([1.0]), np.array([3.0])) == pytest.approx([3.0])
    # l equals the quadratic form exactly
    x, u = np.array([1.3]), np.array([-0.7])
    assert float(cost.at(0.5).value(x, u)) == pytest.approx(0.5 * (1.3**2) + 0.5 * (0.7**2), abs=1e-15)


def test_build_lq_zero_weights_gives_pure_control_penalty():
    data = p1()
    spec = build_lq_problem(horizon=1.0, coeffs=data.coeffs, G=np.zeros((1, 1)), r=np.zeros(1),
                            Q=np.zeros((1, 1)), S=np.zeros((1, 1)), R=np.eye(1),
                            q=np.zeros(1), rho=np.zeros(1), delta=1.0)
    u = np.array([2.0])
    assert float(spec.cost.at(0.0).value(np.array([5.0]), u)) == pytest.approx(2.0)
    assert float(spec.cost.g(np.array([5.0]))) == 0.0


def test_rectangular_cross_weight():
    # n=2, m=1, S = [1 0]: Du_l(t, (1,5), u) = 1 + R u
    dims = Dimensions(2, 1, 1)
    coeffs = CoefficientSet.build(dims, B=[[1.0], [0.0]])
    spec = build_lq_problem(horizon=1.0, coeffs=coeffs, G=np.zeros((2, 2)), r=np.zeros(2),
                            Q=np.zeros((2, 2)), S=np.array([[1.0, 0.0]]), R=np.array([[2.0]]),
                            q=np.zeros(2), rho=np.zeros(1), delta=1.0, mode="declared")
    u = np.array([3.0])
    assert spec.cost.at(0.1).grad_u(np.array([1.0, 5.0]), u) == pytest.approx([1.0 + 2.0 * 3.0])


def test_asymmetric_weight_warns_and_symmetrizes():
    dims = Dimensions(2, 2, 1)
    coeffs = CoefficientSet.build(dims, B=np.eye(2), sigma=[[0.1, 0.1]])
    with pytest.warns(UserWarning):
        spec = build_lq_problem(horizon=1.0, coeffs=coeffs, G=np.array([[1.0, 0.3], [0.0, 1.0]]),
                                r=np.zeros(2), Q=np.eye(2), S=np.zeros((2, 2)), R=np.eye(2),
                                q=np.zeros(2), rho=np.zeros(2), delta=1.0)
    assert spec.cost.dx_g(np.array([0.0, 1.0])) == pytest.approx([0.15, 1.0])


def test_smooth_family_degenerates_to_quadratic():
    spec = build_smooth_convex_problem(
        "case1_smooth", Dimensions(1, 1, 1),
        1.0, p1().coeffs, delta=1.0, kappa_x=0.0, kappa_u=0.0, kappa_g=0.0,
    )
    u = np.array([1.5])
    assert float(spec.cost.at(0.0).value(np.array([3.0]), u)) == pytest.approx(0.5 * 1.5**2)


def test_case2_without_control_noise_rejected():
    with pytest.raises(ValidationFailure):
        build_smooth_convex_problem(
            "case2_smooth", Dimensions(1, 1, 1), 1.0, p1().coeffs,
            delta=1.0, kappa_g=0.5, r_u=0.25,
        )


def _case2_spec():
    dims = Dimensions(1, 1, 1)
    coeffs = CoefficientSet.build(dims, B=[[1.0]], D=[[[1.2]]], sigma=[[0.2]])
    return build_smooth_convex_problem("case2_smooth", dims, 1.0, coeffs,
                                       delta=1.0, kappa_g=0.5, r_u=0.25)


def test_case2_accepts_strong_control_noise():
    report = validate_problem(_case2_spec(), samples=60)
    assert report.passed


@pytest.mark.parametrize("which", ["p1", "p2"])
def test_derivative_consistency_thousand_samples(which, spec_p1, spec_p2):
    spec = spec_p1 if which == "p1" else spec_p2
    cost = spec.cost
    rng = np.random.Generator(np.random.Philox(key=3))
    ts = rng.uniform(0, 1, 1000)
    xs = rng.uniform(-5, 5, (1000, 1))
    us = rng.uniform(-5, 5, (1000, 1))
    h = 1e-4
    for t, x, u in zip(ts[:1000], xs, us):
        lt = cost.at(t)
        fd = (lt.value(x + h, u) - lt.value(x - h, u)) / (2 * h)
        ref = lt.grad_x(x, u)[0]
        assert abs(fd - ref) <= 1e-5 * (1 + abs(ref))
        fdh = (lt.grad_x(x + h, u)[0] - lt.grad_x(x - h, u)[0]) / (2 * h)
        refh = lt.hess_xx(x, u)[0, 0]
        assert abs(fdh - refh) <= 1e-4 * (1 + abs(refh))


def test_case1_shifted_joint_hessian_psd(spec_p2):
    # the running cost minus half the modulus in the control block stays convex
    cost = spec_p2.cost
    delta = spec_p2.certificate.delta
    rng = np.random.Generator(np.random.Philox(key=4))
    for _ in range(200):
        t = rng.uniform(0, 1)
        x = rng.uniform(-5, 5, 1)
        u = rng.uniform(-5, 5, 1)
        lt = cost.at(t)
        H = np.zeros((2, 2))
        H[0, 0] = lt.hess_xx(x, u)[0, 0]
        H[0, 1] = H[1, 0] = lt.hess_ux(x, u)[0, 0]
        H[1, 1] = lt.hess_uu(x, u)[0, 0] - delta
        assert np.linalg.eigvalsh(H)[0] >= -1e-12


def test_pseudo_huber_peak_curvature():
    # second derivative peaks at one for z = 0 and decays
    zs = np.linspace(-10, 10, 2001)
    d2 = pseudo_huber_d2(zs)
    assert d2.max() == pytest.approx(1.0)
    assert abs(zs[int(d2.argmax())]) < 1e-9
    assert pseudo_huber(np.array([0.0]))[0] == 0.0


def test_json_round_trip(spec_p1, spec_p2):
    for spec in (spec_p1, spec_p2):
        doc = problem_to_json(spec)
        spec2 = problem_from_json(json.loads(json.dumps(doc)))
        x, u = np.array([0.7]), np.array([-0.4])
        value = float(spec.cost.at(0.3).value(x, u))
        assert float(spec2.cost.at(0.3).value(x, u)) == pytest.approx(value)
        assert float(spec2.cost.g(x)) == pytest.approx(float(spec.cost.g(x)))
        assert spec2.certificate.delta == spec.certificate.delta
        np.testing.assert_allclose(spec2.coeffs.sigma.at(0.0), spec.coeffs.sigma.at(0.0))


def test_json_rejects_unknown_keys(spec_p1):
    doc = problem_to_json(spec_p1)
    doc["what"] = 1
    with pytest.raises(SchemaError):
        problem_from_json(doc)
    doc = problem_to_json(spec_p1)
    doc["coefficients"]["X"] = []
    with pytest.raises(SchemaError):
        problem_from_json(doc)


def _drop_values(doc):
    doc["coefficients"]["A"] = {"times": [0.0, 0.5]}


def _drop_delta(doc):
    del doc["certificate"]["delta"]


def _unknown_param(doc):
    doc["cost"]["params"]["Z"] = 3


def _wrong_shape(doc):
    doc["cost"]["params"]["Q"] = [[1.0, 0.0], [0.0, 1.0]]


# a section that is not a JSON object
def _scalar_certificate(doc):
    doc["certificate"] = 1.0


def _list_coefficients(doc):
    doc["coefficients"] = ["A"]


def _list_dims(doc):
    doc["dims"] = ["n", "m", "d"]


def _list_params(doc):
    doc["cost"]["params"] = ["G"]


def _string_cost(doc):
    doc["cost"] = "quadratic"


# a dimension that is not an integer, which must not be rounded to one
def _fractional_n(doc):
    doc["dims"]["n"] = 1.7


def _string_n(doc):
    doc["dims"]["n"] = "1"


def _boolean_n(doc):
    doc["dims"]["n"] = True


@pytest.mark.parametrize("corrupt, key", [
    (_drop_values, "A"), (_drop_delta, "delta"), (_unknown_param, "Z"), (_wrong_shape, "Q"),
    (_scalar_certificate, "certificate"), (_list_coefficients, "coefficients"),
    (_list_dims, "dims"), (_list_params, "params"), (_string_cost, "cost"),
    (_fractional_n, "n"), (_string_n, "n"), (_boolean_n, "n"),
])
def test_malformed_document_raises_schema_error(corrupt, key, spec_p1, tmp_path):
    doc = problem_to_json(spec_p1)
    corrupt(doc)
    # Dimensions checks its own entries
    error = StructuralError if key == "n" else SchemaError
    with pytest.raises(error, match=repr(key)):
        problem_from_json(doc)
    (tmp_path / "p.json").write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "run.json").write_text(json.dumps({"problem": "p.json"}), encoding="utf-8")
    assert main(["validate", "--config", str(tmp_path / "run.json"),
                 "--out", str(tmp_path / "out")]) == 2


def test_piecewise_coefficients_round_trip(spec_p1):
    doc = problem_to_json(spec_p1)
    doc["coefficients"]["A"] = {"times": [0.0, 0.5], "values": [[[0.0]], [[1.0]]]}
    spec = problem_from_json(doc)
    assert spec.coeffs.A.at(0.25)[0, 0] == pytest.approx(0.0)
    assert spec.coeffs.A.at(0.75)[0, 0] == pytest.approx(1.0)
    # right-continuity at the breakpoint
    assert spec.coeffs.A.at(0.5)[0, 0] == pytest.approx(1.0)


def test_structural_error_on_bad_shape():
    dims = Dimensions(2, 1, 1)
    with pytest.raises((StructuralError, ValueError)):
        CoefficientSet.build(dims, A=[[1.0]])


def test_smooth_certificate_keeps_k_lip_and_checks_mode(spec_p2):
    doc = problem_to_json(spec_p2)
    doc["certificate"]["k_lip"] = 2.0
    spec = problem_from_json(doc)
    assert spec.certificate.k_lip == 2.0
    assert spec.certificate.mode == spec_p2.certificate.mode
    assert problem_to_json(spec)["certificate"] == doc["certificate"]
    doc["certificate"]["mode"] = "declared"
    with pytest.raises(SchemaError, match="mode 'declared'"):
        problem_from_json(doc)


# every number of a problem document, as (problem, path in the document); k_lip may be "auto"
_NUMBERS = ([(which, ("horizon",)) for which in ("p1", "p2", "case2")]
            + [(which, ("certificate", "delta")) for which in ("p1", "p2", "case2")]
            + [("p2", ("certificate", "k_lip"))]
            + [("p2", ("cost", "params", key)) for key in ("delta", "kappa_x", "kappa_u", "kappa_g")]
            + [("case2", ("cost", "params", key))
               for key in ("delta", "kappa_g", "kappa_x", "kappa_u", "r_u")])

_NOT_NUMBERS = st.one_of(
    st.booleans(), st.none(), st.text(max_size=4).filter(lambda s: s != "auto"),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(_NUMBERS), value=_NOT_NUMBERS)
def test_a_number_of_another_json_type_names_its_key(case, value, tmp_path, capsys):
    # these used to be cast by float(): "horizon": true read as 1.0, [1.0] a TypeError
    which, path = case
    doc = problem_to_json({"p1": p1, "p2": p2, "case2": _case2_spec}[which]())
    entry = doc
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    with pytest.raises(SchemaError, match=re.escape(".".join(path))):
        problem_from_json(json.loads(json.dumps(doc)))
    (tmp_path / "p.json").write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "run.json").write_text(json.dumps({"problem": "p.json"}), encoding="utf-8")
    assert main(["validate", "--config", str(tmp_path / "run.json"),
                 "--out", str(tmp_path / "out")]) == 2
    assert ".".join(path) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
