import json

import pytest

from lcflow.cli import main
from lcflow.presets import p1, p1_d_variant, p2
from lcflow.problem import problem_to_json


@pytest.fixture()
def workdir(tmp_path):
    probs = tmp_path / "problems"
    probs.mkdir()
    (probs / "p1.json").write_text(json.dumps(problem_to_json(p1())), encoding="utf-8")
    (probs / "p2.json").write_text(json.dumps(problem_to_json(p2())), encoding="utf-8")
    return tmp_path


def _config(workdir, problem="problems/p1.json", **overrides):
    cfg = {
        "problem": problem,
        "grid": {"N": 20},
        "monte_carlo": {"M": 2000, "seed": 7, "antithetic": True},
        "basis": {"degree": 2, "ridge": 1e-8},
        "descent": {"eta": "auto", "max_iter": 80, "tol_grad": 2e-3},
        "initial": {"t": 0.0, "x": [0.0]},
        "output": {"directory": str(workdir / "out")},
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and key in cfg:
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = workdir / "run.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_validate_exits_clean(workdir):
    cfg = _config(workdir)
    code = main(["validate", "--config", str(cfg), "--out", str(workdir / "v")])
    assert code == 0
    report = json.loads((workdir / "v" / "report.json").read_text(encoding="utf-8"))
    assert report["passed"] is True
    assert report["command"] == "validate"
    assert "config_hash" in report


def test_verify_lq_passes_and_writes_tables(workdir):
    cfg = _config(workdir)
    out = workdir / "lq"
    code = main(["verify-lq", "--config", str(cfg), "--out", str(out)])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert code == 0, report
    assert report["cost_ok"] and report["y0_ok"] and report["control_ok"]
    table = (out / "tables" / "riccati.csv").read_text(encoding="utf-8").splitlines()
    assert table[0].startswith("t,P_00")
    meta = json.loads((out / "run-metadata.json").read_text(encoding="utf-8"))
    assert meta["config_hash"] == report["config_hash"]


def test_verify_lq_on_piecewise_cost(workdir, spec_p1_piecewise):
    # a time-varying Q used to be rejected as an unusable config (exit 2)
    (workdir / "problems" / "pw.json").write_text(
        json.dumps(problem_to_json(spec_p1_piecewise)), encoding="utf-8")
    cfg = _config(workdir, problem="problems/pw.json")
    out = workdir / "pw"
    code = main(["verify-lq", "--config", str(cfg), "--out", str(out)])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert code == 0, report
    assert report["cost_ok"] and report["y0_ok"] and report["control_ok"]


def test_solve_exhaustion_exits_one(workdir):
    cfg = _config(workdir, problem="problems/p2.json",
                  descent={"eta": 0.05, "max_iter": 1, "tol_grad": 1e-9},
                  initial={"t": 0.0, "x": [0.3]})
    out = workdir / "fail"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["converged"] is False
    assert "grad_norm_history" in report


def test_solve_success(workdir):
    cfg = _config(workdir)
    out = workdir / "solve"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["converged"] is True
    assert report["history"][0]["grad_norm"] >= report["final_residual"]


def test_rerun_is_bit_identical(workdir):
    cfg = _config(workdir)
    out1, out2 = workdir / "a", workdir / "b"
    assert main(["verify-lq", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["verify-lq", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "tables" / "riccati.csv").read_bytes() == (out2 / "tables" / "riccati.csv").read_bytes()


def test_seed_override_changes_numbers(workdir):
    cfg = _config(workdir)
    out1, out2 = workdir / "s1", workdir / "s2"
    main(["verify-lq", "--config", str(cfg), "--out", str(out1)])
    main(["verify-lq", "--config", str(cfg), "--out", str(out2), "--seed", "12345"])
    a = json.loads((out1 / "report.json").read_text(encoding="utf-8"))
    b = json.loads((out2 / "report.json").read_text(encoding="utf-8"))
    assert a["j_solver"] != b["j_solver"]


def test_unknown_config_key_exits_two(workdir):
    path = workdir / "bad.json"
    path.write_text(json.dumps({"problem": "problems/p1.json", "bogus": 1}), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2


def test_missing_problem_exits_two(workdir):
    path = workdir / "bad2.json"
    path.write_text(json.dumps({"problem": "problems/absent.json"}), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2


def test_env_var_overrides_output(workdir, monkeypatch):
    cfg = _config(workdir)
    target = workdir / "env_out"
    monkeypatch.setenv("LCFLOW_OUT", str(target))
    assert main(["validate", "--config", str(cfg)]) == 0
    assert (target / "report.json").exists()


def test_dpp_and_convexity_commands(workdir):
    cfg = _config(workdir, checks={"h": 0.2})
    out = workdir / "dpp"
    assert main(["dpp-check", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert abs(report["gap"]) <= report["budget"]
    out2 = workdir / "cvx"
    assert main(["convexity-check", "--config", str(cfg), "--out", str(out2)]) == 0


def test_hjb_command_oracle(workdir):
    cfg = _config(workdir)
    out = workdir / "hjb"
    assert main(["hjb-check", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["max_abs_residual"] <= report["tolerance"]


@pytest.mark.parametrize("N", [20, 50])
def test_hjb_command_oracle_with_time_varying_riccati_state(workdir, N):
    # P(t) of P1-D varies; a difference in t over 2 dt failed the exact oracle
    (workdir / "problems" / "p1d.json").write_text(
        json.dumps(problem_to_json(p1_d_variant())), encoding="utf-8")
    cfg = _config(workdir, problem="problems/p1d.json", grid={"N": N},
                  initial={"t": 0.0, "x": [0.4]})
    out = workdir / "hjbd"
    code = main(["hjb-check", "--config", str(cfg), "--out", str(out)])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert code == 0, report
    assert report["h_t"] == pytest.approx(1.0 / (4 * N), rel=1e-12)


def test_feedback_command(workdir):
    cfg = _config(workdir, checks={"perturbations": 3, "gain_scale": 1.3})
    out = workdir / "fb"
    code = main(["feedback", "--config", str(cfg), "--out", str(out)])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert code == 0, report
    assert report["agreement_ok"] and report["suboptimality_ok"]
    lines = (out / "tables" / "feedback_field.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,x_0,u_0"


def test_value_command_surface(workdir):
    cfg = _config(workdir, checks={"value_lattice": {"t": [0.0, 0.4], "x": [[-0.5], [0.5]]}})
    out = workdir / "val"
    assert main(["value", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert len(report["samples"]) == 4
    lines = (out / "tables" / "value_surface.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("t,x_0,V")
    assert len(lines) == 5


def test_verify_lq_with_derivative_table(workdir):
    cfg = _config(workdir, checks={"with_derivative": True})
    out = workdir / "lqd"
    code = main(["verify-lq", "--config", str(cfg), "--out", str(out)])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert code == 0, report
    assert report["riccati_state_ok"]
    lines = (out / "tables" / "riccati_state.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,err_mean,err_max"


def test_hjb_command_solver_source(workdir):
    cfg = _config(workdir, checks={"source": "solver",
                                   "hjb_samples": [[0.5, [0.0]]]})
    out = workdir / "hjbs"
    code = main(["hjb-check", "--config", str(cfg), "--out", str(out)])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert code == 0, report
    assert report["source"] == "solver"
    assert report["max_abs_residual"] <= report["tolerance"]


@pytest.mark.parametrize("command, checks", [
    ("feedback", {"perturbations": 1, "lattice_points": 11}),
    ("dpp-check", {"h": 0.2}),
])
def test_one_solve_per_command(command, checks, workdir, monkeypatch):
    import lcflow.cli
    import lcflow.feedback
    import lcflow.value

    calls = []
    solve = lcflow.cli.solve_hamiltonian

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    for module in (lcflow.cli, lcflow.feedback, lcflow.value):
        monkeypatch.setattr(module, "solve_hamiltonian", counting)
    cfg = _config(workdir, problem="problems/p2.json", grid={"N": 20},
                  monte_carlo={"M": 1000}, checks=checks)
    out = workdir / command
    main([command, "--config", str(cfg), "--out", str(out)])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert "error" not in report, report
    assert len(calls) == 1
