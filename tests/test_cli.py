import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lcflow
from lcflow.cli import _CHECKS, _DEFAULTS, _RANGES, COMMANDS, load_config, main
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
    assert report["eta"] == 0.05 and report["k_hat"] is None


def test_solve_success(workdir):
    cfg = _config(workdir)
    out = workdir / "solve"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["converged"] is True
    assert report["history"][0]["grad_norm"] >= report["final_residual"]


def test_rerun_is_bit_identical(workdir):
    runs = [("verify-lq", "problems/p1.json", {}, 2000, ["riccati.csv"]),
            ("feedback", "problems/p2.json", {"perturbations": 2}, 400, ["feedback_field.csv"]),
            ("convexity-check", "problems/p2.json", {}, 400, []),
            ("hjb-check", "problems/p1.json", {}, 400, []),
            ("hjb-check", "problems/p2.json", {"source": "solver", "hjb_samples": [[0.5, [0.0]]]},
             400, []),
            ("validate", "problems/p1.json", {}, 400, []),
            ("value", "problems/p1.json", {"with_hessian": True}, 400, ["value_surface.csv"])]
    for command, problem, checks, M, tables in runs:
        cfg = _config(workdir, problem=problem, checks=checks, monte_carlo={"M": M})
        out1, out2 = workdir / command / problem / "a", workdir / command / problem / "b"
        assert main([command, "--config", str(cfg), "--out", str(out1)]) == 0, command
        assert main([command, "--config", str(cfg), "--out", str(out2)]) == 0, command
        for name in ["report.json"] + [f"tables/{t}" for t in tables]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (command, name)


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


def test_top_level_command_key_exits_two(workdir, capsys):
    # the command comes from the command line; a "command" key used to be ignored and echoed
    cfg = _config(workdir, command="feedback")
    out = workdir / "bad"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'command'" in err
    assert not out.exists() and not (workdir / "out").exists()


def test_missing_problem_exits_two(workdir):
    path = workdir / "bad2.json"
    path.write_text(json.dumps({"problem": "problems/absent.json"}), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2


@pytest.mark.parametrize("section, bad", [
    ("descent", {"lipschitz_probes": 0}),   # a key that no longer exists, see below
    ("descent", {"max_iter": -1}),
    ("initial", {"t": 0.033}),          # off the grid
    ("initial", {"t": 1.0}),            # the horizon itself
    ("initial", {"x": [0.0, 1.0]}),     # n = 1
    # an unknown key in a section, which would otherwise fall back to its default
    ("grid", {"steps": 5}),
    ("monte_carlo", {"paths": 100}),
    ("basis", {"degre": 3}),
    ("descent", {"max_iters": 2}),
    ("initial", {"x0": [1.0]}),
    ("checks", {"perturbation": 3}),
    ("output", {"format": ["json"]}),
    # a key that feedback reads and dpp-check does not, which would otherwise be ignored
    ("checks", {"perturbations": 3}),
    # a value without its default's JSON type, which used to be cast or to fail mid-run
    ("checks", {"h": "0.2"}),
    ("descent", {"backtracking": "no"}),    # a key that no longer exists, see below
    ("monte_carlo", {"antithetic": "false"}),
    ("descent", {"max_iter": 2.5}),
    ("descent", {"eta": "fast"}),
    ("basis", {"degree": True}),
    # a key that no longer exists: the step-size stop declared a stalled descent converged
    ("descent", {"tol_step": 1e-9}),
    # nor these: the step eta = delta / K needs no line search, and the probe count is fixed
    ("descent", {"backtracking": False}),
    # what the Brownian draw rejects, caught before it
    ("monte_carlo", {"M": 401}),
    ("monte_carlo", {"seed": -1}),
    # an entry that names no format, which used to be ignored
    ("output", {"formats": ["xml"]}),
])
def test_unusable_config_value_exits_two(section, bad, workdir, capsys):
    sections = {"monte_carlo": {"M": 400}}
    sections[section] = {**sections.get(section, {}), **bad}
    cfg = _config(workdir, **sections)
    out = workdir / "bad"
    assert main(["dpp-check", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and next(iter(bad)) in err
    assert not out.exists() and not (workdir / "out").exists()


@pytest.mark.parametrize("command, checks", [
    ("feedback", {"perturbations": "abc"}),
    ("verify-lq", {"with_derivative": "no"}),
    ("hjb-check", {"source": "oracle"}),      # would run the solver source under its tolerance
    ("feedback", {"lattice_points": 21}),     # the lattice evaluates its regressions: no table
    # a value of the right JSON type but the wrong range or shape, which used to fail mid-run
    ("convexity-check", {"convexity": {"lambdas": [2.0]}}),
    ("convexity-check", {"convexity": {"lambdas": [0.5, 1.0]}}),
    ("convexity-check", {"convexity": {"pairs": 3}}),
    ("convexity-check", {"convexity": {"pairs": [[[0.0], [1.0, 2.0]]]}}),   # n = 1
    ("convexity-check", {"convexity": {"lambda": [0.5]}}),
    ("validate", {"samples": 0}),
    ("hjb-check", {"h_t": "x"}),
    ("hjb-check", {"h_t": 0.0}),
    ("feedback", {"gain_scale": "big"}),
    ("verify-lq", {"substeps": 0}),
    # a key whose default is null, of the wrong shape, which used to fail mid-run or after it
    ("value", {"value_lattice": 3}),
    ("hjb-check", {"hjb_samples": [[0.5]]}),
    ("feedback", {"field_x": 2.0}),
    ("feedback", {"field_t": "a"}),
    # a time the grid (N=10, dt=0.1) or the horizon rejects, which used to fail inside the run
    ("value", {"value_lattice": {"t": [0.05]}}),
    ("value", {"value_lattice": {"t": [1.0]}}),
    ("hjb-check", {"hjb_samples": [[0.05, [0.0]]], "source": "solver"}),
    ("hjb-check", {"h_t": 0.03, "source": "solver"}),
    ("hjb-check", {"hjb_samples": [[2.0, [0.0]]]}),      # the oracle source
    ("dpp-check", {"h": 0.05}),
    ("dpp-check", {"h": 1.0}),
    ("feedback", {"field_t": [2.0]}),
    # keys that are constants now: feedback.PERTURB_SCALE and problem.DEFAULT_BOX
    ("feedback", {"perturb_scale": 0.5}),
    ("validate", {"box": 3.0}),
])
def test_unusable_checks_value_exits_two(command, checks, workdir, capsys):
    cfg = _config(workdir, checks=checks, grid={"N": 10}, monte_carlo={"M": 400})
    out = workdir / "bad"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and next(iter(checks)) in err
    assert not out.exists() and not (workdir / "out").exists()


@pytest.mark.parametrize("x", [{"a": 1}, "abc", 0.0, [0.0, 1.0], ["a"]])
def test_initial_x_is_checked_before_use(x, workdir, capsys):
    # a point of R^1 is a list of one number here, not a bare number
    cfg = _config(workdir, initial={"x": x}, monte_carlo={"M": 400})
    out = workdir / "bad"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "initial.x" in err
    assert not out.exists() and not (workdir / "out").exists()


def test_field_t_beyond_the_horizon_exits_two_on_p2(workdir, capsys):
    # the lattice source used to snap t = 2 to the horizon and exit 0
    cfg = _config(workdir, problem="problems/p2.json", checks={"field_t": [0.5, 2.0]},
                  monte_carlo={"M": 400})
    out = workdir / "bad"
    assert main(["feedback", "--config", str(cfg), "--out", str(out)]) == 2
    assert "checks.field_t" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("checks", [
    {"h_t": 0.6},                                       # the oracle source, default samples
    {"h_t": 0.6, "source": "solver"},                   # a multiple of dt, default samples
    {"h_t": 0.6, "hjb_samples": [[0.0, [0.0]], [0.5, [0.0]]]},
])
def test_h_t_without_room_at_a_sample_exits_two(checks, workdir, capsys):
    # hjb_residual differences one-sidedly at an end of [0, T], so a sample t needs
    # t - h_t >= 0 or t + h_t <= T; the sample at T/2 has neither, which used to fail inside
    # the run (N=10, dt=0.1)
    cfg = _config(workdir, checks=checks, grid={"N": 10}, monte_carlo={"M": 400})
    out = workdir / "bad"
    assert main(["hjb-check", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "checks.h_t" in err
    assert not out.exists() and not (workdir / "out").exists()


def test_h_t_with_room_at_every_sample_runs(workdir):
    # one-sided differences at both ends: t = 0 forward, t = 0.9 backward
    cfg = _config(workdir, checks={"h_t": 0.6, "hjb_samples": [[0.0, [0.0]], [0.9, [0.5]]]},
                  grid={"N": 10}, monte_carlo={"M": 400})
    out = workdir / "hjb"
    assert main(["hjb-check", "--config", str(cfg), "--out", str(out)]) != 2
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["tolerance"] > 0


@pytest.mark.parametrize("N, checks, key", [
    (2, {}, "checks.hjb_samples"),      # the default sample near 0.85 T rounds to the horizon
    (3, {}, "checks.hjb_samples"),
    (2, {"hjb_samples": [[0.5, [0.0]]]}, "checks.h_t"),     # 2 dt = T leaves no room at T/2
])
def test_worked_out_hjb_values_on_a_tiny_grid_exit_two(N, checks, key, workdir, capsys):
    # under the solver source the default samples and h_t = 2 dt used to fail inside the run
    cfg = _config(workdir, problem="problems/p2.json", checks=checks, grid={"N": N},
                  monte_carlo={"M": 200})
    out = workdir / "bad"
    assert main(["hjb-check", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "got null, which works out to" in err
    assert not out.exists() and not (workdir / "out").exists()


@pytest.mark.parametrize("N", [2, 3])
def test_hjb_oracle_source_on_a_tiny_grid_runs(N, workdir):
    # the oracle source takes samples anywhere in [0, T], and h_t = dt / 4 has room at each
    cfg = _config(workdir, grid={"N": N}, monte_carlo={"M": 200})
    out = workdir / "hjb"
    assert main(["hjb-check", "--config", str(cfg), "--out", str(out)]) != 2
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["source"] == "riccati_oracle" and len(report["entries"]) == 3


def test_problem_its_builder_rejects_exits_two(workdir, capsys):
    # case2_smooth needs D^T D >= delta I: D = 0.5, delta = 1 misses it by 0.75, which the
    # builder raises as a ValidationFailure inside Runner and used to escape as a traceback
    doc = {"dims": {"n": 1, "m": 1, "d": 1}, "horizon": 1.0,
           "coefficients": {"A": [[0.0]], "B": [[1.0]], "C": [[[0.0]]], "D": [[[0.5]]],
                            "b": [0.0], "sigma": [[0.2]]},
           "cost": {"family": "case2_smooth",
                    "params": {"delta": 1.0, "kappa_g": 0.5, "kappa_x": 0.0, "kappa_u": 0.0,
                               "r_u": 0.25}},
           "certificate": {"delta": 1.0, "mode": "case2", "k_lip": "auto"}}
    (workdir / "problems" / "case2.json").write_text(json.dumps(doc), encoding="utf-8")
    cfg = _config(workdir, problem="problems/case2.json", monte_carlo={"M": 400})
    out = workdir / "bad"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "margin -0.75" in err
    assert not out.exists() and not (workdir / "out").exists()


@pytest.mark.parametrize("h, usable", [(2.0, True), (2.0 + 5e-10, True), (2.0 + 5e-9, False),
                                       (0.5, False), (9.0, True), (10.0, False)])
def test_dpp_step_is_checked_as_dpp_gap_checks_it(h, usable, workdir, capsys):
    # on T=10, N=10 (dt=1) the gap takes h within 1e-9 of a multiple of dt, not within the
    # grid's node slack of 1e-9 T; a step the gap rejects exits 2 before the solve
    doc = problem_to_json(p1())
    doc["horizon"] = 10.0
    (workdir / "problems" / "p1_T10.json").write_text(json.dumps(doc), encoding="utf-8")
    cfg = _config(workdir, problem="problems/p1_T10.json", checks={"h": h}, grid={"N": 10},
                  monte_carlo={"M": 200}, initial={"t": 0.0, "x": [0.2]})
    out = workdir / "dpp"
    code = main(["dpp-check", "--config", str(cfg), "--out", str(out)])
    if usable:
        assert code != 2 and (out / "report.json").exists()
    else:
        assert code == 2 and "checks.h" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("formats, tables", [(["json"], False), ([], False), (["csv"], True)])
def test_formats_gate_the_tables_only(formats, tables, workdir):
    cfg = _config(workdir, output={"formats": formats}, monte_carlo={"M": 400})
    out = workdir / "lq"
    main(["verify-lq", "--config", str(cfg), "--out", str(out)])
    assert (out / "report.json").exists() and (out / "run-metadata.json").exists()
    assert (out / "tables" / "riccati.csv").exists() == tables


@pytest.mark.parametrize("problem, checks", [
    ("problems/p1.json", {"source": "solver", "oracle_tol": 1.0}),
    ("problems/p1.json", {"source": "solver", "substeps": 8}),
    # a cost that is not quadratic has no oracle: the source is the solver
    ("problems/p2.json", {"oracle_tol": 1.0}),
    ("problems/p2.json", {"substeps": 8}),
])
def test_hjb_oracle_keys_under_the_solver_source_exit_two(problem, checks, workdir, capsys):
    cfg = _config(workdir, problem=problem, checks=checks, monte_carlo={"M": 400})
    out = workdir / "bad"
    assert main(["hjb-check", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "solver source" in err and next(iter(checks)) in err
    assert not out.exists() and not (workdir / "out").exists()


@pytest.mark.parametrize("checks", [
    {"oracle_tol": 1e-5, "substeps": 8},
    {"source": "riccati_oracle", "oracle_tol": 1e-5, "substeps": 8},
])
def test_hjb_oracle_source_reads_its_keys(checks, workdir):
    cfg = _config(workdir, checks=checks, monte_carlo={"M": 400})
    out = workdir / "hjb"
    assert main(["hjb-check", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["source"] == "riccati_oracle" and report["tolerance"] == 1e-5
    assert report["h_t"] == pytest.approx(1.0 / (20 * 8), rel=1e-12)


@pytest.mark.parametrize("command, checks", [
    ("dpp-check", {}),
    ("verify-lq", {}),
    ("hjb-check", {"source": "riccati_oracle"}),
])
def test_the_oracle_on_a_cost_that_is_not_quadratic_exits_two(command, checks, workdir, capsys):
    # the Riccati oracle solves only a quadratic cost: verify-lq and the oracle source used to
    # exit 1 from inside the run, and dpp-check fell back on a regression of the paths' own
    # cost-to-go, whose mean is theirs, so that its gap read zero whatever the control
    cfg = _config(workdir, problem="problems/p2.json", checks=checks, monte_carlo={"M": 400})
    out = workdir / "bad"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(p2().cost.family) in err
    assert not out.exists() and not (workdir / "out").exists()


@pytest.mark.parametrize("formats", [["json"], ["json", "csv"]])
def test_feedback_table_keys_need_the_table(formats, workdir, capsys):
    # field_x and field_t place the rows of feedback_field.csv, and used to be ignored without it
    cfg = _config(workdir, problem="problems/p2.json", output={"formats": formats},
                  checks={"field_x": [[1.0], [2.0]], "field_t": [0.5], "perturbations": 1},
                  grid={"N": 10}, monte_carlo={"M": 200})
    out = workdir / "fb"
    code = main(["feedback", "--config", str(cfg), "--out", str(out)])
    if "csv" in formats:
        assert code != 2
        lines = (out / "tables" / "feedback_field.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 2
    else:
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "field_t" in err and "field_x" in err
        assert not out.exists() and not (workdir / "out").exists()


_ORACLE_VALUES = {"substeps": 3, "oracle_tol": 0.5}


@pytest.mark.parametrize("problem", ["p1", "p2"])
@pytest.mark.parametrize("command, key", sorted(
    (command, key) for command, keys in _CHECKS.items() for key in keys if key in _ORACLE_VALUES))
def test_an_oracle_key_is_read_or_exits_two(command, key, problem, workdir, monkeypatch, capsys):
    # a command that lists an oracle key reads it where it reads the oracle, on P1's quadratic
    # cost, and exits 2 naming it, or the cost family, where not, on P2's
    import lcflow.cli

    substeps, solve = [], lcflow.cli.solve_riccati_ode

    def recording(*args, **kwargs):
        substeps.append(kwargs["substeps"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(lcflow.cli, "solve_riccati_ode", recording)
    value = _ORACLE_VALUES[key]
    cfg = _config(workdir, problem=f"problems/{problem}.json", checks={key: value},
                  grid={"N": 10}, monte_carlo={"M": 200})
    out = workdir / command
    code = main([command, "--config", str(cfg), "--out", str(out)])
    if problem == "p2":
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and (f"'{key}'" in err or repr(p2().cost.family) in err)
        assert not out.exists() and not (workdir / "out").exists()
    elif key == "substeps":
        assert code != 2 and substeps == [value]
    else:
        assert code != 2 and substeps == [4]
        assert json.loads((out / "report.json").read_text(encoding="utf-8"))["tolerance"] == value


_JSON_VALUES = {
    "boolean": st.booleans(),
    "integer": st.integers(-10**6, 10**6),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=6).filter(lambda s: s != "auto"),
    "list": st.lists(st.integers(), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    "null": st.none(),
}


def _json_kinds(default):
    """The kinds of JSON value that a key with this default accepts."""
    if isinstance(default, bool):
        return {"boolean"}
    if isinstance(default, int):
        return {"integer"}
    if isinstance(default, float) or default == "auto":
        return {"integer", "float"}
    return {"string" if isinstance(default, str) else "list"}


# every typed key as (command, section, key, default): the sections' keys under any command,
# the checks keys under a command that reads them
_TYPED_KEYS = sorted(
    [("solve", section, key, default) for section, keys in _DEFAULTS.items()
     for key, default in keys.items() if default is not None]
    + [(command, "checks", key, default) for command, keys in _CHECKS.items()
       for key, default in keys.items() if default is not None], key=str)


@settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_value_of_another_json_type_exits_two(data, workdir, capsys):
    command, section, key, default = data.draw(st.sampled_from(_TYPED_KEYS))
    kind = data.draw(st.sampled_from(sorted(set(_JSON_VALUES) - _json_kinds(default))))
    value = data.draw(_JSON_VALUES[kind])
    cfg = _config(workdir, **{section: {key: value}})
    out = workdir / "bad"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not out.exists() and not (workdir / "out").exists()


@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_config_takes_any_number_for_a_float_or_auto(data, workdir):
    # an integer where a float is expected, and a number for eta="auto"
    section, key = data.draw(st.sampled_from(sorted(
        (section, key) for section, keys in _DEFAULTS.items() for key, default in keys.items()
        if isinstance(default, float) or default == "auto")))
    value = data.draw(_JSON_VALUES["integer"] | _JSON_VALUES["float"])
    assert load_config(str(_config(workdir, **{section: {key: value}})))[section][key] == value


def test_checks_keys_are_the_keys_the_commands_read():
    # each command accepts exactly the checks keys that it and the helpers it calls read, so a
    # key a command starts or stops reading must be added to or dropped from cli._CHECKS
    import inspect
    import re

    from lcflow.cli import Runner

    def read(method, seen):
        source = inspect.getsource(method)
        keys = set(re.findall(r'self\.checks\["(\w+)"\]', source))
        # every Runner method it calls and every property it reads, a cached one included, so that
        # no key escapes inside a property; names set on the instance, such as checks, are data
        for name in sorted(set(re.findall(r"self\.(\w+)", source)) - seen):
            seen.add(name)
            attr = inspect.getattr_static(Runner, name, None)
            body = getattr(attr, "fget", None) or getattr(attr, "func", None) or attr
            if inspect.isfunction(body):
                keys |= read(body, seen)
        return keys

    assert set(_CHECKS) == set(COMMANDS)
    for command in COMMANDS:
        cmd = getattr(Runner, "cmd_" + command.replace("-", "_"))
        assert read(cmd, set()) == set(_CHECKS[command]), command


def test_readme_lists_every_checks_key_with_its_default():
    # the README's table of checks keys is written from cli._CHECKS and must follow it
    import re

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = set(re.findall(r"^\| `([\w-]+)` \| `(\w+)` \| `([^`]*)` \|", readme, re.M))
    assert rows == {(command, key, json.dumps(default))
                    for command, keys in _CHECKS.items() for key, default in keys.items()}


def test_range_rows_name_config_keys():
    # a renamed key must not leave a range row that tests nothing
    every_check = set().union(*_CHECKS.values())
    for key in _RANGES:
        section, leaf = key.split(".")
        assert leaf in (every_check if section == "checks" else _DEFAULTS.get(section, {})), key


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
    # convexity-check does not read h
    out2 = workdir / "cvx"
    assert main(["convexity-check", "--config", str(_config(workdir)), "--out", str(out2)]) == 0


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


def test_hjb_command_solver_source_at_the_horizon(workdir):
    # at N=10 the last default sample, t = 0.8, and h_t = 2 dt reach T, where the solver source
    # answers the terminal cost in place of a solve from the horizon
    cfg = _config(workdir, problem="problems/p2.json", grid={"N": 10}, monte_carlo={"M": 200},
                  initial={"t": 0.0, "x": [0.3]})
    out = workdir / "hjbT"
    code = main(["hjb-check", "--config", str(cfg), "--out", str(out)])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert code == 0, report
    assert report["source"] == "solver"
    assert report["entries"][-1]["t"] + report["h_t"] == pytest.approx(1.0)


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
    ("feedback", {"perturbations": 1}),
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
    # dpp-check reads the Riccati oracle, which solves P1's quadratic cost and not P2's
    problem = "problems/p1.json" if command == "dpp-check" else "problems/p2.json"
    cfg = _config(workdir, problem=problem, grid={"N": 20}, monte_carlo={"M": 1000},
                  checks=checks)
    out = workdir / command
    main([command, "--config", str(cfg), "--out", str(out)])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert "error" not in report, report
    assert len(calls) == 1


def _count_evaluations(monkeypatch):
    """Record gradient evaluations and the iterations of every descend call."""
    import lcflow.descent
    import lcflow.variational

    evals, iterations = [], []
    evaluate, descend = lcflow.descent._evaluate_gradient, lcflow.descent.descend

    def counting_evaluate(*args, **kwargs):
        evals.append(1)
        return evaluate(*args, **kwargs)

    def counting_descend(*args, **kwargs):
        sol = descend(*args, **kwargs)
        iterations.append(sol.report.iterations)
        return sol

    monkeypatch.setattr(lcflow.descent, "_evaluate_gradient", counting_evaluate)
    for module in (lcflow.descent, lcflow.variational):
        monkeypatch.setattr(module, "descend", counting_descend)
    return evals, iterations


@pytest.mark.parametrize("command, problem, checks, probe_evals, solves", [
    # the derivative solve reuses the primal K: only the primal solve probes
    ("verify-lq", "problems/p1.json", {"with_derivative": True}, 4, 2),
    # multi-point commands probe once per start time and reuse that K
    ("convexity-check", "problems/p2.json", {}, 4, 3),
    ("value", "problems/p2.json", {"value_lattice": {"t": [0.0], "x": [[-1.0], [0.0], [1.0]]}},
     4, 3),
])
def test_probe_evaluations_per_command(command, problem, checks, probe_evals, solves,
                                       workdir, monkeypatch):
    evals, iterations = _count_evaluations(monkeypatch)
    cfg = _config(workdir, problem=problem, monte_carlo={"M": 500}, checks=checks)
    out = workdir / command
    main([command, "--config", str(cfg), "--out", str(out)])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert "error" not in report, report
    assert len(iterations) == solves
    assert len(evals) == probe_evals + sum(it + 1 for it in iterations)


def _count_rebuilds(monkeypatch):
    """Count GridCost constructions and materialize calls, wherever lcflow looks them up."""
    import lcflow.costs
    import lcflow.problem

    counts = {"GridCost": 0, "materialize": 0}
    init, materialize = lcflow.costs.GridCost.__init__, lcflow.problem.materialize

    def counting_init(self, *args, **kwargs):
        counts["GridCost"] += 1
        init(self, *args, **kwargs)

    def counting_materialize(*args, **kwargs):
        counts["materialize"] += 1
        return materialize(*args, **kwargs)

    monkeypatch.setattr(lcflow.costs.GridCost, "__init__", counting_init)
    for name, module in list(sys.modules.items()):
        if name.startswith("lcflow") and getattr(module, "materialize", None) is materialize:
            monkeypatch.setattr(module, "materialize", counting_materialize)
    return counts


@pytest.mark.parametrize("command, problem, checks, grid_costs, materialized", [
    # the derivative solve, the curvature freeze and the reported costs all
    # read the subproblem the primal solve carries
    ("verify-lq", "problems/p1.json", {"with_derivative": True}, 1, 1),
    # one subproblem per solved point, its per-path cost read off the solution
    ("convexity-check", "problems/p2.json", {}, 3, 3),
    # the closed loops run on the subproblem the open-loop solve carries
    ("feedback", "problems/p2.json", {"perturbations": 10}, 1, 1),
])
def test_solution_subproblem_is_built_once(command, problem, checks, grid_costs, materialized,
                                           workdir, monkeypatch):
    counts = _count_rebuilds(monkeypatch)
    cfg = _config(workdir, problem=problem, monte_carlo={"M": 500}, checks=checks)
    out = workdir / command
    main([command, "--config", str(cfg), "--out", str(out)])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert "error" not in report, report
    assert counts == {"GridCost": grid_costs, "materialize": materialized}


def test_solve_rerun_is_bit_identical(workdir):
    # the descent's wall time goes to run-metadata.json, never to report.json
    cfg = _config(workdir, grid={"N": 50}, monte_carlo={"M": 1000, "seed": 7})
    out1, out2 = workdir / "a", workdir / "b"
    assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    meta = json.loads((out1 / "run-metadata.json").read_text(encoding="utf-8"))
    assert meta["descent_wall_time_s"] > 0.0


def test_solve_reports_regression_health_and_reruns_identically(workdir):
    # the converged evaluation's largest condition number over the steps with spread goes into
    # report.json, which a rerun reproduces byte for byte
    cfg = _config(workdir, problem="problems/p2.json", grid={"N": 50},
                  monte_carlo={"M": 1000, "seed": 7}, initial={"t": 0.0, "x": [0.3]})
    out1, out2 = workdir / "a", workdir / "b"
    assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    health = json.loads((out1 / "report.json").read_text(encoding="utf-8"))["regression"]
    assert set(health) == {"cond_max"} and 1.0 <= health["cond_max"] <= 1e4


def test_solve_blowup_reports_its_history(workdir):
    cfg = _config(workdir, grid={"N": 50}, monte_carlo={"M": 1000, "seed": 7},
                  descent={"eta": 10.0})
    out = workdir / "blowup"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["converged"] is False
    assert f"path {report['path']}, step {report['step']}" in report["error"]
    assert report["grad_norm_history"] and report["eta"] == 10.0 and report["k_hat"] is None


def test_descent_failure_reports_its_history_from_any_command(workdir):
    cfg = _config(workdir, grid={"N": 50}, monte_carlo={"M": 1000, "seed": 7},
                  descent={"eta": 10.0})
    out = workdir / "blowup-lq"
    assert main(["verify-lq", "--config", str(cfg), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["converged"] is False
    assert f"path {report['path']}, step {report['step']}" in report["error"]
    assert report["grad_norm_history"] and report["eta"] == 10.0 and report["k_hat"] is None


def test_run_metadata_counts_minor_faults_and_report_stays_identical(workdir):
    # the command's page faults go to run-metadata.json; report.json still repeats byte for byte
    pytest.importorskip("resource")
    cfg = _config(workdir, monte_carlo={"M": 400})
    out1, out2 = workdir / "a", workdir / "b"
    assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert b"minor_faults" not in (out1 / "report.json").read_bytes()
    for out in (out1, out2):
        faults = json.loads((out / "run-metadata.json").read_text(encoding="utf-8"))["minor_faults"]
        assert isinstance(faults, int) and faults >= 0


_CONFIG_KEYS = """
import json, sys
from lcflow import cli
cfg = cli.load_config(sys.argv[1])
print(json.dumps([list(cfg), {k: list(v) for k, v in cfg.items() if isinstance(v, dict)}]))
"""


def test_config_order_does_not_follow_the_hash_seed(workdir):
    # run-metadata.json echoes the config in load_config's key order, which must not come from
    # iterating a set of strings: that order changes with PYTHONHASHSEED
    cfg = _config(workdir)
    src = str(Path(lcflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    orders = []
    for seed in ("1", "2", "3"):
        done = subprocess.run([sys.executable, "-c", _CONFIG_KEYS, str(cfg)],
                              env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
                              capture_output=True, text=True, check=True, timeout=120)
        orders.append(json.loads(done.stdout.splitlines()[-1]))
    assert orders[0] == orders[1] == orders[2]
    assert orders[0][0][:len(lcflow.cli._DEFAULTS)] == list(lcflow.cli._DEFAULTS)


_SCIPY_GUARD = """
import json, sys
from lcflow import cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
seen = {"import": scipy_modules()}
cfg, out = sys.argv[1:]
for command in ("feedback", "convexity-check"):
    cli.main([command, "--config", cfg, "--out", out + "/" + command])
    seen[command] = scipy_modules()
print(json.dumps(seen))
"""


def test_cli_runs_without_loading_scipy(workdir):
    # lcflow needs numpy alone; scipy is a test dependency, so the check
    # runs in a fresh interpreter that the test session has not touched
    cfg = _config(workdir, problem="problems/p2.json", grid={"N": 10},
                  monte_carlo={"M": 200}, initial={"t": 0.0, "x": [0.3]})
    src = str(Path(lcflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", _SCIPY_GUARD, str(cfg), str(workdir / "out")],
                          env=env, capture_output=True, text=True, check=True,
                          timeout=300)
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == {"import": [], "feedback": [], "convexity-check": []}
    for command in ("feedback", "convexity-check"):
        assert (workdir / "out" / command / "report.json").is_file()
