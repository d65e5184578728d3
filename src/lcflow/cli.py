"""Command-line entry point.

Loads a problem JSON plus a run configuration, dispatches one command, and
writes report.json, run-metadata.json and plot-ready CSV tables into the
output directory.  Exit code 0 means every contract in the command's
report passed, 1 means a contract or convergence failure (report still
written), 2 means the configuration itself was unusable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .adjoint import RegressionBasis, per_path_costs
from .budgets import dpp_budget, hjb_solver_budget, lq_value_budget, mc_term, relative_budget
from .descent import DescentConfig, solve_hamiltonian
from .errors import ConvergenceError, LcflowError, SchemaError
from .feedback import build_lattice_source, feedback_field_to_csv, verify_optimality
from .grids import TimeGrid
from .paths import generate_brownian, l2_norm_array, mc_stderr
from .problem import problem_from_json, validate_problem
from .riccati import lq_value, riccati_to_csv, solve_riccati_ode
from .value import (
    RiccatiValueSource,
    SolverValueSource,
    convexity_probe,
    dpp_gap,
    evaluate_value,
    hjb_residual,
    value_surface_to_csv,
)
from .variational import riccati_state_check, riccati_state_to_csv

COMMANDS = ("solve", "value", "feedback", "verify-lq", "hjb-check", "dpp-check",
            "convexity-check", "validate")

_DEFAULTS = {
    "grid": {"N": 50},
    "monte_carlo": {"M": 20000, "seed": 7, "antithetic": True},
    "basis": {"degree": 2, "ridge": 1e-8},
    "descent": {"eta": "auto", "max_iter": 80, "tol_grad": 1e-3, "tol_step": 1e-9,
                "backtracking": False, "lipschitz_probes": 4},
    "initial": {"t": 0.0, "x": None},
    "checks": {},
    "output": {"directory": "out", "formats": ["json", "csv"]},
}

_ALLOWED_TOP = {"problem", "command", "grid", "monte_carlo", "basis", "descent",
                "initial", "checks", "output", "threads"}


class ConfigError(Exception):
    pass


def _merge(defaults, given):
    out = dict(defaults)
    for k, v in (given or {}).items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = {**out[k], **v}
        else:
            out[k] = v
    return out


def load_config(path: str, overrides=None) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    unknown = set(raw) - _ALLOWED_TOP
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = {k: _merge(_DEFAULTS[k], raw.get(k)) if k in _DEFAULTS else raw.get(k)
           for k in set(_DEFAULTS) | set(raw)}
    for k, v in (overrides or {}).items():
        if v is None:
            continue
        section, _, leaf = k.partition(".")
        if leaf:
            cfg.setdefault(section, {})
            cfg[section][leaf] = v
        else:
            cfg[section] = v
    if "problem" not in cfg or not cfg["problem"]:
        raise ConfigError("config must name a problem file")
    prob_path = Path(cfg["problem"])
    if not prob_path.is_absolute():
        prob_path = p.parent / prob_path
    if not prob_path.exists():
        raise ConfigError(f"problem file {prob_path} does not exist")
    cfg["_problem_path"] = str(prob_path)
    for key, positive in (("grid.N", True), ("monte_carlo.M", True)):
        section, leaf = key.split(".")
        val = cfg[section][leaf]
        if positive and (not isinstance(val, int) or val < 1):
            raise ConfigError(f"{key} must be a positive integer, got {val!r}")
    return cfg


def config_hash(cfg: dict) -> str:
    clean = {k: v for k, v in cfg.items() if not k.startswith("_")}
    blob = json.dumps(clean, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class Runner:
    def __init__(self, cfg: dict, out_dir: Path):
        self.cfg = cfg
        self.out_dir = out_dir
        self.tables_dir = out_dir / "tables"
        self.spec = problem_from_json(json.loads(Path(cfg["_problem_path"]).read_text(encoding="utf-8")))
        self.grid = TimeGrid(0.0, self.spec.horizon, int(cfg["grid"]["N"]))
        mc = cfg["monte_carlo"]
        self.W = generate_brownian(self.grid, int(mc["M"]), int(mc["seed"]),
                                   bool(mc.get("antithetic", True)), d=self.spec.dims.d)
        b = cfg["basis"]
        self.basis = RegressionBasis(degree=int(b["degree"]), ridge=float(b["ridge"]))
        dsc = cfg["descent"]
        eta = dsc.get("eta", "auto")
        self.dcfg = DescentConfig(
            eta=eta if eta == "auto" else float(eta),
            max_iter=int(dsc.get("max_iter", 80)),
            tol_grad=float(dsc.get("tol_grad", 1e-3)),
            tol_step=float(dsc.get("tol_step", 1e-9)),
            lipschitz_probes=int(dsc.get("lipschitz_probes", 4)),
            backtracking=bool(dsc.get("backtracking", False)),
        )
        init = cfg["initial"]
        self.t0 = float(init.get("t", 0.0))
        x = init.get("x")
        self.x0 = np.zeros(self.spec.dims.n) if x is None else np.asarray(x, dtype=float)

    # -- commands ----------------------------------------------------------

    def cmd_validate(self):
        checks = self.cfg["checks"]
        report = validate_problem(self.spec, sample_box=float(checks.get("box", 5.0)),
                                  samples=int(checks.get("samples", 200)))
        return report.to_dict(), report.passed

    def cmd_solve(self):
        try:
            sol = self._solve()
        except ConvergenceError as exc:
            return {"converged": False, "error": str(exc),
                    "grad_norm_history": list(exc.history)}, False
        rep = json.loads(sol.report.to_json())
        rep["converged"] = True
        rep["cost"] = float(per_path_costs(self.spec, sol.states, sol.controls).mean())
        return rep, True

    def cmd_verify_lq(self):
        ric = self._oracle()
        sol = self._solve()
        deriv_report = None
        if bool(self.cfg["checks"].get("with_derivative", False)):
            from .variational import freeze_second_order, solve_linear_hamiltonian

            frozen = freeze_second_order(self.spec, sol)
            deriv = solve_linear_hamiltonian(self.spec, self.grid, self.W, self.basis,
                                             sol, frozen, self.dcfg)
            deriv_report = riccati_state_check(deriv, oracle=ric)
            if "csv" in self.cfg["output"].get("formats", []):
                self.tables_dir.mkdir(parents=True, exist_ok=True)
                riccati_state_to_csv(deriv_report, self.tables_dir / "riccati_state.csv")
        costs = per_path_costs(self.spec, sol.states, sol.controls)
        j_solver = float(costs.mean())
        stderr = mc_stderr(costs, self.W.antithetic)
        V, DxV, _ = lq_value(ric, self.t0, self.x0)
        y0 = sol.adjoint.Y[:, 0].mean(axis=0)
        # reference control from the oracle gains along the solver's own paths
        wgrid = sol.grid
        ref = np.empty_like(sol.controls.values)
        for k in range(wgrid.N):
            Theta, theta = ric.gain_at(float(wgrid.nodes[k]))
            ref[:, k] = sol.states.values[:, k] @ Theta.T + theta
        dt = wgrid.dt
        num = l2_norm_array(sol.controls.values - ref, dt)
        den = max(l2_norm_array(ref, dt), 1e-12)
        checks = {
            "j_solver": j_solver, "value_oracle": V, "stderr": stderr,
            "cost_budget": lq_value_budget(wgrid.dt, V, stderr),
            "cost_ok": abs(j_solver - V) <= lq_value_budget(wgrid.dt, V, stderr),
            "y0": y0.tolist(), "dxv_oracle": np.asarray(DxV).tolist(),
            "y0_budget": relative_budget(DxV),
            "y0_ok": bool(np.max(np.abs(y0 - DxV)) <= relative_budget(DxV)),
            "control_rel_l2_err": num / den,
            "control_ok": num / den <= 0.05,
            "iterations": sol.report.iterations,
        }
        if deriv_report is not None:
            checks["riccati_state_err_max"] = deriv_report.oracle_err_max
            checks["riccati_state_ok"] = deriv_report.oracle_err_max <= 0.07
        if "csv" in self.cfg["output"].get("formats", []):
            self.tables_dir.mkdir(parents=True, exist_ok=True)
            riccati_to_csv(ric, self.tables_dir / "riccati.csv")
        ok = checks["cost_ok"] and checks["y0_ok"] and checks["control_ok"]
        if deriv_report is not None:
            ok = ok and checks["riccati_state_ok"]
        return checks, bool(ok)

    def cmd_value(self):
        checks = self.cfg["checks"]
        lattice = checks.get("value_lattice") or {}
        ts = lattice.get("t", [self.t0])
        xs = lattice.get("x", [self.x0.tolist()])
        with_hessian = bool(checks.get("with_hessian", False))
        samples = []
        for t in ts:
            for x in xs:
                samples.append(evaluate_value(self.spec, self.grid, float(t), x, self.W,
                                              self.basis, self.dcfg, with_hessian=with_hessian))
        if "csv" in self.cfg["output"].get("formats", []):
            self.tables_dir.mkdir(parents=True, exist_ok=True)
            value_surface_to_csv(samples, self.tables_dir / "value_surface.csv")
        rep = {
            "samples": [
                {"t": s.t, "x": s.x.tolist(), "V": s.V, "stderr_V": s.stderr_V,
                 "DxV": s.DxV.tolist(),
                 "DxxV": None if s.DxxV is None else np.asarray(s.DxxV).tolist(),
                 "diagnostics": s.diagnostics}
                for s in samples
            ]
        }
        return rep, True

    def _solve(self):
        return solve_hamiltonian(self.spec, self.grid, self.t0, self.x0, self.W,
                                 self.basis, self.dcfg)

    def _oracle(self):
        return solve_riccati_ode(self.spec, self.grid,
                                 substeps=int(self.cfg["checks"].get("substeps", 4)))

    def _value_source(self, sol):
        if self.spec.cost.family == "quadratic":
            return RiccatiValueSource(self._oracle())
        return build_lattice_source(self.spec, self.grid, self.t0, self.x0, self.W,
                                    self.basis, self.dcfg,
                                    points_per_dim=int(self.cfg["checks"].get("lattice_points", 21)),
                                    sol=sol)

    def cmd_feedback(self):
        checks = self.cfg["checks"]
        sol = self._solve()
        source = self._value_source(sol)
        report = verify_optimality(
            self.spec, self.grid, self.t0, self.x0, self.W, source, self.basis, self.dcfg,
            n_perturbed=int(checks.get("perturbations", 10)),
            perturb_scale=float(checks.get("perturb_scale", 0.25)),
            gain_scale=checks.get("gain_scale"), open_loop_sol=sol,
        )
        dt = self.grid.dt
        budget = lq_value_budget(dt, report.value, max(report.stderr_closed, report.stderr_open))
        ok = abs(report.gap_closed_open) <= budget and abs(report.gap_closed_value) <= budget
        sub_ok = all(p.gap_vs_closed >= -mc_term(p.stderr_gap) - budget for p in report.perturbed)
        rep = report.to_dict()
        rep["budget"] = budget
        rep["agreement_ok"] = bool(ok)
        rep["suboptimality_ok"] = bool(sub_ok)
        if "csv" in self.cfg["output"].get("formats", []):
            self.tables_dir.mkdir(parents=True, exist_ok=True)
            xs = checks.get("field_x") or [self.x0.tolist()]
            ts = checks.get("field_t") or [float(t) for t in self.grid.nodes[:-1:10]]
            feedback_field_to_csv(self.spec, source, ts, xs,
                                  self.tables_dir / "feedback_field.csv")
        return rep, bool(ok and sub_ok)

    def cmd_hjb_check(self):
        checks = self.cfg["checks"]
        samples = checks.get("hjb_samples")
        if samples is None:
            ts = np.linspace(0.15, 0.85, 3) * self.spec.horizon
            samples = [(round(float(t) / self.grid.dt) * self.grid.dt, self.x0.tolist()) for t in ts]
        source_kind = checks.get("source", "riccati_oracle" if self.spec.cost.family == "quadratic" else "solver")
        if source_kind == "riccati_oracle":
            source = RiccatiValueSource(self._oracle())
            # the oracle stores V at sub-step spacing; a wider difference in t
            # adds an O(h_t^2) error wherever P(t) is not constant
            h_t = self.grid.dt / int(checks.get("substeps", 4))
            tol = float(checks.get("oracle_tol", 1e-6))
        else:
            source = SolverValueSource(self.spec, self.grid, self.W, self.basis, self.dcfg)
            h_t = 2.0 * self.grid.dt
            tol = None
        h_t = float(checks.get("h_t", h_t))
        report = hjb_residual(self.spec, source, [(float(t), np.asarray(x, dtype=float)) for t, x in samples], h_t)
        rep = report.to_dict()
        if tol is None:
            # budget from the value stderr at the first sample
            v0 = source.sample(float(samples[0][0]), np.asarray(samples[0][1], dtype=float))
            tol = hjb_solver_budget(self.grid.dt, h_t, v0.stderr_V)
        rep["tolerance"] = tol
        ok = report.max_abs_residual <= tol
        rep["passed"] = bool(ok)
        return rep, bool(ok)

    def cmd_dpp_check(self):
        checks = self.cfg["checks"]
        h = float(checks.get("h", 0.2))
        if self.spec.cost.family == "quadratic":
            source = RiccatiValueSource(self._oracle())
        else:
            source = "fitted"
        sol = self._solve()
        gap = dpp_gap(self.spec, self.grid, self.t0, self.x0, h, self.W, self.basis,
                      self.dcfg, source, sol=sol)
        vs = evaluate_value(self.spec, self.grid, self.t0, self.x0, self.W, self.basis,
                            self.dcfg, with_hessian=False, sol=sol)
        budget = dpp_budget(self.grid.dt, 1.0 + abs(vs.V), vs.stderr_V)
        if source == "fitted":
            budget *= 5.0
        rep = {"gap": gap, "budget": budget, "value": vs.V, "passed": bool(abs(gap) <= budget)}
        return rep, rep["passed"]

    def cmd_convexity_check(self):
        checks = self.cfg["checks"]
        conv = checks.get("convexity") or {}
        pairs = conv.get("pairs", [[[-1.0] * self.spec.dims.n, [1.0] * self.spec.dims.n]])
        lambdas = conv.get("lambdas", [0.5])
        report = convexity_probe(self.spec, self.grid, self.t0,
                                 [(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
                                  for a, b in pairs],
                                 [float(v) for v in lambdas], self.W, self.basis, self.dcfg)
        rep = report.to_dict()
        return rep, report.passed()

    def run(self, command: str):
        fn = {
            "validate": self.cmd_validate,
            "solve": self.cmd_solve,
            "value": self.cmd_value,
            "feedback": self.cmd_feedback,
            "verify-lq": self.cmd_verify_lq,
            "hjb-check": self.cmd_hjb_check,
            "dpp-check": self.cmd_dpp_check,
            "convexity-check": self.cmd_convexity_check,
        }[command]
        return fn()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lcflow",
        description="Monte Carlo solver and verifier for stochastic linear-convex control",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="run configuration JSON")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override monte_carlo.seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="1 is the bit-exact mode; higher values only annotate the metadata")
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    try:
        cfg = load_config(args.config, overrides={"monte_carlo.seed": args.seed})
    except (ConfigError, SchemaError) as exc:
        print(f"lcflow: config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(os.environ.get("LCFLOW_OUT") or args.out
                   or cfg["output"].get("directory", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        runner = Runner(cfg, out_dir)
    except (SchemaError, ValueError) as exc:
        print(f"lcflow: config error: {exc}", file=sys.stderr)
        return 2

    chash = config_hash(cfg)
    try:
        report, passed = runner.run(args.command)
        error = None
    except LcflowError as exc:
        report, passed, error = {"error": str(exc)}, False, str(exc)

    report = {"command": args.command, "config_hash": chash, **report}
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, default=str) + "\n",
                                         encoding="utf-8")
    meta = {
        "config": {k: v for k, v in cfg.items() if not k.startswith("_")},
        "config_hash": chash,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "threads": args.threads,
        "wall_time_s": time.perf_counter() - t_start,
    }
    (out_dir / "run-metadata.json").write_text(json.dumps(meta, indent=2, default=str) + "\n",
                                               encoding="utf-8")
    if error is not None:
        print(f"lcflow: {error}", file=sys.stderr)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
