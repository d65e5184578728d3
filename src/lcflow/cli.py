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
import math
import os
import sys
import time
from dataclasses import asdict
from functools import cached_property
from pathlib import Path

try:
    import resource
except ImportError:     # not on every platform
    resource = None

import numpy as np

from . import __version__
from .adjoint import RegressionBasis
from .budgets import dpp_budget, hjb_solver_budget, lq_value_budget, mc_term, relative_budget
from .descent import DescentConfig, solve_hamiltonian
from .errors import BlowupError, ConvergenceError, LcflowError, ValidationFailure
from .feedback import build_lattice_source, feedback_field_to_csv, verify_optimality
from .grids import TimeGrid
from .paths import generate_brownian, l2_norm_array, mc_stderr
from .problem import known_keys, problem_from_json, validate_problem
from .riccati import lq_value, riccati_to_csv, solve_riccati_ode
from .value import (
    RiccatiValueSource,
    SolverValueSource,
    convexity_probe,
    dpp_gap,
    dpp_steps,
    hjb_residual,
    value_surface_to_csv,
)
from .variational import riccati_state_check, riccati_state_to_csv

COMMANDS = ("solve", "value", "feedback", "verify-lq", "hjb-check", "dpp-check",
            "convexity-check", "validate")

# each section's keys with their defaults; a given value must have its default's JSON type (_typed)
_DEFAULTS = {
    "grid": {"N": 50},
    "monte_carlo": {"M": 20000, "seed": 7, "antithetic": True},
    "basis": asdict(RegressionBasis()),
    "descent": asdict(DescentConfig()),
    "initial": {"t": 0.0, "x": None},
    "checks": {},
    "output": {"directory": "out", "formats": ["json", "csv"]},
}

_ALLOWED_TOP = {"problem", *_DEFAULTS}

_ORACLE = {"substeps": 4}      # read by Runner._oracle

# the checks keys that each command reads, those of the helpers it calls included, with their
# defaults; None where the command works the value out
_CHECKS = {
    "solve": {},
    "value": {"value_lattice": None, "with_hessian": False},
    "feedback": {"perturbations": 10, "gain_scale": None, "field_x": None, "field_t": None,
                 **_ORACLE},
    "verify-lq": {"with_derivative": False, **_ORACLE},
    "hjb-check": {"hjb_samples": None, "source": None, "oracle_tol": 1e-6, "h_t": None,
                  **_ORACLE},
    "dpp-check": {"h": 0.2, **_ORACLE},
    "convexity-check": {"convexity": None},
    "validate": {"samples": 200},
}


# the checks keys that only a run reading the Riccati oracle reads
_ORACLE_ONLY = {"oracle_tol", *_ORACLE}


class ConfigError(ValueError):
    pass


def _number(value):
    """Whether value is a finite JSON number: an int or a float, not a bool."""
    return (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and math.isfinite(value))


def _point(value, n):
    """Whether value is a point of R^n: a list of n numbers, or a number when n = 1."""
    if isinstance(value, list):
        return len(value) == n and all(map(_number, value))
    return n == 1 and _number(value)


def _listing(value, item):
    """Whether value is a non-empty list whose every entry passes item."""
    return isinstance(value, list) and len(value) > 0 and all(map(item, value))


def _node(t, r):
    """Whether t is a node of r's grid before the horizon; grid.index_of raises off the grid."""
    return _number(t) and r.grid.index_of(t) < r.grid.N


def _convexity(value, r):
    """Whether value is convexity-check's object: lambdas in (0, 1), pairs of points in R^n."""
    return (isinstance(value, dict) and set(value) <= {"lambdas", "pairs"}
            and ("lambdas" not in value
                 or _listing(value["lambdas"], lambda lam: _number(lam) and 0.0 < lam < 1.0))
            and ("pairs" not in value
                 or _listing(value["pairs"], lambda pair: isinstance(pair, list) and len(pair) == 2
                             and all(_point(x, r.n) for x in pair))))


# the values with a range or shape beyond their JSON type, tested by Runner.check in this order:
# the test on the run r of a given value, or of what r works out for a null in _WORKED_OUT, where
# raising ValueError fails, and what the value must be; a test may read what earlier rows accepted
_RANGES = {
    "initial.t": (_node, "a grid node before the horizon"),
    "initial.x": (lambda v, r: isinstance(v, list) and _point(v, r.n),
                  "a list of as many numbers as the state has coordinates"),
    "output.formats": (lambda v, r: all(f in ("json", "csv") for f in v),
                       "a list of entries among 'json' and 'csv'"),
    "checks.source": (lambda v, r: v in ("riccati_oracle", "solver"),
                      "'riccati_oracle' or 'solver'"),
    "checks.gain_scale": (lambda v, r: _number(v), "a number or null"),
    "checks.samples": (lambda v, r: v >= 1, "at least 1"),
    "checks.substeps": (lambda v, r: v >= 1, "at least 1"),
    "checks.convexity": (_convexity, "an object with lambdas, a non-empty list of numbers in "
                                     "(0, 1), and pairs, a non-empty list of pairs of points of "
                                     "the state's dimension, or either"),
    "checks.value_lattice": (lambda v, r: isinstance(v, dict) and set(v) <= {"t", "x"}
                             and ("t" not in v or _listing(v["t"], lambda t: _node(t, r)))
                             and ("x" not in v or _listing(v["x"], lambda x: _point(x, r.n))),
                             "an object with t, a non-empty list of grid nodes before the "
                             "horizon, and x, a non-empty list of points of the state's "
                             "dimension, or either"),
    "checks.hjb_samples": (lambda v, r: _listing(v, lambda s: isinstance(s, list) and len(s) == 2
                                                 and _number(s[0]) and 0 <= s[0] <= r.spec.horizon
                                                 and _point(s[1], r.n)
                                                 and (r._hjb_source() != "solver"
                                                      or _node(s[0], r))),
                           "a non-empty list of [t, point] pairs, t in [0, T] (under the solver "
                           "source a grid node before the horizon), points of the state's "
                           "dimension"),
    # hjb_residual differences one-sidedly at an end of [0, T], so each sample needs room on a side
    "checks.h_t": (lambda v, r: _number(v) and v > 0
                   and (r._hjb_source() != "solver" or r.grid.index_of(v) > 0)
                   and all(t - v >= 0 or t + v <= r.spec.horizon for t, _ in r._hjb_samples()),
                   "a positive number or null, under the solver source a positive multiple of dt, "
                   "with t - h_t >= 0 or t + h_t <= T at every hjb-check sample t"),
    "checks.field_x": (lambda v, r: _listing(v, lambda x: _point(x, r.n)),
                       "a non-empty list of points of the state's dimension"),
    "checks.field_t": (lambda v, r: _listing(v, lambda t: _number(t)
                                             and 0 <= t <= r.spec.horizon),
                       "a non-empty list of times in [0, T]"),
    "checks.h": (lambda v, r: dpp_steps(r.grid.subgrid(r.grid.index_of(r.t0)), v) >= 1,
                 "a multiple of dt with 0 < h and initial.t + h before the horizon"),
}


# the Runner method that works out each null hjb-check key, whose _RANGES row tests its answer
_WORKED_OUT = {"checks.hjb_samples": "_hjb_samples", "checks.h_t": "_hjb_h_t"}


def _typed(key, value, default):
    """Reject value for key unless it has the JSON type of key's default.

    A boolean is neither an integer nor a number: an int default takes an
    integer, a float default any finite number, "auto" a number or "auto",
    None anything.
    """
    number = _number(value)
    if default is None:
        ok = True
    elif isinstance(default, bool):
        ok = isinstance(value, bool)
    elif isinstance(default, int):
        ok = number and isinstance(value, int)
    elif isinstance(default, float):
        ok = number
    elif default == "auto":
        ok = number or value == "auto"
    else:
        ok = isinstance(value, type(default))
    if not ok:
        raise ConfigError(f"{key} must have the JSON type of its default {default!r}, got {value!r}")


def load_config(path: str, overrides=None) -> dict:
    """The config file at path over the defaults, then overrides ("section.key", None skipped);
    ValueError unless JSON, keys, section objects, JSON types, N, M, seed and parity are usable."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    known_keys(raw, _ALLOWED_TOP, "config")
    every_check = set().union(*_CHECKS.values())
    for section, defaults in _DEFAULTS.items():
        known_keys(raw.get(section, {}), every_check if section == "checks" else defaults, section)
    # the defaults' sections in their order, then the problem, so that run-metadata.json lists
    # the config alike under every hash seed
    cfg = {section: {**defaults, **raw.get(section, {})} for section, defaults in _DEFAULTS.items()}
    cfg["problem"] = raw.get("problem")
    for key, value in (overrides or {}).items():
        if value is not None:
            section, leaf = key.split(".")
            cfg[section][leaf] = value
    if not isinstance(cfg["problem"], str) or not cfg["problem"]:
        raise ConfigError("config must name a problem file")
    prob_path = p.parent / cfg["problem"]       # an absolute problem path stays as it is
    if not prob_path.is_file():
        raise ConfigError(f"problem file {prob_path} does not exist")
    cfg["_problem_path"] = str(prob_path)
    for section, defaults in _DEFAULTS.items():
        for leaf, default in defaults.items():
            _typed(f"{section}.{leaf}", cfg[section][leaf], default)
    for section, leaf in (("grid", "N"), ("monte_carlo", "M")):
        val = cfg[section][leaf]
        if val < 1:
            raise ConfigError(f"{section}.{leaf} must be a positive integer, got {val!r}")
    # what paths.generate_brownian rejects, so that the ensemble is drawn only on a usable config
    mc = cfg["monte_carlo"]
    if mc["antithetic"] and mc["M"] % 2:
        raise ConfigError(f"monte_carlo.M must be even with antithetic pairing, got {mc['M']}")
    if not 0 <= mc["seed"] < 2**128:
        raise ConfigError(f"monte_carlo.seed must lie in [0, 2**128), got {mc['seed']}")
    return cfg


def config_hash(cfg: dict) -> str:
    clean = {k: v for k, v in cfg.items() if not k.startswith("_")}
    blob = json.dumps(clean, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class Runner:
    def __init__(self, cfg: dict, out_dir: Path):
        self.cfg = cfg
        self.tables_dir = out_dir / "tables"
        self.spec = problem_from_json(json.loads(Path(cfg["_problem_path"]).read_text(encoding="utf-8")))
        self.n = self.spec.dims.n
        self.grid = TimeGrid(0.0, self.spec.horizon, cfg["grid"]["N"])
        self.t0 = cfg["initial"]["t"]
        self.timings = {}     # to run-metadata.json, as report.json must not vary between reruns

    @cached_property
    def x0(self):
        """The start point, initial.x or the origin; read once the initial.x row accepted it."""
        x = self.cfg["initial"]["x"]
        return np.zeros(self.n) if x is None else np.asarray(x, dtype=float)

    @cached_property
    def W(self):
        """The Brownian ensemble, drawn on first use: the costly part, after check."""
        mc = self.cfg["monte_carlo"]
        return generate_brownian(self.grid, mc["M"], mc["seed"], mc["antithetic"],
                                 d=self.spec.dims.d)

    # -- commands ----------------------------------------------------------

    def cmd_validate(self):
        report = validate_problem(self.spec, samples=self.checks["samples"])
        return report.to_dict(), report.passed

    def cmd_solve(self):
        sol = self._solve()
        self.timings["descent_wall_time_s"] = sol.report.wall_time
        rep = sol.report.to_dict()
        rep["cost"] = float(sol.per_path_cost.mean())
        return rep, True

    def cmd_verify_lq(self):
        ric = self._oracle()
        sol = self._solve()
        deriv_report = None
        if self.checks["with_derivative"]:
            from .variational import freeze_second_order, solve_linear_hamiltonian

            frozen = freeze_second_order(self.spec, sol)
            deriv = solve_linear_hamiltonian(self.spec, self.basis, sol, frozen, self.dcfg)
            deriv_report = riccati_state_check(deriv, oracle=ric)
            if table := self._table("riccati_state.csv"):
                riccati_state_to_csv(deriv_report, table)
        costs = sol.per_path_cost
        j_solver = float(costs.mean())
        stderr = mc_stderr(costs, self.W.antithetic)
        V, DxV, _ = lq_value(ric, self.t0, self.x0)
        y0 = sol.Y[:, 0].mean(axis=0)
        # reference control from the oracle gains along the solver's own paths
        wgrid = sol.grid
        Theta, theta = (np.stack(g) for g in zip(*map(ric.gain_at, wgrid.nodes[:-1].tolist())))
        ref = np.einsum("kmn,pkn->pkm", Theta, sol.X[:, :-1]) + theta
        dt = wgrid.dt
        num = l2_norm_array(sol.U - ref, dt)
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
        if table := self._table("riccati.csv"):
            riccati_to_csv(ric, table)
        ok = checks["cost_ok"] and checks["y0_ok"] and checks["control_ok"]
        if deriv_report is not None:
            ok = ok and checks["riccati_state_ok"]
        return checks, bool(ok)

    def cmd_value(self):
        lattice = self.checks["value_lattice"] or {}
        ts = lattice.get("t", [self.t0])
        xs = lattice.get("x", [self.x0.tolist()])
        source = SolverValueSource(self.spec, self.grid, self.W, self.basis, self.dcfg)
        samples = [source.sample(t, x, with_hessian=self.checks["with_hessian"])
                   for t in ts for x in xs]
        if table := self._table("value_surface.csv"):
            value_surface_to_csv(samples, table)
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

    def _table(self, name):
        """The path of CSV table name, its directory made, if output.formats has csv; else None."""
        if "csv" not in self.cfg["output"]["formats"]:
            return None
        self.tables_dir.mkdir(parents=True, exist_ok=True)
        return self.tables_dir / name

    def check(self, command: str):
        """Check the run of command, else ValueError: the checks keys that it reads, their JSON
        types, the _RANGES rows, and that it reads the Riccati oracle only on a quadratic cost and
        the oracle's and the table's keys only where it reads them. Then build what the run
        reads: the basis and descent settings, which check their own values."""
        given, defaults = self.cfg["checks"], _CHECKS[command]
        self.checks = {**defaults, **given}
        unread = sorted(set(given) - set(defaults))
        if unread:
            raise ConfigError(f"checks keys that {command} does not read: {unread}")
        for key, value in given.items():
            _typed(f"checks.{key}", value, defaults[key])
        for key, (test, what) in _RANGES.items():
            section, leaf = key.split(".")
            value = (self.checks if section == "checks" else self.cfg[section]).get(leaf)
            worked_out = value is None and leaf in self.checks and key in _WORKED_OUT
            if worked_out:
                value = getattr(self, _WORKED_OUT[key])()
            try:
                ok = value is None or test(value, self)
            except ValueError:
                ok = False
            if not ok:
                got = f"null, which works out to {value!r} here" if worked_out else repr(value)
                raise ConfigError(f"{key} must be {what}, got {got}")
        self.reads_oracle = self._reads_oracle(command)
        for idle, where in ((set() if self.reads_oracle else _ORACLE_ONLY,
                             " with the solver source" if command == "hjb-check" else
                             " on a cost that is not quadratic"),
                            (set() if "csv" in self.cfg["output"]["formats"]
                             else {"field_x", "field_t"}, " without csv in output.formats")):
            unread = sorted(set(given) & idle)
            if unread:
                raise ConfigError(f"checks keys that {command}{where} does not read: {unread}")
        self.basis = RegressionBasis(**self.cfg["basis"])
        self.dcfg = DescentConfig(**self.cfg["descent"])

    def _solve(self):
        return solve_hamiltonian(self.spec, self.grid, self.t0, self.x0, self.W,
                                 self.basis, self.dcfg)

    def _reads_oracle(self, command):
        """Whether command reads the Riccati oracle (verify-lq and dpp-check always, feedback on a
        quadratic cost, hjb-check under its oracle source); ConfigError if so on another cost."""
        family = self.spec.cost.family
        reads = (command in ("verify-lq", "dpp-check")
                 or command == "feedback" and family == "quadratic"
                 or command == "hjb-check" and self._hjb_source() == "riccati_oracle")
        if reads and family != "quadratic":
            raise ConfigError(f"{command} reads the Riccati oracle: it solves no {family!r} cost")
        return reads

    def _oracle(self):
        return solve_riccati_ode(self.spec, self.grid, substeps=self.checks["substeps"])

    def cmd_feedback(self):
        sol = self._solve()
        source = RiccatiValueSource(self._oracle()) if self.reads_oracle else build_lattice_source(
            self.spec, self.grid, self.t0, self.x0, self.W, self.basis, self.dcfg, sol=sol)
        report = verify_optimality(
            self.spec, sol, source,
            n_perturbed=self.checks["perturbations"],
            gain_scale=self.checks["gain_scale"],
        )
        dt = self.grid.dt
        budget = lq_value_budget(dt, report.value, max(report.stderr_closed, report.stderr_open))
        ok = abs(report.gap_closed_open) <= budget and abs(report.gap_closed_value) <= budget
        sub_ok = all(p.gap_vs_closed >= -mc_term(p.stderr_gap) - budget for p in report.perturbed)
        rep = report.to_dict()
        rep["budget"] = budget
        rep["agreement_ok"] = bool(ok)
        rep["suboptimality_ok"] = bool(sub_ok)
        if table := self._table("feedback_field.csv"):
            xs = self.checks["field_x"] or [self.x0.tolist()]
            ts = self.checks["field_t"] or [float(t) for t in self.grid.nodes[:-1:10]]
            feedback_field_to_csv(self.spec, source, ts, xs, table)
        return rep, bool(ok and sub_ok)

    def cmd_hjb_check(self):
        samples = [(t, np.asarray(x, dtype=float)) for t, x in self._hjb_samples()]
        h_t = self._hjb_h_t()
        if self.reads_oracle:
            source = RiccatiValueSource(self._oracle())
        else:
            source = SolverValueSource(self.spec, self.grid, self.W, self.basis, self.dcfg)
        report = hjb_residual(self.spec, source, samples, h_t)
        rep = report.to_dict()
        # under the solver source, a budget from the value stderr at the first sample
        rep["tolerance"] = (self.checks["oracle_tol"] if source.kind == "riccati_oracle" else
                            hjb_solver_budget(self.grid.dt, h_t,
                                              source.sample(*samples[0]).stderr_V))
        rep["passed"] = bool(report.max_abs_residual <= rep["tolerance"])
        return rep, rep["passed"]

    def _hjb_samples(self):
        """hjb-check's [t, x] samples: checks.hjb_samples, else three nodes across [0, T] at x0."""
        if self.checks["hjb_samples"] is not None:
            return self.checks["hjb_samples"]
        ts = np.linspace(0.15, 0.85, 3) * self.spec.horizon
        return [[round(float(t) / self.grid.dt) * self.grid.dt, self.x0.tolist()] for t in ts]

    def _hjb_h_t(self):
        """hjb-check's step in t: checks.h_t, else 2 dt under the solver source, else dt / substeps,
        as the oracle stores V at sub-step spacing: a wider step errs by O(h_t^2) where P varies."""
        if self.checks["h_t"] is not None:
            return self.checks["h_t"]
        if self._hjb_source() == "solver":
            return 2.0 * self.grid.dt
        return self.grid.dt / self.checks["substeps"]

    def _hjb_source(self):
        """hjb-check's value source: checks.source, else the oracle for a quadratic cost."""
        return self.checks["source"] or (
            "riccati_oracle" if self.spec.cost.family == "quadratic" else "solver")

    def cmd_dpp_check(self):
        source = RiccatiValueSource(self._oracle())
        sol = self._solve()
        gap = dpp_gap(sol, self.checks["h"], source)
        costs = sol.per_path_cost
        V = float(costs.mean())
        budget = dpp_budget(self.grid.dt, 1.0 + abs(V), mc_stderr(costs, self.W.antithetic))
        rep = {"gap": gap, "budget": budget, "value": V, "passed": bool(abs(gap) <= budget)}
        return rep, rep["passed"]

    def cmd_convexity_check(self):
        conv = self.checks["convexity"] or {}
        pairs = conv.get("pairs", [[[-1.0] * self.n, [1.0] * self.n]])
        report = convexity_probe(self.spec, self.grid, self.t0,
                                 [(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
                                  for a, b in pairs],
                                 conv.get("lambdas", [0.5]), self.W, self.basis, self.dcfg)
        rep = report.to_dict()
        return rep, report.passed()

    def run(self, command: str):
        """Run command, whose checks keys check took."""
        return getattr(self, "cmd_" + command.replace("-", "_"))()


def _minor_faults():
    """The minor page faults of this process so far; None where resource is missing."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lcflow",
        description="Monte Carlo solver and verifier for stochastic linear-convex control",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="run configuration JSON")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override monte_carlo.seed")
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    faults_start = _minor_faults()
    try:
        cfg = load_config(args.config, overrides={"monte_carlo.seed": args.seed})
        out_dir = Path(os.environ.get("LCFLOW_OUT") or args.out or cfg["output"]["directory"])
        runner = Runner(cfg, out_dir)
        runner.check(args.command)
    except (ValueError, ValidationFailure) as exc:     # the latter from a problem's builder
        print(f"lcflow: config error: {exc}", file=sys.stderr)
        return 2
    # only once the config is accepted, so that a rejected one leaves nothing behind
    out_dir.mkdir(parents=True, exist_ok=True)

    chash = config_hash(cfg)
    try:
        report, passed = runner.run(args.command)
        error = None
    except LcflowError as exc:
        passed, error = False, str(exc)
        report = {"error": error}
        if isinstance(exc, (BlowupError, ConvergenceError)):
            # a failed descent, from any command: the history that led to it, eta and K
            report = {"converged": False, "error": error, "grad_norm_history": list(exc.history),
                      "eta": exc.eta, "k_hat": exc.k_hat}
            if isinstance(exc, BlowupError):
                report.update(path=exc.path, step=exc.step)

    report = {"command": args.command, "config_hash": chash, **report}
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, default=str) + "\n",
                                         encoding="utf-8")
    meta = {
        "config": {k: v for k, v in cfg.items() if not k.startswith("_")},
        "config_hash": chash,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "wall_time_s": time.perf_counter() - t_start,
        **runner.timings,
    }
    if faults_start is not None:
        meta["minor_faults"] = _minor_faults() - faults_start
    (out_dir / "run-metadata.json").write_text(json.dumps(meta, indent=2, default=str) + "\n",
                                               encoding="utf-8")
    if error is not None:
        print(f"lcflow: {error}", file=sys.stderr)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
