#!/usr/bin/env python3
"""lcflow benchmark: real CLI commands, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload p1-verify --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``.  A run starts WORKERS fresh worker processes
(perfbench/worker.py) one after another, with BLAS pinned to one thread.
Each times its own set-up and then repeats ``lcflow.cli.main`` calls until
its share of ``--seconds`` is used.  Every call uses the workload seed as
the Monte Carlo seed, so every report.json must equal the first one byte
for byte.

Workloads (inputs and sizes in workloads.py):
  p1-verify     verify-lq with the derivative solve on preset P1 (scalar
                LQ): regression build/fit and Lipschitz probes dominate;
                the only workload that runs the Riccati oracle.
  p2-feedback   feedback on preset P2 (pseudo-Huber): the only workload
                with lattice, closed-loop and Newton work, and a cost that
                is not quadratic.
  p2-convexity  convexity-check on P2: three cold solves through the
                value layer, no derivative and no feedback.

Times are reported in reference seconds.  The speed of a core on a shared
host drifts by 30-50% over tens of seconds, and a run's raw times drift
with it.  So one pass of a fixed numpy kernel (reference.py, independent
of lcflow, at the workload's path count) is timed right before every
call and after the last, and each time t is reported as t * REF_S / r,
where r is the mean of the two passes around the call and REF_S
(reference.TYPICAL_S) is a fixed constant, a pass's typical time on the
host the benchmark was written on: the time the call would take on that
host at its usual speed.  Raw medians are printed as well.

--trace 0 prints the end-to-end metrics with their sample counts:
  wall_s       median over calls of one lcflow.cli.main call, including
               writing report.json, in reference seconds
  cpu_s        median over calls of the user + sys CPU time of that call,
               in reference seconds
  setup_s      median over workers of import lcflow + cli.load_config +
               cli.Runner construction, in reference seconds (scaled by
               the reference pass right after set-up)
  peak_rss_mb  median over workers of the worker's peak resident memory
and, for information, budget_use (largest checked error over its budget in
report.json; above 1 is a failed contract) and fail_share (failed calls
over attempted calls).  Neither is a benchmark metric: the first is fixed
by the Monte Carlo seed and the second is 0 unless something broke.

--trace 1 first runs the wrapper self-check on a tiny path count, then
alternates traced and untraced workers and prints the per-layer metrics
(medians over traced calls, times in reference seconds; counts must
repeat exactly), trace.overhead (median traced over median untraced wall
time, minus 1) and the raw self time of every span.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from reference import TYPICAL_S  # noqa: E402
from workloads import SMOKE_M, WORKLOADS, write_inputs  # noqa: E402

WORKERS = 4
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

# Per-layer metric -> (span name, field).  Only layers present on every
# workload report a time; layers specific to some commands report calls,
# and their times are printed in the span table.
PER_LAYER = {
    "paths.brownian.s": ("paths.brownian", "s"),
    "paths.forward.calls": ("paths.forward", "calls"),
    "paths.forward.s": ("paths.forward", "s"),
    "adjoint.backward.calls": ("adjoint.backward", "calls"),
    "adjoint.backward.self_s": ("adjoint.backward", "self_s"),
    "adjoint.reg_build.calls": ("adjoint.reg_build", "calls"),
    "adjoint.reg_build.s": ("adjoint.reg_build", "s"),
    "adjoint.reg_fit.calls": ("adjoint.reg_fit", "calls"),
    "adjoint.reg_fit.s": ("adjoint.reg_fit", "s"),
    "adjoint.gradient.s": ("adjoint.gradient", "s"),
    "adjoint.cost.s": ("adjoint.cost", "s"),
    "costs.calls": ("costs", "calls"),
    "costs.s": ("costs", "s"),
    "descent.grad_evals": ("descent.grad_eval", "calls"),
    "descent.lipschitz.calls": ("descent.lipschitz", "calls"),
    "descent.lipschitz.s": ("descent.lipschitz", "s"),
    "descent.solves": ("descent.solve", "calls"),
    "variational.derivative.calls": ("variational.derivative", "calls"),
    "riccati.oracle.calls": ("riccati.oracle", "calls"),
    "value.evaluate.calls": ("value.evaluate", "calls"),
    "feedback.closed_loop.calls": ("feedback.closed_loop", "calls"),
    "feedback.newton.calls": ("feedback.newton", "calls"),
}
UNITS = {"s": "s", "self_s": "s", "calls": "count"}

# Spans each command must fire; every other wrapped span must stay silent.
CORE_SPANS = {"cli.main", "paths.brownian", "paths.forward", "adjoint.backward",
              "adjoint.reg_build", "adjoint.reg_fit", "adjoint.gradient", "adjoint.cost",
              "costs", "descent.grad_eval", "descent.lipschitz", "descent.descend",
              "descent.solve"}
DERIVATIVE = {"variational.freeze", "variational.derivative"}
EXPECTED_SPANS = {
    "verify-lq": CORE_SPANS | DERIVATIVE | {"riccati.oracle"},
    "feedback": CORE_SPANS | DERIVATIVE | {"feedback.lattice", "feedback.closed_loop",
                                           "feedback.newton"},
    "convexity-check": CORE_SPANS | {"value.evaluate", "value.convexity"},
}
FLAGS = ("cost_ok", "y0_ok", "control_ok", "riccati_state_ok", "agreement_ok",
         "suboptimality_ok", "passed")
REQUIRED_FLAGS = {
    "verify-lq": ("cost_ok", "y0_ok", "control_ok", "riccati_state_ok"),
    "feedback": ("agreement_ok", "suboptimality_ok"),
    "convexity-check": ("passed",),
}
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot measure: a wrapper broke or a worker died."""


# ---------------------------------------------------------------------------
# correctness


def check_report(command: str, report: dict):
    """(failure messages, budget_use) for one report.json."""
    problems = [f"{flag} is missing" for flag in REQUIRED_FLAGS[command] if flag not in report]
    problems += [f"{flag} is {report[flag]!r}" for flag in FLAGS
                 if flag in report and report[flag] is not True]
    if problems:
        return problems, None
    if command == "verify-lq":
        y0_err = max(abs(a - b) for a, b in zip(report["y0"], report["dxv_oracle"]))
        ratios = [abs(report["j_solver"] - report["value_oracle"]) / report["cost_budget"],
                  y0_err / report["y0_budget"],
                  report["control_rel_l2_err"] / 0.05,
                  report["riccati_state_err_max"] / 0.07]
    elif command == "feedback":
        ratios = [abs(report["gap_closed_open"]) / report["budget"],
                  abs(report["gap_closed_value"]) / report["budget"]]
    else:
        ratios = [max(0.0, -e["gap"]) / (4.0 * e["stderr"]) for e in report["entries"]]
    budget_use = max(ratios)
    if budget_use > 1.0:
        problems.append(f"budget_use {budget_use:.4g} exceeds 1")
    return problems, budget_use


def check_trace(workload, trace: dict):
    """Wrapper self-check: expected spans fired, others silent, counts add up."""
    spans = trace["spans"]
    expected = EXPECTED_SPANS[workload.command]
    if set(spans) != expected:
        raise BenchError(f"{workload.name}: missing spans {sorted(expected - set(spans))}, "
                         f"unexpected spans {sorted(set(spans) - expected)}")
    evals = spans["descent.grad_eval"]["calls"]
    loop_evals = sum(it + 1 for it in trace["iterations"])
    if evals != trace["lipschitz_evals"] + loop_evals:
        raise BenchError(f"{workload.name}: descent.grad_evals {evals} != lipschitz evals "
                         f"{trace['lipschitz_evals']} + descend evals {loop_evals}")
    if workload.command == "feedback":
        want = (workload.checks["perturbations"] + 1) * workload.N
        if spans["feedback.newton"]["calls"] != want:
            raise BenchError(f"{workload.name}: feedback.newton.calls "
                             f"{spans['feedback.newton']['calls']} != {want}")
    wall = spans["cli.main"]["s"]
    covered = sum(s["self_s"] for s in spans.values())
    if abs(covered - wall) > 1e-6 * wall:
        raise BenchError(f"{workload.name}: self times add to {covered}, traced wall is {wall}")


def layer_metrics(trace: dict, scale: float) -> dict:
    """Per-layer metric -> (value, unit) for one traced call; times times scale."""
    spans = trace["spans"]
    out = {}
    for metric, (span, fld) in PER_LAYER.items():
        value = spans.get(span, {}).get(fld, 0)
        out[metric] = (value * scale if UNITS[fld] == "s" else value, UNITS[fld])
    loop_evals = sum(it + 1 for it in trace["iterations"])
    out["descent.lipschitz.evals"] = (trace["lipschitz_evals"], "count")
    out["descent.iterations"] = (sum(trace["iterations"]), "count")
    # base: descent.grad_evals
    out["descent.useful_share"] = (loop_evals / spans["descent.grad_eval"]["calls"], "ratio")
    return out


# ---------------------------------------------------------------------------
# running


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    rec = {"cpu_model": platform.processor() or None, "nproc": os.cpu_count(),
           "l2_cache": None, "l3_cache": None}
    try:
        info = json.loads(subprocess.run(["lscpu", "-J"], capture_output=True, text=True,
                                         timeout=30, check=True).stdout)
        stack = list(info["lscpu"])
        while stack:
            entry = stack.pop()
            stack.extend(entry.get("children", []))
            key = {"Model name:": "cpu_model", "L2 cache:": "l2_cache",
                   "L3 cache:": "l3_cache"}.get(entry["field"])
            if key:
                rec[key] = entry["data"]
    except (OSError, subprocess.SubprocessError, ValueError, KeyError):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lcflow").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    rec.update({
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"({blas.get('openblas configuration', '').strip()})",
        "blas_threads": BLAS_ENV,
        "lcflow_commit": commit, "lcflow_src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    })
    return rec


def run_worker(workload, cfg_path: Path, seed: int, out_dir: Path, traced: bool,
               budget: float) -> dict:
    """One fresh worker process: its set-up, peak memory and CLI calls."""
    result_path = out_dir.with_suffix(".result.json")
    env = {k: v for k, v in os.environ.items() if k != "LCFLOW_OUT"}
    env.update(BLAS_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(ROOT), workload.command,
             str(cfg_path), str(seed), str(out_dir), str(result_path),
             "1" if traced else "0", f"{budget:.3f}", str(workload.M)],
            env=env, capture_output=True, text=True, timeout=budget + 120,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish in {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    for call in result["calls"]:
        call["traced"] = traced
        if traced and call["error"] is None:
            check_trace(workload, call["trace"])
    return result


def smoke(workload, work: Path, seed: int) -> dict:
    """Wrapper self-check on a tiny path count; contracts may fail at that size."""
    cfg = write_inputs(workload, work / "smoke", M=SMOKE_M)
    call = run_worker(workload, cfg, seed, work / "smoke" / "out", True, 0.0)["calls"][0]
    if call["exit_code"] not in (0, 1) or call["report"] is None:
        raise BenchError(f"{workload.name}: smoke call exited {call['exit_code']}: "
                         f"{call['error']}")
    return call


def measure(workload, seed: int, seconds: float, traced: bool, work: Path):
    """Run the workers; returns (workers, calls, failures)."""
    cfg = write_inputs(workload, work / "inputs")
    t_start = time.perf_counter()
    overhead = 1.0      # worker start-up and set-up, updated from the last worker
    workers = []
    for i in range(WORKERS):
        budget = max(0.0, (seconds - (time.perf_counter() - t_start)) / (WORKERS - i) - overhead)
        t_worker = time.perf_counter()
        # traced runs alternate: traced, untraced, untraced, traced
        tr = traced and i in (0, 3)
        workers.append(run_worker(workload, cfg, seed, work / f"w{i}", tr, budget))
        loop = sum(c["wall_s"] + c["ref_s"] for c in workers[-1]["calls"])
        overhead = max(0.0, time.perf_counter() - t_worker - loop)
    calls = [c for w in workers for c in w["calls"]]
    failures = []
    first = next((c["report"] for c in calls if c["report"] is not None), None)
    for i, call in enumerate(calls):
        problems = [] if call["exit_code"] == 0 else [f"exit code {call['exit_code']}"]
        if call["error"] is not None:
            problems.append(f"raised {call['error'].strip().splitlines()[-1]}")
        elif call["report"] is None:
            problems.append("no report.json")
        else:
            report = json.loads(call["report"])
            found, call["budget_use"] = check_report(workload.command, report)
            problems += found
            call["config_hash"] = report.get("config_hash")
            if call["report"] != first:
                problems.append("report.json differs from the first call at this seed")
        if problems:
            failures.append(problems)
            print(f"FAILED call {i}: {'; '.join(problems)}", flush=True)
    return workers, calls, failures


def describe(values):
    if len(values) == 1:
        return f"{values[0]:.6g} (n=1)"
    return (f"median {statistics.median(values):.6g}  min {min(values):.6g}  "
            f"max {max(values):.6g}  (n={len(values)})")


def print_span_table(traced):
    """Every span: calls, total and self time (medians over traced calls)."""
    wall = statistics.median(c["trace"]["spans"]["cli.main"]["s"] for c in traced)
    print(f"spans, raw seconds, median of {len(traced)} traced calls (traced wall {wall:.4f} s)")
    print(f"  {'span':<24}{'calls':>8}{'total_s':>11}{'self_s':>11}{'self %':>8}")
    for name in sorted(traced[0]["trace"]["spans"]):
        s = [c["trace"]["spans"][name] for c in traced]
        self_s = statistics.median(x["self_s"] for x in s)
        print(f"  {name:<24}{s[0]['calls']:>8}{statistics.median(x['s'] for x in s):>11.4f}"
              f"{self_s:>11.4f}{100 * self_s / wall:>7.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lcflow" / "__init__.py").is_file():
        print(f"perfbench: no lcflow sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    ref_typical = TYPICAL_S[workload.M]

    def scaled(seconds: float, ref_s: float) -> float:
        """A time in reference seconds, given the reference pass timed next to it."""
        return seconds * ref_typical / ref_s

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        print("record " + json.dumps(machine_record(args.seed)), flush=True)
        if args.trace:
            trace = smoke(workload, work, args.seed)["trace"]
            print(f"self-check passed at M={SMOKE_M}: every wrapper fired as "
                  f"expected; descent.grad_evals {trace['spans']['descent.grad_eval']['calls']}"
                  f" = {trace['lipschitz_evals']} probe evals + descend evals "
                  f"{' + '.join(str(i + 1) for i in trace['iterations'])}", flush=True)
        workers, calls, failures = measure(workload, args.seed, args.seconds,
                                           bool(args.trace), work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    hashes = sorted({str(c.get("config_hash")) for c in calls})
    print(f"workload {workload.name}: lcflow {workload.command}, N={workload.N}, "
          f"M={workload.M}, seed {args.seed}, config_hash {', '.join(hashes)}")
    untraced = [c for c in calls if not c["traced"]]
    metrics = {}
    counts_repeat = True
    print(f"reference pass: {describe([c['ref_s'] for c in calls])} s, "
          f"REF_S {ref_typical} s at M={workload.M}")
    if not args.trace:
        samples = {"wall_s": [scaled(c["wall_s"], c["ref_s"]) for c in calls],
                   "cpu_s": [scaled(c["cpu_s"], c["ref_s"]) for c in calls],
                   "setup_s": [scaled(w["setup_s"], w["setup_ref_s"]) for w in workers],
                   "peak_rss_mb": [w["peak_rss_mb"] for w in workers]}
        raw = {"wall_s": [c["wall_s"] for c in calls], "cpu_s": [c["cpu_s"] for c in calls],
               "setup_s": [w["setup_s"] for w in workers]}
        print(f"{'metric':<14}{'unit':<7}value")
        for name, unit in END_TO_END:
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
            print(f"{name:<14}{unit:<7}{describe(samples[name])}")
        for name, values in raw.items():
            print(f"{'raw ' + name:<14}{'s':<7}{describe(values)}")
        budget = [c["budget_use"] for c in calls if c.get("budget_use") is not None]
        if budget:
            print(f"{'budget_use':<14}{'ratio':<7}{describe(budget)}")
        print(f"{'fail_share':<14}{'ratio':<7}{len(failures) / len(calls):.6g} "
              f"({len(failures)} of {len(calls)} calls)")
    else:
        traced = [c for c in calls if c["traced"] and c["error"] is None]
        layers = [layer_metrics(c["trace"], ref_typical / c["ref_s"]) for c in traced]
        print(f"{'metric':<30}{'unit':<7}value")
        for name, (_, unit) in layers[0].items():
            values = [lm[name][0] for lm in layers]
            if unit != "s" and len(set(values)) != 1:
                counts_repeat = False
                print(f"FAILED: {name} varies between calls at one seed: {values}")
            value = statistics.median(values) if unit == "s" else values[0]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<30}{unit:<7}{describe(values)}")
        overhead = (statistics.median(scaled(c["wall_s"], c["ref_s"]) for c in traced)
                    / statistics.median(scaled(c["wall_s"], c["ref_s"]) for c in untraced) - 1.0)
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        print(f"{'trace.overhead':<30}{'ratio':<7}{overhead:.6g}")
        print_span_table(traced)
    print(json.dumps({"correct": not failures and counts_repeat, "attempted": len(calls),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
