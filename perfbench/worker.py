"""Measured CLI calls in one fresh process.

    python3 perfbench/worker.py ROOT COMMAND CONFIG SEED OUT_DIR RESULT TRACE BUDGET_S REF_M

Times set-up once (``import lcflow``, ``cli.load_config`` and ``cli.Runner``
construction), then repeats ``lcflow.cli.main`` calls, each including the
writing of report.json, while less than BUDGET_S seconds of calls have run
(so at least one call).  One pass of the host-speed reference kernel
(reference.py) on REF_M paths is timed before the first call and after
every call; a call's reference time is the mean of the passes around it.  Writes the measurements
and each call's report.json text as JSON to RESULT.  With TRACE=1 the
layer wrappers of spans.py are installed before the first call and every
call's span summary is recorded.
"""

import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def main(argv):
    root, command, config, seed, out_dir, result_path, traced, budget, ref_m = argv
    src = Path(root) / "src"
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import lcflow
    from lcflow import cli

    cfg = cli.load_config(config, overrides={"monte_carlo.seed": int(seed)})
    runner = cli.Runner(cfg, Path(out_dir))
    setup_s = time.perf_counter() - t0
    del runner
    if Path(lcflow.__file__).resolve().parent != (src / "lcflow").resolve():
        raise SystemExit(f"lcflow was imported from {lcflow.__file__}, not from {src}")

    from reference import reference_seconds

    reference_seconds(int(ref_m))     # warm-up, not recorded
    ref_before = setup_ref_s = reference_seconds(int(ref_m))
    tracer = None
    entry = cli.main
    if traced == "1":
        from spans import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap(ROOT, cli.main)

    calls = []
    t_loop = time.perf_counter()
    while not calls or time.perf_counter() - t_loop < float(budget):
        out_k = Path(out_dir) / str(len(calls))
        args = [command, "--config", config, "--out", str(out_k), "--seed", seed]
        if tracer is not None:
            tracer.reset()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t1 = time.perf_counter()
        try:
            code, error = entry(args), None
        except Exception:   # the CLI raised: a failed call, recorded, not a broken benchmark
            code, error = None, traceback.format_exc()
        wall_s = time.perf_counter() - t1
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        ref_after = reference_seconds(int(ref_m))
        report = out_k / "report.json"
        calls.append({
            "exit_code": code,
            "error": error,
            "wall_s": wall_s,
            "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            "ref_s": 0.5 * (ref_before + ref_after),
            "report": report.read_text(encoding="utf-8") if report.exists() else None,
            "trace": None if tracer is None else tracer.summary(),
        })
        shutil.rmtree(out_k, ignore_errors=True)
        ref_before = ref_after
    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB
        "calls": calls,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
