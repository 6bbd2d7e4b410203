"""One workload in one process: set up, run timed passes, check, report.

Started by run.py with the BLAS pool already set to one thread in this
process's environment.  Prints ``READY`` once set-up is done (run.py times
set-up up to that line), human-readable lines, and as its last line a JSON
object with correct / attempted / failed / metrics / info.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def run_pass(ops):
    """One closed-loop pass, one operation at a time; outputs are checked later."""
    times, outputs = {}, {}
    clock = time.perf_counter
    start, cpu = clock(), time.process_time()
    for op in ops:
        t0 = clock()
        outputs[op.name] = op.run()
        times[op.name] = clock() - t0
    return clock() - start, time.process_time() - cpu, times, outputs


def blas_info():
    """BLAS build and the pool size each loaded OpenBLAS reports."""
    import ctypes
    import glob
    import os

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for pkg, symbol in ((np, "scipy_openblas_get_num_threads64_"),
                        (scipy, "scipy_openblas_get_num_threads")):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in glob.glob(str(libdir / "*openblas*")):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads[pkg.__name__] = fn()
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import oracle
    import workloads  # imports sctk, which every cold CLI call pays for

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[args.workload][0](args.seed, out_dir)
    workloads.warm_up(args.workload, out_dir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    memo = {}
    attempted = failed = 0
    unexpected = {}
    pass_times, cpu_times, op_times = [], [], {op.name: [] for op in ops}
    check_s = 0.0

    def account(outputs):
        nonlocal attempted, failed, check_s
        t0 = time.perf_counter()
        bad = workloads.check_pass(args.workload, ops, outputs, memo)
        check_s += time.perf_counter() - t0
        attempted += len(ops)
        failed += len(bad)
        for op in ops:
            if op.name in bad and not op.expected_failure:
                unexpected[op.name] = bad[op.name]
            if op.expected_failure and op.name not in bad:
                print(f"note: {op.name} now passes; it was counted as failed for: "
                      f"{op.expected_failure}")

    elapsed = 0.0
    while True:
        pass_s, cpu_s, times, outputs = run_pass(ops)
        pass_times.append(pass_s)
        cpu_times.append(cpu_s)
        for name, t in times.items():
            op_times[name].append(t)
        elapsed += pass_s
        account(outputs)
        if elapsed + statistics.median(pass_times) > args.seconds:
            break

    untraced = statistics.median(pass_times)
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_s, _, _, outputs = run_pass(ops)
        finally:
            tracer.uninstall()
        account(outputs)
        metrics = tracer.layer_metrics(traced_s, untraced)
        tracer.dump(OUT / f"spans-{args.workload}.json",
                    {"workload": args.workload, "seed": args.seed,
                     "traced_pass_s": traced_s, "untraced_pass_s": untraced})
    else:
        metrics = {
            "pass_s": {"value": untraced, "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(
                t for ts in op_times.values() for t in ts), "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }

    problems = oracle.self_check()
    for name, reason in sorted(unexpected.items()):
        print(f"FAILED CHECK {name}: {reason}")
    for p in problems:
        print(f"ORACLE SELF-CHECK FAILED: {p}")
    counted = sorted({op.name for op in ops if op.expected_failure})
    info = dict(blas_info(), ops_per_pass=len(ops), passes=len(pass_times),
                pass_times_s=pass_times, pass_cpu_s=cpu_times, check_s=check_s,
                op_median_s={k: statistics.median(v) for k, v in op_times.items()},
                counted_failures=counted)
    print(f"{args.workload}: {len(ops)} operations per pass, {len(pass_times)} "
          f"timed passes, counted failures {counted}")
    print(f"blas: {info['blas']}, threads {info['blas_threads']}, "
          f"python {info['python']}, numpy {info['numpy']}, scipy {info['scipy']}, "
          f"nproc {info['nproc']}")
    result = {
        "correct": not unexpected and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
