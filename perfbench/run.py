"""Benchmark entry point: one workload, one fresh process, one caller.

    python3 perfbench/run.py --workload invariance-mesh --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports sctk from its src/.
The workload runs in a child process whose environment pins the BLAS pool
to one thread (see README.md).  Set-up time is measured from starting that
process to its first timed operation, and is the median of SETUP_SAMPLES
fresh processes.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("invariance-mesh", "corpus-fine", "riccati-draws")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(code)


def start_worker(args, env, setup_only, deadline):
    """Start bench.py; return (process, set-up seconds, killer timer)."""
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        killer.cancel()
        fail(f"{args.workload} worker did not finish set-up (got {line!r})", 3)
    return proc, setup_s, killer


def finish(proc, killer):
    try:
        out, _ = proc.communicate()
    finally:
        killer.cancel()
    return proc.returncode, out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "sctk" / "__init__.py").is_file():
        fail(f"no sctk sources under {src}; run from a source checkout")

    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ)
    env.update({k: "1" for k in ONE_THREAD})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup_s, killer = start_worker(args, env, True, deadline)
            code, _ = finish(proc, killer)
            if code != 0:
                fail(f"set-up probe exited with status {code}", 3)
            setups.append(setup_s)
    proc, setup_s, killer = start_worker(args, env, False, deadline)
    setups.append(setup_s)
    code, out = finish(proc, killer)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail(f"{args.workload} worker exited with status {code}", 3)
    result = json.loads(lines[-1])
    info = result.pop("info")
    if not args.trace:
        info["setup_samples_s"] = setups
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for line in lines[:-1]:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    record = HERE / "out" / f"last-{args.workload}.json"
    record.write_text(json.dumps(dict(result, info=info, seed=args.seed), indent=1))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
