#!/usr/bin/env python3
"""Stabilizability verdicts of ``solve_sare`` against independent oracles.

Two scans, each printing its mismatch and undecided counts, the evidence
behind its NotSolvable verdicts, its slowest draws and a ``digest:``
line, the sha256 of the sorted (label, verdict, evidence, value-iteration
steps, Newton iterations) records, so that two checkouts' scans compare
in one line:

- scalar: draw 0 of ``random_system(default_rng(seed), 1, 3, 3)`` for
  every seed below ``--scalar-seeds``, against the exact quadratic
  criterion for n = 1;
- stream: the first ``--stream-draws`` draws of
  ``random_system(default_rng(7))``, against ``perfbench/oracle.py``'s
  ``stabilizable`` (the quadratic criterion for n = 1, value iteration
  to convergence or to its growth cap otherwise).

Run from the root of a source checkout:

    python scripts/scan_gain_search.py
"""

import argparse
import collections
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "perfbench")]

import oracle  # noqa: E402
from sctk.errors import NumericalFailure  # noqa: E402
from sctk.riccati import NotSolvable, solve_sare  # noqa: E402
from tests.conftest import random_system  # noqa: E402


def verdict(sys_):
    """(solvable or None when undecided, evidence, value-iteration steps,
    Newton iterations, seconds); a count that does not apply is None."""
    start = time.perf_counter()
    try:
        res = solve_sare(sys_)
    except NumericalFailure:
        return None, "undecided", None, None, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    if isinstance(res, NotSolvable):
        diag = res.diagnostics
        return (False, diag.get("evidence", "hautus"),
                diag.get("value_iteration_steps"), None, elapsed)
    return True, "solved", None, res.iterations, elapsed


def scan(name, labelled_systems, slowest):
    mismatches, undecided, evidence, times = [], [], collections.Counter(), []
    records = []
    for label, sys_ in labelled_systems:
        expected = oracle.stabilizable(oracle.as_system(sys_.A, sys_.B, sys_.C, sys_.D))
        solvable, kind, vi_steps, newton, elapsed = verdict(sys_)
        records.append((label, solvable, kind, vi_steps, newton))
        evidence[kind] += 1
        times.append((elapsed, label))
        if solvable is None:
            undecided.append(label)
        elif expected is not None and solvable != expected:
            mismatches.append(label)
    times.sort(reverse=True)
    print(f"{name}: {len(times)} systems in {sum(t for t, _ in times):.2f} s; "
          f"mismatches {len(mismatches)} {mismatches}; undecided {len(undecided)} {undecided}")
    print(f"  verdicts: {dict(sorted(evidence.items()))}")
    print("  slowest: " + ", ".join(f"{label} {t:.3f} s" for t, label in times[:slowest]))
    blob = json.dumps(sorted(records)).encode()
    print(f"  digest: {hashlib.sha256(blob).hexdigest()}")
    return len(mismatches) + len(undecided)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--scalar-seeds", type=int, default=10_001)
    ap.add_argument("--stream-draws", type=int, default=140)
    ap.add_argument("--slowest", type=int, default=5)
    args = ap.parse_args()

    scalar = ((f"seed {s}", random_system(np.random.default_rng(s), 1, 3, 3))
              for s in range(args.scalar_seeds))
    rng = np.random.default_rng(7)
    stream = [(f"draw {i}", random_system(rng)) for i in range(args.stream_draws)]
    bad = scan("scalar", scalar, args.slowest)
    bad += scan("stream", stream, args.slowest)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
