#!/usr/bin/env python3
"""Stabilizability verdicts of ``solve_sare`` against independent oracles,
and the equivalence harness's four verdicts.

Four kinds of verdict scan, each printing its mismatch and undecided counts, the
evidence behind its NotSolvable verdicts, its slowest draws and a
``digest:`` line, the sha256 of the sorted (label, verdict, evidence,
Newton iterations) records, so that two checkouts' scans compare in one
line:

- scalar: draw 0 of ``random_system(default_rng(seed), 1, 3, 3)`` for
  every seed below ``--scalar-seeds``, against the exact quadratic
  criterion for n = 1;
- stream: the first ``--stream-draws`` draws of
  ``random_system(default_rng(7))``, against ``perfbench/oracle.py``'s
  ``stabilizable`` (the quadratic criterion for n = 1, otherwise the
  oracle's own Euler-step recursion of the value, run to convergence or
  to its growth cap);
- stiff: ``tests.conftest.stiff_family``, A = diag(-a, 1) for a in
  (250, 1000, 2500, 1e4) and A = diag(-2500, -lam, 1) for lam in (150,
  199, 201, 300), with B the last unit vector, C_1 = 2 B B^T and D_1 = 0,
  labelled "a 250" or "lam 150" from A's diagonal.  Each is
  stabilizable: the gain F = -4 B^T gives lift abscissa 2 (1 - 4) + 2^2
  = -2, which the scan checks on the oracle's lift.  The Euler value at
  step 0.01 grows on every one of them;
- symmetry: the stream draws in another time unit, (eps A, eps B,
  sqrt(eps) C, sqrt(eps) D) for eps in ``TIME_UNITS``, and with another
  input unit, (B, D) -> (r B, r D) for r in ``INPUT_SCALES``, one scan
  per map, against ``solve_sare``'s own verdict on the draw: neither map
  changes a verdict in exact arithmetic;
- equivalence: ``equivalence_harness`` on the stream draws and the stiff
  family at each delta in ``EQUIVALENCE_DELTAS``, printing the systems
  whose four verdicts disagree, the count of each witness kind over all
  verdicts, and a digest of the (label, verdicts, witness kinds) records.

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
from sctk.stabilizer import equivalence_harness  # noqa: E402
from sctk.systems import make_system  # noqa: E402
from tests.conftest import random_system, stiff_family  # noqa: E402

TIME_UNITS = (1e-6, 1e-3, 1e3)
INPUT_SCALES = (1e-4, 1e-3, 1e3)
EQUIVALENCE_DELTAS = (0.5, 0.9)


def verdict(sys_):
    """(solvable or None when undecided, evidence, Newton iterations or
    None, seconds)."""
    start = time.perf_counter()
    try:
        res = solve_sare(sys_)
    except NumericalFailure:
        return None, "undecided", None, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    if isinstance(res, NotSolvable):
        return False, res.diagnostics.get("evidence", "hautus"), None, elapsed
    return True, "solved", res.iterations, elapsed


def oracle_verdict(sys_):
    return oracle.stabilizable(oracle.as_system(sys_.A, sys_.B, sys_.C, sys_.D))


def stiff_systems():
    """(label, system, expected verdict) for the stiff family."""
    for sys_ in stiff_family():
        label = f"a {-sys_.A[0, 0]:g}" if sys_.n == 2 else f"lam {-sys_.A[1, 1]:g}"
        system = oracle.as_system(sys_.A, sys_.B, sys_.C, sys_.D)
        yield label, sys_, oracle.lift_abscissa(system, -4.0 * sys_.B.T) < 0


def symmetry_scans():
    """(name, map) for each time unit and input scale of the symmetry scan."""
    for eps in TIME_UNITS:
        r = np.sqrt(eps)
        yield f"time unit {eps:g}", lambda s, eps=eps, r=r: make_system(
            eps * s.A, eps * s.B, C=[r * c for c in s.C], D=[r * d for d in s.D])
    for r in INPUT_SCALES:
        yield f"input scale {r:g}", lambda s, r=r: make_system(
            s.A, r * s.B, C=list(s.C), D=[r * d for d in s.D])


def scan(name, cases, slowest):
    """Scan (label, system, expected verdict or None) triples."""
    mismatches, undecided, evidence, times = [], [], collections.Counter(), []
    records = []
    for label, sys_, expected in cases:
        solvable, kind, newton, elapsed = verdict(sys_)
        records.append((label, solvable, kind, newton))
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


def equivalence_scan(delta, cases):
    """Run the equivalence harness on (label, system) pairs at delta."""
    disagreements, undecided, kinds, records = [], [], collections.Counter(), []
    start = time.perf_counter()
    for label, sys_ in cases:
        try:
            rep = equivalence_harness(sys_, delta)
        except NumericalFailure:
            undecided.append(label)
            records.append((label, None, None))
            continue
        witnesses = [w["kind"] for w in rep.witness.values()]
        kinds.update(witnesses)
        records.append((label, list(rep.verdicts), witnesses))
        if not rep.agreement:
            disagreements.append(label)
    print(f"equivalence at delta {delta:g}: {len(records)} systems in "
          f"{time.perf_counter() - start:.2f} s; disagreements {len(disagreements)} "
          f"{disagreements}; undecided {len(undecided)} {undecided}")
    print(f"  witnesses: {dict(sorted(kinds.items()))}")
    blob = json.dumps(sorted(records)).encode()
    print(f"  digest: {hashlib.sha256(blob).hexdigest()}")
    return len(disagreements) + len(undecided)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--scalar-seeds", type=int, default=10_001)
    ap.add_argument("--stream-draws", type=int, default=140)
    ap.add_argument("--slowest", type=int, default=5)
    args = ap.parse_args()

    scalar = (random_system(np.random.default_rng(s), 1, 3, 3)
              for s in range(args.scalar_seeds))
    rng = np.random.default_rng(7)
    stream = [random_system(rng) for _ in range(args.stream_draws)]
    bad = scan("scalar", ((f"seed {s}", sys_, oracle_verdict(sys_))
                          for s, sys_ in enumerate(scalar)), args.slowest)
    bad += scan("stream", ((f"draw {i}", sys_, oracle_verdict(sys_))
                           for i, sys_ in enumerate(stream)), args.slowest)
    bad += scan("stiff", stiff_systems(), args.slowest)
    own = [verdict(sys_)[0] for sys_ in stream]
    for name, transform in symmetry_scans():
        bad += scan(name, ((f"draw {i}", transform(sys_), own[i])
                           for i, sys_ in enumerate(stream)), args.slowest)
    cases = [(f"draw {i}", sys_) for i, sys_ in enumerate(stream)]
    cases += [(label, sys_) for label, sys_, _ in stiff_systems()]
    for delta in EQUIVALENCE_DELTAS:
        bad += equivalence_scan(delta, cases)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
