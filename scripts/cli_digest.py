#!/usr/bin/env python3
"""Every CLI command on every emitted corpus config, and a comparison of
two such digests.

    python scripts/cli_digest.py DIGEST.json
    python scripts/cli_digest.py --compare A.json B.json

The first form runs ``sctk emit-corpus``, then each of the other
commands on each of the five configs, in fresh ``python -m sctk.cli``
processes on this checkout's ``src/``, with the same relative paths in
a scratch directory on every run.  Then it runs synthesize, stabilize,
theorem51 and observe on variants of the S1, S2, S4 and M0 configs
(``VARIANTS``: a user ``c`` that is valid, invalid or zero, delta = 0
with and without ``c``, and a trinomial tree), since no emitted config
sets ``c``.  It writes one record per run: the exit code, stdout,
stderr, the ``report`` section of the JSON report and the text of every
CSV the run wrote.  The ``meta`` section is left out, because it
carries a timestamp.  Every report, meta included, is also checked
against ``src/sctk/report_schema.json`` (JSON Schema Draft 7); the runs
whose report fails it are listed, and the first form then exits 1.

``--compare`` lists the runs whose exit code, stdout or stderr differ,
and every report or CSV entry that differs other than as a number.
Then it gives the largest relative difference of any report or CSV
number, and where it is.  It exits 1 when it listed anything, else 0.
To check a change against its parent, run the first form in both
checkouts, then compare the two files.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema

ROOT = Path(__file__).resolve().parents[1]

# config stem suffix -> keys that override the emitted config
VARIANTS = {
    "c50": {"c": 50.0},
    "c0.05": {"c": 0.05},
    "c0": {"c": 0.0},
    "delta0": {"delta": 0.0},
    "delta0-c0.05": {"delta": 0.0, "c": 0.05},
    "trinomial-K6-delta0.3": {"driver": "trinomial", "K": 6, "delta": 0.3},
}
VARIANT_CONFIGS = ("s1", "s2", "s4", "m0")
VARIANT_COMMANDS = ("synthesize", "stabilize", "theorem51", "observe")


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "sctk.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _record(command, name, work, schema, invalid):
    """Run command on configs/<name>.json in work; its digest record.
    A report that fails schema appends its run and first error to invalid."""
    out_dir = f"runs/{name}/{command}"
    args = [command, "--config", f"configs/{name}.json", "--out", out_dir]
    code, out, err = _run(args, work)
    record = {"exit": code, "stdout": out, "stderr": err, "report": None}
    written = Path(work, out_dir)
    report = written / f"{command}_report.json"
    if report.exists():
        doc = json.loads(report.read_text())
        error = next(iter(schema.iter_errors(doc)), None)
        if error is not None:
            invalid.append(f"{command}/{name}: {error.message}")
        record["report"] = doc["report"]
    record["csv"] = {p.name: p.read_text() for p in written.glob("*.csv")}
    print(f"{command}/{name}: exit {code}", file=sys.stderr)
    return record


def digest(path):
    sys.path.insert(0, str(ROOT / "src"))
    from sctk.cli import COMMANDS

    schema = jsonschema.Draft7Validator(
        json.loads((ROOT / "src" / "sctk" / "report_schema.json").read_text())
    )
    runs = {}
    invalid = []
    with tempfile.TemporaryDirectory() as work:
        code, out, err = _run(["emit-corpus", "--out", "configs"], work)
        if code:
            raise SystemExit(f"emit-corpus exited {code}: {err}")
        configs = sorted(p.stem for p in Path(work, "configs").glob("*.json"))
        for command in (c for c in COMMANDS if c != "emit-corpus"):
            for name in configs:
                runs[f"{command}/{name}"] = _record(command, name, work, schema, invalid)
        for base in VARIANT_CONFIGS:
            cfg = json.loads(Path(work, "configs", f"{base}.json").read_text())
            for suffix, keys in VARIANTS.items():
                name = f"{base}+{suffix}"
                text = json.dumps(dict(cfg, **keys), sort_keys=True, indent=2)
                Path(work, "configs", f"{name}.json").write_text(text + "\n")
                for command in VARIANT_COMMANDS:
                    runs[f"{command}/{name}"] = _record(command, name, work, schema, invalid)
    Path(path).write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"{len(runs)} runs -> {path}")
    for line in invalid:
        print(f"schema: {line}")
    print(f"{len(invalid)} reports fail report_schema.json")
    return 1 if invalid else 0


def _number(value):
    """A float for a JSON number or a numeric string such as "inf", else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _walk(a, b, where, numbers, other):
    """Collect (relative difference, where) of paired numbers in numbers,
    and the location of every other difference in other."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                other.append(f"{where}.{key}: present on one side only")
            else:
                _walk(a[key], b[key], f"{where}.{key}", numbers, other)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            other.append(f"{where}: length {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{where}[{i}]", numbers, other)
    elif _number(a) is not None and _number(b) is not None:
        x, y = _number(a), _number(b)
        if x != y and math.isfinite(x) and math.isfinite(y):
            numbers.append((abs(x - y) / max(abs(x), abs(y)), where))
        elif x != y:
            other.append(f"{where}: {a!r} != {b!r}")
    elif a != b:
        other.append(f"{where}: {a!r} != {b!r}")


def _csv_cells(text):
    return [line.split(",") for line in text.splitlines()]


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    listed = []
    numbers = []
    for run in sorted(set(a) | set(b)):
        if run not in a or run not in b:
            listed.append(f"{run}: run on one side only")
            continue
        ra, rb = a[run], b[run]
        for key in ("exit", "stdout", "stderr"):
            if ra[key] != rb[key]:
                listed.append(f"{run}: {key} differs: {ra[key]!r} != {rb[key]!r}")
        _walk(ra["report"], rb["report"], f"{run} report", numbers, listed)
        csv_a = {k: _csv_cells(v) for k, v in ra["csv"].items()}
        csv_b = {k: _csv_cells(v) for k, v in rb["csv"].items()}
        _walk(csv_a, csv_b, f"{run} csv", numbers, listed)
    for line in listed:
        print(line)
    print(f"{len(a)} and {len(b)} runs; {len(listed)} differences not in numbers")
    if numbers:
        worst, where = max(numbers)
        print(f"{len(numbers)} numbers differ; largest relative difference "
              f"{worst:.3g} at {where}")
    else:
        print("every report and CSV number is equal")
    return 1 if listed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("digest", nargs="?", help="file to write the digest to")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two digest files instead")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.digest:
        parser.error("give a digest file to write, or --compare A B")
    return digest(args.digest)


if __name__ == "__main__":
    raise SystemExit(main())
