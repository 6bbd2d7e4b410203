"""Command-line orchestration and machine-readable reporting.

Config files are flat JSON with typed keys; matrices are row-major lists
with shapes implied by (n, m, d).  Every command writes a JSON report of
the form {"meta": {...}, "report": {...}} where only the meta header
carries the timestamp: an identical config reproduces the report section
byte for byte.  Exit status: 0 completed analysis (verdicts are
data), 1 invalid config, 2 numerical failure or an unwritable --out,
3 budget exceeded.  The one budget is max_leaves (or SCTK_MAX_LEAVES):
it caps the leaf count of the tree that synthesize sweeps node by node
for control_field.csv and the duality residuals, and synthesize is the
only command that builds a branch template, once that budget has passed.
Every other command works on the one-step maps and the n x n recursions
alone, whatever the branch or leaf count.

One argument parser serves every main() call in a process, and --out is
made once per call.  A report is written from what the handler returns,
a dict or the analysis's own report dataclass, in one walk (_jsonable)
that reads dataclass fields in place and turns arrays, numpy scalars and
infinities into JSON values.

A rerun into the same --out rewrites each report, CSV and emitted config
in place, over the old file's bytes (see _write_text).  A crash mid-write
therefore leaves old and new bytes mixed, not a truncated file; neither
is a valid report, and a rerun regenerates it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys as _sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .corpus import CORPUS, EXPECTED_STABILIZABLE
from .errors import BudgetExceeded, InvalidConfig, NumericalFailure
from .moments import build_generator, growth_constant_c0, spectral_abscissa
from .nullcontrol import control_kernel, synthesize_control, verify_theorem_5_1
from .observability import assemble_forms, invariance_experiment, optimal_constant
from .riccati import NotSolvable, lq_value, solve_sare
from .stabilizer import (
    equivalence_harness,
    lift_certificate,
    run_piecewise,
    run_riccati_feedback,
)
from .systems import HorizonConfig, StochasticSystem, hautus_stabilizability, validate_system
from .trees import TreeDriver, build_tree, field_to_rows

DEFAULT_MAX_LEAVES = 200_000

_KNOWN_KEYS = {
    "name": str,
    "description": str,
    "expected": dict,
    "n": int,
    "m": int,
    "d": int,
    "A": list,
    "B": list,
    "C": list,
    "D": list,
    "T": (int, float),
    "K": int,
    "K_grid": list,
    "driver": str,
    "gh_levels": int,
    "delta": (int, float),
    "c": (int, float),
    "x0": list,
    # accepted for configs written for the Monte Carlo stabilizer and the
    # grid equivalence harness; no result depends on any of them
    "seed": int,
    "paths": int,
    "delta_grid": list,
    "T_grid": list,
    "k_max": int,
    "max_leaves": int,
}


@dataclass
class RunConfig:
    """Parsed, validated run configuration."""

    raw: dict
    system: StochasticSystem
    horizon: HorizonConfig
    driver: TreeDriver
    delta: float
    K_grid: list
    c: float  # None: use the optimal constant
    x0: np.ndarray
    seed: int  # fills meta.seed only; no result depends on it
    k_max: int
    max_leaves: int  # guards synthesize only


def _is_number(v, kind) -> bool:
    """True iff v is a finite number of the given kind and not a bool."""
    if isinstance(v, bool) or not isinstance(v, kind):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _check_list(key, val):
    """Reject a list-valued key whose elements are not finite real numbers.

    C and D hold one flat list per noise component, K_grid holds integers,
    and every other list is flat.  JSON true would pass as the number 1,
    and Python's json module reads NaN and Infinity as floats.
    """
    nested, integer = key in ("C", "D"), key == "K_grid"
    kind = int if integer else (int, float)
    for row in val if nested else [val]:
        if not isinstance(row, list) or not all(_is_number(v, kind) for v in row):
            raise InvalidConfig(
                f"config key {key!r} has wrong type: expected a list of "
                + ("lists of " if nested else "")
                + ("integers" if integer else "finite numbers")
            )


def _reshape(name, flat, rows, cols):
    arr = np.asarray(flat, dtype=float)
    if arr.size != rows * cols:
        raise InvalidConfig(
            f"key {name!r}: expected {rows * cols} entries for a "
            f"{rows}x{cols} matrix, got {arr.size}"
        )
    return arr.reshape(rows, cols)


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise InvalidConfig("config root must be a JSON object")
    for key, val in data.items():
        if key not in _KNOWN_KEYS:
            raise InvalidConfig(f"unknown config key {key!r}")
        # no key takes a boolean, and JSON true would pass as the int 1
        if isinstance(val, bool) or not isinstance(val, _KNOWN_KEYS[key]):
            raise InvalidConfig(f"config key {key!r} has wrong type")
        if _KNOWN_KEYS[key] is list:
            _check_list(key, val)
        if _KNOWN_KEYS[key] == (int, float) and not _is_number(val, (int, float)):
            raise InvalidConfig(f"config key {key!r} must be a finite number")
    for req in ("n", "m", "d", "A", "B", "T", "K"):
        if req not in data:
            raise InvalidConfig(f"missing required config key {req!r}")
    n, m, d = int(data["n"]), int(data["m"]), int(data["d"])
    A = _reshape("A", data["A"], n, n)
    B = _reshape("B", data["B"], n, m)
    Craw = data.get("C", [[0.0] * (n * n)] * d)
    Draw = data.get("D", [[0.0] * (n * m)] * d)
    if len(Craw) != d or len(Draw) != d:
        raise InvalidConfig(f"C and D must be lists of d={d} matrices")
    C = tuple(_reshape(f"C[{i}]", Ci, n, n) for i, Ci in enumerate(Craw))
    D = tuple(_reshape(f"D[{i}]", Di, n, m) for i, Di in enumerate(Draw))
    system = StochasticSystem(n=n, m=m, d=d, A=A, B=B, C=C, D=D).checked()
    horizon = HorizonConfig(T=float(data["T"]), K=int(data["K"]))
    driver = TreeDriver.from_name(
        data.get("driver", "bernoulli"), int(data.get("gh_levels", 3))
    )
    delta = float(data.get("delta", 0.5))
    if not 0.0 <= delta < 1.0:
        raise InvalidConfig(f"delta must be in [0, 1), got {delta}")
    x0 = np.asarray(data.get("x0", [1.0] + [0.0] * (n - 1)), dtype=float)
    if x0.shape != (n,):
        raise InvalidConfig(f"x0 must have {n} entries")
    k_max = int(data.get("k_max", 5))
    if k_max < 0:
        raise InvalidConfig(f"k_max must be >= 0, got {k_max}")

    return RunConfig(
        raw=data,
        system=system,
        horizon=horizon,
        driver=driver,
        delta=delta,
        K_grid=[int(v) for v in data.get("K_grid", [4, 6, 8])],
        c=float(data["c"]) if "c" in data else None,
        x0=x0,
        seed=int(data.get("seed", 0)),
        k_max=k_max,
        max_leaves=int(
            os.environ.get("SCTK_MAX_LEAVES") or data.get("max_leaves", DEFAULT_MAX_LEAVES)
        ),
    )


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
    return parse_config(data)


def _jsonable(obj):
    """The report value of obj: JSON types only, in one walk.

    A dataclass becomes the dict of its fields, read in place (what
    dataclasses.asdict gives, without its deep copy of every leaf); an
    infinity becomes "inf" or "-inf", and a NaN is a NumericalFailure.
    """
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            raise NumericalFailure("a report value is NaN")
        return v if math.isfinite(v) else ("inf" if v > 0 else "-inf")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if hasattr(type(obj), "__dataclass_fields__"):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def _config_hash(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_text(path: Path, text: str) -> Path:
    """Write text to path over the file's old bytes; return the path.

    The file is opened without O_TRUNC and cut to the new length after the
    write, so rewriting a file of about the same size frees no disk block
    (truncating first frees them all, and on a filesystem that discards
    freed blocks each rewrite then costs tens of milliseconds).  Trade-off:
    a crash mid-write leaves old and new bytes mixed instead of a truncated
    file.  Neither is a valid report, and a rerun regenerates it.  Like
    open(path, "w"), this follows symlinks and creates the file with the
    umask applied to 0o666.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
    return path


def write_report(out_dir, command, cfg_raw, seed, payload) -> Path:
    """Write <command>_report.json into out_dir, which must exist (main
    makes it once per call); payload is a dict or a report dataclass."""
    doc = {
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "command": command,
            "config_hash": _config_hash(cfg_raw),
            "seed": seed,
            "versions": {
                "sctk": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
        },
        "report": _jsonable(payload),
    }
    path = Path(out_dir) / f"{command.replace('-', '_')}_report.json"
    return _write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# command implementations; each returns (payload, verdict_line)


def _cmd_validate(cfg: RunConfig):
    violations = validate_system(cfg.system)
    payload = {"violations": violations, "valid": not violations}
    return payload, f"validate: {'ok' if not violations else violations}"


def _cmd_stability(cfg: RunConfig):
    alpha = spectral_abscissa(build_generator(cfg.system))
    c0 = growth_constant_c0(cfg.system, cfg.horizon.T)
    payload = {
        "open_loop_abscissa": alpha,
        "c0": c0,
        "T": cfg.horizon.T,
    }
    if cfg.system.is_deterministic:
        payload["hautus_stabilizable"] = hautus_stabilizability(
            cfg.system.A, cfg.system.B
        )
    return payload, f"stability: open-loop abscissa {alpha:.6g}, c0({cfg.horizon.T}) = {c0:.6g}"


def _cmd_riccati(cfg: RunConfig):
    sol = solve_sare(cfg.system)
    if isinstance(sol, NotSolvable):
        payload = {"solvable": False, "reason": sol.reason, "diagnostics": sol.diagnostics}
        return payload, "riccati: NotSolvable"
    payload = {
        "solvable": True,
        "P": sol.P,
        "F": sol.F,
        "residual": sol.residual,
        "iterations": sol.iterations,
        "value_at_x0": lq_value(sol.P, cfg.x0),
        "closed_loop_abscissa": sol.abscissa,
    }
    return payload, f"riccati: solved, residual {sol.residual:.3e}"


def _build_forms(cfg: RunConfig):
    return assemble_forms(build_tree(cfg.driver, cfg.horizon, cfg.system.d), cfg.system)


def _cmd_observe(cfg: RunConfig):
    forms = _build_forms(cfg)
    rep = optimal_constant(forms, cfg.delta)
    payload = dict(vars(rep), driver=forms.driver_kind, K=forms.K)
    return payload, (
        f"observe: c_opt({cfg.delta}) = "
        f"{'inf' if not rep.observable else format(rep.c_opt, '.10g')}"
    )


def _cmd_invariance(cfg: RunConfig, out_dir):
    drivers = [
        TreeDriver.bernoulli(),
        TreeDriver.trinomial(),
        TreeDriver.quantized_gaussian(3),
    ]
    table = invariance_experiment(
        cfg.system,
        cfg.horizon.T,
        cfg.delta,
        drivers,
        cfg.K_grid,
    )
    payload = {
        "rows": table.rows,
        "gaps": {str(k): v for k, v in table.gaps.items()},
        "gaps_non_increasing": table.gaps_non_increasing,
    }
    _write_text(
        Path(out_dir) / "invariance_table.csv",
        "driver,K,delta,T,c_opt,observable\n" + "".join(
            f"{row['driver']},{row['K']},{row['delta']},{row['T']},"
            f"{row['c_opt']},{row['observable']}\n"
            for row in table.rows
        ),
    )
    gap_str = ", ".join(f"K={k}: {v:.3e}" for k, v in sorted(table.gaps.items()))
    return payload, f"invariance: gaps {gap_str}"


def _pick_constant(cfg: RunConfig, forms):
    if cfg.c is not None:
        return cfg.c
    rep = optimal_constant(forms, cfg.delta)
    if not rep.observable:
        raise InvalidConfig(
            f"system is not observable at delta={cfg.delta} on this tree, "
            "so no valid constant exists; raise delta or the horizon"
        )
    return max(rep.c_opt, 1e-12)


def _cmd_synthesize(cfg: RunConfig, out_dir):
    forms = _build_forms(cfg)
    tree = forms.tree
    if tree.leaf_count > cfg.max_leaves:
        raise BudgetExceeded(
            f"tree with b={tree.b}, K={tree.K} has {tree.leaf_count} leaves "
            f"(budget {cfg.max_leaves})"
        )
    c = _pick_constant(cfg, forms)
    res = synthesize_control(control_kernel(forms, c, cfg.delta), cfg.x0)
    rows = field_to_rows(tree, res.u)
    header = "node,depth," + ",".join(f"u{i}" for i in range(cfg.system.m))
    # np.savetxt's default "%.18e" rows, formatted in one pass
    line = ",".join(["%.18e"] * rows.shape[1]) + "\n"
    body = line * len(rows) % tuple(rows.ravel().tolist())
    _write_text(Path(out_dir) / "control_field.csv", header + "\n" + body)
    payload = {
        "c": c,
        "delta": cfg.delta,
        "control_energy": res.control_energy,
        "terminal_energy": res.terminal_energy,
        "f_energy": res.f_energy,
        "c0": res.c0,
        "tree_growth": res.tree_growth,
        "bounds": res.bounds,
        "terminal_identity_residual": res.terminal_identity_residual,
        "energy_identity_residual": res.energy_identity_residual,
        "all_bounds_hold": res.all_bounds_hold,
    }
    return payload, (
        f"synthesize: terminal energy {res.terminal_energy:.6g} <= "
        f"{cfg.delta}*|x_s|^2, bounds {'pass' if res.all_bounds_hold else 'FAIL'}"
    )


def _cmd_theorem51(cfg: RunConfig):
    rep = verify_theorem_5_1(_build_forms(cfg), cfg.delta, c=cfg.c)
    payload = rep
    if not rep.applicable:
        return payload, "theorem51: not applicable (not observable at this delta)"
    return payload, (
        f"theorem51: forward {'pass' if rep.forward_pass else 'FAIL'}, "
        f"converse {'pass' if rep.converse_pass else 'FAIL'}"
    )


def _cmd_stabilize(cfg: RunConfig, out_dir):
    if not (0.0 < cfg.delta < 1.0):
        raise InvalidConfig("stabilize needs delta in (0, 1)")
    forms = _build_forms(cfg)
    c = _pick_constant(cfg, forms)
    kernel = control_kernel(forms, c, cfg.delta)
    run = run_piecewise(kernel, cfg.x0, cfg.k_max)
    # the moments are exact; the *_se fields and columns stay at 0.0 for
    # readers of the earlier Monte Carlo reports
    records = [
        {"k": r.k, "msq": r.msq, "msq_se": 0.0, "energy": r.energy,
         "energy_se": 0.0, "cum_energy": r.cum_energy, "cum_energy_se": 0.0}
        for r in run.records
    ]
    _write_text(
        Path(out_dir) / "piecewise_decay.csv",
        ",".join(records[0]) + "\n"
        + "".join(",".join(str(v) for v in rec.values()) + "\n" for rec in records),
    )
    payload = {
        "c": c,
        "delta": cfg.delta,
        "records": records,
        "interval_contraction": run.interval_contraction,
        "total_energy": run.total_energy,
        "total_energy_se": 0.0,
    }
    sol = solve_sare(cfg.system)
    if not isinstance(sol, NotSolvable):
        fb = run_riccati_feedback(cfg.system, sol.F, cfg.x0)
        payload["feedback_comparison"] = {
            "abscissa": fb.abscissa,
            "cost": fb.cost,
            "value_at_x0": lq_value(sol.P, cfg.x0),
            "certificate": lift_certificate(cfg.system, sol.F, cfg.delta),
        }
    return payload, (
        f"stabilize: interval contraction {run.interval_contraction:.4g} vs "
        f"delta {cfg.delta:.4g}, total energy {run.total_energy:.6g}"
    )


def _cmd_equivalence(cfg: RunConfig):
    # a delta outside (0, 1) is a ValueError, so exit 1
    rep = equivalence_harness(cfg.system, cfg.delta)
    payload = rep
    return payload, (
        f"equivalence: verdicts {rep.verdicts}, agreement "
        f"{'yes' if rep.agreement else 'NO'}"
    )


def _corpus_config(name: str) -> dict:
    sysv = CORPUS[name]()
    cfg = {
        "name": name,
        "description": {
            "S1": "scalar integrator, no noise; stabilizable with P = 1",
            "S2": "scalar with unit state noise; stabilizable with P = (1+sqrt(5))/2",
            "S3": "unstable scalar without control; not stabilizable",
            "S4": "double integrator with mild state noise; stabilizable",
            "M0": "martingale case A=C=0, B=I; optimal constant 1/T at delta=0",
        }[name],
        "expected": {"stabilizable": EXPECTED_STABILIZABLE[name]},
        "n": sysv.n,
        "m": sysv.m,
        "d": sysv.d,
        "A": sysv.A.ravel().tolist(),
        "B": sysv.B.ravel().tolist(),
        "C": [Ci.ravel().tolist() for Ci in sysv.C],
        "D": [Di.ravel().tolist() for Di in sysv.D],
        "T": 1.0,
        "K": 4,
        "driver": "bernoulli",
        "delta": 0.5,
        "seed": 0,
    }
    return cfg


def emit_corpus(out_dir) -> list:
    """Write the bundled S1..S4 and M0 configs; deterministic bytes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return [
        _write_text(
            out / f"{name.lower()}.json",
            json.dumps(_corpus_config(name), sort_keys=True, indent=2) + "\n",
        )
        for name in ("S1", "S2", "S3", "S4", "M0")
    ]


# command -> (handler, whether it writes files into --out besides the report)
_HANDLERS = {
    "validate": (_cmd_validate, False),
    "stability": (_cmd_stability, False),
    "riccati": (_cmd_riccati, False),
    "observe": (_cmd_observe, False),
    "invariance": (_cmd_invariance, True),
    "synthesize": (_cmd_synthesize, True),
    "theorem51": (_cmd_theorem51, False),
    "stabilize": (_cmd_stabilize, True),
    "equivalence": (_cmd_equivalence, False),
}
COMMANDS = (*_HANDLERS, "emit-corpus")


# one parser per process: parse_args leaves it as it was, and building it
# (a HelpFormatter and a gettext lookup per argument) costs ten times
# what a parse does
_PARSER = argparse.ArgumentParser(
    prog="sctk",
    description="Desk-scale analysis of constant-coefficient stochastic "
    "control systems: observability constants, Riccati-feedback null "
    "control synthesis, Riccati stabilization, and their equivalence.",
)
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("--config", help="path to a JSON run configuration")
_PARSER.add_argument("--out", default="sctk_out", help="output directory")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        if args.command == "emit-corpus":
            paths = emit_corpus(args.out)
            print(f"emit-corpus: wrote {len(paths)} configs to {args.out}")
            return 0
        if not args.config:
            raise InvalidConfig(f"command {args.command!r} requires --config")
        cfg = load_config(args.config)
        handler, writes_files = _HANDLERS[args.command]
        # --out is made once: before a handler that writes into it, else
        # after the handler, so that a failed analysis leaves no directory
        out = Path(args.out)
        if writes_files:
            out.mkdir(parents=True, exist_ok=True)
            payload, line = handler(cfg, out)
        else:
            payload, line = handler(cfg)
            out.mkdir(parents=True, exist_ok=True)
        write_report(out, args.command, cfg.raw, cfg.seed, payload)
        print(line)
        return 0
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=_sys.stderr)
        return 3
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return 2
    except (InvalidConfig, ValueError) as exc:
        print(f"invalid config: {exc}", file=_sys.stderr)
        return 1
    except OSError as exc:
        # an unreadable config is InvalidConfig; what is left is --out
        print(f"cannot write output: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
