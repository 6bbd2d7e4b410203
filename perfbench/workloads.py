"""The benchmark's three workloads: inputs, timed operations and checks.

Each workload is a fixed list of operations.  ``--seed`` sets the order in
which a pass runs them and, on corpus-fine, the configs' ``seed`` (Monte
Carlo paths and gain-search restarts).  The work itself does not depend on the seed: the operations of
riccati-draws cost from 2 ms to 2 s each, so a stream drawn afresh per
seed would move pass_s by a factor of three from seed to seed, and a draw
on which sctk fails would change the share of failed operations.

An operation returns a small output record; ``check`` compares it with
``oracle`` and returns None when it is correct, or the reason it is not.
Every operation starts from the system matrices or a config file, so no
result that sctk caches inside one operation reaches the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# sctk's functions are looked up as module attributes at call time, so the
# traced run sees the rebound names
import sctk.cli as cli
import sctk.corpus as corpus
import sctk.observability as observability
import sctk.riccati as riccati
import sctk.systems as systems
import sctk.trees as trees

import oracle

HERE = Path(__file__).resolve().parent
REGRESSION_FILE = HERE / "inputs" / "regression_draws.json"


@dataclass
class Op:
    """One timed operation: ``run()`` returns the output that ``check`` reads."""

    name: str
    run: object
    spec: dict = field(default_factory=dict)
    expected_failure: str = None  # the named fault, for a counted failure


def _shuffled(ops, seed):
    random.Random(seed).shuffle(ops)
    return ops


# -- invariance-mesh ---------------------------------------------------------

INVARIANCE_T = 1.0
INVARIANCE_DELTA = 0.5
# meshes up to the default Gram budget of 4000 rows: r = m (b^K - 1)/(b - 1)
INVARIANCE_MESHES = {
    "bernoulli": (8, 9, 10, 11),
    "trinomial": (6, 7, 8),
    "quantized_gaussian": (6, 7, 8),
}
S4_DELTA0_FAULT = (
    "optimal_constant compares the kernel energy with an absolute tolerance "
    "(observability.py:329, :370): S4 has c_opt = inf at delta = 0 on every "
    "tree, but the kernel energy falls below 1e-9 for K >= 9"
)


def _corpus_systems():
    return {name: make() for name, make in corpus.CORPUS.items()}


def _copt_op(system, driver, K, delta):
    def run():
        tree = trees.build_tree(
            trees.TreeDriver.from_name(driver),
            systems.HorizonConfig(T=INVARIANCE_T, K=K),
            system.d,
        )
        forms = observability.assemble_forms(tree, system)
        return observability.optimal_constant(forms, delta).c_opt

    return run


def invariance_mesh(seed, out_dir):
    named = _corpus_systems()
    cells = []
    for name in ("S2", "S4"):
        for driver, meshes in INVARIANCE_MESHES.items():
            cells += [(name, driver, K, INVARIANCE_DELTA) for K in meshes]
    # M0 at delta = 0: r = 511 and 1023 take the dense path, r = 2047 the
    # shifted sparse solve (_SPARSE_FASTPATH_MIN = 1500)
    cells += [("M0", "bernoulli", K, 0.0) for K in (9, 10, 11)]
    cells += [("S4", "bernoulli", K, 0.0) for K in (8, 9, 10)]
    ops = []
    for name, driver, K, delta in cells:
        s = named[name]
        ops.append(
            Op(
                name=f"{name}/{driver}/K={K}/delta={delta}",
                run=_copt_op(s, driver, K, delta),
                spec={
                    "system": oracle.as_system(s.A, s.B, s.C, s.D),
                    "label": name,
                    "K": K,
                    "delta": delta,
                },
                expected_failure=S4_DELTA0_FAULT
                if (name, delta) == ("S4", 0.0) and K >= 9
                else None,
            )
        )
    return _shuffled(ops, seed)


def _memo(cache, key, compute):
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def _rel_gap(a, b):
    if math.isinf(a) or math.isinf(b):
        return 0.0 if a == b else math.inf
    return abs(a - b) / max(abs(b), 1e-300)


def check_copt(op, c, memo):
    spec = op.spec
    K, delta, system = spec["K"], spec["delta"], spec["system"]
    if delta > 0:
        ref = _memo(
            memo,
            ("copt", spec["label"], K, delta),
            lambda: oracle.c_opt(system, INVARIANCE_T, K, delta),
        )
    elif spec["label"] == "M0":
        ref = 1.0 / INVARIANCE_T
    else:
        exact = _memo(
            memo,
            ("nc", spec["label"], K),
            lambda: oracle.null_controllable_exactly(system, INVARIANCE_T, K),
        )
        if exact:
            return None if math.isfinite(c) else "c_opt = inf, exact null control exists"
        ref = math.inf
    if _rel_gap(c, ref) > 1e-8:
        return f"c_opt {c!r} != reference {ref!r}"
    return None


def check_invariance_groups(ops, outputs):
    """Matched-moment drivers must agree at each (system, K, delta)."""
    groups = {}
    for op in ops:
        if op.name in outputs:
            key = (op.spec["label"], op.spec["K"], op.spec["delta"])
            groups.setdefault(key, []).append(op.name)
    bad = {}
    for key, names in groups.items():
        vals = [outputs[n] for n in names]
        if len(vals) > 1 and max(_rel_gap(v, vals[0]) for v in vals) > 1e-8:
            for n in names:
                bad[n] = f"drivers disagree at {key}: {vals}"
    return bad


# -- riccati-draws -----------------------------------------------------------

RICCATI_STREAM_SEED = 7
RICCATI_STREAM_DRAWS = 140
RICCATI_DIM_CAP = 2
DRAW_FAULTS = {
    12: "absolute Newton stall test 100*tol (riccati.py:215) raises "
    "NumericalFailure on a solvable system with |P| ~ 1e5",
    84: "Newton divergence reported as NotSolvable (riccati.py:221) on a "
    "system the scalar criterion shows stabilizable",
}


def random_system(rng, n_max=3, m_max=3, d_max=3, drift=0.8, noise=0.4, dnoise=0.3):
    """Same distribution and draw order as tests/conftest.py's random_system."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    d = int(rng.integers(1, d_max + 1))
    A = drift * rng.standard_normal((n, n))
    B = rng.standard_normal((n, m))
    C = [noise * rng.standard_normal((n, n)) for _ in range(d)]
    D = [dnoise * rng.standard_normal((n, m)) for _ in range(d)]
    return A, B, C, D


def riccati_inputs():
    """(label, (A, B, C, D), fault) for the stream and the regression draws.

    The stream is the first RICCATI_STREAM_DRAWS draws of
    random_system(default_rng(7)) with n, m, d <= RICCATI_DIM_CAP; larger
    draws cost up to 36 s each.  Draws 12 and 84 of the same stream come
    from the stored matrices, which must equal the regenerated draws.
    """
    stored = json.loads(REGRESSION_FILE.read_text())["regression_draws"]
    stored = {rec["index"]: rec for rec in stored}
    rng = np.random.default_rng(RICCATI_STREAM_SEED)
    items = []
    for i in range(RICCATI_STREAM_DRAWS):
        A, B, C, D = random_system(rng)
        if max(A.shape[0], B.shape[1], len(C)) <= RICCATI_DIM_CAP:
            items.append((f"draw{i}", (A, B, C, D), None))
        if i in stored:
            rec = stored[i]
            mats = (np.array(rec["A"]), np.array(rec["B"]),
                    [np.array(c) for c in rec["C"]], [np.array(d) for d in rec["D"]])
            drawn, kept = (A, B, *C, *D), (mats[0], mats[1], *mats[2], *mats[3])
            if len(drawn) != len(kept) or not all(map(np.array_equal, drawn, kept)):
                raise ValueError(f"{REGRESSION_FILE.name}: draw {i} differs from the stream")
            items.append((rec["name"], mats, DRAW_FAULTS[i]))
    return items


def _sare_op(system):
    def run():
        try:
            res = riccati.solve_sare(system)
        except Exception as exc:  # a failed operation is data here
            return {"error": f"{type(exc).__name__}: {exc}"}
        if isinstance(res, riccati.NotSolvable):
            return {"solvable": False, "reason": res.reason}
        return {"solvable": True, "P": res.P, "F": res.F}

    return run


def riccati_draws(seed, out_dir):
    ops = []
    for label, (A, B, C, D), fault in riccati_inputs():
        s = systems.make_system(A, B, C=C, D=D)
        ops.append(
            Op(
                name=label,
                run=_sare_op(s),
                spec={"system": oracle.as_system(A, B, C, D), "label": label},
                expected_failure=fault,
            )
        )
    return _shuffled(ops, seed)


def check_solution(system, P, F):
    """P must be the unique positive-definite stabilizing SARE solution."""
    P = np.asarray(P, dtype=float)
    scale = max(1.0, float(np.linalg.norm(P)))
    if np.linalg.norm(P - P.T) > 1e-12 * scale:
        return "P is not symmetric"
    if np.linalg.eigvalsh(P)[0] <= 0:
        return "P is not positive definite"
    resid = float(np.linalg.norm(oracle.sare_residual(system, P)))
    if resid > 1e-9 * scale:
        return f"SARE residual {resid:.3e} exceeds 1e-9 |P|"
    F_own = oracle.sare_gain(system, P)
    if np.linalg.norm(np.asarray(F) - F_own) > 1e-8 * max(1.0, np.linalg.norm(F_own)):
        return "reported gain differs from the gain of P"
    if oracle.lift_abscissa(system, F_own) >= 0:
        return "closed loop is not mean-square stable"
    return None


def check_not_solvable(system, memo, label):
    verdict = _memo(memo, ("stab", label), lambda: oracle.stabilizable(system))
    if verdict is None:
        return "oracle could not decide stabilizability"
    return "NotSolvable, but the system is stabilizable" if verdict else None


def check_sare(op, out, memo):
    if "error" in out:
        return out["error"]
    system = op.spec["system"]
    if out["solvable"]:
        return check_solution(system, out["P"], out["F"])
    return check_not_solvable(system, memo, op.spec["label"])


# -- corpus-fine ---------------------------------------------------------------

CORPUS_MESHES = {
    "S1": ("bernoulli", 10),
    "S2": ("trinomial", 7),
    "S3": ("bernoulli", 10),
    "S4": ("bernoulli", 10),
    "M0": ("bernoulli", 10),
}
CORPUS_PATHS = 20_000
CLI_COMMANDS = (
    "validate", "stability", "riccati", "observe",
    "synthesize", "theorem51", "stabilize", "equivalence",
)
# documented answer on S3 is exit 1: no valid constant exists
CLI_SKIP = {("S3", "synthesize"), ("S3", "stabilize")}


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _cli_op(command, cfg_path, out):
    def run():
        return _quiet_main([command, "--config", str(cfg_path), "--out", str(out)])

    return run


def corpus_configs(seed, out_dir):
    """Emit the corpus with sctk, then raise K toward the dense-form budget."""
    emitted = out_dir / "emitted"
    if _quiet_main(["emit-corpus", "--out", str(emitted)]) != 0:
        raise RuntimeError("sctk emit-corpus failed")
    configs = {}
    for name, (driver, K) in CORPUS_MESHES.items():
        cfg = json.loads((emitted / f"{name.lower()}.json").read_text())
        cfg.update(driver=driver, K=K, paths=CORPUS_PATHS, seed=seed)
        path = out_dir / "configs" / f"{name.lower()}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n")
        configs[name] = (path, cfg)
    return configs


def corpus_fine(seed, out_dir):
    ops = []
    for name, (path, cfg) in corpus_configs(seed, out_dir).items():
        for command in CLI_COMMANDS:
            if (name, command) in CLI_SKIP:
                continue
            out = out_dir / "reports" / name / command
            ops.append(
                Op(
                    name=f"{name}/{command}",
                    run=_cli_op(command, path, out),
                    spec={"cfg": cfg, "command": command,
                          "report": out / f"{command}_report.json"},
                )
            )
    return _shuffled(ops, seed)


def _cfg_system(cfg):
    n, m = cfg["n"], cfg["m"]
    A = np.reshape(cfg["A"], (n, n))
    B = np.reshape(cfg["B"], (n, m))
    C = [np.reshape(c, (n, n)) for c in cfg["C"]]
    D = [np.reshape(d, (n, m)) for d in cfg["D"]]
    return oracle.as_system(A, B, C, D)


def _num(v):
    return math.inf if v == "inf" else float(v)


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


class CliCase:
    """What the checks of one corpus-fine report need, with memoized references."""

    def __init__(self, cfg, memo):
        self.cfg = cfg
        self.system = _cfg_system(cfg)
        self.T, self.K, self.delta = float(cfg["T"]), int(cfg["K"]), float(cfg["delta"])
        self.x0 = np.asarray(cfg.get("x0", [1.0] + [0.0] * (cfg["n"] - 1)))
        label = cfg["name"]
        self.stabilizable = _memo(memo, ("stab", label),
                                  lambda: oracle.stabilizable(self.system))
        self.c_opt = _memo(memo, ("copt", label, self.K, self.delta),
                           lambda: oracle.c_opt(self.system, self.T, self.K, self.delta))

    def lq_identity(self, c, x, control_energy, terminal_energy):
        P0 = oracle.lq_p0(self.system, self.T, self.K, c, self.delta)
        want = float(x @ P0 @ x)
        got = control_energy / c + terminal_energy / self.delta
        return None if _close(got, want, 1e-9) else f"LQ identity {got!r} != {want!r}"

    def constant(self, c):
        c = _num(c)
        return None if _rel_gap(c, self.c_opt) <= 1e-8 else f"c {c!r} != c_opt {self.c_opt!r}"


def _check_validate(case, rep):
    return None if rep["valid"] and not rep["violations"] else "reported invalid"


def _check_stability(case, rep):
    if not _close(rep["open_loop_abscissa"], oracle.lift_abscissa(case.system), 1e-9, 1e-12):
        return "open-loop abscissa differs"
    if not _close(rep["c0"], oracle.growth_constant(case.system, case.T), 1e-9):
        return "growth constant c0 differs"
    if rep.get("hautus_stabilizable", case.stabilizable) != case.stabilizable:
        return "Hautus verdict differs from the oracle"
    return None


def _check_riccati(case, rep):
    if rep["solvable"] != case.stabilizable:
        return f"solvable={rep['solvable']}, oracle says {case.stabilizable}"
    if not rep["solvable"]:
        return None
    P = np.asarray(rep["P"])
    bad = check_solution(case.system, P, rep["F"])
    if bad is None and not _close(rep["value_at_x0"], float(case.x0 @ P @ case.x0), 1e-12):
        bad = "value_at_x0 != x0' P x0"
    return bad


def _check_observe(case, rep):
    return case.constant(rep["c_opt"])


def _check_synthesize(case, rep):
    return case.constant(rep["c"]) or case.lq_identity(
        rep["c"], case.x0, rep["control_energy"], rep["terminal_energy"])


def _check_theorem51(case, rep):
    bad = case.constant(rep["c_opt"])
    if bad:
        return bad
    if not math.isfinite(case.c_opt):
        return "applicable without a constant" if rep["applicable"] else None
    c, delta = rep["c_used"], case.delta
    c0 = oracle.growth_constant(case.system, case.T)
    for i, det in enumerate(rep["forward_details"]):
        ce = det["bounds"]["control_energy"]["value"]
        te = det["bounds"]["terminal_energy"]["value"]
        bad = case.lq_identity(c, np.eye(case.system[0].shape[0])[i], ce, te)
        if bad:
            return f"basis {i}: {bad}"
        if te > delta * (1 + 1e-12) or ce > c / delta * c0 * (1 + 1e-9):
            return f"basis {i}: synthesis bound fails"
    return None if rep["forward_pass"] else "forward direction reported failing"


def _check_stabilize(case, rep):
    bad = case.constant(rep["c"])
    if bad:
        return bad
    x2 = float(case.x0 @ case.x0)
    for r in rep["records"]:
        limit = case.delta ** r["k"] * x2 * (1 + 1e-12) + 3.0 * r["msq_se"]
        if r["msq"] > limit:
            return f"E|x_{r['k']}|^2 = {r['msq']!r} above delta^k |x0|^2 + 3 se"
    return None


def _check_equivalence(case, rep):
    verdicts = {rep[k] for k in ("riccati_solvable", "feedback_stabilizable",
                                 "weakly_observable", "null_controllable_with_cost")}
    if verdicts != {case.stabilizable}:
        return f"verdicts {sorted(verdicts)} != oracle {case.stabilizable}"
    return None


CLI_CHECKS = {
    "validate": _check_validate,
    "stability": _check_stability,
    "riccati": _check_riccati,
    "observe": _check_observe,
    "synthesize": _check_synthesize,
    "theorem51": _check_theorem51,
    "stabilize": _check_stabilize,
    "equivalence": _check_equivalence,
}


def check_cli(op, rc, memo):
    if rc != 0:
        return f"exit status {rc}"
    rep = json.loads(op.spec["report"].read_text())["report"]
    return CLI_CHECKS[op.spec["command"]](CliCase(op.spec["cfg"], memo), rep)


# -- registry ----------------------------------------------------------------

# name -> (operations for a seed and output directory, check of one output)
WORKLOADS = {
    "invariance-mesh": (invariance_mesh, check_copt),
    "corpus-fine": (corpus_fine, check_cli),
    "riccati-draws": (riccati_draws, check_sare),
}


def check_pass(workload, ops, outputs, memo):
    """Reason per failed operation name, over one whole pass."""
    check = WORKLOADS[workload][1]
    bad = {}
    for op in ops:
        reason = check(op, outputs[op.name], memo)
        if reason:
            bad[op.name] = reason
    if workload == "invariance-mesh":
        for name, reason in check_invariance_groups(ops, outputs).items():
            bad.setdefault(name, reason)
    return bad


def warm_up(workload, out_dir):
    """Small untimed calls that load lazy imports and BLAS kernels."""
    named = _corpus_systems()
    if workload == "invariance-mesh":
        _copt_op(named["S2"], "trinomial", 4, 0.5)()
        _copt_op(named["M0"], "bernoulli", 4, 0.0)()
    elif workload == "riccati-draws":
        _sare_op(named["S2"])()
    else:
        cfg = json.loads((out_dir / "configs" / "s2.json").read_text())
        cfg.update(driver="bernoulli", K=3, paths=100)
        path = out_dir / "warmup" / "s2.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(cfg))
        for command in CLI_COMMANDS:
            _cli_op(command, path, out_dir / "warmup" / command)()
