"""Per-layer spans and counts, measured from outside sctk.

``Tracer.install`` rebinds each traced public function, in every loaded
``sctk`` module namespace that holds it, to a wrapper that records a span
(name, start, end, parent) and the counts the layer's metrics need.  sctk
resolves these names through module globals at call time, so calls made
inside sctk are traced too.  ``uninstall`` puts the originals back.

A span's self time is its duration minus the durations of its direct
children; the self times of all spans plus the time outside every span add
up to the traced pass.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
from collections import defaultdict

# (module, function): the layer metric prefix is the module's short name
TRACED = {
    "sctk.trees": ("build_tree", "simulate_forward", "solve_bsde"),
    "sctk.observability": ("assemble_forms", "optimal_constant", "is_delta_observable"),
    "sctk.nullcontrol": ("assemble_gramian", "synthesize_control", "control_kernel",
                         "verify_theorem_5_1"),
    "sctk.riccati": ("find_stabilizing_gain", "solve_sare"),
    "sctk.moments": ("spectral_abscissa", "growth_constant_c0"),
    "sctk.stabilizer": ("run_piecewise", "run_riccati_feedback", "equivalence_harness"),
    "sctk.cli": ("main",),
}

# functions whose arguments or results feed a count
HOOKED = {
    "trees.build_tree", "observability.assemble_forms", "nullcontrol.assemble_gramian",
    "riccati.find_stabilizing_gain", "riccati.solve_sare", "stabilizer.run_piecewise",
}


def _system_key(s):
    h = hashlib.sha1()
    for mat in (s.A, s.B, *s.C, *s.D):
        h.update(mat.tobytes())
    return h.hexdigest()


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # (name index, start, end, parent span index or -1)
        self.stack = []
        self.counts = defaultdict(int)
        self.forms_keys = set()
        self._rebound = []

    # -- count hooks, called with the bound arguments and the result ------

    def _on_result(self, name, args, result):
        c = self.counts
        if name == "trees.build_tree":
            c["trees.leaves"] += result.leaf_count
        elif name == "observability.assemble_forms":
            c["observability.gram_rows"] += result.gram_dim
            self.forms_keys.add((_system_key(args["sys"]), result.driver_kind,
                                 result.T, result.K))
        elif name == "nullcontrol.assemble_gramian":
            c["nullcontrol.gramian_dim"] += args["forms"].nL
        elif name == "riccati.find_stabilizing_gain":
            c["riccati.gains_found"] += result is not None
        elif name == "riccati.solve_sare":
            c["riccati.newton_iterations"] += getattr(result, "iterations", 0)
        elif name == "stabilizer.run_piecewise":
            c["stabilizer.path_steps"] += (
                args["paths"] * args["k_max"] * args["kernel"].tree.K
            )

    def _wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        sig = inspect.signature(fn)
        hooked = name in HOOKED
        calls_key = name + "_calls"
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[me] = (idx, start, end, parent)
                counts[calls_key] += 1
            if hooked:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self._on_result(name, bound.arguments, result)
            return result

        return wrapper

    def _wrap_report_writer(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            path = fn(*args, **kwargs)
            self.counts["cli.report_bytes"] += path.stat().st_size
            return path

        return wrapper

    def install(self):
        targets = []
        for modname, funcs in TRACED.items():
            mod = sys.modules[modname]
            short = modname.split(".")[1]
            for f in funcs:
                orig = getattr(mod, f)
                targets.append((orig, self._wrap(f"{short}.{f}", orig)))
        cli = sys.modules["sctk.cli"]
        targets.append((cli.write_report, self._wrap_report_writer(cli.write_report)))
        for orig, wrapper in targets:
            for modname, mod in list(sys.modules.items()):
                if modname != "sctk" and not modname.startswith("sctk."):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._rebound.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._rebound):
            setattr(mod, attr, orig)
        self._rebound.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (idx, start, end, _) in enumerate(self.spans):
            out[self.names[idx]] += (end - start) - child[i]
        return out

    def top_level_time(self):
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def layer_metrics(self, traced_pass_s, untraced_pass_s):
        st = self.self_times()
        c = self.counts
        forms_built = c["observability.assemble_forms_calls"]
        gains_tried = c["riccati.find_stabilizing_gain_calls"]
        m = {
            "trees.build_tree_s": (st["trees.build_tree"], "s"),
            "trees.build_tree_calls": (c["trees.build_tree_calls"], "count"),
            "trees.leaves": (c["trees.leaves"], "count"),
            "trees.sweep_s": (st["trees.simulate_forward"] + st["trees.solve_bsde"], "s"),
            "observability.assemble_forms_s": (st["observability.assemble_forms"], "s"),
            "observability.assemble_forms_calls": (forms_built, "count"),
            "observability.gram_rows": (c["observability.gram_rows"], "count"),
            "observability.forms_distinct_ratio": (
                len(self.forms_keys) / forms_built if forms_built else 0.0, "ratio"),
            "observability.optimal_constant_s": (st["observability.optimal_constant"], "s"),
            "observability.optimal_constant_calls": (
                c["observability.optimal_constant_calls"], "count"),
            "observability.is_delta_observable_s": (
                st["observability.is_delta_observable"], "s"),
            "observability.is_delta_observable_calls": (
                c["observability.is_delta_observable_calls"], "count"),
            "nullcontrol.assemble_gramian_s": (st["nullcontrol.assemble_gramian"], "s"),
            "nullcontrol.assemble_gramian_calls": (
                c["nullcontrol.assemble_gramian_calls"], "count"),
            "nullcontrol.gramian_dim": (c["nullcontrol.gramian_dim"], "count"),
            "nullcontrol.synthesize_control_s": (st["nullcontrol.synthesize_control"], "s"),
            "nullcontrol.synthesize_control_calls": (
                c["nullcontrol.synthesize_control_calls"], "count"),
            "nullcontrol.control_kernel_s": (st["nullcontrol.control_kernel"], "s"),
            "nullcontrol.verify_theorem_5_1_s": (st["nullcontrol.verify_theorem_5_1"], "s"),
            "riccati.find_stabilizing_gain_s": (st["riccati.find_stabilizing_gain"], "s"),
            "riccati.find_stabilizing_gain_calls": (gains_tried, "count"),
            "riccati.gain_found_ratio": (
                c["riccati.gains_found"] / gains_tried if gains_tried else 0.0, "ratio"),
            "riccati.solve_sare_s": (st["riccati.solve_sare"], "s"),
            "riccati.solve_sare_calls": (c["riccati.solve_sare_calls"], "count"),
            "riccati.newton_iterations": (c["riccati.newton_iterations"], "count"),
            "moments.spectral_abscissa_s": (st["moments.spectral_abscissa"], "s"),
            "moments.spectral_abscissa_calls": (c["moments.spectral_abscissa_calls"], "count"),
            "moments.growth_constant_c0_s": (st["moments.growth_constant_c0"], "s"),
            "stabilizer.run_piecewise_s": (st["stabilizer.run_piecewise"], "s"),
            "stabilizer.path_steps": (c["stabilizer.path_steps"], "count"),
            "stabilizer.run_riccati_feedback_s": (st["stabilizer.run_riccati_feedback"], "s"),
            "stabilizer.equivalence_harness_s": (st["stabilizer.equivalence_harness"], "s"),
            "cli.main_s": (st["cli.main"], "s"),
            "cli.main_calls": (c["cli.main_calls"], "count"),
            "cli.report_bytes": (c["cli.report_bytes"], "bytes"),
            "trace.outside_s": (traced_pass_s - self.top_level_time(), "s"),
            "trace.overhead_s": (traced_pass_s - untraced_pass_s, "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def dump(self, path, meta):
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"meta": meta, "names": self.names,
               "columns": ["name", "start", "end", "parent"], "spans": self.spans}
        path.write_text(json.dumps(doc, separators=(",", ":")))
