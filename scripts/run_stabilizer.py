#!/usr/bin/env python3
"""Two stabilization routes side by side.

Piecewise route: the interval control kernel applied afresh each interval
(exact second moments, control energies and the spectral radius of the
interval map).  Feedback route: the Riccati gain with the exact lift decay
curve and quadratic cost.
"""

import argparse

import numpy as np

from sctk.corpus import CORPUS
from sctk.nullcontrol import control_kernel
from sctk.observability import assemble_forms, optimal_constant
from sctk.riccati import NotSolvable, lq_value, solve_sare
from sctk.stabilizer import run_piecewise, run_riccati_feedback
from sctk.systems import HorizonConfig
from sctk.trees import TreeDriver, build_tree


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--system", default="S2", choices=sorted(CORPUS))
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--K", type=int, default=4)
    ap.add_argument("--delta", type=float, default=0.5)
    ap.add_argument("--k-max", type=int, default=5)
    args = ap.parse_args()

    sys_ = CORPUS[args.system]()
    x0 = np.zeros(sys_.n)
    x0[0] = 1.0

    tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(args.T, args.K), sys_.d)
    forms = assemble_forms(tree, sys_)
    rep = optimal_constant(forms, args.delta)
    if not rep.observable:
        print(f"{args.system} is not {args.delta}-observable at T={args.T}")
        return
    kernel = control_kernel(tree, sys_, rep.c_opt, args.delta, forms)
    run = run_piecewise(sys_, kernel, x0, args.k_max)
    print(f"piecewise (c={rep.c_opt:.6g}, delta={args.delta}):")
    prev = None
    for r in run.records:
        ratio = f", ratio {r.msq / prev:.6g}" if prev else ""
        print(
            f"  k={r.k}: E|x_k|^2 = {r.msq:.6g}{ratio}, "
            f"cumulative energy {r.cum_energy:.6g}"
        )
        prev = r.msq
    print(
        f"  interval contraction rho(Phi) = {run.interval_contraction:.6g} "
        f"vs delta {args.delta}"
    )

    sol = solve_sare(sys_)
    if isinstance(sol, NotSolvable):
        print("Riccati route: not solvable")
        return
    fb = run_riccati_feedback(sys_, sol.F, x0)
    print(
        f"feedback route: abscissa {fb.abscissa:.4f}, cost {fb.cost:.8g} "
        f"(= <P x0, x0> = {lq_value(sol.P, x0):.8g})"
    )


if __name__ == "__main__":
    main()
