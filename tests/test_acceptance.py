"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance is fixed here; Monte Carlo assertions carry a three-standard-
error allowance and fixed seeds.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

from sctk.corpus import GOLDEN_RATIO, m0, s1, s2, s3, s4
from sctk.moments import (
    build_generator,
    growth_constant_c0,
    propagate_second_moment,
)
from sctk.nullcontrol import control_kernel, synthesize_control, verify_theorem_5_1
from sctk.observability import assemble_forms, invariance_experiment, optimal_constant
from sctk.riccati import NotSolvable, closed_loop_abscissa, lq_value, solve_sare
from sctk.stabilizer import equivalence_harness, run_piecewise, run_riccati_feedback
from sctk.systems import HorizonConfig, make_system
from sctk.trees import (
    AdaptedField,
    TreeDriver,
    build_tree,
    duality_residual,
    simulate_forward,
    terminal_expectation_sq,
)
from tests.conftest import random_system

DRIVERS = [
    TreeDriver.bernoulli(),
    TreeDriver.trinomial(),
    TreeDriver.quantized_gaussian(3),
]


def _verdict(number, ok, detail, elapsed, budget):
    line = (
        f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail} "
        f"({elapsed:.2f}s < {budget:.0f}s)"
    )
    print(line)
    assert ok, line
    assert elapsed < budget, line


def _capped_K(driver, d, K_want):
    b = len(driver.support) ** d
    return max(2, min(K_want, int(math.log(2e5) / math.log(b))))


def _observable_instances(count, seed):
    """Random observable (system, tree, forms, delta, c_opt) tuples."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        sys_ = random_system(rng, n_max=2, m_max=2, d_max=2)
        delta = float(rng.uniform(0.3, 0.7))
        K = int(rng.integers(3, 5))
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=K), sys_.d)
        forms = assemble_forms(tree, sys_)
        rep = optimal_constant(forms, delta)
        if rep.observable and rep.c_opt > 1e-9:
            out.append((sys_, tree, forms, delta, rep.c_opt))
    return out


def _stabilizable_systems(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        sys_ = random_system(rng, n_max=3, m_max=2, d_max=2, drift=0.7)
        # keep the draws that the zero gain or the deterministic LQR gain
        # already stabilizes, so the selection does not depend on the
        # gain search that solve_sare runs after these two candidates
        gains = [np.zeros((sys_.m, sys_.n))]
        try:
            P = solve_continuous_are(sys_.A, sys_.B, np.eye(sys_.n), np.eye(sys_.m))
            gains.append(-sys_.B.T @ P)
        except np.linalg.LinAlgError:
            pass
        if any(closed_loop_abscissa(sys_, F) < -1e-9 for F in gains):
            out.append((sys_, solve_sare(sys_)))
    return out


def test_c01_exact_duality():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    runs = 0
    for _ in range(50):
        sys_ = random_system(rng)
        for driver in (TreeDriver.bernoulli(), TreeDriver.trinomial()):
            K = _capped_K(driver, sys_.d, 6)
            tree = build_tree(driver, HorizonConfig(T=1.0, K=K), sys_.d)
            u = AdaptedField(
                [rng.standard_normal((tree.b**k, sys_.m)) for k in range(tree.K)]
            )
            y1 = rng.standard_normal((tree.leaf_count, sys_.n))
            x0 = rng.standard_normal(sys_.n)
            worst = max(worst, duality_residual(tree, sys_, u, x0, y1))
            runs += 1
    _verdict(
        1,
        worst < 1e-10,
        f"exact duality, worst residual {worst:.2e} over {runs} runs",
        time.time() - t0,
        10,
    )


def test_c02_theorem51_forward_identity():
    t0 = time.time()
    instances = _observable_instances(20, seed=202)
    worst_identity = 0.0
    violations = 0
    rng = np.random.default_rng(2020)
    for sys_, tree, forms, delta, c_opt in instances:
        x_s = rng.standard_normal(sys_.n)
        res = synthesize_control(
            tree, sys_, x_s, c_opt, delta, forms, check_constant=False
        )
        worst_identity = max(worst_identity, res.terminal_identity_residual)
        if not (
            res.bounds["control_energy"]["holds"]
            and res.bounds["terminal_energy"]["holds"]
        ):
            violations += 1
    ok = worst_identity < 1e-8 and violations == 0
    _verdict(
        2,
        ok,
        f"synthesis control u = -c z(f) (worst residual {worst_identity:.2e}), "
        f"{violations} bound violations on 20 observable instances",
        time.time() - t0,
        30,
    )


def test_c03_theorem51_converse():
    t0 = time.time()
    rng = np.random.default_rng(303)
    done = 0
    fails = 0
    fails_linear_variant = 0
    while done < 20:
        sys_ = random_system(rng, n_max=2, m_max=2, d_max=2)
        delta = float(rng.uniform(0.3, 0.7))
        K = int(rng.integers(3, 5))
        rep = verify_theorem_5_1(sys_, HorizonConfig(T=1.0, K=K), delta)
        if not rep.applicable:
            continue
        done += 1
        fails += not rep.converse_pass
        fails_linear_variant += not rep.converse_pass_linear
    _verdict(
        3,
        fails == 0,
        f"measured-cost observability pair passes on 20/20 instances "
        f"(unsquared-cost variant would fail {fails_linear_variant})",
        time.time() - t0,
        30,
    )


def test_c04_martingale_closed_form():
    t0 = time.time()
    sys_ = m0()
    T = 1.0
    worst = 0.0
    runs = 0
    for driver in DRIVERS:
        for K in range(2, 9):
            tree = build_tree(driver, HorizonConfig(T=T, K=K), 1)
            forms = assemble_forms(tree, sys_)
            rep = optimal_constant(forms, 0.0)
            worst = max(worst, abs(rep.c_opt - 1.0 / T))
            runs += 1
    _verdict(
        4,
        worst < 1e-10,
        f"c_opt(0) = 1/T to {worst:.2e} across {runs} (driver, K) runs",
        time.time() - t0,
        5,
    )


def test_c05_riccati_oracle():
    t0 = time.time()
    sol2 = solve_sare(s2())
    golden_err = abs(sol2.P[0, 0] - GOLDEN_RATIO)
    s3_verdict = isinstance(solve_sare(s3()), NotSolvable)
    worst_res = max(sol.residual for _, sol in _stabilizable_systems(20, seed=505))
    ok = golden_err < 1e-10 and s3_verdict and worst_res < 1e-10
    _verdict(
        5,
        ok,
        f"P(S2) - golden ratio = {golden_err:.2e}, S3 NotSolvable = "
        f"{s3_verdict}, worst residual {worst_res:.2e} on 20 systems",
        time.time() - t0,
        10,
    )


def test_c06_lq_value_matches_cost():
    t0 = time.time()
    cases = [(s1(), "S1"), (s2(), "S2")]
    cases += [(sys_, f"rand{i}") for i, (sys_, _) in
              enumerate(_stabilizable_systems(5, seed=606))]
    worst_rel = 0.0
    for sys_, _name in cases:
        sol = solve_sare(sys_)
        x0 = np.ones(sys_.n) / np.sqrt(sys_.n)
        fb = run_riccati_feedback(sys_, sol.F, x0)
        value = lq_value(sol.P, x0)
        worst_rel = max(worst_rel, abs(fb.cost - value) / abs(value))
    _verdict(
        6,
        worst_rel < 0.01,
        f"closed-loop cost vs <P x0, x0>: worst relative gap {worst_rel:.2e} "
        f"on {len(cases)} systems",
        time.time() - t0,
        20,
    )


def test_c07_invariance_experiment():
    t0 = time.time()
    table = invariance_experiment(
        s2(), T=1.0, delta=0.5, drivers=DRIVERS, K_list=[4, 6, 8]
    )
    gap8 = table.gaps[8]
    ok = table.gaps_non_increasing and gap8 < 0.10
    gaps_str = ", ".join(f"K={k}: {table.gaps[k]:.2e}" for k in (4, 6, 8))
    _verdict(
        7,
        ok,
        f"driver gaps non-increasing ({gaps_str}); gap(K=8) < 10%",
        time.time() - t0,
        60,
    )


def test_c08_equivalence_harness():
    t0 = time.time()
    all_ok = True
    summary = []
    for name, sys_ in [
        ("S1", s1()), ("S2", s2()), ("S3", s3()), ("S4", s4()), ("M0", m0())
    ]:
        rep = equivalence_harness(sys_, [0.5, 1.0], [0.3, 0.6, 0.9], horizon_K=4)
        all_ok &= rep.agreement
        summary.append(f"{name}:{'T' if rep.riccati_solvable else 'F'}"
                       f"{'(refined)' if rep.refined else ''}")
    _verdict(
        8,
        all_ok,
        "four-way verdict agreement on " + " ".join(summary),
        time.time() - t0,
        120,
    )


@pytest.mark.parametrize("name,factory", [("S1", s1), ("S2", s2)])
def test_c09_piecewise_stabilizer(name, factory):
    t0 = time.time()
    sys_ = factory()
    delta, T, K = 0.5, 1.0, 4
    tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=T, K=K), sys_.d)
    forms = assemble_forms(tree, sys_)
    rep = optimal_constant(forms, delta)
    kernel = control_kernel(tree, sys_, rep.c_opt, delta, forms)
    x0 = np.ones(sys_.n)
    run = run_piecewise(sys_, kernel, x0, k_max=5, paths=10_000, seed=909)
    xs2 = float(x0 @ x0)
    decay_ok = all(
        r.msq <= delta**r.k * xs2 + 3 * r.msq_se for r in run.records
    )
    c0 = growth_constant_c0(sys_, T).c0
    energy_limit = rep.c_opt / delta * c0 / (1 - delta) * xs2
    energy_ok = run.total_energy <= energy_limit + 3 * run.total_energy_se
    _verdict(
        9,
        decay_ok and energy_ok,
        f"{name}: E|x_k|^2 <= delta^k (k <= 5) and total energy "
        f"{run.total_energy:.4g} <= {energy_limit:.4g} (10^4 paths)",
        time.time() - t0,
        120,
    )


def test_c10_growth_constant():
    t0 = time.time()
    # analytic cases
    err = abs(growth_constant_c0(m0(), 0.7).c0 - 1.0)
    err = max(err, abs(growth_constant_c0(s1(), 1.3).c0 - 1.0))
    for a, c, tau in [(0.0, 1.0, 1.0), (1.0, 0.0, 0.5), (-0.4, 0.8, 0.9)]:
        sys_ = make_system([[a]], [[0.0]], C=[[[c]]], D=[[[0.0]]])
        got = growth_constant_c0(sys_, tau).c0
        err = max(err, abs(got - np.exp((2 * a + c * c) * tau)))
    # tree estimate vs lift propagation at K = 8
    tau = 0.5
    worst_rel = 0.0
    for sys_ in (s1(), s2(), s3(), s4(), m0()):
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=tau, K=8), sys_.d)
        x0 = np.ones(sys_.n)
        free = simulate_forward(tree, sys_, x0)
        tree_msq = terminal_expectation_sq(tree, free.terminal)
        gen = build_generator(sys_)
        lift_msq = float(np.trace(propagate_second_moment(gen, np.outer(x0, x0), tau)))
        worst_rel = max(worst_rel, abs(tree_msq - lift_msq) / lift_msq)
    ok = err < 1e-10 and worst_rel < 0.05
    _verdict(
        10,
        ok,
        f"analytic c0 error {err:.2e}; tree vs lift second moment "
        f"worst relative gap {worst_rel:.2%} at K=8",
        time.time() - t0,
        10,
    )
