import numpy as np
import pytest

from sctk.nullcontrol import control_kernel
from sctk.observability import assemble_forms, optimal_constant
from sctk.riccati import lq_value, solve_sare
from sctk.stabilizer import equivalence_harness, run_piecewise, run_riccati_feedback
from sctk.systems import HorizonConfig, make_system
from sctk.trees import TreeDriver, build_tree
from tests.conftest import random_system

GOLDEN = (1 + np.sqrt(5)) / 2


def martingale_kernel(delta=0.5, T=1.0, K=4):
    sys_ = make_system(
        [[0.0]], [[1.0]], C=[[[0.0]]], D=[[[0.0]]]
    )
    tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=T, K=K), 1)
    forms = assemble_forms(tree, sys_)
    return sys_, control_kernel(tree, sys_, 1.0 / T, delta, forms)


class TestPiecewise:
    def test_zero_start_stays_zero(self):
        sys_, ker = martingale_kernel()
        run = run_piecewise(sys_, ker, [0.0], k_max=3, paths=200, seed=0)
        assert run.total_energy == 0.0
        assert all(r.msq == 0.0 for r in run.records)

    def test_martingale_decay_matches_closed_form(self):
        delta = 0.5
        sys_, ker = martingale_kernel(delta=delta)
        run = run_piecewise(sys_, ker, [1.0], k_max=4, paths=2000, seed=3)
        per_interval = delta**2 / (1 + delta) ** 2
        for r in run.records:
            expect = per_interval**r.k
            assert r.msq <= delta**r.k * (1 + 3 * max(r.msq_se, 0) / max(r.msq, 1e-300))
            assert r.msq == pytest.approx(expect, rel=1e-9)
        assert run.decay_slope == pytest.approx(np.log(per_interval), abs=1e-6)

    def test_cumulative_energy_is_nondecreasing(self, corpus):
        sys_ = corpus["S2"]
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=4), 1)
        forms = assemble_forms(tree, sys_)
        rep = optimal_constant(forms, 0.5)
        ker = control_kernel(tree, sys_, rep.c_opt, 0.5, forms)
        run = run_piecewise(sys_, ker, [1.0], k_max=4, paths=3000, seed=5)
        cums = [r.cum_energy for r in run.records]
        assert all(b >= a - 1e-15 for a, b in zip(cums, cums[1:]))
        assert all(r.msq_se >= 0 for r in run.records)

    def test_seed_reproducibility(self):
        sys_, ker = martingale_kernel()
        a = run_piecewise(sys_, ker, [1.0], k_max=3, paths=500, seed=9)
        b = run_piecewise(sys_, ker, [1.0], k_max=3, paths=500, seed=9)
        assert a.records == b.records

    def test_noisy_system_decay_within_allowance(self, corpus):
        delta = 0.5
        sys_ = corpus["S2"]
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=4), 1)
        forms = assemble_forms(tree, sys_)
        rep = optimal_constant(forms, delta)
        ker = control_kernel(tree, sys_, rep.c_opt, delta, forms)
        run = run_piecewise(sys_, ker, [1.0], k_max=5, paths=5000, seed=7)
        for r in run.records:
            assert r.msq <= delta**r.k + 3 * r.msq_se + 1e-12
        # geometric decay: fitted slope at least as steep as log(delta),
        # with a sampling allowance
        assert run.decay_slope <= np.log(delta) + 0.25


class TestFeedback:
    def test_s1_cost_is_one(self, corpus):
        fr = run_riccati_feedback(corpus["S1"], [[-1.0]], [1.0])
        assert not fr.diverged
        assert fr.cost == pytest.approx(1.0, abs=1e-4)

    def test_s2_cost_is_golden(self, corpus):
        sol = solve_sare(corpus["S2"])
        fr = run_riccati_feedback(corpus["S2"], sol.F, [1.0])
        assert fr.cost == pytest.approx(GOLDEN, abs=1e-3)
        assert fr.cost == pytest.approx(lq_value(sol.P, [1.0]), rel=1e-9)

    def test_unstabilized_s3_diverges(self, corpus):
        fr = run_riccati_feedback(corpus["S3"], [[0.0]], [1.0])
        assert fr.diverged
        assert fr.cost is None
        assert fr.abscissa == pytest.approx(2.0, abs=1e-12)

    def test_curve_decays_at_the_abscissa(self, corpus):
        sol = solve_sare(corpus["S2"])
        fr = run_riccati_feedback(corpus["S2"], sol.F, [1.0], dt_report=0.25)
        mask = fr.msq_curve > 1e-250
        slope = np.polyfit(fr.times[mask], np.log(fr.msq_curve[mask]), 1)[0]
        assert slope == pytest.approx(fr.abscissa, rel=0.05)

    def test_tail_bound_certifies_truncation(self, corpus):
        sol = solve_sare(corpus["S2"])
        fr = run_riccati_feedback(corpus["S2"], sol.F, [1.0])
        assert fr.tail_bound <= 1e-4 * abs(fr.cost) or fr.tail <= fr.tail_bound
        assert abs(fr.tail) <= fr.tail_bound + 1e-12

    def test_control_norm_respects_decay_bound(self, corpus):
        # measured ||F x||_{L^2(0,T)} never exceeds the bound assembled
        # from the decay envelope; only this direction is asserted
        for name in ("S1", "S2"):
            sol = solve_sare(corpus[name])
            fr = run_riccati_feedback(corpus[name], sol.F, [1.0])
            rec = fr.control_norm_T
            assert rec["measured"] <= rec["bound"] + 1e-9
            assert rec["c_alpha"] >= 1.0 - 1e-12


class TestEquivalence:
    def test_corpus_verdicts(self, corpus):
        expected = {"S1": True, "S2": True, "S3": False, "S4": True, "M0": True}
        for name, sys_ in corpus.items():
            rep = equivalence_harness(
                sys_, [0.5, 1.0], [0.3, 0.6, 0.9], horizon_K=4
            )
            assert rep.agreement, (name, rep.verdicts)
            assert rep.riccati_solvable == expected[name], name

    @pytest.mark.parametrize("draw", [9, 10])
    def test_d3_draws_get_verdicts(self, draw):
        # d = 3 at K = 4 means 8^4 leaves; the synthesis builds no dense
        # nL x nL form, so these draws are decided within the budgets
        rng = np.random.default_rng(7)
        sys_ = [random_system(rng) for _ in range(draw + 1)][draw]
        assert sys_.d == 3
        rep = equivalence_harness(sys_, [0.5, 1.0], [0.3, 0.6, 0.9])
        assert rep.verdicts == (True, True, True, True)
        assert rep.agreement

    def test_empty_grid_rejected(self, corpus):
        with pytest.raises(ValueError):
            equivalence_harness(corpus["S1"], [], [0.5])
        with pytest.raises(ValueError):
            equivalence_harness(corpus["S1"], [1.0], [1.5])

    def test_observability_verdict_monotone_in_delta(self, corpus):
        # if a grid point (T, delta) certifies observability, every larger
        # delta at the same T does as well
        sys_ = corpus["S2"]
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=4), 1)
        forms = assemble_forms(tree, sys_)
        grid = [0.2, 0.4, 0.6, 0.8]
        flags = [optimal_constant(forms, dd).observable for dd in grid]
        first = flags.index(True) if True in flags else len(grid)
        assert all(flags[first:])

    def test_both_stabilization_routes_certify_decay(self, corpus):
        # Riccati feedback (exact lift) and piecewise control (Monte Carlo)
        # must agree that the state energy contracts on the same system
        sys_ = corpus["S2"]
        sol = solve_sare(sys_)
        fb = run_riccati_feedback(sys_, sol.F, [1.0])
        assert not fb.diverged and fb.abscissa < 0
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=4), 1)
        forms = assemble_forms(tree, sys_)
        rep = optimal_constant(forms, 0.5)
        ker = control_kernel(tree, sys_, rep.c_opt, 0.5, forms)
        run = run_piecewise(sys_, ker, [1.0], k_max=4, paths=4000, seed=1)
        assert run.decay_slope < 0
        assert run.records[-1].msq < run.records[0].msq
