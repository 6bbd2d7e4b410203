import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sctk.observability as obs
from sctk.observability import (
    assemble_forms,
    forms_from_matrices,
    invariance_experiment,
    is_delta_observable,
    optimal_constant,
)
from sctk.systems import HorizonConfig, make_system
from sctk.trees import TreeDriver, build_tree, simulate_forward, solve_bsde
from tests.conftest import dense_copt_oracle, random_system


def martingale(n=1):
    return make_system(
        np.zeros((n, n)), np.eye(n), C=[np.zeros((n, n))], D=[np.zeros((n, n))]
    )


def no_output(n=1):
    return make_system(
        np.zeros((n, n)), np.zeros((n, n)),
        C=[np.zeros((n, n))], D=[np.zeros((n, n))],
    )


class TestForms:
    def test_martingale_identities(self):
        sys_ = martingale(2)
        T, K = 2.0, 3
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=T, K=K), 1)
        forms = assemble_forms(tree, sys_)
        v = np.array([0.3, -0.9])
        y1 = np.tile(v, tree.leaf_count)
        # deterministic terminal data: output energy T|v|^2, initial |v|^2
        assert forms.quad_Q(y1) == pytest.approx(T * v @ v, abs=1e-12)
        assert forms.quad_M0(y1) == pytest.approx(v @ v, abs=1e-12)
        assert forms.quad_N(y1) == pytest.approx(v @ v, abs=1e-12)

    def test_row_sums_of_n(self):
        tree = build_tree(TreeDriver.trinomial(), HorizonConfig(T=1.0, K=2), 1)
        forms = assemble_forms(tree, martingale(3))
        assert forms.N_diag.sum() == pytest.approx(3.0, abs=1e-12)

    def test_no_output_means_zero_q(self, rng):
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), 1)
        forms = assemble_forms(tree, no_output(2))
        assert forms.F.nnz == 0 or not forms.F.data.any()
        y1 = rng.standard_normal(forms.nL)
        assert forms.quad_Q(y1) == 0.0

    def test_quadratic_forms_match_direct_solves(self, rng):
        sys_ = random_system(rng, n_max=2, m_max=2, d_max=2)
        tree = build_tree(TreeDriver.trinomial(), HorizonConfig(T=1.0, K=3), sys_.d)
        forms = assemble_forms(tree, sys_)
        for _ in range(100):
            y1 = rng.standard_normal((tree.leaf_count, sys_.n))
            bw = solve_bsde(tree, sys_, y1)
            m0_direct = float(bw.y0 @ bw.y0)
            q_direct = sum(
                tree.delta_t
                * float(
                    tree.depth_probs(k)
                    @ np.einsum("pm,pm->p", bw.z.values[k], bw.z.values[k])
                )
                for k in range(tree.K)
            )
            v = y1.ravel()
            assert forms.quad_M0(v) == pytest.approx(m0_direct, abs=1e-10)
            assert forms.quad_Q(v) == pytest.approx(q_direct, abs=1e-10)

    def test_dense_views_satisfy_invariants(self, rng):
        sys_ = random_system(rng, n_max=2, m_max=2, d_max=1)
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), 1)
        forms = assemble_forms(tree, sys_)
        M0, Q = forms.M0, forms.Q
        assert np.abs(M0 - M0.T).max() < 1e-12
        assert np.abs(Q - Q.T).max() < 1e-12
        assert np.linalg.matrix_rank(M0, tol=1e-10) <= sys_.n
        assert (forms.N_diag > 0).all()

    def test_initial_map_matches_forward_flow(self, rng):
        # duality: N x(T;0,e_i) equals the i-th row of S0 transposed
        sys_ = random_system(rng, n_max=3, m_max=2, d_max=2)
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), sys_.d)
        forms = assemble_forms(tree, sys_)
        for i in range(sys_.n):
            e = np.zeros(sys_.n)
            e[i] = 1.0
            free = simulate_forward(tree, sys_, e)
            lhs = forms.N_diag * free.terminal.ravel()
            assert np.allclose(lhs, forms.S0.T @ e, atol=1e-12)


class TestOptimalConstant:
    @pytest.mark.parametrize(
        "driver",
        [TreeDriver.bernoulli(), TreeDriver.trinomial(), TreeDriver.quantized_gaussian(4)],
        ids=lambda d: d.kind,
    )
    @pytest.mark.parametrize("K", [2, 4, 6])
    def test_martingale_inverse_horizon(self, driver, K):
        T = 2.0
        tree = build_tree(driver, HorizonConfig(T=T, K=K), 1)
        forms = assemble_forms(tree, martingale())
        rep = optimal_constant(forms, 0.0)
        assert rep.observable
        assert rep.c_opt == pytest.approx(1.0 / T, abs=1e-10)

    def test_no_output_not_observable(self):
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=2), 1)
        forms = assemble_forms(tree, no_output())
        rep = optimal_constant(forms, 0.5)
        assert not rep.observable
        assert math.isinf(rep.c_opt)

    def test_zero_initial_form_gives_zero_constant(self):
        # form-level unit case: M0 = 0 is feasible with c = 0
        nL = 6
        N_diag = np.full(nL, 1 / nL)
        Q = np.eye(nL)
        forms = forms_from_matrices(np.zeros((nL, nL)), Q, N_diag)
        rep = optimal_constant(forms, 0.0)
        assert rep.observable and rep.c_opt == 0.0

    def test_matches_definitional_oracle(self, rng):
        hits = {"finite": 0, "inf": 0}
        for _ in range(25):
            sys_ = random_system(rng, n_max=3, m_max=2, d_max=2)
            tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), sys_.d)
            forms = assemble_forms(tree, sys_)
            delta = float(rng.uniform(0.05, 0.8))
            got = optimal_constant(forms, delta).c_opt
            want = dense_copt_oracle(forms.M0, forms.Q, forms.N_diag, delta)
            if math.isinf(want):
                hits["inf"] += 1
                assert math.isinf(got)
            else:
                hits["finite"] += 1
                assert got == pytest.approx(want, rel=1e-5, abs=1e-9)
        assert hits["finite"] >= 3 and hits["inf"] >= 3

    @pytest.mark.parametrize("n", [1, 2])
    def test_sparse_fastpath_agrees_with_dense(self, monkeypatch, n):
        tree = build_tree(TreeDriver.trinomial(), HorizonConfig(T=1.0, K=5), 1)
        forms = assemble_forms(tree, martingale(n))
        dense = optimal_constant(forms, 0.0)
        monkeypatch.setattr(obs, "_SPARSE_FASTPATH_MIN", 10)
        forms_fresh = assemble_forms(tree, martingale(n))
        sparse = optimal_constant(forms_fresh, 0.0)
        assert sparse.diagnostics.get("method") == "sparse"
        assert sparse.c_opt == pytest.approx(dense.c_opt, rel=1e-9)
        assert sparse.c_opt == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("name", ["S2", "S4"])
    @pytest.mark.parametrize("K", [9, 10])
    def test_delta0_without_exact_null_control_is_inf(self, corpus, name, K):
        # S4's kernel energy is 6.3e-14 at K = 9 and 3.4e-16 at K = 10, far
        # below the rounding of the Gram path; the subspace recursion decides
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=K), 1)
        forms = assemble_forms(tree, corpus[name])
        rep = optimal_constant(forms, 0.0)
        assert not rep.observable and math.isinf(rep.c_opt)
        assert rep.diagnostics["null_controllable"] is False
        assert "gram_eig" not in forms._cache  # no Gram eigensolve ran

    @pytest.mark.parametrize("name", ["M0", "S1"])
    def test_delta0_null_controllable_gives_inverse_horizon(self, corpus, name):
        for K in range(2, 12):
            tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=K), 1)
            rep = optimal_constant(assemble_forms(tree, corpus[name]), 0.0)
            assert rep.diagnostics["null_controllable"] is True
            assert rep.c_opt == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from(
            [TreeDriver.bernoulli(), TreeDriver.trinomial(), TreeDriver.quantized_gaussian(4)]
        ),
        st.integers(2, 4),
        st.floats(0.05, 0.9),
    )
    def test_recursion_matches_dense_oracle(self, seed, driver, K, delta):
        sys_ = random_system(np.random.default_rng(seed), n_max=3, m_max=2, d_max=2)
        # the oracle's bisection runs dense eigensolves of size nL: keep
        # nL <= 300 by lowering K, and skip draws where K = 2 is too big
        b = driver.support.size ** sys_.d
        while K > 2 and sys_.n * b**K > 300:
            K -= 1
        assume(sys_.n * b**K <= 300)
        tree = build_tree(driver, HorizonConfig(T=1.0, K=K), sys_.d)
        forms = assemble_forms(tree, sys_)
        got = optimal_constant(forms, delta).c_opt
        want = dense_copt_oracle(forms.M0, forms.Q, forms.N_diag, delta)
        assert math.isinf(got) == math.isinf(want)
        if math.isfinite(want):
            assert got == pytest.approx(want, rel=1e-9)

    def test_branch_sum_is_exact_on_unmatched_driver(self, corpus):
        # mean 0 but variance 2: a recursion built on E xi xi^T = dt I would
        # be wrong here, the sum over the branches is not
        driver = TreeDriver("unmatched", [-1.0, 2.0], [2 / 3, 1 / 3])
        for name in ("S2", "S4"):
            tree = build_tree(driver, HorizonConfig(T=1.0, K=4), 1)
            forms = assemble_forms(tree, corpus[name])
            matched = assemble_forms(
                build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=4), 1),
                corpus[name],
            )
            for delta in (0.3, 0.6):
                got = optimal_constant(forms, delta).c_opt
                want = dense_copt_oracle(forms.M0, forms.Q, forms.N_diag, delta)
                assert math.isfinite(want)
                assert got == pytest.approx(want, rel=1e-9)
                assert abs(got - optimal_constant(matched, delta).c_opt) > 1e-3 * got

    def test_synthetic_forms_need_delta_zero(self):
        nL = 4
        forms = forms_from_matrices(np.zeros((nL, nL)), np.eye(nL), np.full(nL, 1 / nL))
        with pytest.raises(ValueError, match="synthetic"):
            optimal_constant(forms, 0.5)
        with pytest.raises(ValueError, match="synthetic"):
            is_delta_observable(forms, 0.5, 1.0)


class TestIsDeltaObservable:
    def test_bracketing_around_the_optimum(self, rng):
        checked = 0
        while checked < 6:
            sys_ = random_system(rng, n_max=2, m_max=2, d_max=2)
            tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), sys_.d)
            forms = assemble_forms(tree, sys_)
            delta = float(rng.uniform(0.1, 0.7))
            rep = optimal_constant(forms, delta)
            if not (math.isfinite(rep.c_opt) and 1e-3 < rep.c_opt < 1e3):
                continue
            checked += 1
            assert is_delta_observable(forms, delta, rep.c_opt * 1.01)
            assert not is_delta_observable(forms, delta, rep.c_opt * (1 - 1e-3))

    def test_optimum_is_the_tight_feasible_constant(self, rng, corpus):
        # cli._pick_constant hands c_opt to synthesize_control(check_constant=True)
        cases = []
        for name in ("S2", "S4"):
            for K in (8, 9, 10):
                tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=K), 1)
                forms = assemble_forms(tree, corpus[name])
                cases += [(forms, delta) for delta in (0.1, 0.5, 0.9)]
        while len(cases) < 30:
            sys_ = random_system(rng, n_max=3, m_max=2, d_max=2)
            tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), sys_.d)
            forms = assemble_forms(tree, sys_)
            delta = float(rng.uniform(0.05, 0.9))
            if 0 < optimal_constant(forms, delta).c_opt < math.inf:
                cases.append((forms, delta))
        for forms, delta in cases:
            c_opt = optimal_constant(forms, delta).c_opt
            assert is_delta_observable(forms, delta, c_opt)
            assert not is_delta_observable(forms, delta, (1 - 1e-6) * c_opt)

    def test_generous_constant_is_accepted(self):
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), 1)
        forms = assemble_forms(tree, martingale())
        assert is_delta_observable(forms, 0.9, 1e6)

    def test_delta_monotonicity(self, corpus):
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=4), 1)
        forms = assemble_forms(tree, corpus["S2"])
        values = [optimal_constant(forms, dd).c_opt for dd in (0.1, 0.3, 0.5, 0.7)]
        assert all(math.isfinite(v) for v in values)
        for lo, hi in zip(values, values[1:]):
            assert lo >= hi - 1e-12

    def test_verdict_is_scale_invariant(self, rng, corpus):
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), 1)
        forms = assemble_forms(tree, corpus["S2"])
        delta = 0.5
        y1 = rng.standard_normal(forms.nL)
        def ratio(v):
            return (forms.quad_M0(v) - delta * forms.quad_N(v)) / forms.quad_Q(v)
        assert ratio(7.3 * y1) == pytest.approx(ratio(y1), rel=1e-12)

    def test_initial_observability_implies_weak(self, rng):
        found = 0
        while found < 3:
            sys_ = random_system(rng, n_max=2, m_max=2, d_max=1)
            tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), 1)
            forms = assemble_forms(tree, sys_)
            if not optimal_constant(forms, 0.0).observable:
                continue
            found += 1
            for dd in (0.1, 0.5, 0.9):
                assert optimal_constant(forms, dd).observable


class TestInvariance:
    def test_martingale_exact_for_all_drivers(self):
        table = invariance_experiment(
            martingale(),
            T=2.0,
            delta=0.0,
            drivers=["bernoulli", "trinomial", "quantized_gaussian"],
            K_list=[2, 3, 4],
        )
        for row in table.rows:
            assert row["c_opt"] == pytest.approx(0.5, abs=1e-10)
        assert all(g < 1e-9 for g in table.gaps.values())

    def test_single_driver_gap_is_zero(self, corpus):
        table = invariance_experiment(
            corpus["S2"], T=1.0, delta=0.5, drivers=["bernoulli"], K_list=[3, 4]
        )
        assert all(g == 0.0 for g in table.gaps.values())

    def test_matched_moments_make_constants_driver_exact(self, corpus):
        # the forms' pairings are multilinear in the increments, so any
        # two-moment-matched drivers give the same constant to rounding
        table = invariance_experiment(
            corpus["S2"],
            T=1.0,
            delta=0.5,
            drivers=["bernoulli", "trinomial", "quantized_gaussian"],
            K_list=[3, 5],
        )
        assert all(g < 1e-9 for g in table.gaps.values())
