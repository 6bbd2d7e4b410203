import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sctk.nullcontrol import control_kernel, synthesize_control, verify_theorem_5_1
from sctk.observability import assemble_forms, optimal_constant
from sctk.systems import HorizonConfig, make_system
from sctk.trees import (
    AdaptedField,
    TreeDriver,
    build_tree,
    control_energy,
    simulate_forward,
    terminal_expectation_sq,
)
from tests.conftest import dense_gram_control, random_system


def martingale(n=1):
    return make_system(
        np.zeros((n, n)), np.eye(n), C=[np.zeros((n, n))], D=[np.zeros((n, n))]
    )


def observable_instance(rng, delta_range=(0.3, 0.7)):
    while True:
        sys_ = random_system(rng, n_max=2, m_max=2, d_max=2)
        delta = float(rng.uniform(*delta_range))
        K = int(rng.integers(3, 5))
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=K), sys_.d)
        forms = assemble_forms(tree, sys_)
        rep = optimal_constant(forms, delta)
        if rep.observable and rep.c_opt > 0:
            return sys_, tree, forms, delta, rep.c_opt


class TestSynthesis:
    def test_zero_state_zero_everything(self):
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), 1)
        forms = assemble_forms(tree, martingale())
        res = synthesize_control(tree, martingale(), [0.0], 1.0, 0.5, forms)
        assert not res.f.any()
        assert res.control_energy == 0.0
        assert res.terminal_energy == 0.0

    @pytest.mark.parametrize("delta", [0.2, 0.5, 0.8])
    def test_martingale_closed_form(self, delta):
        # G acts on constants as (c T + delta); with c = 1/T the constant
        # terminal target x_s becomes f = x_s / (1 + delta)
        T, K = 1.0, 4
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=T, K=K), 1)
        sys_ = martingale()
        forms = assemble_forms(tree, sys_)
        x_s = 1.3
        res = synthesize_control(tree, sys_, [x_s], 1.0 / T, delta, forms)
        assert np.allclose(res.f, x_s / (1 + delta), atol=1e-12)
        expect_term = delta**2 * x_s**2 / (1 + delta) ** 2
        assert res.terminal_energy == pytest.approx(expect_term, rel=1e-12)
        assert res.terminal_energy <= delta * x_s**2
        assert res.all_bounds_hold

    def test_identities_on_random_observable_instances(self, rng):
        for _ in range(8):
            sys_, tree, forms, delta, c_opt = observable_instance(rng)
            x_s = rng.standard_normal(sys_.n)
            res = synthesize_control(tree, sys_, x_s, c_opt, delta, forms,
                                     check_constant=False)
            assert res.terminal_identity_residual < 1e-8
            assert res.energy_identity_residual < 1e-9
            assert res.bounds["terminal_energy"]["holds"]
            assert res.bounds["f_energy"]["holds"]
            # the tree's own growth factor is the exact discrete constant
            assert res.bounds["control_energy"]["holds_tree"]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from(
            [TreeDriver.bernoulli(), TreeDriver.trinomial(), TreeDriver.quantized_gaussian(4)]
        ),
        st.integers(2, 4),
        st.floats(0.05, 0.9),
    )
    def test_recursion_matches_dense_gram_synthesis(self, seed, driver, K, delta):
        rng = np.random.default_rng(seed)
        sys_ = random_system(rng, n_max=3, m_max=2, d_max=2)
        # the oracle solves a dense nL x nL system: keep nL <= 300 by
        # lowering K, and skip draws where K = 2 is too big
        b = driver.support.size ** sys_.d
        while K > 2 and sys_.n * b**K > 300:
            K -= 1
        assume(sys_.n * b**K <= 300)
        tree = build_tree(driver, HorizonConfig(T=1.0, K=K), sys_.d)
        forms = assemble_forms(tree, sys_)
        rep = optimal_constant(forms, delta)
        # the LQ optimum exists for every c > 0; use c_opt where it is finite
        c = rep.c_opt if rep.observable and rep.c_opt > 0 else float(rng.uniform(0.1, 10))
        x_s = rng.standard_normal(sys_.n)
        res = synthesize_control(tree, sys_, x_s, c, delta, forms, check_constant=False)
        want = dense_gram_control(tree, sys_, x_s, c, delta)
        scale = max(float(np.abs(w).max()) for w in want)
        for got_k, want_k in zip(res.u.values, want):
            assert np.abs(got_k - want_k).max() <= 1e-10 * scale
        # the bound verdicts of the oracle's control are the synthesis's
        x_T = simulate_forward(tree, sys_, x_s, AdaptedField(want)).terminal
        e_term = terminal_expectation_sq(tree, x_T)
        e_u = control_energy(tree, AdaptedField(want))
        oracle = {
            "control_energy": e_u,
            "terminal_energy": e_term,
            "f_energy": e_term / delta**2,
        }
        for name, value in oracle.items():
            bound = res.bounds[name]
            assert bound["value"] == pytest.approx(value, rel=1e-9, abs=1e-14)
            assert bound["holds"] == (value <= bound["limit"] + 1e-12)

    def test_invalid_constant_is_rejected(self, rng):
        sys_, tree, forms, delta, c_opt = observable_instance(rng)
        with pytest.raises(ValueError, match="is_delta_observable"):
            synthesize_control(tree, sys_, np.ones(sys_.n), c_opt * 0.5, delta, forms)

    def test_null_controllability_tracks_initial_observability(self, rng):
        # initially observable system: shrinking delta drives the terminal
        # energy to zero accordingly
        found = False
        while not found:
            sys_ = random_system(rng, n_max=2, m_max=2, d_max=1)
            tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), 1)
            forms = assemble_forms(tree, sys_)
            rep0 = optimal_constant(forms, 0.0)
            found = rep0.observable
        x_s = np.ones(sys_.n)
        for delta in (0.1, 0.01):
            rep = optimal_constant(forms, delta)
            res = synthesize_control(
                tree, sys_, x_s, rep.c_opt, delta, forms, check_constant=False
            )
            assert res.terminal_energy <= delta * float(x_s @ x_s) + 1e-12


def controls_along_tree(tree, sys_, gains, x_s):
    """u_k = gains[k] x_k, each x_k from an open-loop sweep under u_0..u_{k-1}."""
    u = [np.zeros((tree.b**k, sys_.m)) for k in range(tree.K)]
    for k in range(tree.K):
        x = simulate_forward(tree, sys_, x_s, AdaptedField(u))
        u[k] = x.values[k] @ gains[k].T
    return u


class TestKernel:
    def test_martingale_gains_closed_form(self):
        # A = C = D = 0, B = 1: the Riccati step gives 1/P_k = 1/P_{k+1} + c dt
        # from P_K = 1/delta, and L_k = -c P_k = -c / (delta + c (T - t_k))
        T, K, c, delta = 1.0, 4, 1.3, 0.5
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=T, K=K), 1)
        sys_ = martingale()
        ker = control_kernel(tree, sys_, c, delta, assemble_forms(tree, sys_))
        want = [-c / (delta + c * (T - k * tree.delta_t)) for k in range(K)]
        assert ker.gains.shape == (K, 1, 1)
        assert np.allclose(ker.gains[:, 0, 0], want, rtol=1e-13, atol=0.0)

    def test_kernel_reproduces_synthesis_linearly(self, rng):
        sys_, tree, forms, delta, c_opt = observable_instance(rng)
        ker = control_kernel(tree, sys_, c_opt * 1.000001, delta, forms)
        for _ in range(5):
            x_s = rng.standard_normal(sys_.n)
            res = synthesize_control(
                tree, sys_, x_s, c_opt * 1.000001, delta, forms, check_constant=False
            )
            uk = controls_along_tree(tree, sys_, ker.gains, x_s)
            dev = max(np.abs(uk[k] - res.u.values[k]).max() for k in range(tree.K))
            assert dev < 1e-10

    def test_zero_state_zero_control(self, rng):
        sys_, tree, forms, delta, c_opt = observable_instance(rng)
        ker = control_kernel(tree, sys_, c_opt * 1.000001, delta, forms)
        assert np.all(np.isfinite(ker.gains))
        u0 = controls_along_tree(tree, sys_, ker.gains, np.zeros(sys_.n))
        assert all(not layer.any() for layer in u0)


class TestTheorem51:
    def test_martingale_both_directions(self):
        rep = verify_theorem_5_1(martingale(), HorizonConfig(T=1.0, K=4), 0.5)
        assert rep.applicable
        assert rep.forward_pass
        assert rep.converse_pass
        assert rep.both_directions_pass

    def test_no_output_not_applicable(self):
        sys_ = make_system(
            [[0.0]], [[0.0]], C=[[[0.0]]], D=[[[0.0]]]
        )
        rep = verify_theorem_5_1(sys_, HorizonConfig(T=1.0, K=2), 0.5)
        assert not rep.applicable
        assert not rep.both_directions_pass

    def test_s2_at_published_point(self, corpus):
        rep = verify_theorem_5_1(corpus["S2"], HorizonConfig(T=1.0, K=6), 0.6)
        assert rep.applicable
        assert rep.forward_pass
        assert rep.converse_pass

    def test_cost_never_exceeds_synthesis_bound(self, rng):
        for _ in range(5):
            sys_, tree, forms, delta, c_opt = observable_instance(rng)
            rep = verify_theorem_5_1(
                sys_, HorizonConfig(T=tree.T, K=tree.K), delta
            )
            if rep.applicable:
                assert rep.cost_vs_bound_ratio <= 1.0 + 1e-9
