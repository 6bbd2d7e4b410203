import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sctk.nullcontrol as nullcontrol
import sctk.observability as observability
import sctk.trees as trees
from sctk.nullcontrol import (
    ControlKernel,
    _feedback_gains,
    control_kernel,
    synthesize_control,
    verify_theorem_5_1,
)
from sctk.observability import assemble_forms, is_delta_observable, optimal_constant
from sctk.systems import HorizonConfig, make_system
from sctk.trees import (
    TreeDriver,
    build_tree,
    control_energy,
    control_pairing,
    simulate_forward,
    terminal_expectation_sq,
)
from tests.conftest import dense_gram_control, examples, random_system


def martingale(n=1):
    return make_system(
        np.zeros((n, n)), np.eye(n), C=[np.zeros((n, n))], D=[np.zeros((n, n))]
    )


def bernoulli_forms(sys_, T, K):
    tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=T, K=K), sys_.d)
    return assemble_forms(tree, sys_)


def unchecked_kernel(forms, c, delta):
    """The kernel of a pair that control_kernel would not check first."""
    return ControlKernel(forms, _feedback_gains(forms, c, delta)[1], c, delta)


ORACLE_SYSTEMS = ["S1", "S2", "S3", "S4", "M0", 0, 1, 2, 3]
ORACLE_DRIVERS = [TreeDriver.bernoulli(), TreeDriver.trinomial()]


def oracle_forms(corpus, which, driver, K=4):
    """Forms of a corpus system or of a draw of random_system(default_rng(which))."""
    if which in corpus:
        sys_ = corpus[which]
    else:
        sys_ = random_system(np.random.default_rng(which), n_max=3, m_max=2, d_max=2)
    return assemble_forms(build_tree(driver, HorizonConfig(T=1.0, K=K), sys_.d), sys_)


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


@pytest.mark.parametrize(
    "call",
    [
        lambda forms: synthesize_control(control_kernel(forms, math.inf, 0.5), [1.0]),
        lambda forms: control_kernel(forms, math.inf, 0.5),
        lambda forms: verify_theorem_5_1(forms, 0.5, c=math.inf),
    ],
    ids=["synthesize_control", "control_kernel", "verify_theorem_5_1"],
)
def test_infinite_constant_is_rejected(corpus, call):
    # c = inf drops the control cost, so it has no gains; synthesis gave NaN
    # residuals and theorem51 infinite limits that counted as holding
    with pytest.raises(ValueError, match="need 0 < c < inf"):
        call(bernoulli_forms(corpus["S2"], 1.0, 4))


class TestSynthesis:
    def test_zero_state_zero_everything(self):
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), 1)
        forms = assemble_forms(tree, martingale())
        res = synthesize_control(control_kernel(forms, 1.0, 0.5), [0.0])
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
        res = synthesize_control(control_kernel(forms, 1.0 / T, delta), [x_s])
        assert np.allclose(res.f, x_s / (1 + delta), atol=1e-12)
        expect_term = delta**2 * x_s**2 / (1 + delta) ** 2
        assert res.terminal_energy == pytest.approx(expect_term, rel=1e-12)
        assert res.terminal_energy <= delta * x_s**2
        assert res.all_bounds_hold

    def test_identities_on_random_observable_instances(self, rng):
        for _ in range(8):
            sys_, tree, forms, delta, c_opt = observable_instance(rng)
            x_s = rng.standard_normal(sys_.n)
            res = synthesize_control(control_kernel(forms, c_opt, delta), x_s)
            assert res.terminal_identity_residual < 1e-8
            assert res.energy_identity_residual < 1e-9
            assert res.bounds["terminal_energy"]["holds"]
            assert res.bounds["f_energy"]["holds"]
            # the tree's own growth factor is the exact discrete constant
            assert res.bounds["control_energy"]["holds_tree"]

    @settings(max_examples=examples(40))
    @given(
        st.integers(0, 10_000),
        st.sampled_from(
            [TreeDriver.bernoulli(), TreeDriver.trinomial(), TreeDriver.quantized_gaussian(4)]
        ),
        st.integers(2, 4),
        st.floats(0.05, 0.9),
    )
    # c_opt = 2.39e5 on this draw: the oracle must not square F's condition
    @example(1514, TreeDriver.bernoulli(), 3, 0.09375)
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
        res = synthesize_control(unchecked_kernel(forms, c, delta), x_s)
        want = dense_gram_control(tree, sys_, x_s, c, delta)
        scale = max(float(np.abs(w).max()) for w in want)
        for got_k, want_k in zip(res.u, want):
            assert np.abs(got_k - want_k).max() <= 1e-10 * scale
        # the bound verdicts of the oracle's control are the synthesis's
        x_T = simulate_forward(tree, sys_, x_s, want)[-1]
        e_term = terminal_expectation_sq(tree, x_T)
        e_u = control_energy(tree, want)
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
            kernel = control_kernel(forms, c_opt * 0.5, delta)
            synthesize_control(kernel, np.ones(sys_.n))

    def test_synthesis_runs_neither_the_validity_test_nor_the_free_sweep(
        self, rng, monkeypatch
    ):
        # the kernel has checked the pair, and the free-flow moment is the
        # c = 0 value of the recursion
        def refuse(*args, **kwargs):
            raise AssertionError("synthesis repeated work the kernel or recursion did")

        for mod in (nullcontrol, observability):
            monkeypatch.setattr(mod, "is_delta_observable", refuse)
        for mod in (nullcontrol, trees):
            monkeypatch.setattr(mod, "simulate_forward", refuse, raising=False)
        sys_, tree, forms, delta, c_opt = observable_instance(rng)
        kernel = unchecked_kernel(forms, c_opt, delta)
        res = synthesize_control(kernel, rng.standard_normal(sys_.n))
        assert res.c == kernel.c and res.delta == kernel.delta

    @pytest.mark.parametrize("driver", ORACLE_DRIVERS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("which", ORACLE_SYSTEMS)
    def test_free_moment_matches_the_tree_sweep(self, corpus, which, driver):
        # the tree stays the oracle of tree_growth (and so of limit_tree)
        forms = oracle_forms(corpus, which, driver)
        tree, sys_ = forms.tree, forms.system
        x_s = np.random.default_rng(7).standard_normal(sys_.n)
        res = synthesize_control(unchecked_kernel(forms, 1.0, 0.5), x_s)
        want = terminal_expectation_sq(tree, simulate_forward(tree, sys_, x_s)[-1])
        assert _rel_gap(res.tree_growth * float(x_s @ x_s), want) <= 1e-13

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
            res = synthesize_control(control_kernel(forms, rep.c_opt, delta), x_s)
            assert res.terminal_energy <= delta * float(x_s @ x_s) + 1e-12


def _rel_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def controls_along_tree(tree, sys_, gains, x_s):
    """u_k = gains[k] x_k, each x_k from an open-loop sweep under u_0..u_{k-1}."""
    u = [np.zeros((tree.b**k, sys_.m)) for k in range(tree.K)]
    for k in range(tree.K):
        x = simulate_forward(tree, sys_, x_s, u)
        u[k] = x[k] @ gains[k].T
    return u


class TestKernel:
    def test_martingale_gains_closed_form(self):
        # A = C = D = 0, B = 1: the Riccati step gives 1/P_k = 1/P_{k+1} + c dt
        # from P_K = 1/delta, and L_k = -c P_k = -c / (delta + c (T - t_k))
        T, K, c, delta = 1.0, 4, 1.3, 0.5
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=T, K=K), 1)
        sys_ = martingale()
        ker = control_kernel(assemble_forms(tree, sys_), c, delta)
        want = [-c / (delta + c * (T - k * tree.delta_t)) for k in range(K)]
        assert ker.gains.shape == (K, 1, 1)
        assert np.allclose(ker.gains[:, 0, 0], want, rtol=1e-13, atol=0.0)

    def test_kernel_reproduces_synthesis_linearly(self, rng):
        sys_, tree, forms, delta, c_opt = observable_instance(rng)
        ker = control_kernel(forms, c_opt * 1.000001, delta)
        for _ in range(5):
            x_s = rng.standard_normal(sys_.n)
            res = synthesize_control(ker, x_s)
            uk = controls_along_tree(tree, sys_, ker.gains, x_s)
            dev = max(np.abs(uk[k] - res.u[k]).max() for k in range(tree.K))
            assert dev < 1e-10

    def test_kernel_runs_one_recursion_pass(self, rng, monkeypatch):
        calls = []
        lq_p0 = observability._lq_p0

        def counted(*args, **kwargs):
            calls.append(kwargs.get("gains", False))
            return lq_p0(*args, **kwargs)

        sys_, tree, forms, delta, c_opt = observable_instance(rng)
        for mod in (nullcontrol, observability):
            monkeypatch.setattr(mod, "_lq_p0", counted)
        control_kernel(forms, c_opt, delta)
        assert calls == [True]
        with pytest.raises(ValueError, match="is_delta_observable"):
            control_kernel(forms, c_opt * 0.5, delta)
        assert calls == [True, True]

    @pytest.mark.parametrize("delta", [0.3, 0.5, 0.9])
    def test_kernel_accepts_the_pairs_is_delta_observable_accepts(self, corpus, delta):
        checked = rejected = 0
        for which in ORACLE_SYSTEMS:
            for driver in ORACLE_DRIVERS:
                forms = oracle_forms(corpus, which, driver)
                c_opt = optimal_constant(forms, delta).c_opt
                if not 0 < c_opt < math.inf:
                    continue
                for c in (c_opt, c_opt * (1 - 1e-6)):
                    valid = is_delta_observable(forms, delta, c)
                    try:
                        control_kernel(forms, c, delta)
                    except ValueError:
                        accepted = False
                    else:
                        accepted = True
                    assert accepted == valid, (which, driver.kind, c)
                    checked += 1
                    rejected += not accepted
        assert checked >= 20 and rejected >= 10

    def test_kernel_carries_its_forms(self, rng):
        # the gains, the tree and the system travel together: no caller can
        # pair the gains with another tree or system
        sys_, tree, forms, delta, c_opt = observable_instance(rng)
        ker = control_kernel(forms, c_opt * 1.000001, delta)
        assert ker.forms is forms and ker.tree is tree and ker.T == tree.T
        assert ker.gains.shape == (tree.K, sys_.m, sys_.n)
        with pytest.raises(dataclasses.FrozenInstanceError):
            forms.tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=8), sys_.d)

    def test_zero_state_zero_control(self, rng):
        sys_, tree, forms, delta, c_opt = observable_instance(rng)
        ker = control_kernel(forms, c_opt * 1.000001, delta)
        assert np.all(np.isfinite(ker.gains))
        u0 = controls_along_tree(tree, sys_, ker.gains, np.zeros(sys_.n))
        assert all(not layer.any() for layer in u0)


class TestTheorem51:
    def test_martingale_both_directions(self):
        rep = verify_theorem_5_1(bernoulli_forms(martingale(), 1.0, 4), 0.5)
        assert rep.applicable
        assert rep.forward_pass
        assert rep.converse_pass
        assert rep.both_directions_pass

    def test_no_output_not_applicable(self):
        sys_ = make_system(
            [[0.0]], [[0.0]], C=[[[0.0]]], D=[[[0.0]]]
        )
        rep = verify_theorem_5_1(bernoulli_forms(sys_, 1.0, 2), 0.5)
        assert not rep.applicable
        assert not rep.both_directions_pass

    def test_s2_at_published_point(self, corpus):
        rep = verify_theorem_5_1(bernoulli_forms(corpus["S2"], 1.0, 6), 0.6)
        assert rep.applicable
        assert rep.forward_pass
        assert rep.converse_pass

    def test_cost_never_exceeds_synthesis_bound(self, rng):
        for _ in range(5):
            sys_, tree, forms, delta, c_opt = observable_instance(rng)
            rep = verify_theorem_5_1(forms, delta)
            if rep.applicable:
                assert rep.cost_vs_bound_ratio <= 1.0 + 1e-9

    @pytest.mark.parametrize(
        "driver",
        [
            TreeDriver.bernoulli(),
            TreeDriver.trinomial(),
            TreeDriver.quantized_gaussian(4),
            # mean 0 but variance 2: the moments hold on any branch template
            TreeDriver("unmatched", [-1.0, 2.0], [2 / 3, 1 / 3]),
        ],
        ids=lambda d: d.kind,
    )
    def test_moments_match_tree_syntheses(self, driver):
        # every per-basis energy, limit_tree, kappa and the basis maximum
        # equal the tree sweeps of synthesize_control on each basis vector
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(12):
            sys_ = random_system(rng, n_max=3, m_max=2, d_max=2)
            b = driver.support.size**sys_.d
            K = 4 if b**4 <= 4096 else 3 if b**3 <= 4096 else 2
            horizon = HorizonConfig(T=1.0, K=K)
            delta = float(rng.uniform(0.2, 0.9))
            tree = build_tree(driver, horizon, sys_.d)
            forms = assemble_forms(tree, sys_)
            rep = verify_theorem_5_1(forms, delta)
            if not rep.applicable:
                continue
            checked += 1
            controls = []
            for i, det in enumerate(rep.forward_details):
                res = synthesize_control(
                    unchecked_kernel(forms, rep.c_used, delta), np.eye(sys_.n)[i]
                )
                controls.append(res.u)
                for name, want in res.bounds.items():
                    got = det["bounds"][name]
                    assert got.keys() == want.keys()
                    for key in ("value", "limit", "limit_tree"):
                        if key in want:
                            assert _rel_gap(got[key], want[key]) <= 1e-12
                    assert got["holds"] == want["holds"]
                assert det["all_hold"] == res.all_bounds_hold
            gram = np.array(
                [[control_pairing(tree, u, v) for v in controls] for u in controls]
            )
            kappa = np.sqrt(np.linalg.eigvalsh(0.5 * (gram + gram.T))[-1])
            assert _rel_gap(rep.measured_cost, kappa) <= 1e-12
            basis_max = np.sqrt(gram.diagonal().max())
            assert _rel_gap(rep.measured_cost_basis_max, basis_max) <= 1e-12
        assert checked >= 4
