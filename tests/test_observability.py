import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.optimize import brentq

import sctk.observability as observability
from sctk.errors import InvalidConfig, NumericalFailure
from sctk.nullcontrol import _interval_map
from sctk.observability import (
    _brentq,
    _lam_max,
    _lq_p0,
    _null_control_p0,
    _svd,
    assemble_forms,
    invariance_experiment,
    is_delta_observable,
    optimal_constant,
    sqrt_step,
    step_maps,
)
from sctk.systems import HorizonConfig, make_system
from sctk.trees import (
    TreeDriver,
    build_tree,
    simulate_forward,
    solve_bsde,
)
from tests.conftest import (
    dense_copt0_oracle,
    dense_copt_oracle,
    dense_forms,
    examples,
    random_system,
)


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
    """The dense forms behind the oracles in tests/conftest.py."""

    def test_martingale_identities(self):
        sys_ = martingale(2)
        T, K = 2.0, 3
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=T, K=K), 1)
        forms = dense_forms(tree, sys_)
        v = np.array([0.3, -0.9])
        y1 = np.tile(v, tree.leaf_count)
        # deterministic terminal data: output energy T|v|^2, initial |v|^2
        assert y1 @ forms.Q @ y1 == pytest.approx(T * v @ v, abs=1e-12)
        assert y1 @ forms.M0 @ y1 == pytest.approx(v @ v, abs=1e-12)
        assert y1 @ forms.N @ y1 == pytest.approx(v @ v, abs=1e-12)

    def test_row_sums_of_n(self):
        tree = build_tree(TreeDriver.trinomial(), HorizonConfig(T=1.0, K=2), 1)
        forms = dense_forms(tree, martingale(3))
        assert forms.N_diag.sum() == pytest.approx(3.0, abs=1e-12)

    def test_no_output_means_zero_q(self):
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), 1)
        assert not dense_forms(tree, no_output(2)).Q.any()

    def test_quadratic_forms_match_direct_solves(self, rng):
        sys_ = random_system(rng, n_max=2, m_max=2, d_max=2)
        tree = build_tree(TreeDriver.trinomial(), HorizonConfig(T=1.0, K=3), sys_.d)
        forms = dense_forms(tree, sys_)
        for _ in range(100):
            y1 = rng.standard_normal((tree.leaf_count, sys_.n))
            bw = solve_bsde(tree, sys_, y1)
            m0_direct = float(bw.y0 @ bw.y0)
            q_direct = sum(
                tree.delta_t
                * float(
                    tree.depth_probs(k)
                    @ np.einsum("pm,pm->p", bw.z[k], bw.z[k])
                )
                for k in range(tree.K)
            )
            v = y1.ravel()
            assert v @ forms.M0 @ v == pytest.approx(m0_direct, abs=1e-10)
            assert v @ forms.Q @ v == pytest.approx(q_direct, abs=1e-10)

    def test_dense_views_satisfy_invariants(self, rng):
        sys_ = random_system(rng, n_max=2, m_max=2, d_max=1)
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), 1)
        forms = dense_forms(tree, sys_)
        M0, Q = forms.M0, forms.Q
        assert np.abs(M0 - M0.T).max() < 1e-12
        assert np.abs(Q - Q.T).max() < 1e-12
        assert np.linalg.matrix_rank(M0, tol=1e-10) <= sys_.n
        assert (forms.N_diag > 0).all()

    def test_initial_map_matches_forward_flow(self, rng):
        # duality: N x(T;0,e_i) equals the i-th row of S0 transposed
        sys_ = random_system(rng, n_max=3, m_max=2, d_max=2)
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), sys_.d)
        forms = dense_forms(tree, sys_)
        for i in range(sys_.n):
            e = np.zeros(sys_.n)
            e[i] = 1.0
            free = simulate_forward(tree, sys_, e)
            lhs = forms.N_diag * free[-1].ravel()
            assert np.allclose(lhs, forms.S0.T @ e, atol=1e-12)


def two_controls():
    # its two control columns can null both step maps, so the square root
    # of the c = inf recursion empties
    return make_system([[0.3]], [[1.0, 0.5]], C=[[[0.4]]], D=[[[0.2, -0.7]]])


def lq_system(corpus, system):
    """A corpus system by name, two_controls, or draw 0 of seed system."""
    if system == "two_controls":
        return two_controls()
    if isinstance(system, str):
        return corpus[system]
    return random_system(np.random.default_rng(system), 3, 3, 2)


def nth_draw(seed, index, n_max, m_max, d_max):
    rng = np.random.default_rng(seed)
    for _ in range(index):
        random_system(rng, n_max, m_max, d_max)
    return random_system(rng, n_max, m_max, d_max)


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

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_state_killed_in_one_step_gives_zero_constant(self, delta):
        # dt A = -I: every state reaches 0 in one step with u = 0
        sys_ = make_system([[-4.0]], [[1.0]], C=[[[0.0]]], D=[[[0.0]]])
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=4), 1)
        rep = optimal_constant(assemble_forms(tree, sys_), delta)
        assert rep.observable and rep.c_opt == 0.0

    def test_matches_definitional_oracle(self, rng):
        hits = {"finite": 0, "inf": 0}
        for _ in range(25):
            sys_ = random_system(rng, n_max=3, m_max=2, d_max=2)
            tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), sys_.d)
            forms = assemble_forms(tree, sys_)
            delta = float(rng.uniform(0.05, 0.8))
            got = optimal_constant(forms, delta).c_opt
            dense = dense_forms(tree, sys_)
            want = dense_copt_oracle(dense.M0, dense.Q, dense.N_diag, delta)
            if math.isinf(want):
                hits["inf"] += 1
                assert math.isinf(got)
            else:
                hits["finite"] += 1
                assert got == pytest.approx(want, rel=1e-5, abs=1e-9)
        assert hits["finite"] >= 3 and hits["inf"] >= 3

    @pytest.mark.parametrize("name", ["S2", "S4"])
    @pytest.mark.parametrize("K", [9, 10])
    def test_delta0_without_exact_null_control_is_inf(self, corpus, name, K):
        # S4's kernel energy is 6.3e-14 at K = 9 and 3.4e-16 at K = 10, far
        # below rounding of the forms; the constrained recursion decides
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=K), 1)
        forms = assemble_forms(tree, corpus[name])
        rep = optimal_constant(forms, 0.0)
        assert not rep.observable and math.isinf(rep.c_opt)
        assert rep.diagnostics["null_controllable"] is False

    @pytest.mark.parametrize("name", ["M0", "S1"])
    def test_delta0_null_controllable_gives_inverse_horizon(self, corpus, name):
        for K in range(2, 15):
            tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=K), 1)
            rep = optimal_constant(assemble_forms(tree, corpus[name]), 0.0)
            assert rep.diagnostics["null_controllable"] is True
            assert rep.c_opt == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("K, want", [(2, 11.5611), (3, 10.2237), (4, 9.5931)])
    def test_delta0_null_controllable_once_the_subspace_is_full(self, K, want):
        # once V_k = R^n the projected constraint stack is rounding noise;
        # judged against its own norm it read as rank and gave inf at K = 3.
        # V fills at the second step from the end, and the unconstrained
        # step runs the rest
        sys_ = nth_draw(11, 18, 3, 3, 2)
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=K), sys_.d)
        rep = optimal_constant(assemble_forms(tree, sys_), 0.0)
        assert rep.diagnostics["null_controllable"] is True
        assert rep.c_opt == pytest.approx(want, rel=1e-5)
        assert rep.c_opt == pytest.approx(
            dense_copt0_oracle(dense_forms(tree, sys_)), rel=1e-9
        )

    @pytest.mark.parametrize(
        "system, filled_after",
        [("M0", 1), ("double_integrator", 2), ("draw11", 2), ("S4", None)],
    )
    @pytest.mark.parametrize("K", [3, 4, 6])
    def test_delta0_hand_over_matches_dense_oracle(
        self, corpus, monkeypatch, system, filled_after, K
    ):
        # once V = R^n the remaining depths run sqrt_step's unconstrained
        # step: from the first step on M0, from the second on the noiseless
        # double integrator and draw 18 of seed 11, never on S4 (its state
        # noise keeps V_0 short of R^2, c_opt(0) = inf)
        sys_ = {
            "double_integrator": make_system(
                [[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                C=[np.zeros((2, 2))], D=[np.zeros((2, 1))],
            ),
            "draw11": nth_draw(11, 18, 3, 3, 2),
        }.get(system) or corpus[system]
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=K), sys_.d)
        forms = assemble_forms(tree, sys_)
        steps = []
        plain = observability.sqrt_step

        def counted(maps, cost):
            step = plain(maps, cost)
            return lambda R: steps.append(R) or step(R)

        monkeypatch.setattr(observability, "sqrt_step", counted)
        U, _ = _null_control_p0(forms)
        monkeypatch.undo()
        assert len(steps) == (0 if filled_after is None else K - filled_after)
        assert (U.shape[1] == sys_.n) == (filled_after is not None)
        got = optimal_constant(forms, 0.0).c_opt
        want = dense_copt0_oracle(dense_forms(tree, sys_))
        assert math.isinf(got) == math.isinf(want) == (filled_after is None)
        if filled_after is not None:
            assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize(
        "delta, want", [(0.0, 48.02391), (1e-10, None), (1e-9, None), (1e-8, None)]
    )
    def test_small_delta_has_no_rank_cut_bias(self, delta, want):
        # cutting the spread of H_uu + (dt / c) I at 1e10 dropped
        # regulariser-only directions and gave 48.8617 at delta = 1e-9; and
        # with P_K = I / delta, forming H = E[M^T P M] and subtracting the
        # Schur term lost digits as delta fell (1.8e-4 relative at 1e-10),
        # which the square-root recursion does not (want None: the dense
        # oracle)
        sys_ = nth_draw(99, 3, 3, 3, 2)
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), sys_.d)
        got = optimal_constant(assemble_forms(tree, sys_), delta).c_opt
        if want is None:
            dense = dense_forms(tree, sys_)
            want = dense_copt_oracle(dense.M0, dense.Q, dense.N_diag, delta)
            assert got == pytest.approx(want, rel=1e-9)
        else:
            assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("seed", [2026, 7])
    def test_delta0_is_the_small_delta_limit(self, seed):
        # c_opt(delta) increases to c_opt(0) as delta falls to 0
        rng = np.random.default_rng(seed)
        finite = 0
        for _ in range(20):
            sys_ = random_system(rng, 3, 3, 2)
            for driver in (TreeDriver.bernoulli(), TreeDriver.trinomial()):
                for K in (2, 4):
                    tree = build_tree(driver, HorizonConfig(T=1.0, K=K), sys_.d)
                    forms = assemble_forms(tree, sys_)
                    c0 = optimal_constant(forms, 0.0).c_opt
                    if math.isfinite(c0):
                        finite += 1
                        assert optimal_constant(forms, 1e-6).c_opt <= c0 * (1 + 1e-7)
        assert finite >= 10

    @settings(max_examples=examples(40))
    @given(
        st.integers(0, 10_000),
        st.sampled_from(
            [TreeDriver.bernoulli(), TreeDriver.trinomial(), TreeDriver.quantized_gaussian(4)]
        ),
        st.integers(2, 4),
        st.one_of(st.just(0.0), st.floats(0.05, 0.9)),
    )
    # c_opt = 2.8e5: a 50-digit solve puts the recursion 3.8e-12 relative
    # off; an oracle that read lambda_min of c Q + delta N - M0 was 1e-7 off
    @example(6536, TreeDriver.trinomial(), 4, 0.5764738606055232)
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
        dense = dense_forms(tree, sys_)
        if delta > 0:
            want = dense_copt_oracle(dense.M0, dense.Q, dense.N_diag, delta)
        else:
            want = dense_copt0_oracle(dense)
        assert math.isinf(got) == math.isinf(want)
        if math.isfinite(want):
            assert got == pytest.approx(want, rel=1e-9)

    def test_branch_sum_is_exact_on_unmatched_driver(self, corpus):
        # mean 0 but variance 2: a recursion built on E xi xi^T = dt I would
        # be wrong here, the step maps' variance term is not
        driver = TreeDriver("unmatched", [-1.0, 2.0], [2 / 3, 1 / 3])
        for name in ("S2", "S4"):
            tree = build_tree(driver, HorizonConfig(T=1.0, K=4), 1)
            forms = assemble_forms(tree, corpus[name])
            dense = dense_forms(tree, corpus[name])
            matched = assemble_forms(
                build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=4), 1),
                corpus[name],
            )
            for delta in (0.3, 0.6):
                got = optimal_constant(forms, delta).c_opt
                want = dense_copt_oracle(dense.M0, dense.Q, dense.N_diag, delta)
                assert math.isfinite(want)
                assert got == pytest.approx(want, rel=1e-9)
                assert abs(got - optimal_constant(matched, delta).c_opt) > 1e-3 * got

    @pytest.mark.parametrize(
        "driver",
        [
            TreeDriver("shifted", [0.0, 1.0], [0.5, 0.5]),
            TreeDriver("skew", [-1.0, 0.5, 3.0], [0.2, 0.5, 0.3]),
        ],
        ids=lambda d: d.kind,
    )
    @pytest.mark.parametrize("system", ["S2", "S4", "draw99"])
    @pytest.mark.parametrize("delta", [0.0, 0.3, 0.6])
    def test_step_maps_mean_term_matches_dense_oracle(
        self, corpus, driver, system, delta
    ):
        # drivers with a nonzero mean: the mean map carries
        # mean sqrt(dt) sum_i [C_i, D_i], the oracle sums the real branches
        sys_ = corpus[system] if system in corpus else nth_draw(99, 3, 3, 3, 2)
        tree = build_tree(driver, HorizonConfig(T=1.0, K=3), sys_.d)
        got = optimal_constant(assemble_forms(tree, sys_), delta).c_opt
        dense = dense_forms(tree, sys_)
        if delta > 0:
            want = dense_copt_oracle(dense.M0, dense.Q, dense.N_diag, delta)
        else:
            want = dense_copt0_oracle(dense)
        assert math.isinf(got) == math.isinf(want)
        if math.isfinite(want):
            assert got == pytest.approx(want, rel=1e-9)

    def test_forms_reject_a_tree_of_another_noise_dimension(self, corpus):
        # the step maps read d from the system alone; synthesis sweeps the tree
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=2), 2)
        with pytest.raises(InvalidConfig, match="system d=1 != tree d=2"):
            assemble_forms(tree, corpus["S2"])

    @pytest.mark.parametrize("system", ["S2", "S3", "S4", "two_controls", 0, 1, 2, 3])
    def test_lam_kernel_matches_dense_least_squares(self, corpus, system):
        # the c = inf recursion: x0^T P_0 x0 = min over adapted u of
        # E|x_T|^2, here by least squares on the leaf-indexed map from the
        # node controls to the terminal state, built by forward sweeps
        sys_ = lq_system(corpus, system)
        tree = build_tree(TreeDriver.trinomial(), HorizonConfig(T=1.0, K=3), sys_.d)
        n, m = sys_.n, sys_.m
        weight = np.repeat(np.sqrt(tree.leaf_probs), n)

        def terminal(x0, u):
            return weight * simulate_forward(tree, sys_, x0, u)[-1].ravel()

        Phi = np.column_stack([terminal(e, None) for e in np.eye(n)])
        cols = []
        for k in range(tree.K):
            for i in range(tree.b**k * m):
                values = [np.zeros((tree.b**j, m)) for j in range(tree.K)]
                values[k].flat[i] = 1.0
                cols.append(terminal(np.zeros(n), values))
        U, s, _ = np.linalg.svd(np.column_stack(cols), full_matrices=False)
        U = U[:, s > 1e-5 * s[0]] if s[0] > 0 else U[:, :0]
        resid = Phi - U @ (U.T @ Phi)
        want = resid.T @ resid
        got = _lq_p0(assemble_forms(tree, sys_), math.inf, 1.0)
        atol = 1e-12 * max(1.0, np.abs(want).max())
        assert np.allclose(got, want, rtol=1e-9, atol=atol)

    @pytest.mark.parametrize(
        "system", ["S1", "S2", "S3", "S4", "M0", "two_controls", 0, 1, 2, 3]
    )
    @pytest.mark.parametrize("K", [3, 8])
    def test_zero_control_value_is_the_free_second_moment(self, corpus, system, K):
        # c = 0 forces u = 0, so x0^T P_0 x0 = E|x_T|^2 of the free flow:
        # Phi^T(I) of the second-moment map with zero gains
        sys_ = lq_system(corpus, system)
        n = sys_.n
        tree = build_tree(TreeDriver.trinomial(), HorizonConfig(T=1.0, K=K), sys_.d)
        forms = assemble_forms(tree, sys_)
        got = _lq_p0(forms, 0.0, 1.0)
        Phi, _ = _interval_map(forms, np.zeros((K, sys_.m, n)))
        want = (Phi.T @ np.eye(n).ravel()).reshape(n, n)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("system", ["M0", "two_controls"])
    def test_nothing_reaches_the_process_output(self, corpus, system, capfd):
        # two_controls' c = inf square root empties (M0's keeps one row), and
        # LAPACK's dgeqrf reports a stack with no rows as an illegal
        # argument on file descriptor 1, outside Python's streams
        sys_ = lq_system(corpus, system)
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=4), sys_.d)
        optimal_constant(assemble_forms(tree, sys_), 0.5)
        assert capfd.readouterr() == ("", "")


# c_opt(0.5) and lam_kernel on the invariance meshes (T = 1) as float.hex,
# as np.linalg.svd and eigvalsh gave them (numpy 2.4 and scipy 1.17 with
# their bundled OpenBLAS); the direct LAPACK calls run the same routines
# on the same inputs, so they must give the same bits
PINNED_MESH = {
    ("S2", "bernoulli", 8): ("0x1.867e7ad273d0ep+0", "0x1.0000000000002p-24"),
    ("S2", "bernoulli", 9): ("0x1.7e7869ea290fap+0", "0x1.62c103a907cddp-29"),
    ("S2", "bernoulli", 10): ("0x1.78576fd84cab0p+0", "0x1.b7cdfd9d7bdbfp-34"),
    ("S2", "bernoulli", 11): ("0x1.7381beb6092a7p+0", "0x1.ed46bc50ce598p-39"),
    ("S2", "trinomial", 6): ("0x1.a15422b1e25ddp+0", "0x1.67980e0bf08bdp-16"),
    ("S2", "trinomial", 7): ("0x1.917444205c980p+0", "0x1.45f3b3bb08292p-20"),
    ("S2", "trinomial", 8): ("0x1.867e7ad273d0ep+0", "0x1.ffffffffffff4p-25"),
    ("S2", "quantized_gaussian", 6): ("0x1.a15422b1e25d9p+0", "0x1.67980e0bf08c7p-16"),
    ("S2", "quantized_gaussian", 7): ("0x1.917444205c980p+0", "0x1.45f3b3bb08292p-20"),
    ("S2", "quantized_gaussian", 8): ("0x1.867e7ad273d0ep+0", "0x1.0000000000002p-24"),
    ("S4", "bernoulli", 8): ("0x1.5d7059c8db570p+3", "0x1.5be4945bbfdecp-37"),
    ("S4", "bernoulli", 9): ("0x1.55ec50b646fe1p+3", "0x1.19b54b55ce918p-44"),
    ("S4", "bernoulli", 10): ("0x1.50349faa14332p+3", "0x1.839f20bfe1490p-52"),
    ("S4", "bernoulli", 11): ("0x1.4bb571699525cp+3", "0x1.cec828d267933p-60"),
    ("S4", "trinomial", 6): ("0x1.76d608bd4f47cp+3", "0x1.20429c515853ep-23"),
    ("S4", "trinomial", 7): ("0x1.67c3597b4701dp+3", "0x1.63087700304dap-30"),
    ("S4", "trinomial", 8): ("0x1.5d7059c8db56bp+3", "0x1.5be4945bbfddfp-37"),
    ("S4", "quantized_gaussian", 6): ("0x1.76d608bd4f471p+3", "0x1.20429c5158544p-23"),
    ("S4", "quantized_gaussian", 7): ("0x1.67c3597b4701dp+3", "0x1.63087700304dap-30"),
    ("S4", "quantized_gaussian", 8): ("0x1.5d7059c8db570p+3", "0x1.5be4945bbfdecp-37"),
    # the corpus-fine benchmark's own meshes of S1 and M0
    ("S1", "bernoulli", 10): ("0x1.0000000000000p-1", "0x0.0p+0"),
    ("M0", "bernoulli", 10): ("0x1.0000000000000p-1", "0x0.0p+0"),
}


class TestDirectLapack:
    SHAPES = [(1, 1), (4, 1), (6, 3), (9, 2), (3, 3), (2, 5), (1, 4), (0, 2), (3, 0)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_svd_is_numpys_bit_for_bit(self, shape):
        # m > rows included; a product with a factor depends on its memory
        # order, so the factors are C-ordered as numpy's are
        rng = np.random.default_rng(sum(shape))
        for _ in range(200):
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8)
            got, want = _svd(a), np.linalg.svd(a)
            for g, w in zip(got, want):
                assert g.shape == w.shape and np.array_equal(g, w)
                assert g.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lam_max_is_eigvalsh_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for _ in range(500):
            a = rng.standard_normal((n, n))
            a = a.T @ a if rng.random() < 0.5 else a + a.T
            assert np.array_equal(a, a.T)
            assert _lam_max(a) == np.linalg.eigvalsh(a)[-1]

    def test_nonzero_info_is_a_numerical_failure(self, monkeypatch):
        # dgesdd refuses a NaN entry with info -4; eigvalsh reads NaN
        # matrices as finite, so its info is forced here
        with pytest.raises(NumericalFailure, match="dgesdd failed with info -4"):
            _svd(np.array([[np.nan, 1.0], [1.0, 2.0]]))
        monkeypatch.setattr(
            observability, "dsyevd", lambda a, **kw: (np.zeros(len(a)), None, 1)
        )
        with pytest.raises(NumericalFailure, match="dsyevd failed with info 1"):
            _lam_max(np.eye(2))

    @pytest.mark.parametrize("key", sorted(PINNED_MESH), ids=lambda k: "/".join(map(str, k)))
    def test_mesh_results_are_pinned_bits(self, corpus, key):
        name, driver, K = key
        tree = build_tree(TreeDriver.from_name(driver), HorizonConfig(T=1.0, K=K), 1)
        rep = optimal_constant(assemble_forms(tree, corpus[name]), 0.5)
        got = (rep.c_opt.hex(), rep.diagnostics["lam_kernel"].hex())
        assert got == PINNED_MESH[key]


class TestOverflow:
    @pytest.mark.parametrize("a, delta", [(-2500.0, 0.5), (-2500.0, 0.0), (-1e5, 0.5)])
    def test_overflowing_recursion_is_a_numerical_failure(self, a, delta):
        # Euler factor |1 + a dt| = 18.5 (a = -2500) or 780 (a = -1e5) per
        # step at K = 128: R^T R overflows at the end, or R itself midway.
        # RuntimeWarnings fail the test suite, so none may escape either
        sys_ = make_system(
            np.diag([a, 1.0]), [[0.0], [1.0]],
            C=[np.diag([0.0, 2.0])], D=[np.zeros((2, 1))],
        )
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=128), 1)
        forms = assemble_forms(tree, sys_)
        with pytest.raises(NumericalFailure):
            optimal_constant(forms, delta)
        for c in (0.0, 1.0):
            with pytest.raises(NumericalFailure, match="overflowed"):
                _lq_p0(forms, c, 2.0)

    @pytest.mark.parametrize("K, want", [(64, math.inf), (2048, 6.019763441959165)])
    def test_stiff_system_off_the_overflow_range(self, K, want):
        # at K = 64 the discrete system's stiff mode explodes within range
        # (lam_kernel 2e202), at K = 2048 the Euler factor is below 1
        sys_ = make_system(
            np.diag([-2500.0, 1.0]), [[0.0], [1.0]],
            C=[np.diag([0.0, 2.0])], D=[np.zeros((2, 1))],
        )
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=K), 1)
        got = optimal_constant(assemble_forms(tree, sys_), 0.5).c_opt
        assert got == pytest.approx(want, rel=1e-12)


class TestBrentq:
    CASES = [
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: math.exp(-x) - 0.3, -3.0, 5.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: (x - 1.0) ** 5, -0.5, 3.0),
        (lambda x: 1.0 if x < 0.3 else -1.0, -690.0, 690.0),
        (lambda x: math.atan(100.0 * (x - 0.7)), -4.0, 1.0),
        (lambda x: 1e-3 - x * x if x > 0 else 1e-3, -1.0, 2.0),
        (lambda x: x, 0.0, 1.0),
        (lambda x: x - 1.0, 0.0, 1.0),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("xtol", [1e-15, 2e-12, 1e-3])
    def test_matches_scipy_point_for_point(self, case, xtol):
        f, a, b = self.CASES[case]
        points = {"port": [], "scipy": []}

        def logged(key):
            return lambda x: points[key].append(x) or f(x)

        want, res = brentq(logged("scipy"), a, b, xtol=xtol, full_output=True, disp=False)
        if res.converged:
            assert _brentq(logged("port"), a, b, xtol) == want
        else:  # (x - 1)^5 at xtol 1e-15 stalls, and scipy stops at 100 steps too
            with pytest.raises(NumericalFailure, match="did not converge"):
                _brentq(logged("port"), a, b, xtol)
        assert points["port"] == points["scipy"]

    def test_bracket_without_sign_change_is_rejected(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-15)


class TestSqrtStep:
    @pytest.mark.parametrize("cost", ["control", "unit"])
    @pytest.mark.parametrize("system", ["S1", "S2", "S3", "S4", "M0", "draw99"])
    def test_matches_the_schur_complement_of_the_h_form(self, corpus, system, cost):
        # the H form H = sum_r M_r^T P M_r + running cost, with P = R^T R,
        # is the oracle: the next P is the Schur complement over u and the
        # gain -H_uu^{-1} H_ux; "control" is _lq_p0's finite-c cost
        # sqrt(dt / c) [I, 0], "unit" a unit running cost sqrt(dt) I
        sys_ = corpus[system] if system in corpus else nth_draw(99, 3, 3, 3, 2)
        n, m = sys_.n, sys_.m
        if cost == "control":
            dt, c = 0.25, 3.0
            rows = np.sqrt(dt / c) * np.eye(m, m + n)
            running = np.zeros((n + m, n + m))
            running[n:, n:] = dt / c * np.eye(m)
        else:
            dt = 0.01
            rows = np.sqrt(dt) * np.eye(m + n)
            running = dt * np.eye(n + m)
        maps = step_maps(sys_, dt)
        step = sqrt_step(maps, rows)
        R = np.random.default_rng(5).standard_normal((n, n))
        for _ in range(3):  # the step's preallocated stack is rewritten
            P = R.T @ R
            H = running + sum(Mr.T @ P @ Mr for Mr in maps)
            want = H[:n, :n] - H[:n, n:] @ np.linalg.solve(H[n:, n:], H[n:, :n])
            want_gain = -np.linalg.solve(H[n:, n:], H[n:, :n])
            tri = step(R)
            R = tri[m:, m:]
            got_gain = -solve_triangular(tri[:m, :m], tri[:m, m:])
            assert np.linalg.norm(R.T @ R - want) <= 1e-12 * np.linalg.norm(want)
            assert np.linalg.norm(got_gain - want_gain) <= 1e-12 * max(
                np.linalg.norm(want_gain), 1e-300
            )


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
        # cli._pick_constant hands c_opt to control_kernel, which applies this test
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
        for K in (8, 9, 10):
            tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=K), 1)
            cases.append((assemble_forms(tree, corpus["M0"]), 0.0))
        for forms, delta in cases:
            c_opt = optimal_constant(forms, delta).c_opt
            assert is_delta_observable(forms, delta, c_opt)
            assert not is_delta_observable(forms, delta, (1 - 1e-6) * c_opt)

    @pytest.mark.parametrize("delta, c", [(0.5, math.nan), (0.5, -1.0), (1.0, 1.0)])
    def test_out_of_range_arguments_are_rejected(self, delta, c):
        # a NaN c would otherwise take the c = 0 step of the recursion
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), 1)
        with pytest.raises(ValueError, match="c >= 0"):
            is_delta_observable(assemble_forms(tree, martingale()), delta, c)

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
        forms = dense_forms(tree, corpus["S2"])
        delta = 0.5
        y1 = rng.standard_normal(forms.nL)
        def ratio(v):
            return v @ (forms.M0 - delta * forms.N) @ v / (v @ forms.Q @ v)
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
