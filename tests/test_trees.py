import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sctk.errors import InvalidConfig
from sctk.observability import assemble_forms, optimal_constant
from sctk.systems import HorizonConfig, make_system
from sctk.trees import (
    TreeDriver,
    build_tree,
    duality_residual,
    field_to_rows,
    simulate_forward,
    solve_bsde,
    terminal_expectation_sq,
)
from tests.conftest import examples, random_system

ALL_DRIVERS = [
    TreeDriver.bernoulli(),
    TreeDriver.trinomial(),
    TreeDriver.quantized_gaussian(3),
    TreeDriver.quantized_gaussian(5),
]


class TestDrivers:
    @pytest.mark.parametrize("driver", ALL_DRIVERS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("dt", [0.1, 0.25, 1.0 / 3.0])
    def test_increment_moments_exact(self, driver, dt):
        tree = build_tree(driver, HorizonConfig(T=4 * dt, K=4), d=1)
        p, xi = tree.branch_probs, tree.branch_increments[:, 0]
        assert p.sum() == pytest.approx(1.0, abs=1e-14)
        assert abs(p @ xi) < 1e-14
        assert p @ xi**2 == pytest.approx(dt, abs=1e-14)

    def test_cross_moments_vanish_in_two_dims(self):
        tree = build_tree(TreeDriver.trinomial(), HorizonConfig(T=1.0, K=2), d=2)
        p, xi = tree.branch_probs, tree.branch_increments
        second = np.einsum("j,jd,je->de", p, xi, xi)
        assert np.allclose(second, tree.delta_t * np.eye(2), atol=1e-14)

    def test_quantized_gaussian_needs_three_levels(self):
        with pytest.raises(Exception):
            TreeDriver.quantized_gaussian(2)

    @pytest.mark.parametrize(
        "support, probs, match",
        [
            ([0.0], [1.0], "two support points"),
            ([], [], "two support points"),
            ([[-1.0, 1.0]], [[0.5, 0.5]], "matching 1-d"),
            ([-1.0, 1.0], [0.5], "matching 1-d"),
            ([-1.0, 1.0], [1.0, 0.0], "strictly positive"),
            ([-1.0, 1.0], [0.5, 0.6], "sum to one"),
            ([np.nan, 1.0], [0.5, 0.5], "finite"),
            ([-1.0, 1.0], [np.nan, np.nan], "finite"),
            ([-np.inf, 1.0], [0.5, 0.5], "finite"),
            ([-1.0, 1.0], [np.inf, 0.5], "finite"),
        ],
    )
    def test_invalid_driver_rejected(self, support, probs, match):
        # a one-point driver used to build a tree whose node_count,
        # node_offset and gram_dim divide by b - 1 = 0
        with pytest.raises(InvalidConfig, match=match):
            TreeDriver("bad", support, probs)

    @pytest.mark.parametrize(
        "driver, mean, var",
        [pytest.param(d, 0.0, 1.0, id=d.kind) for d in ALL_DRIVERS]
        + [
            pytest.param(
                TreeDriver("unmatched", [-1.0, 2.0], [2 / 3, 1 / 3]), 0.0, 2.0,
                id="unmatched",
            ),
            pytest.param(
                TreeDriver("skew", [-1.0, 0.5, 3.0], [0.2, 0.5, 0.3]), 0.95, 2.1225,
                id="skew",
            ),
        ],
    )
    def test_moments(self, driver, mean, var):
        got_mean, got_var = driver.moments
        assert got_mean == pytest.approx(mean, abs=1e-14)
        assert got_var == pytest.approx(var, rel=1e-14)


class TestBuild:
    def test_bernoulli_counts(self):
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), 1)
        assert tree.leaf_count == 8
        assert tree.node_count == 15
        assert np.allclose(tree.leaf_probs, 1 / 8)

    def test_trinomial_center_leaf_probability(self):
        tree = build_tree(TreeDriver.trinomial(), HorizonConfig(T=1.0, K=2), 1)
        assert tree.leaf_count == 9
        # path through (0, 0): branch 1 then branch 1 -> leaf index 4
        assert tree.leaf_probs[4] == pytest.approx((2 / 3) ** 2, abs=1e-15)

    def test_two_dim_branching(self):
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=2), 2)
        assert tree.b == 4
        assert tree.leaf_count == 16

    def test_depth_probabilities_sum_to_one(self):
        tree = build_tree(TreeDriver.trinomial(), HorizonConfig(T=1.0, K=4), 1)
        for k in range(tree.K + 1):
            assert tree.depth_probs(k).sum() == pytest.approx(1.0, abs=1e-12)

    def test_parent_child_indexing_roundtrip(self):
        tree = build_tree(TreeDriver.trinomial(), HorizonConfig(T=1.0, K=3), 1)
        for k in range(tree.K):
            idx = np.arange(tree.b**k)
            for j in range(tree.b):
                children = tree.child_index(idx, j)
                assert np.array_equal(tree.parent_index(children), idx)
        # every non-root node has exactly one parent
        leaves = np.arange(tree.leaf_count)
        parents = tree.parent_index(leaves)
        assert np.all(np.bincount(parents) == tree.b)

    def test_tree_is_its_definition(self):
        tree = build_tree(TreeDriver.trinomial(), HorizonConfig(T=1.0, K=4), 3)
        assert [f.name for f in fields(tree)] == ["K", "delta_t", "d", "driver"]
        assert tree.b == 27 and tree.branch_increments.shape == (27, 3)

    def test_recursions_never_build_the_branch_template(self):
        # 3^10 = 59 049 branches: the template alone would take 5.2 MB
        sys_ = make_system(np.zeros((2, 2)), np.eye(2), C=[0.1 * np.eye(2)] * 10)

        def c_opt():
            tree = build_tree(TreeDriver.trinomial(), HorizonConfig(T=1.0, K=4), d=10)
            return optimal_constant(assemble_forms(tree, sys_), 0.5)

        c_opt()
        tracemalloc.start()
        try:
            rep = c_opt()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.observable
        assert peak < 1_000_000


class TestForward:
    def test_zero_initial_zero_control_stays_zero(self, rng):
        sys_ = random_system(rng)
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), sys_.d)
        x = simulate_forward(tree, sys_, np.zeros(sys_.n))
        assert all(not layer.any() for layer in x)

    def test_single_step_state_noise(self):
        # x = 1 + xi: leaves 1 -/+ sqrt(dt), E|x(T)|^2 = 1 + dt
        sys_ = make_system([[0.0]], [[0.0]], C=[[[1.0]]], D=[[[0.0]]])
        dt = 0.25
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=dt, K=1), 1)
        x = simulate_forward(tree, sys_, [1.0])
        assert np.allclose(
            np.sort(x[-1][:, 0]), [1 - np.sqrt(dt), 1 + np.sqrt(dt)]
        )
        assert terminal_expectation_sq(tree, x[-1]) == pytest.approx(1 + dt)

    def test_deterministic_drift_compounds(self):
        sys_ = make_system([[1.0]], [[0.0]], C=[[[0.0]]], D=[[[0.0]]])
        K = 5
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=K), 1)
        x = simulate_forward(tree, sys_, [1.0])
        assert np.allclose(x[-1], (1 + 1 / K) ** K, atol=1e-12)


class TestBackward:
    def test_constant_terminal_is_a_martingale(self, rng):
        sys_ = make_system([[0.0]], [[2.0]], C=[[[0.0]]], D=[[[0.0]]])
        tree = build_tree(TreeDriver.trinomial(), HorizonConfig(T=1.0, K=3), 1)
        v = 3.0
        bw = solve_bsde(tree, sys_, np.full((tree.leaf_count, 1), v))
        assert np.allclose(bw.y0, v)
        for k in range(tree.K):
            assert np.allclose(bw.y[k], v)
            assert np.allclose(bw.z[k], 2.0 * v)  # z = B^T y
            assert not bw.Y[0][k].any()

    def test_one_step_hand_values(self):
        sys_ = make_system([[0.0]], [[1.0]], C=[[[0.0]]], D=[[[0.0]]])
        dt = 0.25
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=dt, K=1), 1)
        sd = np.sqrt(dt)
        # -sd on the down leaf (branch order ascending in the increment)
        bw = solve_bsde(tree, sys_, np.array([[-sd], [sd]]))
        assert bw.y0[0] == pytest.approx(0.0, abs=1e-15)
        assert bw.Y[0][0][0, 0] == pytest.approx(1.0, abs=1e-14)
        assert bw.z[0][0, 0] == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=examples(20))
    @given(st.integers(0, 10_000), st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity_in_terminal_data(self, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        sys_ = random_system(rng, n_max=2, m_max=2, d_max=2)
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), sys_.d)
        y1a = rng.standard_normal((tree.leaf_count, sys_.n))
        y1b = rng.standard_normal((tree.leaf_count, sys_.n))
        mix = solve_bsde(tree, sys_, alpha * y1a + beta * y1b)
        a = solve_bsde(tree, sys_, y1a)
        b = solve_bsde(tree, sys_, y1b)
        for k in range(tree.K + 1):
            assert np.allclose(
                mix.y[k],
                alpha * a.y[k] + beta * b.y[k],
                atol=1e-10,
            )

    def test_recursion_residual(self, rng):
        sys_ = random_system(rng)
        tree = build_tree(TreeDriver.trinomial(), HorizonConfig(T=1.0, K=3), sys_.d)
        y1 = rng.standard_normal((tree.leaf_count, sys_.n))
        bw = solve_bsde(tree, sys_, y1)
        assert bw.check_recursion(tree, sys_) < 1e-12

    def test_tower_property_driftless(self, rng):
        # A = C = 0: probability-weighted mean of y constant across depths
        sys_ = make_system(
            np.zeros((2, 2)), rng.standard_normal((2, 2)),
            C=[np.zeros((2, 2))], D=[rng.standard_normal((2, 2))],
        )
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=4), 1)
        y1 = rng.standard_normal((tree.leaf_count, 2))
        bw = solve_bsde(tree, sys_, y1)
        means = [
            tree.depth_probs(k) @ bw.y[k] for k in range(tree.K + 1)
        ]
        for mk in means[1:]:
            assert np.allclose(mk, means[0], atol=1e-12)


class TestDuality:
    def test_no_control_duality(self, rng):
        sys_ = random_system(rng)
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=4), sys_.d)
        y1 = rng.standard_normal((tree.leaf_count, sys_.n))
        x0 = rng.standard_normal(sys_.n)
        assert duality_residual(tree, sys_, None, x0, y1) < 1e-12

    def test_zero_data_zero_residual(self, rng):
        sys_ = random_system(rng, n_max=2)
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=3), sys_.d)
        y1 = np.zeros((tree.leaf_count, sys_.n))
        u = [np.zeros((tree.b**k, sys_.m)) for k in range(tree.K)]
        assert duality_residual(tree, sys_, u, np.zeros(sys_.n), y1) == 0.0

    @pytest.mark.parametrize("driver", ALL_DRIVERS[:2], ids=lambda d: d.kind)
    def test_exact_duality_random_data(self, driver, rng):
        for _ in range(10):
            sys_ = random_system(rng)
            b = len(driver.support) ** sys_.d
            K = min(5, int(np.log(2e5) / np.log(b)))
            tree = build_tree(driver, HorizonConfig(T=1.0, K=K), sys_.d)
            u = [rng.standard_normal((tree.b**k, sys_.m)) for k in range(tree.K)]
            y1 = rng.standard_normal((tree.leaf_count, sys_.n))
            x0 = rng.standard_normal(sys_.n)
            assert duality_residual(tree, sys_, u, x0, y1) < 1e-10


class TestConvergence:
    def test_mesh_refinement_shrinks_driver_gap(self):
        # smooth terminal functional of the path endpoint; the initial
        # values under bernoulli and trinomial drivers differ by O(dt)
        sys_ = make_system([[0.3]], [[1.0]], C=[[[0.8]]], D=[[[0.0]]])

        def y0_gap(K):
            vals = {}
            for drv in (TreeDriver.bernoulli(), TreeDriver.trinomial()):
                tree = build_tree(drv, HorizonConfig(T=1.0, K=K), 1)
                inc = tree.branch_increments[:, 0]
                w = np.zeros(1)
                for _ in range(tree.K):
                    w = (w[:, None] + inc[None, :]).ravel()
                bw = solve_bsde(tree, sys_, np.sin(w)[:, None])
                vals[drv.kind] = bw.y0[0]
            return abs(vals["bernoulli"] - vals["trinomial"])

        assert y0_gap(8) < y0_gap(4)


class TestSerialization:
    def test_rows_carry_node_index_and_depth(self, rng):
        sys_ = random_system(rng, n_max=2)
        tree = build_tree(TreeDriver.bernoulli(), HorizonConfig(T=1.0, K=2), sys_.d)
        x = simulate_forward(tree, sys_, np.ones(sys_.n))
        rows = field_to_rows(tree, x)
        assert rows.shape == (tree.node_count, 2 + sys_.n)
        assert rows[0, 0] == 0 and rows[0, 1] == 0
        assert rows[-1, 1] == tree.K
