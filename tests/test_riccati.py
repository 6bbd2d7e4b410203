import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sctk.errors import NumericalFailure
from sctk.moments import build_generator, spectral_abscissa
from sctk.observability import step_maps
from sctk.riccati import (
    VI_DT,
    VI_GROWTH_CAP,
    NotSolvable,
    closed_loop_abscissa,
    feedback_gain,
    find_stabilizing_gain,
    lq_value,
    sare_residual,
    solve_sare,
)
from sctk.stabilizer import run_riccati_feedback
from sctk.systems import hautus_stabilizability, make_system
from tests.conftest import random_system

GOLDEN = (1 + np.sqrt(5)) / 2


class TestSolve:
    def test_s2_golden_ratio(self, corpus):
        sol = solve_sare(corpus["S2"])
        assert sol.P[0, 0] == pytest.approx(GOLDEN, abs=1e-10)
        assert sol.F[0, 0] == pytest.approx(-GOLDEN, abs=1e-10)
        assert sol.residual < 1e-10

    def test_s1_unit_solution(self, corpus):
        sol = solve_sare(corpus["S1"])
        assert sol.P[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert sol.F[0, 0] == pytest.approx(-1.0, abs=1e-10)

    def test_s3_not_solvable(self, corpus):
        verdict = solve_sare(corpus["S3"])
        assert isinstance(verdict, NotSolvable)

    def test_solution_invariants(self, rng):
        done = 0
        while done < 6:
            sys_ = random_system(rng)
            sol = solve_sare(sys_)
            if isinstance(sol, NotSolvable):
                continue
            done += 1
            assert np.allclose(sol.P, sol.P.T, atol=1e-12)
            assert np.linalg.eigvalsh(sol.P)[0] > 0
            assert sol.residual < 1e-10
            F = feedback_gain(sol.P, sys_)
            assert np.allclose(F, sol.F, atol=1e-9)
            assert closed_loop_abscissa(sys_, sol.F) < 0

    def test_verdict_matches_hautus_when_noise_free(self, rng):
        for _ in range(8):
            sys_ = random_system(rng, noise=0.0, dnoise=0.0)
            hautus = hautus_stabilizability(sys_.A, sys_.B)
            solvable = not isinstance(solve_sare(sys_), NotSolvable)
            assert hautus == solvable


def _draw(seed, index, *bounds):
    rng = np.random.default_rng(seed)
    for _ in range(index):
        random_system(rng, *bounds)
    return random_system(rng, *bounds)


def _scalar_margin(sys_):
    """n = 1: min_F 2(a + bF) + sum (c_i + d_i F)^2, the best lift exponent.

    The system is stabilizable iff this is negative.  The objective is
    const + 2 g F + F^T H F with g = b + sum c_i d_i and H = sum d_i^T d_i;
    it is unbounded below when g leaves range(H), and otherwise its
    minimum is const + g F at F = -H^+ g.  The control columns are scaled
    to unit norm in [b; d_1; ...; d_d] first (F = S F~), so that the rank
    decision of lstsq does not depend on the units of a control.
    """
    g = sys_.B[0] + sum(Ci[0, 0] * Di[0] for Ci, Di in zip(sys_.C, sys_.D))
    H = sum(np.outer(Di[0], Di[0]) for Di in sys_.D)
    const = 2.0 * sys_.A[0, 0] + sum(Ci[0, 0] ** 2 for Ci in sys_.C)
    cols = np.linalg.norm(np.vstack([sys_.B[0], *(Di[0] for Di in sys_.D)]), axis=0)
    S = np.where(cols > 0, 1.0 / np.where(cols > 0, cols, 1.0), 1.0)
    g, H = S * g, S[:, None] * H * S[None, :]
    F = -np.linalg.lstsq(H, g, rcond=None)[0]
    if np.linalg.norm(H @ F + g) > 1e-9 * max(1.0, np.linalg.norm(g)):
        return -np.inf
    return float(const + g @ F)


def _h_form_value_iteration(sys_, steps):
    """P_{steps - 1} and P_steps of the Euler value iteration from P_0 = 0.

    H = VI_DT I + sum_r M_r^T P M_r over the step maps [x; u], and the
    next P is its Schur complement over u.
    """
    n = sys_.n
    maps = step_maps(sys_, VI_DT)
    running = VI_DT * np.eye(maps.shape[2])
    P = np.zeros((n, n))
    for _ in range(steps):
        prev = P
        H = running + (maps.transpose(0, 2, 1) @ P @ maps).sum(axis=0)
        P = H[:n, :n] - H[:n, n:] @ np.linalg.solve(H[n:, n:], H[n:, :n])
    return prev, P


class TestDeterministicSearch:
    @pytest.mark.parametrize(
        "seed, index, bounds, P11",
        [(7, 12, (), None), (7, 84, (), 91.42), (5, 23, (2, 2, 2), 487.90)],
    )
    def test_regression_draws_solve(self, seed, index, bounds, P11):
        sys_ = _draw(seed, index, *bounds)
        sol = solve_sare(sys_)
        assert not isinstance(sol, NotSolvable)
        assert np.linalg.norm(sol.P - sol.P.T) <= 1e-12 * np.linalg.norm(sol.P)
        assert np.linalg.eigvalsh(sol.P)[0] > 0
        assert sol.residual <= 1e-10 * max(1.0, np.linalg.norm(sol.P))
        assert closed_loop_abscissa(sys_, sol.F) < 0
        if P11 is not None:
            assert sol.P[0, 0] == pytest.approx(P11, abs=5e-3)

    def test_noise_free_verdict_is_hautus(self, corpus):
        assert find_stabilizing_gain(corpus["S3"]) is None
        assert solve_sare(corpus["S3"]).diagnostics == {"hautus": False}

    @pytest.mark.parametrize(
        "system",
        [
            # 2a + c^2 = 2.25 > 0 and no control
            lambda: make_system([[1.0]], [[0.0]], C=[[[0.5]]], D=[[[0.0]]]),
            lambda: _draw(7, 45),  # n = 2, proved on a rank-1 Q
            lambda: _draw(7, 22),  # n = m = d = 3
        ],
        ids=["scalar", "draw45", "draw22"],
    )
    def test_not_solvable_carries_a_growth_certificate(self, system):
        sys_ = system()
        diag = solve_sare(sys_).diagnostics
        assert diag["evidence"] == "certificate"
        assert diag["value_growth"] < 1e9
        assert diag["horizon"] == pytest.approx(0.01 * diag["value_iteration_steps"])
        Q = np.array(diag["certificate_Q"])
        rho = diag["certificate_growth"]
        assert rho > 1
        assert np.linalg.matrix_rank(Q) == diag["certificate_rank"]
        # R0(Q) = min_u sum_j |Q^(1/2) M_j [x; u]|^2 over the Euler maps
        # M_j, recomputed by least squares over the stacked control maps
        dt, n = 0.01, sys_.n
        lam, V = np.linalg.eigh(Q)
        S = np.sqrt(np.clip(lam, 0.0, None))[:, None] * V.T
        Gx = np.vstack([S @ (np.eye(n) + dt * sys_.A)]
                       + [np.sqrt(dt) * S @ Ci for Ci in sys_.C])
        Gu = np.vstack([dt * S @ sys_.B] + [np.sqrt(dt) * S @ Di for Di in sys_.D])
        res = Gx - Gu @ np.linalg.lstsq(Gu, Gx, rcond=None)[0]
        R0 = res.T @ res
        eps = 0.5 * (rho - 1)
        assert np.linalg.eigvalsh(R0 - (1 + eps) * Q)[0] >= -1e-12 * np.linalg.norm(R0)

    @pytest.mark.parametrize("index", [65, 128, 130])
    def test_cap_is_the_fallback_evidence(self, index):
        # on draws 65 and 130 the growth direction leaves R0(Q) - Q
        # singular, so no certificate is found before the value passes the cap
        sys_ = _draw(7, index)
        diag = solve_sare(sys_).diagnostics
        assert diag["evidence"] == "cap"
        assert diag["value_growth"] > VI_GROWTH_CAP
        steps = diag["value_iteration_steps"]
        assert diag["horizon"] == pytest.approx(VI_DT * steps)
        assert "certificate_Q" not in diag
        # the H form of the same Euler value iteration: the run stops at the
        # first iterate whose max |P_ij| passes the cap and reports it
        prev, P = _h_form_value_iteration(sys_, steps)
        assert np.abs(prev).max() <= VI_GROWTH_CAP
        assert diag["value_growth"] == pytest.approx(np.abs(P).max(), rel=1e-12)

    def test_stiff_system_whose_euler_step_is_not_stabilizable(self):
        # the value passes the cap near step 23, before the first periodic
        # gain test; the capped iterate's gain F ~ -11756 stabilizes the lift
        sys_ = make_system([[100.0]], [[1.0]], C=[[[17.56]]], D=[[[0.01]]])
        assert _scalar_margin(sys_) < 0
        sol = solve_sare(sys_)
        assert not isinstance(sol, NotSolvable)
        assert closed_loop_abscissa(sys_, sol.F) < 0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_scalar_verdict_matches_quadratic_criterion(self, seed):
        sys_ = random_system(np.random.default_rng(seed), 1, 3, 3)
        solvable = not isinstance(solve_sare(sys_), NotSolvable)
        assert solvable == (_scalar_margin(sys_) < 0)

    @pytest.mark.parametrize("seed", [655, 7342])
    def test_near_marginal_scalar_seeds_are_decided(self, seed):
        # margins 0.0051 and 0.0070: the value grows too slowly to pass the
        # cap within the step limit, but R0(1) > 1 proves that it grows
        sys_ = random_system(np.random.default_rng(seed), 1, 3, 3)
        margin = _scalar_margin(sys_)
        verdict = solve_sare(sys_)
        assert isinstance(verdict, NotSolvable) == (margin > 0)
        assert verdict.diagnostics["evidence"] == "certificate"

    @pytest.mark.parametrize("scale", [1e-9, 1e-10, 1e-12])
    def test_tiny_control_column_is_not_rank_cut(self, scale):
        # only column 1 is useful, at the given scale (column 2 just adds
        # noise): min_f 2(1 + f) + (0.5 + 0.98 f)^2 = -0.0616 < 0 with
        # u_1 = f x / scale, a rank cut that drops column 1 would overstate
        # R0(1) as 1.0226 > 1 and lose the only stabilizing gain
        sys_ = make_system(
            [[1.0]], [[scale, 0.0]],
            C=[[[0.5]], [[0.0]]], D=[[[0.98 * scale, 0.0]], [[0.0, 1.0]]],
        )
        # 2a + c^2 - (b + c d)^2 / d^2 in the units f = scale * F_1
        assert _scalar_margin(sys_) == pytest.approx(2.25 - 1.49**2 / 0.98**2, abs=1e-9)
        sol = solve_sare(sys_)
        assert not isinstance(sol, NotSolvable)
        assert closed_loop_abscissa(sys_, sol.F) < 0


class TestGainAndValue:
    def test_scalar_unit(self):
        sys_ = make_system([[0.0]], [[1.0]], C=[[[0.0]]], D=[[[0.0]]])
        assert feedback_gain([[1.0]], sys_)[0, 0] == pytest.approx(-1.0)

    def test_zero_input_matrix_zero_gain(self):
        sys_ = make_system([[1.0]], [[0.0]], C=[[[0.5]]], D=[[[0.0]]])
        assert feedback_gain([[2.0]], sys_)[0, 0] == pytest.approx(0.0)

    def test_singular_gain_matrix_is_numerical_failure(self):
        # I + D^T P D = 1 - 1 = 0
        sys_ = make_system([[0.0]], [[1.0]], C=[[[0.0]]], D=[[[1.0]]])
        with pytest.raises(NumericalFailure):
            feedback_gain([[-1.0]], sys_)

    def test_s2_gain(self, corpus):
        assert feedback_gain([[GOLDEN]], corpus["S2"])[0, 0] == pytest.approx(
            -GOLDEN, abs=1e-12
        )

    def test_lq_value(self):
        assert lq_value([[GOLDEN]], [1.0]) == pytest.approx(GOLDEN)
        assert lq_value([[GOLDEN]], [0.0]) == 0.0
        x = np.array([0.6, 0.8])
        assert lq_value(np.eye(2), x) == pytest.approx(1.0)


class TestResidualConventions:
    def test_standard_form_vanishes_at_solution(self, corpus):
        res = sare_residual(corpus["S2"], [[GOLDEN]])
        assert abs(res[0, 0]) < 1e-12


class TestOptimality:
    def test_perturbed_gains_cost_more(self, corpus, rng):
        # exact lift cost, no sampling: optimal gain beats random perturbations
        for name in ("S1", "S2"):
            sys_ = corpus[name]
            sol = solve_sare(sys_)
            x0 = np.ones(sys_.n)
            base = run_riccati_feedback(sys_, sol.F, x0)
            assert base.cost == pytest.approx(lq_value(sol.P, x0), rel=1e-8)
            for _ in range(5):
                dF = rng.standard_normal(sol.F.shape)
                dF *= 0.1 / np.linalg.norm(dF)
                pert = run_riccati_feedback(sys_, sol.F + dF, x0)
                if pert.diverged:
                    continue
                assert pert.cost >= base.cost - 1e-9

    def test_abscissa_certificate(self, corpus):
        sol = solve_sare(corpus["S2"])
        assert spectral_abscissa(build_generator(corpus["S2"], sol.F)) < 0
