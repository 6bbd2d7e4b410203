import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import schur, solve_continuous_are
from scipy.linalg.lapack import dgesv
from scipy.optimize import minimize

from sctk import riccati
from sctk.errors import NumericalFailure
from sctk.moments import build_generator, spectral_abscissa
from sctk.riccati import (
    GAIN_MARGIN,
    NotSolvable,
    _lqr_gain,
    closed_loop_abscissa,
    feedback_gain,
    find_stabilizing_gain,
    lq_value,
    sare_residual,
    solve_sare,
)
from sctk.stabilizer import run_riccati_feedback
from sctk.systems import hautus_stabilizability, make_system
from tests.conftest import examples, random_system, stiff_family

GOLDEN = (1 + np.sqrt(5)) / 2
SARE_PINS = Path(__file__).with_name("sare_pins.json")


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


def _h_blocks(sys_, Q):
    """(H_xx, H_xu, H_uu) of d/dt E x^T Q x = E [x; u]^T H(Q) [x; u]."""
    Hxx = sys_.A.T @ Q + Q @ sys_.A
    Hxu = Q @ sys_.B
    Huu = np.zeros((sys_.m, sys_.m))
    for Ci, Di in zip(sys_.C, sys_.D):
        Hxx = Hxx + Ci.T @ Q @ Ci
        Hxu = Hxu + Ci.T @ Q @ Di
        Huu = Huu + Di.T @ Q @ Di
    return Hxx, Hxu, Huu


def _riccati_rhs(sys_):
    """dP/dt = H_xx(P) + I - H_xu(P) (I + H_uu(P))^{-1} H_xu(P)^T, on vec P."""
    n = sys_.n

    def rhs(t, p):
        Hxx, Hxu, Huu = _h_blocks(sys_, p.reshape(n, n))
        return (Hxx + np.eye(n) - Hxu @ np.linalg.solve(np.eye(sys_.m) + Huu, Hxu.T)).ravel()

    return rhs


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
    def test_not_solvable_carries_an_h_form_certificate(self, system):
        sys_ = system()
        diag = solve_sare(sys_).diagnostics
        assert diag["evidence"] == "certificate"
        assert diag["shift"] >= 0 and diag["value_growth"] > 0
        assert 0 < diag["certificate_margin"] <= 1
        Q = np.array(diag["certificate_Q"])
        assert np.array_equal(Q, Q.T) and np.abs(Q).max() == 1
        # min over u of [x; u]^T H(Q) [x; u] >= 0 for every x: H_xu^T lies
        # in range(H_uu), and the Schur complement over u is >= 0
        Hxx, Hxu, Huu = _h_blocks(sys_, Q)
        G = np.linalg.lstsq(Huu, Hxu.T, rcond=None)[0]
        scale = max(np.abs(Hxx).max(), np.abs(Hxu).max(), np.abs(Huu).max())
        assert np.abs(Huu @ G - Hxu.T).max() <= 1e-12 * scale
        assert np.linalg.eigvalsh(Hxx - Hxu @ G)[0] >= 0

    @pytest.mark.parametrize("index, beta", [(65, 0.058), (128, 2.17), (130, 1.06)])
    def test_cap_is_the_fallback_evidence(self, index, beta):
        # H(Q) is singular to rounding on these draws' growth direction, so
        # the continuation stalls without a certificate, at a shift that is
        # half the least lift abscissa any gain reaches: a derivative-free
        # minimisation of that abscissa over F, from the zero and the LQR
        # gain, reads the same shift, which the probe put at beta
        sys_ = _draw(7, index)
        diag = solve_sare(sys_).diagnostics
        assert diag["evidence"] == "cap"
        assert not {"certificate_margin", "certificate_Q"} & diag.keys()
        assert diag["shift"] == pytest.approx(beta, rel=0.01)
        shape = (sys_.m, sys_.n)
        least = min(
            minimize(lambda f: closed_loop_abscissa(sys_, f.reshape(shape)), F0.ravel(),
                     method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12}).fun
            for F0 in (np.zeros(shape), _lqr_gain(sys_.A, sys_.B))
        )
        assert diag["shift"] == pytest.approx(least / 2, rel=1e-6)

    def test_stiff_system_whose_euler_step_is_not_stabilizable(self):
        # the Euler value at dt = 0.01 passes a 1e9 cap near step 23, but
        # the SARE solution P = 381.9 has the gain F = -432.4, which
        # stabilizes the lift
        sys_ = make_system([[100.0]], [[1.0]], C=[[[17.56]]], D=[[[0.01]]])
        assert _scalar_margin(sys_) < 0
        sol = solve_sare(sys_)
        assert not isinstance(sol, NotSolvable)
        assert closed_loop_abscissa(sys_, sol.F) < 0

    @pytest.mark.parametrize(
        "A",
        [np.diag([-a, 1.0]) for a in (250.0, 2500.0, 1e4)]
        + [np.diag([-2500.0, -lam, 1.0]) for lam in (150.0, 300.0)],
        ids=["a250", "a2500", "a1e4", "lam150", "lam300"],
    )
    def test_stiff_stabilizable_systems_solve(self, A):
        # the Euler value at dt = 0.01 grows on these (the stiff mode's
        # step 1 - a dt has modulus above 1), but the gain F = [0, ..., -4]
        # gives lift abscissa 2 (1 - 4) + 2^2 = -2
        n = len(A)
        B, C1 = np.eye(n)[:, -1:], np.diag(np.eye(n)[-1] * 2.0)
        sys_ = make_system(A, B, C=[C1], D=[np.zeros((n, 1))])
        assert closed_loop_abscissa(sys_, -4.0 * B.T) == pytest.approx(-2.0)
        sol = solve_sare(sys_)
        assert not isinstance(sol, NotSolvable)
        assert sol.abscissa < -GAIN_MARGIN

    @settings(max_examples=examples(50))
    @given(st.integers(0, 10_000))
    def test_scalar_verdict_matches_quadratic_criterion(self, seed):
        sys_ = random_system(np.random.default_rng(seed), 1, 3, 3)
        solvable = not isinstance(solve_sare(sys_), NotSolvable)
        assert solvable == (_scalar_margin(sys_) < 0)

    def test_lift_with_zero_spectrum_gets_a_verdict(self):
        # A = B = C = 0, D = 1: every gain F has lift abscissa F^2 >= 0, and
        # the zero-gain lift is 0, so its spectrum gives no first shift
        sys_ = make_system([[0.0]], [[0.0]], C=[[[0.0]]], D=[[[1.0]]])
        verdict = solve_sare(sys_)
        assert isinstance(verdict, NotSolvable)
        assert verdict.diagnostics["evidence"] == "cap"
        assert 0 <= verdict.diagnostics["shift"] < 1e-8

    @pytest.mark.parametrize("seed", [655, 7342])
    def test_near_marginal_scalar_seeds_are_decided(self, seed):
        # margins 0.0051 and 0.0070, close to marginal: H(1) >= 0 proves
        # that no control makes E x^2 decay
        sys_ = random_system(np.random.default_rng(seed), 1, 3, 3)
        margin = _scalar_margin(sys_)
        verdict = solve_sare(sys_)
        assert isinstance(verdict, NotSolvable) == (margin > 0)
        assert verdict.diagnostics["evidence"] == "certificate"

    @pytest.mark.parametrize("scale", [1e-9, 1e-10, 1e-12])
    def test_tiny_control_column_is_not_rank_cut(self, scale):
        # only column 1 is useful, at the given scale (column 2 just adds
        # noise): min_f 2(1 + f) + (0.5 + 0.98 f)^2 = -0.0616 < 0 with
        # u_1 = f x / scale; neither the zero nor the LQR gain stabilizes,
        # and a rank cut that drops column 1 from H(Q) would lose the only
        # stabilizing gain
        sys_ = make_system(
            [[1.0]], [[scale, 0.0]],
            C=[[[0.5]], [[0.0]]], D=[[[0.98 * scale, 0.0]], [[0.0, 1.0]]],
        )
        # 2a + c^2 - (b + c d)^2 / d^2 in the units f = scale * F_1
        assert _scalar_margin(sys_) == pytest.approx(2.25 - 1.49**2 / 0.98**2, abs=1e-9)
        sol = solve_sare(sys_)
        assert not isinstance(sol, NotSolvable)
        assert closed_loop_abscissa(sys_, sol.F) < 0

    def test_gain_search_leaves_scipy_integrate_unloaded(self):
        # a NotSolvable draw runs the whole continuation; an ODE solver in
        # the search would load scipy.integrate, whose LSODA kept memory
        # per solve
        sys_ = _draw(7, 45)
        mats = json.dumps({"A": sys_.A.tolist(), "B": sys_.B.tolist(),
                           "C": [c.tolist() for c in sys_.C],
                           "D": [d.tolist() for d in sys_.D]})
        code = (
            "import json, sys\n"
            "from sctk.riccati import NotSolvable, solve_sare\n"
            "from sctk.systems import make_system\n"
            f"m = json.loads({mats!r})\n"
            "verdict = solve_sare(make_system(m['A'], m['B'], C=m['C'], D=m['D']))\n"
            "print(json.dumps([verdict.diagnostics.get('evidence'),"
            " 'scipy.integrate' in sys.modules]))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert json.loads(out.stdout) == ["certificate", False]


def _time_unit(sys_, eps):
    """(eps A, eps B, sqrt(eps) C, sqrt(eps) D): the same system with time
    measured in units of 1 / eps, so the same verdict."""
    r = np.sqrt(eps)
    return make_system(eps * sys_.A, eps * sys_.B, C=[r * c for c in sys_.C],
                       D=[r * d for d in sys_.D])


def _input_scale(sys_, r):
    """(B, D) -> (r B, r D): the control measured in units of 1 / r."""
    return make_system(sys_.A, r * sys_.B, C=list(sys_.C), D=[r * d for d in sys_.D])


class TestUnitInvariance:
    @pytest.mark.parametrize(
        "index, transform, value",
        [(i, _time_unit, 1e-3) for i in (0, 3, 22)]
        + [(i, _time_unit, 1e3) for i in (12, 137)]
        + [(i, _input_scale, 1e-4) for i in (12, 24, 102, 137)],
    )
    def test_verdict_and_evidence_do_not_depend_on_units(self, index, transform, value):
        # each map changes no verdict in exact arithmetic; an absolute
        # horizon or cap in the gain search once turned these draws into
        # NumericalFailure or a wrong "cap", and a Newton stop against
        # max(1, |P|) stalled 12 and 137 at time unit 1e3
        sys_ = _draw(7, index)
        base, moved = solve_sare(sys_), solve_sare(transform(sys_, value))
        assert isinstance(moved, NotSolvable) == isinstance(base, NotSolvable)
        if isinstance(base, NotSolvable):
            assert moved.diagnostics["evidence"] == base.diagnostics["evidence"]
        else:
            assert moved.abscissa < -GAIN_MARGIN

    @pytest.mark.parametrize("eps", [1e-2, 3e-3, 1e-3, 1e-4, 1e-6])
    def test_slow_jordan_block_solves(self, eps):
        # A = [[-eps, 1], [0, -eps]], B = 0: A^T P + P A cancels to -I
        # against terms of size |P| ~ 1 / (4 eps^3), and a stop relative to
        # |H(P) + I| alone stalled Newton at eps <= 3e-3; the Lyapunov
        # solution has p11 = 1 / (2 eps), p12 = p11 / (2 eps) and
        # p22 = (1 + 2 p12) / (2 eps)
        sys_ = make_system([[-eps, 1.0], [0.0, -eps]], [[0.0], [0.0]],
                           C=[np.zeros((2, 2))], D=[np.zeros((2, 1))])
        sol = solve_sare(sys_)
        assert not isinstance(sol, NotSolvable)
        p11 = 1.0 / (2.0 * eps)
        p12 = p11 / (2.0 * eps)
        want = np.array([[p11, p12], [p12, (1.0 + 2.0 * p12) / (2.0 * eps)]])
        assert np.allclose(sol.P, want, rtol=1e-9, atol=0.0)
        assert sol.iterations == 1 and not sol.F.any()

    def test_newton_stop_does_not_grow_with_the_control_unit(self):
        # a stop relative to |P| (2 |[A, B]| + sum |[C_i, D_i]|^2) grows with
        # r^2 when (B, D) -> (r B, r D): at r = 1e3 it ended this draw one
        # step early at |R| = 2.4e-6; A and C alone leave it at 5e-13
        sol = solve_sare(_input_scale(_draw(7, 29), 1e3))
        assert sol.residual <= 1e-9 * max(1.0, np.linalg.norm(sol.P))

    def test_slow_stable_system_keeps_the_zero_gain(self):
        # abscissa -2e-10 with B = D = 0: an absolute margin of 1e-9 rejected
        # the zero gain, and the Hautus band then counted the mode critical
        sol = solve_sare(make_system([[-1e-10]], [[0.0]], C=[[[0.0]]], D=[[[0.0]]]))
        assert not isinstance(sol, NotSolvable)
        assert sol.iterations == 1 and sol.abscissa == pytest.approx(-2e-10, rel=1e-12)
        assert sol.P[0, 0] == pytest.approx(5e9, rel=1e-12)

    @pytest.mark.parametrize("name", ["S2", "S4"])
    def test_corpus_in_a_slow_time_unit_solves(self, corpus, name):
        # at time unit 1e-10 the SARE gain's abscissa (-2.2e-10 on S2) never
        # cleared an absolute margin of 1e-9, and the continuation ran to its
        # step bound; the margin is now relative to the zero-gain lift's rate
        base = solve_sare(corpus[name])
        sol = solve_sare(_time_unit(corpus[name], 1e-10))
        assert not isinstance(sol, NotSolvable)
        assert sol.abscissa == pytest.approx(1e-10 * base.abscissa, rel=1e-6)
        assert np.allclose(sol.P, 1e10 * base.P, rtol=1e-6)


class TestLQRCandidate:
    def test_gain_matches_scipy_care(self, corpus):
        # solve_continuous_are is the oracle here only; every system of the
        # corpus, the draws and the stiff family has a stabilizing LQR gain
        rng = np.random.default_rng(7)
        systems = [corpus[k] for k in ("S1", "S2", "S4", "M0")]
        systems += [random_system(rng) for _ in range(140)] + stiff_family()
        for sys_ in systems:
            P = solve_continuous_are(sys_.A, sys_.B, np.eye(sys_.n), np.eye(sys_.m))
            want = -sys_.B.T @ P
            F = _lqr_gain(sys_.A, sys_.B)
            assert F is not None
            assert np.abs(F - want).max() <= 1e-9 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize(
        "A, B",
        [
            ([[1.0]], [[0.0]]),
            ([[1.0, 0.0], [0.0, -1.0]], [[0.0], [1.0]]),
            ([[0.5, 0.0, 0.0], [0.0, 0.2, 1.0], [0.0, -1.0, 0.2]], [[0.0], [1.0], [0.0]]),
        ],
        ids=["scalar", "diag", "rotation"],
    )
    def test_unstable_uncontrollable_mode_has_no_gain(self, A, B):
        A, B = np.array(A), np.array(B)
        with pytest.raises(np.linalg.LinAlgError):
            solve_continuous_are(A, B, np.eye(len(A)), np.eye(B.shape[1]))
        assert _lqr_gain(A, B) is None

    def test_dgees_route_is_the_schur_route_bit_for_bit(self, corpus):
        def by_schur(A, B):
            n = len(A)
            H = np.block([[A, -B @ B.T], [-np.eye(n), -A.T]])
            try:
                _, U, stable = schur(H, sort="lhp")
            except np.linalg.LinAlgError:
                return None
            if stable != n:
                return None
            _, _, Pt, info = dgesv(U[:n, :n].T, U[n:, :n].T)
            return None if info else -B.T @ (0.5 * (Pt + Pt.T))

        rng = np.random.default_rng(2701)
        pairs = [(corpus[k].A, corpus[k].B) for k in ("S1", "S2", "S3", "S4", "M0")]
        pairs += [(s.A, s.B) for s in stiff_family()]
        pairs += [(s.A, s.B) for s in (random_system(rng, 4, 3, 1) for _ in range(200))]
        # a zero input column, and B = 0 under a stable and an unstable A
        pairs += [(A, B * [1.0, 0.0]) for A, B in pairs[-20:] if B.shape[1] == 2]
        pairs += [(-np.eye(2), np.zeros((2, 1))), (np.eye(2), np.zeros((2, 1)))]
        nones = 0
        for A, B in pairs:
            want, got = by_schur(A, B), _lqr_gain(A, B)
            if want is None:
                nones += 1
                assert got is None
            else:
                assert got.tobytes() == want.tobytes()
        assert nones >= 2

    def test_no_stable_subspace_gives_no_gain(self):
        # B = 0 makes the Hamiltonian block triangular, with spectrum
        # spec(A) and -spec(A): at A = 0 it has no stable eigenvalue; at
        # A = diag(1, -2) its stable subspace is n-dimensional, but U_11
        # is singular, since the unstable mode of A is not in it
        assert _lqr_gain(np.zeros((1, 1)), np.zeros((1, 1))) is None
        assert _lqr_gain(np.diag([1.0, -2.0]), np.zeros((2, 1))) is None
        F = _lqr_gain(np.diag([-1.0, -2.0]), np.zeros((2, 1)))
        assert F.shape == (1, 2) and not F.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_rejected(self, bad):
        with pytest.raises(ValueError, match="infs or NaNs"):
            _lqr_gain(np.array([[bad]]), np.array([[1.0]]))

    def test_only_computed_when_the_zero_gain_fails(self, corpus, monkeypatch):
        calls = []

        def counted(A, B):
            calls.append(1)
            return _lqr_gain(A, B)

        monkeypatch.setattr(riccati, "_lqr_gain", counted)
        stable = make_system([[-1.0]], [[1.0]], C=[[[0.5]]], D=[[[0.0]]])
        F, alpha, L = find_stabilizing_gain(stable)
        assert not F.any() and alpha == pytest.approx(-1.75)
        assert np.array_equal(L, build_generator(stable, F))  # Newton's first lift
        assert not isinstance(solve_sare(stable), NotSolvable)
        assert calls == []
        assert find_stabilizing_gain(corpus["S2"]) is not None
        assert calls == [1]


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

    def test_non_finite_lyapunov_solve_is_numerical_failure(self, corpus):
        sys_ = corpus["S2"]
        with pytest.raises(NumericalFailure):
            riccati._lyapunov_solve(sys_, np.full((sys_.m, sys_.n), np.nan))

    def test_s2_gain(self, corpus):
        assert feedback_gain([[GOLDEN]], corpus["S2"])[0, 0] == pytest.approx(
            -GOLDEN, abs=1e-12
        )

    def test_lq_value(self):
        assert lq_value([[GOLDEN]], [1.0]) == pytest.approx(GOLDEN)
        assert lq_value([[GOLDEN]], [0.0]) == 0.0
        x = np.array([0.6, 0.8])
        assert lq_value(np.eye(2), x) == pytest.approx(1.0)


class TestPinnedBits:
    def test_stream_solutions_are_pinned_bits(self):
        # float.hex of every output on the first 140 draws of the stream,
        # which hold the 40 systems of perfbench's riccati-draws: P, F,
        # residual, abscissa and the Newton count of each solution, and the
        # evidence and shift of each NotSolvable verdict
        def hexes(a):
            return [[float.hex(float(x)) for x in row] for row in a]

        rng = np.random.default_rng(7)
        moved = []
        for pin in json.loads(SARE_PINS.read_text()):
            sol = solve_sare(random_system(rng))
            if isinstance(sol, NotSolvable):
                got = {"evidence": sol.diagnostics["evidence"],
                       "shift": float.hex(sol.diagnostics["shift"])}
            else:
                got = {"P": hexes(sol.P), "F": hexes(sol.F),
                       "residual": float.hex(sol.residual),
                       "abscissa": float.hex(sol.abscissa), "iterations": sol.iterations}
            if {"draw": pin["draw"], **got} != pin:
                moved.append(pin["draw"])
        assert moved == []


class TestDirectLapack:
    def test_frobenius_is_numpys_bit_for_bit(self, rng):
        for shape in ((1, 1), (2, 2), (3, 5), (9, 9)):
            X = rng.standard_normal(shape)
            assert riccati._frobenius(X) == float(np.linalg.norm(X))


class TestResidualConventions:
    def test_standard_form_vanishes_at_solution(self, corpus):
        res = sare_residual(corpus["S2"], [[GOLDEN]])
        assert abs(res[0, 0]) < 1e-12

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_residual_and_gain_match_the_h_blocks(self, rng, d):
        # the H-form oracle above, at random symmetric P; d = 0 has a
        # coefficient stack of [A, B] alone
        for _ in range(5):
            n, m = (int(k) for k in rng.integers(1, 4, size=2))
            sys_ = make_system(
                rng.standard_normal((n, n)), rng.standard_normal((n, m)),
                C=[rng.standard_normal((n, n)) for _ in range(d)] or None,
                D=[rng.standard_normal((n, m)) for _ in range(d)] or None,
            )
            assert sys_.d == d and sys_.maps.shape == (1 + d, n, n + m)
            P = rng.standard_normal((n, n))
            P = P + P.T
            Hxx, Hxu, Huu = _h_blocks(sys_, P)
            G = np.eye(m) + Huu
            want_F = -np.linalg.solve(G, Hxu.T)
            want_R = _riccati_rhs(sys_)(0.0, P.ravel()).reshape(n, n)
            scale = max(np.abs(Hxx).max(), np.abs(Hxu).max(), np.abs(G).max())
            assert np.allclose(feedback_gain(P, sys_), want_F, rtol=1e-9, atol=1e-12)
            assert np.abs(sare_residual(sys_, P) - want_R).max() <= 1e-9 * scale * max(
                1.0, np.abs(want_F).max() ** 2
            )


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
