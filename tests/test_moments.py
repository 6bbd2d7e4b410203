import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sctk.errors import InvalidConfig, NumericalFailure
from sctk.moments import (
    build_generator,
    closed_loop,
    growth_constant_c0,
    kron_sum,
    lift,
    lift_spectrum,
    propagate_second_moment,
    spectral_abscissa,
)
from sctk.systems import make_system
from tests.conftest import examples

floats = st.floats(-2.0, 2.0, allow_nan=False)


def scalar_system(a, b, c, e):
    return make_system([[a]], [[b]], C=[[[c]]], D=[[[e]]])


class TestGenerator:
    @settings(max_examples=examples(40))
    @given(floats, floats, floats, floats, floats)
    def test_scalar_lift_formula(self, a, b, c, e, f):
        # hand expansion: X -> 2(a + b f) X + (c + e f)^2 X
        L = build_generator(scalar_system(a, b, c, e), [[f]])
        expected = 2 * (a + b * f) + (c + e * f) ** 2
        assert L[0, 0] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_zero_system_zero_generator(self):
        L = build_generator(scalar_system(0, 1, 0, 0), None)
        assert not L.any()

    def test_s2_closed_loop_value(self, corpus):
        # golden-ratio gain: 2(0 - phi) + 1 = -sqrt(5)
        phi = (1 + np.sqrt(5)) / 2
        L = build_generator(corpus["S2"], [[-phi]])
        assert L[0, 0] == pytest.approx(-np.sqrt(5), abs=1e-12)

    def test_lift_preserves_symmetry(self, rng):
        # and L Y.ravel() = (A_cl Y + Y A_cl^T + sum_i C_cl,i Y C_cl,i^T).ravel() for
        # a non-symmetric Y, which pins every entry of L, not only at n = 1
        for n in (2, 3):
            sys_ = make_system(
                rng.standard_normal((n, n)),
                rng.standard_normal((n, 2)),
                C=[rng.standard_normal((n, n)) for _ in range(2)],
                D=[rng.standard_normal((n, 2)) for _ in range(2)],
            )
            F = rng.standard_normal((2, n))
            L = build_generator(sys_, F)
            X = rng.standard_normal((n, n))
            X = X + X.T
            LX = (L @ X.ravel()).reshape(n, n)
            assert np.allclose(LX, LX.T, atol=1e-12)
            Y = rng.standard_normal((n, n))
            Acl = sys_.A + sys_.B @ F
            want = Acl @ Y + Y @ Acl.T
            for Ci, Di in zip(sys_.C, sys_.D):
                want += (Ci + Di @ F) @ Y @ (Ci + Di @ F).T
            assert np.allclose(L @ Y.ravel(), want.ravel(), rtol=1e-12, atol=1e-12)

    def test_lift_is_bit_identical_to_the_kron_formula(self, rng):
        for n in (1, 2, 3):
            for d in (1, 2, 3):
                m = int(rng.integers(1, 4))
                sys_ = make_system(
                    rng.standard_normal((n, n)),
                    rng.standard_normal((n, m)),
                    C=[rng.standard_normal((n, n)) for _ in range(d)],
                    D=[rng.standard_normal((n, m)) for _ in range(d)],
                )
                for F in (None, rng.standard_normal((m, n))):
                    cl = closed_loop(sys_.maps, np.zeros((m, n)) if F is None else F)
                    I = np.eye(n)
                    want = kron_sum(cl[1:], np.kron(I, cl[0]) + np.kron(cl[0], I))
                    assert build_generator(sys_, F).tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_lift_is_the_kron_sum_bit_for_bit(self, rng, d):
        # a plain np.kron reference, added to 0 in the documented order;
        # half the stacks have zero entries, whose products carry a sign
        # that 0.0 + (-0.0) drops
        for trial in range(40):
            n, m = (int(k) for k in rng.integers(1, 4, size=2))
            maps = rng.standard_normal((1 + d, n, n + m))
            if trial % 2:
                maps[rng.random(maps.shape) < 0.5] = 0.0
            F = rng.standard_normal((m, n)) if trial % 4 < 2 else np.zeros((m, n))
            cl = maps[:, :, :n] + maps[:, :, n:] @ F
            want = np.zeros((n * n, n * n))
            for term in [np.kron(np.eye(n), cl[0]), np.kron(cl[0], np.eye(n))]:
                want += term
            for M in cl[1:]:
                want += np.kron(M, M)
            assert lift(maps, F).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_stack_reaches_the_spectrum_check(self, rng, bad):
        maps = rng.standard_normal((2, 2, 3))
        maps[1, 0, 1] = bad
        with pytest.raises(NumericalFailure, match="not finite"):
            lift_spectrum(lift(maps, rng.standard_normal((1, 2))))


class TestAbscissa:
    def test_scalar_values(self):
        L = build_generator(scalar_system(-1, 0, 0, 0), None)
        assert spectral_abscissa(L) == pytest.approx(-2.0, abs=1e-12)
        L0 = build_generator(scalar_system(0, 0, 0, 0), None)
        assert spectral_abscissa(L0) == pytest.approx(0.0, abs=1e-12)

    def test_s2_closed_loop(self, corpus):
        phi = (1 + np.sqrt(5)) / 2
        L = build_generator(corpus["S2"], [[-phi]])
        assert spectral_abscissa(L) == pytest.approx(-np.sqrt(5), abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_lift_is_numerical_failure(self, bad):
        L = np.eye(4)
        L[1, 2] = bad
        with pytest.raises(NumericalFailure):
            spectral_abscissa(L)


class TestPropagation:
    def test_time_zero_is_identity(self, rng):
        sys_ = make_system(
            rng.standard_normal((2, 2)),
            rng.standard_normal((2, 1)),
            C=[rng.standard_normal((2, 2))],
        )
        L = build_generator(sys_)
        X0 = rng.standard_normal((2, 2))
        X0 = X0 @ X0.T
        assert np.allclose(propagate_second_moment(L, X0, 0.0), X0, atol=1e-12)

    def test_scalar_exponential_decay(self):
        L = build_generator(scalar_system(-1, 0, 0, 0), None)  # L = -2
        Xt = propagate_second_moment(L, [[1.0]], 1.0)
        assert Xt[0, 0] == pytest.approx(np.exp(-2.0), rel=1e-12)

    def test_shape_mismatch_is_invalid_config(self):
        L = build_generator(scalar_system(-1, 0, 0, 0), None)
        with pytest.raises(InvalidConfig):
            propagate_second_moment(L, np.eye(2), 1.0)
        with pytest.raises(InvalidConfig):
            propagate_second_moment(L, [[1.0, 0.0]], 1.0)

    def test_zero_generator_freezes_state(self, rng):
        L = build_generator(scalar_system(0, 0, 0, 0), None)
        X0 = np.array([[1.7]])
        assert propagate_second_moment(L, X0, 5.0)[0, 0] == pytest.approx(1.7)

    def test_decay_rate_matches_abscissa(self, corpus):
        # slope of log trace X(t) settles at the spectral abscissa
        phi = (1 + np.sqrt(5)) / 2
        L = build_generator(corpus["S2"], [[-phi]])
        alpha = spectral_abscissa(L)
        ts = np.linspace(0.0, 20.0, 41)
        traces = [
            np.trace(propagate_second_moment(L, [[1.0]], t)) for t in ts
        ]
        slope = np.polyfit(ts, np.log(traces), 1)[0]
        assert slope == pytest.approx(alpha, rel=0.05)


class TestGrowthConstant:
    def test_driftless_noiseless_is_one(self):
        sys_ = scalar_system(0, 1, 0, 0)
        assert growth_constant_c0(sys_, 3.0) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=examples(25))
    @given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(0.1, 2.0))
    def test_scalar_formula(self, a, c, tau):
        got = growth_constant_c0(scalar_system(a, 0, c, 0), tau)
        assert got == pytest.approx(np.exp((2 * a + c * c) * tau), rel=1e-10)

    def test_unit_noise_unit_time_gives_e(self, corpus):
        assert growth_constant_c0(corpus["S2"], 1.0) == pytest.approx(
            np.e, abs=1e-10
        )

    def test_adjoint_state_under_a_gain(self, corpus, rng):
        # the lift certificate's terminal energy is lambda_max(W_T), W_T the
        # adjoint flow from I under F: trace(W_T X0) = trace X(T) on the
        # closed-loop lift; at the zero gain it is c0(T) bit for bit
        from sctk.riccati import solve_sare
        from sctk.stabilizer import lift_certificate

        sys_ = corpus["S4"]
        F = solve_sare(sys_).F + 0.05 * rng.standard_normal((1, 2))
        cert = lift_certificate(sys_, F, 0.5)
        L = build_generator(sys_, F)
        basis = [np.outer(a, b) for a in np.eye(2) for b in np.eye(2)]
        W_T = np.reshape([np.trace(propagate_second_moment(L, 0.5 * (E + E.T), cert["T"]))
                          for E in basis], (2, 2))
        assert cert["terminal"] == pytest.approx(np.linalg.eigvalsh(W_T)[-1], rel=1e-12)
        stable = make_system([[-1.0]], [[1.0]], C=[[[0.5]]])
        cert = lift_certificate(stable, np.zeros((1, 1)), 0.5)
        assert cert["terminal"] == growth_constant_c0(stable, cert["T"])
        assert cert["control"] == 0.0

    def test_tightness(self, rng):
        from sctk.moments import adjoint_state

        sys_ = make_system(
            0.5 * rng.standard_normal((3, 3)),
            rng.standard_normal((3, 1)),
            C=[0.5 * rng.standard_normal((3, 3))],
        )
        tau = 0.7
        c0 = growth_constant_c0(sys_, tau)
        L = build_generator(sys_)
        for _ in range(20):
            x0 = rng.standard_normal(3)
            x0 /= np.linalg.norm(x0)
            tr = np.trace(propagate_second_moment(L, np.outer(x0, x0), tau))
            assert tr <= c0 + 1e-9
        S = adjoint_state(sys_, tau)
        w, V = np.linalg.eigh(S)
        top = V[:, -1]
        tr_top = np.trace(propagate_second_moment(L, np.outer(top, top), tau))
        assert tr_top == pytest.approx(c0, abs=1e-6)
