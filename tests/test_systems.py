import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sctk.observability import step_maps
from sctk.riccati import NotSolvable, solve_sare
from sctk.systems import (
    HorizonConfig,
    StochasticSystem,
    hautus_stabilizability,
    make_system,
    validate_system,
)
from tests.conftest import examples


class TestValidate:
    def test_consistent_scalar_system_is_valid(self):
        sys_ = make_system([[0.0]], [[1.0]], C=[[[0.0]]], D=[[[0.0]]])
        assert validate_system(sys_) == []

    def test_shape_mismatch_is_reported(self):
        sys_ = StochasticSystem(n=2, m=1, d=0, A=[[1.0]], B=[[1.0], [0.0]])
        violations = validate_system(sys_)
        assert any("A shape" in v for v in violations)

    def test_non_finite_entries_are_reported(self):
        sys_ = StochasticSystem(n=1, m=1, d=0, A=[[np.nan]], B=[[1.0]])
        violations = validate_system(sys_)
        assert any("non-finite" in v for v in violations)


class TestCoefficientStack:
    def test_maps_lay_out_the_coefficients(self, corpus):
        sys_ = corpus["S4"]
        maps = sys_.maps
        assert maps.shape == (2, 2, 3)
        assert np.array_equal(maps[0], np.hstack([sys_.A, sys_.B]))
        assert np.array_equal(maps[1], np.hstack([sys_.C[0], sys_.D[0]]))
        assert make_system([[1.0]], [[2.0]]).maps.tolist() == [[[1.0, 2.0]]]

    def test_each_access_is_a_fresh_array(self, corpus):
        sys_ = corpus["S2"]
        sys_.maps[:] = 7.0
        step_maps(sys_, 0.1, 0.5, 2.0)
        assert np.array_equal(sys_.maps, [[[0.0, 1.0]], [[1.0, 0.0]]])


class TestHorizon:
    def test_delta_t_times_K_recovers_T(self):
        hz = HorizonConfig(T=1.7, K=13)
        assert hz.delta_t * hz.K == pytest.approx(1.7, abs=1e-15)

    def test_bad_horizon_rejected(self):
        with pytest.raises(Exception):
            HorizonConfig(T=-1.0, K=4)
        with pytest.raises(Exception):
            HorizonConfig(T=1.0, K=0)


class TestHautus:
    def test_double_integrator_is_stabilizable(self):
        # rank of [lam I - A | B] at lam = 0 is 2 by hand
        assert hautus_stabilizability([[0, 1], [0, 0]], [[0], [1]])

    def test_unstable_mode_without_control(self):
        # at lam = 1 the test matrix [0 | 0] has rank 0
        assert not hautus_stabilizability([[1.0]], [[0.0]])

    def test_stable_mode_needs_no_control(self):
        assert hautus_stabilizability([[-1.0]], [[0.0]])

    @settings(max_examples=examples(25))
    @given(st.integers(0, 10_000))
    def test_similarity_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        # well-conditioned S: singular values in [0.5, 2]
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        V, _ = np.linalg.qr(rng.standard_normal((n, n)))
        S = U @ np.diag(rng.uniform(0.5, 2.0, n)) @ V
        cond = np.linalg.cond(S)
        assert cond < 10
        base = hautus_stabilizability(A, B)
        transformed = hautus_stabilizability(
            S @ A @ np.linalg.inv(S), S @ B, tol=1e-9 * cond
        )
        assert base == transformed

    def test_agrees_with_riccati_on_deterministic_corpus(self, corpus):
        for name in ("S1", "S3"):
            sys_ = corpus[name]
            expected = hautus_stabilizability(sys_.A, sys_.B)
            solvable = not isinstance(solve_sare(sys_), NotSolvable)
            assert expected == solvable, name
        det_s4 = corpus["S4"].with_zero_noise()
        assert hautus_stabilizability(det_s4.A, det_s4.B)
        assert not isinstance(solve_sare(det_s4), NotSolvable)
