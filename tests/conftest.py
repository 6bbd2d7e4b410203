import math

import numpy as np
import pytest

from sctk.corpus import m0, s1, s2, s3, s4
from sctk.systems import make_system
from sctk.trees import simulate_forward, solve_bsde


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def corpus():
    return {"S1": s1(), "S2": s2(), "S3": s3(), "S4": s4(), "M0": m0()}


def random_system(rng, n_max=3, m_max=3, d_max=3, drift=0.8, noise=0.4, dnoise=0.3):
    """Random small system with moderate noise loadings."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    d = int(rng.integers(1, d_max + 1))
    return make_system(
        drift * rng.standard_normal((n, n)),
        rng.standard_normal((n, m)),
        C=[noise * rng.standard_normal((n, n)) for _ in range(d)],
        D=[dnoise * rng.standard_normal((n, m)) for _ in range(d)],
    )


def dense_copt_oracle(M0, Q, N_diag, delta, rank_rtol=1e-10):
    """Definitional oracle: bisection on PSD feasibility of c Q + delta N - M0.

    Q's eigenvalues below the rank threshold are zeroed first, matching
    the numerical-kernel semantics of the implementation under test while
    staying an independent computation (dense eigendecompositions and a
    feasibility bisection; no shared code path).  Feasibility tolerates
    -1e-13 in the smallest eigenvalue, which moves the returned c by about
    1e-13 / (c * v^T Q v) relative, well inside the 1e-9 that the tests
    ask for even at c ~ 1e-3.
    """
    Nd = np.asarray(N_diag, dtype=float)
    inv = 1.0 / np.sqrt(Nd)
    Qt = inv[:, None] * Q * inv[None, :]
    M0t = inv[:, None] * M0 * inv[None, :]
    ev, V = np.linalg.eigh(0.5 * (Qt + Qt.T))
    ev = np.clip(ev, 0.0, None)
    if ev.max(initial=0.0) > 0:
        ev[ev <= rank_rtol * ev.max()] = 0.0
    Qt = (V * ev[None, :]) @ V.T
    nL = Nd.shape[0]

    def feasible(c):
        M = c * Qt + delta * np.eye(nL) - M0t
        return np.linalg.eigvalsh(0.5 * (M + M.T))[0] >= -1e-13

    hi = 1.0
    while not feasible(hi):
        hi *= 4.0
        if hi > 1e13:
            return math.inf
    if feasible(0.0):
        return 0.0
    lo = 0.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def dense_gram_control(tree, sys_, forms, x_s, c, delta):
    """Reference synthesis through the dense Gramian c Q + delta N.

    With xi = x(T; 0, x_s) in leaf-major coordinates, f solves
    (c Q + delta N) f = N xi and the control is u = -c z(f), the optimum
    of min ||u||^2 / c + E|x_T|^2 / delta written through the duality
    x_T = delta f.  Dense solve of size nL; returns the control layers.
    """
    xi = simulate_forward(tree, sys_, x_s).terminal
    f = np.linalg.solve(c * forms.Q + delta * forms.N, forms.N_diag * xi.ravel())
    z = solve_bsde(tree, sys_, f.reshape(xi.shape)).z
    return [-c * zk for zk in z.values]
