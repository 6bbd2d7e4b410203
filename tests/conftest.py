import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class DenseForms:
    """Leaf-major dense forms of the delta-observability inequality.

    y1^T M0 y1 = |y(0; y1)|^2, y1^T Q y1 = dt sum_t E|z_t|^2 and
    y1^T N y1 = E|y1|^2; S0 is the n x nL map y1 -> y(0) and F the output
    map with rows scaled by sqrt(dt * path probability), so Q = F^T F.
    """

    S0: np.ndarray
    F: np.ndarray
    N_diag: np.ndarray

    @property
    def nL(self):
        return self.N_diag.size

    @property
    def M0(self):
        return self.S0.T @ self.S0

    @property
    def Q(self):
        return self.F.T @ self.F

    @property
    def N(self):
        return np.diag(self.N_diag)


def dense_forms(tree, sys_):
    """DenseForms built column by column from backward solves.

    Column i is solve_bsde at the i-th unit terminal datum, so the forms
    share no code with the recursions of sctk.observability.
    """
    L, n = tree.leaf_count, sys_.n
    scale = [np.sqrt(tree.delta_t * tree.depth_probs(k))[:, None] for k in range(tree.K)]
    S0, F = [], []
    for e in np.eye(L * n):
        bw = solve_bsde(tree, sys_, e.reshape(L, n))
        S0.append(bw.y0)
        F.append(np.concatenate([(s * z).ravel() for s, z in zip(scale, bw.z.values)]))
    return DenseForms(np.array(S0).T, np.array(F).T, np.repeat(tree.leaf_probs, n))


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


def dense_copt0_oracle(forms: DenseForms, rank_rtol=1e-10):
    """c_opt(0) from the SVD of the probability-weighted output factor.

    The bisection above cannot resolve delta = 0: a kernel energy far
    below its eigenvalue resolution at large c reads as feasible.  Here
    the split is explicit.  With F~ = sum_r s_r u_r v_r^T (singular values
    at or below sqrt(rank_rtol) s_max count as kernel) and S~ the weighted
    initial map, c_opt(0) = inf when S~ has energy on the kernel, else
    lambda_max(W W^T) with W = S~ V_r diag(1 / s_r).  Rounding leaves a
    kernel energy of order eps^2 relative; 1e-20 separates it from every
    genuine one.
    """
    inv = 1.0 / np.sqrt(forms.N_diag)
    S, F = forms.S0 * inv, forms.F * inv
    _, s, Vt = np.linalg.svd(F)
    s = np.concatenate([s, np.zeros(Vt.shape[0] - s.size)])
    keep = s > np.sqrt(rank_rtol) * s[0] if s[0] > 0 else np.zeros(s.size, bool)
    Sk = S @ Vt[~keep].T
    if np.linalg.norm(Sk) ** 2 > 1e-20 * np.linalg.norm(S, 2) ** 2:
        return math.inf
    W = (S @ Vt[keep].T) / s[keep]
    return max(0.0, float(np.linalg.eigvalsh(W @ W.T)[-1])) if keep.any() else 0.0


def dense_gram_control(tree, sys_, x_s, c, delta):
    """Reference synthesis through the dense Gramian c Q + delta N.

    With xi = x(T; 0, x_s) in leaf-major coordinates, f solves
    (c Q + delta N) f = N xi and the control is u = -c z(f), the optimum
    of min ||u||^2 / c + E|x_T|^2 / delta written through the duality
    x_T = delta f.  Dense solve of size nL; returns the control layers.
    """
    forms = dense_forms(tree, sys_)
    xi = simulate_forward(tree, sys_, x_s).terminal
    f = np.linalg.solve(c * forms.Q + delta * forms.N, forms.N_diag * xi.ravel())
    z = solve_bsde(tree, sys_, f.reshape(xi.shape)).z
    return [-c * zk for zk in z.values]
