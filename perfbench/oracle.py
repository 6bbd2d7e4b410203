"""Reference computations for the benchmark's correctness checks.

Everything here is derived from the system matrices alone, with numpy and
scipy; nothing is imported from sctk, so a fault in sctk cannot hide in a
shared code path.  Systems are passed as plain tuples (A, B, Cs, Ds) of
arrays with A (n, n), B (n, m), and Cs, Ds lists of d matrices.

- ``lq_p0`` / ``c_opt``: the backward Riccati recursion of the Euler step.
  By convex duality, delta-observability with constant c holds on a noise
  tree iff lambda_max(P_0(c)) <= 1, where x^T P_0(c) x is the value of
  min_u ||u||^2 / c + E|x_T|^2 / delta.  The recursion needs only dt and
  the first two increment moments, so one value serves every driver.
- ``null_controllable_exactly``: the delta = 0 case, where c_opt is finite
  only if every initial state can be steered to 0 on every branch.
- ``sare_residual``, ``sare_gain``, ``lift_abscissa``: the stochastic
  algebraic Riccati operator and the second-moment lift.  A positive
  definite P with zero residual and a stabilizing gain is the unique
  stabilizing solution, so these settle a solved ``solve_sare`` result.
- ``stabilizable``: the exact quadratic criterion for n = 1, and for
  n >= 2 value iteration of the Euler recursion with unit weights, which
  converges on stabilizable systems and grows without bound otherwise.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

VI_DT = 0.01
VI_MAX_STEPS = 200_000
VI_GROWTH_CAP = 1e9
VI_RTOL = 1e-11


def as_system(A, B, Cs=(), Ds=()):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Cs = [np.atleast_2d(np.asarray(C, dtype=float)) for C in Cs]
    Ds = [np.atleast_2d(np.asarray(D, dtype=float)) for D in Ds]
    return A, B, Cs, Ds


def _sym(M):
    return 0.5 * (M + M.T)


# -- observability constant on the Euler tree ------------------------------


def lq_p0(system, T, K, c, delta):
    """P_0(c) of min_u ||u||^2/c + E|x_T|^2/delta over K Euler steps.

    ||u||^2 = dt sum_k E|u_k|^2; the increments have mean 0 and covariance
    dt I, which is all the one-step expectation needs.
    """
    A, B, Cs, Ds = system
    n, m = B.shape
    dt = T / K
    Phi = np.eye(n) + dt * A
    Gam = dt * B
    P = np.eye(n) / delta
    for _ in range(K):
        Huu = (dt / c) * np.eye(m) + Gam.T @ P @ Gam
        Hux = Gam.T @ P @ Phi
        Hxx = Phi.T @ P @ Phi
        for C, D in zip(Cs, Ds):
            Huu += dt * D.T @ P @ D
            Hux += dt * D.T @ P @ C
            Hxx += dt * C.T @ P @ C
        P = _sym(Hxx - Hux.T @ np.linalg.solve(_sym(Huu), Hux))
    return P


def _lam_max(P):
    return float(np.linalg.eigvalsh(P)[-1])


def c_opt(system, T, K, delta, c_cap=1e12, iters=200):
    """inf{c >= 0 : lambda_max(P_0(c)) <= 1} by bisection on log c.

    lambda_max(P_0(c)) does not increase with c, so the feasible set is a
    half line; it is empty (c_opt = inf) when even c_cap is infeasible.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("the recursion needs delta in (0, 1)")

    def feasible(c):
        return _lam_max(lq_p0(system, T, K, c, delta)) <= 1.0

    if not feasible(c_cap):
        return math.inf
    if feasible(1e-300):
        return 0.0
    lo, hi = -300.0 * math.log(10.0), math.log(c_cap)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if feasible(math.exp(mid)):
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-15:
            break
    return math.exp(hi)


def _span_basis(M, rtol=1e-12):
    """Orthonormal basis of the column space of M."""
    if M.size == 0:
        return np.zeros((M.shape[0], 0))
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    keep = s > rtol * max(1.0, s[0]) if s.size else np.zeros(0, bool)
    return U[:, keep]


def _null_basis(M, rtol=1e-12):
    """Orthonormal basis of the null space of M (columns)."""
    cols = M.shape[1]
    if M.size == 0:
        return np.eye(cols)
    _, s, Vt = np.linalg.svd(M)
    rank = int(np.sum(s > rtol * max(1.0, s[0]))) if s.size else 0
    return Vt[rank:].T


def null_controllable_exactly(system, T, K):
    """True iff every x_0 can be steered to x_K = 0 on every branch.

    V_k, the states from which 0 is reachable surely in K - k steps, obeys
    V_K = {0} and V_k = {x : exists u with Phi x + Gam u in V_{k+1} and
    C_i x + D_i u in V_{k+1} for every i}: the branch increments have mean
    0 and full-rank covariance, so averaging over branches puts the drift
    part in V_{k+1}, and the increments spanning R^d put each diffusion
    column there.  c_opt(0) is finite only if V_0 = R^n.
    """
    A, B, Cs, Ds = system
    n, m = B.shape
    dt = T / K
    V = np.zeros((n, 0))
    for _ in range(K):
        # project onto the orthogonal complement of V_{k+1}
        Pc = np.eye(n) - V @ V.T
        rows = [Pc @ np.hstack([np.eye(n) + dt * A, dt * B])]
        rows += [Pc @ np.hstack([C, D]) for C, D in zip(Cs, Ds)]
        N = _null_basis(np.vstack(rows))  # (n + m, k) in (x, u) space
        V = _span_basis(N[:n])
    return V.shape[1] == n


# -- stochastic algebraic Riccati equation and the second-moment lift ------


def sare_residual(system, P):
    """P A + A^T P + sum C^T P C + I - S G^{-1} S^T at P."""
    A, B, Cs, Ds = system
    n, m = B.shape
    lin = P @ A + A.T @ P + np.eye(n)
    G = np.eye(m)
    S = P @ B
    for C, D in zip(Cs, Ds):
        lin += C.T @ P @ C
        G += D.T @ P @ D
        S += C.T @ P @ D
    return lin - S @ np.linalg.solve(G, S.T)


def sare_gain(system, P):
    """F = -(I + sum D^T P D)^{-1} (B^T P + sum D^T P C)."""
    A, B, Cs, Ds = system
    G = np.eye(B.shape[1])
    R = B.T @ P
    for C, D in zip(Cs, Ds):
        G += D.T @ P @ D
        R += D.T @ P @ C
    return -np.linalg.solve(G, R)


def lift_matrix(system, F=None):
    """X -> Acl X + X Acl^T + sum Ccl X Ccl^T on column-stacked vec(X)."""
    A, B, Cs, Ds = system
    n, m = B.shape
    F = np.zeros((m, n)) if F is None else np.atleast_2d(F)
    Acl = A + B @ F
    eye = np.eye(n)
    L = np.kron(eye, Acl) + np.kron(Acl, eye)
    for C, D in zip(Cs, Ds):
        Ccl = C + D @ F
        L += np.kron(Ccl, Ccl)
    return L


def lift_abscissa(system, F=None):
    return float(np.max(np.linalg.eigvals(lift_matrix(system, F)).real))


def growth_constant(system, tau):
    """lambda_max of S(tau), dS/dt = A^T S + S A + sum C^T S C, S(0) = I."""
    n = system[0].shape[0]
    vecS = expm(tau * lift_matrix(system).T) @ np.eye(n).reshape(-1, order="F")
    S = vecS.reshape((n, n), order="F")
    return float(np.linalg.eigvalsh(_sym(S))[-1])


def scalar_stabilizable(system, rtol=1e-12):
    """n = 1: stabilizable iff min_F 2(a + bF) + sum (c_i + d_i F)^2 < 0.

    The lift of a scalar closed loop is that number itself.  Written as
    2a + sum c_i^2 + 2 g F + F^T H F with g = b + sum c_i d_i and
    H = sum d_i^T d_i, the minimum is -inf when g leaves range(H) and
    2a + sum c_i^2 - g H^+ g^T otherwise.
    """
    A, B, Cs, Ds = system
    a = float(A[0, 0])
    g = B[0].copy()
    H = np.zeros((B.shape[1], B.shape[1]))
    const = 2.0 * a
    for C, D in zip(Cs, Ds):
        g += C[0, 0] * D[0]
        H += np.outer(D[0], D[0])
        const += C[0, 0] ** 2
    w, V = np.linalg.eigh(H)
    gv = V.T @ g
    scale = max(1.0, float(np.abs(g).max(initial=0.0)))
    kernel = w <= rtol * max(1.0, float(w.max(initial=0.0)))
    if np.any(np.abs(gv[kernel]) > rtol * scale):
        return True
    return bool(const - float(np.sum(gv[~kernel] ** 2 / w[~kernel])) < 0.0)


def value_iteration(system, dt=VI_DT, max_steps=VI_MAX_STEPS):
    """Unit-weight value iteration of the Euler recursion from P = 0.

    Returns "converged" when successive iterates agree to VI_RTOL,
    "diverged" once the largest entry of P passes VI_GROWTH_CAP, and
    "undecided" if neither happens within max_steps.
    """
    A, B, Cs, Ds = system
    n, m = B.shape
    Phi = np.eye(n) + dt * A
    Gam = dt * B
    P = np.zeros((n, n))
    for _ in range(max_steps):
        Huu = dt * np.eye(m) + Gam.T @ P @ Gam
        Hux = Gam.T @ P @ Phi
        Hxx = dt * np.eye(n) + Phi.T @ P @ Phi
        for C, D in zip(Cs, Ds):
            Huu += dt * D.T @ P @ D
            Hux += dt * D.T @ P @ C
            Hxx += dt * C.T @ P @ C
        Pn = _sym(Hxx - Hux.T @ np.linalg.solve(Huu, Hux))
        top = float(np.abs(Pn).max())
        if not np.isfinite(top) or top > VI_GROWTH_CAP:
            return "diverged"
        if float(np.abs(Pn - P).max()) <= VI_RTOL * top:
            return "converged"
        P = Pn
    return "undecided"


def stabilizable(system):
    """Oracle verdict on mean-square stabilizability (True / False / None)."""
    if system[0].shape[0] == 1:
        return scalar_stabilizable(system)
    return {"converged": True, "diverged": False}.get(value_iteration(system))


def scalar_sare(system):
    """n = 1: the stabilizing root P > 0 of the scalar SARE, or None."""
    def r(p):
        return float(sare_residual(system, np.array([[p]]))[0, 0])

    grid = np.logspace(-8, 8, 400)
    vals = [r(p) for p in grid]
    for p0, p1, v0, v1 in zip(grid, grid[1:], vals, vals[1:]):
        if v0 > 0.0 >= v1:
            p = brentq(r, p0, p1, xtol=1e-15, rtol=1e-15)
            P = np.array([[p]])
            if lift_abscissa(system, sare_gain(system, P)) < 0:
                return p
    return None


def self_check():
    """Pin the oracle to closed forms on the bundled corpus."""
    s1 = as_system([[0.0]], [[1.0]], [[[0.0]]], [[[0.0]]])
    s2 = as_system([[0.0]], [[1.0]], [[[1.0]]], [[[0.0]]])
    s3 = as_system([[1.0]], [[0.0]], [[[0.0]]], [[[0.0]]])
    m0 = as_system([[0.0]], [[1.0]], [[[0.0]]], [[[0.0]]])
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    failures = []
    if not math.isclose(scalar_sare(s1), 1.0, rel_tol=1e-12):
        failures.append("S1: P != 1")
    if not math.isclose(scalar_sare(s2), golden, rel_tol=1e-12):
        failures.append("S2: P != (1+sqrt 5)/2")
    if stabilizable(s3) is not False or scalar_sare(s3) is not None:
        failures.append("S3: reported stabilizable")
    if not (stabilizable(s1) and stabilizable(s2)):
        failures.append("S1/S2: reported not stabilizable")
    # M0 at delta = 0: c_opt(0) = 1/T is the delta -> 0 limit of the
    # recursion, and the terminal state is exactly controllable
    for T in (0.5, 1.0, 2.0):
        small = c_opt(m0, T, 8, 1e-9)
        if not (null_controllable_exactly(m0, T, 8)
                and math.isclose(small, 1.0 / T, rel_tol=1e-6)):
            failures.append(f"M0: c_opt(0) != 1/T at T={T}")
    return failures


if __name__ == "__main__":
    problems = self_check()
    print("oracle self-check:", "ok" if not problems else problems)
    raise SystemExit(1 if problems else 0)
