"""Optimal observability constants of the dual observed system.

For terminal data y1 on the leaves the backward recursion gives the
initial value y(0; y1) and the output z, and the delta-observability
inequality reads

    |y(0)|^2 <= c dt sum_t E|z_t|^2 + delta E|y1|^2   for every y1.

Its optimal constant c_opt(delta) is the least such c >= 0.  By convex
duality on the tree,

    sup_y1 [2<x0, y(0)> - c ||z||^2 - delta E|y1|^2]
        = min_u ||u||^2 / c + E|x_T|^2 / delta = x0^T P_0(c) x0,

so (c, delta) is valid iff lambda_max(P_0(c)) <= 1.  Every node of a tree
carries the same branch template, and one Euler step is linear in the
increment, so the quadratic value E|M [x; u]|^2_P of a step depends on
the driver only through its mean and variance: step_maps stacks the
mean map and one map per noise component, and P_0(c) comes from K steps
of an n x n recursion over that stack of 1 + d maps, whatever the
number b of branches.  No leaf-indexed form is ever built.

delta > 0: c_opt is found by brentq on log c.  c_opt = inf iff the
c = inf limit of the recursion, started from P_K = I, ends with
lambda_max above delta.

delta = 0: the terminal penalty becomes the constraint x_K = 0 on every
leaf and the value scales as 1/c, so c_opt(0) = lambda_max(P^_0), where
x0^T P^_0 x0 = min{||u||^2 : x_K = 0 on every leaf}.  One constrained
backward recursion carries the subspace V_k of states that can be
steered to 0 from depth k and the minimum energy on it; c_opt(0) = inf
iff V_0 is not all of R^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import brentq

from .errors import InvalidConfig
from .systems import HorizonConfig, StochasticSystem
from .trees import NoiseTree, TreeDriver, build_tree

RANK_RTOL = 1e-10  # relative rank cut of the c = inf and delta = 0 recursions


@dataclass(frozen=True)
class ObservabilityForms:
    """One (tree, system) pair and its one-step maps.

    maps = step_maps(system, tree.delta_t, *tree.driver.moments), shape
    (1 + d, n, n + m), is computed once by assemble_forms; every recursion
    on the pair (c_opt, the synthesis gains, the interval second-moment
    map) reads the tree, the system and the maps from here alone.
    """

    tree: NoiseTree
    system: StochasticSystem = field(repr=False)
    maps: np.ndarray = field(repr=False)

    @property
    def K(self) -> int:
        return self.tree.K

    @property
    def T(self) -> float:
        return self.tree.T

    @property
    def driver_kind(self) -> str:
        return self.tree.driver.kind

    # sizes of the leaf-indexed forms, which are no longer built; the
    # benchmark's tracer (perfbench/tracing.py) still counts them
    @property
    def nL(self) -> int:
        return self.system.n * self.tree.b**self.K

    @property
    def gram_dim(self) -> int:
        b = self.tree.b
        return self.system.m * (b**self.K - 1) // (b - 1)


@dataclass(frozen=True)
class ObservabilityReport:
    delta: float
    T: float
    c_opt: float  # math.inf when not observable
    observable: bool
    diagnostics: dict = field(default_factory=dict)


def assemble_forms(tree: NoiseTree, sys: StochasticSystem) -> ObservabilityForms:
    """Bundle the tree and the system with their one-step maps."""
    if sys.d != tree.d:
        raise InvalidConfig(f"system d={sys.d} != tree d={tree.d}")
    maps = step_maps(sys, tree.delta_t, *tree.driver.moments)
    return ObservabilityForms(tree=tree, system=sys, maps=maps)


def _lam_max(sym_mat: np.ndarray) -> float:
    if sym_mat.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(0.5 * (sym_mat + sym_mat.T))[-1])


def step_maps(
    sys_: StochasticSystem, dt: float, mean: float = 0.0, var: float = 1.0
) -> np.ndarray:
    """One Euler step in moment form, shape (1 + d, n, n + m).

    With per-component increments of mean mean sqrt(dt) and variance
    var dt, the step x' = M [x; u] has
    E[M^T P M] = sum_r maps[r]^T P maps[r] for every P, where
    maps[0] = [I + dt A, dt B] + mean sqrt(dt) sum_i [C_i, D_i] is the mean
    map and maps[1 + i] = sqrt(dt var) [C_i, D_i] the noise maps.
    """
    n = sys_.n
    maps = np.empty((1 + sys_.d, n, n + sys_.m))
    maps[1:, :, :n] = sys_.C
    maps[1:, :, n:] = sys_.D
    maps[0] = np.hstack([np.eye(n) + dt * sys_.A, dt * sys_.B])
    maps[0] += mean * np.sqrt(dt) * maps[1:].sum(axis=0)
    maps[1:] *= np.sqrt(dt * var)
    return maps


def _lq_p0(forms: ObservabilityForms, c: float, p_terminal: float, gains: bool = False):
    """P_0 of min_u ||u||^2 / c + p_terminal E|x_T|^2 on the tree.

    ||u||^2 = dt sum_k E|u_k|^2.  The value is carried as P = R^T R.  A
    step stacks G = [R M_r]_r over the step maps, so G^T G = E[M^T P M],
    and eliminates u.  Finite c > 0: the QR of
    [[G_u, G_x], [sqrt(dt / c) I, 0]] is [[R_uu, R_ux], [0, R_x]], the
    next R is R_x (its R_x^T R_x is the Schur complement over u) and the
    gain is -R_uu^{-1} R_ux.  c = 0 means u = 0: the next R is the QR of
    G_x.  c = inf drops the control cost: the SVD of G_u, with squared
    singular values below RANK_RTOL times the largest as kernel, projects
    G_x off range(G_u), the next R is the QR of that projection, and the
    gain is -G_u^+ G_x.  With gains=True, returns (P_0, L), where L[k]
    (m x n) is the optimal feedback u_k = L[k] x_k at depth k.
    """
    maps, m, K = forms.maps, forms.system.m, forms.K
    s, n, _ = maps.shape
    R = np.sqrt(p_terminal) * np.eye(n)
    L = np.zeros((K, m, n)) if gains else None
    if c == 0:
        for _ in range(K):
            R = np.linalg.qr((R @ maps[:, :, :n]).reshape(-1, n), mode="r")
    elif math.isinf(c):
        for k in range(K - 1, -1, -1):
            G = (R @ maps).reshape(-1, n + m)
            W, sv, Zt = np.linalg.svd(G[:, n:])
            r = np.count_nonzero(sv**2 > RANK_RTOL * sv.max(initial=0.0) ** 2)
            if gains:
                L[k] = -(Zt[:r].T / sv[:r]) @ (W[:, :r].T @ G[:, :n])
            # R can end up with fewer than n rows, even none; R^T R is n x n
            R = np.linalg.qr(W[:, r:].T @ G[:, :n], mode="r")
    else:
        # u columns first, so that the QR eliminates u before x; the
        # control-cost rows below the stack stay fixed
        maps_ux = np.concatenate([maps[:, :, n:], maps[:, :, :n]], axis=2)
        buf = np.zeros((s * n + m, m + n))
        buf[s * n :, :m] = np.sqrt(forms.tree.delta_t / c) * np.eye(m)
        stack = buf[: s * n].reshape(s, n, m + n)
        for k in range(K - 1, -1, -1):
            np.matmul(R, maps_ux, out=stack)
            tri = np.linalg.qr(buf, mode="r")
            R = tri[m:, m:]
            if gains:
                L[k] = -solve_triangular(tri[:m, :m], tri[:m, m:])
    P = R.T @ R
    return (P, L) if gains else P


def _null_control_p0(forms: ObservabilityForms):
    """(U_0, P^_0) of min{||u||^2 : x_K = 0 on every leaf}.

    U_k is an orthonormal basis of V_k, the states that some adapted
    control steers to 0 on every leaf from depth k, and x^T P^_k x is the
    least energy that takes for x in V_k; V_K = {0}, P^_K = 0.  Branch j
    maps by M_0 + sum_i a_ji M_{1+i}, where the a_j average to zero and
    span R^d if the driver's variance is positive (else the noise maps
    vanish), so the step lands in V_{k+1} on every branch iff each step
    map M_r does: iff E_x x + E_u u = 0 for the stack
    E = [(I - U U^T) M_r]_r = [E_x, E_u].  With u = G x + N w,
    G = -E_u^+ E_x and N a basis of null(E_u), V_k is the null space of
    the part of E_x outside range(E_u), and P^_k is the Schur complement
    over w of dt |u|^2 + sum_r |M_r [x; u]|^2_P.  Singular values count
    as zero below RANK_RTOL times the norm of the unprojected x- or
    u-maps: once V_{k+1} = R^n the projected stack is rounding noise, so
    its own norm is no scale.
    """
    tree, maps = forms.tree, forms.maps
    n, m = forms.system.n, forms.system.m
    tol_x = RANK_RTOL * np.linalg.norm(maps[:, :, :n].reshape(-1, n), 2)
    tol_u = RANK_RTOL * np.linalg.norm(maps[:, :, n:].reshape(-1, m), 2)
    U = np.zeros((n, 0))
    P = np.zeros((n, n))
    for _ in range(tree.K):
        E = ((np.eye(n) - U @ U.T) @ maps).reshape(-1, n + m)
        Ex, Eu = E[:, :n], E[:, n:]
        W, s, Zt = np.linalg.svd(Eu)
        r = int(np.sum(s > tol_u))
        Wr = W[:, :r]
        G = -(Zt[:r].T / s[:r]) @ (Wr.T @ Ex)
        _, sx, Xt = np.linalg.svd(Ex - Wr @ (Wr.T @ Ex))
        U = Xt[int(np.sum(sx > tol_x)):].T
        H = np.einsum("jak,jal->kl", maps, P @ maps)
        H[n:, n:] += tree.delta_t * np.eye(m)
        # [x; u] = S [x; w] with S = [[I, 0], [G, N]]
        S = np.block([[np.eye(n), np.zeros((n, m - r))], [G, Zt[r:].T]])
        Hs = S.T @ H @ S
        P = Hs[:n, :n] - Hs[:n, n:] @ np.linalg.solve(Hs[n:, n:], Hs[n:, :n])
        P = U @ (U.T @ (0.5 * (P + P.T)) @ U) @ U.T
    return U, P


def optimal_constant(forms: ObservabilityForms, delta: float) -> ObservabilityReport:
    """Optimal constant c_opt(delta) of the delta-observability inequality.

    delta > 0: the backward Riccati recursion gives
    c_opt = inf{c : lambda_max(P_0(c)) <= 1}, bracketed on log c and closed
    by brentq.  The feasible end of the final bracket is returned, so
    is_delta_observable(forms, delta, c_opt) holds by construction.

    delta = 0: c_opt = lambda_max(P^_0) of the constrained recursion, or
    inf when some initial state cannot be steered to 0 on every leaf.

    c_opt = inf also when lam_kernel, lambda_max of the c = inf recursion
    started from P_K = I, exceeds delta > 0.  Diagnostics: method
    "riccati" and lam_kernel, plus null_controllable at delta = 0.
    """
    if not (0.0 <= delta < 1.0):
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    if delta > 0:
        c_opt, diagnostics = _copt_riccati(forms, delta)
    else:
        c_opt, diagnostics = _copt_null(forms)
    return ObservabilityReport(
        delta=delta,
        T=forms.T,
        c_opt=c_opt,
        observable=math.isfinite(c_opt),
        diagnostics=diagnostics,
    )


def _copt_riccati(forms, delta):
    lam_kernel = _lam_max(_lq_p0(forms, math.inf, 1.0))
    diagnostics = {"method": "riccati", "lam_kernel": lam_kernel}
    if lam_kernel > delta:
        return math.inf, diagnostics
    if _lam_max(_lq_p0(forms, 0.0, 1.0 / delta)) <= 1.0:
        return 0.0, diagnostics
    excess = {}  # log c -> lambda_max(P_0(c)) - 1, non-increasing

    def f(s):
        if s not in excess:
            P0 = _lq_p0(forms, math.exp(s), 1.0 / delta)
            excess[s] = _lam_max(P0) - 1.0
        return excess[s]

    # exponential search for a sign change; beyond |log c| = 690 the
    # control weight dt / c leaves the floating-point range
    lo = hi = 0.0
    step = 1.0
    if f(0.0) > 0:
        while f(hi) > 0:
            if hi >= 690.0:
                return math.inf, diagnostics
            lo, hi, step = hi, min(hi + step, 690.0), 2 * step
    else:
        while f(lo) <= 0:
            if lo <= -690.0:
                return math.exp(lo), diagnostics
            lo, hi, step = max(lo - step, -690.0), lo, 2 * step
    brentq(f, lo, hi, xtol=1e-15)
    return math.exp(min(s for s, v in excess.items() if v <= 0)), diagnostics


def _copt_null(forms):
    U, P0 = _null_control_p0(forms)
    controllable = U.shape[1] == forms.system.n
    diagnostics = {
        "method": "riccati",
        "null_controllable": controllable,
        "lam_kernel": _lam_max(_lq_p0(forms, math.inf, 1.0)),
    }
    return (max(0.0, _lam_max(P0)) if controllable else math.inf), diagnostics


def is_delta_observable(forms: ObservabilityForms, delta: float, c: float) -> bool:
    """True iff (c, delta) satisfies the observability inequality.

    delta > 0: lambda_max(P_0(c)) <= 1 + 1e-10 from the recursion behind
    optimal_constant, where c = 0 means u = 0; c_opt itself passes.
    delta = 0: c >= c_opt(0) (1 - 1e-10), which no finite c meets when
    c_opt(0) = inf.
    """
    if not (0.0 <= delta < 1.0) or c < 0:
        raise ValueError("need delta in [0,1) and c >= 0")
    if delta > 0:
        P0 = _lq_p0(forms, c, 1.0 / delta)
        return _lam_max(P0) <= 1.0 + 1e-10
    U, P0 = _null_control_p0(forms)
    return U.shape[1] == forms.system.n and c >= _lam_max(P0) * (1 - 1e-10)


@dataclass(frozen=True)
class InvarianceTable:
    """c_opt by (driver, K) plus per-K convergence diagnostics."""

    rows: list
    gaps: dict  # K -> max pairwise relative gap among finite constants
    gaps_non_increasing: bool


def invariance_experiment(
    sys: StochasticSystem,
    T: float,
    delta: float,
    drivers: list,
    K_list: list,
) -> InvarianceTable:
    """Optimal constants across drivers and mesh sizes.

    Different drivers play the role of different noise models; the
    constants must settle on a common limit under mesh refinement, so the
    max pairwise relative gap per K is the convergence diagnostic.
    """
    rows = []
    for K in K_list:
        for drv in drivers:
            driver = drv if isinstance(drv, TreeDriver) else TreeDriver.from_name(drv)
            tree = build_tree(driver, HorizonConfig(T=T, K=K), sys.d)
            rep = optimal_constant(assemble_forms(tree, sys), delta)
            rows.append(
                {
                    "driver": driver.kind,
                    "K": K,
                    "delta": delta,
                    "T": T,
                    "c_opt": rep.c_opt,
                    "observable": rep.observable,
                }
            )
    gaps = {}
    for K in K_list:
        vals = [row["c_opt"] for row in rows if row["K"] == K]
        if any(math.isinf(v) for v in vals):
            gaps[K] = math.inf
        else:
            lo, hi = min(vals), max(vals)
            gaps[K] = 0.0 if hi == 0 else (hi - lo) / max(lo, 1e-300)
    ordered = [gaps[K] for K in sorted(K_list)]
    # matched-moment drivers agree to rounding at every K, so the gaps sit
    # at noise level; the monotonicity check carries a rounding allowance
    non_increasing = all(b <= a + 1e-9 for a, b in zip(ordered, ordered[1:]))
    return InvarianceTable(rows=rows, gaps=gaps, gaps_non_increasing=non_increasing)
