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
carries the same branch template, so P_0(c) comes from K steps of an
n x n recursion summed over the b branches (no moment matching is
assumed); no leaf-indexed form is ever built.

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
from scipy.optimize import brentq

from .systems import HorizonConfig, StochasticSystem
from .trees import NoiseTree, TreeDriver, build_tree


@dataclass(frozen=True)
class ObservabilityForms:
    """One (tree, system) pair and its branch maps.

    maps = branch_maps(system, tree.delta_t, tree.branch_increments), shape
    (b, n, n + m), is computed once by assemble_forms; every recursion on
    the pair (c_opt, the synthesis gains, the interval second-moment map)
    reads the tree, the system and the maps from here alone.
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
    """Bundle the tree and the system with their branch maps."""
    maps = branch_maps(sys, tree.delta_t, tree.branch_increments)
    return ObservabilityForms(tree=tree, system=sys, maps=maps)


def _lam_max(sym_mat: np.ndarray) -> float:
    if sym_mat.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(0.5 * (sym_mat + sym_mat.T))[-1])


def branch_maps(sys_: StochasticSystem, dt: float, xi: np.ndarray) -> np.ndarray:
    """One-step maps M_j = [I + dt A + sum_i xi_ji C_i, dt B + sum_i xi_ji D_i].

    Shape (b, n, n + m) for increments xi of shape (b, d): on branch j the
    Euler step is x' = M_j [x; u].
    """
    drift = np.hstack([np.eye(sys_.n) + dt * sys_.A, dt * sys_.B])
    maps = np.repeat(drift[None], xi.shape[0], axis=0)
    for i in range(sys_.d):
        maps += xi[:, i, None, None] * np.hstack([sys_.C[i], sys_.D[i]])
    return maps


def _lq_p0(
    forms: ObservabilityForms,
    c: float,
    p_terminal: float,
    rank_rtol: float,
    gains: bool = False,
):
    """P_0 of min_u ||u||^2 / c + p_terminal E|x_T|^2 on the tree.

    ||u||^2 = dt sum_k E|u_k|^2.  Each step sums H = sum_j p_j M_j^T P M_j
    over the branches, adds (dt / c) I to H_uu and takes the Schur
    complement P = H_xx - H_ux^T H_uu^{-1} H_ux.  c = 0 means u = 0.
    For finite c > 0, H_uu + (dt / c) I >= (dt / c) I is inverted whole;
    c = inf drops the control cost and takes the pseudo-inverse of H_uu,
    whose eigenvalues below rank_rtol times the largest count as kernel.
    With gains=True, returns (P_0, L) where L[k] = -H_uu^+ H_ux, shape
    (K, m, n), is the optimal feedback u_k = L[k] x_k at depth k.
    """
    tree, maps = forms.tree, forms.maps
    n = forms.system.n
    reg = math.inf if c == 0 else tree.delta_t / c
    P = p_terminal * np.eye(n)
    L = np.zeros((tree.K, forms.system.m, n)) if gains else None
    for k in range(tree.K - 1, -1, -1):
        H = np.einsum("j,jak,jal->kl", tree.branch_probs, maps, P @ maps)
        if math.isinf(reg):
            P = H[:n, :n]
        else:
            w, V = np.linalg.eigh(H[n:, n:])
            w = np.clip(w, 0.0, None) + reg
            keep = w > (rank_rtol * w[-1] if reg == 0 else 0.0)
            root = np.sqrt(w[keep])[:, None]
            R = (V[:, keep].T @ H[n:, :n]) / root
            P = H[:n, :n] - R.T @ R
            if gains:
                L[k] = -V[:, keep] @ (R / root)
        P = 0.5 * (P + P.T)
    return (P, L) if gains else P


def _null_control_p0(forms: ObservabilityForms, rank_rtol: float):
    """(U_0, P^_0) of min{||u||^2 : x_K = 0 on every leaf}.

    U_k is an orthonormal basis of V_k, the states that some adapted
    control steers to 0 on every leaf from depth k, and x^T P^_k x is the
    least energy that takes for x in V_k; V_K = {0}, P^_K = 0.  A step
    stacks E = [(I - U U^T) M_j]_j = [E_x, E_u], so that M_j [x; u] lies
    in V_{k+1} on every branch iff E_x x + E_u u = 0.  With u = G x + N w,
    G = -E_u^+ E_x and N a basis of null(E_u), V_k is the null space of
    the part of E_x outside range(E_u), and P^_k is the Schur complement
    over w of dt |u|^2 + sum_j p_j |M_j [x; u]|^2_P.  Singular values
    count as zero below rank_rtol times the norm of the unprojected x- or
    u-maps: once V_{k+1} = R^n the projected stack is rounding noise, so
    its own norm is no scale.
    """
    tree, maps = forms.tree, forms.maps
    n, m = forms.system.n, forms.system.m
    tol_x = rank_rtol * np.linalg.norm(maps[:, :, :n].reshape(-1, n), 2)
    tol_u = rank_rtol * np.linalg.norm(maps[:, :, n:].reshape(-1, m), 2)
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
        H = np.einsum("j,jak,jal->kl", tree.branch_probs, maps, P @ maps)
        H[n:, n:] += tree.delta_t * np.eye(m)
        # [x; u] = S [x; w] with S = [[I, 0], [G, N]]
        S = np.block([[np.eye(n), np.zeros((n, m - r))], [G, Zt[r:].T]])
        Hs = S.T @ H @ S
        P = Hs[:n, :n] - Hs[:n, n:] @ np.linalg.solve(Hs[n:, n:], Hs[n:, :n])
        P = U @ (U.T @ (0.5 * (P + P.T)) @ U) @ U.T
    return U, P


def optimal_constant(
    forms: ObservabilityForms, delta: float, rank_rtol: float = 1e-10
) -> ObservabilityReport:
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
        c_opt, diagnostics = _copt_riccati(forms, delta, rank_rtol)
    else:
        c_opt, diagnostics = _copt_null(forms, rank_rtol)
    return ObservabilityReport(
        delta=delta,
        T=forms.T,
        c_opt=c_opt,
        observable=math.isfinite(c_opt),
        diagnostics=diagnostics,
    )


def _copt_riccati(forms, delta, rank_rtol):
    lam_kernel = _lam_max(_lq_p0(forms, math.inf, 1.0, rank_rtol))
    diagnostics = {"method": "riccati", "lam_kernel": lam_kernel}
    if lam_kernel > delta:
        return math.inf, diagnostics
    if _lam_max(_lq_p0(forms, 0.0, 1.0 / delta, rank_rtol)) <= 1.0:
        return 0.0, diagnostics
    excess = {}  # log c -> lambda_max(P_0(c)) - 1, non-increasing

    def f(s):
        if s not in excess:
            P0 = _lq_p0(forms, math.exp(s), 1.0 / delta, rank_rtol)
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


def _copt_null(forms, rank_rtol):
    U, P0 = _null_control_p0(forms, rank_rtol)
    controllable = U.shape[1] == forms.system.n
    diagnostics = {
        "method": "riccati",
        "null_controllable": controllable,
        "lam_kernel": _lam_max(_lq_p0(forms, math.inf, 1.0, rank_rtol)),
    }
    return (max(0.0, _lam_max(P0)) if controllable else math.inf), diagnostics


def is_delta_observable(
    forms: ObservabilityForms, delta: float, c: float, rank_rtol: float = 1e-10
) -> bool:
    """True iff (c, delta) satisfies the observability inequality.

    delta > 0: lambda_max(P_0(c)) <= 1 + 1e-10 from the recursion behind
    optimal_constant, where c = 0 means u = 0; c_opt itself passes.
    delta = 0: c >= c_opt(0) (1 - 1e-10), which no finite c meets when
    c_opt(0) = inf.
    """
    if not (0.0 <= delta < 1.0) or c < 0:
        raise ValueError("need delta in [0,1) and c >= 0")
    if delta > 0:
        P0 = _lq_p0(forms, c, 1.0 / delta, rank_rtol)
        return _lam_max(P0) <= 1.0 + 1e-10
    U, P0 = _null_control_p0(forms, rank_rtol)
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
