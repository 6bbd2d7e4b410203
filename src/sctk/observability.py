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

delta > 0: c_opt is found by Brent's method on log c (_brentq, a port
of scipy's brentq that evaluates the same points).  The search builds
one square-root step (_lq_sweep) and rewrites only its control-cost rows
for each c it visits, and enters the overflow guard once.  c_opt = inf
iff the c = inf limit of the recursion, started from P_K = I, ends with
lambda_max above delta.  The c = 0 recursion runs only when c = 1 is
already valid: P_0(0) >= P_0(1), so otherwise c_opt > 0.

delta = 0: the terminal penalty becomes the constraint x_K = 0 on every
leaf and the value scales as 1/c, so c_opt(0) = lambda_max(P^_0), where
x0^T P^_0 x0 = min{||u||^2 : x_K = 0 on every leaf}.  One constrained
backward recursion carries the subspace V_k of states that can be
steered to 0 from depth k and the minimum energy on it; c_opt(0) = inf
iff V_0 is not all of R^n.  Once V_k = R^n the constraint is void at
every earlier depth, and the unconstrained square-root step takes over.

The matrices are at most a few rows by a few columns, so the recursions
call LAPACK directly (dgeqrf, dgesdd, dsyevd, the routines numpy runs)
without numpy's per-call overhead.  A recursion whose P overflows raises
NumericalFailure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgesdd, dsyevd, dtrtrs

from .errors import InvalidConfig, NumericalFailure
from .systems import HorizonConfig, StochasticSystem
from .trees import NoiseTree, TreeDriver, build_tree

RANK_RTOL = 1e-10  # relative rank cut of the c = inf and delta = 0 recursions


@dataclass(frozen=True)
class ObservabilityForms:
    """One (tree, system) pair and its one-step maps.

    maps = step_maps(system, tree.delta_t, *tree.driver.moments), shape
    (1 + d, n, n + m), is computed once by assemble_forms; every recursion
    on the pair (c_opt, the synthesis gains, the interval second-moment
    map) reads the tree, the system and the maps from here alone.  The
    tree is its definition alone (K, delta_t, d, driver): nothing here has
    the size b of the branch template.
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
    """lambda_max of a symmetric matrix by np.linalg.eigvalsh's dsyevd,
    which reads the lower triangle.  The recursions' P = R^T R is
    symmetric to the bit: numpy forms a product with its own transpose
    by syrk.
    """
    w, _, info = dsyevd(sym_mat, compute_v=0, lower=1)
    if info:
        raise NumericalFailure(f"dsyevd failed with info {info}")
    return float(w[-1])


def _svd(mat: np.ndarray):
    """np.linalg.svd(mat): the same dgesdd, without numpy's call overhead.

    The factors come back C-ordered, as numpy's do, so that products with
    them take the same BLAS path.  dgesdd rejects a matrix with no
    entries, whose factors are identities.
    """
    rows, cols = mat.shape
    if not mat.size:
        return np.eye(rows), np.zeros(0), np.eye(cols)
    W, s, Vt, info = dgesdd(mat, full_matrices=1)
    if info:
        raise NumericalFailure(f"dgesdd failed with info {info}")
    return np.ascontiguousarray(W), s, np.ascontiguousarray(Vt)


# the recursions run under this (a c_opt search once, around all its
# sweeps): an overflowing R warns in its step products and in R^T R, and
# _value's check on P is what reports it
_overflow_checked = np.errstate(over="ignore", invalid="ignore")


def _value(R: np.ndarray) -> np.ndarray:
    """P = R^T R, or NumericalFailure once the recursion has overflowed."""
    P = R.T @ R
    if not np.isfinite(P).all():
        raise NumericalFailure("the Riccati recursion overflowed: P_0 is not finite")
    return P


def step_maps(
    sys_: StochasticSystem, dt: float, mean: float = 0.0, var: float = 1.0
) -> np.ndarray:
    """One Euler step of the coefficient stack sys_.maps, shape (1 + d, n, n + m).

    With per-component increments of mean mean sqrt(dt) and variance
    var dt, the step x' = M [x; u] has
    E[M^T P M] = sum_r maps[r]^T P maps[r] for every P, where
    maps[0] = [I + dt A, dt B] + mean sqrt(dt) sum_i [C_i, D_i] is the mean
    map and maps[1 + i] = sqrt(dt var) [C_i, D_i] the noise maps.
    """
    maps = sys_.maps
    maps[0] *= dt
    maps[0, :, : sys_.n] += np.eye(sys_.n)
    maps[0] += mean * np.sqrt(dt) * maps[1:].sum(axis=0)
    maps[1:] *= np.sqrt(dt * var)
    return maps


@lru_cache(maxsize=64)
def _below_diagonal(rows: int, cols: int) -> np.ndarray:
    return np.tri(rows, cols, k=-1, dtype=bool)


def _qr_r(stack: np.ndarray) -> np.ndarray:
    """The triangle R (min(rows, cols) x cols) of stack = QR, by LAPACK's
    dgeqrf: np.linalg.qr's call overhead dwarfs a QR this small.  dgeqrf
    prints an error on a stack with no rows, whose R is empty.
    """
    rows, cols = stack.shape
    if not rows:
        return np.zeros((0, cols))
    tri = dgeqrf(stack)[0][:cols]
    tri[_below_diagonal(*tri.shape)] = 0.0
    return tri


def sqrt_step(maps: np.ndarray, cost: np.ndarray):
    """The square-root Riccati step over step_maps, as a function of R.

    cost (k x (m + n), k >= m) holds the running-cost rows over [u; x],
    and maps (s, n, n + m) the step maps; m = 0 is a step with no control.
    step(R), for an n x n R, returns the QR triangle T of
    [[R M_r^u, R M_r^x]_r; cost], u columns first so that u is eliminated
    first: the next R is T[m:, m:] (its R^T R is the Schur complement over
    u) and the gain is -T[:m, :m]^{-1} T[:m, m:].

    The step owns one buffer of that stack for all its calls; step.cost is
    the buffer's cost rows, which a caller may rewrite between sweeps
    (the c_opt search rewrites them for each c).
    """
    s, n, _ = maps.shape
    rows, cols = s * n + len(cost), cost.shape[1]
    m = cols - n
    maps_ux = np.concatenate([maps[:, :, n:], maps[:, :, :n]], axis=2)
    buf = np.empty((rows, cols))
    buf[s * n :] = cost
    stack = buf[: s * n].reshape(s, n, cols)
    below = _below_diagonal(min(rows, cols), cols)

    def step(R: np.ndarray) -> np.ndarray:
        np.matmul(R, maps_ux, out=stack)
        tri = dgeqrf(buf)[0][:cols]
        tri[below] = 0.0
        return tri

    step.cost = buf[s * n :]
    return step


def _lq_sweep(forms: ObservabilityForms, controlled: bool):
    """The finite-c recursion of _lq_p0, built once for any number of c.

    Returns sweep(c, p_terminal, gains=False) with _lq_p0's values.  With
    controlled, one sqrt_step over the full maps carries the control-cost
    rows sqrt(dt / c) [I, 0], and each sweep rewrites only those rows;
    without, it is the c = 0 step over the x-maps alone, with no cost
    rows, and c is not read.  The caller runs sweeps under
    _overflow_checked.
    """
    maps, n, m, K = forms.maps, forms.system.n, forms.system.m, forms.K
    mu = m if controlled else 0
    dt = forms.tree.delta_t
    unit = np.eye(mu, mu + n)
    step = sqrt_step(maps[:, :, : n + mu], unit)
    eye = np.eye(n)

    def sweep(c: float, p_terminal: float, gains: bool = False):
        if mu:
            np.multiply(math.sqrt(dt / c), unit, out=step.cost)
        R = math.sqrt(p_terminal) * eye
        L = np.zeros((K, m, n)) if gains else None
        for k in range(K - 1, -1, -1):
            tri = step(R)
            R = tri[mu:, mu:]
            if gains and mu:
                gain, info = dtrtrs(tri[:mu, :mu], tri[:mu, mu:])
                if info:
                    raise NumericalFailure(f"singular gain triangle at depth {k}")
                L[k, :mu] = -gain
        P = _value(R)
        return (P, L) if gains else P

    return sweep


@_overflow_checked
def _lq_p0(forms: ObservabilityForms, c: float, p_terminal: float, gains: bool = False):
    """P_0 of min_u ||u||^2 / c + p_terminal E|x_T|^2 on the tree.

    ||u||^2 = dt sum_k E|u_k|^2.  The value is carried as P = R^T R.  A
    step stacks G = [R M_r]_r over the step maps, so G^T G = E[M^T P M],
    and eliminates u.  Two recursions:

    - finite c >= 0 (_lq_sweep): one sqrt_step with the control-cost
      rows sqrt(dt / c) [I, 0] gives the next R and the gain.  c = 0
      forces u = 0: the same step over the x-maps alone, with no cost
      rows.  A call here builds that step for one sweep; the c_opt search
      builds it once and rewrites only its cost rows for each c.
    - c = inf drops the control cost: the SVD of G_u, with squared
      singular values below RANK_RTOL times the largest as kernel,
      projects G_x off range(G_u), and the next R is the QR triangle of
      that projection.  R can end up with fewer than n rows, even none.

    With gains=True (finite c only), returns (P_0, L), where L[k] (m x n)
    is the optimal feedback u_k = L[k] x_k at depth k, zero at c = 0.
    A P_0 that is not finite (a step map that grows faster than the
    floating-point range allows over K steps) raises NumericalFailure.
    """
    if not math.isinf(c):
        return _lq_sweep(forms, c > 0)(c, p_terminal, gains)
    maps, n, m = forms.maps, forms.system.n, forms.system.m
    R = math.sqrt(p_terminal) * np.eye(n)
    for _ in range(forms.K):
        G = (R @ maps).reshape(-1, n + m)
        W, sv, _ = _svd(G[:, n:])
        sv = sv.tolist()  # in descending order
        cut = RANK_RTOL * (sv[0] * sv[0]) if sv else 0.0
        r = sum(x * x > cut for x in sv)
        R = _qr_r(W[:, r:].T @ G[:, :n])
    return _value(R)


@_overflow_checked
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
    the part of E_x outside range(E_u).  P^_k = R^T R: the QR triangle T
    of [[R M_r^u N, R (M_r^x + M_r^u G)]_r; sqrt(dt) [N, G]], w columns
    first, eliminates w, and the next R is T[m - r:, m - r:] U U^T (one
    direct QR; the maps change with G and N at every step).  Singular
    values count as zero below RANK_RTOL times the norm of the unprojected
    x- or u-maps: near V_{k+1} = R^n the projected stack is rounding noise,
    so its own norm is no scale.

    Once V_{k+1} = R^n, every earlier V is R^n too and the constraint is
    void: the step is then exactly the unconstrained one,
    sqrt_step(maps, sqrt(dt) [I, 0]), which runs the remaining depths.
    A P^_0 that is not finite raises NumericalFailure.
    """
    tree, maps = forms.tree, forms.maps
    n, m = forms.system.n, forms.system.m
    tol_x = RANK_RTOL * np.linalg.norm(maps[:, :, :n].reshape(-1, n), 2)
    tol_u = RANK_RTOL * np.linalg.norm(maps[:, :, n:].reshape(-1, m), 2)
    sdt = np.sqrt(tree.delta_t)
    eye, Mx, Mu = np.eye(n), maps[:, :, :n], maps[:, :, n:]
    U = np.zeros((n, 0))
    R = np.zeros((0, n))
    for k in range(tree.K):
        if U.shape[1] == n:
            step = sqrt_step(maps, sdt * np.eye(m, m + n))
            for _ in range(k, tree.K):
                R = step(R)[m:, m:]
            break
        E = ((eye - U @ U.T) @ maps).reshape(-1, n + m)
        Ex, Eu = E[:, :n], E[:, n:]
        W, s, Zt = _svd(Eu)
        r = int(np.count_nonzero(s > tol_u))
        Wr = W[:, :r]
        WEx = Wr.T @ Ex
        G = -(Zt[:r].T / s[:r]) @ WEx
        _, sx, Xt = _svd(Ex - Wr @ WEx)
        U = Xt[int(np.count_nonzero(sx > tol_x)) :].T
        N, RMu = Zt[r:].T, R @ Mu
        wx = np.concatenate([RMu @ N, R @ Mx + RMu @ G], axis=2)
        stack = np.vstack([wx.reshape(-1, m - r + n), sdt * np.hstack([N, G])])
        R = _qr_r(stack)[m - r :, m - r :] @ U @ U.T
    return U, _value(R)


def optimal_constant(forms: ObservabilityForms, delta: float) -> ObservabilityReport:
    """Optimal constant c_opt(delta) of the delta-observability inequality.

    delta > 0: the backward Riccati recursion gives
    c_opt = inf{c : lambda_max(P_0(c)) <= 1}, bracketed on log c from
    log c = 0 and closed by Brent's method (_brentq).  The feasible end of
    the final bracket is returned, so is_delta_observable(forms, delta,
    c_opt) holds by construction.  c_opt = 0 is tested (by the c = 0
    recursion) only when c = 1 is valid.

    delta = 0: c_opt = lambda_max(P^_0) of the constrained recursion, or
    inf when some initial state cannot be steered to 0 on every leaf.

    c_opt = inf also when lam_kernel, lambda_max of the c = inf recursion
    started from P_K = I, exceeds delta > 0.  Diagnostics: method
    "riccati" and lam_kernel, plus null_controllable at delta = 0.
    NumericalFailure when a recursion overflows.
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


@_overflow_checked
def _copt_riccati(forms, delta):
    lam_kernel = _lam_max(_lq_p0(forms, math.inf, 1.0))
    diagnostics = {"method": "riccati", "lam_kernel": lam_kernel}
    if lam_kernel > delta:
        return math.inf, diagnostics
    sweep = _lq_sweep(forms, True)  # one step for every c > 0 of the search
    excess = {}  # log c -> lambda_max(P_0(c)) - 1, non-increasing

    def f(s):
        if s not in excess:
            excess[s] = _lam_max(sweep(math.exp(s), 1.0 / delta)) - 1.0
        return excess[s]

    # P_0(0) >= P_0(1): only a valid c = 1 leaves c = 0 to be tested
    if f(0.0) <= 0 and _lam_max(_lq_p0(forms, 0.0, 1.0 / delta)) <= 1.0:
        return 0.0, diagnostics
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
    _brentq(f, lo, hi, xtol=1e-15)
    return math.exp(min(s for s, v in excess.items() if v <= 0)), diagnostics


def _brentq(f, xpre: float, xcur: float, xtol: float) -> float:
    """A root of f in [xpre, xcur], where f changes sign, by Brent's method.

    A port of scipy.optimize.brentq (scipy/optimize/Zeros/brentq.c) with
    its defaults rtol = 4 eps and maxiter = 100: the same steps, so f is
    evaluated at the same points.  NumericalFailure if it does not converge.
    """
    rtol = 4 * np.finfo(float).eps
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        tol = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < tol:
            return xcur
        if abs(spre) > tol and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre)
                stry /= dblk * dpre * (fblk - fpre)
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - tol):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > tol else (tol if sbis > 0 else -tol)
        fcur = f(xcur)
    raise NumericalFailure(f"Brent's method did not converge on [{xpre}, {xcur}]")


def _copt_null(forms):
    U, P0 = _null_control_p0(forms)
    controllable = U.shape[1] == forms.system.n
    diagnostics = {
        "method": "riccati",
        "null_controllable": controllable,
        "lam_kernel": _lam_max(_lq_p0(forms, math.inf, 1.0)),
    }
    return (max(0.0, _lam_max(P0)) if controllable else math.inf), diagnostics


def _valid_value(P0: np.ndarray) -> bool:
    """The delta > 0 test of (c, delta) on P0 = _lq_p0(forms, c, 1 / delta)."""
    return _lam_max(P0) <= 1.0 + 1e-10


def is_delta_observable(forms: ObservabilityForms, delta: float, c: float) -> bool:
    """True iff (c, delta) satisfies the observability inequality.

    delta > 0: _valid_value(P_0(c)) from the recursion behind
    optimal_constant, where c = 0 means u = 0; c_opt itself passes.
    delta = 0: c >= c_opt(0) (1 - 1e-10), which no finite c meets when
    c_opt(0) = inf.
    """
    if not (0.0 <= delta < 1.0 and c >= 0):
        raise ValueError("need delta in [0,1) and c >= 0")
    if delta > 0:
        return _valid_value(_lq_p0(forms, c, 1.0 / delta))
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
