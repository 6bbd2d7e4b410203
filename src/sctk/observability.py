"""Observability forms and optimal constants of the dual observed system.

For terminal data y1 on the leaves (coordinates: leaf-major, n components
per leaf) the backward recursion defines three quadratic forms

    y1^T M0 y1 = |y(0; y1)|^2          (initial energy, rank <= n)
    y1^T Q  y1 = dt * sum_t E |z_t|^2  (output energy, left-endpoint sum)
    y1^T N  y1 = E |y1|^2              (terminal energy, diagonal)

and the delta-observability inequality M0 <= c Q + delta N.  The optimal
constant is

    c_opt(delta) = inf { c >= 0 : M0 - delta N <= c Q }.

delta > 0: backward Riccati recursion.  By convex duality on the tree,

    sup_y1 [2<x0, y(0)> - c ||z||^2 - delta E|y1|^2]
        = min_u ||u||^2 / c + E|x_T|^2 / delta = x0^T P_0(c) x0,

so (c, delta) is valid iff lambda_max(P_0(c)) <= 1.  Every node of a tree
carries the same branch template, so P_0(c) comes from K steps of an
n x n recursion summed over the b branches (no moment matching is
assumed), and c_opt is found by brentq on log c.  c_opt = inf iff the
c = inf limit of the recursion, started from P_K = I, ends with
lambda_max above delta.

delta = 0: Gram path.  c_opt is infinite iff the system is not exactly
null controllable on the tree, which a subspace recursion with relative
rank tests decides; otherwise c_opt is the largest eigenvalue of the
initial-value map on the range of Q.  Q is stored through the sparse
factor F whose rows are the per-node output maps scaled by
sqrt(dt * path probability), so Q = F^T F, M0 through its factor S0
(the n x (n L) map y1 -> y(0)) and N through its diagonal; the spectral
work happens on the r x r Gram matrix F~ F~^T (r = m * number of internal
nodes) in probability-weighted coordinates.  Dense M0 / Q / N views
remain available behind a size guard, and tests cross-check both paths
against a literal dense implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import brentq

from .errors import BudgetExceeded, NumericalFailure
from .systems import StochasticSystem
from .trees import NoiseTree, TreeDriver, build_tree

DEFAULT_MAX_GRAM_DIM = 4000
DEFAULT_MAX_DENSE_DIM = 3000
_SPARSE_FASTPATH_MIN = 1500  # gram size above which the delta=0 path uses splu
_KERNEL_RTOL = 1e-9


@dataclass
class ObservabilityForms:
    """Factored quadratic forms of one (tree, system) pair."""

    n: int
    m: int
    K: int
    delta_t: float
    T: float
    driver_kind: str
    leaf_probs: np.ndarray = field(repr=False)
    N_diag: np.ndarray = field(repr=False)
    S0: np.ndarray = field(repr=False)  # (n, nL)
    F: sp.csr_matrix = field(repr=False)  # (r, nL), rows sqrt(dt*pi_v)-scaled
    # system and branch template; None on synthetic forms
    system: StochasticSystem = field(default=None, repr=False)
    branch_increments: np.ndarray = field(default=None, repr=False)  # (b, d)
    branch_probs: np.ndarray = field(default=None, repr=False)  # (b,)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def nL(self) -> int:
        return self.S0.shape[1]

    @property
    def gram_dim(self) -> int:
        return self.F.shape[0]

    # -- dense views (guarded; small trees and diagnostics only) ----------

    def _check_dense(self):
        if self.nL > DEFAULT_MAX_DENSE_DIM:
            raise BudgetExceeded(
                f"dense {self.nL} x {self.nL} form exceeds budget "
                f"{DEFAULT_MAX_DENSE_DIM}"
            )

    @property
    def M0(self) -> np.ndarray:
        self._check_dense()
        return self.S0.T @ self.S0

    @property
    def Q(self) -> np.ndarray:
        self._check_dense()
        return (self.F.T @ self.F).toarray()

    @property
    def N(self) -> np.ndarray:
        self._check_dense()
        return np.diag(self.N_diag)

    # -- quadratic forms without densification ----------------------------

    def quad_M0(self, y1_flat) -> float:
        v = self.S0 @ np.asarray(y1_flat, dtype=float)
        return float(v @ v)

    def quad_Q(self, y1_flat) -> float:
        v = self.F @ np.asarray(y1_flat, dtype=float)
        return float(v @ v)

    def quad_N(self, y1_flat) -> float:
        v = np.asarray(y1_flat, dtype=float)
        return float(v @ (self.N_diag * v))

    # -- weighted-coordinate factors and Gram spectra ----------------------

    def _weighted(self):
        if "wt" not in self._cache:
            inv_sqrt = 1.0 / np.sqrt(self.N_diag)
            Gt = self.S0 * inv_sqrt[None, :]
            Ft = self.F.copy()
            Ft.data = Ft.data * inv_sqrt[Ft.indices]
            self._cache["wt"] = (Gt, Ft)
        return self._cache["wt"]

    def _gram(self):
        if "gram" not in self._cache:
            _, Ft = self._weighted()
            gram = (Ft @ Ft.T).tocsc()
            gram.eliminate_zeros()
            self._cache["gram"] = gram
        return self._cache["gram"]

    def _gram_eig(self):
        """Eigen-decomposition of the weighted Gram matrix (ascending)."""
        if "gram_eig" not in self._cache:
            gram = self._gram()
            try:
                evals, U = np.linalg.eigh(gram.toarray())
            except np.linalg.LinAlgError as exc:
                raise NumericalFailure(f"Gram eigen failed: {exc}") from exc
            self._cache["gram_eig"] = (np.clip(evals, 0.0, None), U)
        return self._cache["gram_eig"]


@dataclass(frozen=True)
class ObservabilityReport:
    delta: float
    T: float
    c_opt: float  # math.inf when not observable
    observable: bool
    diagnostics: dict = field(default_factory=dict)


def assemble_forms(
    tree: NoiseTree,
    sys: StochasticSystem,
    max_gram_dim: int = DEFAULT_MAX_GRAM_DIM,
) -> ObservabilityForms:
    """Backward sweep over linear maps from leaf data to node values.

    At depth k every node carries the n x (n b^(K-k)) map from its own
    leaf block to y at that node; combining b children reproduces the
    scalar recursion of ``solve_bsde`` columnwise, so the assembled forms
    agree with direct backward solves to rounding.
    """
    n, m, d = sys.n, sys.m, sys.d
    K, b, dt = tree.K, tree.b, tree.delta_t
    r_total = m * (b**K - 1) // (b - 1)
    if r_total > max_gram_dim:
        raise BudgetExceeded(
            f"output factor has {r_total} rows (budget {max_gram_dim})"
        )
    nL = n * tree.leaf_count
    probs = tree.branch_probs
    xi = tree.branch_increments

    Smap = np.broadcast_to(np.eye(n), (tree.leaf_count, n, n)).copy()
    rows_by_depth = []
    for k in range(K - 1, -1, -1):
        nodes = b**k
        w_child = Smap.shape[2]
        child = Smap.reshape(nodes, b, n, w_child)
        # conditional-mean and martingale-coefficient maps, block per child
        m1 = (child * probs[None, :, None, None]).transpose(0, 2, 1, 3)
        m1 = np.ascontiguousarray(m1).reshape(nodes, n, b * w_child)
        Ymaps = []
        for i in range(d):
            wi = probs * xi[:, i] / dt
            Yi = (child * wi[None, :, None, None]).transpose(0, 2, 1, 3)
            Ymaps.append(np.ascontiguousarray(Yi).reshape(nodes, n, b * w_child))
        Snew = m1 + dt * np.einsum("pq,kqw->kpw", sys.A.T, m1)
        Zmap = np.einsum("pq,kqw->kpw", sys.B.T, m1)
        for i in range(d):
            Snew += dt * np.einsum("pq,kqw->kpw", sys.C[i].T, Ymaps[i])
            Zmap += np.einsum("pq,kqw->kpw", sys.D[i].T, Ymaps[i])
        Smap = Snew
        w = Smap.shape[2]
        scale = np.sqrt(dt * tree.depth_probs(k))
        data = (Zmap * scale[:, None, None]).ravel()
        rows = np.repeat(np.arange(nodes * m), w)
        cols = (
            np.arange(nodes)[:, None, None] * w
            + np.zeros((1, m, 1), dtype=int)
            + np.arange(w)[None, None, :]
        ).ravel()
        rows_by_depth.append((k, data, rows, cols))

    # stack rows depth-ascending for a deterministic layout
    rows_by_depth.sort(key=lambda t: t[0])
    data_all, rows_all, cols_all = [], [], []
    row_base = 0
    for k, data, rows, cols in rows_by_depth:
        data_all.append(data)
        rows_all.append(rows + row_base)
        cols_all.append(cols)
        row_base += (b**k) * m
    F = sp.coo_matrix(
        (
            np.concatenate(data_all),
            (np.concatenate(rows_all), np.concatenate(cols_all)),
        ),
        shape=(r_total, nL),
    ).tocsr()

    return ObservabilityForms(
        n=n,
        m=m,
        K=K,
        delta_t=dt,
        T=tree.T,
        driver_kind=tree.driver.kind,
        leaf_probs=tree.leaf_probs,
        N_diag=np.repeat(tree.leaf_probs, n),
        S0=Smap[0],
        F=F,
        system=sys,
        branch_increments=xi,
        branch_probs=probs,
    )


def forms_from_matrices(M0, Q, N_diag, T: float = 1.0) -> ObservabilityForms:
    """Wrap explicit (M0, Q, N) matrices as factored forms (unit tests)."""
    M0 = np.atleast_2d(np.asarray(M0, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    N_diag = np.atleast_1d(np.asarray(N_diag, dtype=float))
    nL = N_diag.shape[0]
    ev, V = np.linalg.eigh(0.5 * (M0 + M0.T))
    keep = ev > 1e-12 * max(ev.max(initial=0.0), 1.0)
    S0 = (np.sqrt(ev[keep])[:, None] * V[:, keep].T) if keep.any() else np.zeros((0, nL))
    eq, W = np.linalg.eigh(0.5 * (Q + Q.T))
    keepq = eq > 1e-14 * max(eq.max(initial=0.0), 1.0)
    Fd = (np.sqrt(eq[keepq])[:, None] * W[:, keepq].T) if keepq.any() else np.zeros((0, nL))
    return ObservabilityForms(
        n=max(S0.shape[0], 1),
        m=1,
        K=1,
        delta_t=T,
        T=T,
        driver_kind="synthetic",
        leaf_probs=N_diag.copy(),
        N_diag=N_diag,
        S0=S0,
        F=sp.csr_matrix(Fd),
    )


def _lam_max(sym_mat: np.ndarray) -> float:
    if sym_mat.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(0.5 * (sym_mat + sym_mat.T))[-1])


def _branch_maps(forms: ObservabilityForms) -> np.ndarray:
    """One-step maps M_j = [I + dt A + sum_i xi_ji C_i, dt B + sum_i xi_ji D_i].

    Shape (b, n, n + m): on branch j the Euler step is x' = M_j [x; u].
    """
    if "branch_maps" not in forms._cache:
        sys_ = forms.system
        if sys_ is None:
            raise ValueError(
                "synthetic forms carry no system or branch template; "
                "delta > 0 needs forms from assemble_forms"
            )
        dt, xi = forms.delta_t, forms.branch_increments
        drift = np.hstack([np.eye(sys_.n) + dt * sys_.A, dt * sys_.B])
        maps = np.repeat(drift[None], xi.shape[0], axis=0)
        for i in range(sys_.d):
            maps += xi[:, i, None, None] * np.hstack([sys_.C[i], sys_.D[i]])
        forms._cache["branch_maps"] = maps
    return forms._cache["branch_maps"]


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
    complement P = H_xx - H_ux^T H_uu^{-1} H_ux.  c = 0 means u = 0 and
    c = inf drops the control cost, with the pseudo-inverse of H_uu;
    eigenvalues of H_uu below rank_rtol times the largest count as kernel.
    With gains=True, returns (P_0, L) where L[k] = -H_uu^+ H_ux, shape
    (K, m, n), is the optimal feedback u_k = L[k] x_k at depth k.
    """
    maps = _branch_maps(forms)
    n = forms.n
    reg = math.inf if c == 0 else forms.delta_t / c
    P = p_terminal * np.eye(n)
    L = np.zeros((forms.K, forms.m, n)) if gains else None
    for k in range(forms.K - 1, -1, -1):
        H = np.einsum("j,jak,jal->kl", forms.branch_probs, maps, P @ maps)
        if math.isinf(reg):
            P = H[:n, :n]
        else:
            w, V = np.linalg.eigh(H[n:, n:])
            w = np.clip(w, 0.0, None) + reg
            keep = w > rank_rtol * w[-1]
            root = np.sqrt(w[keep])[:, None]
            R = (V[:, keep].T @ H[n:, :n]) / root
            P = H[:n, :n] - R.T @ R
            if gains:
                L[k] = -V[:, keep] @ (R / root)
        P = 0.5 * (P + P.T)
    return (P, L) if gains else P


def _null_controllable(forms: ObservabilityForms, rank_rtol: float) -> bool:
    """True iff every initial state is steered to 0 on every leaf.

    V_K = {0} and V_k = {x : some u has M_j [x; u] in V_{k+1} on every
    branch j}.  The V_k grow as k falls, so the recursion stops at the
    first step that adds no dimension; the answer is V_0 = R^n.  Singular
    values below rank_rtol times the largest count as zero; the x-parts of
    the orthonormal null basis are tested against its unit scale.
    """
    maps = _branch_maps(forms)
    n = forms.n
    V = np.zeros((n, 0))
    for _ in range(forms.K):
        stack = ((np.eye(n) - V @ V.T) @ maps).reshape(-1, maps.shape[2])
        _, s, Vt = np.linalg.svd(stack)
        rank = int(np.sum(s > rank_rtol * s[0])) if s.size else 0
        X = Vt[rank:, :n].T  # x-parts of the null space of the stack
        if X.shape[1] == 0:
            break
        Ux, sx, _ = np.linalg.svd(X, full_matrices=False)
        grown = Ux[:, sx > rank_rtol]
        if grown.shape[1] == V.shape[1]:
            break
        V = grown
    return V.shape[1] == n


def _range_split(forms: ObservabilityForms, rank_rtol: float):
    """Split the weighted initial-value map along range/kernel of Q.

    Returns (evals, basis, Y, lam_max_Q): the Gram eigenvalues counted as
    range (above rank_rtol * lambda_max), their eigenvectors, and
    Y = V_R^T Gt^T, the (rank, n) range component.
    """
    Gt, Ft = forms._weighted()
    evals, U = forms._gram_eig()
    lam_max_Q = float(evals[-1]) if evals.size else 0.0
    pos = evals > rank_rtol * lam_max_Q if lam_max_Q > 0 else np.zeros(evals.shape, bool)
    sig = np.sqrt(evals[pos])
    Y = (U[:, pos].T @ (Ft @ Gt.T)) / sig[:, None]
    return evals[pos], U[:, pos], Y, lam_max_Q


def optimal_constant(
    forms: ObservabilityForms, delta: float, rank_rtol: float = 1e-10
) -> ObservabilityReport:
    """Optimal constant c_opt(delta) = inf{c >= 0 : M0 <= c Q + delta N}.

    delta > 0 needs tree forms (synthetic ones raise ValueError) and uses
    the backward Riccati recursion: c_opt = inf{c : lambda_max(P_0(c)) <= 1},
    bracketed on log c and closed by brentq.  The feasible end of the final
    bracket is returned, so is_delta_observable(forms, delta, c_opt) holds
    by construction.  c_opt = inf when lam_kernel, lambda_max of the
    c = inf recursion started from P_K = I, exceeds delta.  Diagnostics:
    method "riccati" and lam_kernel.

    delta = 0 uses the Gram path.  c_opt = inf iff the system is not
    exactly null controllable on the tree, and then no Gram eigensolve
    runs; otherwise, with Lam and Y the range eigenvalues and range
    component of the weighted Q (eigenvalues below rank_rtol * lambda_max
    count as kernel), c_opt = lambda_max(Y^T Lam^{-1} Y).  Above
    _SPARSE_FASTPATH_MIN Gram rows, shifted sparse solves replace the
    dense eigensolve.  Synthetic forms have no tree, so there the kernel
    energy of the initial-value map, lambda_max(G G^T - Y^T Y), decides
    against a 1e-9 relative tolerance.  Diagnostics: null_controllable,
    lam_kernel and, on the Gram path, rank_Q and lam_max_Q or the sparse
    method.
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
    Gt, Ft = forms._weighted()
    if forms.system is None:
        GG = Gt @ Gt.T
        Y = _range_split(forms, rank_rtol)[2]
        lam_kernel = _lam_max(GG - Y.T @ Y)
        controllable = lam_kernel <= _KERNEL_RTOL * max(1.0, _lam_max(GG))
    else:
        lam_kernel = _lam_max(_lq_p0(forms, math.inf, 1.0, rank_rtol))
        controllable = _null_controllable(forms, rank_rtol)
    diagnostics = {"null_controllable": controllable, "lam_kernel": lam_kernel}
    if not controllable:
        return math.inf, diagnostics
    if forms.gram_dim == 0 or not np.any(Ft.data):
        return 0.0, diagnostics  # no output: null control makes M0 vanish
    if forms.gram_dim > _SPARSE_FASTPATH_MIN:
        c_opt = _copt_sparse_shifted(forms, Ft @ Gt.T)
        if c_opt is not None:
            diagnostics["method"] = "sparse"
            return c_opt, diagnostics
        diagnostics["sparse_fallback"] = True
    evals, _, Y, lam_max_Q = _range_split(forms, rank_rtol)
    diagnostics.update({"rank_Q": int(evals.size), "lam_max_Q": lam_max_Q})
    W = Y / np.sqrt(evals)[:, None]
    return max(0.0, _lam_max(W.T @ W)), diagnostics


def _copt_sparse_shifted(forms, bmat):
    """delta = 0 fast path via shifted solves with Richardson control.

    b = F~ Gt^T always lies in range(Gram), so the shifted solutions
    w_mu = (Gram + mu I)^{-1} b converge to the pseudo-inverse solution
    with O(mu) error; c_opt = lambda_max(w^T w) is extrapolated from two
    shifts and accepted only when the extrapolation step itself is small.
    Returns c_opt or None to request the dense path.
    """
    if not bmat.any():
        return 0.0
    gram = forms._gram()
    lam_hi = spla.norm(gram, 1)
    ident = sp.identity(gram.shape[0], format="csc")
    values = []
    for mu in (1e-10 * lam_hi, 2e-10 * lam_hi):
        try:
            lu = spla.splu((gram + mu * ident).tocsc())
        except RuntimeError:
            return None
        # sandwiching gram between the two shifted solves annihilates the
        # rounding-level kernel components of b that 1/mu would amplify
        w = lu.solve(gram @ lu.solve(bmat))
        values.append(_lam_max(w.T @ w))
    c1, c2 = values
    c_ext = 2 * c1 - c2
    # the first difference is the O(mu) bias; reject only when it is large
    # enough to leave a non-negligible quadratic remainder
    if abs(c1 - c2) > 3e-6 * max(1.0, abs(c_ext)):
        return None
    return max(0.0, c_ext)


def is_delta_observable(
    forms: ObservabilityForms, delta: float, c: float, rank_rtol: float = 1e-10
) -> bool:
    """True iff c Q + delta N - M0 is PSD up to a 1e-10 tolerance.

    delta > 0 (tree forms only): lambda_max(P_0(c)) <= 1 + 1e-10 from the
    recursion behind optimal_constant, where c = 0 means u = 0; c_opt
    itself passes.  delta = 0: the smallest eigenvalue of c Q - M0 on the
    subspace spanned by range(Q) and range(M0), which must be >= -1e-10
    * max(1, c lambda_max(Q)); on the orthogonal complement the weighted
    matrix vanishes, so nothing is lost by the restriction.
    """
    if not (0.0 <= delta < 1.0) or c < 0:
        raise ValueError("need delta in [0,1) and c >= 0")
    if delta > 0:
        P0 = _lq_p0(forms, c, 1.0 / delta, rank_rtol)
        return _lam_max(P0) <= 1.0 + 1e-10
    Gt, Ft = forms._weighted()
    evals, basis, Y, lam_max_Q = _range_split(forms, rank_rtol)
    tol = 1e-10 * max(1.0, c * lam_max_Q)
    sig = np.sqrt(evals)
    GKt = Gt.T - Ft.T @ (basis @ (Y / sig[:, None]))  # P_K Gt^T, (nL, n)
    # orthonormal basis of the kernel-side part of range(M0); the threshold
    # is absolute (kernel-energy scale), so directions that are pure
    # cancellation noise -- and hence not inside kernel(Q) -- are dropped
    scale = max(1.0, _lam_max(Gt @ Gt.T))
    if GKt.size and np.linalg.norm(GKt) > 0:
        Ub, sb, _ = np.linalg.svd(GKt, full_matrices=False)
        B2 = Ub[:, sb > np.sqrt(0.5 * _KERNEL_RTOL * scale)]
    else:
        B2 = np.zeros((forms.nL, 0))
    G_B2 = Gt @ B2  # (n, n2)
    top = c * np.diag(evals) - Y @ Y.T
    cross = -Y @ G_B2
    R = np.block([[top, cross], [cross.T, -G_B2.T @ G_B2]])
    lam_min = float(np.linalg.eigvalsh(0.5 * (R + R.T))[0]) if R.size else 0.0
    if evals.size + B2.shape[1] < forms.nL:
        lam_min = min(lam_min, 0.0)
    return lam_min >= -tol


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
    max_leaves: int = None,
    max_gram_dim: int = DEFAULT_MAX_GRAM_DIM,
) -> InvarianceTable:
    """Optimal constants across drivers and mesh sizes.

    Different drivers play the role of different noise models; the
    constants must settle on a common limit under mesh refinement, so the
    max pairwise relative gap per K is the convergence diagnostic.
    """
    from .systems import HorizonConfig
    from .trees import DEFAULT_MAX_LEAVES

    max_leaves = max_leaves or DEFAULT_MAX_LEAVES
    rows = []
    for K in K_list:
        for drv in drivers:
            driver = drv if isinstance(drv, TreeDriver) else TreeDriver.from_name(drv)
            tree = build_tree(driver, HorizonConfig(T=T, K=K), sys.d, max_leaves)
            forms = assemble_forms(tree, sys, max_gram_dim=max_gram_dim)
            rep = optimal_constant(forms, delta)
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
