"""Infinite-horizon stochastic algebraic Riccati equation.

The stationary equation solved here is

    P A + A^T P + sum_i C_i^T P C_i + I
      - (P B + sum_i C_i^T P D_i) (I + sum_i D_i^T P D_i)^{-1}
        (B^T P + sum_i D_i^T P C_i) = 0,

whose unique positive-definite solution gives the optimal value
x0^T P x0 of the unit-weight quadratic cost and the stabilizing feedback

    F = -(I + sum_i D_i^T P D_i)^{-1} (B^T P + sum_i D_i^T P C_i).

Solved by Newton-Kleinman iteration: given a mean-square-stabilizing gain
F_k, the generalized Lyapunov equation

    (A+BF_k)^T P + P (A+BF_k) + sum_i (C_i+D_iF_k)^T P (C_i+D_iF_k)
      + I + F_k^T F_k = 0

is one linear solve on the n^2 lift, and F_{k+1} is the gain of its
solution.

The first stabilizing gain comes from a deterministic search with no
seed: the zero gain, then the deterministic LQR gain, which stabilizes a
noise-free system whenever one can be stabilized, so there the exact
Hautus test gives the verdict.  A noisy system goes on to value
iteration of the Euler recursion of the same unit-weight problem from
V_0 = 0, V_{k+1} = R(V_k) by ``observability.sqrt_step`` at dt = ``VI_DT``:
V_k is carried as a square root and formed only to test the gain of
every ``VI_CHECK_EVERY``-th iterate.  Its iterates are bounded exactly
when the discretized problem is stabilizable, which implies continuous
stabilizability but, for a stiff system, does not follow from it.

``NotSolvable`` rests on a proof that the Euler value is unbounded.  Let
R0 be the one-step map without running cost,
R0(Q) = inf_u sum_j [x; u]^T M_j^T Q M_j [x; u], with M_j the step maps
of one Euler step (``observability.step_maps``: the drift map and one
noise map per component).  R0 is monotone and positively
homogeneous, R >= R0, and V_k >= V_1 = dt I.  So a Q >= 0, Q != 0 with
R0(Q) >= rho Q, rho > 1, gives V_{k+j} >= c rho^j Q for some c > 0: the
value grows without bound.  At each gain test the normalised iterate and
its truncations to the eigen-directions above ``CERT_TRUNCATIONS`` times
its largest eigenvalue are tried as Q (``_growth_factor``), and the
verdict's ``diagnostics`` report ``evidence: "certificate"`` with Q, rho
and the rank of Q.  When no certificate is found before the value passes
``VI_GROWTH_CAP``, growth past the cap is the evidence
(``evidence: "cap"``), which is not a proof.  Either way the gain of R0's
minimiser at Q is tested last: it stands in for the gains of the later
iterates the early stop skips, which on a stiff system can stabilize
the continuous lift although the Euler value grows.
``NumericalFailure`` (not a verdict) is raised when value iteration
reaches neither a gain, a certificate nor the cap in ``VI_MAX_STEPS``
steps, or when Newton-Kleinman stalls or ends outside the
positive-definite stabilizing class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_continuous_are

from .errors import NumericalFailure
from .moments import build_generator, spectral_abscissa, unvec, vec
from .observability import sqrt_step, step_maps
from .systems import StochasticSystem, hautus_stabilizability

GAIN_MARGIN = 1e-9  # a gain stabilizes when its lift abscissa is below -GAIN_MARGIN
NEWTON_RTOL = 1e-12  # Newton stops at residual below NEWTON_RTOL * max(1, |P|)
NEWTON_MAX_ITER = 100
VI_DT = 0.01  # Euler step of the value iteration
VI_GROWTH_CAP = 1e9  # largest |P_ij| below which the value counts as bounded
VI_MAX_STEPS = 200_000
VI_CHECK_EVERY = 100  # steps between tests of the iterate's gain and growth
CERT_TRUNCATIONS = (0.0, 1e-3, 1e-2, 1e-1)  # eigenvalue cuts of Q over its largest
CERT_ROUNDING = 64.0  # safety factor on the rounding bound of the growth factor


@dataclass(frozen=True)
class RiccatiSolution:
    P: np.ndarray
    F: np.ndarray
    residual: float
    iterations: int
    abscissa: float  # of the closed-loop lift under F, negative


@dataclass(frozen=True)
class NotSolvable:
    """Verdict that no mean-square stabilizing solution exists."""

    reason: str
    diagnostics: dict = field(default_factory=dict)


def sare_residual(sys: StochasticSystem, P) -> np.ndarray:
    """Residual matrix of the algebraic Riccati operator at P."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    lin = P @ sys.A + sys.A.T @ P + np.eye(sys.n)
    S = P @ sys.B
    for Ci, Di in zip(sys.C, sys.D):
        lin += Ci.T @ P @ Ci
        S += Ci.T @ P @ Di
    # S F = -S (I + sum D_i^T P D_i)^{-1} S^T for symmetric P
    return lin + S @ feedback_gain(P, sys)


def feedback_gain(P, sys: StochasticSystem) -> np.ndarray:
    """F = -(I + sum D_i^T P D_i)^{-1} (B^T P + sum D_i^T P C_i)."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    G = np.eye(sys.m)
    for Di in sys.D:
        G += Di.T @ P @ Di
    R = sys.B.T @ P
    for Ci, Di in zip(sys.C, sys.D):
        R += Di.T @ P @ Ci
    try:
        return -np.linalg.solve(G, R)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"gain matrix I + sum D^T P D is singular: {exc}") from exc


def lq_value(P, x0) -> float:
    """Optimal quadratic cost <P x0, x0> from a deterministic initial state."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    P = np.atleast_2d(np.asarray(P, dtype=float))
    return float(x0 @ P @ x0)


def closed_loop_abscissa(sys: StochasticSystem, F) -> float:
    return spectral_abscissa(build_generator(sys, F))


def find_stabilizing_gain(sys: StochasticSystem, evidence=None):
    """Deterministic search for a gain with lift abscissa below -GAIN_MARGIN.

    Returns (F, abscissa), or None when no gain is found (the order of the
    search is in the module docstring); the evidence for that verdict
    goes into ``evidence`` when a dict is given.
    """
    n, m = sys.n, sys.m
    candidates = [np.zeros((m, n))]
    try:
        Pdet = solve_continuous_are(sys.A, sys.B, np.eye(n), np.eye(m))
        candidates.append(-sys.B.T @ Pdet)
    except np.linalg.LinAlgError:
        pass
    for F in candidates:
        alpha = closed_loop_abscissa(sys, F)
        if alpha < -GAIN_MARGIN:
            return F, alpha
    evidence = {} if evidence is None else evidence

    if sys.is_deterministic:
        # without noise the LQR gain stabilizes whenever the Hautus test
        # passes, so a failed LQR candidate leaves only the exact test
        if hautus_stabilizability(sys.A, sys.B):
            raise NumericalFailure(
                "the LQR gain does not stabilize although the Hautus test passes"
            )
        evidence["hautus"] = False
        return None

    # P = R^T R takes one square-root step per iterate, with the unit
    # running cost dt (|x|^2 + |u|^2) as the rows sqrt(dt) I
    M = step_maps(sys, VI_DT)
    riccati_step = sqrt_step(M, np.sqrt(VI_DT) * np.eye(m + n))
    R = np.zeros((n, n))
    rho = None
    for step in range(1, VI_MAX_STEPS + 1):
        R = riccati_step(R)[m:, m:]
        # max |P_ij| of P = R^T R >= 0 is its largest diagonal entry
        growth = float((R * R).sum(axis=0).max())
        capped = not growth <= VI_GROWTH_CAP
        # the capped iterate is tested too: on a stiff system the value can
        # pass the cap before the first periodic test
        if not (capped or step % VI_CHECK_EVERY == 0):
            continue
        P = R.T @ R
        F = feedback_gain(P, sys)
        alpha = closed_loop_abscissa(sys, F)
        if alpha < -GAIN_MARGIN:
            return F, alpha
        if not np.isfinite(growth):
            break
        lam, V = np.linalg.eigh(P)
        lam = lam / lam[-1]
        ranks = sorted({int((lam > t).sum()) for t in CERT_TRUNCATIONS}, reverse=True)
        for r in ranks:
            rho = _growth_factor(M, lam[n - r:], V[:, n - r:], V[:, : n - r])
            if rho is not None:
                break
        else:
            r = ranks[0]
        if rho is not None or capped:
            break
    else:
        raise NumericalFailure(
            f"value iteration reached neither a stabilizing gain, a growth "
            f"certificate nor the cap in {step} steps (value growth {growth:.3e})"
        )
    if np.isfinite(growth):
        # the gain of R0's minimiser at Q stands in for the gains of the
        # later iterates that the early stop skips
        S = np.sqrt(lam[n - r:])[:, None] * V[:, n - r:].T  # Q = S^T S
        F = _minimiser_gain(M, S)
        alpha = closed_loop_abscissa(sys, F)
        if alpha < -GAIN_MARGIN:
            return F, alpha
    evidence.update(
        evidence="cap" if rho is None else "certificate",
        value_iteration_steps=step,
        horizon=step * VI_DT,
        value_growth=growth,
    )
    if rho is not None:
        evidence.update(
            certificate_growth=rho, certificate_rank=r, certificate_Q=(S.T @ S).tolist()
        )
    return None


def _weighted_maps(M, S):
    """Stack the one-step maps S M_j; |S y|^2 is the Q-weighted norm of y."""
    n = S.shape[1]
    G = (S @ M).reshape(-1, M.shape[2])
    return G[:, :n], G[:, n:]


def _unit_columns(Y):
    """Drop the zero columns of Y and scale the rest to unit norm.

    Neither changes the range, so the least-squares residual stays the
    same; but a control acting at 1e-9 of the others' scale keeps its
    weight against rounding instead of falling under a rank cut.
    """
    norms = np.linalg.norm(Y, axis=0)
    used = norms > 0
    return Y[:, used] / norms[used], used, norms[used]


def _minimiser_gain(M, S):
    """The gain u = F x of R0's minimiser at Q = S^T S."""
    Gx, Gu = _weighted_maps(M, S)
    Y, used, norms = _unit_columns(Gu)
    F = np.zeros((Gu.shape[1], Gx.shape[1]))
    if used.any():
        F[used] = -np.linalg.lstsq(Y, Gx, rcond=None)[0] / norms[:, None]
    return F


def _growth_factor(M, lam, V, W):
    """Proved growth rho > 1 of R0 at Q = V diag(lam) V^T, or None.

    V (n x r) and W (n x (n - r)) are orthonormal and complementary, and
    0 < lam <= 1.  With x = V lam^(-1/2) w + W b, so that x^T Q x = |w|^2,
    R0(Q) >= rho Q says that min over (b, u) of |X w + Y [b; u]|^2 is at
    least rho |w|^2, where X and Y are the stacked maps lam^(1/2) V^T M_j
    applied to w and to the free directions (b, u).  So rho is the
    smallest squared singular value of X projected off range(Y).

    The projection is made without a rank cut: every left singular vector
    of the column-scaled Y is removed, which can only lower rho (sound).
    Rounding then moves rho by at most about eps (rows + n + m) |X|^2 for
    the products and the two singular value decompositions, times
    1 + 1/s_min for the turn of range(Y) under a columnwise relative
    perturbation of eps (the projector moves by |dY| / s_min, Stewart
    1977), where s_min is Y's smallest singular value and
    |X|^2 <= sum_j |M_j|^2 / min(lam).  rho is accepted only above 1 plus
    ``CERT_ROUNDING`` times that bound.  A Y that leaves fewer than r
    directions outside its range, or has s_min = 0, proves nothing.
    """
    n, r = V.shape
    Gx, Gu = _weighted_maps(M, np.sqrt(lam)[:, None] * V.T)
    X = Gx @ (V / np.sqrt(lam))
    Y, _, _ = _unit_columns(np.hstack([Gx @ W, Gu]))
    rows, k = Y.shape
    if rows - k < r:
        return None
    turn = 0.0
    if k:
        U, s, _ = np.linalg.svd(Y)
        if not s[-1] > 0:
            return None
        X = U[:, k:].T @ X
        turn = 1.0 / s[-1]
    rho = float(np.linalg.svd(X, compute_uv=False)[-1]) ** 2
    bound = np.finfo(float).eps * (rows + M.shape[2]) * float((M**2).sum()) / lam[0]
    if rho - CERT_ROUNDING * bound * (1.0 + turn) > 1.0:
        return rho
    return None


def _lyapunov_solve(sys: StochasticSystem, F) -> np.ndarray:
    """Solve (A+BF)^T P + P(A+BF) + sum (C+DF)^T P (C+DF) = -(I + F^T F).

    The operator is the adjoint of the second-moment lift, so its matrix
    is the transpose of build_generator(sys, F).L.
    """
    n = sys.n
    rhs = -vec(np.eye(n) + F.T @ F)
    try:
        P = unvec(np.linalg.solve(build_generator(sys, F).L.T, rhs), n)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"lifted Lyapunov solve is singular: {exc}") from exc
    return 0.5 * (P + P.T)


def solve_sare(sys: StochasticSystem):
    """Newton-Kleinman solve; returns RiccatiSolution or NotSolvable.

    The first gain, or the NotSolvable verdict, comes from
    ``find_stabilizing_gain``.  The iteration stops once the residual is
    below NEWTON_RTOL * max(1, |P|), and raises NumericalFailure when it
    stalls or ends outside the positive-definite stabilizing class.
    """
    evidence = {}
    found = find_stabilizing_gain(sys, evidence=evidence)
    if found is None:
        return NotSolvable(
            reason="no mean-square stabilizing gain found", diagnostics=evidence
        )

    F, _ = found
    for it in range(1, NEWTON_MAX_ITER + 1):
        P = _lyapunov_solve(sys, F)
        F = feedback_gain(P, sys)
        residual = float(np.linalg.norm(sare_residual(sys, P)))
        if residual < NEWTON_RTOL * max(1.0, float(np.linalg.norm(P))):
            break
    else:
        raise NumericalFailure(
            f"Newton iteration stalled at residual {residual:.3e}"
        )
    min_eig = float(np.linalg.eigvalsh(P)[0])
    alpha = closed_loop_abscissa(sys, F)
    if min_eig <= 0 or alpha >= 0:
        raise NumericalFailure(
            "Newton iteration ended outside the positive-definite stabilizing "
            f"class (min eigenvalue {min_eig:.3e}, abscissa {alpha:.3e})"
        )
    return RiccatiSolution(P=P, F=F, residual=residual, iterations=it, abscissa=alpha)
