"""Infinite-horizon stochastic algebraic Riccati equation (SARE).

The coefficients come from the system's stack ``StochasticSystem.maps``
of M_0 = [A, B] and M_i = [C_i, D_i] over [x; u].  For symmetric Q
(``_h_form``)

    H(Q) = [I, 0]^T Q M_0 + M_0^T Q [I, 0] + sum_i M_i^T Q M_i
         = [[A^T Q + Q A + sum_i C_i^T Q C_i,  Q B + sum_i C_i^T Q D_i],
            [(Q B + sum_i C_i^T Q D_i)^T,      sum_i D_i^T Q D_i]],

and d/dt E x^T Q x = E [x; u]^T H(Q) [x; u] under every adapted control
u.  The Riccati operator has one coding, ``_riccati``: with
G = H(P) + I it is the Schur complement G_xx - G_xu G_uu^{-1} G_ux, and
F = -G_uu^{-1} G_ux is its gain.  The SARE sets the operator to 0; its
unique positive-definite solution gives the optimal value x0^T P x0 of
the unit-weight quadratic cost and the stabilizing feedback F.

Solved by Newton-Kleinman iteration: given a mean-square-stabilizing gain
F_k, the generalized Lyapunov equation

    (A+BF_k)^T P + P (A+BF_k) + sum_i (C_i+D_iF_k)^T P (C_i+D_iF_k)
      + I + F_k^T F_k = 0

is one linear solve on the n^2 lift, and one H form of its solution
gives both F_{k+1} and the residual.

The matrices are small (a lift is n^2 x n^2), so each step is one numpy
or LAPACK call: ``solve_sare`` and ``find_stabilizing_gain`` read the
stack once and build each gain's lift with ``moments.lift``; its
spectrum is dgeev, the Lyapunov and gain solves dgesv, the LQR Schur
form dgees, and the eigenvalues of H(Q) and of P ``moments.eigvalsh``
(dsyevd).  A residual's Frobenius norm is numpy's own sqrt of x . x.
The search returns the lift of the gain it accepts, and Newton's first
Lyapunov solve reuses it.

The first stabilizing gain comes from a deterministic search with no
seed: the zero gain, then, only when the zero gain fails, the
deterministic LQR gain, which stabilizes a noise-free system whenever one
can be stabilized, so there the exact Hautus test gives the verdict.
``_lqr_gain`` computes it by Laub's method (IEEE TAC 24(6), 1979): the
ordered real Schur form of the Hamiltonian [[A, -B B^T], [-I, -A^T]],
stable eigenvalues first, gives P = U_21 U_11^{-1}.  A noisy system goes
on to Newton-Kleinman continued in a shift beta: the system
(A - beta I, B, C, D) has the lift L_F - 2 beta I, so the zero gain
stabilizes it at beta_0 = max(0, alpha_0 / 2) + rho_0, from the abscissa
and spectral radius of the zero-gain lift.  Each shift takes one Kleinman
step from the current gain, which stabilizes the shifted system, so P > 0
and the next gain stabilizes it too (Damm and Hinrichsen, LAA 332-334,
2001); at the next gain's shifted abscissa a < 0 the shift moves to
beta + 0.45 a, clipped at 0, where that gain leaves the abscissa a / 10.

Every verdict is read off an exact test after each step, a gain by its
lift abscissa (below -``GAIN_MARGIN`` rho_0) and NotSolvable by the
eigenvalues of H(Q) at Q = P / max|P_ij|; the continuation only changes
which gains and Q are tried.
H(Q) >= 0 keeps E x^T Q x from decreasing, so from any x0 with
x0^T Q x0 > 0 no control, feedback or not, drives E|x|^2 to 0
(``evidence: "certificate"``; the dual side of the LMI test of Ait Rami
and Zhou, IEEE TAC 45(6), 2000).  The test has no step size, so
stiffness cannot fool it.  A step below ``SHIFT_RTOL`` times beta_0
stalls the continuation at a shift beta* >= 0, about half the least lift
abscissa the gains reached: after the gain of H(Q)'s minimiser over u
fails, that stall is the evidence (``evidence: "cap"``), which is not a
proof.  Both stops are relative to beta_0, the gain margin to rho_0 and
the Newton stop to the terms the residual cancels, so no time unit
enters.
``NumericalFailure`` (not a verdict) is raised when a shifted solve is
singular or not finite, when the continuation takes more than
``NEWTON_MAX_ITER`` steps, or when Newton-Kleinman stalls or ends outside
the positive-definite stabilizing class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgees, dgesv

from .errors import NumericalFailure
from .moments import build_generator, eigvalsh, lift, lift_spectrum, spectral_abscissa
from .systems import StochasticSystem, hautus_stabilizability

GAIN_MARGIN = 1e-9  # a gain stabilizes at lift abscissa below -GAIN_MARGIN * rho_0
NEWTON_RTOL = 1e-12  # Newton stops at residual below NEWTON_RTOL * its terms
NEWTON_MAX_ITER = 100  # bound on the Newton steps of the solve and of the continuation
SHIFT_RTOL = 1e-9  # the continuation stalls at a shift step below SHIFT_RTOL * beta_0
CERT_ROUNDING = 64.0  # safety factor on the rounding bound of the certificate


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
    """Residual matrix of the algebraic Riccati operator at symmetric P."""
    return _riccati(sys.maps, np.atleast_2d(np.asarray(P, dtype=float)))[0]


def feedback_gain(P, sys: StochasticSystem) -> np.ndarray:
    """F = -(I + sum D_i^T P D_i)^{-1} (B^T P + sum D_i^T P C_i), P symmetric."""
    return _riccati(sys.maps, np.atleast_2d(np.asarray(P, dtype=float)))[1]


def lq_value(P, x0) -> float:
    """Optimal quadratic cost <P x0, x0> from a deterministic initial state."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    P = np.atleast_2d(np.asarray(P, dtype=float))
    return float(x0 @ P @ x0)


def closed_loop_abscissa(sys: StochasticSystem, F) -> float:
    return spectral_abscissa(build_generator(sys, F))


def find_stabilizing_gain(sys: StochasticSystem, evidence=None):
    """Deterministic search for a gain with lift abscissa below
    -GAIN_MARGIN * rho_0, rho_0 the spectral radius of the zero-gain lift.

    Returns (F, abscissa, L), L the lift of F, or None when no gain is
    found (the order of the search is in the module docstring); the
    evidence for that verdict goes into ``evidence`` when a dict is given.
    """
    n = sys.n
    maps = sys.maps
    L = lift(maps, np.zeros((sys.m, n)))
    spectrum = lift_spectrum(L)
    alpha = float(spectrum.real.max())
    # the system's own rate; a lift whose spectrum is {0} has none
    rho0 = float(np.abs(spectrum).max()) or 1.0
    stable_below = -GAIN_MARGIN * rho0
    if alpha < stable_below:
        return np.zeros((sys.m, n)), alpha, L
    # the first shift of the continuation below: the zero gain stabilizes there
    beta0 = max(0.0, alpha / 2.0) + rho0
    F = _lqr_gain(sys.A, sys.B)
    if F is not None:
        LF = lift(maps, F)  # L stays the zero-gain lift the continuation starts from
        alpha = spectral_abscissa(LF)
        if alpha < stable_below:
            return F, alpha, LF
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

    # shift continuation from the zero gain (module docstring)
    F = np.zeros((sys.m, n))
    beta = beta0
    for _ in range(NEWTON_MAX_ITER):
        # one Kleinman step on the system shifted by beta, whose lift under F
        # is L - 2 beta I: F stabilizes it, so P > 0
        L.flat[:: n * n + 1] -= 2.0 * beta
        P = _lyapunov_solve(sys, F, L)
        growth = float(np.abs(P).max())
        F = _riccati(maps, P)[1]  # the shift moves only H's x-block
        L = lift(maps, F)
        alpha = spectral_abscissa(L)
        if alpha < stable_below:
            return F, alpha, L
        Q = P / growth
        H = _h_form(maps, Q)
        margin = _certificate_margin(maps, Q, H)
        # F stabilizes the system shifted by beta at abscissa a = alpha -
        # 2 beta < 0; 45 % of the way to a leaves it the abscissa a / 10,
        # and an a >= 0 from rounding is a stall
        step = -0.45 * (alpha - 2.0 * beta)
        if margin is not None or step < SHIFT_RTOL * beta0:
            break
        beta = max(0.0, beta - step)
    else:
        raise NumericalFailure(
            f"shift continuation reached neither a stabilizing gain, a certificate "
            f"nor a stall in {NEWTON_MAX_ITER} steps (shift {beta:.6g})"
        )
    if margin is None:
        # at the stall, the gain of H(Q)'s minimiser over u can stabilize
        # where the continuation's gain does not
        F = _minimiser_gain(H, n)
        L = lift(maps, F)
        alpha = spectral_abscissa(L)
        if alpha < stable_below:
            return F, alpha, L
    evidence.update(
        evidence="cap" if margin is None else "certificate",
        shift=beta,
        value_growth=growth,
    )
    if margin is not None:
        evidence.update(certificate_margin=margin, certificate_Q=Q.tolist())
    return None


def _lhp(wr, wi):
    """dgees' select: the eigenvalue wr + i wi is in the open left half-plane."""
    return wr < 0.0


def _no_sort(wr, wi):
    """dgees' select for the workspace query, which orders nothing."""
    return None


def _lqr_gain(A, B):
    """The deterministic LQR gain -B^T P of unit weights, or None.

    P = U_21 U_11^{-1} from the ordered real Schur form of the Hamiltonian
    [[A, -B B^T], [-I, -A^T]] whose leading n columns U span its stable
    invariant subspace (Laub, IEEE TAC 24(6), 1979).  LAPACK's dgees
    orders the form as scipy's schur(sort="lhp") does, with the same
    workspace query.  None when dgees cannot order the form (info > 0),
    when it has not n stable eigenvalues, or when U_11 is singular: then
    there is no stabilizing LQR solution to try.
    """
    n = len(A)
    H = np.empty((2 * n, 2 * n))
    H[:n, :n], H[:n, n:], H[n:, :n], H[n:, n:] = A, -B @ B.T, -np.eye(n), -A.T
    if not np.isfinite(H).all():
        raise ValueError("array must not contain infs or NaNs")
    lwork = int(dgees(_no_sort, H, lwork=-1)[-2][0])
    _, stable, _, _, U, _, info = dgees(_lhp, H, lwork=lwork, sort_t=1)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gees")
    if info > 0 or stable != n:
        return None
    # P U_11 = U_21, solved transposed: U_11^T P^T = U_21^T
    _, _, Pt, info = dgesv(U[:n, :n].T, U[n:, :n].T)
    if info != 0:
        return None
    return -B.T @ (0.5 * (Pt + Pt.T))


def _h_form(maps, Q) -> np.ndarray:
    """H(Q) over the coefficient stack maps (module docstring)."""
    n = maps.shape[1]
    QM = Q @ maps[0]
    H = (maps[1:].transpose(0, 2, 1) @ Q @ maps[1:]).sum(axis=0)
    H[:n] += QM
    H[:, :n] += QM.T
    return H


def _riccati(maps, P):
    """(G_xx - G_xu G_uu^{-1} G_ux, -G_uu^{-1} G_ux, G) at G = H(P) + I: the
    Riccati operator at symmetric P, its gain and G (module docstring)."""
    n, k = maps.shape[1:]
    G = _h_form(maps, P)
    G.flat[:: k + 1] += 1.0
    _, _, X, info = dgesv(G[n:, n:], G[n:, :n])
    if info != 0:
        raise NumericalFailure(f"gain matrix I + sum D^T P D is singular (dgesv info {info})")
    return G[:n, :n] - G[:n, n:] @ X, -X, G


def _unit_columns(H, n):
    """Drop H's zero u-columns (and rows) and scale the rest to unit diagonal.

    Returns (S H S, s, used): used marks the u-columns kept and s their
    scales.  Neither step changes whether H >= 0 nor the minimiser over
    the controls kept; but a control acting at 1e-9 of the others' scale
    keeps its weight against rounding instead of falling under a rank
    cut.  A kept u-column whose diagonal is not positive stays unscaled
    (H is then not >= 0).
    """
    used = H[:, n:].any(axis=0)
    if used.all():
        Hs = H.copy()
    else:
        keep = np.concatenate([np.arange(n), n + np.flatnonzero(used)])
        Hs = H[np.ix_(keep, keep)]
    d = Hs.diagonal()[n:]
    s = 1.0 / np.sqrt(np.where(d > 0, d, 1.0))
    Hs[n:] *= s[:, None]
    Hs[:, n:] *= s
    return Hs, s, used


def _minimiser_gain(H, n):
    """The gain u = F x of the minimiser over u of [x; u]^T H [x; u],
    F = -H_uu^+ H_ux in the units of ``_unit_columns``."""
    Hs, s, used = _unit_columns(H, n)
    F = np.zeros((len(H) - n, n))
    F[used] = -s[:, None] * np.linalg.lstsq(Hs[n:, n:], Hs[n:, :n], rcond=None)[0]
    return F


def _certificate_margin(maps, Q, H):
    """lambda_min / |H| of the scaled H = S H(Q) S of ``_unit_columns``
    when it proves H(Q) >= 0, else None.

    H is the same form over the maps M_r S, so each entry is a sum of
    2 + d triple products with two inner products of length n, scaled
    once more by S: the computed H is off by at most gamma_(2n + d + 4)
    times the form in |Q| and |M_r S|, whose Frobenius norm (which also
    bounds |H|_2) is at most |Q|_F (2 |M_0 S|_F + sum_i |M_i S|_F^2).
    With eigh's backward error of about eps (n + m) |H|_2, Weyl's
    inequality puts the computed lambda_min within eps (3n + m + d + 4)
    times that norm bound of the exact one, to first order; it must
    clear ``CERT_ROUNDING`` times that.
    """
    r, n, _ = maps.shape  # r = 1 + d
    Hs, s, used = _unit_columns(H, n)
    lam = eigvalsh(Hs)
    if not lam[0] > 0:  # the bound is >= 0
        return None
    scaled = np.concatenate([maps[:, :, :n], maps[:, :, n:][:, :, used]], axis=2)
    scaled[:, :, n:] *= s
    bound = np.finfo(float).eps * (3 * n + len(s) + r + 3) * _frobenius(Q) * _size(scaled)
    if lam[0] > CERT_ROUNDING * bound:
        return float(lam[0] / lam[-1])
    return None


def _size(maps) -> float:
    """2 |M_0|_F + sum_i |M_i|_F^2 of a stack M_r: |Q|_F times it bounds
    the Frobenius norm of the terms Q M_0, M_0^T Q and M_i^T Q M_i."""
    norms = np.linalg.norm(maps, axis=(1, 2))
    return 2.0 * norms[0] + float((norms[1:] ** 2).sum())


def _frobenius(X) -> float:
    """np.linalg.norm(X) of a C-ordered X, by numpy's own dot of X.ravel()."""
    x = X.ravel()
    return math.sqrt(x.dot(x))


def _lyapunov_solve(sys: StochasticSystem, F, L=None) -> np.ndarray:
    """Solve (A+BF)^T P + P(A+BF) + sum (C+DF)^T P (C+DF) = -(I + F^T F).

    The operator is the adjoint of the second-moment lift, so its matrix
    is the transpose of L = build_generator(sys, F), or of the lift L
    given: Newton's, or the continuation's, shifted.
    """
    n = sys.n
    rhs = -(np.eye(n) + F.T @ F).ravel()
    L = build_generator(sys, F) if L is None else L
    _, _, x, info = dgesv(L.T, rhs)
    if info != 0 or not np.isfinite(x).all():
        raise NumericalFailure(
            f"lifted Lyapunov solve is singular or not finite (dgesv info {info})"
        )
    P = x.reshape(n, n)
    return 0.5 * (P + P.T)


def solve_sare(sys: StochasticSystem):
    """Newton-Kleinman solve; returns RiccatiSolution or NotSolvable.

    The first gain and its lift, or the NotSolvable verdict, come from
    ``find_stabilizing_gain``; the first Lyapunov solve reuses that lift.
    The iteration stops once the residual is below
    NEWTON_RTOL (|H(P) + I|_F + |P|_F (2 |A|_F + sum_i |C_i|_F^2)),
    the size of the terms it cancels, which a change of time unit scales
    alike: where A^T P + P A cancels to about -I (a slow stable mode), the
    second term is the size of A^T P.  It leaves out B and D, whose
    terms enter the residual through G_xu G_uu^{-1} G_ux, whose size does
    not grow with the unit of the control.  It raises NumericalFailure
    when the iteration stalls or ends outside the positive-definite
    stabilizing class.
    """
    evidence = {}
    found = find_stabilizing_gain(sys, evidence=evidence)
    if found is None:
        return NotSolvable(
            reason="no mean-square stabilizing gain found", diagnostics=evidence
        )

    F, _, L = found
    maps = sys.maps
    size = _size(maps[:, :, : sys.n])  # [A, C_1, ..., C_d]
    for it in range(1, NEWTON_MAX_ITER + 1):
        P = _lyapunov_solve(sys, F, L)
        R, F, G = _riccati(maps, P)
        residual = _frobenius(R)
        if residual < NEWTON_RTOL * (_frobenius(G) + _frobenius(P) * size):
            break
        L = lift(maps, F)
    else:
        raise NumericalFailure(
            f"Newton iteration stalled at residual {residual:.3e}"
        )
    min_eig = float(eigvalsh(P)[0])
    alpha = spectral_abscissa(lift(maps, F))
    if min_eig <= 0 or alpha >= 0:
        raise NumericalFailure(
            "Newton iteration ended outside the positive-definite stabilizing "
            f"class (min eigenvalue {min_eig:.3e}, abscissa {alpha:.3e})"
        )
    return RiccatiSolution(P=P, F=F, residual=residual, iterations=it, abscissa=alpha)
