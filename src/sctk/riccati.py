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

The first stabilizing gain comes from a deterministic search with no
seed: the zero gain, then, only when the zero gain fails, the
deterministic LQR gain, which stabilizes a noise-free system whenever one
can be stabilized, so there the exact Hautus test gives the verdict.
``_lqr_gain`` computes it by Laub's method (IEEE TAC 24(6), 1979): the
ordered real Schur form of the Hamiltonian [[A, -B B^T], [-I, -A^T]],
stable eigenvalues first, gives P = U_21 U_11^{-1}.  A noisy system goes
on to value iteration on the Riccati ODE of the same problem: from
P(0) = 0, dP/dt is the Riccati operator at P.  x0^T P(t) x0 is the least
cost over a horizon t, and P(t) rises to the SARE solution exactly when
the SDE is mean-square stabilizable.  LSODA steps it at rtol ``VI_RTOL``; at
t = 1, 2, 4, ... ``VI_HORIZON`` and once max|P_ij| passes
``VI_GROWTH_CAP``, the gain of P is tested on the lift, and H(Q) >= 0 is
tested at Q = P / max|P_ij|.

Every verdict is read off an exact test, a gain by its lift abscissa and
NotSolvable by the eigenvalues of H(Q); the ODE's error only changes
which gains and which Q are tried.  H(Q) >= 0 keeps E x^T Q x from
decreasing, so from any x0 with x0^T Q x0 > 0 no control, feedback or
not, drives E|x|^2 to 0 (``evidence: "certificate"``; the dual side of
the LMI test of Ait Rami and Zhou, IEEE TAC 45(6), 2000).  The test has
no step size, so stiffness cannot fool it.  When no certificate is found
before the value passes the cap, growth past the cap is the evidence
(``evidence: "cap"``), which is not a proof; the gain of H(Q)'s
minimiser over u is tested first, as a stabilizing gain can need a value
above the cap.  ``NumericalFailure`` (not a verdict) is raised when
value iteration reaches neither a gain, a certificate nor the cap by
``VI_HORIZON``, or when Newton-Kleinman stalls or ends outside the
positive-definite stabilizing class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import schur
from scipy.linalg.lapack import dgesv

from .errors import NumericalFailure
from .moments import build_generator, spectral_abscissa
from .systems import StochasticSystem, hautus_stabilizability

GAIN_MARGIN = 1e-9  # a gain stabilizes when its lift abscissa is below -GAIN_MARGIN
NEWTON_RTOL = 1e-12  # Newton stops at residual below NEWTON_RTOL * max(1, |P|)
NEWTON_MAX_ITER = 100
VI_RTOL = 1e-3  # relative tolerance of the value iteration's ODE solve
VI_GROWTH_CAP = 1e9  # largest |P_ij| below which the value counts as bounded
VI_HORIZON = 2048.0  # last time of the value iteration, a power of two
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
    """Deterministic search for a gain with lift abscissa below -GAIN_MARGIN.

    Returns (F, abscissa), or None when no gain is found (the order of the
    search is in the module docstring); the evidence for that verdict
    goes into ``evidence`` when a dict is given.
    """
    n = sys.n
    F = np.zeros((sys.m, n))
    alpha = closed_loop_abscissa(sys, F)
    if alpha < -GAIN_MARGIN:
        return F, alpha
    F = _lqr_gain(sys.A, sys.B)
    if F is not None:
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

    # continuous value iteration and the H(Q) certificate (module
    # docstring); LSODA is imported only where a noisy system needs it
    from scipy.integrate import LSODA

    maps = sys.maps

    def rhs(t, p):
        # the Riccati operator at the symmetric part of P: the solver's
        # rounding would otherwise feed an asymmetric drift
        P = p.reshape(n, n)
        return _riccati(maps, 0.5 * (P + P.T))[0].ravel()

    ode = LSODA(rhs, 0.0, np.zeros(n * n), VI_HORIZON, rtol=VI_RTOL)
    check = 1.0
    while ode.status == "running":
        message = ode.step()
        P = ode.y.reshape(n, n)
        growth = float(np.abs(P).max())
        if ode.status == "failed" or not np.isfinite(growth):
            raise NumericalFailure(
                f"value iteration failed at t = {ode.t:.4g}: {message or 'value not finite'}"
            )
        capped = growth > VI_GROWTH_CAP
        if not (capped or ode.t >= check):
            continue
        while check <= ode.t:
            check *= 2.0
        F = _riccati(maps, 0.5 * (P + P.T))[1]
        alpha = closed_loop_abscissa(sys, F)
        if alpha < -GAIN_MARGIN:
            return F, alpha
        Q = (P + P.T) / (2.0 * growth)
        H = _h_form(maps, Q)
        margin = _certificate_margin(maps, Q, H)
        if margin is not None or capped:
            break
    else:
        raise NumericalFailure(
            f"value iteration reached neither a stabilizing gain, a certificate "
            f"nor the cap by t = {ode.t:.4g} (value growth {growth:.3e})"
        )
    if margin is None:
        # past the cap, the gain of H(Q)'s minimiser over u can stabilize
        # where the gain of the capped value does not
        F = _minimiser_gain(H, n)
        alpha = closed_loop_abscissa(sys, F)
        if alpha < -GAIN_MARGIN:
            return F, alpha
    evidence.update(
        evidence="cap" if margin is None else "certificate",
        horizon=ode.t,
        value_growth=growth,
    )
    if margin is not None:
        evidence.update(certificate_margin=margin, certificate_Q=Q.tolist())
    return None


def _lqr_gain(A, B):
    """The deterministic LQR gain -B^T P of unit weights, or None.

    P = U_21 U_11^{-1} from the ordered real Schur form of the Hamiltonian
    [[A, -B B^T], [-I, -A^T]] whose leading n columns U span its stable
    invariant subspace (Laub, IEEE TAC 24(6), 1979).  None when schur
    cannot order the form, when it has not n stable eigenvalues, or when
    U_11 is singular: then there is no stabilizing LQR solution to try.
    """
    n = len(A)
    H = np.block([[A, -B @ B.T], [-np.eye(n), -A.T]])
    try:
        _, U, stable = schur(H, sort="lhp")
    except np.linalg.LinAlgError:
        return None
    if stable != n:
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
    """(G_xx - G_xu G_uu^{-1} G_ux, -G_uu^{-1} G_ux) at G = H(P) + I: the
    Riccati operator at symmetric P and its gain (module docstring)."""
    n, k = maps.shape[1:]
    G = _h_form(maps, P)
    G.flat[:: k + 1] += 1.0
    _, _, X, info = dgesv(G[n:, n:], G[n:, :n])
    if info != 0:
        raise NumericalFailure(f"gain matrix I + sum D^T P D is singular (dgesv info {info})")
    return G[:n, :n] - G[:n, n:] @ X, -X


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
    d = H.diagonal()[n:][used]
    s = 1.0 / np.sqrt(np.where(d > 0, d, 1.0))
    keep = np.concatenate([np.arange(n), n + np.flatnonzero(used)])
    w = np.concatenate([np.ones(n), s])
    return w[:, None] * H[np.ix_(keep, keep)] * w, s, used


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
    lam = np.linalg.eigvalsh(Hs)
    scaled = np.concatenate([maps[:, :, :n], maps[:, :, n:][:, :, used] * s], axis=2)
    norms = np.linalg.norm(scaled, axis=(1, 2))
    size = 2.0 * norms[0] + float((norms[1:] ** 2).sum())
    bound = np.finfo(float).eps * (3 * n + len(s) + r + 3) * np.linalg.norm(Q) * size
    if lam[0] > CERT_ROUNDING * bound:
        return float(lam[0] / lam[-1])
    return None


def _lyapunov_solve(sys: StochasticSystem, F) -> np.ndarray:
    """Solve (A+BF)^T P + P(A+BF) + sum (C+DF)^T P (C+DF) = -(I + F^T F).

    The operator is the adjoint of the second-moment lift, so its matrix
    is the transpose of build_generator(sys, F).
    """
    n = sys.n
    rhs = -(np.eye(n) + F.T @ F).ravel()
    _, _, x, info = dgesv(build_generator(sys, F).T, rhs)
    if info != 0 or not np.isfinite(x).all():
        raise NumericalFailure(
            f"lifted Lyapunov solve is singular or not finite (dgesv info {info})"
        )
    P = x.reshape(n, n)
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
    maps = sys.maps
    for it in range(1, NEWTON_MAX_ITER + 1):
        P = _lyapunov_solve(sys, F)
        R, F = _riccati(maps, P)
        residual = float(np.linalg.norm(R))
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
