"""Second-moment (Lyapunov) analysis on the n^2-dimensional lift.

For the closed loop dx = (A+BF)x dt + sum_i (C_i+D_iF)x dw_i the matrix
X(t) = E[x(t) x(t)^T] satisfies the linear ODE

    dX/dt = L X := (A+BF) X + X (A+BF)^T + sum_i (C_i+D_iF) X (C_i+D_iF)^T.

The lift L is a plain n^2 x n^2 array acting on X.ravel(), and
v.reshape(n, n) turns a lifted vector back into a matrix.  L and
nullcontrol's K-step lift both take their closed-loop maps from a
coefficient stack (``StochasticSystem.maps``, ``closed_loop``).
``lift(maps, F)`` builds L in one buffer of its d + 2 Kronecker terms,
kron(I, A+BF), kron(A+BF, I) and kron(C_i+D_iF, C_i+D_iF), filled by
three broadcast products whose factors of exact 1s and 0s leave every
entry as the Kronecker product gives it, and summed by one reduction in
that order.  ``build_generator`` checks a gain against a system and
calls it; the Riccati layer reads the stack once per solve and calls it
for each gain.  nullcontrol's lift adds sum_r kron(M_r, M_r) with
``kron_sum``.  The spectral abscissa of L (LAPACK dgeev) certifies
mean-square exponential stability, and the adjoint flow started from the
identity yields the tight growth constant

    c0(tau) = sup { E|x(tau; 0, x0)|^2 : E|x0|^2 = 1 } = lambda_max(S(tau)),
    dS/dt = A^T S + S A + sum_i C_i^T S C_i,  S(0) = I.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm
from scipy.linalg.lapack import dgeev

from .errors import InvalidConfig, NumericalFailure
from .systems import StochasticSystem


def closed_loop(maps: np.ndarray, F: np.ndarray) -> np.ndarray:
    """The closed-loop stack M_r [I; F] = M_r^x + M_r^u F, shape (s, n, n),
    of a stack of maps M_r (s, n, n + m) under the gain u = F x."""
    n = maps.shape[1]
    return maps[:, :, :n] + maps[:, :, n:] @ F


def kron_sum(stack: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out + sum_r kron(M_r, M_r), added to out in order: the lift of a stack
    (s, n, n) of maps X -> sum_r M_r X M_r^T on X.ravel()."""
    s, n, _ = stack.shape
    for term in np.einsum("jab,jcd->jacbd", stack, stack).reshape(s, n * n, n * n):
        out += term
    return out


def lift(maps: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Lift matrix L of X -> A_F X + X A_F^T + sum_i C_F,i X C_F,i^T for the
    closed-loop stack [A_F, C_F,1, ...] = closed_loop(maps, F).

    L is the sum, in this order, of kron(I, A_F), kron(A_F, I) and each
    kron(C_F,i, C_F,i): the terms fill one buffer by three products, and
    one reduction over its first axis adds them to 0 in order.  (numpy
    sums pairwise only along the innermost axis, which the first one
    becomes when n = 1: there 8 or more terms, d >= 6, are summed
    pairwise.)
    """
    r, n, _ = maps.shape
    cl = closed_loop(maps, F)
    I = np.eye(n)
    terms = np.empty((r + 1, n, n, n, n))
    np.multiply(I[:, None, :, None], cl[0, None, :, None, :], out=terms[0])
    np.multiply(cl[0, :, None, :, None], I[None, :, None, :], out=terms[1])
    np.multiply(cl[1:, :, None, :, None], cl[1:, None, :, None, :], out=terms[2:])
    return np.add.reduce(terms, axis=0).reshape(n * n, n * n)


def build_generator(sys: StochasticSystem, F=None) -> np.ndarray:
    """Lift matrix L of X -> A_cl X + X A_cl^T + sum_i C_cl,i X C_cl,i^T."""
    n = sys.n
    if F is None:
        F = np.zeros((sys.m, n))
    F = np.atleast_2d(np.asarray(F, dtype=float))
    if F.shape != (sys.m, n):
        raise InvalidConfig(f"gain shape {F.shape} != ({sys.m}, {n})")
    return lift(sys.maps, F)


def lift_spectrum(L: np.ndarray) -> np.ndarray:
    """The eigenvalues of the lift matrix, complex."""
    # LAPACK dgeev takes a NaN as an illegal argument, so it is caught first
    if not np.isfinite(L).all():
        raise NumericalFailure("eigen decomposition failed: lift matrix is not finite")
    wr, wi, _, _, info = dgeev(L, compute_vl=0, compute_vr=0)
    if info != 0:
        raise NumericalFailure(f"eigen decomposition failed (dgeev info {info})")
    return wr + 1j * wi


def spectral_abscissa(L: np.ndarray) -> float:
    """Largest real part over the spectrum of the lift matrix."""
    return float(lift_spectrum(L).real.max())


def propagate_second_moment(L: np.ndarray, X0, t: float) -> np.ndarray:
    """X(t) = exp(t L) X0 on the lift, symmetrized on return.

    trace(X(t)) equals E|x(t)|^2 when X0 = x0 x0^T.
    """
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    n = X0.shape[0]
    if X0.shape != (n, n) or L.shape != (n * n, n * n):
        raise InvalidConfig(f"X0 shape {X0.shape} does not match lift shape {L.shape}")
    Xt = (expm(t * L) @ X0.ravel()).reshape(n, n)
    return 0.5 * (Xt + Xt.T)


def adjoint_state(sys: StochasticSystem, tau: float) -> np.ndarray:
    """S(tau) of the open-loop adjoint flow dS/dt = A^T S + S A + sum C_i^T S C_i,
    S(0) = I.

    trace(S(tau) X0) = trace(X(tau)) for every initial second moment X0, so
    S(tau) converts terminal energy questions into a single matrix.  Under
    a gain the same flow is the lift certificate's W_T
    (``stabilizer.lift_certificate``).
    """
    n = sys.n
    S = (expm(tau * build_generator(sys).T) @ np.eye(n).ravel()).reshape(n, n)
    return 0.5 * (S + S.T)


def growth_constant_c0(sys: StochasticSystem, tau: float) -> float:
    """Tight constant c0(tau) = lambda_max(S(tau)); equals the supremum of
    trace(X(tau)) over unit-trace PSD initial moments."""
    if not tau > 0:
        raise InvalidConfig(f"tau must be positive, got {tau}")
    return float(np.linalg.eigvalsh(adjoint_state(sys, tau))[-1])
