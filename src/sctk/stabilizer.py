"""Infinite-horizon stabilization by two routes, and their reconciliation.

Route 1 (piecewise, exact): concatenate the interval synthesis.  Within
each interval of length T the state-linear control kernel is applied
fresh from the current state; at interval ends the recursion restarts.
This realizes the adapted concatenation of interval controls: per
interval the terminal second moment contracts by delta and the control
energy bill is a geometric series,

    E|x_k|^2 <= delta^k |x0|^2,
    total ||u||^2 <= c delta^{-1} c0(T) (1 - delta)^{-1} |x0|^2.

The closed-loop interval map X -> Phi(X) on second moments is linear
(nullcontrol._interval_map, the propagator behind the Theorem 5.1 check
too), so the moments, the energies and the contraction rate are exact:
E|x_k|^2 = tr Phi^k(x0 x0^T), and the spectral radius rho(Phi) <= delta
certifies the per-interval contraction.  rho(Phi) is the exact rate and
the only one reported; nothing is fitted to the records.  Phi and the
lift L of route 2 are plain n^2 x n^2 arrays on X.ravel().  Neither
route sweeps the tree, so no result here depends on its leaf count, and
the max_leaves budget (exit 3) that guards synthesize's per-node output
does not apply.

Route 2 (feedback): the constant Riccati gain.  The closed-loop second
moment evolves deterministically on the lift, so its quadratic cost needs
no sampling; the infinite-horizon cost is the exact lift integral

    J = integral_0^inf trace((I + F^T F) X(t)) dt = <P x0, x0> at the
    optimal gain.

Its finite-horizon energies are those of the lift certificate
(T, delta, c) (``lift_certificate``): over [0, T] the control u = F x
leaves E|x_T|^2 <= (delta / 2) |x0|^2 and spends E||u||^2 <=
lambda_max(W_F) |x0|^2, the approximate null controllability with cost
that stabilizability implies.

The equivalence harness reads the four verdicts (Riccati solvable,
feedback stabilizable, weakly observable, approximately null
controllable with cost) off one SARE solve, each from a witness of its
own: the solution, its gain's lift abscissa, and the same lift
certificate, a continuous-time observability pair (T, delta, c); or, for
all four, the evidence of NotSolvable.  No tree or (T, delta) grid
enters, so no verdict depends on a mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import NumericalFailure
from .moments import build_generator, lift_spectrum, spectral_abscissa
from .nullcontrol import ControlKernel, _interval_map
from .riccati import NotSolvable, solve_sare
from .systems import StochasticSystem

CERT_MAX_DOUBLINGS = 64  # bound on the doublings of the lift certificate's T


@dataclass(frozen=True)
class IntervalRecord:
    k: int
    msq: float  # E|x_k|^2 at the interval start
    energy: float  # E ||u_k||^2 over the interval
    cum_energy: float


@dataclass(frozen=True)
class StabilizerRun:
    records: tuple
    k_max: int
    delta: float
    c: float
    T: float
    interval_contraction: float  # spectral radius of the interval map Phi
    total_energy: float


def run_piecewise(kernel: ControlKernel, x0, k_max: int, paths: int = 0) -> StabilizerRun:
    """Exact second moments of the concatenated interval controls.

    The control at step t of every interval is the kernel's step-t gain
    applied to the current state, which keeps the concatenated control
    adapted.  The system and the step maps are the kernel's own
    (kernel.forms), and the moments are exact for the tree's driver,
    whatever its law.  ``paths`` is ignored; it remains for callers that bind it.
    The moments are computed for the unit direction x0 / |x0| and scaled
    by |x0|^2, so the records and energies do not depend on the scale of
    x0 through underflow.  interval_contraction = rho(Phi) is the exact
    per-interval rate of E|x_k|^2 = tr Phi^k(x0 x0^T).
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    Phi, e = _interval_map(kernel.forms, kernel.gains)
    trace = np.eye(kernel.forms.system.n).ravel()
    norm = math.hypot(*x0)
    xs2 = norm * norm
    unit = x0 / norm if norm > 0 else x0
    v = np.outer(unit, unit).ravel()
    records = []
    cum = 0.0
    for k in range(k_max + 1):
        msq = float(trace @ v)
        energy = xs2 * float(e @ v) if k < k_max else 0.0
        cum += energy
        records.append(IntervalRecord(k, xs2 * msq, energy, cum))
        v = Phi @ v
    return StabilizerRun(
        records=tuple(records),
        k_max=k_max,
        delta=kernel.delta,
        c=kernel.c,
        T=kernel.T,
        interval_contraction=float(np.max(np.abs(lift_spectrum(Phi)))),
        total_energy=cum,
    )


@dataclass(frozen=True)
class FeedbackRun:
    diverged: bool
    abscissa: float
    cost: float = None  # None when diverged


def run_riccati_feedback(sys: StochasticSystem, F, x0) -> FeedbackRun:
    """Exact infinite-horizon quadratic cost of a constant gain.

    With w = vec(I + F^T F), the cost integral of trace((I + F^T F) X(t))
    is -w^T L^{-1} vec(x0 x0^T) on the lift, finite when the abscissa
    alpha < 0.  It is computed for the unit direction x0 / |x0| and scaled
    by |x0|^2, so it does not depend on the scale of x0 through underflow;
    at x0 = 0 it is 0.  A gain with alpha >= 0 diverges and has no cost.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    L = build_generator(sys, F)
    alpha = spectral_abscissa(L)
    if alpha >= 0:
        return FeedbackRun(diverged=True, abscissa=alpha)
    norm = math.hypot(*x0)
    unit = x0 / norm if norm > 0 else x0
    w = (np.eye(sys.n) + F.T @ F).ravel()
    cost = float(-np.linalg.solve(L.T, w) @ np.outer(unit, unit).ravel())
    return FeedbackRun(diverged=False, abscissa=alpha, cost=norm * norm * cost)


def lift_certificate(sys: StochasticSystem, F, delta: float) -> dict:
    """The lift certificate (T, delta, c) of the control u = F x.

    Over [0, T] that control leaves E|x_T|^2 = x0^T W_T x0 and spends
    E||u||^2 = x0^T W_F x0, with W_T = e^{T L^T} vec I, the adjoint flow
    from I under F, and W_F = (e^{T L^T} - I) L^{-T} vec(F^T F), L the
    closed-loop lift; so min_u ||u||^2 / c + E|x_T|^2 / delta <= |x0|^2 at
    c = lambda_max(W_F) / (1 - lambda_max(W_T) / delta).  T starts at the
    lift's own time scale 1 / (-alpha) and doubles until
    lambda_max(W_T) <= delta / 2, one e^{T L^T} per T serving W_T and W_F;
    past CERT_MAX_DOUBLINGS doublings, or at a gain with alpha >= 0, that
    is a NumericalFailure.  No x0, tree, grid or time unit enters.
    Returned as the witness dict (kind "lift", T, delta, c, terminal =
    lambda_max(W_T), control = lambda_max(W_F)); delta lies in (0, 1).
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    L = build_generator(sys, F)
    alpha = spectral_abscissa(L)
    if not alpha < 0:
        raise NumericalFailure(f"the gain does not stabilize: lift abscissa {alpha:.6g}")
    n = sys.n
    eye = np.eye(n).ravel()
    y = np.linalg.solve(L.T, (F.T @ F).ravel())
    T = 1.0 / -alpha
    for _ in range(CERT_MAX_DOUBLINGS):
        flow = expm(T * L.T)
        W_T = (flow @ eye).reshape(n, n)
        terminal = float(np.linalg.eigvalsh(0.5 * (W_T + W_T.T))[-1])
        if terminal <= delta / 2.0:
            break
        T *= 2.0
    else:
        raise NumericalFailure(
            f"terminal energy under the gain stays above delta / 2 at T = {T:.6g}"
        )
    W_F = (flow @ y - y).reshape(n, n)
    control = max(0.0, float(np.linalg.eigvalsh(0.5 * (W_F + W_F.T))[-1]))
    return {"kind": "lift", "T": T, "delta": delta, "c": control / (1.0 - terminal / delta),
            "terminal": terminal, "control": control}


VERDICTS = (
    "riccati_solvable",
    "feedback_stabilizable",
    "weakly_observable",
    "null_controllable_with_cost",
)


@dataclass(frozen=True)
class EquivalenceReport:
    riccati_solvable: bool
    feedback_stabilizable: bool
    weakly_observable: bool
    null_controllable_with_cost: bool
    agreement: bool
    witness: dict  # verdict name -> what it was read off, its "kind" first

    @property
    def verdicts(self) -> tuple:
        return tuple(getattr(self, name) for name in VERDICTS)


def equivalence_harness(sys: StochasticSystem, delta: float) -> EquivalenceReport:
    """The four verdicts of one system, each read off a witness.

    One solve_sare call decides them all.  When it solves: (a) the SARE
    solution P, with its residual and Newton iterations; (b) its gain F,
    whose closed-loop lift has abscissa alpha < 0; (c) weak observability
    and (d) null controllability with cost: ``lift_certificate``'s
    (T, delta, c) of the control u = F x, the same dict for both.  No
    tree, grid or time unit enters.

    When solve_sare returns NotSolvable, all four are False and carry its
    evidence.  Under an H(Q) >= 0 certificate ("certificate") E x^T Q x
    never decreases, so from a top eigenvector x0 of Q, E|x_T|^2 >= |x0|^2
    under every control; an uncontrollable unstable mode ("hautus") does
    the same.  A stalled continuation ("cap") is not a proof.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    sol = solve_sare(sys)
    if isinstance(sol, NotSolvable):
        evidence = dict(sol.diagnostics)
        witness = dict(kind=evidence.pop("evidence", "hautus"), **evidence)
        return EquivalenceReport(False, False, False, False, True,
                                 dict.fromkeys(VERDICTS, witness))

    lift = lift_certificate(sys, sol.F, delta)
    witness = {
        "riccati_solvable": {"kind": "sare", "P": sol.P, "residual": sol.residual,
                             "iterations": sol.iterations},
        "feedback_stabilizable": {"kind": "gain", "F": sol.F, "abscissa": sol.abscissa},
        "weakly_observable": lift,
        "null_controllable_with_cost": lift,
    }
    verdicts = (True, sol.abscissa < 0, True, True)
    return EquivalenceReport(*verdicts, len(set(verdicts)) == 1, witness)
