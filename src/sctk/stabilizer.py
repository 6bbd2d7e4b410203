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
moment evolves deterministically on the lift, so the decay curve and the
quadratic cost need no sampling; the infinite-horizon cost is the exact
lift integral

    J = integral_0^inf trace((I + F^T F) X(t)) dt = <P x0, x0> at the
    optimal gain,

reported together with a certified exponential tail bound from the
closed-loop abscissa.

The equivalence harness reads the four verdicts (Riccati solvable,
feedback stabilizable, weakly observable, approximately null
controllable with cost) off one SARE solve, each from a witness of its
own: the solution, its gain's lift abscissa, and the continuous-time
observability pair (T, delta, c) that the gain's lift certifies; or, for
all four, the evidence of NotSolvable.  No tree or (T, delta) grid
enters, so no verdict depends on a mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import NumericalFailure
from .moments import adjoint_state, build_generator, spectral_abscissa
from .nullcontrol import ControlKernel, _interval_map
from .riccati import NotSolvable, solve_sare
from .systems import StochasticSystem

DIVERGED_T_MAX = 10.0  # length of the reported curve of a diverging gain
TAIL_RTOL = 1e-4  # the cost's tail bound must fall below TAIL_RTOL * cost
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
        interval_contraction=float(np.max(np.abs(np.linalg.eigvals(Phi)))),
        total_energy=cum,
    )


@dataclass(frozen=True)
class FeedbackRun:
    diverged: bool
    abscissa: float
    times: np.ndarray
    msq_curve: np.ndarray  # trace X(t) on the report grid
    cost: float = None  # None when diverged
    cost_to_t_max: float = None
    tail: float = None
    tail_bound: float = None
    t_max: float = None
    # measured feedback-control norm over [0, T] per unit |x0| and the
    # decay-constant bound |F|^2 c(alpha) (1 - e^{-alpha T}) / alpha on its
    # square; only the inequality direction is guaranteed
    control_norm_T: dict = None


def _msq_curve(L, X0, times, dt_report) -> np.ndarray:
    """trace X(t) on the report times, stepping the lift flow by dt_report."""
    step = expm(dt_report * L)
    n = X0.shape[0]
    v = X0.ravel()
    curve = []
    for _ in times:
        curve.append(float(np.trace(v.reshape(n, n))))
        v = step @ v
    return np.array(curve)


def run_riccati_feedback(sys: StochasticSystem, F, x0, dt_report: float = 0.1) -> FeedbackRun:
    """Exact second-moment decay curve and quadratic cost of a constant gain.

    The curve is the lift flow applied to x0 x0^T; the cost integral has
    the closed form w^T L^{-1}(e^{tL} - I) v on the lift, evaluated to
    t_max and completed by the exact tail, with a certified bound
    ||I+F^TF|| sqrt(n) kappa(V) ||X(t_max)||_F / (-alpha) reported
    alongside (kappa from the lift eigenbasis); t_max grows until that
    bound is below TAIL_RTOL times the cost.  Everything is computed for
    the unit direction x0 / |x0| and scaled by |x0|^2, so neither the
    curve nor t_max depends on the scale of x0 through underflow; at
    x0 = 0 the curve, the costs and the per-unit control norms are 0.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    L = build_generator(sys, F)
    alpha = spectral_abscissa(L)
    norm = math.hypot(*x0)
    unit = x0 / norm if norm > 0 else x0
    xs2 = norm * norm
    X0 = np.outer(unit, unit)
    n = sys.n

    if alpha >= 0:
        times = np.arange(0.0, DIVERGED_T_MAX + 1e-12, dt_report)
        return FeedbackRun(
            diverged=True,
            abscissa=alpha,
            times=times,
            msq_curve=xs2 * _msq_curve(L, X0, times, dt_report),
        )

    w = (np.eye(n) + F.T @ F).ravel()
    vX0 = X0.ravel()
    Linv_w = np.linalg.solve(L.T, w)  # solves L^T y = w
    cost_full = float(-Linv_w @ vX0)

    # grow t_max until the certified tail bound is small versus the total
    kappa = float(np.linalg.cond(np.linalg.eig(L)[1]))
    rate = np.linalg.norm(np.eye(n) + F.T @ F, 2) * np.sqrt(n) * kappa
    t_end = max(2.0, 8.0 / (-alpha))
    for _ in range(60):
        vXt = expm(t_end * L) @ vX0
        tail_bound = rate * np.linalg.norm(vXt) / (-alpha)
        if not np.isfinite(tail_bound) or tail_bound <= TAIL_RTOL * abs(cost_full):
            break
        t_end *= 1.6
    # cost over [0, t_end] = w^T L^{-1} (e^{t L} - I) X0.ravel()
    cost_to_t = float(Linv_w @ (vXt - vX0))
    tail_exact = cost_full - cost_to_t

    times = np.arange(0.0, t_end + 1e-12, dt_report)
    curve = _msq_curve(L, X0, times, dt_report)

    # measured finite-horizon control norm ||F x||_{L^2(0,T)} per unit |x0|
    # versus the bound from the fitted decay envelope c(a) e^{-a t}
    T_probe = times[-1]
    LinvF = np.linalg.solve(L.T, (F.T @ F).ravel())
    u_sq = float(LinvF @ (expm(T_probe * L) @ vX0 - vX0))
    pos = curve > 0
    c_alpha = float(np.max(curve[pos] * np.exp(-alpha * times[pos]), initial=0.0))
    Fnorm = float(np.linalg.norm(F, 2))
    bracket = c_alpha * (1.0 - np.exp(alpha * T_probe)) / (-alpha)
    control_norm_T = {
        "T": float(T_probe),
        "measured": float(np.sqrt(max(u_sq, 0.0))),
        "bound": Fnorm * np.sqrt(bracket),
        "c_alpha": c_alpha,
    }
    return FeedbackRun(
        diverged=False,
        abscissa=alpha,
        times=times,
        msq_curve=xs2 * curve,
        cost=xs2 * cost_full,
        cost_to_t_max=xs2 * cost_to_t,
        tail=xs2 * tail_exact,
        tail_bound=xs2 * float(tail_bound),
        t_max=t_end,
        control_norm_T=control_norm_T,
    )


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
    whose closed-loop lift L has abscissa alpha < 0; (c) weak
    observability and (d) null controllability with cost: the lift
    certificate (T, delta, c) of the control u = F x.  Over [0, T] that
    control leaves E|x_T|^2 = x0^T W_T x0 and spends E||u||^2 =
    x0^T W_F x0, with W_T the adjoint flow from I under F
    (``moments.adjoint_state``) and W_F = (e^{T L^T} - I) L^{-T} (F^T F),
    so min_u ||u||^2 / c + E|x_T|^2 / delta <= |x0|^2 at
    c = lambda_max(W_F) / (1 - lambda_max(W_T) / delta).  T starts at the
    lift's own time scale 1 / (-alpha) and doubles until
    lambda_max(W_T) <= delta / 2; past CERT_MAX_DOUBLINGS doublings that
    is a NumericalFailure.  No tree, grid or time unit enters.

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

    F, alpha, n = sol.F, sol.abscissa, sys.n
    T = 1.0 / -alpha
    for _ in range(CERT_MAX_DOUBLINGS):
        terminal = float(np.linalg.eigvalsh(adjoint_state(sys, T, F))[-1])
        if terminal <= delta / 2.0:
            break
        T *= 2.0
    else:
        raise NumericalFailure(
            f"terminal energy under the Riccati gain stays above delta / 2 at T = {T:.6g}"
        )
    L = build_generator(sys, F)
    y = np.linalg.solve(L.T, (F.T @ F).ravel())
    W_F = (expm(T * L.T) @ y - y).reshape(n, n)
    control = max(0.0, float(np.linalg.eigvalsh(0.5 * (W_F + W_F.T))[-1]))
    lift = {"kind": "lift", "T": T, "delta": delta, "c": control / (1.0 - terminal / delta),
            "terminal": terminal, "control": control}
    witness = {
        "riccati_solvable": {"kind": "sare", "P": sol.P, "residual": sol.residual,
                             "iterations": sol.iterations},
        "feedback_stabilizable": {"kind": "gain", "F": F, "abscissa": alpha},
        "weakly_observable": lift,
        "null_controllable_with_cost": lift,
    }
    verdicts = (True, alpha < 0, True, True)
    return EquivalenceReport(*verdicts, len(set(verdicts)) == 1, witness)
