"""Infinite-horizon stabilization by two routes, and their reconciliation.

Route 1 (piecewise, exact): concatenate the interval synthesis.  Within
each interval of length T the state-linear control kernel is applied
fresh from the current state; at interval ends the recursion restarts.
This realizes the adapted concatenation of interval controls: per
interval the terminal second moment contracts by delta and the control
energy bill is a geometric series,

    E|x_k|^2 <= delta^k |x0|^2,
    total ||u||^2 <= c delta^{-1} c0(T) (1 - delta)^{-1} |x0|^2.

The closed-loop interval map X -> Phi(X) on second moments is linear, so
the moments, the energies and the contraction rate are exact: with the
closed-loop step maps A_tr of step t (the mean map
I + dt (A + B L_t) + mean sqrt(dt) sum_i (C_i + D_i L_t) and the noise
maps sqrt(dt var) (C_i + D_i L_t), from the driver's increment mean and
variance), one step maps X to E[A X A^T] = sum_r A_tr X A_tr^T and adds
dt tr(L_t X L_t^T) to the energy; E|x_k|^2 = tr Phi^k(x0 x0^T), and the
spectral radius rho(Phi) <= delta certifies the per-interval contraction.
Phi comes from nullcontrol._interval_map, the second-moment propagator
behind the Theorem 5.1 check too.  Neither route sweeps the tree, so no
result here depends on its leaf count, and the max_leaves budget (exit 3)
that guards synthesize's per-node output does not apply.

Route 2 (feedback): the constant Riccati gain.  The closed-loop second
moment evolves deterministically on the lift, so the decay curve and the
quadratic cost need no sampling; the infinite-horizon cost is the exact
lift integral

    J = integral_0^inf trace((I + F^T F) X(t)) dt = <P x0, x0> at the
    optimal gain,

reported together with a certified exponential tail bound from the
closed-loop abscissa.

The equivalence harness runs the four verdicts (Riccati solvable,
feedback stabilizable, weakly observable, approximately null
controllable with cost) and checks they agree; a coarse-mesh disagreement
where only the finite-horizon verdicts fail triggers one automatic mesh
refinement before reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .moments import build_generator, spectral_abscissa, unvec, vec
from .nullcontrol import ControlKernel, _interval_map, verify_theorem_5_1
from .observability import assemble_forms, optimal_constant
from .riccati import NotSolvable, solve_sare
from .systems import HorizonConfig, StochasticSystem
from .trees import TreeDriver, build_tree


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
    decay_slope: float  # least-squares slope of log E|x_k|^2 vs k
    interval_contraction: float  # spectral radius of the interval map Phi
    total_energy: float


def run_piecewise(kernel: ControlKernel, x0, k_max: int, paths: int = 0) -> StabilizerRun:
    """Exact second moments of the concatenated interval controls.

    The control at step t of every interval is the kernel's step-t gain
    applied to the current state, which keeps the concatenated control
    adapted.  The system and the step maps are the kernel's own
    (kernel.forms), and the moments are exact for the tree's driver,
    whatever its law.  ``paths`` is ignored; it remains for callers that bind it.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    Phi, e = _interval_map(kernel.forms, kernel.gains)
    trace = np.eye(kernel.forms.system.n).ravel()
    v = np.outer(x0, x0).ravel()
    records = []
    cum = 0.0
    for k in range(k_max + 1):
        msq = float(trace @ v)
        energy = float(e @ v) if k < k_max else 0.0
        cum += energy
        records.append(IntervalRecord(k, msq, energy, cum))
        v = Phi @ v
    log_msq = np.log([max(r.msq, 1e-300) for r in records])
    ks = np.arange(len(records))
    slope = float(np.polyfit(ks, log_msq, 1)[0]) if len(ks) > 1 else 0.0
    return StabilizerRun(
        records=tuple(records),
        k_max=k_max,
        delta=kernel.delta,
        c=kernel.c,
        T=kernel.T,
        decay_slope=slope,
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
    # square; only the inequality direction is guaranteed.  The unsquared
    # variant of the same expression is reported for comparison.
    control_norm_T: dict = None


def _msq_curve(gen, X0, times, dt_report) -> np.ndarray:
    """trace X(t) on the report times, stepping the lift flow by dt_report."""
    step = expm(dt_report * gen.L)
    v = vec(X0)
    curve = []
    for _ in times:
        curve.append(float(np.trace(unvec(v, gen.n))))
        v = step @ v
    return np.array(curve)


def run_riccati_feedback(
    sys: StochasticSystem,
    F,
    x0,
    t_max: float = None,
    dt_report: float = 0.1,
    tail_rtol: float = 1e-4,
) -> FeedbackRun:
    """Exact second-moment decay curve and quadratic cost of a constant gain.

    The curve is the lift flow applied to x0 x0^T; the cost integral has
    the closed form w^T L^{-1}(e^{tL} - I) v on the lift, evaluated to
    t_max and completed by the exact tail, with a certified bound
    ||I+F^TF|| sqrt(n) kappa(V) ||X(t_max)||_F / (-alpha) reported
    alongside (kappa from the lift eigenbasis).
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    gen = build_generator(sys, F)
    alpha = spectral_abscissa(gen)
    X0 = np.outer(x0, x0)
    n = sys.n

    if alpha >= 0:
        t_end = t_max or 10.0
        times = np.arange(0.0, t_end + 1e-12, dt_report)
        return FeedbackRun(
            diverged=True,
            abscissa=alpha,
            times=times,
            msq_curve=_msq_curve(gen, X0, times, dt_report),
        )

    w = vec(np.eye(n) + F.T @ F)
    vX0 = vec(X0)
    Linv_w = np.linalg.solve(gen.L.T, w)  # solves L^T y = w
    cost_full = float(-Linv_w @ vX0)

    # grow t_max until the certified tail bound is small versus the total
    evals, V = np.linalg.eig(gen.L)
    kappa = float(np.linalg.cond(V))
    t_end = t_max or max(2.0, 8.0 / (-alpha))
    for _ in range(60):
        Xt = unvec(expm(t_end * gen.L) @ vX0, n)
        tail_bound = (
            np.linalg.norm(np.eye(n) + F.T @ F, 2)
            * np.sqrt(n)
            * kappa
            * np.linalg.norm(Xt, "fro")
            / (-alpha)
        )
        if not np.isfinite(tail_bound) or tail_bound <= tail_rtol * abs(cost_full):
            break
        t_end *= 1.6
    # cost over [0, t_end] = w^T L^{-1} (e^{t L} - I) vec(X0)
    cost_to_t = float(Linv_w @ (expm(t_end * gen.L) @ vX0 - vX0))
    tail_exact = cost_full - cost_to_t

    times = np.arange(0.0, min(t_end, t_max or t_end) + 1e-12, dt_report)
    curve = _msq_curve(gen, X0, times, dt_report)

    # measured finite-horizon control norm ||F x||_{L^2(0,T)} per unit |x0|
    # versus the bound from the fitted decay envelope c(a) e^{-a t}
    T_probe = times[-1] if times.size else t_end
    wF = vec(F.T @ F)
    LinvF = np.linalg.solve(gen.L.T, wF)
    u_sq = float(LinvF @ (expm(T_probe * gen.L) @ vX0 - vX0))
    xs2 = float(x0 @ x0)
    pos = curve > 1e-250
    c_alpha = float(np.max(curve[pos] * np.exp(-alpha * times[pos])) / xs2)
    Fnorm = float(np.linalg.norm(F, 2))
    bracket = c_alpha * (1.0 - np.exp(alpha * T_probe)) / (-alpha)
    control_norm_T = {
        "T": float(T_probe),
        "measured": float(np.sqrt(max(u_sq, 0.0)) / np.sqrt(xs2)),
        "bound": Fnorm * np.sqrt(bracket),
        "bound_printed_form": Fnorm * bracket,
        "c_alpha": c_alpha,
    }
    return FeedbackRun(
        diverged=False,
        abscissa=alpha,
        times=times,
        msq_curve=curve,
        cost=cost_full,
        cost_to_t_max=cost_to_t,
        tail=tail_exact,
        tail_bound=float(tail_bound),
        t_max=t_end,
        control_norm_T=control_norm_T,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    riccati_solvable: bool
    feedback_stabilizable: bool
    weakly_observable: bool
    null_controllable_with_cost: bool
    agreement: bool
    grid_point: tuple = None  # (T, delta) where (c)/(d) were certified
    refined: bool = False
    details: dict = field(default_factory=dict)

    @property
    def verdicts(self) -> tuple:
        return (
            self.riccati_solvable,
            self.feedback_stabilizable,
            self.weakly_observable,
            self.null_controllable_with_cost,
        )


def equivalence_harness(
    sys: StochasticSystem,
    T_grid: list,
    delta_grid: list,
    horizon_K: int = 4,
    driver: TreeDriver = None,
) -> EquivalenceReport:
    """Four-way equivalence check across the (T, delta) grid.

    Verdicts: (a) the algebraic Riccati equation has a stabilizing
    solution; (b) some constant gain is mean-square stabilizing; (c) some
    grid point has a finite observability constant with delta < 1;
    (d) the synthesis bounds certify delta-null controllability with cost
    at a passing grid point.  The theorem says all four coincide; when
    (a) and (b) hold but the finite-horizon verdicts fail at mesh K, the
    grid is retried once at 2K before reporting.
    """
    if not T_grid or not delta_grid:
        raise ValueError("grids must be nonempty")
    if not all(0.0 < dd < 1.0 for dd in delta_grid):
        raise ValueError("delta grid values must lie in (0, 1)")
    driver = driver or TreeDriver.bernoulli()
    details: dict = {}

    sol = solve_sare(sys)
    solvable = not isinstance(sol, NotSolvable)
    if solvable:
        details["riccati"] = {
            "P_eigs": np.linalg.eigvalsh(sol.P).tolist(),
            "residual": sol.residual,
        }
        abscissa = spectral_abscissa(build_generator(sys, sol.F))
        stabilizable = abscissa < 0
        details["feedback_abscissa"] = abscissa
    else:
        # the gain search behind NotSolvable is deterministic and, past the
        # Hautus test, ends on a proof that the Euler value is unbounded
        # (or on growth past the cap when no proof is found), so it also
        # settles verdict (b); a stiff system can still be stabilizable
        # although its Euler step is not
        details["riccati"] = {"verdict": sol.reason}
        stabilizable = False

    def scan(K):
        for T in T_grid:
            for dd in delta_grid:
                tree = build_tree(driver, HorizonConfig(T=T, K=K), sys.d)
                forms = assemble_forms(tree, sys)
                rep = optimal_constant(forms, dd)
                if rep.observable:
                    return (T, dd, rep.c_opt)
        return None

    def certify(K):
        hit = scan(K)
        if hit is None:
            return False, False, None, None
        T, dd, c_opt = hit
        t51 = verify_theorem_5_1(sys, HorizonConfig(T=T, K=K), dd, driver=driver)
        # verdict (d) is existence of controls meeting the synthesis
        # bounds, i.e. the forward direction of the duality check
        ncc = bool(t51.applicable and t51.forward_pass)
        return True, ncc, (T, dd), t51

    observable, controllable, point, t51 = certify(horizon_K)
    refined = False
    if solvable and stabilizable and not (observable and controllable):
        refined = True
        observable, controllable, point, t51 = certify(2 * horizon_K)
    if t51 is not None:
        details["theorem51"] = {
            "forward_pass": t51.forward_pass,
            "converse_pass": t51.converse_pass,
            "measured_cost": t51.measured_cost,
            "c_opt": t51.c_opt,
        }
    verdicts = (solvable, stabilizable, observable, controllable)
    return EquivalenceReport(
        riccati_solvable=solvable,
        feedback_stabilizable=stabilizable,
        weakly_observable=observable,
        null_controllable_with_cost=controllable,
        agreement=len(set(verdicts)) == 1,
        grid_point=point,
        refined=refined,
        details=details,
    )
