"""Synthesis of terminal-energy-shrinking controls by Riccati feedback.

Given a valid observability pair (c, delta), the control steering x_s
toward zero is the optimum of

    min_u ||u||^2 / c + E|x_T|^2 / delta,

the LQ problem whose backward Riccati recursion (observability._lq_p0)
gives c_opt.  One pass of it gives P_0(c), which control_kernel tests
as is_delta_observable does, and per-step gains L_k; synthesize_control
runs a kernel's closed-loop tree sweep u_k = L_k x_k from x_s.  The
terminal variable is f = x_T / delta; by duality the optimum satisfies

    u_t = -c z_t(f)                 (output of the backward solve at f)
    ||u||^2 = c^2 ||z(f)||^2 = c^2 dt sum_t E|z_t(f)|^2,

which the recursion does not use, so both are machine checks of the
synthesis (tree recursions are exact adjoints), together with the
quantitative bounds

    E|x(T)|^2 <= delta |x_s|^2,
    E|f|^2    <= (1/delta) |x_s|^2,
    ||u||     <= sqrt(c / delta * c0(T)) |x_s|,

where c0 is the tight second-moment growth constant of the drift flow.
The last bound is checked against both the continuous-flow constant and
the tree's own growth factor; the tree factor is the exact discrete
analogue, so a failure against it is a genuine failure.

Only synthesize_control sweeps the tree, because only it returns a
per-node field (and the two duality residuals).  Every other number
comes from n x n recursions: the free-flow moment E|x(T; 0, x_s)|^2 is
the c = 0 value of _lq_p0, and one closed-loop step maps X to
sum_r A_r X A_r^T over the closed-loop step maps A_r = M_r [I; L_k] (the
mean map and one noise map per component, observability.step_maps), and
_interval_map gives the K-step map and its energy functional.  The
Theorem 5.1 check takes the basis energies, the limits and the cost
from three n x n matrices of that map, so it builds nothing leaf-sized,
and the leaf budget (max_leaves, SCTK_MAX_LEAVES, exit 3) guards the CLI's
synthesize command alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import closed_loop, eigvalsh, growth_constant_c0, kron_sum
from .observability import (
    ObservabilityForms,
    _lq_p0,
    _valid_value,
    is_delta_observable,
    optimal_constant,
)
from .trees import (
    NoiseTree,
    control_energy,
    simulate_feedback,
    solve_bsde,
    terminal_expectation_sq,
)


def _feedback_gains(forms: ObservabilityForms, c: float, delta: float):
    """(P_0, gains (K, m, n)) of min ||u||^2 / c + E|x_T|^2 / delta, one pass."""
    if not 0 < c < math.inf:
        raise ValueError(f"need 0 < c < inf, got {c}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"need delta in (0, 1), got {delta}")
    return _lq_p0(forms, c, 1.0 / delta, gains=True)


# perfbench/tracing.py looks this name up to time the synthesis solve; it
# goes when the benchmark's tracer stops listing it
assemble_gramian = _feedback_gains


def _interval_map(forms: ObservabilityForms, gains: np.ndarray):
    """The closed-loop second-moment map Phi and energy functional e.

    Both act on X.ravel(), as the lift of moments.build_generator does.
    Step t maps X to E[A X A^T] = sum_r A_tr X A_tr^T over the closed-loop
    step maps A_tr = M_r [I; L_t] of the forms' step maps
    (moments.closed_loop), so Phi (n^2 x n^2) is the product over the steps
    of sum_r kron(A_tr, A_tr) (moments.kron_sum), Phi X_0.ravel() =
    X_K.ravel(), and e . X_0.ravel() is the control energy
    dt sum_t tr(L_t X_t L_t^T).
    """
    n = forms.system.n
    dt = forms.tree.delta_t
    Phi = np.eye(n * n)
    e = np.zeros(n * n)
    for L in gains:
        e += Phi.T @ (dt * (L.T @ L)).ravel()
        Phi = kron_sum(closed_loop(forms.maps, L), np.zeros((n * n, n * n))) @ Phi
    return Phi, e


def _bounds(e_u, e_term, e_f, e_free, xs2, c, delta, c0) -> dict:
    """The three synthesis bounds of one initial state, as reported."""
    tol = 1e-12
    return {
        "control_energy": {
            "value": e_u,
            "limit": c / delta * c0 * xs2,
            "limit_tree": c / delta * e_free,
            "holds": e_u <= c / delta * c0 * xs2 + tol,
            "holds_tree": e_u <= c / delta * e_free + tol,
        },
        "terminal_energy": {
            "value": e_term,
            "limit": delta * xs2,
            "holds": e_term <= delta * xs2 + tol,
        },
        "f_energy": {
            "value": e_f,
            "limit": xs2 / delta,
            "holds": e_f <= xs2 / delta + tol,
        },
    }


@dataclass(frozen=True)
class SynthesisResult:
    f: np.ndarray  # (L, n) terminal variable
    u: list  # the control field: u[k] has shape (b^k, m)
    control_energy: float
    terminal_energy: float
    f_energy: float
    x_s: np.ndarray
    c: float
    delta: float
    c0: float
    tree_growth: float  # E|x(T;0,x_s)|^2 / |x_s|^2 on the tree
    bounds: dict
    terminal_identity_residual: float
    energy_identity_residual: float

    @property
    def all_bounds_hold(self) -> bool:
        return all(v["holds"] for v in self.bounds.values())


@dataclass(frozen=True)
class ControlKernel:
    """Per-step m x n feedback gains of the interval synthesis on forms.

    gains[k] has shape (m, n) and acts on the state at depth k of every
    node of forms.tree: synthesize_control(kernel, x_s) runs
    u_k = gains[k] x_k along the tree from x_s, and the piecewise
    stabilizer applies the same gains in every interval.  The kernel
    carries its forms, so the gains, the tree and the system they were
    computed for cannot come apart.
    """

    forms: ObservabilityForms
    gains: np.ndarray  # (K, m, n)
    c: float
    delta: float

    @property
    def tree(self) -> NoiseTree:
        return self.forms.tree

    @property
    def T(self) -> float:
        return self.forms.T


def control_kernel(forms: ObservabilityForms, c: float, delta: float) -> ControlKernel:
    """The Riccati feedback gains of a valid observability pair (c, delta),
    from the one pass of the recursion whose P_0(c) decides validity."""
    P0, gains = _feedback_gains(forms, c, delta)
    if not _valid_value(P0):
        raise ValueError(
            f"(c={c}, delta={delta}) is not a valid observability pair: "
            "is_delta_observable returned False"
        )
    return ControlKernel(forms=forms, gains=gains, c=c, delta=delta)


def synthesize_control(kernel: ControlKernel, x_s) -> SynthesisResult:
    """Run the kernel's gains on its tree from x_s; verify every bound."""
    forms, c, delta = kernel.forms, kernel.c, kernel.delta
    tree, sys = forms.tree, forms.system
    x_s = np.atleast_1d(np.asarray(x_s, dtype=float))
    ctrl, u = simulate_feedback(tree, sys, x_s, kernel.gains)
    f = ctrl[-1] / delta
    bw = solve_bsde(tree, sys, f)

    xs2 = float(x_s @ x_s)
    e_u = control_energy(tree, u)
    e_term = terminal_expectation_sq(tree, ctrl[-1])
    e_f = terminal_expectation_sq(tree, f)
    e_free = float(x_s @ _lq_p0(forms, 0.0, 1.0) @ x_s)
    c0 = growth_constant_c0(sys, tree.T)
    tree_growth = e_free / xs2 if xs2 > 0 else 0.0

    term_resid = max(
        float(np.abs(uk + c * zk).max()) for uk, zk in zip(u, bw.z)
    )
    energy_resid = abs(e_u - c**2 * control_energy(tree, bw.z))
    return SynthesisResult(
        f=f,
        u=u,
        control_energy=e_u,
        terminal_energy=e_term,
        f_energy=e_f,
        x_s=x_s,
        c=c,
        delta=delta,
        c0=c0,
        tree_growth=tree_growth,
        bounds=_bounds(e_u, e_term, e_f, e_free, xs2, c, delta, c0),
        terminal_identity_residual=term_resid,
        energy_identity_residual=energy_resid,
    )


@dataclass(frozen=True)
class Theorem51Report:
    """Machine check of both quantitative directions of the duality.

    measured_cost is the exact operator norm of the deterministic-state
    to control map, sqrt(lambda_max(W_u)), where W_u is the Gram matrix
    of the basis controls, <u(e_i), u(e_j)> = W_u[i, j]; the max over
    basis states, sqrt(max_i W_u[i, i]), is reported alongside.  Both
    come from n x n moments, not from per-node controls, so the report
    exists at any K; only synthesize is bound by max_leaves.  The
    converse pair carries the squared cost: with ||u|| <= kappa |x_s|
    the pairing/Young chain gives initial energy <= kappa^2
    (1 + 2/(1-delta)) output energy + (1+delta)/2 terminal energy, so the
    pair is an algebraic consequence of the forward bounds rather than an
    estimate.
    """

    applicable: bool
    delta: float
    T: float
    c_opt: float
    c_used: float = None
    c0: float = None
    forward_pass: bool = None
    forward_details: list = None
    measured_cost: float = None
    measured_cost_basis_max: float = None
    converse_pair: tuple = None
    converse_pass: bool = None
    cost_vs_bound_ratio: float = None

    @property
    def both_directions_pass(self) -> bool:
        return bool(self.applicable and self.forward_pass and self.converse_pass)


def verify_theorem_5_1(
    forms: ObservabilityForms, delta: float, c: float = None
) -> Theorem51Report:
    """Check the synthesis direction on the canonical basis states, then
    feed the measured cost back through the converse substitution.

    It applies when optimal_constant(forms, delta) is finite, and c
    defaults to that c_opt (at least 1e-12); a given c must be finite and
    positive.  Every number comes from three n x n matrices, which equal
    the tree sweeps of synthesize_control to rounding at any K, with no
    leaf-sized work.  Under the synthesis gains, the closed-loop
    second-moment map (_interval_map) gives W_u = e.reshape(n, n), the Gram
    matrix of the basis controls, and W_T = Phi^T(I); W_free, with
    x^T W_free x = E|x_T|^2 under u = 0, is the c = 0 value of
    observability._lq_p0.  Basis state i has control energy W_u[i, i],
    terminal energy W_T[i, i], f energy W_T[i, i] / delta^2 and tree limit
    (c / delta) W_free[i, i].  No leaf budget applies: max_leaves guards
    only the per-node output of synthesize.

    Forward direction: for each basis state the three bounds of the
    synthesis must hold.  Converse direction: with the measured cost
    c_hat = sqrt(lambda_max(W_u)), the pair

        ( c_hat^2 (1 + 2/(1-delta)), (1+delta)/2 )

    must satisfy the observability inequality.
    """
    rep = optimal_constant(forms, delta)
    if not rep.observable:
        return Theorem51Report(
            applicable=False, delta=delta, T=forms.T, c_opt=rep.c_opt
        )
    c_used = c if c is not None else max(rep.c_opt, 1e-12)
    c0 = growth_constant_c0(forms.system, forms.T)
    n = forms.system.n
    _, gains = _feedback_gains(forms, c_used, delta)
    Phi, e = _interval_map(forms, gains)
    W_u = e.reshape(n, n)
    W_T = (Phi.T @ np.eye(n).ravel()).reshape(n, n)
    W_free = _lq_p0(forms, 0.0, 1.0)
    details = []
    for i in range(n):
        e_term = float(W_T[i, i])
        bounds = _bounds(
            float(W_u[i, i]), e_term, e_term / delta**2, float(W_free[i, i]),
            1.0, c_used, delta, c0,
        )
        details.append(
            {
                "basis": i,
                "bounds": bounds,
                "all_hold": all(v["holds"] for v in bounds.values()),
            }
        )
    forward_pass = all(dd["all_hold"] for dd in details)
    basis_max = float(np.sqrt(max(0.0, W_u.diagonal().max())))
    kappa = float(np.sqrt(max(0.0, eigvalsh(0.5 * (W_u + W_u.T))[-1])))
    pair = (kappa**2 * (1.0 + 2.0 / (1.0 - delta)), (1.0 + delta) / 2.0)
    converse = is_delta_observable(forms, pair[1], pair[0])
    bound = np.sqrt(c_used / delta * c0)
    return Theorem51Report(
        applicable=True,
        delta=delta,
        T=forms.T,
        c_opt=rep.c_opt,
        c_used=c_used,
        c0=c0,
        forward_pass=forward_pass,
        forward_details=details,
        measured_cost=kappa,
        measured_cost_basis_max=basis_max,
        converse_pair=pair,
        converse_pass=converse,
        cost_vs_bound_ratio=kappa / bound if bound > 0 else None,
    )
