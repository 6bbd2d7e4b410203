"""Synthesis of terminal-energy-shrinking controls by Riccati feedback.

Given a valid observability pair (c, delta), the control steering x_s
toward zero is the optimum of

    min_u ||u||^2 / c + E|x_T|^2 / delta,

the LQ problem whose backward Riccati recursion (observability._lq_p0)
gives c_opt.  The same recursion returns per-step gains L_k, and the
synthesis runs the closed-loop tree sweep u_k = L_k x_k from x_s.  The
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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moments import growth_constant_c0
from .observability import (
    ObservabilityForms,
    _lq_p0,
    assemble_forms,
    is_delta_observable,
    optimal_constant,
)
from .systems import HorizonConfig, StochasticSystem
from .trees import (
    AdaptedField,
    NoiseTree,
    TreeDriver,
    build_tree,
    control_energy,
    control_pairing,
    simulate_feedback,
    simulate_forward,
    solve_bsde,
    terminal_expectation_sq,
)


def _feedback_gains(forms: ObservabilityForms, c: float, delta: float) -> np.ndarray:
    """Gains L_k, shape (K, m, n), of min ||u||^2 / c + E|x_T|^2 / delta."""
    if not c > 0:
        raise ValueError(f"need c > 0, got {c}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"need delta in (0, 1), got {delta}")
    return _lq_p0(forms, c, 1.0 / delta, 1e-10, gains=True)[1]


# perfbench/tracing.py looks this name up to time the synthesis solve; it
# goes when the benchmark's tracer stops listing it
assemble_gramian = _feedback_gains


@dataclass(frozen=True)
class SynthesisResult:
    f: np.ndarray  # (L, n) terminal variable
    u: AdaptedField
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


def synthesize_control(
    tree: NoiseTree,
    sys: StochasticSystem,
    x_s,
    c: float,
    delta: float,
    forms: ObservabilityForms,
    c0: float = None,
    check_constant: bool = True,
) -> SynthesisResult:
    """Build u, the controlled trajectory and f; verify every bound."""
    x_s = np.atleast_1d(np.asarray(x_s, dtype=float))
    if check_constant and not is_delta_observable(forms, delta, c):
        raise ValueError(
            f"(c={c}, delta={delta}) is not a valid observability pair for "
            "this tree/system: is_delta_observable returned False"
        )
    gains = _feedback_gains(forms, c, delta)
    ctrl, u = simulate_feedback(tree, sys, x_s, gains)
    f = ctrl.terminal / delta
    bw = solve_bsde(tree, sys, f)
    xi = simulate_forward(tree, sys, x_s).terminal  # x(T; 0, x_s)

    xs2 = float(x_s @ x_s)
    e_u = control_energy(tree, u)
    e_term = terminal_expectation_sq(tree, ctrl.terminal)
    e_f = terminal_expectation_sq(tree, f)
    e_free = terminal_expectation_sq(tree, xi)
    if c0 is None:
        c0 = growth_constant_c0(sys, tree.T).c0
    tree_growth = e_free / xs2 if xs2 > 0 else 0.0

    term_resid = max(
        float(np.abs(uk + c * zk).max()) for uk, zk in zip(u.values, bw.z.values)
    )
    energy_resid = abs(e_u - c**2 * control_energy(tree, bw.z))

    tol = 1e-12
    bounds = {
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
        bounds=bounds,
        terminal_identity_residual=term_resid,
        energy_identity_residual=energy_resid,
    )


@dataclass(frozen=True)
class ControlKernel:
    """Per-step m x n feedback gains of the interval synthesis.

    gains[k] has shape (m, n) and acts on the state at depth k of every
    node: running u_k = gains[k] x_k along the tree from x_s reproduces
    synthesize_control(x_s).u.
    """

    gains: np.ndarray  # (K, m, n)
    tree: NoiseTree
    c: float
    delta: float

    @property
    def T(self) -> float:
        return self.tree.T


def control_kernel(
    tree: NoiseTree,
    sys: StochasticSystem,
    c: float,
    delta: float,
    forms: ObservabilityForms,
) -> ControlKernel:
    """The Riccati feedback gains of a valid observability pair (c, delta)."""
    if not is_delta_observable(forms, delta, c):
        raise ValueError(
            f"(c={c}, delta={delta}) is not a valid observability pair: "
            "is_delta_observable returned False"
        )
    return ControlKernel(
        gains=_feedback_gains(forms, c, delta), tree=tree, c=c, delta=delta
    )


@dataclass(frozen=True)
class Theorem51Report:
    """Machine check of both quantitative directions of the duality.

    measured_cost is the exact operator norm of the deterministic-state
    to control map (the Gram matrix of the basis controls), which is the
    constant the converse derivation needs; the max over basis states is
    reported alongside.  The primary converse pair carries the squared
    cost: with ||u|| <= kappa |x_s| the pairing/Young chain gives
    initial energy <= kappa^2 (1 + 2/(1-delta)) output energy
    + (1+delta)/2 terminal energy, so that pair is an algebraic
    consequence of the forward bounds rather than an estimate.  The
    variant with the cost unsquared is evaluated and reported too; it is
    not implied by the derivation and can fail on weakly observable
    systems (large c_opt with moderate cost).
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
    converse_pair_linear: tuple = None
    converse_pass_linear: bool = None
    cost_vs_bound_ratio: float = None

    @property
    def both_directions_pass(self) -> bool:
        return bool(self.applicable and self.forward_pass and self.converse_pass)


def verify_theorem_5_1(
    sys: StochasticSystem,
    horizon: HorizonConfig,
    delta: float,
    driver: TreeDriver = None,
    c: float = None,
    max_leaves: int = None,
) -> Theorem51Report:
    """Run the synthesis direction on the canonical basis states, then feed
    the measured cost back through the converse substitution.

    Forward direction: for each basis state the three bounds of the
    synthesis must hold.  Converse direction: with the measured cost
    c_hat = max_i ||u(e_i)||, the pair

        ( c_hat (1 + 2/(1-delta)), (1+delta)/2 )

    must satisfy the observability inequality.  The variant with c_hat
    squared (which the Cauchy-Schwarz/Young derivation produces when the
    cost multiplies the state norm unsquared) is evaluated alongside.
    """
    from .trees import DEFAULT_MAX_LEAVES

    driver = driver or TreeDriver.bernoulli()
    tree = build_tree(driver, horizon, sys.d, max_leaves or DEFAULT_MAX_LEAVES)
    forms = assemble_forms(tree, sys)
    rep = optimal_constant(forms, delta)
    if not rep.observable:
        return Theorem51Report(
            applicable=False, delta=delta, T=tree.T, c_opt=rep.c_opt
        )
    c_used = c if c is not None else max(rep.c_opt, 1e-12)
    c0 = growth_constant_c0(sys, tree.T).c0
    details = []
    controls = []
    for i in range(sys.n):
        e = np.zeros(sys.n)
        e[i] = 1.0
        res = synthesize_control(
            tree, sys, e, c_used, delta, forms, c0=c0, check_constant=False
        )
        controls.append(res.u)
        details.append(
            {
                "basis": i,
                "bounds": res.bounds,
                "terminal_identity_residual": res.terminal_identity_residual,
                "all_hold": res.all_bounds_hold,
            }
        )
    forward_pass = all(dd["all_hold"] for dd in details)
    gram_u = np.array(
        [[control_pairing(tree, ui, uj) for uj in controls] for ui in controls]
    )
    basis_max = float(np.sqrt(max(gram_u[i, i] for i in range(sys.n))))
    kappa = float(np.sqrt(np.linalg.eigvalsh(0.5 * (gram_u + gram_u.T))[-1]))
    amp = 1.0 + 2.0 / (1.0 - delta)
    pair = (kappa**2 * amp, (1.0 + delta) / 2.0)
    pair_lin = (basis_max * amp, (1.0 + delta) / 2.0)
    converse = is_delta_observable(forms, pair[1], pair[0])
    converse_lin = is_delta_observable(forms, pair_lin[1], pair_lin[0])
    bound = np.sqrt(c_used / delta * c0)
    return Theorem51Report(
        applicable=True,
        delta=delta,
        T=tree.T,
        c_opt=rep.c_opt,
        c_used=c_used,
        c0=c0,
        forward_pass=forward_pass,
        forward_details=details,
        measured_cost=kappa,
        measured_cost_basis_max=basis_max,
        converse_pair=pair,
        converse_pass=converse,
        converse_pair_linear=pair_lin,
        converse_pass_linear=converse_lin,
        cost_vs_bound_ratio=kappa / bound if bound > 0 else None,
    )
