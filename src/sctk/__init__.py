"""Desk-scale toolkit for constant-coefficient stochastic control systems.

Cross-verifies, on exact-duality noise trees, the chain connecting
observability of the dual backward system, null-control synthesis by
Riccati feedback, the stochastic algebraic Riccati equation, and
mean-square feedback stabilization.
"""

__version__ = "0.1.0"

from .errors import BudgetExceeded, InvalidConfig, NumericalFailure
from .moments import (
    build_generator,
    growth_constant_c0,
    propagate_second_moment,
    spectral_abscissa,
)
from .nullcontrol import (
    ControlKernel,
    SynthesisResult,
    control_kernel,
    synthesize_control,
    verify_theorem_5_1,
)
from .observability import (
    ObservabilityForms,
    ObservabilityReport,
    assemble_forms,
    invariance_experiment,
    is_delta_observable,
    optimal_constant,
)
from .riccati import (
    NotSolvable,
    RiccatiSolution,
    feedback_gain,
    lq_value,
    sare_residual,
    solve_sare,
)
from .stabilizer import (
    EquivalenceReport,
    StabilizerRun,
    equivalence_harness,
    lift_certificate,
    run_piecewise,
    run_riccati_feedback,
)
from .systems import (
    HorizonConfig,
    StochasticSystem,
    hautus_stabilizability,
    make_system,
    validate_system,
)
from .trees import (
    BackwardSolution,
    NoiseTree,
    TreeDriver,
    build_tree,
    duality_residual,
    simulate_forward,
    solve_bsde,
)
