"""State-space view of adaptive gradient optimizers.

The package has three layers:

- continuous time: a nine-parameter family of optimizer flows (core, flow)
  with validation of the convergence conditions and fixed-step integrators;
- discrete time: one stepper for the named presets, keyed by PresetKind
  like their flows, and a heavy-ball baseline (discrete);
- analysis and tooling: transfer-function/pole-zero analysis of the
  second-moment dynamic (analysis), synthetic objectives with gradient
  oracles (objectives), and a JSON-config experiment harness with a CLI
  (harness, cli).
"""

from .analysis import (
    DegreeError,
    RationalTF,
    SecondMomentLTI,
    adamssm_tf,
    dc_gain,
    impulse_response,
    poles_zeros,
    second_moment_response,
    stability_quantity_p,
    state_transition_entries,
    state_transition_matrix,
    step_response,
)
from .core import (
    DomainError,
    OptimizerParams,
    PresetKind,
    PresetParams,
    PsiKind,
    ValidationError,
    alpha_g,
    map_preset_to_general,
    validate_params,
    validate_preset,
)
from .discrete import (
    BIAS_MODES,
    InstabilityError,
    LrSchedule,
    RunReport,
    bias_alpha,
    bias_denominators,
    initial_stepper_state,
    run_discrete,
    step_preset,
    step_sgd_momentum,
)
from .flow import (
    FlowProblem,
    PresetMismatch,
    StepFailure,
    Trajectory,
    euler_step,
    gadagrad_energy_residual,
    integrate_batch,
    integrate_euler,
    integrate_reference,
    preset_flow,
    rhs_general,
    rk4_step,
)
from .harness import (
    ExperimentConfig,
    ObjectiveSpec,
    OptimizerSpec,
    ParseError,
    build_objective,
    default_x0,
    emit_summary,
    load_config,
    run_compare,
    run_experiment,
    run_flows,
)
from .objectives import (
    Objective,
    finite_diff_grad,
    make_logistic,
    make_quadratic,
    make_rosenbrock,
)

__version__ = "0.1.0"
