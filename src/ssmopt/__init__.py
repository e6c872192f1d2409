"""State-space view of adaptive gradient optimizers.

The package has three layers:

- continuous time: a nine-parameter family of optimizer flows (core, flow)
  with validation of the convergence conditions and fixed-step integrators;
- discrete time: one batched update for the named presets, keyed by their
  kind like their flows, and a heavy-ball baseline (discrete);
- analysis and tooling: the second-moment dynamic as one linear system
  (analysis: SecondMomentLTI with its closed-form exp(At) and impulse, step
  and convolution responses, and the transfer function's poles, zero and
  DC gain), synthetic objectives with gradient oracles (objectives), and a
  JSON-config experiment harness with a CLI (harness, cli).

Flows and discrete runs share one run loop (flow), which advances many runs
on one objective as a packed (4, R, d) batch and keeps one store of every
row's records and summary per batch. A flow fails, like a diverging discrete
run, when its state turns non-finite; its nu0 must be finite and positive.
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
    OptimizerSpec,
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
    RunReport,
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
