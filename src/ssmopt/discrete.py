"""Discrete-time optimizers: one stepper for the named presets, keyed by
PresetKind, plus a heavy-ball baseline, learning-rate schedules, a recording
run loop, and the run summary that reports discrete runs and flows alike.

Steppers are pure state transitions: they take a (4, d) state with rows x,
mu, zeta and nu, a gradient, a learning rate and the iteration count k, and
return a new (4, d) state, one iteration later. One run is sequential; many
runs may execute concurrently with independent states.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import PresetKind, PresetParams, ValidationError, moment_bias
from .flow import Trajectory, _Recorder

BIAS_MODES = ("paper", "beta", "continuous")
# the kinds whose nu update reads b3, and those whose nu is driven by (g - mu')^2
_COUPLED_KINDS = (PresetKind.ADAMSSM, PresetKind.ADABELIEFSSM)
_BELIEF_KINDS = (PresetKind.ADABELIEF, PresetKind.ADABELIEFSSM)


class InstabilityError(ValueError):
    """The sampling time is too large for the second-moment update.

    The nu update keeps nonnegativity only when 1 - delta*b2 - delta*b3 >= 0.
    """


def initial_stepper_state(x0, nu0=None) -> np.ndarray:
    """State before the first step, as a (4, d) array with rows x, mu, zeta
    and nu: the moments start at zero unless nu0 is given."""
    x0 = np.asarray(x0, dtype=float)
    zero = np.zeros_like(x0)
    nu = zero if nu0 is None else np.asarray(nu0, dtype=float)
    if nu.shape != x0.shape:
        raise ValueError(f"nu0 shape {nu.shape} != x0 shape {x0.shape}")
    return np.array((x0, zero, zero, nu))


@dataclass(frozen=True)
class LrSchedule:
    """Base learning rate scaled by multipliers from given iterations onward.

    milestones is a sequence of (iteration, multiplier) pairs with strictly
    increasing iterations and positive multipliers; all milestones at or
    before the current iteration apply cumulatively.
    """

    base_eta: float
    milestones: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        ms = tuple((int(it), float(m)) for it, m in self.milestones)
        object.__setattr__(self, "milestones", ms)
        iters = [it for it, _ in ms]
        if any(b <= a for a, b in zip(iters, iters[1:])):
            raise ValidationError(["milestone iterations strictly increasing"])
        if any(m <= 0 for _, m in ms):
            raise ValidationError(["milestone multipliers positive"])

    def eta_at(self, iteration: int) -> float:
        eta = self.base_eta
        for it, m in self.milestones:
            if iteration >= it:
                eta = eta * m
        return eta


def bias_denominators(preset: PresetParams, iteration: int, bias_mode: str) -> tuple[float, float]:
    """Bias-correction denominators for the moment estimates at one iteration,
    core.moment_bias at

    paper:      t = k with the rates b1 and b2,
    beta:       t = k with the rates delta*b1 and delta*b2,
    continuous: t = k*delta with the rates b1 and b2, the flow's bias factor
                sampled at physical time k*delta.
    """
    k = iteration
    if bias_mode == "paper":
        return moment_bias(k, preset.b1, preset.b2)
    if bias_mode == "beta":
        return moment_bias(k, preset.delta * preset.b1, preset.delta * preset.b2)
    if bias_mode == "continuous":
        return moment_bias(k * preset.delta, preset.b1, preset.b2)
    raise ValueError(f"bias_mode must be one of {BIAS_MODES}, got {bias_mode!r}")


def bias_alpha(preset: PresetParams, iteration: int, bias_mode: str) -> float:
    """Effective bias factor B1/B2^(1/2) applied to the x update at one iteration."""
    b1_corr, b2_corr = bias_denominators(preset, iteration, bias_mode)
    return b1_corr / b2_corr ** 0.5


def step_preset(
    state: np.ndarray,
    grad,
    eta: float,
    k: int,
    kind: PresetKind,
    preset: PresetParams,
    bias_mode: str = "paper",
) -> np.ndarray:
    """Iteration k of a named optimizer with learning rate eta; the kind alone
    decides the update, as map_preset_to_general decides its flow.

    gadagrad accumulates, without bias correction:

        nu' = nu + delta*g^2
        x'  = x - delta*eta * g / (nu'^c + epsilon)

    where a zero denominator gives a zero step. The other kinds update the
    moments first, then x from the post-update, bias-corrected moments:

        mu'   = (1 - delta*b1)*mu + delta*b1*g
        zeta' = (1 - delta*b2)*zeta + delta*b2*nu
        nu'   = delta*b3*zeta + (1 - delta*b2 - delta*b3)*nu + delta*b2*psi
        x'    = x - eta * mu_hat / (sqrt(nu_hat) + epsilon)

    with b3 forced to 0 for adam and adabelief, psi = (g - mu')^2 for the
    belief kinds and g^2 otherwise, and mu_hat, nu_hat corrected by
    bias_denominators at iteration k under bias_mode. One code path serves
    every moment kind, so kinds that differ only by an inert parameter agree
    bitwise.
    """
    delta = preset.delta
    g = np.asarray(grad, dtype=float)
    x, mu, zeta, nu = state[0], state[1], state[2], state[3]
    if kind is PresetKind.GADAGRAD:
        if not 0.0 < preset.c < 1.0:
            raise ValidationError(["0 < c < 1"])
        nu_new = nu + delta * (g * g)
        denom = nu_new ** preset.c + preset.epsilon
        direction = np.divide(g, denom, out=np.zeros_like(g), where=denom > 0)
        x_new = x - (delta * eta) * direction
        return np.array((x_new, mu, zeta, nu_new))
    b3 = preset.b3 if kind in _COUPLED_KINDS else 0.0
    if 1.0 - delta * preset.b2 - delta * b3 < 0.0:
        raise InstabilityError(
            "1 - delta*b2 - delta*b3 >= 0 required "
            f"(delta={delta:g}, b2={preset.b2:g}, b3={b3:g})"
        )
    mu_new = (1.0 - delta * preset.b1) * mu + (delta * preset.b1) * g
    zeta_new = (1.0 - delta * preset.b2) * zeta + (delta * preset.b2) * nu
    if kind in _BELIEF_KINDS:
        psi = (g - mu_new) ** 2
    else:
        psi = g ** 2
    nu_new = (
        (delta * b3) * zeta
        + (1.0 - delta * preset.b2 - delta * b3) * nu
        + (delta * preset.b2) * psi
    )
    b1_corr, b2_corr = bias_denominators(preset, k, bias_mode)
    mu_hat = mu_new / b1_corr
    nu_hat = nu_new / b2_corr
    x_new = x - eta * (mu_hat / (np.sqrt(nu_hat) + preset.epsilon))
    return np.array((x_new, mu_new, zeta_new, nu_new))


def step_sgd_momentum(state: np.ndarray, grad, eta: float, k: int, beta: float) -> np.ndarray:
    """Classical heavy-ball step: m' = beta*m + g, x' = x - eta*m'; the same
    at every iteration k.

    The momentum buffer lives in the mu row; beta = 0 is plain gradient
    descent.
    """
    if not 0.0 <= beta < 1.0:
        raise ValidationError(["0 <= beta < 1"])
    g = np.asarray(grad, dtype=float)
    m_new = beta * state[1] + g
    x_new = state[0] - eta * m_new
    return np.array((x_new, m_new, state[2], state[3]))


@dataclass
class RunReport:
    """Summary of one optimization run.

    iters_to_threshold is None when the gradient-norm threshold was never
    reached. wall_time_s is measured but excluded from emitted artifacts so
    repeated runs stay byte-identical.
    """

    optimizer: str
    best_f: float
    epoch_of_best: int
    final_grad_norm: float
    iters_to_threshold: Optional[int]
    wall_time_s: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    @classmethod
    def failure(cls, name: str, error: str, wall_time_s: float = 0.0, **diagnostics) -> RunReport:
        """Report of a failed run: NaN metrics, the error in its diagnostics."""
        return cls(name, math.nan, 0, math.nan, None, wall_time_s, {"error": error, **diagnostics})


class RunSummary:
    """The report of one run, flow or discrete, built from its rows one step
    at a time.

    Tracks the best f and the first step that reached it, the first step
    whose gradient norm fell below threshold, the final gradient norm, and
    whether nu stayed nonnegative and x inside the box (when there is one).
    A non-finite f or gradient norm means the run diverged: the summary ends
    there and its report is a failure naming the step.
    """

    def __init__(self, threshold: float, box: Optional[float] = None):
        self.threshold = threshold
        self.box = box
        self.best_f = math.inf
        self.epoch_of_best = 0
        self.iters_to_threshold: Optional[int] = None
        self.final_grad_norm = math.nan
        self.nu_nonnegative = True
        self.stayed_in_box = True
        self.diverged_at: Optional[int] = None

    def add(self, step: int, state: np.ndarray, f: float, grad_norm: float) -> bool:
        """Fold in one step: its (4, d) state, f and gradient norm; False
        once the run has diverged."""
        if not (math.isfinite(f) and math.isfinite(grad_norm)):
            self.diverged_at = step
            return False
        if f < self.best_f:
            self.best_f = f
            self.epoch_of_best = step
        if self.iters_to_threshold is None and grad_norm < self.threshold:
            self.iters_to_threshold = step
        self.final_grad_norm = grad_norm
        if self.nu_nonnegative and (state[3] < 0).any():
            self.nu_nonnegative = False
        if self.stayed_in_box and self.box is not None and not (np.abs(state[0]) <= self.box).all():
            self.stayed_in_box = False
        return True

    def report(self, name: str, wall_time_s: float = 0.0) -> RunReport:
        k = self.diverged_at
        if k is not None:
            error = f"diverged at iteration {k}: f or the gradient norm is not finite"
            return RunReport.failure(name, error, wall_time_s, diverged_at=k)
        diagnostics = {"nu_nonnegative": self.nu_nonnegative}
        if self.box is not None:
            diagnostics["stayed_in_box"] = self.stayed_in_box
        return RunReport(
            optimizer=name,
            best_f=float(self.best_f),
            epoch_of_best=self.epoch_of_best,
            final_grad_norm=float(self.final_grad_norm),
            iters_to_threshold=self.iters_to_threshold,
            wall_time_s=wall_time_s,
            diagnostics=diagnostics,
        )


Stepper = Callable[[np.ndarray, np.ndarray, float, int], np.ndarray]


def run_discrete(
    stepper: Stepper,
    objective,
    x0,
    num_iters: int,
    schedule: LrSchedule,
    threshold: float = 1e-4,
    record_stride: int = 1,
    nu0=None,
    alpha_fn: Optional[Callable[[int], float]] = None,
    name: str = "run",
) -> tuple[Trajectory, RunReport]:
    """Iterate a stepper, recording the trajectory and summarizing the run.

    Iteration k calls stepper(state, grad, schedule.eta_at(k), k), for
    example a functools.partial of step_preset or step_sgd_momentum. The
    trajectory's time column is the iteration count. alpha_fn, when given,
    supplies the recorded bias factor per iteration (1.0 otherwise). The
    report summarizes every iteration, recorded or not (see RunSummary). A
    run that diverges stops at the first non-finite f or gradient norm; that
    iteration is recorded last and the report is a failure.
    """
    if num_iters < 0:
        raise ValueError("num_iters must be nonnegative")
    t_start = time.perf_counter()
    state = initial_stepper_state(x0, nu0)
    recorder = _Recorder()
    summary = RunSummary(threshold, getattr(objective, "box", None))
    for k in range(num_iters + 1):
        f_k = objective.eval_f(state[0])
        g_k = objective.eval_grad(state[0])
        gnorm = float(np.linalg.norm(g_k))
        finite = summary.add(k, state, f_k, gnorm)
        if k % record_stride == 0 or k == num_iters or not finite:
            recorder.record(k, state, f_k, gnorm, 1.0 if alpha_fn is None else float(alpha_fn(k)))
        if k == num_iters or not finite:
            break
        state = stepper(state, g_k, schedule.eta_at(k), k)
    return recorder.build(), summary.report(name, time.perf_counter() - t_start)
