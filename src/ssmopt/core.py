"""Domain types, bias correction, and parameter validation for the
state-space family of adaptive gradient optimizers.

The framework describes an optimizer by nine scalar rates (lambda1..lambda8 and
an exponent c) driving four coupled states per coordinate: the iterate x, a
first-moment estimate mu, an auxiliary state zeta, and a second-moment estimate
nu. Named optimizers (gadagrad, adam, adabelief, adamssm, adabeliefssm) are
presets that map a small set of hyperparameters (b1, b2, b3) onto the general
parameterization. map_preset_to_general alone decides which kinds couple nu
to zeta (b3) and which take the belief input; preset_conditions states their
entry conditions. Validators state their conditions as ordered dicts of
name to truth value, and require raises the one ValidationError naming each
that fails.

A state is one float array with rows x, mu, zeta and nu: shaped (4, d) for
one state and (N, 4, d) for a trajectory of N records. A batch of R runs is
component-major, (4, R, d), so that the x, mu, zeta and nu of all its rows
are each one contiguous (R, d) block. Its time (physical time for a flow,
the iteration count for a discrete run) travels beside it. A flow and a
discrete run alike start at initial_stepper_state and step by moment_rows.

All types here are immutable after construction and safe to share between
concurrently running experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class ValidationError(ValueError):
    """Input fails named conditions: the one error of every failed
    condition the library states, through require.

    Attributes
    ----------
    violations : list of str
        Every violated condition, named by the failed inequality.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid parameters: " + "; ".join(self.violations))

    def __reduce__(self):
        return type(self), (self.violations,)


class PsiKind(Enum):
    """Input function driving the second-moment dynamic."""

    SQUARED_GRADIENT = "squared_gradient"
    BELIEF = "belief"


@dataclass(frozen=True)
class OptimizerParams:
    """Nine-scalar parameterization of the generic optimizer flow.

    Parameters
    ----------
    lambda1, lambda2 : decay and gain rates of the first-moment estimate.
    lambda3 : rate of the auxiliary state zeta.
    lambda4, lambda5 : zeta coupling and decay rates of the second moment.
    lambda6 : input gain of the second moment.
    lambda7, lambda8 : weights of the moment estimate and of the raw gradient
        in the x update; at least one must be positive.
    c : exponent applied to the second moment in the x update, in (0, 1).
    psi_kind : which input function drives the second-moment dynamic.
    """

    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    lambda5: float
    lambda6: float
    lambda7: float
    lambda8: float
    c: float
    psi_kind: PsiKind = PsiKind.SQUARED_GRADIENT


def moment_bias(t: float, rate1: float, rate2: float) -> tuple[float, float]:
    """Bias of the first and second moment estimates at time t: the share
    1 - (1 - rate)^(t+1) of its input that an estimate started at zero has
    gathered, for each of the two rates."""
    e = t + 1
    return 1.0 - (1.0 - rate1) ** e, 1.0 - (1.0 - rate2) ** e


def initial_stepper_state(x0, nu0=None) -> np.ndarray:
    """State before the first step of a flow or discrete run, a (4, d) array
    of rows x, mu, zeta, nu: moments at zero, nu at nu0 (x0's shape) if given."""
    x0 = np.asarray(x0, dtype=float)
    zero = np.zeros_like(x0)
    nu = zero if nu0 is None else np.asarray(nu0, dtype=float)
    if nu.shape != x0.shape:
        raise ValueError(f"nu0 shape {nu.shape} != x0 shape {x0.shape}")
    return np.array((x0, zero, zero, nu))


# the rows the two coefficient stacks take: mu, mu, zeta, zeta, then g, g, nu, nu
_TERMS = np.array([1, 1, 2, 2, 3, 3, 3, 3])


def moment_rows(coef: np.ndarray, gain_psi: np.ndarray, squared: np.ndarray, s: np.ndarray, g: np.ndarray, step: bool):
    """coef[:4] * [mu, mu, zeta, zeta] + coef[4:] * [g, g, nu, nu], plus
    gain_psi * psi on row 3, for a (4, R, d) batch s with gradients g: row
    0 is the x update's numerator, rows 1 to 3 the derivatives of mu, zeta
    and nu for a flow and their new values for a discrete step, as a view
    of one new (8, R, d) array. psi is g^2 on the elements of the (R, d)
    bool mask squared, else (g - m)^2, where m is mu, or for a discrete
    step mu' (row 1)."""
    terms = s.take(_TERMS, 0)
    terms[4:6] = g
    terms *= coef
    out = terms[:4]
    out += terms[4:]
    psi = g - (out[1] if step else s[1])
    np.copyto(psi, g, where=squared)
    psi *= psi
    psi *= gain_psi
    nu = out[3]  # out[3] += psi would copy the sum back through out
    nu += psi
    return out


def alpha_g(t: float, params: OptimizerParams) -> float:
    """Bias-correction factor at time t.

    Both moment estimates start at zero, which biases them toward zero early
    on; the x update divides by this factor to compensate. When the x update
    does not use the moment estimate (lambda7 == 0) no correction is needed
    and the factor is exactly 1. A negative or NaN time is a ValidationError
    naming t >= 0.
    """
    if not t >= 0:
        raise ValidationError(["t >= 0"])
    if params.lambda7 == 0:
        return 1.0
    num, den = moment_bias(float(t), params.lambda2, params.lambda6)
    return num / den ** params.c


def require(conditions: dict[str, bool]) -> None:
    """Raise one ValidationError naming, in order, every condition of
    conditions (name: whether it holds) that does not hold."""
    failed = [name for name, holds in conditions.items() if not holds]
    if failed:
        raise ValidationError(failed)


# The most float64s one numpy array holds: numpy rejects one of more than np.iinfo(np.intp).max bytes.
MAX_FLOATS = np.iinfo(np.intp).max // 8


def validate_params(raw: OptimizerParams) -> OptimizerParams:
    """Check the stability conditions, returning the value unchanged if all hold.

    Comparisons are exact; values on the boundary of a strict inequality are
    rejected. Raises ValidationError naming every violated condition. The
    lambda5 bound is skipped when c <= 0 since it is not evaluable then.
    """
    moment = raw.lambda7 > 0  # moment-weighted updates additionally need 0 < lambda6 < lambda2 < 1
    require({
        "lambda1 >= 0": raw.lambda1 >= 0,
        "lambda2 > 0": raw.lambda2 > 0,
        "lambda3 > 0": raw.lambda3 > 0,
        "lambda4 >= 0": raw.lambda4 >= 0,
        "lambda4 <= lambda5": raw.lambda4 <= raw.lambda5,
        "lambda5 < 2*lambda1/c": not raw.c > 0 or raw.lambda5 < 2.0 * raw.lambda1 / raw.c,
        "lambda6 > 0": raw.lambda6 > 0,
        "lambda7 >= 0": raw.lambda7 >= 0,
        "lambda8 >= 0": raw.lambda8 >= 0,
        "lambda7 + lambda8 > 0": raw.lambda7 + raw.lambda8 > 0,
        "0 < c < 1": 0.0 < raw.c < 1.0,
        "lambda6 < lambda2": not moment or raw.lambda6 < raw.lambda2,
        "lambda2 < 1": not moment or raw.lambda2 < 1,
    })
    return raw


class PresetKind(Enum):
    """Named optimizers expressible in the general parameterization."""

    GADAGRAD = "gadagrad"
    ADAM = "adam"
    ADABELIEF = "adabelief"
    ADAMSSM = "adamssm"
    ADABELIEFSSM = "adabeliefssm"


@dataclass(frozen=True)
class PresetParams:
    """Hyperparameters of the named optimizers.

    Parameters
    ----------
    b1, b2 : first- and second-moment rates; the discrete retention factors
        are beta1 = 1 - delta*b1 and beta2 = 1 - delta*b2.
    b3 : extra second-moment coupling rate; zero for adam/adabelief,
        strictly positive for the ...ssm variants.
    delta : sampling time of the discrete steppers.
    epsilon : additive denominator guard in the discrete x update.
    eta : base learning rate; schedules scale it at milestones.
    c : accumulator exponent, used by the gadagrad preset.
    """

    b1: float = 0.67
    b2: float = 0.0067
    b3: float = 0.0
    delta: float = 0.15
    epsilon: float = 1e-8
    eta: float = 1e-3
    c: float = 0.5

    @property
    def beta1(self) -> float:
        """Discrete first-moment retention factor 1 - delta*b1."""
        return 1.0 - self.delta * self.b1

    @property
    def beta2(self) -> float:
        """Discrete second-moment retention factor 1 - delta*b2."""
        return 1.0 - self.delta * self.b2


def preset_conditions(preset: PresetParams, kind: PresetKind) -> dict[str, bool]:
    """The convergence conditions of the named optimizer, by name, and
    whether each holds, in the order validate_preset names them.

    adam/adabelief need 0 < b2 < b1 < 1; the ...ssm variants additionally
    b3 > 0 and b2 + b3 < 4*b1; gadagrad only needs 0 < c < 1. All kinds need
    delta > 0, epsilon > 0 and eta > 0. Strict inequalities are checked
    exactly, so NaN fails every one of them. A kind that is not a
    PresetKind is a ValueError, as in map_preset_to_general.
    """
    if not isinstance(kind, PresetKind):
        raise ValueError(f"unknown preset kind: {kind!r}")
    conditions = {"delta > 0": preset.delta > 0, "epsilon > 0": preset.epsilon > 0, "eta > 0": preset.eta > 0}
    if kind is PresetKind.GADAGRAD:
        return {**conditions, "0 < c < 1": 0.0 < preset.c < 1.0}
    conditions.update({"0 < b2": 0 < preset.b2, "b2 < b1": preset.b2 < preset.b1, "b1 < 1": preset.b1 < 1})
    if kind in (PresetKind.ADAMSSM, PresetKind.ADABELIEFSSM):
        conditions.update({"b3 > 0": preset.b3 > 0, "b2 + b3 < 4*b1": preset.b2 + preset.b3 < 4.0 * preset.b1})
    return conditions


def validate_preset(preset: PresetParams, kind: PresetKind) -> PresetParams:
    """Enforce preset_conditions: a ValidationError names each that fails."""
    require(preset_conditions(preset, kind))
    return preset


def map_preset_to_general(preset: PresetParams, kind: PresetKind) -> OptimizerParams:
    """Express a named optimizer in the general parameterization: only the
    ssm kinds couple nu to zeta, at the rate lambda4 = b3, and the belief
    kinds take the belief input. The returned value satisfies validate_params
    whenever the preset satisfies validate_preset for its kind.
    """
    if not isinstance(kind, PresetKind):
        raise ValueError(f"unknown preset kind: {kind!r}")
    if kind is PresetKind.GADAGRAD:
        # lambda1..lambda3 are inert here: mu and zeta are decoupled from x
        # when lambda7 = 0 and lambda4 = 0. Any positive values pass validation.
        return OptimizerParams(
            lambda1=1.0, lambda2=1.0, lambda3=1.0,
            lambda4=0.0, lambda5=0.0, lambda6=1.0,
            lambda7=0.0, lambda8=1.0,
            c=preset.c, psi_kind=PsiKind.SQUARED_GRADIENT,
        )
    b3 = preset.b3 if kind in (PresetKind.ADAMSSM, PresetKind.ADABELIEFSSM) else 0.0
    belief = kind in (PresetKind.ADABELIEF, PresetKind.ADABELIEFSSM)
    return OptimizerParams(
        lambda1=preset.b1, lambda2=preset.b1, lambda3=preset.b2,
        lambda4=b3, lambda5=preset.b2 + b3, lambda6=preset.b2,
        lambda7=1.0, lambda8=0.0,
        c=0.5, psi_kind=PsiKind.BELIEF if belief else PsiKind.SQUARED_GRADIENT,
    )
