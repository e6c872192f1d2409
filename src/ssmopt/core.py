"""Domain types, bias correction, and parameter validation for the
state-space family of adaptive gradient optimizers.

The framework describes an optimizer by nine scalar rates (lambda1..lambda8 and
an exponent c) driving four coupled states per coordinate: the iterate x, a
first-moment estimate mu, an auxiliary state zeta, and a second-moment estimate
nu. Named optimizers (gadagrad, adam, adabelief, adamssm, adabeliefssm) are
presets that map a small set of hyperparameters (b1, b2, b3) onto the general
parameterization. map_preset_to_general alone decides which kinds couple nu
to zeta (b3) and which take the belief input; validate_preset states their
entry conditions.

A state is one float array with rows x, mu, zeta and nu: shaped (4, d) for
one state and (N, 4, d) for a trajectory of N records. A batch of R runs is
component-major, (4, R, d), so that the x, mu, zeta and nu of all its rows
are each one contiguous (R, d) block. Its time (physical time for a flow,
the iteration count for a discrete run) travels beside it.

All types here are immutable after construction and safe to share between
concurrently running experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class ValidationError(ValueError):
    """Parameter values violate the stability conditions.

    Attributes
    ----------
    violations : list of str
        Every violated condition, named by the failed inequality.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid parameters: " + "; ".join(self.violations))


class DomainError(ValueError):
    """An evaluation left the domain where the dynamics are defined."""


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

    @property
    def bias_correction(self) -> bool:
        """True iff the x update uses the first-moment estimate (lambda7 > 0)."""
        return self.lambda7 > 0


def moment_bias(t: float, rate1: float, rate2: float) -> tuple[float, float]:
    """Bias of the first and second moment estimates at time t: the share
    1 - (1 - rate)^(t+1) of its input that an estimate started at zero has
    gathered, for each of the two rates."""
    e = t + 1
    return 1.0 - (1.0 - rate1) ** e, 1.0 - (1.0 - rate2) ** e


def alpha_g(t: float, params: OptimizerParams) -> float:
    """Bias-correction factor at time t.

    Both moment estimates start at zero, which biases them toward zero early
    on; the x update divides by this factor to compensate. When the x update
    does not use the moment estimate (lambda7 == 0) no correction is needed
    and the factor is exactly 1.
    """
    if params.lambda7 == 0:
        return 1.0
    num, den = moment_bias(float(t), params.lambda2, params.lambda6)
    return num / den ** params.c


def validate_params(raw: OptimizerParams) -> OptimizerParams:
    """Check the stability conditions, returning the value unchanged if all hold.

    Comparisons are exact; values on the boundary of a strict inequality are
    rejected. Raises ValidationError naming every violated condition. The
    lambda5 bound is skipped when c <= 0 since it is not evaluable then.
    """
    v: list[str] = []
    if not raw.lambda1 >= 0:
        v.append("lambda1 >= 0")
    if not raw.lambda2 > 0:
        v.append("lambda2 > 0")
    if not raw.lambda3 > 0:
        v.append("lambda3 > 0")
    if not raw.lambda4 >= 0:
        v.append("lambda4 >= 0")
    if not raw.lambda4 <= raw.lambda5:
        v.append("lambda4 <= lambda5")
    if raw.c > 0 and not raw.lambda5 < 2.0 * raw.lambda1 / raw.c:
        v.append("lambda5 < 2*lambda1/c")
    if not raw.lambda6 > 0:
        v.append("lambda6 > 0")
    if not raw.lambda7 >= 0:
        v.append("lambda7 >= 0")
    if not raw.lambda8 >= 0:
        v.append("lambda8 >= 0")
    if not raw.lambda7 + raw.lambda8 > 0:
        v.append("lambda7 + lambda8 > 0")
    if not 0.0 < raw.c < 1.0:
        v.append("0 < c < 1")
    if raw.lambda7 > 0:
        # moment-weighted updates additionally need 0 < lambda6 < lambda2 < 1
        if not raw.lambda6 < raw.lambda2:
            v.append("lambda6 < lambda2")
        if not raw.lambda2 < 1:
            v.append("lambda2 < 1")
    if v:
        raise ValidationError(v)
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


def validate_preset(preset: PresetParams, kind: PresetKind) -> PresetParams:
    """Enforce the convergence conditions of the named optimizer.

    adam/adabelief need 0 < b2 < b1 < 1; the ...ssm variants additionally
    b3 > 0 and b2 + b3 < 4*b1; gadagrad only needs 0 < c < 1. All kinds need
    delta > 0, epsilon > 0 and eta > 0. Strict inequalities are checked
    exactly, so NaN fails every one of them.
    """
    v: list[str] = []
    if not preset.delta > 0:
        v.append("delta > 0")
    if not preset.epsilon > 0:
        v.append("epsilon > 0")
    if not preset.eta > 0:
        v.append("eta > 0")
    if kind is PresetKind.GADAGRAD:
        if not 0.0 < preset.c < 1.0:
            v.append("0 < c < 1")
    else:
        if not 0 < preset.b2:
            v.append("0 < b2")
        if not preset.b2 < preset.b1:
            v.append("b2 < b1")
        if not preset.b1 < 1:
            v.append("b1 < 1")
        if kind in (PresetKind.ADAMSSM, PresetKind.ADABELIEFSSM):
            if not preset.b3 > 0:
                v.append("b3 > 0")
            if not preset.b2 + preset.b3 < 4.0 * preset.b1:
                v.append("b2 + b3 < 4*b1")
    if v:
        raise ValidationError(v)
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
