"""Discrete-time optimizers: the one update of the named presets and of the
heavy-ball baseline, learning-rate schedules, and discrete runs.

An entry is an OptimizerSpec; a moment row takes its coupling rate b3 and
its input psi from core.map_preset_to_general. Runs on one objective step
together as one packed (4, R, d) state whose (R, d) blocks are x, mu, zeta
and nu, driven by the run loop of flow. Every kind is a row of coefficient
arrays of one update, and each row is bitwise equal to its solo run.
step_preset, step_sgd_momentum and run_discrete are the batch of one.
"""

from __future__ import annotations

import bisect
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    PresetKind, PresetParams, PsiKind, ValidationError, initial_stepper_state, map_preset_to_general, moment_bias,
    moment_rows, preset_conditions, require,
)
from .flow import RunReport, Trajectory, _c_groups, _full, _only, _point_of, _pow_rows, _RowsLeave, _run_rows

BIAS_MODES = ("paper", "beta", "continuous")


@dataclass(frozen=True)
class OptimizerSpec:
    """One optimizer entry: a kind, display name, and its hyperparameters.

    kind is a PresetKind value or "sgd_momentum". preset carries the rates
    for the adaptive kinds and the base learning rate eta of every kind;
    beta is the heavy-ball momentum factor. KIND_KEYS[kind] lists the keys
    it reads, conditions() its entry conditions and violations() those it
    fails. A ValidationError names each of a kind or bias_mode off KIND_KEYS
    or BIAS_MODES, a name with a comma, double quote, CR or LF and a name
    not encodable as UTF-8, which would break summary.csv.
    """

    kind: str
    name: str
    preset: PresetParams
    bias_mode: str = "paper"
    beta: float = 0.9

    def __post_init__(self):
        require({
            f"kind one of {tuple(KIND_KEYS)}": self.kind in KIND_KEYS,
            f"bias_mode one of {BIAS_MODES}": self.bias_mode in BIAS_MODES,
            "name without comma, double quote, CR or LF": not any(ch in self.name for ch in ',"\r\n'),
            # lone surrogates are the only code points UTF-8 cannot encode
            "name encodable as UTF-8": not any("\ud800" <= ch <= "\udfff" for ch in self.name),
        })

    def conditions(self) -> dict[str, bool]:
        """The entry conditions, by name, and whether each holds: 0 <= beta < 1
        and eta > 0 for sgd_momentum; core.preset_conditions for the presets,
        then _positivity's two sampling-time conditions (b3 > 0 states its
        third). They imply the first step's: the entry's runs keep nu >= 0."""
        p = self.preset
        if self.kind == "sgd_momentum":
            return {"0 <= beta < 1": 0.0 <= self.beta < 1.0, "eta > 0": p.eta > 0}
        conditions = preset_conditions(p, PresetKind(self.kind))
        conditions.update(list(_positivity(self).items())[:2])
        return conditions

    def violations(self) -> list[str]:
        """The entry conditions this spec fails, by name, in order."""
        return [name for name, holds in self.conditions().items() if not holds]


_MOMENT_KEYS = ("b1", "b2", "delta", "epsilon", "eta", "bias_mode")
# Every optimizer kind, in the order messages list them, with the config keys
# it reads besides kind and name. The moment kinds are the kinds that read b1.
KIND_KEYS = {
    "gadagrad": ("delta", "epsilon", "eta", "c"),
    "adam": _MOMENT_KEYS,
    "adabelief": _MOMENT_KEYS,
    "adamssm": _MOMENT_KEYS + ("b3",),
    "adabeliefssm": _MOMENT_KEYS + ("b3",),
    "sgd_momentum": ("eta", "beta"),
}
_MOMENT_KINDS = tuple(kind for kind, keys in KIND_KEYS.items() if "b1" in keys)
# per kind, the conditions of OptimizerSpec.conditions its first step needs
# (gadagrad's gain_psi is delta); a stepper may take b3 = 0 or epsilon = 0
_STEP_NEEDS = {
    "gadagrad": ("delta > 0", "0 < c < 1"),
    **dict.fromkeys(_MOMENT_KINDS, ("delta > 0", "0 < b2", "b2 < b1", "b1 < 1")),
    "sgd_momentum": ("0 <= beta < 1",),
}


@dataclass(frozen=True)
class LrSchedule:
    """Base learning rate scaled by multipliers from given iterations onward.

    milestones is a sequence of (iteration, multiplier) pairs with strictly
    increasing, nonnegative whole-number iterations and positive
    multipliers; all milestones at or before the current iteration apply
    cumulatively.
    base_eta is a float, or an (R, d) array of them for a batch of runs,
    each row at the shape of the block it scales.
    """

    base_eta: float
    milestones: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        iters = [it for it, _ in self.milestones]
        # an Integral needs no float, which a large int would overflow
        whole = all(isinstance(it, numbers.Integral) or float(it).is_integer() for it in iters)
        require({
            "milestone iterations whole numbers": whole,
            "milestone iterations strictly increasing": not any(b <= a for a, b in zip(iters, iters[1:])),
            "milestone iterations nonnegative": not any(it < 0 for it in iters),
            "milestone multipliers positive": all(m > 0 for _, m in self.milestones),
        })
        ms = tuple((int(it), float(m)) for it, m in self.milestones)
        object.__setattr__(self, "milestones", ms)
        iters = [it for it, _ in ms]
        # the rate after each number of passed milestones, multiplied in order
        etas = [self.base_eta]
        for _, m in ms:
            etas.append(etas[-1] * m)
        object.__setattr__(self, "_iters", iters)
        object.__setattr__(self, "_etas", etas)

    def eta_at(self, iteration: int) -> float:
        """The rate at an iteration: base_eta times the multiplier of every
        milestone at or before it, in milestone order (read only)."""
        return self._etas[bisect.bisect_right(self._iters, iteration)]


def bias_denominators(preset: PresetParams, iteration: int, bias_mode: str) -> tuple[float, float]:
    """Bias-correction denominators for the moment estimates at one iteration,
    core.moment_bias at

    paper:      t = k with the rates b1 and b2,
    beta:       t = k with the rates delta*b1 and delta*b2,
    continuous: t = k*delta with the rates b1 and b2, the flow's bias factor
                sampled at physical time k*delta.

    A negative or NaN iteration is a ValidationError naming iteration >= 0,
    a mode outside BIAS_MODES one naming it as OptimizerSpec does.
    """
    k = iteration
    if not k >= 0:
        raise ValidationError(["iteration >= 0"])
    if bias_mode == "paper":
        return moment_bias(k, preset.b1, preset.b2)
    if bias_mode == "beta":
        return moment_bias(k, preset.delta * preset.b1, preset.delta * preset.b2)
    if bias_mode == "continuous":
        return moment_bias(k * preset.delta, preset.b1, preset.b2)
    raise ValidationError([f"bias_mode one of {BIAS_MODES}"])


def bias_alpha(preset: PresetParams, iteration: int, bias_mode: str) -> float:
    """Effective bias factor B1/B2^(1/2) applied to the x update at one iteration."""
    b1_corr, b2_corr = bias_denominators(preset, iteration, bias_mode)
    return b1_corr / b2_corr ** 0.5


def _first_step_error(spec: OptimizerSpec) -> ValidationError | None:
    """The ValidationError the entry's first step raises, if any, naming the
    failed conditions of _STEP_NEEDS, else those of _positivity. Together
    they are the positivity rule: each coefficient of _row that feeds zeta or
    nu is nonnegative, so nu, from 0 and driven by a square, stays >= 0."""
    failed = [condition for condition in spec.violations() if condition in _STEP_NEEDS[spec.kind]]
    failed = failed or [condition for condition, holds in _positivity(spec).items() if not holds]
    return ValidationError(failed) if failed else None


def _positivity(spec: OptimizerSpec) -> dict[str, bool]:
    """A moment row's coefficients that _STEP_NEEDS leaves open, named by
    their rates: keep1 (else mu, and under bias_mode "beta" the bias factor,
    changes sign every step), keep_nu and couple are not negative: a NaN
    keep1 or keep_nu is left to the conditions on its rates, a NaN b3 fails
    couple's, and b3 = 0 meets it at any delta. Empty for the other kinds."""
    if spec.kind not in _MOMENT_KINDS:
        return {}
    p, (keep1, _, _, _, couple, keep_nu, *_) = spec.preset, _row(spec)[0]
    b3 = map_preset_to_general(p, PresetKind(spec.kind)).lambda4
    return {
        f"1 - delta*b1 >= 0 required (delta={p.delta:g}, b1={p.b1:g})": not keep1 < 0.0,
        f"1 - delta*b2 - delta*b3 >= 0 required (delta={p.delta:g}, b2={p.b2:g}, b3={b3:g})": not keep_nu < 0.0,
        f"delta*b3 >= 0 required (delta={p.delta:g}, b3={b3:g})": couple >= 0.0 or b3 == 0.0,
    }


def _row(spec: OptimizerSpec) -> tuple:
    """The entry's coefficients (see _DiscreteBatch), its c, whether it takes
    the belief input and is an accumulator, and the rates of its bias
    denominators (None for B1 = B2 = 1)."""
    p = spec.preset
    if spec.kind == "sgd_momentum":
        return (spec.beta, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0), 0.5, False, False, None
    q = map_preset_to_general(p, PresetKind(spec.kind))
    if spec.kind == "gadagrad":
        return (0.0, 0.0, 0.0, 0.0, 0.0, 1.0, p.delta, p.epsilon, p.delta), q.c, False, True, None
    gain2, couple = p.delta * p.b2, p.delta * q.lambda4
    coefficients = (p.beta1, p.delta * p.b1, p.beta2, gain2, couple, 1.0 - gain2 - couple, gain2, p.epsilon, 1.0)
    return coefficients, q.c, q.psi_kind is PsiKind.BELIEF, False, (p.b1, p.b2, p.delta, spec.bias_mode)


class _DiscreteBatch:
    """Discrete runs of dimension dim stepped together as a packed (4, R, d)
    state whose blocks are x, mu, zeta and nu: the discrete rule of
    flow._run_rows. Every kind is a row of coefficients (see _row) through
    the flow's kernel, core.moment_rows, with [keep1, keep1, keep2, couple]
    and [gain1, gain1, gain2, keep_nu] stacked in coef, and gain_psi,
    epsilon, eta_gain and the squared-input mask (all True when no row
    takes the belief input) at the (R, d) shape of the blocks:

        mu'   = keep1*mu + gain1*g
        zeta' = keep2*zeta + gain2*nu
        nu'   = couple*zeta + keep_nu*nu + gain_psi*psi(g, mu')
        x'    = x - (eta_gain*eta) * num / ((nu'/B2)**c + epsilon)

    x' overwrites the kernel's x row, a repeat of mu's. num is mu'/B1, or g
    on the accumulator rows, whose step is zero where the denominator is
    not > 0. As 1.0*v, v/1.0 and 0.0 + v give v back, each row is bitwise
    its solo run. B1, B2 and alpha are Python scalars once per step for
    each distinct (b1, b2, delta, bias_mode), 1 for the kinds without
    moment estimates and for a row whose first step raises (it keeps that
    error in errors), spread to their rows; nu ** c is taken per group of
    rows sharing c.
    """

    dt = 1
    every_step = True

    def __init__(self, specs: list[OptimizerSpec], dim: int, milestones=()):
        self.specs = specs
        self.dim = dim
        self.schedule = LrSchedule(_full([spec.preset.eta for spec in specs], dim), milestones)
        self.errors = {i: e for i, e in enumerate(map(_first_step_error, specs)) if e is not None}
        coefficients, cs, belief, accumulate, keys = zip(*map(_row, specs)) if specs else ((),) * 5
        coefficients = np.reshape(coefficients, (-1, 9)).T
        self.coef = _full(coefficients[[0, 0, 2, 4, 1, 1, 3, 5]], dim)
        self.gain_psi, self.epsilon, self.eta_gain = _full(coefficients[6:], dim)
        self.c_groups = _c_groups(cs)
        self.squared = _full(np.logical_not(belief), dim, bool)
        self.accumulate = _full(accumulate, dim, bool) if any(accumulate) else None
        self.divides = None if self.accumulate is None else ~self.accumulate
        # a row that leaves with an error is never stepped: its bias factors are 1
        keys = [None if i in self.errors else key for i, key in enumerate(keys)]
        distinct = list(dict.fromkeys(keys))
        self.bias_specs = [specs[keys.index(key)] if key else None for key in distinct]
        self.bias_of = _full([distinct.index(key) for key in keys], dim, int)

    def select(self, keep: np.ndarray) -> _DiscreteBatch:
        specs = [spec for spec, kept in zip(self.specs, keep) if kept]
        return _DiscreteBatch(specs, self.dim, self.schedule.milestones)

    def alpha(self, rows, k: int) -> np.ndarray:
        alphas = [bias_alpha(q.preset, k, q.bias_mode) if q else 1.0 for q in self.bias_specs]
        return np.array(alphas).take(self.bias_of[:, 0])[rows]

    def step(self, s: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
        if self.errors:
            raise _RowsLeave(np.isin(np.arange(s.shape[1]), list(self.errors)), list(self.errors.values()))
        return self.update(s, g, self.schedule.eta_at(k), k)

    def update(self, s: np.ndarray, g: np.ndarray, eta: np.ndarray, k: int) -> np.ndarray:
        """Iteration k of every row from its gradient g, with the learning
        rates eta at the (R, d) shape of g (see step_preset,
        step_sgd_momentum)."""
        out = moment_rows(self.coef, self.gain_psi, self.squared, s, g, step=True)
        bias = [bias_denominators(q.preset, k, q.bias_mode) if q else (1.0, 1.0) for q in self.bias_specs]
        # one shared pair divides as Python scalars: the same arithmetic at a fraction of the cost
        b1_corr, b2_corr = bias[0] if len(bias) == 1 else np.array(bias).T.take(self.bias_of, 1)
        num = out[1] / b1_corr
        denom = _pow_rows(out[3] / b2_corr, self.c_groups)
        denom += self.epsilon
        acc = self.accumulate
        if acc is None:
            # eta_gain is 1 on every row but an accumulator's
            direction = np.divide(num, denom, out=num)
        else:
            np.copyto(num, g, where=acc)
            direction = np.divide(num, denom, out=np.zeros_like(num), where=self.divides | (denom > 0))
            eta = self.eta_gain * eta
            # an accumulator's zeta stays 0 once its nu overflows, where 0*inf is NaN
            np.copyto(out[2], 0.0, where=acc)
        direction *= eta
        np.subtract(s[0], direction, out=out[0])
        return out


@lru_cache(maxsize=64)
def _batch_of_one(dim: int, *spec_args, **spec_kwargs) -> _DiscreteBatch:
    # update only reads the batch, so one per entry and dimension serves
    # every step; keyed by the OptimizerSpec arguments, which hash faster
    # than the spec
    return _DiscreteBatch([OptimizerSpec(*spec_args, **spec_kwargs)], dim)


def _step_one(state: np.ndarray, grad, eta: float, k: int, *spec_args, **spec_kwargs) -> np.ndarray:
    g = np.asarray(grad, dtype=float)
    batch = _batch_of_one(g.shape[-1], *spec_args, **spec_kwargs)
    if batch.errors:
        # a fresh error each call: the cached one would collect tracebacks
        raise _first_step_error(batch.specs[0])
    s = np.asarray(state, dtype=float)[:, None]
    return batch.update(s, g[None], np.full(s.shape[1:], eta, dtype=float), k)[:, 0]


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

    gadagrad accumulates, without bias correction, and its mu and zeta come
    out zero:

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
    bias_denominators at iteration k under bias_mode. Every kind is a row of
    coefficients of one update (see _DiscreteBatch), so kinds that differ
    only by an inert parameter agree bitwise. Rates that fail the first
    step's conditions, the positivity rule that keeps nu' >= 0 among them,
    are a ValidationError naming each (see _first_step_error).
    """
    name = kind.value
    return _step_one(state, grad, eta, k, name, name, preset, bias_mode)


def step_sgd_momentum(state: np.ndarray, grad, eta: float, k: int, beta: float) -> np.ndarray:
    """Classical heavy-ball step: m' = beta*m + g, x' = x - eta*m'; the same
    at every iteration k.

    The momentum buffer lives in the mu row; beta = 0 is plain gradient
    descent. As a row of the one discrete update its nu is 0*zeta + 0*nu +
    0*g^2: zeta and nu come out zero, and a gradient whose square overflows
    (|g| > 1.3e154) gives a NaN iterate; a run ends before such a step.
    """
    return _step_one(state, grad, eta, k, "sgd_momentum", "sgd_momentum", PresetParams(), beta=beta)


@np.errstate(over="ignore", invalid="ignore")
def run_discrete_batch(
    specs: list[OptimizerSpec], objective, x0, num_iters: int, milestones=(), threshold=1e-4, record_stride=1
) -> list[tuple[Trajectory, RunReport] | Exception]:
    """Run the entries together from x0 with zero moments, each with its own
    eta under the shared milestones.

    Returns, in the order of specs, each run's Trajectory and RunReport
    (named spec.name), or the exception its solo run raises: a row whose
    rates fail its first step's conditions leaves the batch after its
    iteration-0 evaluation with the ValidationError naming them (see
    _first_step_error, under which no recorded nu is negative). The time
    column is the iteration count; rows are recorded at iteration 0, every
    record_stride-th iteration and the last one. A report summarizes every
    iteration, recorded or not (see flow.RunStore). A run that diverges
    stops at the first non-finite f or gradient norm, recorded last, and its
    report is a failure. The other rows go on unchanged. A run's overflow
    and invalid operations surface only as its failure, never as a
    RuntimeWarning. Before any step, in this order, an x0 that is not a
    point of the objective is a ValueError, and milestones that LrSchedule
    rejects or run settings that fail flow._check_run are a ValidationError
    naming each, as in load_config.
    """
    s = np.repeat(initial_stepper_state(_point_of(objective, x0))[:, None], len(specs), axis=1)
    rule = _DiscreteBatch(specs, s.shape[2], milestones)
    return _run_rows(rule, s, objective, num_iters, record_stride, threshold, [spec.name for spec in specs])


def run_discrete(
    spec: OptimizerSpec, objective, x0, num_iters: int, milestones=(), threshold=1e-4, record_stride=1
) -> tuple[Trajectory, RunReport]:
    """One entry alone: run_discrete_batch of one, raising the error of a
    run that leaves it with one."""
    return _only(run_discrete_batch([spec], objective, x0, num_iters, milestones, threshold, record_stride))
