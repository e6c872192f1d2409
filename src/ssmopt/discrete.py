"""Discrete-time optimizers: the one update of the named presets and of the
heavy-ball baseline, learning-rate schedules, and discrete runs.

An entry is an OptimizerSpec; a moment row takes its coupling rate b3 and
its input psi from core.map_preset_to_general. Runs on one objective step
together as one packed (R, 4, d) state with rows x, mu, zeta and nu, driven
by the run loop of flow: the update is one rule over the batch, each row
bitwise equal to its solo run. step_preset, step_sgd_momentum and
run_discrete are the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    PresetKind, PresetParams, PsiKind, ValidationError, map_preset_to_general, moment_bias, validate_preset
)
from .flow import RunReport, Trajectory, _only, _pow_rows, _psi, _RowsLeave, _run_rows

BIAS_MODES = ("paper", "beta", "continuous")


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
class OptimizerSpec:
    """One optimizer entry: a kind, display name, and its hyperparameters.

    kind is a PresetKind value or "sgd_momentum". preset carries the rates
    for the adaptive kinds and the base learning rate eta of every kind;
    beta is the heavy-ball momentum factor. KIND_KEYS[kind] lists the keys
    it reads and violations() names the entry conditions it fails.
    """

    kind: str
    name: str
    preset: PresetParams
    bias_mode: str = "paper"
    beta: float = 0.9

    def __post_init__(self):
        if self.kind not in KIND_KEYS:
            raise ValueError(f"kind must be one of {tuple(KIND_KEYS)}, got {self.kind!r}")
        if self.bias_mode not in BIAS_MODES:
            raise ValueError(f"bias_mode must be one of {BIAS_MODES}, got {self.bias_mode!r}")

    def violations(self) -> list[str]:
        """The entry conditions this spec fails, by name: validate_preset's
        for the presets; 0 <= beta < 1, then eta > 0, for sgd_momentum."""
        if self.kind == "sgd_momentum":
            failed = [] if 0.0 <= self.beta < 1.0 else ["0 <= beta < 1"]
            return failed if self.preset.eta > 0 else failed + ["eta > 0"]
        try:
            validate_preset(self.preset, PresetKind(self.kind))
        except ValidationError as exc:
            return exc.violations
        return []


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


@dataclass(frozen=True)
class LrSchedule:
    """Base learning rate scaled by multipliers from given iterations onward.

    milestones is a sequence of (iteration, multiplier) pairs with strictly
    increasing, nonnegative iterations and positive multipliers; all
    milestones at or before the current iteration apply cumulatively.
    base_eta is a float, or an (R, 1) column of them for a batch of runs.
    """

    base_eta: float
    milestones: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        ms = tuple((int(it), float(m)) for it, m in self.milestones)
        object.__setattr__(self, "milestones", ms)
        iters = [it for it, _ in ms]
        violations = []
        if any(b <= a for a, b in zip(iters, iters[1:])):
            violations.append("milestone iterations strictly increasing")
        if any(it < 0 for it in iters):
            violations.append("milestone iterations nonnegative")
        if any(m <= 0 for _, m in ms):
            violations.append("milestone multipliers positive")
        if violations:
            raise ValidationError(violations)

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


def _first_step_error(spec: OptimizerSpec) -> Exception | None:
    """The error the entry's first step raises, if any: fewer conditions than
    OptimizerSpec.violations, as a stepper may take b3 = 0 or epsilon = 0."""
    p = spec.preset
    if spec.kind == "sgd_momentum":
        return None if 0.0 <= spec.beta < 1.0 else ValidationError(["0 <= beta < 1"])
    if spec.kind == "gadagrad":
        return None if 0.0 < p.c < 1.0 else ValidationError(["0 < c < 1"])
    b3 = map_preset_to_general(p, PresetKind(spec.kind)).lambda4
    if 1.0 - p.delta * p.b2 - p.delta * b3 < 0.0:
        return InstabilityError(
            f"1 - delta*b2 - delta*b3 >= 0 required (delta={p.delta:g}, b2={p.b2:g}, b3={b3:g})"
        )
    return None


def _column(values) -> np.ndarray:
    """Per-row rates as an (R, 1) column, or as a 0-d array for a single row:
    the same arithmetic, at half the cost of broadcasting a (1, 1) array."""
    column = np.array(list(values), dtype=float)
    return column.reshape(()) if len(column) == 1 else column[:, None]


class _DiscreteBatch:
    """Discrete runs stepped together as a packed (R, 4, d) state whose rows
    are x, mu, zeta and nu: the discrete rule of flow._run_rows.

    The rows fall into three masked groups, the moment kinds, gadagrad and
    sgd_momentum, each with its rates as (R, 1) columns, so every row goes
    through exactly the arithmetic of its solo run. The bias denominators
    are Python scalars, computed once per step for each distinct (b1, b2,
    delta, bias_mode) and spread to its rows, and nu ** c is applied per
    group of rows sharing c. A row whose first step raises keeps that error
    in errors.
    """

    dt = 1
    every_step = True

    def __init__(self, specs: list[OptimizerSpec], milestones=()):
        self.specs = specs
        # an (R, 1) column even for one row: update takes it by row group
        self.schedule = LrSchedule(np.array([[spec.preset.eta] for spec in specs], dtype=float), milestones)
        self.errors = {i: e for i, e in enumerate(map(_first_step_error, specs)) if e is not None}

        def group(kinds):
            # all rows as a slice, so that a batch of one kind reads views
            index = [i for i, spec in enumerate(specs) if spec.kind in kinds]
            rows = slice(None) if len(index) == len(specs) else np.array(index, dtype=int)
            return (rows if index else None), [specs[i] for i in index]

        self.moment, self.moment_specs = group(_MOMENT_KINDS)
        ps = [(spec.preset, map_preset_to_general(spec.preset, PresetKind(spec.kind))) for spec in self.moment_specs]
        self.keep1 = _column(p.beta1 for p, _ in ps)
        self.gain1 = _column(p.delta * p.b1 for p, _ in ps)
        self.keep2 = _column(p.beta2 for p, _ in ps)
        self.gain2 = _column(p.delta * p.b2 for p, _ in ps)
        self.couple = _column(p.delta * q.lambda4 for p, q in ps)
        self.keep_nu = _column(1.0 - p.delta * p.b2 - p.delta * q.lambda4 for p, q in ps)
        self.moment_epsilon = _column(p.epsilon for p, _ in ps)
        belief = [q.psi_kind is PsiKind.BELIEF for _, q in ps]
        self.belief = np.array(belief)[:, None] if any(belief) else None
        keys = [(q.preset.b1, q.preset.b2, q.preset.delta, q.bias_mode) for q in self.moment_specs]
        distinct = list(dict.fromkeys(keys))
        self.bias_specs = [self.moment_specs[keys.index(key)] for key in distinct]
        self.bias_of = np.array([distinct.index(key) for key in keys], dtype=int)
        self.accumulate, accumulators = group(("gadagrad",))
        self.acc_delta = _column(spec.preset.delta for spec in accumulators)
        self.acc_epsilon = _column(spec.preset.epsilon for spec in accumulators)
        self.acc_c = [spec.preset.c for spec in accumulators]
        self.heavy_ball, heavy_balls = group(("sgd_momentum",))
        self.beta = _column(spec.beta for spec in heavy_balls)

    def select(self, keep: np.ndarray) -> _DiscreteBatch:
        return _DiscreteBatch([spec for spec, kept in zip(self.specs, keep) if kept], self.schedule.milestones)

    def alpha(self, rows: np.ndarray, k: int) -> list[float]:
        specs = [self.specs[i] for i in rows]
        return [bias_alpha(q.preset, k, q.bias_mode) if q.kind in _MOMENT_KINDS else 1.0 for q in specs]

    def step(self, s: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
        if self.errors:
            raise _RowsLeave(np.isin(np.arange(len(s)), list(self.errors)), list(self.errors.values()))
        return self.update(s, g, self.schedule.eta_at(k), k)

    def update(self, s: np.ndarray, g: np.ndarray, eta: np.ndarray, k: int) -> np.ndarray:
        """Iteration k of every row from its gradient g, with the learning
        rates eta as an (R, 1) column (see step_preset, step_sgd_momentum)."""
        out = s.copy()
        rows = self.moment
        if rows is not None:
            x, mu, zeta, nu, gm = s[rows, 0], s[rows, 1], s[rows, 2], s[rows, 3], g[rows]
            mu_new = self.keep1 * mu + self.gain1 * gm
            zeta_new = self.keep2 * zeta + self.gain2 * nu
            nu_new = self.couple * zeta + self.keep_nu * nu + self.gain2 * _psi(gm, mu_new, self.belief)
            bias = [bias_denominators(q.preset, k, q.bias_mode) for q in self.bias_specs]
            # one shared pair divides as Python scalars, the same arithmetic
            # as (R, 1) columns at a fraction of the cost
            b1_corr, b2_corr = bias[0] if len(bias) == 1 else np.array(bias)[self.bias_of].T[:, :, None]
            mu_hat = mu_new / b1_corr
            nu_hat = nu_new / b2_corr
            out[rows, 0] = x - eta[rows] * (mu_hat / (np.sqrt(nu_hat) + self.moment_epsilon))
            out[rows, 1], out[rows, 2], out[rows, 3] = mu_new, zeta_new, nu_new
        rows = self.accumulate
        if rows is not None:
            ga = g[rows]
            nu_new = s[rows, 3] + self.acc_delta * (ga * ga)
            denom = _pow_rows(nu_new, self.acc_c) + self.acc_epsilon
            direction = np.divide(ga, denom, out=np.zeros_like(ga), where=denom > 0)
            out[rows, 0] = s[rows, 0] - (self.acc_delta * eta[rows]) * direction
            out[rows, 3] = nu_new
        rows = self.heavy_ball
        if rows is not None:
            m_new = self.beta * s[rows, 1] + g[rows]
            out[rows, 0] = s[rows, 0] - eta[rows] * m_new
            out[rows, 1] = m_new
        return out


@lru_cache(maxsize=64)
def _batch_of_one(*spec_args, **spec_kwargs) -> _DiscreteBatch:
    # update only reads the batch, so one per entry serves every step; keyed
    # by the OptimizerSpec arguments, which hash faster than the spec
    return _DiscreteBatch([OptimizerSpec(*spec_args, **spec_kwargs)])


def _step_one(batch: _DiscreteBatch, state: np.ndarray, grad, eta: float, k: int) -> np.ndarray:
    if batch.errors:
        # a fresh error each call: the cached one would collect tracebacks
        raise _first_step_error(batch.specs[0])
    g = np.asarray(grad, dtype=float)
    return batch.update(np.asarray(state, dtype=float)[None], g[None], np.array([[eta]], dtype=float), k)[0]


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
    bitwise. Raises InstabilityError when 1 - delta*b2 - delta*b3 < 0.
    """
    name = kind.value
    return _step_one(_batch_of_one(name, name, preset, bias_mode), state, grad, eta, k)


def step_sgd_momentum(state: np.ndarray, grad, eta: float, k: int, beta: float) -> np.ndarray:
    """Classical heavy-ball step: m' = beta*m + g, x' = x - eta*m'; the same
    at every iteration k.

    The momentum buffer lives in the mu row; beta = 0 is plain gradient
    descent.
    """
    return _step_one(_batch_of_one("sgd_momentum", "sgd_momentum", PresetParams(), beta=beta), state, grad, eta, k)


def run_discrete_batch(
    specs: list[OptimizerSpec], objective, x0, num_iters: int, milestones=(), threshold=1e-4, record_stride=1
) -> list[tuple[Trajectory, RunReport] | Exception]:
    """Run the entries together from x0 with zero moments, each with its own
    eta under the shared milestones.

    Returns, in the order of specs, each run's Trajectory and RunReport
    (named spec.name), or the exception its solo run raises: a row whose
    first step is unstable or invalid leaves the batch with that error after
    its iteration-0 evaluation. The time column is the iteration count; rows
    are recorded at iteration 0, every record_stride-th iteration and the
    last one. A report summarizes every iteration, recorded or not (see
    flow.RunStore). A run that diverges stops at the first non-finite f or
    gradient norm, recorded last, and its report is a failure. The other
    rows go on unchanged.
    """
    if num_iters < 0:
        raise ValueError("num_iters must be nonnegative")
    s = np.array([initial_stepper_state(x0)] * len(specs))
    rule = _DiscreteBatch(specs, milestones)
    return _run_rows(rule, s, objective, num_iters, record_stride, threshold, [spec.name for spec in specs])


def run_discrete(
    spec: OptimizerSpec, objective, x0, num_iters: int, milestones=(), threshold=1e-4, record_stride=1
) -> tuple[Trajectory, RunReport]:
    """One entry alone: run_discrete_batch of one, raising the error of a
    run that leaves it with one."""
    return _only(run_discrete_batch([spec], objective, x0, num_iters, milestones, threshold, record_stride))
