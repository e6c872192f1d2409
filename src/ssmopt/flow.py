"""Continuous-time optimizer flows: the generic right-hand side, named preset
flows, fixed-step integrators, and the accumulator energy-balance diagnostic.

Integration of one trajectory is strictly sequential; flows on one objective
are integrated together as one packed batch, each row bitwise equal to its
solo run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DomainError,
    FlowState,
    OptimizerParams,
    PresetKind,
    PresetParams,
    PsiKind,
    alpha_g,
    map_preset_to_general,
    validate_params,
    validate_preset,
)
from .objectives import Objective


class StepFailure(RuntimeError):
    """Integration produced a state outside the dynamics' domain.

    A nonpositive second-moment component is a hard error, not something to
    clamp: silently flooring nu would mask parameter or step-size
    misconfiguration.
    """

    def __init__(self, t: float, state: FlowState, message: str = ""):
        self.t = t
        self.state = state
        super().__init__(message or f"integration failed at t={t:g}: nu lost positivity")


class PresetMismatch(ValueError):
    """Operation requires a specific preset structure the params do not have."""


@dataclass(frozen=True)
class FlowProblem:
    """A flow to integrate: objective, validated params, and initial values."""

    objective: Objective
    params: OptimizerParams
    x0: np.ndarray
    nu0: np.ndarray

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        nu0 = np.asarray(self.nu0, dtype=float)
        if x0.shape != (self.objective.dim,):
            raise ValueError(
                f"x0 shape {x0.shape} does not match objective dimension {self.objective.dim}"
            )
        if nu0.shape != x0.shape:
            raise ValueError(f"nu0 shape {nu0.shape} != x0 shape {x0.shape}")
        if np.any(nu0 <= 0):
            raise DomainError("nu0 must be positive componentwise")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "nu0", nu0)


def make_flow_problem(objective: Objective, params: OptimizerParams, x0, nu0) -> FlowProblem:
    """Assemble a FlowProblem; params.psi_kind selects the input function."""
    return FlowProblem(objective=objective, params=params, x0=x0, nu0=nu0)


class StateDeriv(NamedTuple):
    """Time derivative of a FlowState, in (mu, zeta, nu, x) order."""

    dmu: np.ndarray
    dzeta: np.ndarray
    dnu: np.ndarray
    dx: np.ndarray


class _LeftDomain(DomainError):
    """Rows of a batch (a boolean mask) have a nonpositive nu component."""

    def __init__(self, rows: np.ndarray, t: float):
        self.rows = rows
        super().__init__(f"nu must be positive componentwise at t={t:g}")


class _Batch:
    """Flows on one objective, integrated together as a packed (R, 4, d)
    state whose rows are x, mu, zeta and nu.

    The rates are (R, 1) columns, so every row goes through exactly the
    scalar arithmetic of its own flow and matches its solo run bitwise. Two
    factors stay per row: alpha_g, which is scalar Python arithmetic, and
    nu ** c, applied with a scalar c per group of rows sharing it, because
    numpy computes nu ** 0.5 as sqrt(nu) but an exponent array as pow.
    """

    def __init__(self, problems: list[FlowProblem]):
        self.params = [p.params for p in problems]
        self.grad = problems[0].objective.eval_grad if problems else None

        def column(values):
            return np.array(values, dtype=float)[:, None]

        ps = self.params
        self.neg_l1 = column([-p.lambda1 for p in ps])
        self.l2 = column([p.lambda2 for p in ps])
        self.neg_l3 = column([-p.lambda3 for p in ps])
        self.l3 = column([p.lambda3 for p in ps])
        self.l4 = column([p.lambda4 for p in ps])
        self.l5 = column([p.lambda5 for p in ps])
        self.l6 = column([p.lambda6 for p in ps])
        self.l7 = column([p.lambda7 for p in ps])
        self.l8 = column([p.lambda8 for p in ps])
        belief = [p.psi_kind is PsiKind.BELIEF for p in ps]
        self.belief = np.array(belief)[:, None] if any(belief) else None
        groups: dict[float, list[int]] = {}
        for i, p in enumerate(ps):
            groups.setdefault(p.c, []).append(i)
        self.c_groups = [(c, np.array(rows)) for c, rows in groups.items()]

    def nu_pow_c(self, nu: np.ndarray) -> np.ndarray:
        if len(self.c_groups) == 1:
            return nu ** self.c_groups[0][0]
        out = np.empty_like(nu)
        for c, rows in self.c_groups:
            out[rows] = nu[rows] ** c
        return out

    def deriv(self, s: np.ndarray, t: float) -> np.ndarray:
        """Right-hand side of every row at time t, shaped like s.

        Raises _LeftDomain, before any arithmetic, when a row has nu <= 0.
        """
        x, mu, zeta, nu = s[:, 0], s[:, 1], s[:, 2], s[:, 3]
        if (nu <= 0).any():
            raise _LeftDomain(np.any(nu <= 0, axis=1), t)
        g = self.grad(x)
        r = g if self.belief is None else np.where(self.belief, g - mu, g)
        alpha = np.array([alpha_g(t, p) for p in self.params])[:, None]
        d = np.empty_like(s)
        d[:, 0] = -(self.l7 * mu + self.l8 * g) / (alpha * self.nu_pow_c(nu))
        d[:, 1] = self.neg_l1 * mu + self.l2 * g
        d[:, 2] = self.neg_l3 * zeta + self.l3 * nu
        d[:, 3] = self.l4 * zeta - self.l5 * nu + self.l6 * (r * r)
        return d


def rhs_general(state: FlowState, t: float, problem: FlowProblem) -> StateDeriv:
    """Right-hand side of the generic optimizer flow.

        dmu   = -lambda1*mu + lambda2*grad
        dzeta = -lambda3*zeta + lambda3*nu
        dnu   = lambda4*zeta - lambda5*nu + lambda6*psi(grad, mu)
        dx    = -(lambda7*mu + lambda8*grad) / (alpha_g(t) * nu**c)

    psi is (grad - mu)**2 for the belief input and grad**2 otherwise, as
    problem.params.psi_kind selects. Requires nu > 0 componentwise
    (DomainError otherwise).
    """
    s = np.stack([state.x, state.mu, state.zeta, state.nu])[None]
    dx, dmu, dzeta, dnu = _Batch([problem]).deriv(s, t)[0]
    return StateDeriv(dmu=dmu, dzeta=dzeta, dnu=dnu, dx=dx)


@dataclass
class Trajectory:
    """Time-ordered states with aligned scalar series.

    times are strictly increasing; f_values, grad_norms, and alpha_values all
    share their length; every recorded state has nu >= 0 componentwise. Flow
    integrators additionally keep nu strictly positive step by step; discrete
    runs start at nu = 0, so the shared writer checks nonnegativity.
    """

    times: np.ndarray
    states: list[FlowState]
    f_values: np.ndarray
    grad_norms: np.ndarray
    alpha_values: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    def x_matrix(self) -> np.ndarray:
        return np.stack([s.x for s in self.states])

    def to_csv(self, path) -> None:
        """Write the trajectory with columns
        t, f, grad_norm, alpha, x_0.., mu_0.., zeta_0.., nu_0..

        Re-validates the time ordering and nu nonnegativity before writing.
        """
        times = np.asarray(self.times, dtype=float)
        if len(times) != len(self.states):
            raise ValueError("times and states lengths differ")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        d = len(self.states[0].x) if self.states else 0
        header = ["t", "f", "grad_norm", "alpha"]
        for tag in ("x", "mu", "zeta", "nu"):
            header.extend(f"{tag}_{i}" for i in range(d))
        lines = [",".join(header)]
        for k, s in enumerate(self.states):
            if np.any(s.nu < 0):
                raise ValueError(f"recorded state {k} has negative nu")
            row = [times[k], self.f_values[k], self.grad_norms[k], self.alpha_values[k]]
            row.extend(s.x)
            row.extend(s.mu)
            row.extend(s.zeta)
            row.extend(s.nu)
            lines.append(",".join(repr(float(v)) for v in row))
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


class _Recorder:
    """Accumulates the recorded rows of one run, flow or discrete; the time
    column is the recorded states' t."""

    def __init__(self):
        self.states: list[FlowState] = []
        self.f_values: list[float] = []
        self.grad_norms: list[float] = []
        self.alpha_values: list[float] = []

    def record(self, state: FlowState, f: float, grad_norm: float, alpha: float) -> None:
        self.states.append(state)
        self.f_values.append(f)
        self.grad_norms.append(grad_norm)
        self.alpha_values.append(alpha)

    def build(self) -> Trajectory:
        return Trajectory(
            times=np.array([s.t for s in self.states]),
            states=self.states,
            f_values=np.array(self.f_values),
            grad_norms=np.array(self.grad_norms),
            alpha_values=np.array(self.alpha_values),
        )


def _check_grid(dt: float, t_end: float) -> int:
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not t_end >= dt:
        raise ValueError("t_end must be at least dt")
    n_steps = t_end / dt
    if not (math.isfinite(n_steps) and abs(round(n_steps) * dt - t_end) <= 1e-9 * t_end):
        raise ValueError("t_end must be a whole number of dt steps")
    return round(n_steps)


def euler_step(batch: _Batch, s: np.ndarray, k: int, dt: float) -> np.ndarray:
    """Forward Euler step from t = k*dt to (k+1)*dt."""
    return s + dt * batch.deriv(s, k * dt)


def rk4_step(batch: _Batch, s: np.ndarray, k: int, dt: float) -> np.ndarray:
    """Classical fourth-order Runge-Kutta step from t = k*dt to (k+1)*dt."""
    t0 = k * dt
    h = 0.5 * dt
    k1 = batch.deriv(s, t0)
    k2 = batch.deriv(s + h * k1, t0 + h)
    k3 = batch.deriv(s + h * k2, t0 + h)
    k4 = batch.deriv(s + dt * k3, (k + 1) * dt)
    return s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _row_state(s: np.ndarray, i: int, t: float) -> FlowState:
    return FlowState(x=s[i, 0], mu=s[i, 1], zeta=s[i, 2], nu=s[i, 3], t=t)


def integrate_batch(
    problems: list[FlowProblem], step, dt: float, t_end: float, record_stride: int = 1
) -> list[Trajectory | StepFailure]:
    """Integrate flows on one shared objective together on a fixed grid from
    t = 0, with the step rule euler_step or rk4_step.

    Returns, in the order of problems, each flow's Trajectory or the
    StepFailure its solo run raises. Every row is recorded like a solo run:
    the initial state, every record_stride-th step and the final step. A row
    whose nu leaves the positive domain, at an RK4 stage or after a step, is
    taken out of the batch before any arithmetic on it; a row whose state
    turns non-finite is recorded at that step, on stride or not, and leaves
    the batch with its Trajectory, as a discrete run ends when it diverges.
    The other rows go on unchanged.
    """
    n_steps = _check_grid(dt, t_end)
    if any(p.objective is not problems[0].objective for p in problems):
        raise ValueError("a batch integrates flows on one objective")
    results: list[Trajectory | StepFailure] = [None] * len(problems)
    recorders = [_Recorder() for _ in problems]
    live = list(range(len(problems)))
    batch = _Batch(problems)
    s = np.array([[p.x0, np.zeros_like(p.x0), np.zeros_like(p.x0), p.nu0] for p in problems])

    def remove(gone: np.ndarray) -> None:
        nonlocal live, batch, s
        live = [r for r, out in zip(live, gone) if not out]
        batch = _Batch([problems[r] for r in live])
        s = s[~gone]

    def drop(bad: np.ndarray, t: float, message: str = "") -> None:
        for i in np.flatnonzero(bad):
            results[live[i]] = StepFailure(t, _row_state(s, i, t), message)
        remove(bad)

    def record(t: float, rows: np.ndarray | None = None) -> None:
        for i in range(len(live)) if rows is None else np.flatnonzero(rows):
            r = live[i]
            state, p = _row_state(s, i, t), problems[r]
            f = p.objective.eval_f(state.x)
            grad_norm = float(np.linalg.norm(p.objective.eval_grad(state.x)))
            recorders[r].record(state, f, grad_norm, alpha_g(t, p.params))

    record(0.0)
    k = 0
    while k < n_steps and live:
        try:
            s_new = step(batch, s, k, dt)
        except _LeftDomain as exc:
            # retry the step without the rows that failed a stage
            drop(exc.rows, k * dt, f"stage evaluation left the domain: {exc}")
            continue
        k += 1
        s = s_new
        if (s[:, 3] <= 0).any():
            drop(np.any(s[:, 3] <= 0, axis=1), k * dt)
        on_stride = k % record_stride == 0 or k == n_steps
        if on_stride:
            record(k * dt)
        if not np.isfinite(s).all():
            diverged = ~np.isfinite(s).all(axis=(1, 2))
            if not on_stride:
                record(k * dt, diverged)
            for i in np.flatnonzero(diverged):
                results[live[i]] = recorders[live[i]].build()
            remove(diverged)
    for r in live:
        results[r] = recorders[r].build()
    return results


def _integrate_one(problem: FlowProblem, step, dt: float, t_end: float, record_stride: int) -> Trajectory:
    (result,) = integrate_batch([problem], step, dt, t_end, record_stride)
    if isinstance(result, StepFailure):
        raise result
    return result


def integrate_euler(
    problem: FlowProblem, dt: float, t_end: float, record_stride: int = 1
) -> Trajectory:
    """Fixed-step forward Euler integration from t = 0.

    Records the initial state, then every record_stride-th step and the final
    step. Raises StepFailure carrying the offending state if any nu component
    becomes nonpositive.
    """
    return _integrate_one(problem, euler_step, dt, t_end, record_stride)


def integrate_reference(
    problem: FlowProblem, dt: float, t_end: float, record_stride: int = 1
) -> Trajectory:
    """Classical fourth-order Runge-Kutta integration on a fixed grid.

    Serves as the in-repo ground truth for consistency checks. Error behavior
    on smooth problems is fourth order in dt. Raises StepFailure if a stage
    or a step leaves the nu > 0 domain.
    """
    return _integrate_one(problem, rk4_step, dt, t_end, record_stride)


_ACCUMULATOR_PATTERN = dict(lambda4=0.0, lambda5=0.0, lambda6=1.0, lambda7=0.0, lambda8=1.0)


def gadagrad_energy_residual(traj: Trajectory, problem: FlowProblem) -> np.ndarray:
    """Residual of the accumulator flow's closed-form energy balance.

    For the gadagrad mapping the objective value along the flow satisfies

        f(x(t)) = f(x(0)) + sum_i (nu_i(0)^(1-c)
                  - (nu_i(0) + int_0^t grad_i(x(s))^2 ds)^(1-c)) / (1-c),

    with nu(0) the initial accumulator value. The integral is accumulated by
    the trapezoid rule on the recorded grid (gradients are recomputed from the
    recorded iterates), and the returned series is the left side minus the
    right side at every record. Entry 0 is exactly zero.
    """
    p = problem.params
    for field_name, expected in _ACCUMULATOR_PATTERN.items():
        if getattr(p, field_name) != expected:
            raise PresetMismatch(
                f"energy residual needs the gadagrad mapping ({field_name} must be {expected})"
            )
    if p.psi_kind is not PsiKind.SQUARED_GRADIENT:
        raise PresetMismatch("energy residual needs the squared-gradient input")
    if not 0.0 < p.c < 1.0:
        raise PresetMismatch("energy residual needs c in (0, 1)")

    times = np.asarray(traj.times, dtype=float)
    grads_sq = np.stack(
        [problem.objective.eval_grad(s.x) ** 2 for s in traj.states]
    )
    nu0 = traj.states[0].nu
    # per-coordinate cumulative trapezoid of grad^2 over the recorded grid
    dt_seg = np.diff(times)[:, None]
    increments = 0.5 * dt_seg * (grads_sq[1:] + grads_sq[:-1])
    integral = np.vstack([np.zeros((1, grads_sq.shape[1])), np.cumsum(increments, axis=0)])
    one_mc = 1.0 - p.c
    closed_form = traj.f_values[0] + np.sum(
        (nu0 ** one_mc - (nu0 + integral) ** one_mc) / one_mc, axis=1
    )
    return np.asarray(traj.f_values) - closed_form


def preset_flow(kind: PresetKind, preset: PresetParams, objective: Objective, x0, nu0) -> FlowProblem:
    """Build the continuous-time flow of a named optimizer.

    Validates the preset for its kind, maps it onto the general
    parameterization, and validates the result.
    """
    validate_preset(preset, kind)
    params = validate_params(map_preset_to_general(preset, kind))
    return make_flow_problem(objective, params, x0, nu0)
