"""Continuous-time optimizer flows and the run loop of the whole family.

A state is a (4, d) array with rows x, mu, zeta and nu, as in core. Runs on
one objective, flows or discrete runs (see discrete), advance together as
one packed (R, 4, d) batch through one loop, _run_rows. It records,
summarizes and reports every row like its solo run in one store per batch,
RunStore, which hands back each row's Trajectory and RunReport; a solo run
is the batch of one. A flow whose state turns non-finite fails like a
discrete run whose f diverges. Here also: the generic right-hand side, named
preset flows, the fixed-step schemes and the accumulator energy-balance
diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    DomainError,
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

    def __init__(self, t: float, state: np.ndarray, message: str = ""):
        self.t = t
        self.state = state
        super().__init__(message or f"integration failed at t={t:g}: nu lost positivity")


class PresetMismatch(ValueError):
    """Operation requires a specific preset structure the params do not have."""


@dataclass(frozen=True)
class FlowProblem:
    """A flow to integrate: objective, validated params, x0 and a finite, positive nu0."""

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
        if not (np.all(nu0 > 0) and np.isfinite(nu0).all()):
            raise DomainError("nu0 must be finite and positive componentwise")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "nu0", nu0)


class _LeftDomain(DomainError):
    """Rows of a batch (a boolean mask) have a nonpositive nu component."""

    def __init__(self, rows: np.ndarray, t: float):
        self.rows = rows
        super().__init__(f"nu must be positive componentwise at t={t:g}")


class _Batch:
    """Flows on one objective, integrated together as a packed (R, 4, d)
    state whose rows are x, mu, zeta and nu: the flow rule of _run_rows.

    The rates are two (R, 4, 1) coefficient arrays, so every row goes
    through exactly the scalar arithmetic of its own flow and matches its
    solo run bitwise. alpha_g runs once per time for each group of rows
    sharing its rates (lambda7 == 0, or lambda2, lambda6 and c), and nu ** c
    once for each group of rows sharing c.
    """

    every_step = False
    MU_MU_ZETA_ZETA, NU_NU_NU_NU = np.array([[1, 1, 2, 2], [3, 3, 3, 3]])

    def __init__(self, problems: list[FlowProblem], scheme=None, dt: float = 1.0):
        self.problems = problems
        self.scheme = scheme
        self.dt = dt
        self.grad = problems[0].objective.eval_grad if problems else None
        ps = [p.params for p in problems]
        # rows [l7*mu, -l1*mu, -l3*zeta, l4*zeta] + [l8*g, l2*g, l3*nu, -l5*nu]:
        # the numerator of dx and the linear parts of dmu, dzeta and dnu
        self.moment_coef = np.array([[p.lambda7, -p.lambda1, -p.lambda3, p.lambda4] for p in ps]).reshape(-1, 4, 1)
        self.input_coef = np.array([[p.lambda8, p.lambda2, p.lambda3, -p.lambda5] for p in ps]).reshape(-1, 4, 1)
        self.l6 = np.array([p.lambda6 for p in ps])[:, None]
        belief = [p.psi_kind is PsiKind.BELIEF for p in ps]
        self.belief = np.array(belief)[:, None] if any(belief) else None
        self.cs = [p.c for p in ps]
        keys = [p.lambda7 == 0 or (p.lambda2, p.lambda6, p.c) for p in ps]
        distinct = list(dict.fromkeys(keys))
        self.alpha_params = [ps[keys.index(key)] for key in distinct]
        self.alpha_of = np.array([[distinct.index(key)] for key in keys])
        # the last time asked: RK4 asks t0 + h twice, and (k+1)*dt for the next record and step
        self.alpha_at = (None, None)

    def select(self, keep: np.ndarray) -> _Batch:
        return _Batch([p for p, kept in zip(self.problems, keep) if kept], self.scheme, self.dt)

    def alpha_column(self, t: float) -> np.ndarray:
        """alpha_g at time t of every row, an (R, 1) column: read only."""
        if self.alpha_at[0] != t:
            self.alpha_at = t, np.array([alpha_g(t, p) for p in self.alpha_params])[self.alpha_of]
        return self.alpha_at[1]

    def alpha(self, rows: np.ndarray, k: int) -> np.ndarray:
        return self.alpha_column(k * self.dt)[rows, 0]

    def step(self, s: np.ndarray, g, k: int) -> np.ndarray:
        """One step of the scheme from t = k*dt. Rows whose nu leaves the
        positive domain, at a stage or after the step, leave the batch with
        the StepFailure of their solo run."""
        try:
            s_new = self.scheme(self, s, k, self.dt)
        except _LeftDomain as exc:
            message = f"stage evaluation left the domain: {exc}"
            raise _RowsLeave(exc.rows, [StepFailure(k * self.dt, s[i], message) for i in np.flatnonzero(exc.rows)])
        if np.fmin.reduce(s_new[:, 3], None) <= 0:
            rows = np.any(s_new[:, 3] <= 0, axis=1)
            raise _RowsLeave(rows, [StepFailure((k + 1) * self.dt, s_new[i]) for i in np.flatnonzero(rows)])
        return s_new

    def deriv(self, s: np.ndarray, t: float) -> np.ndarray:
        """Right-hand side of every row at time t, shaped like s.

        Raises _LeftDomain, before any arithmetic, when a row has nu <= 0.
        """
        nu = s[:, 3]
        # (nu <= 0).any() in one call: fmin skips NaN as the comparison does
        if np.fmin.reduce(nu, None) <= 0:
            raise _LeftDomain(np.any(nu <= 0, axis=1), t)
        g = self.grad(s[:, 0])
        # a - b is a + (-b) and (-a)*b is -(a*b), bitwise
        d = self.moment_coef * s.take(self.MU_MU_ZETA_ZETA, 1)
        inputs = s.take(self.NU_NU_NU_NU, 1)
        inputs[:, :2] = g[:, None]
        d += self.input_coef * inputs
        d[:, 3] += self.l6 * _psi(g, s[:, 1], self.belief)
        d[:, 0] = -d[:, 0] / (self.alpha_column(t) * _pow_rows(nu, self.cs))
        return d


def rhs_general(state: np.ndarray, t: float, problem: FlowProblem) -> np.ndarray:
    """Right-hand side of the generic optimizer flow at a (4, d) state, in
    the state's row order:

        dx    = -(lambda7*mu + lambda8*grad) / (alpha_g(t) * nu**c)
        dmu   = -lambda1*mu + lambda2*grad
        dzeta = -lambda3*zeta + lambda3*nu
        dnu   = lambda4*zeta - lambda5*nu + lambda6*psi(grad, mu)

    psi is (grad - mu)**2 for the belief input and grad**2 otherwise, as
    problem.params.psi_kind selects. Requires nu > 0 componentwise
    (DomainError otherwise).
    """
    return _Batch([problem]).deriv(np.asarray(state, dtype=float)[None], t)[0]


@dataclass
class Trajectory:
    """Time-ordered states with aligned scalar series.

    states is one (N, 4, d) array with rows x, mu, zeta and nu; times are
    strictly increasing; times, f_values, grad_norms, and alpha_values all
    have length N; every recorded state has nu >= 0 componentwise. Flow
    integrators additionally keep nu strictly positive step by step; discrete
    runs start at nu = 0, so the shared writer checks nonnegativity.
    """

    times: np.ndarray
    states: np.ndarray
    f_values: np.ndarray
    grad_norms: np.ndarray
    alpha_values: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    def x_matrix(self) -> np.ndarray:
        return self.states[:, 0]

    def to_csv(self, path) -> None:
        """Write the trajectory with columns
        t, f, grad_norm, alpha, x_0.., mu_0.., zeta_0.., nu_0..

        Re-validates the series lengths, the time ordering and nu
        nonnegativity before writing, then writes one row at a time, each
        float in repr form.
        """
        times = np.asarray(self.times, dtype=float)
        series_lengths = {len(times), len(self.f_values), len(self.grad_norms), len(self.alpha_values)}
        if series_lengths != {len(self.states)}:
            raise ValueError("times, states and value series lengths differ")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        negative = np.flatnonzero((self.states[:, 3] < 0).any(axis=1))
        if negative.size:
            raise ValueError(f"recorded state {negative[0]} has negative nu")
        header = ["t", "f", "grad_norm", "alpha"]
        for tag in ("x", "mu", "zeta", "nu"):
            header.extend(f"{tag}_{i}" for i in range(self.states.shape[2]))
        series = zip(times.tolist(), self.f_values, self.grad_norms, self.alpha_values, self.states)
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for t, f, grad_norm, alpha, s in series:
                row = [t, float(f), float(grad_norm), float(alpha), *s.ravel().tolist()]
                fh.write(",".join(map(repr, row)) + "\n")


@dataclass
class RunReport:
    """Summary of one optimization run.

    iters_to_threshold is None when the gradient-norm threshold was never
    reached.
    """

    optimizer: str
    best_f: float
    epoch_of_best: int
    final_grad_norm: float
    iters_to_threshold: Optional[int]
    diagnostics: dict = field(default_factory=dict)

    @classmethod
    def failure(cls, name: str, error: str, **diagnostics) -> RunReport:
        """Report of a failed run: NaN metrics, the error in its diagnostics."""
        return cls(name, math.nan, 0, math.nan, None, {"error": error, **diagnostics})


class RunStore:
    """The one store of a batch, flow or discrete: the records and reports
    of its R rows. Each row's states go in an (n_records, 4, d) array of its
    own, its times, f values, gradient norms and alphas in its row of the
    four (R, n_records) arrays of series; outcome(row, name) hands them back
    as a Trajectory of views, with the row's RunReport.

    The summary holds one (R,) array per quantity, so a step of the whole
    batch is a fixed number of numpy calls: per row the best f and the first
    step that reached it, the first step whose gradient norm fell below
    threshold (-1 for none yet), the final gradient norm, and whether nu
    stayed nonnegative and x inside the box. A row diverges at the first
    step whose f or gradient norm is not finite, or whose state is not
    finite (see diverge): its report is a failure naming that step
    (diverged_at, -1 while none).
    """

    def __init__(self, n_rows: int, dim: int, n_records: int, threshold: float, box: float):
        self.states = [np.empty((n_records, 4, dim)) for _ in range(n_rows)]
        self.series = np.empty((4, n_rows, n_records))
        self.n_recorded = np.zeros(n_rows, int)
        self.threshold = threshold
        self.box = box
        self.best_f = np.full(n_rows, math.inf)
        self.epoch_of_best = np.zeros(n_rows, int)
        self.iters_to_threshold = np.full(n_rows, -1)
        self.final_grad_norm = np.full(n_rows, math.nan)
        self.nu_nonnegative = np.ones(n_rows, bool)
        self.stayed_in_box = np.ones(n_rows, bool)
        self.diverged_at = np.full(n_rows, -1)
        self.state_diverged = np.zeros(n_rows, bool)

    def add(self, rows: np.ndarray, step: int, states: np.ndarray, f: np.ndarray, grad_norm: np.ndarray) -> np.ndarray:
        """Fold in one step of the given rows: their (n, 4, d) states, (n,)
        f values and gradient norms. Returns the mask of those rows whose f
        or gradient norm is not finite. A diverged row reports only the step
        it diverged at, so the other quantities take no mask; the per-row
        checks run only on a step where some row fails them."""
        finite = np.isfinite(f) & np.isfinite(grad_norm)
        if not finite.all():
            self.diverged_at[rows[~finite & (self.diverged_at[rows] < 0)]] = step
        better = f < self.best_f[rows]
        self.best_f[rows[better]] = f[better]
        self.epoch_of_best[rows[better]] = step
        reached = (grad_norm < self.threshold) & (self.iters_to_threshold[rows] < 0)
        self.iters_to_threshold[rows[reached]] = step
        self.final_grad_norm[rows] = grad_norm
        negative = states[:, 3] < 0
        if negative.any():
            self.nu_nonnegative[rows[negative.any(axis=1)]] = False
        inside = np.abs(states[:, 0]) <= self.box
        if not inside.all():
            self.stayed_in_box[rows[~inside.all(axis=1)]] = False
        return ~finite

    def diverge(self, rows: np.ndarray, step: int) -> None:
        """The given rows, whose state is not finite, diverge at step unless
        they already have."""
        rows = rows[self.diverged_at[rows] < 0]
        self.diverged_at[rows] = step
        self.state_diverged[rows] = True

    def record(self, rows: np.ndarray, t: float, states: np.ndarray, f, grad_norm, alpha) -> None:
        """Append one record at time t to each of the given rows: their
        (n, 4, d) states and n f values, gradient norms and alphas."""
        at = self.n_recorded[rows]
        self.series[0, rows, at] = t
        self.series[1:, rows, at] = f, grad_norm, alpha
        for row, i, state in zip(rows, at, states):
            self.states[row][i] = state
        self.n_recorded[rows] = at + 1

    def outcome(self, row: int, name: str) -> tuple[Trajectory, RunReport]:
        n = self.n_recorded[row]
        times, f_values, grad_norms, alpha_values = self.series[:, row, :n]
        traj = Trajectory(times, self.states[row][:n], f_values, grad_norms, alpha_values)
        k = int(self.diverged_at[row])
        if k >= 0:
            what = "the state" if self.state_diverged[row] else "f or the gradient norm"
            return traj, RunReport.failure(name, f"diverged at iteration {k}: {what} is not finite", diverged_at=k)
        itt = int(self.iters_to_threshold[row])
        diagnostics = {
            "nu_nonnegative": bool(self.nu_nonnegative[row]),
            "stayed_in_box": bool(self.stayed_in_box[row]),
        }
        return traj, RunReport(
            optimizer=name,
            best_f=float(self.best_f[row]),
            epoch_of_best=int(self.epoch_of_best[row]),
            final_grad_norm=float(self.final_grad_norm[row]),
            iters_to_threshold=itt if itt >= 0 else None,
            diagnostics=diagnostics,
        )


def _psi(g: np.ndarray, m: np.ndarray, belief: Optional[np.ndarray]) -> np.ndarray:
    """The input of the nu dynamic: (g - m)^2 on the rows of the belief mask,
    an (R, 1) column or None for no row, and g^2 on the others. m is mu for
    a flow and the updated mu' for a discrete step."""
    r = g if belief is None else np.where(belief, g - m, g)
    return r * r


def _pow_rows(base: np.ndarray, cs: list[float]) -> np.ndarray:
    """base ** c row by row, with one scalar c per group of rows sharing it:
    numpy computes base ** 0.5 as sqrt(base) but an exponent array as pow."""
    if len(set(cs)) == 1:
        return base ** cs[0]
    out = np.empty_like(base)
    for c in set(cs):
        rows = [i for i, ci in enumerate(cs) if ci == c]
        out[rows] = base[rows] ** c
    return out


class _RowsLeave(Exception):
    """Rows of a batch (a boolean mask) cannot take the next step; errors
    holds, in row order, the exception each of them leaves with."""

    def __init__(self, rows: np.ndarray, errors: list[Exception]):
        self.rows = rows
        self.errors = errors
        super().__init__(f"{len(errors)} rows left the batch")


def _run_rows(rule, s: np.ndarray, objective, n_steps: int, record_stride: int, threshold: float, names) -> list:
    """Advance the rows of s, a packed (R, 4, d) state, n_steps times with a
    step rule, recording and summarizing each row like its solo run in one
    RunStore.

    The rule has dt (the time of one step), every_step, alpha(rows, k),
    step(s, g, k) and select(keep). A discrete rule (every_step true) is
    evaluated at every step k: its step takes the gradients, every step is
    summarized, and a row ends at the first non-finite f or gradient norm.
    A flow rule is evaluated only where it records, and a row diverges and
    ends at the first step whose state is not finite. Rows are recorded at
    step 0, every record_stride-th step, the final step and the step they
    end at. A step that raises _RowsLeave is taken again without those rows.
    f and the gradients (one Objective.f_grad) and their norms are one call
    each for all the rows evaluated at a step; only recording goes row by
    row.

    Returns, in row order, each row's Trajectory and RunReport named from
    names, or the exception it left the batch with.
    """
    n_records = len(range(0, n_steps + 1, record_stride)) + (n_steps % record_stride != 0)
    store = RunStore(len(s), s.shape[-1], n_records, threshold, objective.box)
    errors: dict[int, Exception] = {}
    live = np.arange(len(s))
    g = None

    def leave(gone: np.ndarray, left: Sequence[Exception] = ()) -> None:
        nonlocal live, rule, s, g
        errors.update(zip(live[gone].tolist(), left))
        live = live[~gone]
        rule, s = rule.select(~gone), s[~gone]
        g = None if g is None else g[~gone]

    k = 0
    while len(live):
        on_stride = k % record_stride == 0 or k == n_steps
        ended = np.zeros(len(live), bool)
        if not (rule.every_step or np.isfinite(s).all()):
            ended = ~np.isfinite(s).all(axis=(1, 2))
        due = np.arange(len(live)) if rule.every_step or on_stride else np.flatnonzero(ended)
        grads = None
        if len(due):
            states = s[due]
            fs, grads = objective.f_grad(states[:, 0])
            # per row the ddot of np.linalg.norm, bitwise; norm(axis=1) is not
            grad_norms = np.sqrt(np.vecdot(grads, grads))
            diverged = store.add(live[due], k, states, fs, grad_norms)
            if rule.every_step:
                ended |= diverged
            elif ended.any():
                store.diverge(live[ended], k)
            at = np.arange(len(due)) if on_stride else np.flatnonzero(ended[due])
            if len(at):
                store.record(live[due[at]], k * rule.dt, states[at], fs[at], grad_norms[at], rule.alpha(due[at], k))
        # a discrete step takes the gradients of every row, evaluated here
        g = grads if rule.every_step else None
        if ended.any():
            leave(ended)
        if k == n_steps:
            break
        while len(live):
            try:
                s = rule.step(s, g, k)
                break
            except _RowsLeave as exc:
                leave(exc.rows, exc.errors)
        k += 1
    return [errors[r] if r in errors else store.outcome(r, name) for r, name in enumerate(names)]


def _check_grid(dt: float, t_end: float, dt_name: str = "dt", t_end_name: str = "t_end") -> int:
    """The steps of dt in t_end, or a ValueError naming the two as given."""
    if not dt > 0:
        raise ValueError(f"{dt_name} must be positive")
    if not t_end >= dt:
        raise ValueError(f"{t_end_name} must be at least {dt_name}")
    n_steps = t_end / dt
    if not (math.isfinite(n_steps) and abs(round(n_steps) * dt - t_end) <= 1e-9 * t_end):
        raise ValueError(f"{t_end_name} must be a whole number of {dt_name} steps")
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


def _integrate_rows(problems: list[FlowProblem], names, step, dt, t_end, record_stride, threshold) -> list:
    """_run_rows on the flows of one objective: each row's Trajectory and
    RunReport or the StepFailure its solo run raises."""
    n_steps = _check_grid(dt, t_end)
    if any(p.objective is not problems[0].objective for p in problems):
        raise ValueError("a batch integrates flows on one objective")
    if not problems:
        return []
    s = np.array([[p.x0, np.zeros_like(p.x0), np.zeros_like(p.x0), p.nu0] for p in problems])
    return _run_rows(_Batch(problems, step, dt), s, problems[0].objective, n_steps, record_stride, threshold, names)


def integrate_batch(
    problems: list[FlowProblem], step, dt: float, t_end: float, record_stride: int = 1
) -> list[Trajectory | StepFailure]:
    """Integrate flows on one shared objective together on a fixed grid from
    t = 0, with the step rule euler_step or rk4_step.

    Returns, in the order of problems, each flow's Trajectory or the
    StepFailure its solo run raises. Every row is recorded like a solo run:
    the initial state, every record_stride-th step and the final step. A row
    whose nu leaves the positive domain, at an RK4 stage or after a step, is
    taken out of the batch before any arithmetic on it. A row that diverges,
    its state or f or gradient norm not finite, leaves the batch at that
    step with a StepFailure carrying the step's time and state and the
    error of its failed run report. The other rows go on unchanged.
    """
    outcomes = _integrate_rows(problems, [""] * len(problems), step, dt, t_end, record_stride, 1e-4)
    return [out if isinstance(out, StepFailure) else _trajectory_or_failure(*out) for out in outcomes]


def _trajectory_or_failure(traj: Trajectory, report: RunReport) -> Trajectory | StepFailure:
    """traj, or the StepFailure at its last record when report is a failure."""
    error = report.diagnostics.get("error")
    return traj if error is None else StepFailure(float(traj.times[-1]), traj.states[-1], error)


def _only(outcomes: list):
    """The outcome of a batch of one, raising the error its row left with."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def integrate_euler(
    problem: FlowProblem, dt: float, t_end: float, record_stride: int = 1
) -> Trajectory:
    """Fixed-step forward Euler integration from t = 0.

    Records the initial state, then every record_stride-th step and the final
    step. Raises StepFailure carrying the offending state if any nu component
    becomes nonpositive or the run diverges (see integrate_batch).
    """
    return _only(integrate_batch([problem], euler_step, dt, t_end, record_stride))


def integrate_reference(
    problem: FlowProblem, dt: float, t_end: float, record_stride: int = 1
) -> Trajectory:
    """Classical fourth-order Runge-Kutta integration on a fixed grid.

    Serves as the in-repo ground truth for consistency checks. Error behavior
    on smooth problems is fourth order in dt. Raises StepFailure if a stage
    or a step leaves the nu > 0 domain or the run diverges (see
    integrate_batch).
    """
    return _only(integrate_batch([problem], rk4_step, dt, t_end, record_stride))


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
    grads_sq = problem.objective.eval_grad(traj.x_matrix()) ** 2
    nu0 = traj.states[0, 3]
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
    return FlowProblem(objective, params, x0, nu0)
