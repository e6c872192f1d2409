"""Continuous-time optimizer flows and the run loop of the whole family.

A state is a (4, d) array with rows x, mu, zeta and nu, as in core. Runs on
one objective, flows or discrete runs (see discrete), advance together as
one packed (4, R, d) batch, whose contiguous (R, d) blocks s[0] .. s[3] are
the x, mu, zeta and nu of every row, through one loop, _run_rows. It records,
summarizes and reports every row like its solo run in one store per batch,
RunStore, which hands back each row's Trajectory and RunReport; a solo run
is the batch of one. A flow whose state turns non-finite, or whose f or
gradient norm is not finite at a record, fails like a discrete run whose f
diverges. The generic right-hand side takes its moment dynamics from
core.moment_rows, the one kernel the discrete update steps through too.
Here also: named preset flows, the fixed-step schemes and the accumulator
energy-balance diagnostic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    OptimizerParams, PresetKind, PresetParams, PsiKind, ValidationError, alpha_g, initial_stepper_state,
    map_preset_to_general, moment_rows, require, validate_params, validate_preset,
)
from .objectives import BOX, Objective


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

    def __reduce__(self):
        return type(self), (self.t, self.state, str(self))


def _point_of(objective: Objective, x0) -> np.ndarray:
    """x0 as a float array, or a ValueError unless it is a point of the objective."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (objective.dim,):
        raise ValueError(f"x0 shape {x0.shape} does not match objective dimension {objective.dim}")
    return x0


@dataclass(frozen=True)
class FlowProblem:
    """A flow to integrate: objective, validated params, x0 and nu0 (initial_stepper_state
    rows). A ValidationError names nu0 finite and positive componentwise if it fails."""

    objective: Objective
    params: OptimizerParams
    x0: np.ndarray
    nu0: np.ndarray

    def __post_init__(self):
        x0, _, _, nu0 = initial_stepper_state(_point_of(self.objective, self.x0), self.nu0)
        require({"nu0 finite and positive componentwise": np.all(nu0 > 0) and np.isfinite(nu0).all()})
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "nu0", nu0)


class _RowsLeave(Exception):
    """The one way rows of a batch (a boolean mask) leave before their step:
    a discrete row's first-step error, or a flow row whose nu is not
    positive at a stage of its scheme or after the step. errors holds, in
    row order, the exception each of them leaves with."""

    def __init__(self, rows: np.ndarray, errors: list[Exception]):
        self.rows = rows
        self.errors = errors
        super().__init__(f"{len(errors)} rows left the batch")


class _Batch:
    """Flows on one objective, integrated together as a packed (4, R, d)
    state whose blocks are x, mu, zeta and nu: the flow rule of _run_rows.

    Every rate and mask has the full shape of the block it multiplies: the
    (8, R, d) coefficient stack of core.moment_rows, and (R, d) arrays for
    lambda6, -alpha and the squared-input mask (all True when no row takes
    the belief input). So each operation of a step is one numpy call on
    contiguous operands of one shape, and every row goes through exactly
    the scalar arithmetic of its own flow and matches its solo run bitwise.
    alpha_g runs once per time for each group of rows sharing its rates
    (lambda7 == 0, or lambda2, lambda6 and c), and nu ** c once for each
    group of rows sharing c.
    """

    every_step = False

    def __init__(self, problems: list[FlowProblem], scheme=None, dt: float = 1.0):
        self.problems = problems
        self.scheme = scheme
        self.dt = dt
        self.grad = problems[0].objective.eval_grad if problems else None
        ps = [p.params for p in problems]
        dim = problems[0].objective.dim if problems else 0
        # [l7, -l1, -l3, l4] on [mu, mu, zeta, zeta] and [l8, l2, l3, -l5] on [g, g, nu, nu]:
        # the numerator of dx and the linear parts of dmu, dzeta and dnu
        coef = [[p.lambda7, -p.lambda1, -p.lambda3, p.lambda4, p.lambda8, p.lambda2, p.lambda3, -p.lambda5] for p in ps]
        self.coef = _full(np.reshape(coef, (-1, 8)).T, dim)
        self.l6 = _full([p.lambda6 for p in ps], dim)
        self.squared = _full([p.psi_kind is PsiKind.SQUARED_GRADIENT for p in ps], dim, bool)
        self.c_groups = _c_groups([p.c for p in ps])
        keys = [p.lambda7 == 0 or (p.lambda2, p.lambda6, p.c) for p in ps]
        distinct = list(dict.fromkeys(keys))
        self.alpha_params = [ps[keys.index(key)] for key in distinct]
        self.alpha_of = _full([distinct.index(key) for key in keys], dim, int)
        # the last time asked: RK4 asks t0 + h twice, and (k+1)*dt for the next record and step
        self.alpha_at = (None, None)

    def select(self, keep: np.ndarray) -> _Batch:
        return _Batch([p for p, kept in zip(self.problems, keep) if kept], self.scheme, self.dt)

    def alpha_block(self, t: float) -> np.ndarray:
        """-alpha_g at time t of every row, spread to (R, d): read only."""
        if self.alpha_at[0] != t:
            self.alpha_at = t, np.array([-alpha_g(t, p) for p in self.alpha_params]).take(self.alpha_of)
        return self.alpha_at[1]

    def alpha(self, rows, k: int) -> np.ndarray:
        return -self.alpha_block(k * self.dt)[rows, 0]

    def step(self, s: np.ndarray, g, k: int) -> np.ndarray:
        """One step of the scheme from t = k*dt, g being the gradients at s
        or None. Rows whose nu leaves the positive domain, at a stage or
        after the step, leave the batch with the StepFailure of their solo
        run."""
        try:
            s_new = self.scheme(self, s, k, self.dt, g)
        except _RowsLeave as exc:
            message = f"stage evaluation left the domain: {exc.errors[0].violations[0]}"
            failures = [StepFailure(k * self.dt, s[:, i].copy(), message) for i in np.flatnonzero(exc.rows)]
            raise _RowsLeave(exc.rows, failures)
        if np.fmin.reduce(s_new[3], None) <= 0:
            rows = np.any(s_new[3] <= 0, axis=1)
            raise _RowsLeave(rows, [StepFailure((k + 1) * self.dt, s_new[:, i].copy()) for i in np.flatnonzero(rows)])
        return s_new

    def deriv(self, s: np.ndarray, t: float, g: Optional[np.ndarray] = None) -> np.ndarray:
        """Right-hand side of every row at time t, shaped like s, from the
        gradients g at s (evaluated here when None).

        Raises _RowsLeave of ValidationErrors, before any arithmetic, for the rows with nu <= 0.
        """
        nu = s[3]
        # (nu <= 0).any() in one call: fmin skips NaN as the comparison does
        if np.fmin.reduce(nu, None) <= 0:
            rows = np.any(nu <= 0, axis=1)
            condition = f"nu must be positive componentwise at t={t:g}"
            raise _RowsLeave(rows, [ValidationError([condition]) for _ in np.flatnonzero(rows)])
        if g is None:
            g = self.grad(s[0])
        # a - b is a + (-b), (-a)*b is -(a*b) and a/(-b) is -(a/b), bitwise
        d = moment_rows(self.coef, self.l6, self.squared, s, g, step=False)
        # dx = -d[0] / (alpha * nu**c), in place
        d[0] /= self.alpha_block(t) * _pow_rows(nu, self.c_groups)
        return d


def rhs_general(state: np.ndarray, t: float, problem: FlowProblem) -> np.ndarray:
    """Right-hand side of the generic optimizer flow at a (4, d) state, in
    the state's row order:

        dx    = -(lambda7*mu + lambda8*grad) / (alpha_g(t) * nu**c)
        dmu   = -lambda1*mu + lambda2*grad
        dzeta = -lambda3*zeta + lambda3*nu
        dnu   = lambda4*zeta - lambda5*nu + lambda6*psi(grad, mu)

    psi is (grad - mu)**2 for the belief input and grad**2 otherwise, as
    problem.params.psi_kind selects. Requires nu > 0 componentwise: a plain
    ValidationError, which pickles, names it otherwise.
    """
    try:
        return _Batch([problem]).deriv(np.asarray(state, dtype=float)[:, None], t)[:, 0]
    except _RowsLeave as exc:
        raise exc.errors[0] from None


@dataclass
class Trajectory:
    """Time-ordered states with aligned scalar series.

    states is one (N, 4, d) array with rows x, mu, zeta and nu; times are
    strictly increasing; times, f_values, grad_norms, and alpha_values all
    have length N; every recorded state has nu >= 0 componentwise: a run
    keeps it (see discrete._first_step_error), to_csv checks a hand-built one.
    """

    times: np.ndarray
    states: np.ndarray
    f_values: np.ndarray
    grad_norms: np.ndarray
    alpha_values: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

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

    The summary holds one (R,) array per quantity: per row the best f and
    the first step that reached it, the first step whose gradient norm fell
    below threshold (-1 for none yet), and whether x stayed inside [-BOX, BOX]^d;
    the final gradient norm is the row's last record. A summarized step
    writes its rows' f values and gradient norms into column j of two (R, K)
    blocks, and its step into a (K,) array; x is checked whole, and rows are
    told apart only on a step where one leaves the box.
    One vectorized fold reduces the blocks into the summary when they are
    full and before the first outcome, so rows that left mid-block are
    folded too, with the rules of a scan of one step at a time: a cell not
    written is NaN, never the best f nor below threshold; the best f is a
    block's least f at its first column, taken only when strictly less than
    the best so far and read from that column, so neither 0.0 nor -0.0
    displaces the other. A row diverges at the first step whose f or
    gradient norm is not finite, or whose state is not finite (see diverge):
    its report is a failure naming that step (diverged_at, -1 while none).
    """

    K = 256

    def __init__(self, n_rows: int, dim: int, n_records: int, threshold: float):
        self.states = [np.empty((n_records, 4, dim)) for _ in range(n_rows)]
        self.series = np.empty((4, n_rows, n_records))
        self.n_recorded = np.zeros(n_rows, int)
        self.threshold = threshold
        self.f_block = np.full((n_rows, self.K), math.nan)
        self.norm_block = np.full((n_rows, self.K), math.nan)
        self.steps = np.zeros(self.K, int)
        self.column = 0
        self.best_f = np.full(n_rows, math.inf)
        self.epoch_of_best = np.zeros(n_rows, int)
        self.iters_to_threshold = np.full(n_rows, -1)
        self.stayed_in_box = np.ones(n_rows, bool)
        self.diverged_at = np.full(n_rows, -1)
        self.state_diverged = np.zeros(n_rows, bool)

    def add(
        self, rows: np.ndarray, step: int, states: np.ndarray, f: np.ndarray, grad_norm: np.ndarray
    ) -> Optional[np.ndarray]:
        """Summarize one step of the given rows: their (4, n, d) states, (n,)
        f values and gradient norms. Returns None when every f and gradient
        norm is finite, else the mask of the rows whose f or gradient norm
        is not finite, which diverge at this step."""
        j = self.column
        # every row in order, as a view, until the first one leaves
        cells = slice(None) if len(rows) == len(self.best_f) else rows
        self.f_block[cells, j] = f
        self.norm_block[cells, j] = grad_norm
        self.steps[j] = step
        self.column = j + 1
        if self.column == self.K:
            self.fold()
        # maximum propagates NaN as NaN <= BOX fails
        if not np.maximum.reduce(np.abs(states[0]), None) <= BOX:
            self.stayed_in_box[rows[~(np.abs(states[0]) <= BOX).all(axis=1)]] = False
        # sum(f * grad_norm) is finite when both are, unless it overflows: then
        # the exact check finds none
        if math.isfinite(np.vdot(f, grad_norm)):
            return None
        diverged = ~(np.isfinite(f) & np.isfinite(grad_norm))
        self.diverged_at[rows[diverged]] = step
        return diverged if diverged.any() else None

    def fold(self) -> None:
        """Reduce the written columns of the blocks into the summary, then
        clear them."""
        j = self.column
        f, norms, steps = self.f_block[:, :j], self.norm_block[:, :j], self.steps[:j]
        rows = np.arange(len(f))
        first_least = np.where(np.isnan(f), math.inf, f).argmin(axis=1)
        least = f[rows, first_least]
        better = least < self.best_f
        self.best_f[better] = least[better]
        self.epoch_of_best[better] = steps[first_least[better]]
        below = norms < self.threshold
        first_below = below.argmax(axis=1)
        reached = below[rows, first_below] & (self.iters_to_threshold < 0)
        self.iters_to_threshold[reached] = steps[first_below[reached]]
        f.fill(math.nan)
        norms.fill(math.nan)
        self.column = 0

    def diverge(self, rows: np.ndarray, step: int) -> None:
        """The given rows end at step: those whose f and gradient norm did
        not diverge there diverge by their state, which is not finite."""
        rows = rows[self.diverged_at[rows] < 0]
        self.diverged_at[rows] = step
        self.state_diverged[rows] = True

    def record(self, rows: np.ndarray, t: float, states: np.ndarray, f, grad_norm, alpha) -> None:
        """Append one record at time t to each of the given rows: their
        (4, n, d) states and n f values, gradient norms and alphas."""
        at = self.n_recorded[rows]
        self.series[0, rows, at] = t
        self.series[1:, rows, at] = f, grad_norm, alpha
        for row, i, state in zip(rows, at, states.swapaxes(0, 1)):
            self.states[row][i] = state
        self.n_recorded[rows] = at + 1

    def outcome(self, row: int, name: str) -> tuple[Trajectory, RunReport]:
        if self.column:
            self.fold()
        n = self.n_recorded[row]
        times, f_values, grad_norms, alpha_values = self.series[:, row, :n]
        traj = Trajectory(times, self.states[row][:n], f_values, grad_norms, alpha_values)
        k = int(self.diverged_at[row])
        if k >= 0:
            what = "the state" if self.state_diverged[row] else "f or the gradient norm"
            return traj, RunReport.failure(name, f"diverged at iteration {k}: {what} is not finite", diverged_at=k)
        itt = int(self.iters_to_threshold[row])
        return traj, RunReport(
            optimizer=name,
            best_f=float(self.best_f[row]),
            epoch_of_best=int(self.epoch_of_best[row]),
            # a run that did not fail ends with a record of its last step
            final_grad_norm=float(grad_norms[-1]),
            iters_to_threshold=itt if itt >= 0 else None,
            diagnostics={"stayed_in_box": bool(self.stayed_in_box[row])},
        )


def _full(values, dim: int, dtype=float) -> np.ndarray:
    """Per-row values spread along a new last axis of length dim, as a new
    C-contiguous array: R values give the (R, dim) shape of the block they
    multiply, and k lists of R values give (k, R, dim)."""
    return np.repeat(np.asarray(values, dtype=dtype)[..., None], dim, axis=-1)


def _c_groups(cs: list[float]) -> list[tuple[float, list[int]]]:
    """Each distinct c of the rows with the rows that share it, for _pow_rows."""
    return [(c, [i for i, ci in enumerate(cs) if ci == c]) for c in dict.fromkeys(cs)]


def _pow_rows(base: np.ndarray, groups: list[tuple[float, list[int]]]) -> np.ndarray:
    """base ** c row by row, with one scalar c per group of rows sharing it:
    numpy computes base ** 0.5 as sqrt(base) but an exponent array as pow."""
    if len(groups) == 1:
        return base ** groups[0][0]
    out = np.empty_like(base)
    for c, rows in groups:
        out[rows] = base[rows] ** c
    return out


def _check_run(n_steps: int, record_stride: int, threshold: float) -> None:
    """Raise a ValidationError naming each failed run setting, in order; NaN fails each."""
    # an integer condition is named only where its range condition holds
    require({
        "iterations >= 0": n_steps >= 0,
        "iterations an integer": isinstance(n_steps, numbers.Integral) or not n_steps >= 0,
        "record_stride >= 1": record_stride >= 1,
        "record_stride an integer": isinstance(record_stride, numbers.Integral) or not record_stride >= 1,
        "threshold > 0": threshold > 0,
    })


def _run_rows(rule, s: np.ndarray, objective, n_steps: int, record_stride: int, threshold: float, names) -> list:
    """Advance the rows of s, a packed (4, R, d) state, n_steps times with a
    step rule, recording and summarizing each row like its solo run in one
    RunStore.

    The rule has dt (the time of one step), every_step, alpha(rows, k),
    step(s, g, k) and select(keep). A discrete rule (every_step true) is
    evaluated and summarized at every step k. A flow rule is evaluated and
    summarized only where it records, and at a step whose state is not
    finite; any other step is only the finiteness check and the step. A
    row diverges and ends at the first evaluated step whose f or gradient
    norm is not finite, and a flow also at the first step whose state is
    not finite. Rows are recorded at step 0, every record_stride-th step,
    the final step and the step they end at. step takes the gradients at s
    when every row was evaluated at k, else None. A step that raises
    _RowsLeave is taken again without those rows. f and the gradients (one
    objective.eval_f_grad) and their norms are one call each for all the
    rows evaluated at a step; only recording goes row by row. A summarized
    step writes one column of the store's blocks, folded into the reports
    every RunStore.K columns and at the end: NaN cells are inert, and a
    tie, 0.0 against -0.0 included, keeps the earlier step.

    Returns, in row order, each row's Trajectory and RunReport named from
    names, or the exception it left the batch with. Settings that fail
    _check_run raise its ValidationError before any step.
    """
    _check_run(n_steps, record_stride, threshold)
    n_records = len(range(0, n_steps + 1, record_stride)) + (n_steps % record_stride != 0)
    store = RunStore(s.shape[1], s.shape[2], n_records, threshold)
    errors: dict[int, Exception] = {}
    live = np.arange(s.shape[1])
    g = None

    def leave(gone: np.ndarray, left: Sequence[Exception] = ()) -> None:
        nonlocal live, rule, s, g
        errors.update(zip(live[gone].tolist(), left))
        keep = ~gone
        live = live[keep]
        rule, s = rule.select(keep), s.compress(keep, axis=1)
        g = None if g is None else g[keep]

    k = 0
    while len(live):
        on_stride = k % record_stride == 0 or k == n_steps
        every = rule.every_step or on_stride
        g = None
        sound = rule.every_step or np.isfinite(s).all()
        if every or not sound:
            # every row is evaluated at a discrete step and at a record, else
            # only the flows whose state is not finite, which end here
            ending = None if sound else ~np.isfinite(s).all(axis=(0, 2))
            rows, states = (live, s) if every else (live[ending], s.compress(ending, axis=1))
            fs, grads = objective.eval_f_grad(states[0])
            # per row the ddot of np.linalg.norm, bitwise; norm(axis=1) is not
            grad_norms = np.sqrt(np.vecdot(grads, grads))
            diverged = store.add(rows, k, states, fs, grad_norms)
            if diverged is not None and every:
                ending = diverged if ending is None else ending | diverged
            if ending is not None:
                store.diverge(live[ending], k)
            if on_stride or ending is not None:
                # the recorded rows, in the batch and among those evaluated
                at = slice(None) if on_stride else ending
                of_rows = at if every else slice(None)
                alphas = rule.alpha(at, k)
                store.record(rows[of_rows], k * rule.dt, states[:, of_rows], fs[of_rows], grad_norms[of_rows], alphas)
            if every:
                g = grads
            if ending is not None:
                leave(ending)
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
    """The steps of dt in t_end. A ValidationError names the first of
    dt > 0, t_end >= dt and t_end a whole number of dt steps that fails,
    under the names given; NaN fails the first that reads it."""
    positive = dt > 0
    reaches = positive and t_end >= dt
    n_steps = t_end / dt if reaches else math.nan
    whole = math.isfinite(n_steps) and abs(round(n_steps) * dt - t_end) <= 1e-9 * t_end
    # each condition holds where an earlier one fails, so only the first failure is named
    require({
        f"{dt_name} > 0": positive,
        f"{t_end_name} >= {dt_name}": reaches or not positive,
        f"{t_end_name} a whole number of {dt_name} steps": whole or not reaches,
    })
    return round(n_steps)


def euler_step(batch: _Batch, s: np.ndarray, k: int, dt: float, g: Optional[np.ndarray] = None) -> np.ndarray:
    """Forward Euler step from t = k*dt to (k+1)*dt; g, when given, holds
    the gradients at s."""
    return s + dt * batch.deriv(s, k * dt, g)


def rk4_step(batch: _Batch, s: np.ndarray, k: int, dt: float, g: Optional[np.ndarray] = None) -> np.ndarray:
    """Classical fourth-order Runge-Kutta step from t = k*dt to (k+1)*dt;
    g, when given, holds the gradients at s."""
    t0 = k * dt
    h = 0.5 * dt
    k1 = batch.deriv(s, t0, g)
    k2 = batch.deriv(s + h * k1, t0 + h)
    k3 = batch.deriv(s + h * k2, t0 + h)
    k4 = batch.deriv(s + dt * k3, (k + 1) * dt)
    return s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@np.errstate(over="ignore", invalid="ignore")
def _integrate_rows(problems: list[FlowProblem], names, step, dt, t_end, record_stride, threshold) -> list:
    """_run_rows on the flows of one objective: each row's Trajectory and
    RunReport or the StepFailure its solo run raises."""
    n_steps = _check_grid(dt, t_end)
    if any(p.objective is not problems[0].objective for p in problems):
        raise ValueError("a batch integrates flows on one objective")
    if not problems:
        _check_run(n_steps, record_stride, threshold)
        return []
    s = np.stack([initial_stepper_state(p.x0, p.nu0) for p in problems], axis=1)
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
    step with a StepFailure carrying the step's time and state and the error
    of its failed run report. The other rows go on unchanged. A flow's
    overflow and invalid operations surface only as its failure, never as a
    RuntimeWarning. A record_stride below 1 is a ValidationError naming
    record_stride >= 1.
    """
    outcomes = _integrate_rows(problems, [""] * len(problems), step, dt, t_end, record_stride, 1e-4)
    return [out if isinstance(out, StepFailure) else _trajectory_or_failure(*out) for out in outcomes]


def _trajectory_or_failure(traj: Trajectory, report: RunReport) -> Trajectory | StepFailure:
    """traj, or the StepFailure at its last record when report is a failure."""
    error = report.diagnostics.get("error")
    return traj if error is None else StepFailure(float(traj.times[-1]), traj.states[-1].copy(), error)


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
    right side at every record. Entry 0 is exactly zero. Params off the
    gadagrad mapping are a ValidationError naming, in order, each of
    lambda4 == 0.0 through lambda8 == 1.0, psi squared gradient and
    0 < c < 1 that fails.
    """
    p = problem.params
    require({
        **{f"{name} == {value}": getattr(p, name) == value for name, value in _ACCUMULATOR_PATTERN.items()},
        "psi squared gradient": p.psi_kind is PsiKind.SQUARED_GRADIENT,
        "0 < c < 1": 0.0 < p.c < 1.0,
    })

    times = np.asarray(traj.times, dtype=float)
    grads_sq = problem.objective.eval_grad(traj.states[:, 0]) ** 2
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
