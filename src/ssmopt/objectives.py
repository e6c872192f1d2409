"""Desk-scale test objectives with analytic gradients and a finite-difference
gradient oracle.

Every objective is bounded below on its test box, evaluation is reentrant,
and construction is deterministic (the logistic dataset is generated by a
fixed linear congruential generator so the same seed gives bit-identical
data on any platform).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Objective:
    """Evaluation surface f with analytic gradient.

    known_min, when present, is the pair (argmin, min value). The
    hessian_bounded_hint flag marks objectives whose curvature is bounded on
    the test box [-box, box]^dim; convergence assertions should be restricted
    to trajectories staying inside that box.

    eval_grad also takes a batch of points shaped (R, dim) and returns their
    gradients row by row, each bitwise equal to the gradient of that point
    alone.
    """

    dim: int
    eval_f: Callable[[np.ndarray], float]
    eval_grad: Callable[[np.ndarray], np.ndarray]
    known_min: Optional[tuple[np.ndarray, float]] = None
    hessian_bounded_hint: bool = True
    name: str = ""
    box: float = 5.0


def make_quadratic(d: int, condition_number: float) -> Objective:
    """Diagonal quadratic f(x) = x'Qx / 2 with eigenvalues spread geometrically
    from 1 to condition_number. d = 1 uses the single eigenvalue 1.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if condition_number < 1:
        raise ValueError("condition_number must be >= 1")
    eigs = np.ones(1) if d == 1 else np.geomspace(1.0, float(condition_number), d)

    def f(x):
        x = np.asarray(x, dtype=float)
        return float(0.5 * np.dot(eigs, x * x))

    def grad(x):
        x = np.asarray(x, dtype=float)
        return eigs * x

    return Objective(
        dim=d, eval_f=f, eval_grad=grad,
        known_min=(np.zeros(d), 0.0),
        hessian_bounded_hint=True,
        name=f"quadratic_d{d}_cond{condition_number:g}",
    )


def make_rosenbrock(d: int) -> Objective:
    """Chained Rosenbrock function, minimum 0 at the all-ones point.

    The Hessian is unbounded globally but bounded on the test box, so
    convergence checks only apply to trajectories that stay inside it.
    """
    if d < 2:
        raise ValueError("d must be >= 2")

    def f(x):
        x = np.asarray(x, dtype=float)
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    def grad(x):
        x = np.asarray(x, dtype=float)
        # A batch (R, d) is computed as (d, R), so coordinates index the first
        # axis either way: x[..., 1:] would cost every 1-D call extra.
        batch = x.ndim > 1
        if batch:
            x = x.T
        g = np.zeros_like(x)
        r = x[1:] - x[:-1] ** 2
        g[:-1] = -400.0 * x[:-1] * r - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * r
        return g.T if batch else g

    return Objective(
        dim=d, eval_f=f, eval_grad=grad,
        known_min=(np.ones(d), 0.0),
        hessian_bounded_hint=False,
        name=f"rosenbrock_d{d}",
    )


# Numerical Recipes LCG constants; chosen for cross-platform reproducibility.
_LCG_A = 1664525
_LCG_C = 1013904223
_LCG_MOD = 2 ** 32


def _lcg_uniform(count: int, seed: int) -> np.ndarray:
    """count uniforms in [0, 1) from a 32-bit linear congruential generator."""
    state = seed & 0xFFFFFFFF
    out = np.empty(count)
    for i in range(count):
        state = (_LCG_A * state + _LCG_C) % _LCG_MOD
        out[i] = state / _LCG_MOD
    return out


def make_logistic(d: int, n_samples: int, seed: int) -> Objective:
    """L2-regularized logistic loss over a deterministic synthetic dataset.

    Features and a ground-truth weight vector are drawn uniformly in [-1, 1)
    from the LCG; labels are the sign of the noiseless linear response. The
    loss is mean log(1 + exp(-y * Xw)) + (reg/2) * ||w||^2 with reg = 5e-4,
    so the zero vector evaluates to exactly log(2).
    """
    if d < 1 or n_samples < 1:
        raise ValueError("d and n_samples must be >= 1")
    reg = 5e-4
    u = _lcg_uniform(n_samples * d + d, seed)
    X = 2.0 * u[: n_samples * d].reshape(n_samples, d) - 1.0
    w_true = 2.0 * u[n_samples * d:] - 1.0
    y = np.where(X @ w_true >= 0.0, 1.0, -1.0)

    def f(w):
        w = np.asarray(w, dtype=float)
        margins = y * (X @ w)
        return float(np.mean(np.logaddexp(0.0, -margins)) + 0.5 * reg * np.dot(w, w))

    def grad_one(w):
        margins = y * (X @ w)
        # sigmoid(-m) computed as exp(-log(1+exp(m))), stable for any margin
        s = np.exp(-np.logaddexp(0.0, margins))
        return -(X.T @ (y * s)) / n_samples + reg * w

    def grad(w):
        # grad_one is separate so that grad does not refer to itself: that
        # cycle would keep the dataset alive until the garbage collector runs
        w = np.asarray(w, dtype=float)
        if w.ndim > 1:
            # row by row: one matrix product over the batch would reorder sums
            return np.stack([grad_one(row) for row in w])
        return grad_one(w)

    return Objective(
        dim=d, eval_f=f, eval_grad=grad,
        known_min=None,
        hessian_bounded_hint=True,
        name=f"logistic_d{d}_n{n_samples}_s{seed}",
    )


def finite_diff_grad(obj: Objective, x, h: float) -> np.ndarray:
    """Central-difference gradient of obj at x with step h."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(obj.dim):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (obj.eval_f(x + e) - obj.eval_f(x - e)) / (2.0 * h)
    return g
