"""Desk-scale test objectives with analytic gradients and a finite-difference
gradient oracle.

Every objective is bounded below on the test box [-BOX, BOX]^dim, the one
box of every run, whose stay a run report flags (stayed_in_box). Evaluation
is reentrant, and construction is deterministic (the logistic dataset is
generated by a fixed linear congruential generator so the same seed gives
bit-identical data on any platform).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import MAX_FLOATS, require

BOX = 5.0


@dataclass(frozen=True)
class Objective:
    """Evaluation surface f with analytic gradient.

    eval_f and eval_grad also take a batch of points shaped (R, dim): eval_f
    returns an (R,) array of values and eval_grad an (R, dim) array of
    gradients, each entry bitwise equal to the result for that point alone.
    A single point gives a float and a (dim,) gradient.

    eval_f_grad returns the pair (eval_f(x), eval_grad(x)), bitwise, for a
    point or a batch: the run loop's one objective call per evaluated step.
    Rosenbrock and logistic compute it in one pass that shares the work of
    the two, and their eval_f is its f half; both keep a gradient-only
    eval_grad for the flows' stages. Quadratic's is its two functions.

    work is the multiply-adds of one point's eval_f_grad (0 when unknown):
    dim for the quadratic and Rosenbrock, 2*n_samples*dim for logistic. It
    sizes a batch for harness, which splits a heavy one across processes.
    """

    dim: int
    eval_f: Callable[[np.ndarray], float | np.ndarray]
    eval_grad: Callable[[np.ndarray], np.ndarray]
    eval_f_grad: Callable[[np.ndarray], tuple]
    name: str = ""
    work: int = 0


def make_quadratic(d: int, condition_number: float) -> Objective:
    """Diagonal quadratic f(x) = x'Qx / 2 with eigenvalues spread geometrically
    from 1 to condition_number, a finite number >= 1. d = 1 uses the single
    eigenvalue 1. A ValidationError names each of d >= 1, condition_number
    >= 1 and condition_number finite that fails.
    """
    require({
        "d >= 1": d >= 1,
        "condition_number >= 1": condition_number >= 1,
        "condition_number finite": np.isfinite(condition_number),
    })
    eigs = np.ones(1) if d == 1 else np.geomspace(1.0, float(condition_number), d)

    def f(x):
        # vecdot reduces each row with the same ddot as a single point;
        # (X * X) @ eigs would not be bitwise equal per row
        x = np.asarray(x, dtype=float)
        value = 0.5 * np.vecdot(eigs, x * x)
        return value if x.ndim > 1 else float(value)

    def grad(x):
        x = np.asarray(x, dtype=float)
        return eigs * x

    return Objective(
        dim=d, eval_f=f, eval_grad=grad, eval_f_grad=lambda x: (f(x), grad(x)),
        name=f"quadratic_d{d}_cond{condition_number:g}",
        work=d,
    )


def make_rosenbrock(d: int) -> Objective:
    """Chained Rosenbrock function, minimum 0 at the all-ones point.

    The Hessian is unbounded globally but bounded on the test box, so
    convergence checks only apply to trajectories that stay inside it.
    eval_f_grad computes r = x[i+1] - x[i]^2 and 1 - x[i] once for f and the
    gradient; eval_f is its f half, and eval_grad computes the gradient alone.
    d < 2 is a ValidationError naming d >= 2.
    """
    require({"d >= 2": d >= 2})

    def grad_parts(x):
        # A batch (R, d) is computed on a contiguous (d, R) copy, so the
        # coordinates index the first axis, as a point's do, and copied back
        # to unit-stride rows: a strided row's sums run in another order.
        head, tail = x[:-1], x[1:]
        r, rest = tail - head ** 2, 1.0 - head
        g = np.zeros(x.shape)
        g[:-1] = -400.0 * head * r - 2.0 * rest
        # through a view: g[1:] += ... would copy the sum back over itself
        right = g[1:]
        right += 200.0 * r
        return g, r, rest

    def grad(x):
        x = np.asarray(x, dtype=float)
        return grad_parts(x)[0] if x.ndim == 1 else grad_parts(x.T.copy())[0].T.copy()

    def f_grad(x):
        x = np.asarray(x, dtype=float)
        batch = x.ndim > 1
        g, r, rest = grad_parts(x.T.copy() if batch else x)
        terms = 100.0 * r ** 2 + rest ** 2
        if batch:
            return np.add.reduce(terms.T.copy(), axis=-1), g.T.copy()
        return float(np.add.reduce(terms)), g

    return Objective(
        dim=d, eval_f=lambda x: f_grad(x)[0], eval_grad=grad, eval_f_grad=f_grad,
        name=f"rosenbrock_d{d}",
        work=d,
    )


# Numerical Recipes LCG constants; chosen for cross-platform reproducibility.
_LCG_A = 1664525
_LCG_C = 1013904223
_LCG_MOD = 2 ** 32
_CHUNK = 8192


def _lcg_draws(count: int, seed: int) -> np.ndarray:
    """count >= 1 draws in [-1, 1) from a 32-bit linear congruential
    generator started from seed mod 2^32, each draw 2u - 1 with u = state /
    2^32.

    The states fill one uint64 buffer. The first is drawn alone; each later
    block is all the states so far, advanced by their count k at once:
    state -> (a*state + c) mod 2^32 with the jump constants a = A^k and c =
    C(A^(k-1) + ... + 1) mod 2^32, doubled as Python ints (a -> a^2, c ->
    a*c + c) so no numpy scalar overflows. A product of two 32-bit values
    plus c fits in uint64, and the mask takes it mod 2^32. Each chunk of
    _CHUNK states is then overwritten by its own draws, read as float64: as
    every state is below 2^32, 2u - 1 = state*2^-31 - 1 exactly.
    """
    states = np.empty(count, np.uint64)
    states[0] = (_LCG_A * (seed % _LCG_MOD) + _LCG_C) % _LCG_MOD
    a, c, done = _LCG_A, _LCG_C, 1
    while done < count:
        block = states[done : 2 * done]
        np.multiply(states[: len(block)], a, out=block)
        block += c
        block &= _LCG_MOD - 1
        a, c, done = a * a % _LCG_MOD, (a * c + c) % _LCG_MOD, done + len(block)
    draws = states.view(np.float64)
    for start in range(0, count, _CHUNK):
        draws[start : start + _CHUNK] = states[start : start + _CHUNK] * 2.0 ** -31 - 1.0
    return draws


def make_logistic(d: int, n_samples: int, seed: int) -> Objective:
    """L2-regularized logistic loss over a deterministic synthetic dataset.

    Features and a ground-truth weight vector are drawn uniformly in [-1, 1)
    from the LCG, as 2u - 1 = state*2^-31 - 1 exactly (u = state / 2^32);
    X and w_true are views of the one buffer _lcg_draws fills, X the first
    n_samples*d draws row-major and w_true the last d. Labels are the sign
    of the noiseless linear response. The loss is mean log(1 + exp(-y *
    Xw)) + (reg/2) * ||w||^2 with reg = 5e-4, so the zero vector evaluates
    to exactly log(2).

    Once the labels are drawn, each row of X is signed by its label in
    place, giving Z. As y = +-1, the margins Zw equal y * (Xw), and Z^T s
    equals X^T (y * s), bit for bit. A point takes two matrix-vector
    products, Zw and Z^T s, one GEMV per row of a batch (a matrix product
    over the batch would reorder the sums of a row); the elementwise work
    runs once over the (R, n) margins of the batch. eval_f_grad shares one
    logaddexp between the loss and the gradient: with L = log(1 + exp(-|m|)),
    numpy's logaddexp gives log(1 + exp(-m)) as max(-m, 0) + L and log(1 +
    exp(m)) as max(m, 0) + L, bitwise (a NaN margin gives NaN either way).
    eval_f is its f half; eval_grad takes log(1 + exp(m)) as logaddexp(0,
    m) alone, bitwise the same, and both end in one gradient tail. A
    ValidationError names each of d >= 1, n_samples >= 1 and the buffer's
    (n_samples + 1) * d floats within numpy's array size limit that fails.
    """
    require({
        "d >= 1": d >= 1,
        "n_samples >= 1": n_samples >= 1,
        "(n_samples + 1) * d floats within numpy's array size limit": (n_samples + 1) * d <= MAX_FLOATS,
    })
    reg = 5e-4
    draws = _lcg_draws(n_samples * d + d, seed)
    Z = draws[: n_samples * d].reshape(n_samples, d)
    w_true = draws[n_samples * d:]
    Z *= np.where(Z @ w_true >= 0.0, 1.0, -1.0)[:, None]
    Zt = Z.T

    def products(a, v):
        # a @ v for each row of v: numpy's stacked matmul calls the one GEMV
        # of a single point per row, where a matrix product would reorder
        return a @ v if v.ndim == 1 else np.matmul(a, v[:, :, None])[:, :, 0]

    # Elementwise steps write into the margins' own buffer where they can,
    # so a batch holds at most three (R, n) arrays at once.

    def f_grad(w):
        w = np.asarray(w, dtype=float)
        m = products(Z, w)
        shared = np.abs(m)
        np.logaddexp(0.0, np.negative(shared, out=shared), out=shared)
        losses = np.negative(m)
        np.maximum(losses, 0.0, out=losses)
        losses += shared
        np.maximum(m, 0.0, out=m)
        m += shared
        value = np.add.reduce(losses, axis=-1) / n_samples + 0.5 * reg * np.vecdot(w, w)
        return (value if w.ndim > 1 else float(value)), gradient(w, m)

    def gradient(w, log_terms):
        # sigmoid(-m) as exp(-log(1 + exp(m))), stable for any margin, in the buffer of the log terms
        s = np.exp(np.negative(log_terms, out=log_terms), out=log_terms)
        return -products(Zt, s) / n_samples + reg * w

    def grad(w):
        w = np.asarray(w, dtype=float)
        m = products(Z, w)
        return gradient(w, np.logaddexp(0.0, m, out=m))

    return Objective(
        dim=d, eval_f=lambda w: f_grad(w)[0], eval_grad=grad, eval_f_grad=f_grad,
        name=f"logistic_d{d}_n{n_samples}_s{seed}",
        work=2 * n_samples * d,
    )


def finite_diff_grad(obj: Objective, x, h: float) -> np.ndarray:
    """Central-difference gradient of obj at x with a positive, finite step
    h: a ValidationError names each of h > 0 and h finite that fails."""
    require({"h > 0": h > 0, "h finite": np.isfinite(h)})
    x = np.asarray(x, dtype=float)
    steps = h * np.eye(obj.dim)
    f = obj.eval_f(np.concatenate([x + steps, x - steps]))
    return (f[: obj.dim] - f[obj.dim:]) / (2.0 * h)
