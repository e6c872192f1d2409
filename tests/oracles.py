"""Independent oracles used by the test suite.

Everything here is written directly from the defining formulas, separately
from the library code, so agreement between the two is evidence rather than
tautology. Nothing in src/ imports this module.
"""

from __future__ import annotations

import numpy as np


def taylor_expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor series.

    Scales A by 2**-s so the norm is below 0.5, sums the series to machine
    precision, then squares s times. Accurate to ~1e-14 relative for the
    small well-conditioned matrices used in tests.
    """
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a, ord=np.inf)
    s = max(0, int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
    b = a / (2.0 ** s)
    term = np.eye(a.shape[0])
    out = np.eye(a.shape[0])
    for k in range(1, 40):
        term = term @ b / k
        out = out + term
        if np.linalg.norm(term, ord=np.inf) < 1e-20:
            break
    for _ in range(s):
        out = out @ out
    return out


def adam_rhs(x, mu, nu, t, b1, b2, grad):
    """RHS of the one-state adaptive flow, coded from its printed form:

        mu'  = -b1*mu + b1*g
        nu'  = -b2*nu + b2*g^2
        x'   = -(1/alpha(t)) * mu / sqrt(nu)
        alpha(t) = (1 - (1-b1)^(t+1)) / sqrt(1 - (1-b2)^(t+1))
    """
    g = grad(x)
    dmu = -b1 * mu + b1 * g
    dnu = -b2 * nu + b2 * g * g
    alpha = (1.0 - (1.0 - b1) ** (t + 1.0)) / np.sqrt(1.0 - (1.0 - b2) ** (t + 1.0))
    dx = -(mu / np.sqrt(nu)) / alpha
    return dmu, dnu, dx


def general_rhs(x, mu, zeta, nu, t, lam, c, psi, grad):
    """RHS of the full four-block flow, transcribed term by term.

    lam is a dict with keys 1..8; psi(g, mu) is the second-moment input.
    """
    g = grad(x)
    dmu = -lam[1] * mu + lam[2] * g
    dzeta = -lam[3] * zeta + lam[3] * nu
    dnu = lam[4] * zeta - lam[5] * nu + lam[6] * psi(g, mu)
    if lam[7] > 0:
        alpha = (1.0 - (1.0 - lam[2]) ** (t + 1.0)) / (
            (1.0 - (1.0 - lam[6]) ** (t + 1.0)) ** c
        )
    else:
        alpha = 1.0
    dx = -(lam[7] * mu + lam[8] * g) / (alpha * nu ** c)
    return dmu, dzeta, dnu, dx


def algorithm_paper_run(x0, nu0, b1, b2, b3, delta, eta, epsilon, grad, num_iters):
    """Sequential per-iteration transcription of the printed update loop with
    the printed bias denominators 1-(1-b)^(k+1).

    Returns the list of x arrays after each iteration (including the start).
    """
    x = np.asarray(x0, dtype=float).copy()
    mu = np.zeros_like(x)
    zeta = np.zeros_like(x)
    nu = np.zeros_like(x) if nu0 is None else np.asarray(nu0, dtype=float).copy()
    xs = [x.copy()]
    states = [(mu.copy(), zeta.copy(), nu.copy())]
    for k in range(num_iters):
        g = grad(x)
        mu = (1.0 - delta * b1) * mu + (delta * b1) * g
        zeta_new = (1.0 - delta * b2) * zeta + (delta * b2) * nu
        nu = (delta * b3) * zeta + (1.0 - delta * b2 - delta * b3) * nu + (delta * b2) * g ** 2
        zeta = zeta_new
        b1_corr = 1.0 - (1.0 - b1) ** (k + 1)
        b2_corr = 1.0 - (1.0 - b2) ** (k + 1)
        mu_hat = mu / b1_corr
        nu_hat = nu / b2_corr
        x = x - eta * (mu_hat / (np.sqrt(nu_hat) + epsilon))
        xs.append(x.copy())
        states.append((mu.copy(), zeta.copy(), nu.copy()))
    return xs, states


def algorithm_flow_run(x0, nu0, b1, b2, b3, delta, eta, epsilon, grad, num_iters):
    """Same loop with the flow's bias factor sampled at physical time k*delta
    (exponent k*delta + 1), i.e. the sequential Euler scheme of the flow."""
    x = np.asarray(x0, dtype=float).copy()
    mu = np.zeros_like(x)
    zeta = np.zeros_like(x)
    nu = np.zeros_like(x) if nu0 is None else np.asarray(nu0, dtype=float).copy()
    xs = [x.copy()]
    states = [(mu.copy(), zeta.copy(), nu.copy())]
    for k in range(num_iters):
        g = grad(x)
        mu = (1.0 - delta * b1) * mu + (delta * b1) * g
        zeta_new = (1.0 - delta * b2) * zeta + (delta * b2) * nu
        nu = (delta * b3) * zeta + (1.0 - delta * b2 - delta * b3) * nu + (delta * b2) * g ** 2
        zeta = zeta_new
        e = k * delta + 1.0
        b1_corr = 1.0 - (1.0 - b1) ** e
        b2_corr = 1.0 - (1.0 - b2) ** e
        mu_hat = mu / b1_corr
        nu_hat = nu / b2_corr
        x = x - eta * (mu_hat / (np.sqrt(nu_hat) + epsilon))
        xs.append(x.copy())
        states.append((mu.copy(), zeta.copy(), nu.copy()))
    return xs, states


def rk4_lti_response(a: np.ndarray, b: np.ndarray, u, state0, dt: float, n_steps: int):
    """Classical RK4 on the linear system s' = A s + B u(t).

    u is a callable of t returning the scalar input. Returns the (n_steps+1,
    dim) array of states on the grid k*dt.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = np.asarray(state0, dtype=float).copy()
    out = [s.copy()]
    for k in range(n_steps):
        t = k * dt

        def f(state, tt):
            return a @ state + b * u(tt)

        k1 = f(s, t)
        k2 = f(s + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = f(s + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = f(s + dt * k3, t + dt)
        s = s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(s.copy())
    return np.array(out)


def general_flow_run(x0, nu0, lam, c, psi, grad, dt, n_steps, rk4):
    """Fixed-step Euler (rk4 False) or classical RK4 (rk4 True) on the
    general flow from mu = zeta = 0 at t = 0, using general_rhs.

    Step k runs from t = k*dt to t = (k+1)*dt; RK4 evaluates its middle
    stages at k*dt + dt/2. Returns the list of (x, mu, zeta, nu) tuples
    after each step, starting with the initial state.
    """
    x = np.asarray(x0, dtype=float)
    s = (x, np.zeros_like(x), np.zeros_like(x), np.asarray(nu0, dtype=float))
    out = [s]

    def f(s, t):
        dmu, dzeta, dnu, dx = general_rhs(s[0], s[1], s[2], s[3], t, lam, c, psi, grad)
        return dx, dmu, dzeta, dnu

    def shift(s, h, d):
        return tuple(a + h * b for a, b in zip(s, d))

    for k in range(n_steps):
        t = k * dt
        if rk4:
            k1 = f(s, t)
            k2 = f(shift(s, 0.5 * dt, k1), t + 0.5 * dt)
            k3 = f(shift(s, 0.5 * dt, k2), t + 0.5 * dt)
            k4 = f(shift(s, dt, k3), (k + 1) * dt)
            s = tuple(
                a + (dt / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
                for a, d1, d2, d3, d4 in zip(s, k1, k2, k3, k4)
            )
        else:
            s = shift(s, dt, f(s, t))
        out.append(s)
    return out
