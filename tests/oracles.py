"""Independent oracles used by the test suite.

Everything here is written directly from the defining formulas, separately
from the library code, so agreement between the two is evidence rather than
tautology. Nothing in src/ imports this module.
"""

from __future__ import annotations

import math

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
    dx = -(lam[7] * mu + lam[8] * g) / (general_alpha(t, lam, c) * nu ** c)
    return dmu, dzeta, dnu, dx


def general_alpha(t, lam, c):
    """Bias-correction factor of the general flow at time t:
    (1 - (1-lambda2)^(t+1)) / (1 - (1-lambda6)^(t+1))^c, or 1 when
    lambda7 = 0."""
    if lam[7] > 0:
        return (1.0 - (1.0 - lam[2]) ** (t + 1.0)) / (
            (1.0 - (1.0 - lam[6]) ** (t + 1.0)) ** c
        )
    return 1.0


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


def discrete_entry_run(entry, grad, x0, num_iters, milestones):
    """Sequential transcription of the discrete update of one config entry,
    from x0 with zero moments, under the milestone learning-rate schedule.

    entry is a config optimizer entry with every rate spelled out (kind, eta,
    and b1, b2, b3, delta, epsilon, bias_mode or c, delta, epsilon or beta).
    The updates, at iteration k with eta_k = eta times every multiplier whose
    milestone is at or before k:

      adam family (b3 = 0 for adam and adabelief):
        mu'   = (1 - delta*b1)*mu + delta*b1*g
        zeta' = (1 - delta*b2)*zeta + delta*b2*nu
        nu'   = delta*b3*zeta + (1 - delta*b2 - delta*b3)*nu + delta*b2*psi
        psi   = (g - mu')^2 for the belief kinds, g^2 otherwise
        x'    = x - eta_k * (mu'/B1) / (sqrt(nu'/B2) + epsilon)
        with  B = 1 - (1 - b)^(k+1)              (paper)
              B = 1 - (1 - delta*b)^(k+1)        (beta)
              B = 1 - (1 - b)^(k*delta + 1)      (continuous)
        and the recorded bias factor B1 / B2^(1/2);
      gadagrad:
        nu' = nu + delta*g^2,  x' = x - delta*eta_k * g / (nu'^c + epsilon)
        (a zero denominator gives a zero step);
      sgd_momentum:
        mu' = beta*mu + g,     x' = x - eta_k * mu'.

    Returns one (alpha, x, mu, zeta, nu) tuple per iteration 0..num_iters,
    alpha being the bias factor at that iteration (1 for the kinds without
    bias correction).
    """
    kind = entry["kind"]
    x = np.asarray(x0, dtype=float).copy()
    mu = np.zeros_like(x)
    zeta = np.zeros_like(x)
    nu = np.zeros_like(x)

    def eta_at(k):
        eta = entry["eta"]
        for it, m in milestones:
            if k >= it:
                eta = eta * m
        return eta

    def bias(k):
        b1, b2, delta = entry["b1"], entry["b2"], entry["delta"]
        mode = entry["bias_mode"]
        if mode == "paper":
            return 1.0 - (1.0 - b1) ** (k + 1), 1.0 - (1.0 - b2) ** (k + 1)
        if mode == "beta":
            return 1.0 - (1.0 - delta * b1) ** (k + 1), 1.0 - (1.0 - delta * b2) ** (k + 1)
        e = k * delta + 1.0
        return 1.0 - (1.0 - b1) ** e, 1.0 - (1.0 - b2) ** e

    moments = kind in ("adam", "adabelief", "adamssm", "adabeliefssm")
    rows = []
    for k in range(num_iters + 1):
        if moments:
            b1_corr, b2_corr = bias(k)
            alpha = b1_corr / b2_corr ** 0.5
        else:
            alpha = 1.0
        rows.append((alpha, x.copy(), mu.copy(), zeta.copy(), nu.copy()))
        if k == num_iters:
            break
        g = grad(x)
        eta = eta_at(k)
        if kind == "sgd_momentum":
            mu = entry["beta"] * mu + g
            x = x - eta * mu
        elif kind == "gadagrad":
            delta = entry["delta"]
            nu = nu + delta * (g * g)
            denom = nu ** entry["c"] + entry["epsilon"]
            direction = np.divide(g, denom, out=np.zeros_like(g), where=denom > 0)
            x = x - (delta * eta) * direction
        else:
            b1, b2, delta = entry["b1"], entry["b2"], entry["delta"]
            b3 = entry["b3"] if kind in ("adamssm", "adabeliefssm") else 0.0
            mu = (1.0 - delta * b1) * mu + (delta * b1) * g
            zeta_new = (1.0 - delta * b2) * zeta + (delta * b2) * nu
            psi = (g - mu) ** 2 if kind in ("adabelief", "adabeliefssm") else g ** 2
            nu = (delta * b3) * zeta + (1.0 - delta * b2 - delta * b3) * nu + (delta * b2) * psi
            zeta = zeta_new
            x = x - eta * ((mu / b1_corr) / (np.sqrt(nu / b2_corr) + entry["epsilon"]))
    return rows


def run_summary(steps, f_values, grad_norms, states, threshold, box, flow=False):
    """The report of a run, read one summarized step at a time: step k of
    steps has f f_values[k], gradient norm grad_norms[k] and (4, d) state
    states[k] (rows x, mu, zeta and nu).

    The first step whose f or gradient norm is not finite, or for a flow
    whose state is not finite, ends the scan: the run failed there, with NaN
    metrics and an error naming what was not finite. Otherwise best_f is the first f that
    is strictly less than every f before it (so a later equal f, 0.0 after
    -0.0 or -0.0 after 0.0, never replaces it), epoch_of_best its step,
    iters_to_threshold the first step whose gradient norm is below threshold
    (None for none), final_grad_norm the last gradient norm, nu_nonnegative
    whether no nu element was ever < 0 and stayed_in_box whether every x
    element always had |x| <= box.

    Returns the fields of the report after its name, as a dict in field
    order.
    """
    best_f, epoch_of_best, reached, final = math.inf, 0, None, math.nan
    nu_nonnegative = stayed_in_box = True
    for k, f, g, s in zip(steps, f_values, grad_norms, states):
        finite = math.isfinite(f) and math.isfinite(g)
        if not finite or (flow and not all(math.isfinite(v) for v in np.ravel(s))):
            what = "the state" if finite else "f or the gradient norm"
            diagnostics = {"error": f"diverged at iteration {k}: {what} is not finite", "diverged_at": k}
            return dict(best_f=math.nan, epoch_of_best=0, final_grad_norm=math.nan, iters_to_threshold=None,
                        diagnostics=diagnostics)
        if f < best_f:
            best_f, epoch_of_best = f, k
        if reached is None and g < threshold:
            reached = k
        final = g
        nu_nonnegative = nu_nonnegative and not any(v < 0 for v in s[3])
        stayed_in_box = stayed_in_box and all(abs(v) <= box for v in s[0])
    diagnostics = {"nu_nonnegative": nu_nonnegative, "stayed_in_box": stayed_in_box}
    return dict(best_f=best_f, epoch_of_best=epoch_of_best, final_grad_norm=final, iters_to_threshold=reached,
                diagnostics=diagnostics)


def lcg_uniform(count: int, seed: int) -> np.ndarray:
    """count uniforms in [0, 1), one draw at a time from the 32-bit linear
    congruential generator state' = (1664525*state + 1013904223) mod 2^32,
    started from seed mod 2^32, each draw being state' / 2^32."""
    state = seed % 2 ** 32
    out = []
    for _ in range(count):
        state = (1664525 * state + 1013904223) % 2 ** 32
        out.append(state / 2 ** 32)
    return np.array(out, dtype=float)


def logistic_problem(d: int, n: int, seed: int):
    """f and gradient of the L2-regularized logistic loss over the synthetic
    dataset of (d, n, seed), transcribed term by term:

      u      = n*d + d draws of lcg_uniform(., seed)
      X      = 2u - 1 over the first n*d draws, row-major (n, d)
      w_true = 2u - 1 over the last d draws
      y_i    = 1 if (X w_true)_i >= 0 else -1
      m      = y * (X w)
      f(w)   = mean(log(1 + exp(-m))) + (reg/2) w.w,   reg = 5e-4
      grad   = -X'(y * sigmoid(-m)) / n + reg w,  sigmoid(-m) = exp(-log(1 + exp(m)))

    with log(1 + exp(z)) evaluated as np.logaddexp(0, z). Returns (f, grad)
    for a single point w of shape (d,).
    """
    reg = 5e-4
    u = lcg_uniform(n * d + d, seed)
    X = 2.0 * u[: n * d].reshape(n, d) - 1.0
    w_true = 2.0 * u[n * d:] - 1.0
    y = np.where(X @ w_true >= 0.0, 1.0, -1.0)

    def f(w):
        m = y * (X @ w)
        loss = np.mean(np.logaddexp(0.0, -m))
        return float(loss + 0.5 * reg * np.dot(w, w))

    def grad(w):
        m = y * (X @ w)
        sigmoid = np.exp(-np.logaddexp(0.0, m))
        return -(X.T @ (y * sigmoid)) / n + reg * w

    return f, grad


def rosenbrock_grad(x):
    """Gradient of the chained Rosenbrock function
    f(x) = sum_i 100*(x[i+1] - x[i]^2)^2 + (1 - x[i])^2, i = 0..d-2, at a
    single point, one coordinate at a time:

      df/dx[i] = -400*x[i]*r[i] - 2*(1 - x[i])   (i < d-1)
               + 200*r[i-1]                      (i > 0)

    with r[i] = x[i+1] - x[i]*x[i]; the last coordinate has only the second
    term, added to 0.0 (so -0.0 gives 0.0). Returns a (d,) array.
    """
    x = [float(v) for v in x]
    d = len(x)
    r = [x[i + 1] - x[i] * x[i] for i in range(d - 1)]
    g = []
    for i in range(d):
        if i == d - 1:
            g.append(0.0 + 200.0 * r[i - 1])
        elif i == 0:
            g.append(-400.0 * x[i] * r[i] - 2.0 * (1.0 - x[i]))
        else:
            g.append((-400.0 * x[i] * r[i] - 2.0 * (1.0 - x[i])) + 200.0 * r[i - 1])
    return np.array(g)


def pairwise_sum(values) -> float:
    """numpy's sum of one contiguous run of float64 values (np.add.reduce
    over a row), transcribed: 0.0 plus the pairwise sum, which adds a run
    shorter than 8 one value at a time from -0.0, a run of up to 128 in
    eight interleaved partial sums combined as a tree, and splits a longer
    run in two at a multiple of 8 below its half."""

    def pairwise(a):
        n = len(a)
        if n < 8:
            total = -0.0
            for v in a:
                total += v
            return total
        if n <= 128:
            partial = list(a[:8])
            end = n - n % 8
            for i in range(8, end, 8):
                for j in range(8):
                    partial[j] += a[i + j]
            total = ((partial[0] + partial[1]) + (partial[2] + partial[3])) + (
                (partial[4] + partial[5]) + (partial[6] + partial[7])
            )
            for v in a[end:]:
                total += v
            return total
        half = n // 2 - (n // 2) % 8
        return pairwise(a[:half]) + pairwise(a[half:])

    return 0.0 + pairwise([float(v) for v in values])


def rosenbrock_f(x) -> float:
    """The chained Rosenbrock function at a single point, one term at a time:

      f(x) = sum_i 100*r[i]^2 + (1 - x[i])^2,   r[i] = x[i+1] - x[i]*x[i],   i = 0..d-2

    the terms summed in numpy's order for a row (pairwise_sum).
    """
    x = [float(v) for v in x]
    terms = []
    for i in range(len(x) - 1):
        r = x[i + 1] - x[i] * x[i]
        terms.append(100.0 * (r * r) + (1.0 - x[i]) * (1.0 - x[i]))
    return pairwise_sum(terms)
