"""Linear-systems view of the second-moment dynamic, the map from the input
psi to nu.

One system, two forms: SecondMomentLTI with its closed-form exp(At) gives the
state-transition entries and every time response (impulse, step, and the
convolution solution on a grid); the transfer function of adamssm_tf gives
the poles, zero and DC gain that `ssmopt analyze` prints.

Root-finding is closed form (degree <= 2) so results are bit-reproducible;
no general polynomial root-finder is used at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ValidationError


class DegreeError(ValueError):
    """Polynomial degree outside the supported closed-form range."""


@dataclass(frozen=True)
class RationalTF:
    """Proper rational transfer function with a monic denominator.

    Coefficients are in descending degree. Construction normalizes the
    denominator to be monic and rejects improper fractions.
    """

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        num = np.atleast_1d(np.asarray(self.num, dtype=float))
        den = np.atleast_1d(np.asarray(self.den, dtype=float))
        if den[0] == 0.0:
            raise ValueError("leading denominator coefficient must be nonzero")
        if len(num) > len(den):
            raise ValueError("transfer function must be proper (num degree <= den degree)")
        num = num / den[0]
        den = den / den[0]
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)


def adamssm_tf(b2: float, b3: float) -> RationalTF:
    """Transfer function from the squared-gradient input to the second moment
    for the two-state dynamic with rates (b2, b3):

        b2 * (s + b2) / (s^2 + (2*b2 + b3)*s + b2^2)

    At b3 = 0 the pole-zero pair at s = -b2 cancels and the map reduces to the
    one-state low-pass b2 / (s + b2). Rates whose b2^2 underflows to 0 or
    whose (2*b2 + b3)^2 overflows are a ValidationError: the closed-form
    poles, p and the DC gain are not representable there.
    """
    if not b2 > 0:
        raise ValidationError(["0 < b2"])
    if not b3 >= 0:
        raise ValidationError(["b3 >= 0"])
    b = 2.0 * b2 + b3
    v = []
    if not b2 * b2 > 0.0:
        v.append("b2*b2 > 0 in floating point")
    if not math.isfinite(b * b):
        v.append("(2*b2 + b3)**2 finite in floating point")
    if v:
        raise ValidationError(v)
    return RationalTF(num=np.array([b2, b2 * b2]), den=np.array([1.0, b, b2 * b2]))


def dc_gain(tf: RationalTF) -> float:
    """Zero-frequency gain num(0)/den(0), evaluated in coefficient arithmetic."""
    if tf.den[-1] == 0.0:
        raise ZeroDivisionError("pole at s = 0, DC gain undefined")
    return float(tf.num[-1] / tf.den[-1])


def _roots_closed_form(coeffs: np.ndarray) -> list[complex]:
    """Roots of a real polynomial of degree <= 2, in closed form.

    Uses the numerically stable quadratic formula (no subtraction of nearly
    equal quantities). Raises DegreeError above degree 2.
    """
    c = np.trim_zeros(np.atleast_1d(np.asarray(coeffs, dtype=float)), "f")
    deg = len(c) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [complex(-c[1] / c[0])]
    if deg == 2:
        a, b, c0 = float(c[0]), float(c[1]), float(c[2])
        disc = b * b - 4.0 * a * c0
        if disc >= 0.0:
            sq = math.sqrt(disc)
            q = -0.5 * (b + math.copysign(sq, b))
            if q == 0.0:
                # b == 0 and disc == 0, double root at the origin
                return [complex(0.0), complex(0.0)]
            return [complex(q / a), complex(c0 / q)]
        re = -b / (2.0 * a)
        im = math.sqrt(-disc) / (2.0 * a)
        return [complex(re, im), complex(re, -im)]
    raise DegreeError(f"closed-form roots support degree <= 2, got {deg}")


def _sorted_roots(roots: list[complex]) -> list[complex]:
    return sorted(roots, key=lambda z: (z.real, z.imag))


def poles_zeros(tf: RationalTF) -> tuple[list[complex], list[complex]]:
    """Exact closed-form poles and zeros, each sorted by real part."""
    return _sorted_roots(_roots_closed_form(tf.den)), _sorted_roots(_roots_closed_form(tf.num))


@dataclass(frozen=True)
class SecondMomentLTI:
    """Two-state linear dynamic (zeta, nu) with state matrix
    [[-lambda3, lambda3], [lambda4, -lambda5]]."""

    lambda3: float
    lambda4: float
    lambda5: float

    def __post_init__(self):
        v = []
        if not self.lambda3 > 0:
            v.append("lambda3 > 0")
        if not self.lambda4 >= 0:
            v.append("lambda4 >= 0")
        if v:
            raise ValidationError(v)

    @property
    def A(self) -> np.ndarray:
        return np.array([[-self.lambda3, self.lambda3],
                         [self.lambda4, -self.lambda5]])


def stability_quantity_p(lti: SecondMomentLTI) -> float:
    """Mode-separation quantity sqrt((lambda3 - lambda5)^2 + 4*lambda3*lambda4).

    Always >= |lambda3 - lambda5|, and <= lambda3 + lambda5 when
    lambda5 >= lambda4, which keeps the transition entries bounded. Rates
    whose radicand overflows are a ValidationError: p and exp(At) are not
    representable there.
    """
    d = lti.lambda3 - lti.lambda5
    radicand = d * d + 4.0 * lti.lambda3 * lti.lambda4
    if not math.isfinite(radicand):
        raise ValidationError(["(lambda3 - lambda5)**2 + 4*lambda3*lambda4 finite in floating point"])
    return math.sqrt(radicand)


def state_transition_entries(lti: SecondMomentLTI, t):
    """Entries phi12(t) and phi22(t) of exp(A t) (see state_transition_matrix),
    with t's shape."""
    phi = state_transition_matrix(lti, t)
    return phi[0, 1], phi[1, 1]


def state_transition_matrix(lti: SecondMomentLTI, t) -> np.ndarray:
    """State-transition matrix exp(A t) in closed form, for a scalar or an
    array t: the result has shape (2, 2) + t.shape.

    With a = lambda3 + lambda5 and p = stability_quantity_p(lti),

        exp(A t) = e^{-at/2} (cosh(pt/2) I + sinh(pt/2) (2/p) (A + (a/2) I)),

    so phi12(t) = lambda3 e^{-at/2} (e^{pt/2} - e^{-pt/2}) / p. The
    repeated-mode case p = 0 (only reachable with lambda4 = 0 and lambda3 =
    lambda5) takes the confluent limit t e^{-at/2} of the sinh term.
    Exponents are combined before exponentiation so large t cannot overflow
    when p <= a.
    """
    t = np.asarray(t, dtype=float)
    l3, l4, l5 = lti.lambda3, lti.lambda4, lti.lambda5
    a = l3 + l5
    p = stability_quantity_p(lti)
    e_plus = np.exp(0.5 * (p - a) * t)
    e_minus = np.exp(-0.5 * (p + a) * t)
    even = 0.5 * (e_plus + e_minus)
    odd = t * e_plus if p == 0.0 else (e_plus - e_minus) / p
    half_gap = 0.5 * (l3 - l5)
    return np.array([[even - half_gap * odd, l3 * odd], [l4 * odd, even + half_gap * odd]])


def second_moment_response(
    lti: SecondMomentLTI,
    input_gain: float,
    input_series,
    dt: float,
    nu_init: float = 0.0,
    lower_index: int = 0,
) -> np.ndarray:
    """Second-moment trajectory from its convolution solution on a uniform grid.

    Computes nu(t_k) = phi22(t_k - t_j) * nu_init
                       + input_gain * integral_{t_j}^{t_k} phi22(t_k - s) u(s) ds
    for k >= lower_index = j, with the integral accumulated by the trapezoid
    rule on the grid. Entries before lower_index are NaN (the solution is
    anchored at t_j and zeta is assumed zero there).

    Parameters
    ----------
    input_gain : gain multiplying the input series (the second-moment input
        gain of the optimizer, e.g. b2 for the adam family).
    input_series : input samples on the uniform grid with spacing dt.
    nu_init : second-moment value at the anchor index.
    lower_index : grid index where the solution is anchored.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("dt must be finite and positive")
    u = np.asarray(input_series, dtype=float)
    if u.ndim != 1:
        raise ValueError("input_series must be one-dimensional")
    n = len(u)
    if not 0 <= lower_index < n:
        raise ValueError(f"lower_index {lower_index} outside grid of length {n}")
    m = n - lower_index
    _, phi22 = state_transition_entries(lti, np.arange(m) * dt)
    seg = u[lower_index:]
    conv = np.convolve(phi22, seg)[:m]
    # trapezoid rule: halve the two endpoint contributions of each prefix sum
    trap = conv - 0.5 * (phi22 * seg[0] + phi22[0] * seg)
    out = np.full(n, np.nan)
    out[lower_index:] = phi22 * nu_init + input_gain * dt * trap
    return out


def impulse_response(lti: SecondMomentLTI, input_gain: float, times) -> np.ndarray:
    """nu's response to a unit impulse of the input: input_gain * phi22(t)."""
    return input_gain * state_transition_matrix(lti, times)[1, 1]


def step_response(lti: SecondMomentLTI, input_gain: float, times) -> np.ndarray:
    """nu's response to a unit step of the input: input_gain times the
    integral of phi22 from 0 to t, in closed form.

    Each mode e^{rt} of state_transition_matrix, r = (+-p - a)/2, integrates
    to expm1(rt)/r, or to t at a pole at 0 (lambda4 = lambda5). The
    confluent case p = 0 needs lambda3 = lambda5, where phi22 has no odd part.
    """
    t = np.asarray(times, dtype=float)
    a = lti.lambda3 + lti.lambda5
    p = stability_quantity_p(lti)
    r_plus, r_minus = 0.5 * (p - a), -0.5 * (p + a)  # r_minus < 0 since lambda3 > 0
    i_plus = t if r_plus == 0.0 else np.expm1(r_plus * t) / r_plus
    i_minus = np.expm1(r_minus * t) / r_minus
    odd = 0.0 if p == 0.0 else (i_plus - i_minus) / p
    return input_gain * (0.5 * (i_plus + i_minus) + 0.5 * (lti.lambda3 - lti.lambda5) * odd)


def alpha_decay_condition(lambda2: float, lambda6: float, c: float, t: float) -> bool:
    """Whether the bias-correction factor is strictly decreasing at time t.

    With g1 = 1 - lambda2 and g2 = 1 - lambda6 (both in (0, 1)) and the
    exponent c in (0, 1), the factor decreases at t iff

        (g2/g1)^(t+1) * (1 - g1^(t+1)) / (1 - g2^(t+1)) > (1/c) * log(g1)/log(g2).

    Evaluating this on a time grid locates the settling point after which the
    factor is monotonically non-increasing.
    """
    conditions = {"0 < lambda2 < 1": lambda2, "0 < lambda6 < 1": lambda6, "0 < c < 1": c}
    v = [name for name, value in conditions.items() if not 0.0 < value < 1.0]
    if v:
        raise ValidationError(v)
    g1 = 1.0 - lambda2
    g2 = 1.0 - lambda6
    e = t + 1.0
    lhs = (g2 / g1) ** e * (1.0 - g1 ** e) / (1.0 - g2 ** e)
    rhs = (1.0 / c) * (math.log(g1) / math.log(g2))
    return bool(lhs > rhs)
