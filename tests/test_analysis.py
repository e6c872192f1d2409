"""Unit tests for the linear-systems analysis of the second-moment dynamic."""

import math

import numpy as np
import pytest
import scipy.linalg

from ssmopt import (
    RationalTF,
    SecondMomentLTI,
    ValidationError,
    adamssm_tf,
    dc_gain,
    impulse_response,
    integrate_reference,
    make_quadratic,
    poles_zeros,
    preset_flow,
    second_moment_response,
    stability_quantity_p,
    state_transition_entries,
    state_transition_matrix,
    step_response,
    PresetKind,
    PresetParams,
)
from ssmopt.analysis import alpha_decay_condition
from ssmopt.core import alpha_g, map_preset_to_general
from samplers import random_valid_adamssm_preset
from oracles import rk4_lti_response, taylor_expm

B2, B3 = 0.0067, 0.02
# roots of s^2 + 0.0334 s + 4.489e-5 by the quadratic formula, frozen
POLE_SLOW = -0.001402941459222
POLE_FAST = -0.031997058540778
P_VALUE = 0.030594117082


def random_lti(rng) -> SecondMomentLTI:
    l3 = rng.uniform(0.05, 0.8)
    l4 = rng.uniform(0.0, 0.6)
    l5 = rng.uniform(l4, 0.8 + l4)
    return SecondMomentLTI(lambda3=l3, lambda4=l4, lambda5=l5)


class TestRationalTF:
    def test_denominator_normalized_monic(self):
        tf = RationalTF(num=[2.0, 4.0], den=[2.0, 8.0])
        assert np.array_equal(tf.den, np.array([1.0, 4.0]))
        assert np.array_equal(tf.num, np.array([1.0, 2.0]))

    def test_improper_rejected(self):
        with pytest.raises(ValueError):
            RationalTF(num=[1.0, 0.0, 0.0], den=[1.0, 2.0])

    def test_zero_leading_denominator_rejected(self):
        with pytest.raises(ValueError):
            RationalTF(num=[1.0], den=[0.0, 1.0])


class TestAdamssmTF:
    def test_coefficients(self):
        tf = adamssm_tf(B2, B3)
        assert np.allclose(tf.num, [B2, B2 * B2], rtol=1e-15)
        assert np.allclose(tf.den, [1.0, 2.0 * B2 + B3, B2 * B2], rtol=1e-15)

    def test_rates_validated(self):
        with pytest.raises(ValidationError) as err:
            adamssm_tf(0.0, 0.1)
        assert err.value.violations == ["0 < b2"]
        with pytest.raises(ValidationError) as err:
            adamssm_tf(0.1, -0.1)
        assert err.value.violations == ["b3 >= 0"]

    def test_unit_dc_gain_exact(self, rng):
        for _ in range(100):
            p = random_valid_adamssm_preset(rng)
            assert dc_gain(adamssm_tf(p.b2, p.b3)) == 1.0

    def test_zero_coupling_collapses_to_low_pass(self):
        poles, zeros = poles_zeros(adamssm_tf(B2, 0.0))
        assert len(poles) == 2 and len(zeros) == 1
        assert abs(poles[0] - (-B2)) < 1e-12
        assert abs(poles[1] - (-B2)) < 1e-12
        assert abs(zeros[0] - (-B2)) < 1e-12


class TestPolesZeros:
    def test_frozen_pole_locations(self):
        poles, zeros = poles_zeros(adamssm_tf(B2, B3))
        assert abs(poles[0] - POLE_FAST) < 1e-12
        assert abs(poles[1] - POLE_SLOW) < 1e-12
        assert abs(zeros[0] - (-B2)) < 1e-15

    def test_pole_sum_and_product_identities(self):
        poles, _ = poles_zeros(adamssm_tf(B2, B3))
        assert math.isclose(poles[0].real + poles[1].real, -(2.0 * B2 + B3), rel_tol=1e-12)
        assert math.isclose((poles[0] * poles[1]).real, B2 * B2, rel_tol=1e-12)

    def test_random_presets_are_hurwitz(self, rng):
        for _ in range(1000):
            p = random_valid_adamssm_preset(rng)
            poles, _ = poles_zeros(adamssm_tf(p.b2, p.b3))
            assert all(z.real < 0 for z in poles)

    def test_linear_denominator(self):
        poles, zeros = poles_zeros(RationalTF(num=[2.0], den=[1.0, 3.0]))
        assert poles == [complex(-3.0)]
        assert zeros == []

    def test_complex_pair_sorted_by_imaginary_part(self):
        poles, _ = poles_zeros(RationalTF(num=[1.0], den=[1.0, 0.0, 1.0]))
        assert poles == [complex(0.0, -1.0), complex(0.0, 1.0)]

    def test_double_root_at_origin(self):
        poles, _ = poles_zeros(RationalTF(num=[1.0], den=[1.0, 0.0, 0.0]))
        assert poles == [complex(0.0), complex(0.0)]
        with pytest.raises(ZeroDivisionError):
            dc_gain(RationalTF(num=[1.0], den=[1.0, 0.0, 0.0]))

    def test_degree_three_unsupported(self):
        tf = RationalTF(num=[1.0], den=[1.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValidationError) as err:
            poles_zeros(tf)
        assert err.value.violations == ["degree <= 2"]


class TestSecondMomentLTI:
    def test_state_matrix_layout(self):
        lti = SecondMomentLTI(lambda3=B2, lambda4=B3, lambda5=B2 + B3)
        assert np.array_equal(lti.A, np.array([[-B2, B2], [B3, -(B2 + B3)]]))

    def test_rates_validated(self):
        with pytest.raises(ValidationError) as err:
            SecondMomentLTI(lambda3=0.0, lambda4=-1.0, lambda5=0.1)
        assert err.value.violations == ["lambda3 > 0", "lambda4 >= 0"]

    @pytest.mark.parametrize("lambda5", [math.nan, 0.001])
    def test_second_moment_decays_at_least_as_fast_as_it_couples(self, lambda5):
        # lambda5 < lambda4 puts a pole in the right half-plane; NaN fails the bound too
        with pytest.raises(ValidationError) as err:
            SecondMomentLTI(lambda3=0.0067, lambda4=0.02, lambda5=lambda5)
        assert err.value.violations == ["lambda5 >= lambda4"]


class TestOneSystem:
    def test_transfer_function_matches_lti_closed_forms(self, rng):
        # adamssm_tf(b2, b3) in its coefficient form and the LTI at
        # map_preset_to_general's rates are one system, to a few ulps
        eps = 2.0 ** -52
        for _ in range(10_000):
            preset = random_valid_adamssm_preset(rng)
            params = map_preset_to_general(preset, PresetKind.ADAMSSM)
            l3, l4, l5, l6 = params.lambda3, params.lambda4, params.lambda5, params.lambda6
            lti = SecondMomentLTI(lambda3=l3, lambda4=l4, lambda5=l5)
            tf = adamssm_tf(preset.b2, preset.b3)
            poles, zeros = poles_zeros(tf)
            a, p = l3 + l5, stability_quantity_p(lti)
            assert abs(poles[0] - 0.5 * (-a - p)) <= 32 * eps * a
            assert abs(poles[1] - 0.5 * (-a + p)) <= 32 * eps * a
            assert abs(zeros[0] - (-l3)) <= 2 * eps * l3
            assert abs(dc_gain(tf) - l6 / (l5 - l4)) <= 4 * eps * l5 / (l5 - l4)


class TestStabilityQuantity:
    def test_frozen_value(self):
        lti = SecondMomentLTI(lambda3=B2, lambda4=B3, lambda5=B2 + B3)
        assert abs(stability_quantity_p(lti) - P_VALUE) < 1e-11

    def test_reduces_to_rate_gap_without_coupling(self, rng):
        for _ in range(50):
            l3 = rng.uniform(0.01, 2.0)
            l5 = rng.uniform(0.0, 2.0)
            p = stability_quantity_p(SecondMomentLTI(lambda3=l3, lambda4=0.0, lambda5=l5))
            assert math.isclose(p, abs(l3 - l5), rel_tol=1e-14, abs_tol=1e-300)

    def test_bounds(self, rng):
        for _ in range(200):
            lti = random_lti(rng)
            p = stability_quantity_p(lti)
            assert p >= abs(lti.lambda3 - lti.lambda5) - 1e-12
            assert p <= lti.lambda3 + lti.lambda5 + 1e-12

    def test_overflowing_rates_rejected_naming_the_condition(self):
        # (lambda3 - lambda5)^2 overflows: p would be inf and exp(At) all NaN
        lti = SecondMomentLTI(lambda3=1e-3, lambda4=1e200, lambda5=1e200 + 1e-3)
        condition = "(lambda3 - lambda5)**2 + 4*lambda3*lambda4 finite in floating point"
        with pytest.raises(ValidationError) as err:
            stability_quantity_p(lti)
        assert err.value.violations == [condition]
        with pytest.raises(ValidationError) as err:
            state_transition_matrix(lti, 1.0)
        assert err.value.violations == [condition]


class TestStateTransition:
    def test_identity_at_time_zero(self):
        lti = SecondMomentLTI(lambda3=B2, lambda4=B3, lambda5=B2 + B3)
        phi12, phi22 = state_transition_entries(lti, 0.0)
        assert phi12 == 0.0
        assert phi22 == 1.0
        assert np.allclose(state_transition_matrix(lti, 0.0), np.eye(2), atol=1e-15)

    def test_entries_match_matrix_exponential_at_default_rates(self):
        lti = SecondMomentLTI(lambda3=0.0067, lambda4=0.02, lambda5=0.0267)
        t = 10.0
        expm = taylor_expm(lti.A * t)
        phi12, phi22 = state_transition_entries(lti, t)
        assert abs(phi12 - expm[0, 1]) < 1e-12 * abs(expm[0, 1])
        assert abs(phi22 - expm[1, 1]) < 1e-12 * abs(expm[1, 1])

    def test_full_matrix_matches_oracle_at_random_points(self, rng):
        for _ in range(100):
            lti = random_lti(rng)
            t = rng.uniform(0.2, 5.0)
            expm = taylor_expm(lti.A * t)
            phi = state_transition_matrix(lti, t)
            scale = float(np.max(np.abs(expm)))
            assert np.max(np.abs(phi - expm)) < 1e-10 * scale

    def test_repeated_mode_limit(self):
        lti = SecondMomentLTI(lambda3=0.3, lambda4=0.0, lambda5=0.3)
        assert stability_quantity_p(lti) == 0.0
        for t in (0.0, 0.5, 2.0, 10.0):
            expm = taylor_expm(lti.A * t)
            phi12, phi22 = state_transition_entries(lti, t)
            assert abs(phi12 - expm[0, 1]) < 1e-12 * max(1e-30, abs(expm[0, 1]))
            assert abs(phi22 - expm[1, 1]) < 1e-12 * abs(expm[1, 1])
            assert np.allclose(state_transition_matrix(lti, t), expm, rtol=1e-12, atol=1e-15)

    def test_semigroup_property(self, rng):
        for _ in range(100):
            lti = random_lti(rng)
            t = rng.uniform(0.0, 4.0)
            s = rng.uniform(0.0, 4.0)
            left = state_transition_matrix(lti, t + s)
            right = state_transition_matrix(lti, t) @ state_transition_matrix(lti, s)
            assert np.max(np.abs(left - right)) < 1e-9 * max(1.0, float(np.max(np.abs(left))))

    def test_output_entry_stays_positive(self, rng):
        grid = np.linspace(0.0, 40.0, 81)
        for _ in range(50):
            lti = random_lti(rng)
            _, phi22 = state_transition_entries(lti, grid)
            assert np.all(phi22 > 0.0)

    def test_array_shape_preserved(self):
        lti = SecondMomentLTI(lambda3=B2, lambda4=B3, lambda5=B2 + B3)
        t = np.array([[0.0, 1.0], [2.0, 3.0]])
        phi12, phi22 = state_transition_entries(lti, t)
        assert phi12.shape == t.shape and phi22.shape == t.shape

    def test_no_overflow_at_large_times(self):
        lti = SecondMomentLTI(lambda3=0.0067, lambda4=0.02, lambda5=0.0267)
        phi12, phi22 = state_transition_entries(lti, 1e6)
        assert np.isfinite(phi12) and np.isfinite(phi22)
        assert phi22 >= 0.0

    def test_taylor_oracle_agrees_with_scipy(self, rng):
        for _ in range(50):
            a = rng.standard_normal((2, 2)) * rng.uniform(0.1, 10.0)
            ours = taylor_expm(a)
            ref = scipy.linalg.expm(a)
            assert np.max(np.abs(ours - ref)) < 1e-11 * max(1.0, float(np.max(np.abs(ref))))


class TestSecondMomentResponse:
    def lti(self) -> SecondMomentLTI:
        return SecondMomentLTI(lambda3=B2, lambda4=B3, lambda5=B2 + B3)

    def test_zero_input_is_homogeneous_decay(self):
        lti = self.lti()
        dt = 0.5
        out = second_moment_response(lti, B2, np.zeros(50), dt, nu_init=2.0)
        _, phi22 = state_transition_entries(lti, np.arange(50) * dt)
        assert np.array_equal(out, phi22 * 2.0)

    def test_constant_input_settles_at_unit_gain(self):
        out = second_moment_response(self.lti(), B2, np.ones(10001), dt=0.5)
        assert abs(out[-1] - 1.0) < 2e-3

    def test_anchor_is_nan_before_and_exact_at_lower_index(self):
        out = second_moment_response(
            self.lti(), B2, np.ones(20), dt=0.1, nu_init=3.5, lower_index=4
        )
        assert np.all(np.isnan(out[:4]))
        assert out[4] == 3.5
        assert np.all(np.isfinite(out[4:]))

    def test_matches_recorded_flow_second_moment(self):
        # integrate the two-state preset flow and reconstruct nu from the
        # recorded squared-gradient input via the convolution solution
        preset = PresetParams(b3=B3)
        obj = make_quadratic(1, 1.0)
        problem = preset_flow(PresetKind.ADAMSSM, preset, obj, [1.0], [1.0])
        dt = 0.01
        traj = integrate_reference(problem, dt=dt, t_end=20.0)
        u = traj.states[:, 0, 0] ** 2
        predicted = second_moment_response(self.lti(), B2, u, dt, nu_init=1.0)
        recorded = traj.states[:, 3, 0]
        assert float(np.max(np.abs(predicted - recorded))) < 1e-6

    def test_reconstruction_error_is_second_order_in_dt(self):
        preset = PresetParams(b3=B3)
        obj = make_quadratic(1, 1.0)
        errors = []
        for dt in (0.02, 0.01):
            problem = preset_flow(PresetKind.ADAMSSM, preset, obj, [1.0], [1.0])
            traj = integrate_reference(problem, dt=dt, t_end=20.0)
            u = traj.states[:, 0, 0] ** 2
            predicted = second_moment_response(self.lti(), B2, u, dt, nu_init=1.0)
            recorded = traj.states[:, 3, 0]
            errors.append(float(np.max(np.abs(predicted - recorded))))
        assert 2.5 < errors[0] / errors[1] < 6.0

    def test_argument_validation(self):
        lti = self.lti()
        for dt in (0.0, -0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError) as err:
                second_moment_response(lti, B2, np.ones(5), dt=dt)
            assert err.value.violations == ["dt finite and positive"]
        with pytest.raises(ValueError):
            second_moment_response(lti, B2, np.ones((5, 2)), dt=0.1)
        for lower_index in (5, -1):
            with pytest.raises(ValidationError) as err:
                second_moment_response(lti, B2, np.ones(5), dt=0.1, lower_index=lower_index)
            assert err.value.violations == ["0 <= lower_index < len(input_series)"]


class TestTimeResponses:
    def lti(self, b3=B3) -> SecondMomentLTI:
        return SecondMomentLTI(lambda3=B2, lambda4=b3, lambda5=B2 + b3)

    def rk4_output(self, lti, u, state0, dt, n_steps):
        b = np.array([0.0, B2])
        return rk4_lti_response(lti.A, b, u, state0, dt, n_steps)[:, 1]

    def test_impulse_matches_lti_simulation(self):
        lti = self.lti()
        dt, n = 0.05, 6000
        times = np.arange(n + 1) * dt
        # an input impulse deposits the input gain on nu at t = 0
        sim = self.rk4_output(lti, lambda t: 0.0, np.array([0.0, B2]), dt, n)
        assert float(np.max(np.abs(impulse_response(lti, B2, times) - sim))) < 1e-10

    def test_step_matches_lti_simulation(self):
        lti = self.lti()
        dt, n = 0.05, 6000
        times = np.arange(n + 1) * dt
        sim = self.rk4_output(lti, lambda t: 1.0, np.zeros(2), dt, n)
        assert float(np.max(np.abs(step_response(lti, B2, times) - sim))) < 1e-10

    def test_step_settles_at_dc_gain(self):
        val = step_response(self.lti(), B2, np.array([6000.0]))[0]
        assert abs(val - dc_gain(adamssm_tf(B2, B3))) < 1e-3

    def test_cancelled_pair_reduces_to_one_state_impulse(self):
        # lambda4 = 0 and lambda3 = lambda5: the repeated mode p = 0
        lti = self.lti(b3=0.0)
        assert stability_quantity_p(lti) == 0.0
        t = np.linspace(0.0, 500.0, 101)
        h = impulse_response(lti, B2, t)
        assert np.allclose(h, B2 * np.exp(-B2 * t), rtol=1e-12, atol=1e-300)
        assert np.allclose(step_response(lti, B2, t), 1.0 - np.exp(-B2 * t), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("l3, l5", [(0.3, 0.2), (0.05, 0.7), (0.5, 0.5)])
    def test_pole_at_origin_ramps(self, l3, l5):
        # lambda4 = lambda5 puts a pole at 0: phi22 = (lambda3 + lambda5 e^{-at}) / a
        lti = SecondMomentLTI(lambda3=l3, lambda4=l5, lambda5=l5)
        a = l3 + l5
        t = np.linspace(0.0, 200.0, 401)
        expected_h = 1.7 * (l3 + l5 * np.exp(-a * t)) / a
        expected_y = 1.7 * (l3 * t + l5 * (1.0 - np.exp(-a * t)) / a) / a
        assert np.allclose(impulse_response(lti, 1.7, t), expected_h, rtol=1e-12, atol=0.0)
        assert np.allclose(step_response(lti, 1.7, t), expected_y, rtol=1e-12, atol=0.0)


class TestAlphaDecayCondition:
    def alpha_value(self, l2, l6, c, t):
        return (1.0 - (1.0 - l2) ** (t + 1.0)) / ((1.0 - (1.0 - l6) ** (t + 1.0)) ** c)

    def test_agrees_with_numeric_derivative(self):
        cases = [
            (0.67, 0.0067, 0.5),   # default rates: factor decays toward 1
            (0.0067, 0.67, 0.5),   # reversed rates: factor climbs toward 1
        ]
        for l2, l6, c in cases:
            for t in (0.5, 2.0, 10.0, 50.0):
                h = 1e-6 * (1.0 + t)
                slope = self.alpha_value(l2, l6, c, t + h) - self.alpha_value(l2, l6, c, t - h)
                assert alpha_decay_condition(l2, l6, c, t) == (slope < 0.0)

    def test_matches_library_bias_factor(self):
        params = map_preset_to_general(PresetParams(), PresetKind.ADAM)
        for t in (0.5, 2.0, 10.0):
            assert math.isclose(
                self.alpha_value(0.67, 0.0067, 0.5, t), alpha_g(t, params), rel_tol=1e-12
            )

    def test_rates_validated(self):
        cases = [
            ((1.2, 0.0067, 0.5), ["0 < lambda2 < 1"]),
            ((0.67, 0.0, 0.5), ["0 < lambda6 < 1"]),
            ((0.67, 0.0067, 0.0), ["0 < c < 1"]),
            ((0.67, 0.0067, -0.5), ["0 < c < 1"]),
            ((0.67, 0.0067, 1.0), ["0 < c < 1"]),
            ((0.0, 1.0, math.nan), ["0 < lambda2 < 1", "0 < lambda6 < 1", "0 < c < 1"]),
        ]
        for (l2, l6, c), violations in cases:
            with pytest.raises(ValidationError) as err:
                alpha_decay_condition(l2, l6, c, 1.0)
            assert err.value.violations == violations

    def test_time_validated(self):
        for t in (-1.0, -0.5, math.nan):
            with pytest.raises(ValidationError) as err:
                alpha_decay_condition(0.67, 0.0067, 0.5, t)
            assert err.value.violations == ["t >= 0"], t
        with pytest.raises(ValidationError) as err:
            alpha_decay_condition(1.2, 0.0067, 0.5, -1.0)
        assert err.value.violations == ["0 < lambda2 < 1", "t >= 0"]
        # t = 0 is accepted: the default factor still rises there
        assert alpha_decay_condition(0.67, 0.0067, 0.5, 0.0) is False
