"""Unit tests for the discrete steppers, schedules, and the recording run
loop."""

import math
from functools import partial

import numpy as np
import pytest

from ssmopt import (
    InstabilityError,
    LrSchedule,
    PresetKind,
    PresetParams,
    ValidationError,
    bias_alpha,
    bias_denominators,
    initial_stepper_state,
    make_quadratic,
    run_discrete,
    step_preset,
    step_sgd_momentum,
)

ADAMSSM = PresetParams(b3=0.02)


def preset_stepper(kind, preset):
    return partial(step_preset, kind=kind, preset=preset)


def gadagrad_step(state, grad, c, eta, epsilon, delta):
    return step_preset(
        state, grad, eta, PresetKind.GADAGRAD, PresetParams(c=c, epsilon=epsilon, delta=delta)
    )


class TestAdamssmStep:
    def test_single_step_hand_values(self):
        state = initial_stepper_state(np.array([1.0]))
        new = step_preset(state, np.array([1.0]), ADAMSSM.eta, PresetKind.ADAMSSM, ADAMSSM)
        assert new.mu[0] == 0.15 * 0.67
        assert new.zeta[0] == 0.0
        assert new.nu[0] == 0.15 * 0.0067
        assert new.x[0] == 0.9996127016753793
        assert new.t == 1

    def test_zero_gradient_leaves_iterate_fixed(self):
        state = initial_stepper_state(np.array([3.0, -2.0]))
        new = step_preset(state, np.zeros(2), ADAMSSM.eta, PresetKind.ADAMSSM, ADAMSSM)
        assert np.array_equal(new.x, state.x)
        assert np.array_equal(new.mu, np.zeros(2))
        assert np.array_equal(new.nu, np.zeros(2))

    def test_zero_coupling_matches_one_state_step_bitwise(self, rng):
        preset = PresetParams(b3=0.0)
        a = initial_stepper_state(np.ones(3))
        b = initial_stepper_state(np.ones(3))
        for _ in range(50):
            g = rng.standard_normal(3)
            a = step_preset(a, g, preset.eta, PresetKind.ADAMSSM, preset)
            b = step_preset(b, g, preset.eta, PresetKind.ADAM, preset)
            for field in ("x", "mu", "zeta", "nu"):
                assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_small_coupling_stays_close_to_zero_coupling(self):
        near = PresetParams(b3=1e-12)
        exact = PresetParams(b3=0.0)
        a = initial_stepper_state(np.array([1.0]))
        b = initial_stepper_state(np.array([1.0]))
        for _ in range(5):
            a = step_preset(a, np.array([1.0]), near.eta, PresetKind.ADAMSSM, near)
            b = step_preset(b, np.array([1.0]), exact.eta, PresetKind.ADAMSSM, exact)
        assert np.allclose(a.x, b.x, rtol=1e-9)
        assert np.allclose(a.nu, b.nu, rtol=1e-9)

    def test_first_step_size_independent_of_gradient_scale(self):
        preset = PresetParams(b3=0.02, epsilon=0.0)
        base = initial_stepper_state(np.array([0.0]))
        small = step_preset(base, np.array([1.0]), preset.eta, PresetKind.ADAMSSM, preset)
        large = step_preset(base, np.array([1e6]), preset.eta, PresetKind.ADAMSSM, preset)
        flipped = step_preset(base, np.array([-1.0]), preset.eta, PresetKind.ADAMSSM, preset)
        assert np.isclose(small.x[0], large.x[0], rtol=1e-12)
        assert flipped.x[0] == -small.x[0]

    def test_sampling_time_guard(self):
        bad = PresetParams(b3=0.02, delta=100.0)
        state = initial_stepper_state(np.array([1.0]))
        with pytest.raises(InstabilityError, match="1 - delta\\*b2 - delta\\*b3"):
            step_preset(state, np.array([1.0]), bad.eta, PresetKind.ADAMSSM, bad)
        # the one-state member ignores the coupling rate and stays stable here
        step_preset(state, np.array([1.0]), bad.eta, PresetKind.ADAM, bad)


class TestAdabeliefStep:
    def test_first_step_drive_is_squared_deviation(self):
        preset = PresetParams(b3=0.0)
        g = np.array([2.0, -3.0])
        state = initial_stepper_state(np.zeros(2))
        new = step_preset(state, g, preset.eta, PresetKind.ADABELIEF, preset)
        mu_expected = (0.15 * 0.67) * g
        drive = (g - mu_expected) ** 2
        assert np.array_equal(new.mu, mu_expected)
        assert np.array_equal(new.nu, (0.15 * 0.0067) * drive)

    def test_constant_gradient_drives_second_moment_to_zero(self):
        preset = PresetParams(b3=0.0)
        state = initial_stepper_state(np.array([0.0]))
        g = np.array([1.0])
        for _ in range(10_000):
            state = step_preset(state, g, preset.eta, PresetKind.ADABELIEF, preset)
        assert state.nu[0] < 1e-6
        assert abs(state.mu[0] - 1.0) < 1e-9

    def test_zero_gradient_no_motion(self):
        preset = PresetParams(b3=0.02)
        state = initial_stepper_state(np.array([5.0]))
        new = step_preset(state, np.zeros(1), preset.eta, PresetKind.ADABELIEFSSM, preset)
        assert new.x[0] == 5.0

    def test_one_state_kind_ignores_the_coupling_rate_bitwise(self, rng):
        coupled = PresetParams(b3=0.02)
        start = initial_stepper_state(rng.uniform(-2, 2, 3), rng.uniform(0.1, 2.0, 3))
        a = b = two_state = start
        for _ in range(50):
            g = rng.standard_normal(3)
            a = step_preset(a, g, 1e-3, PresetKind.ADABELIEF, coupled)
            b = step_preset(b, g, 1e-3, PresetKind.ADABELIEF, PresetParams(b3=0.0))
            two_state = step_preset(two_state, g, 1e-3, PresetKind.ADABELIEFSSM, coupled)
            for field in ("x", "mu", "zeta", "nu"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
        assert not np.array_equal(a.nu, two_state.nu)


class TestGadagradStep:
    def test_two_step_hand_values(self):
        state = initial_stepper_state(np.array([2.0]))
        g = np.array([1.0])
        state = gadagrad_step(state, g, c=0.5, eta=1.0, epsilon=0.0, delta=1.0)
        assert state.nu[0] == 1.0
        assert state.x[0] == 1.0
        state = gadagrad_step(state, g, c=0.5, eta=1.0, epsilon=0.0, delta=1.0)
        assert state.nu[0] == 2.0
        assert state.x[0] == 0.29289321881345254

    def test_accumulator_never_decreases(self, rng):
        state = initial_stepper_state(np.zeros(4))
        prev = state.nu.copy()
        for _ in range(100):
            g = rng.standard_normal(4) * 3.0
            state = gadagrad_step(state, g, c=0.3, eta=0.1, epsilon=1e-8, delta=0.5)
            assert np.all(state.nu >= prev)
            prev = state.nu.copy()

    def test_zero_gradient_zero_accumulator_takes_zero_step(self):
        state = initial_stepper_state(np.array([1.0]))
        new = gadagrad_step(state, np.zeros(1), c=0.5, eta=1.0, epsilon=0.0, delta=1.0)
        assert new.x[0] == 1.0

    def test_exponent_validated(self):
        state = initial_stepper_state(np.array([1.0]))
        for bad_c in (0.0, 1.0, -0.5):
            with pytest.raises(ValidationError) as err:
                gadagrad_step(state, np.array([1.0]), c=bad_c, eta=1.0, epsilon=0.0, delta=1.0)
            assert err.value.violations == ["0 < c < 1"]


class TestSgdMomentumStep:
    def test_zero_momentum_is_gradient_descent(self):
        state = initial_stepper_state(np.array([1.0, 2.0]))
        g = np.array([0.5, -0.5])
        new = step_sgd_momentum(state, g, beta=0.0, eta=0.1)
        assert np.array_equal(new.x, state.x - 0.1 * g)

    def test_momentum_accumulates(self):
        state = initial_stepper_state(np.array([0.0]))
        state = step_sgd_momentum(state, np.array([1.0]), beta=0.5, eta=1.0)
        state = step_sgd_momentum(state, np.array([2.0]), beta=0.5, eta=1.0)
        assert state.mu[0] == 0.5 * 1.0 + 2.0

    def test_momentum_factor_validated(self):
        state = initial_stepper_state(np.array([1.0]))
        for bad in (1.0, -0.1):
            with pytest.raises(ValidationError) as err:
                step_sgd_momentum(state, np.array([1.0]), beta=bad, eta=0.1)
            assert err.value.violations == ["0 <= beta < 1"]


class TestBiasCorrection:
    def test_printed_convention(self):
        b1, b2 = bias_denominators(ADAMSSM, 3, "paper")
        assert b1 == 1.0 - (1.0 - 0.67) ** 4
        assert b2 == 1.0 - (1.0 - 0.0067) ** 4

    def test_retention_convention(self):
        b1, b2 = bias_denominators(ADAMSSM, 3, "beta")
        assert b1 == 1.0 - (1.0 - 0.15 * 0.67) ** 4
        assert b2 == 1.0 - (1.0 - 0.15 * 0.0067) ** 4

    def test_continuous_convention_samples_physical_time(self):
        b1, b2 = bias_denominators(ADAMSSM, 3, "continuous")
        assert b1 == 1.0 - (1.0 - 0.67) ** (3 * 0.15 + 1.0)
        assert b2 == 1.0 - (1.0 - 0.0067) ** (3 * 0.15 + 1.0)

    def test_conventions_agree_at_iteration_zero_when_delta_is_one(self):
        preset = PresetParams(delta=1.0)
        assert bias_denominators(preset, 0, "paper") == bias_denominators(preset, 0, "beta")
        assert bias_denominators(preset, 0, "paper") == bias_denominators(preset, 0, "continuous")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="bias_mode"):
            bias_denominators(ADAMSSM, 0, "classic")

    def test_alpha_combines_denominators(self):
        b1, b2 = bias_denominators(ADAMSSM, 7, "paper")
        assert bias_alpha(ADAMSSM, 7, "paper") == b1 / b2 ** 0.5


class TestLrSchedule:
    def test_multipliers_apply_cumulatively(self):
        sched = LrSchedule(base_eta=1.0, milestones=((10, 0.1), (20, 0.5)))
        assert sched.eta_at(0) == 1.0
        assert sched.eta_at(9) == 1.0
        assert sched.eta_at(10) == 0.1
        assert sched.eta_at(19) == 0.1
        assert sched.eta_at(20) == 0.1 * 0.5

    def test_milestone_order_validated(self):
        with pytest.raises(ValidationError) as err:
            LrSchedule(base_eta=1.0, milestones=((20, 0.1), (10, 0.5)))
        assert err.value.violations == ["milestone iterations strictly increasing"]

    def test_multiplier_sign_validated(self):
        with pytest.raises(ValidationError) as err:
            LrSchedule(base_eta=1.0, milestones=((10, 0.0),))
        assert err.value.violations == ["milestone multipliers positive"]

    def test_schedule_reaches_stepper(self):
        sched = LrSchedule(base_eta=1.0, milestones=((1, 0.0001),))
        state = initial_stepper_state(np.array([0.0]))
        state = step_preset(state, np.array([1.0]), sched.eta_at(0), PresetKind.ADAMSSM, ADAMSSM)
        first_move = abs(state.x[0])
        x_before = state.x[0]
        state = step_preset(state, np.array([1.0]), sched.eta_at(1), PresetKind.ADAMSSM, ADAMSSM)
        assert abs(state.x[0] - x_before) < 0.01 * first_move


class TestRunDiscrete:
    SCHEDULE = LrSchedule(base_eta=ADAMSSM.eta)

    def quadratic_stepper(self):
        return preset_stepper(PresetKind.ADAMSSM, ADAMSSM)

    def test_zero_iterations_records_start_only(self):
        obj = make_quadratic(2, 10.0)
        traj, report = run_discrete(self.quadratic_stepper(), obj, np.ones(2), 0, self.SCHEDULE)
        assert len(traj) == 1
        assert report.best_f == obj.eval_f(np.ones(2))
        assert report.epoch_of_best == 0
        assert report.final_grad_norm == float(np.linalg.norm(obj.eval_grad(np.ones(2))))

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            run_discrete(self.quadratic_stepper(), make_quadratic(1, 1.0), np.ones(1), -1, self.SCHEDULE)

    def test_long_run_reaches_threshold(self):
        # constant learning rate, default rates: the gradient norm passes the
        # cut well before the budget and keeps shrinking afterwards
        obj = make_quadratic(2, 100.0)
        traj, report = run_discrete(
            self.quadratic_stepper(), obj, np.ones(2), 5000, self.SCHEDULE, record_stride=100
        )
        assert report.final_grad_norm < 1e-4
        assert report.iters_to_threshold is not None
        assert 2000 < report.iters_to_threshold < 2700
        assert report.diagnostics == {"nu_nonnegative": True, "stayed_in_box": True}
        assert report.best_f <= obj.eval_f(np.ones(2))

    def test_record_stride_keeps_endpoints(self):
        obj = make_quadratic(1, 1.0)
        traj, _ = run_discrete(
            self.quadratic_stepper(), obj, np.ones(1), 10, self.SCHEDULE, record_stride=3
        )
        assert list(traj.times) == [0.0, 3.0, 6.0, 9.0, 10.0]

    def test_alpha_fn_recorded(self):
        obj = make_quadratic(1, 1.0)
        traj, _ = run_discrete(
            self.quadratic_stepper(), obj, np.ones(1), 4, self.SCHEDULE, alpha_fn=lambda k: float(k + 1)
        )
        assert list(traj.alpha_values) == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_box_excursion_flagged(self):
        # eta far above the stability limit makes plain gradient descent
        # oscillate outward; the run must finish and flag the excursion
        obj = make_quadratic(2, 10.0)

        diverging = partial(step_sgd_momentum, beta=0.0)
        _, report = run_discrete(diverging, obj, np.ones(2), 30, LrSchedule(base_eta=0.3))
        assert report.diagnostics["stayed_in_box"] is False
        assert report.best_f <= obj.eval_f(np.ones(2))

    def test_non_finite_value_ends_the_run_as_a_failure(self):
        obj = make_quadratic(2, 100.0)

        diverging = partial(step_sgd_momentum, beta=0.9)
        with np.errstate(over="ignore", invalid="ignore"):
            traj, report = run_discrete(
                diverging, obj, np.ones(2), 200, LrSchedule(base_eta=0.5), record_stride=10, name="sgd"
            )
        k = report.diagnostics["diverged_at"]
        assert report.diagnostics == {
            "error": f"diverged at iteration {k}: f or the gradient norm is not finite",
            "diverged_at": k,
        }
        assert report.optimizer == "sgd"
        assert math.isnan(report.best_f) and math.isnan(report.final_grad_norm)
        # recorded up to and including the first non-finite iteration
        assert k % 10 and traj.times[-1] == k and traj.times[-2] == k - k % 10
        assert not np.isfinite(traj.grad_norms[-1])

    def test_initial_second_moment_shape_checked(self):
        with pytest.raises(ValueError):
            run_discrete(
                self.quadratic_stepper(), make_quadratic(2, 1.0), np.ones(2), 1, self.SCHEDULE, nu0=np.ones(3)
            )

    def test_threshold_at_start_counts_iteration_zero(self):
        obj = make_quadratic(1, 1.0)
        _, report = run_discrete(
            self.quadratic_stepper(), obj, np.zeros(1), 3, self.SCHEDULE, threshold=1e-4
        )
        assert report.iters_to_threshold == 0


class TestNonnegativity:
    def test_family_keeps_second_moment_nonnegative(self, rng):
        steppers = [
            preset_stepper(PresetKind.ADAMSSM, ADAMSSM),
            preset_stepper(PresetKind.ADAM, PresetParams()),
            preset_stepper(PresetKind.ADABELIEFSSM, ADAMSSM),
        ]
        for stepper in steppers:
            for _ in range(10):
                state = initial_stepper_state(rng.uniform(-2, 2, 3))
                for _ in range(200):
                    g = rng.uniform(-10.0, 10.0, 3)
                    state = stepper(state, g, 1e-3)
                    assert np.all(state.nu >= 0.0)

    def test_accumulator_stepper_nonnegative(self, rng):
        state = initial_stepper_state(np.zeros(3))
        for _ in range(500):
            g = rng.standard_normal(3) * 5.0
            state = gadagrad_step(state, g, c=0.5, eta=0.01, epsilon=1e-8, delta=1.0)
            assert np.all(state.nu >= 0.0)
