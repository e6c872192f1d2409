"""Unit tests for the discrete steppers, schedules, and the recording run
loop."""

import dataclasses
import itertools
import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ssmopt import (
    LrSchedule,
    OptimizerSpec,
    PresetKind,
    PresetParams,
    ValidationError,
    bias_alpha,
    bias_denominators,
    initial_stepper_state,
    make_logistic,
    make_quadratic,
    make_rosenbrock,
    run_discrete,
    step_preset,
    step_sgd_momentum,
)
from ssmopt.discrete import BIAS_MODES, KIND_KEYS, _DiscreteBatch, _first_step_error, run_discrete_batch
from ssmopt.objectives import BOX
from oracles import discrete_entry_run, logistic_problem
from samplers import random_valid_adamssm_preset

ADAMSSM = PresetParams(b3=0.02)


def preset_stepper(kind, preset):
    return partial(step_preset, kind=kind, preset=preset)


def gadagrad_step(state, grad, k, c, eta, epsilon, delta):
    return step_preset(
        state, grad, eta, k, PresetKind.GADAGRAD, PresetParams(c=c, epsilon=epsilon, delta=delta)
    )


class TestAdamssmStep:
    def test_single_step_hand_values(self):
        state = initial_stepper_state(np.array([1.0]))
        new = step_preset(state, np.array([1.0]), ADAMSSM.eta, 0, PresetKind.ADAMSSM, ADAMSSM)
        assert new[1, 0] == 0.15 * 0.67
        assert new[2, 0] == 0.0
        assert new[3, 0] == 0.15 * 0.0067
        assert new[0, 0] == 0.9996127016753793
        assert new.shape == (4, 1)

    def test_zero_gradient_leaves_iterate_fixed(self):
        state = initial_stepper_state(np.array([3.0, -2.0]))
        new = step_preset(state, np.zeros(2), ADAMSSM.eta, 0, PresetKind.ADAMSSM, ADAMSSM)
        assert np.array_equal(new[0], state[0])
        assert np.array_equal(new[1], np.zeros(2))
        assert np.array_equal(new[3], np.zeros(2))

    def test_zero_coupling_matches_one_state_step_bitwise(self, rng):
        preset = PresetParams(b3=0.0)
        a = initial_stepper_state(np.ones(3))
        b = initial_stepper_state(np.ones(3))
        for k in range(50):
            g = rng.standard_normal(3)
            a = step_preset(a, g, preset.eta, k, PresetKind.ADAMSSM, preset)
            b = step_preset(b, g, preset.eta, k, PresetKind.ADAM, preset)
            for row in range(4):
                assert np.array_equal(a[row], b[row])

    def test_small_coupling_stays_close_to_zero_coupling(self):
        near = PresetParams(b3=1e-12)
        exact = PresetParams(b3=0.0)
        a = initial_stepper_state(np.array([1.0]))
        b = initial_stepper_state(np.array([1.0]))
        for k in range(5):
            a = step_preset(a, np.array([1.0]), near.eta, k, PresetKind.ADAMSSM, near)
            b = step_preset(b, np.array([1.0]), exact.eta, k, PresetKind.ADAMSSM, exact)
        assert np.allclose(a[0], b[0], rtol=1e-9)
        assert np.allclose(a[3], b[3], rtol=1e-9)

    def test_first_step_size_independent_of_gradient_scale(self):
        preset = PresetParams(b3=0.02, epsilon=0.0)
        base = initial_stepper_state(np.array([0.0]))
        small = step_preset(base, np.array([1.0]), preset.eta, 0, PresetKind.ADAMSSM, preset)
        large = step_preset(base, np.array([1e6]), preset.eta, 0, PresetKind.ADAMSSM, preset)
        flipped = step_preset(base, np.array([-1.0]), preset.eta, 0, PresetKind.ADAMSSM, preset)
        assert np.isclose(small[0, 0], large[0, 0], rtol=1e-12)
        assert flipped[0, 0] == -small[0, 0]

    def test_sampling_time_guard(self):
        bad = PresetParams(b1=0.9, b2=0.3, b3=0.8, delta=1.0)
        state = initial_stepper_state(np.array([1.0]))
        with pytest.raises(ValidationError) as err:
            step_preset(state, np.array([1.0]), bad.eta, 0, PresetKind.ADAMSSM, bad)
        assert err.value.violations == ["1 - delta*b2 - delta*b3 >= 0 required (delta=1, b2=0.3, b3=0.8)"]
        # the one-state member ignores the coupling rate and stays stable here
        step_preset(state, np.array([1.0]), bad.eta, 0, PresetKind.ADAM, bad)
        # past delta = 1/b1 the first-moment retention is negative for every moment kind
        with pytest.raises(ValidationError) as err:
            step_preset(state, np.array([1.0]), bad.eta, 0, PresetKind.ADAM, PresetParams(delta=100.0))
        assert err.value.violations == ["1 - delta*b1 >= 0 required (delta=100, b1=0.67)"]


class TestAdabeliefStep:
    def test_first_step_drive_is_squared_deviation(self):
        preset = PresetParams(b3=0.0)
        g = np.array([2.0, -3.0])
        state = initial_stepper_state(np.zeros(2))
        new = step_preset(state, g, preset.eta, 0, PresetKind.ADABELIEF, preset)
        mu_expected = (0.15 * 0.67) * g
        drive = (g - mu_expected) ** 2
        assert np.array_equal(new[1], mu_expected)
        assert np.array_equal(new[3], (0.15 * 0.0067) * drive)

    def test_constant_gradient_drives_second_moment_to_zero(self):
        preset = PresetParams(b3=0.0)
        state = initial_stepper_state(np.array([0.0]))
        g = np.array([1.0])
        for k in range(10_000):
            state = step_preset(state, g, preset.eta, k, PresetKind.ADABELIEF, preset)
        assert state[3, 0] < 1e-6
        assert abs(state[1, 0] - 1.0) < 1e-9

    def test_zero_gradient_no_motion(self):
        preset = PresetParams(b3=0.02)
        state = initial_stepper_state(np.array([5.0]))
        new = step_preset(state, np.zeros(1), preset.eta, 0, PresetKind.ADABELIEFSSM, preset)
        assert new[0, 0] == 5.0

    def test_one_state_kind_ignores_the_coupling_rate_bitwise(self, rng):
        coupled = PresetParams(b3=0.02)
        start = initial_stepper_state(rng.uniform(-2, 2, 3), rng.uniform(0.1, 2.0, 3))
        a = b = two_state = start
        for k in range(50):
            g = rng.standard_normal(3)
            a = step_preset(a, g, 1e-3, k, PresetKind.ADABELIEF, coupled)
            b = step_preset(b, g, 1e-3, k, PresetKind.ADABELIEF, PresetParams(b3=0.0))
            two_state = step_preset(two_state, g, 1e-3, k, PresetKind.ADABELIEFSSM, coupled)
            for row in range(4):
                assert np.array_equal(a[row], b[row])
        assert not np.array_equal(a[3], two_state[3])


class TestGadagradStep:
    def test_two_step_hand_values(self):
        state = initial_stepper_state(np.array([2.0]))
        g = np.array([1.0])
        state = gadagrad_step(state, g, 0, c=0.5, eta=1.0, epsilon=0.0, delta=1.0)
        assert state[3, 0] == 1.0
        assert state[0, 0] == 1.0
        state = gadagrad_step(state, g, 1, c=0.5, eta=1.0, epsilon=0.0, delta=1.0)
        assert state[3, 0] == 2.0
        assert state[0, 0] == 0.29289321881345254

    def test_accumulator_never_decreases(self, rng):
        state = initial_stepper_state(np.zeros(4))
        prev = state[3].copy()
        for k in range(100):
            g = rng.standard_normal(4) * 3.0
            state = gadagrad_step(state, g, k, c=0.3, eta=0.1, epsilon=1e-8, delta=0.5)
            assert np.all(state[3] >= prev)
            prev = state[3].copy()

    def test_zero_gradient_zero_accumulator_takes_zero_step(self):
        state = initial_stepper_state(np.array([1.0]))
        new = gadagrad_step(state, np.zeros(1), 0, c=0.5, eta=1.0, epsilon=0.0, delta=1.0)
        assert new[0, 0] == 1.0

    def test_moment_rows_come_out_zero(self):
        # a run starts them at zero; a given state's mu and zeta are dropped
        state = np.array([[2.0], [0.75], [-3.0], [1.0]])
        new = gadagrad_step(state, np.array([2.0]), 0, c=0.5, eta=1.0, epsilon=0.0, delta=0.25)
        assert new[3, 0] == 1.0 + 0.25 * 4.0
        assert new[0, 0] == 2.0 - 0.25 * (2.0 / 2.0 ** 0.5)
        assert new[1, 0] == 0.0 and new[2, 0] == 0.0

    def test_exponent_validated(self):
        state = initial_stepper_state(np.array([1.0]))
        for bad_c in (0.0, 1.0, -0.5):
            with pytest.raises(ValidationError) as err:
                gadagrad_step(state, np.array([1.0]), 0, c=bad_c, eta=1.0, epsilon=0.0, delta=1.0)
            assert err.value.violations == ["0 < c < 1"]


class TestSgdMomentumStep:
    def test_zero_momentum_is_gradient_descent(self):
        state = initial_stepper_state(np.array([1.0, 2.0]))
        g = np.array([0.5, -0.5])
        new = step_sgd_momentum(state, g, k=0, beta=0.0, eta=0.1)
        assert np.array_equal(new[0], state[0] - 0.1 * g)

    def test_momentum_accumulates(self):
        state = initial_stepper_state(np.array([0.0]))
        state = step_sgd_momentum(state, np.array([1.0]), k=0, beta=0.5, eta=1.0)
        state = step_sgd_momentum(state, np.array([2.0]), k=1, beta=0.5, eta=1.0)
        assert state[1, 0] == 0.5 * 1.0 + 2.0

    def test_momentum_factor_validated(self):
        state = initial_stepper_state(np.array([1.0]))
        for bad in (1.0, -0.1):
            with pytest.raises(ValidationError) as err:
                step_sgd_momentum(state, np.array([1.0]), k=0, beta=bad, eta=0.1)
            assert err.value.violations == ["0 <= beta < 1"]

    def test_rows_it_does_not_use_come_out_zero(self):
        # a run starts them at zero; a given state's zeta and nu are dropped
        state = np.array([[1.0, 2.0], [0.5, -0.5], [3.0, -4.0], [0.25, 7.0]])
        new = step_sgd_momentum(state, np.array([0.5, 1.5]), k=3, beta=0.5, eta=0.1)
        assert new[1].tolist() == [0.5 * 0.5 + 0.5, 0.5 * -0.5 + 1.5]
        assert new[0].tolist() == (state[0] - 0.1 * new[1]).tolist()
        assert new[2].tolist() == [0.0, 0.0] and new[3].tolist() == [0.0, 0.0]

    def test_gradient_whose_square_overflows_gives_a_nan_iterate(self):
        # 0 * g^2 is 0 * inf: a run never steps such a row, as its gradient norm is inf
        state = initial_stepper_state(np.array([1.0, 1.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            new = step_sgd_momentum(state, np.array([1e155, 1.0]), k=0, beta=0.9, eta=0.1)
        assert np.isnan(new[0, 0]) and np.isnan(new[3, 0])
        assert new[0, 1] == 1.0 - 0.1 * 1.0 and new[3, 1] == 0.0
        assert new[1].tolist() == [1e155, 1.0]


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

    def test_negative_or_nan_iteration_rejected(self):
        # before the mode is read: an unknown mode does not hide the iteration
        for k in (-1, -2, math.nan):
            for mode in (*BIAS_MODES, "classic"):
                with pytest.raises(ValidationError) as err:
                    bias_denominators(ADAMSSM, k, mode)
                assert err.value.violations == ["iteration >= 0"]
        with pytest.raises(ValidationError, match=re.escape("iteration >= 0")):
            bias_alpha(PresetParams(), -2, "paper")
        state = initial_stepper_state(np.ones(2))
        with pytest.raises(ValidationError, match=re.escape("iteration >= 0")):
            step_preset(state, np.ones(2), 0.1, -1, PresetKind.ADAM, PresetParams())


class TestLrSchedule:
    def test_multipliers_apply_cumulatively(self):
        sched = LrSchedule(base_eta=1.0, milestones=((10, 0.1), (20, 0.5)))
        assert sched.eta_at(0) == 1.0
        assert sched.eta_at(9) == 1.0
        assert sched.eta_at(10) == 0.1
        assert sched.eta_at(19) == 0.1
        assert sched.eta_at(20) == 0.1 * 0.5

    def test_eta_at_equals_the_product_of_passed_multipliers(self, rng):
        milestones = ((0, 0.3), (5, 0.7), (12, 1.1))
        for base in (0.1, rng.uniform(0.001, 1.0, (3, 2))):
            sched = LrSchedule(base_eta=base, milestones=milestones)
            for k in sorted({max(it + step, 0) for it, _ in milestones for step in (-1, 0, 1)} | {1000}):
                want = base
                for it, m in milestones:
                    if k >= it:
                        want = want * m
                assert np.asarray(sched.eta_at(k)).tobytes() == np.asarray(want).tobytes(), k

    def test_milestone_order_validated(self):
        with pytest.raises(ValidationError) as err:
            LrSchedule(base_eta=1.0, milestones=((20, 0.1), (10, 0.5)))
        assert err.value.violations == ["milestone iterations strictly increasing"]

    def test_multiplier_sign_validated(self):
        for multiplier in (0.0, math.nan):
            with pytest.raises(ValidationError) as err:
                LrSchedule(base_eta=1.0, milestones=((10, multiplier),))
            assert err.value.violations == ["milestone multipliers positive"]

    def test_negative_milestone_iteration_rejected(self):
        with pytest.raises(ValidationError) as err:
            LrSchedule(base_eta=1.0, milestones=((-5, 0.1),))
        assert err.value.violations == ["milestone iterations nonnegative"]

    def test_milestone_iterations_whole_numbers(self):
        for iteration in (3, 3.0, np.int64(3)):
            (milestone,) = LrSchedule(base_eta=1.0, milestones=((iteration, 0.5),)).milestones
            assert milestone == (3, 0.5) and type(milestone[0]) is int
        for iteration in (2.7, math.nan, math.inf):
            with pytest.raises(ValidationError) as err:
                LrSchedule(base_eta=1.0, milestones=((iteration, 0.5),))
            assert err.value.violations == ["milestone iterations whole numbers"]
        # named in one error with the other milestone conditions
        with pytest.raises(ValidationError) as err:
            LrSchedule(base_eta=1.0, milestones=((5, 0.5), (-1.5, 0.0)))
        assert err.value.violations == [
            "milestone iterations whole numbers",
            "milestone iterations strictly increasing",
            "milestone iterations nonnegative",
            "milestone multipliers positive",
        ]

    def test_schedule_reaches_stepper(self):
        sched = LrSchedule(base_eta=1.0, milestones=((1, 0.0001),))
        state = initial_stepper_state(np.array([0.0]))
        state = step_preset(state, np.array([1.0]), sched.eta_at(0), 0, PresetKind.ADAMSSM, ADAMSSM)
        first_move = abs(state[0, 0])
        x_before = state[0, 0]
        state = step_preset(state, np.array([1.0]), sched.eta_at(1), 1, PresetKind.ADAMSSM, ADAMSSM)
        assert abs(state[0, 0] - x_before) < 0.01 * first_move


class TestRunDiscrete:
    def quadratic_spec(self):
        return OptimizerSpec("adamssm", "run", ADAMSSM)

    def test_zero_iterations_records_start_only(self):
        obj = make_quadratic(2, 10.0)
        traj, report = run_discrete(self.quadratic_spec(), obj, np.ones(2), 0)
        assert len(traj) == 1
        assert report.best_f == obj.eval_f(np.ones(2))
        assert report.epoch_of_best == 0
        assert report.final_grad_norm == float(np.linalg.norm(obj.eval_grad(np.ones(2))))

    @pytest.mark.parametrize(
        "spec, failed",
        [
            pytest.param(OptimizerSpec("gadagrad", "drained", PresetParams(delta=-0.15)), ["delta > 0"], id="drained"),
            *(
                pytest.param(
                    OptimizerSpec("adamssm", "coupled", PresetParams(b3=b3, eta=0.05)),
                    [f"delta*b3 >= 0 required (delta=0.15, b3={b3:g})"],
                    id=f"b3={b3:g}",
                )
                for b3 in (-0.005, -0.02, math.nan)
            ),
        ],
    )
    def test_rates_that_would_turn_nu_negative_fail_the_first_step(self, spec, failed):
        # a negative sampling time would drain gadagrad's nu, and a negative or
        # NaN b3 would feed zeta into nu at a negative or NaN rate until the run
        # diverges: every entry point names the rate at the first step instead
        obj, x0 = make_quadratic(3, 10.0), np.ones(3)
        (outcome,) = run_discrete_batch([spec], obj, x0, 3000)
        assert isinstance(outcome, ValidationError) and outcome.violations == failed
        with pytest.raises(ValidationError) as solo:
            run_discrete(spec, obj, x0, 3000)
        assert solo.value.violations == failed
        with pytest.raises(ValidationError) as step:
            step_preset(initial_stepper_state(x0), x0, spec.preset.eta, 0, PresetKind(spec.kind), spec.preset)
        assert step.value.violations == failed

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            run_discrete(self.quadratic_spec(), make_quadratic(1, 1.0), np.ones(1), -1)

    @pytest.mark.parametrize(
        "settings, failed",
        [
            pytest.param({"num_iters": -1}, ["iterations >= 0"], id="iterations-1"),
            pytest.param({"record_stride": 0}, ["record_stride >= 1"], id="stride0"),
            pytest.param({"record_stride": -1}, ["record_stride >= 1"], id="stride-1"),
            pytest.param({"threshold": math.nan}, ["threshold > 0"], id="threshold-nan"),
            pytest.param({"threshold": 0.0}, ["threshold > 0"], id="threshold0"),
            pytest.param({"threshold": -1.0}, ["threshold > 0"], id="threshold-1"),
            pytest.param(
                {"num_iters": -1, "record_stride": 0, "threshold": math.nan},
                ["iterations >= 0", "record_stride >= 1", "threshold > 0"],
                id="all-three",
            ),
        ],
    )
    def test_run_settings_rejected_by_name(self, settings, failed):
        # the conditions load_config names, raised before any step
        with pytest.raises(ValidationError) as err:
            run_discrete(self.quadratic_spec(), make_quadratic(2, 10.0), np.ones(2), **({"num_iters": 10} | settings))
        assert err.value.violations == failed

    def test_x0_of_another_dimension_rejected(self):
        with pytest.raises(ValueError, match=re.escape("x0 shape (3,) does not match objective dimension 2")):
            run_discrete_batch([self.quadratic_spec()], make_quadratic(2, 10.0), np.ones(3), 5)

    def test_long_run_reaches_threshold(self):
        # constant learning rate, default rates: the gradient norm passes the
        # cut well before the budget and keeps shrinking afterwards
        obj = make_quadratic(2, 100.0)
        traj, report = run_discrete(
            self.quadratic_spec(), obj, np.ones(2), 5000, record_stride=100
        )
        assert report.final_grad_norm < 1e-4
        assert report.iters_to_threshold is not None
        assert 2000 < report.iters_to_threshold < 2700
        assert report.diagnostics == {"stayed_in_box": True}
        assert report.best_f <= obj.eval_f(np.ones(2))

    def test_record_stride_keeps_endpoints(self):
        obj = make_quadratic(1, 1.0)
        traj, _ = run_discrete(
            self.quadratic_spec(), obj, np.ones(1), 10, record_stride=3
        )
        assert list(traj.times) == [0.0, 3.0, 6.0, 9.0, 10.0]

    def test_box_excursion_flagged(self):
        # eta far above the stability limit makes plain gradient descent
        # oscillate outward; the run must finish and flag the excursion
        obj = make_quadratic(2, 10.0)

        diverging = OptimizerSpec("sgd_momentum", "run", PresetParams(eta=0.3), beta=0.0)
        _, report = run_discrete(diverging, obj, np.ones(2), 30)
        assert report.diagnostics["stayed_in_box"] is False
        assert report.best_f <= obj.eval_f(np.ones(2))

    def test_non_finite_value_ends_the_run_as_a_failure(self):
        obj = make_quadratic(2, 100.0)

        diverging = OptimizerSpec("sgd_momentum", "sgd", PresetParams(eta=0.5), beta=0.9)
        traj, report = run_discrete(diverging, obj, np.ones(2), 200, record_stride=10)
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

    def test_threshold_at_start_counts_iteration_zero(self):
        obj = make_quadratic(1, 1.0)
        _, report = run_discrete(
            self.quadratic_spec(), obj, np.zeros(1), 3, threshold=1e-4
        )
        assert report.iters_to_threshold == 0


def discrete_objective(name: str):
    """One of the three shipped objectives with a starting point off its
    minimum; rosenbrock10 is the chained one at d = 10."""
    if name == "quadratic":
        return make_quadratic(2, 100.0), np.ones(2)
    if name == "rosenbrock":
        return make_rosenbrock(2), np.array([-1.2, 1.0])
    if name == "rosenbrock10":
        return make_rosenbrock(10), np.tile([-0.5, 0.5], 5)
    return make_logistic(5, 40, 0), np.zeros(5)


def mixed_specs() -> list[OptimizerSpec]:
    """gadagrad at two exponents, every moment kind under every bias mode,
    and heavy ball: every row group of the discrete batch."""
    specs = [
        OptimizerSpec("gadagrad", "gadagrad-c0.5", PresetParams(c=0.5, eta=0.5)),
        OptimizerSpec("gadagrad", "gadagrad-c0.3", PresetParams(c=0.3, eta=0.5)),
    ]
    for kind in ("adam", "adabelief", "adamssm", "adabeliefssm"):
        for mode in BIAS_MODES:
            specs.append(OptimizerSpec(kind, f"{kind}-{mode}", PresetParams(b3=0.02, eta=0.05), mode))
    specs.append(OptimizerSpec("sgd_momentum", "sgd_momentum", PresetParams(eta=1e-4), beta=0.9))
    return specs


def assert_same_run(got, want):
    (got_traj, got_report), (want_traj, want_report) = got, want
    for series in ("times", "states", "f_values", "grad_norms", "alpha_values"):
        assert getattr(got_traj, series).tobytes() == getattr(want_traj, series).tobytes(), series
    assert repr(got_report) == repr(want_report)


class TestRunDiscreteBatch:
    MILESTONES = ((20, 0.5), (40, 0.1))

    def solo(self, spec, obj, x0, num_iters):
        return run_discrete(spec, obj, x0, num_iters, self.MILESTONES, record_stride=7)

    @pytest.mark.parametrize("objective", ["quadratic", "rosenbrock", "rosenbrock10", "logistic"])
    def test_rows_equal_solo_runs(self, objective):
        obj, x0 = discrete_objective(objective)
        specs = mixed_specs()
        results = run_discrete_batch(specs, obj, x0, 60, self.MILESTONES, record_stride=7)
        assert len(results) == len(specs)
        for spec, got in zip(specs, results):
            assert "error" not in got[1].diagnostics
            assert_same_run(got, self.solo(spec, obj, x0, 60))

    def test_unstable_row_leaves_with_its_solo_error(self):
        obj, x0 = discrete_objective("quadratic")
        unstable = OptimizerSpec("adamssm", "unstable", PresetParams(b3=0.02, delta=100.0))
        specs = [*mixed_specs(), unstable]
        *kept, failure = run_discrete_batch(specs, obj, x0, 60, self.MILESTONES, record_stride=7)
        with pytest.raises(ValidationError) as solo:
            self.solo(unstable, obj, x0, 60)
        assert isinstance(failure, ValidationError)
        assert failure.violations == solo.value.violations == [
            "1 - delta*b1 >= 0 required (delta=100, b1=0.67)",
            "1 - delta*b2 - delta*b3 >= 0 required (delta=100, b2=0.0067, b3=0.02)",
        ]
        for spec, got in zip(specs, kept):
            assert_same_run(got, self.solo(spec, obj, x0, 60))
        # no step, no error: the run is its iteration-0 evaluation
        *_, alone = run_discrete_batch(specs, obj, x0, 0, self.MILESTONES, record_stride=7)
        assert_same_run(alone, self.solo(unstable, obj, x0, 0))

    @pytest.mark.parametrize(
        "kind, preset, failed",
        [
            # beta1 = 1 - delta*b1 < 0: mu, and under "beta" the bias factor, flip sign every step
            ("adam", PresetParams(delta=3.0, eta=0.01), ["1 - delta*b1 >= 0 required (delta=3, b1=0.67)"]),
            (
                "adamssm",
                PresetParams(b3=0.02, delta=100.0),
                [
                    "1 - delta*b1 >= 0 required (delta=100, b1=0.67)",
                    "1 - delta*b2 - delta*b3 >= 0 required (delta=100, b2=0.0067, b3=0.02)",
                ],
            ),
            # the nu condition alone keeps its name
            (
                "adabeliefssm",
                PresetParams(b1=0.9, b2=0.3, b3=0.8, delta=1.0),
                ["1 - delta*b2 - delta*b3 >= 0 required (delta=1, b2=0.3, b3=0.8)"],
            ),
        ],
        ids=["b1", "b1-and-nu", "nu"],
    )
    @pytest.mark.parametrize("mode", BIAS_MODES)
    def test_unstable_rates_name_their_conditions(self, kind, preset, failed, mode):
        obj, x0 = make_quadratic(2, 10.0), np.ones(2)
        unstable = OptimizerSpec(kind, "unstable", preset, mode)
        ok = OptimizerSpec("adam", "ok", PresetParams())
        failure, got = run_discrete_batch([unstable, ok], obj, x0, 6)
        assert isinstance(failure, ValidationError) and failure.violations == failed
        with pytest.raises(ValidationError) as solo:
            run_discrete(unstable, obj, x0, 6)
        assert solo.value.violations == failed
        assert_same_run(got, run_discrete(ok, obj, x0, 6))
        # a zero retention is stable: mu' = g
        edge = OptimizerSpec(kind, "edge", dataclasses.replace(preset, b1=0.5, delta=2.0, b3=min(preset.b3, 0.02)))
        _, report = run_discrete(edge, obj, x0, 6)
        assert "error" not in report.diagnostics

    @pytest.mark.parametrize(
        "bad, mode, failed",
        [
            (PresetParams(b2=0.0), "paper", ["0 < b2"]),
            (PresetParams(b2=-0.01), "paper", ["0 < b2"]),
            (PresetParams(b1=1.2, b2=0.5), "continuous", ["b1 < 1"]),
            (PresetParams(delta=-0.15), "beta", ["delta > 0"]),
        ],
    )
    def test_invalid_bias_rates_leave_with_their_solo_error(self, bad, mode, failed):
        # the bias factors of these rates divide by zero or turn complex
        obj, x0 = make_quadratic(2, 10.0), np.ones(2)
        invalid = OptimizerSpec("adam", "bad", bad, mode)
        ok = OptimizerSpec("adam", "ok", PresetParams())
        failure, got = run_discrete_batch([invalid, ok], obj, x0, 5)
        assert isinstance(failure, ValidationError) and failure.violations == failed
        with pytest.raises(ValidationError) as solo:
            run_discrete(invalid, obj, x0, 5)
        assert str(failure) == str(solo.value)
        assert_same_run(got, run_discrete(ok, obj, x0, 5))

    def test_iteration_zero_evaluation_precedes_the_unstable_step(self):
        # f is not finite at the start: the run diverges before its first step
        obj, x0 = make_quadratic(2, 100.0), np.array([1e200, 1e200])
        unstable = OptimizerSpec("adamssm", "unstable", PresetParams(b3=0.02, delta=100.0))
        (got,) = run_discrete_batch([unstable], obj, x0, 60)
        assert_same_run(got, run_discrete(unstable, obj, x0, 60))
        assert got[1].diagnostics["diverged_at"] == 0
        assert len(got[0]) == 1

    def test_schedule_whose_rates_overflow_fails_its_run(self):
        # the rate after the 1e10 milestone overflows as the batch is built; the run diverges before it
        spec = OptimizerSpec("adam", "adam", PresetParams(eta=1e300))
        (got,) = run_discrete_batch([spec], make_quadratic(2, 100.0), np.ones(2), 20, ((10, 1e10),))
        assert got[1].diagnostics["error"] == "diverged at iteration 1: f or the gradient norm is not finite"

    def test_unknown_bias_mode_rejected_at_construction(self):
        # a bad entry cannot reach a batch, so it cannot sink the others
        with pytest.raises(ValueError, match=re.escape(str(BIAS_MODES))):
            OptimizerSpec("adam", "bad", PresetParams(eta=0.01), bias_mode="Paper")

    def test_unknown_kind_rejected_at_construction(self):
        # a run of no iterations would otherwise report the kind as a clean run
        with pytest.raises(ValueError, match=re.escape(str(tuple(KIND_KEYS)))):
            OptimizerSpec("adamw", "bad", PresetParams(eta=0.01))

    def test_diverging_row_leaves_at_its_own_iteration(self):
        obj, x0 = discrete_objective("quadratic")
        diverging = OptimizerSpec("sgd_momentum", "diverging", PresetParams(eta=1e6), beta=0.9)
        specs = [diverging, *mixed_specs()]
        results = run_discrete_batch(specs, obj, x0, 200, self.MILESTONES, record_stride=7)
        solos = [run_discrete(spec, obj, x0, 200, self.MILESTONES, record_stride=7) for spec in specs]
        traj, report = results[0]
        k = report.diagnostics["diverged_at"]
        assert k < 200 and traj.times[-1] == k
        for got, want in zip(results, solos):
            assert_same_run(got, want)


class TestBatchEqualsTheOracle:
    """A batch in the row order of a compare config (gadagrad, the four
    moment kinds, heavy ball), so the moment rows are an index array and not
    a slice, at d = 100: every recorded row equals the sequential oracle bit
    for bit, before and after a diverging row leaves."""

    def test_rows_equal_the_oracle_after_a_row_leaves(self):
        obj, x0 = make_logistic(100, 200, 3), np.zeros(100)
        f, grad = logistic_problem(100, 200, 3)
        entries = [{"kind": "gadagrad", "c": 0.5, "delta": 0.15, "epsilon": 1e-8, "eta": 0.5}]
        # three bias groups, so the denominators differ by row
        for kind, mode in zip(("adam", "adabelief", "adamssm", "adabeliefssm"), BIAS_MODES + ("paper",)):
            entries.append({
                "kind": kind, "b1": 0.67, "b2": 0.0067, "b3": 0.02, "delta": 0.15,
                "epsilon": 1e-8, "eta": 0.05, "bias_mode": mode,
            })
        # overflows f at iteration 34, off the stride: x grows about 500-fold per step
        entries.append({"kind": "sgd_momentum", "beta": 0.9, "eta": 1e8})
        specs = [
            OptimizerSpec(e["kind"], e["kind"], PresetParams(**{
                k: v for k, v in e.items() if k in ("b1", "b2", "b3", "c", "delta", "epsilon", "eta")
            }), e.get("bias_mode", "paper"), e.get("beta", 0.9))
            for e in entries
        ]
        n, milestones = 60, ((20, 0.5), (40, 0.1))
        with np.errstate(over="ignore", invalid="ignore"):
            results = run_discrete_batch(specs, obj, x0, n, milestones, record_stride=3)
            for entry, (traj, report) in zip(entries, results):
                rows = discrete_entry_run(entry, grad, x0, n, milestones)
                k_end = report.diagnostics.get("diverged_at", n)
                at = [*range(0, k_end, 3), k_end]
                assert traj.times.tolist() == at, entry["kind"]
                want = [rows[k] for k in at]
                assert traj.states.tobytes() == np.array([row[1:] for row in want]).tobytes()
                assert traj.alpha_values.tobytes() == np.array([row[0] for row in want]).tobytes()
                fs = [f(row[1]) for row in want]
                norms = [float(np.linalg.norm(grad(row[1]))) for row in want]
                assert traj.f_values[:-1].tobytes() == np.array(fs[:-1]).tobytes()
                assert traj.grad_norms[:-1].tobytes() == np.array(norms[:-1]).tobytes()
        assert [report.diagnostics.get("diverged_at") for _, report in results] == [None] * 5 + [34]

    def test_an_accumulator_that_overflows_equals_the_oracle(self):
        # nu is inf from iteration 12 on while f and the gradient norm stay
        # finite: the run goes on, and zeta stays 0 where 0 * nu would be NaN
        obj, x0, n = make_quadratic(1, 1.0), np.array([1e154]), 25
        entry = {"kind": "gadagrad", "c": 0.5, "delta": 0.15, "epsilon": 1e-8, "eta": 1.0}
        spec = OptimizerSpec("gadagrad", "gadagrad", PresetParams(c=0.5, delta=0.15, epsilon=1e-8, eta=1.0))
        with np.errstate(over="ignore", invalid="ignore"):
            ((traj, report),) = run_discrete_batch([spec], obj, x0, n)
            rows = discrete_entry_run(entry, obj.eval_grad, x0, n, ())
        assert traj.states.tobytes() == np.array([row[1:] for row in rows]).tobytes()
        assert np.isinf(traj.states[-1, 3, 0]) and "error" not in report.diagnostics


class TestComponentMajorBatch:
    def test_rates_have_the_full_shape_of_their_blocks(self):
        specs = mixed_specs()
        batch = _DiscreteBatch(specs, 3, ((20, 0.5),))
        # drop a gadagrad row and an adam row
        keep = np.array([spec.name not in ("gadagrad-c0.3", "adam-beta") for spec in specs])
        # keep no belief row, but accumulator rows: the mask is all True, at full shape
        no_belief = batch.select(np.array(["belief" not in spec.kind for spec in specs]))
        assert no_belief.accumulate.any() and no_belief.squared.dtype == bool and no_belief.squared.all()
        for batch in (batch, no_belief, batch.select(keep)):
            r = len(batch.specs)
            # the two (4, R, d) coefficient stacks of core.moment_rows, stacked, then the (R, d) rates and masks
            assert batch.coef.shape == (8, r, 3) and batch.coef.flags.c_contiguous
            for stack in (batch.coef[:4], batch.coef[4:]):
                assert stack.shape == (4, r, 3) and stack.flags.c_contiguous
            names = ("gain_psi", "epsilon", "eta_gain", "squared", "accumulate", "divides", "bias_of")
            arrays = {name: getattr(batch, name) for name in names}
            arrays["eta"] = batch.schedule.eta_at(30)
            for name, array in arrays.items():
                assert array.shape == (r, 3) and array.flags.c_contiguous, name
        assert r == len(specs) - 2


class TestInputsStayUnchanged:
    """The kernel takes its own copies of the state's rows and works on them
    in place: no step writes through to its input state, gradients or
    rates, and none returns a view of them. The batch has accumulator rows,
    belief rows and rows of three bias groups."""

    def test_batch_update(self, rng):
        batch = _DiscreteBatch(mixed_specs(), 3)
        assert batch.accumulate.any() and not batch.squared.all() and len(batch.bias_specs) > 2
        s = np.abs(rng.standard_normal((4, len(batch.specs), 3)))
        g = rng.standard_normal((len(batch.specs), 3))
        eta = batch.schedule.eta_at(4)
        before = [a.tobytes() for a in (s, g, eta)]
        out = batch.update(s, g, eta, 4)
        assert [a.tobytes() for a in (s, g, eta)] == before
        assert not any(np.shares_memory(out, a) for a in (s, g, eta))

    @pytest.mark.parametrize("kind", KIND_KEYS)
    def test_steppers(self, kind, rng):
        state = np.abs(rng.standard_normal((4, 3)))
        grad = rng.standard_normal(3)
        before = state.tobytes(), grad.tobytes()
        if kind == "sgd_momentum":
            new = step_sgd_momentum(state, grad, 0.01, 4, 0.9)
        else:
            new = step_preset(state, grad, 0.01, 4, PresetKind(kind), ADAMSSM)
        assert (state.tobytes(), grad.tobytes()) == before
        assert not np.shares_memory(new, state) and not np.shares_memory(new, grad)


class TestEntryConditions:
    @pytest.mark.parametrize(
        "kind, preset, beta, failed",
        [
            ("sgd_momentum", PresetParams(eta=0.0), 1.0, ["0 <= beta < 1", "eta > 0"]),
            ("gadagrad", PresetParams(delta=0.0, c=1.0), 0.9, ["delta > 0", "0 < c < 1"]),
            ("adam", PresetParams(b2=0.9), 0.9, ["b2 < b1"]),
            ("adamssm", PresetParams(b3=5.0), 0.9, ["b2 + b3 < 4*b1"]),
        ],
    )
    def test_failed_conditions_named_in_order(self, kind, preset, beta, failed):
        assert OptimizerSpec(kind, kind, preset, beta=beta).violations() == failed

    @pytest.mark.parametrize("kind", KIND_KEYS)
    def test_default_rates_fail_nothing(self, kind):
        assert OptimizerSpec(kind, kind, ADAMSSM).violations() == []

    def test_first_step_errors_come_from_the_one_list(self, rng):
        # sampled presets, some with b1 and b2 swapped or no epsilon, at their
        # own sampling time and at ones past 1/b1, past 1/(b2 + b3) and far
        # past both
        for _ in range(60):
            preset = random_valid_adamssm_preset(rng)
            if rng.random() < 0.2:
                preset = dataclasses.replace(preset, b1=preset.b2, b2=preset.b1)
            deltas = (
                preset.delta,
                rng.uniform(1.0, 3.0) / preset.b1,
                rng.uniform(1.0, 3.0) / (preset.b2 + preset.b3),
                rng.uniform(50.0, 500.0),
            )
            for delta, kind, mode in itertools.product(deltas, KIND_KEYS, BIAS_MODES):
                epsilon = 0.0 if rng.random() < 0.1 else preset.epsilon
                rates = dataclasses.replace(preset, delta=delta, epsilon=epsilon, c=rng.uniform(0.0, 1.2))
                spec = OptimizerSpec(kind, kind, rates, mode, beta=rng.uniform(0.0, 1.2))
                violations = spec.violations()
                error = _first_step_error(spec)
                if error is None:
                    named = []
                else:
                    named = error.violations if isinstance(error, ValidationError) else str(error).split("; ")
                    assert named
                assert set(named) <= set(violations)
                if any(condition.startswith("1 - delta*") for condition in violations):
                    assert error is not None
                if not violations:
                    assert _DiscreteBatch([spec], 2).errors == {}

    def test_alpha_is_bias_alpha_per_row_and_one_on_rows_that_leave(self):
        unstable = OptimizerSpec("adamssm", "unstable", PresetParams(b3=0.02, delta=100.0), "beta")
        invalid = OptimizerSpec("adam", "invalid", PresetParams(b2=0.0))
        specs = [unstable, *mixed_specs(), invalid]
        batch = _DiscreteBatch(specs, 3)
        assert sorted(batch.errors) == [0, len(specs) - 1]
        for k in (0, 1, 7, 250):
            want = [
                1.0 if i in batch.errors or spec.kind in ("gadagrad", "sgd_momentum")
                else bias_alpha(spec.preset, k, spec.bias_mode)
                for i, spec in enumerate(specs)
            ]
            assert batch.alpha(slice(None), k).tobytes() == np.array(want).tobytes()
            rows = np.arange(len(specs)) % 2 == 0
            assert batch.alpha(rows, k).tobytes() == np.array(want)[rows].tobytes()


class TestBatchBookkeeping:
    """The run loop evaluates f, the gradients and their norms once per step
    for the whole batch, and summarizes every row like its solo run."""

    def test_one_objective_call_per_step_for_the_whole_batch(self):
        def counted(name, fn):
            def wrapped(x):
                calls[name] += 1
                return fn(x)

            return None if fn is None else wrapped

        n = 45
        # every objective evaluates f and the gradient in one call, and the
        # loop calls only that one
        for objective, want in [
            ("quadratic", {"f": 0, "grad": 0, "f_grad": n + 1}),
            ("rosenbrock", {"f": 0, "grad": 0, "f_grad": n + 1}),
            ("logistic", {"f": 0, "grad": 0, "f_grad": n + 1}),
        ]:
            obj, x0 = discrete_objective(objective)
            calls = {"f": 0, "grad": 0, "f_grad": 0}
            # f and grad wrapped as perfbench/spans.py wraps objectives
            obj = dataclasses.replace(
                obj,
                eval_f=counted("f", obj.eval_f),
                eval_grad=counted("grad", obj.eval_grad),
                eval_f_grad=counted("f_grad", obj.eval_f_grad),
            )
            results = run_discrete_batch(mixed_specs(), obj, x0, n, ((20, 0.5),), record_stride=7)
            assert all("error" not in report.diagnostics for _, report in results)
            assert calls == want, objective

    @pytest.mark.parametrize("dim", [1, 2, 3, 10, 40, 100])
    def test_recorded_gradient_norms_equal_linalg_norm_bitwise(self, dim, rng):
        obj = make_quadratic(dim, 50.0)
        x0 = rng.standard_normal(dim)
        specs = [OptimizerSpec(kind, kind, PresetParams(b3=0.02, eta=0.05)) for kind in ("adam", "adamssm")]
        for traj, _ in run_discrete_batch(specs, obj, x0, 30):
            want = [float(np.linalg.norm(obj.eval_grad(x))) for x in traj.states[:, 0]]
            assert traj.grad_norms.tobytes() == np.array(want).tobytes()
        # the batched form itself, on a strided view as the loop passes it
        g = rng.standard_normal((64, dim)) * rng.uniform(0.01, 10.0, (64, 1))
        packed = np.stack([g, -g], axis=1)[:, 0]
        want = np.array([np.linalg.norm(row) for row in g])
        assert np.sqrt(np.vecdot(packed, packed)).tobytes() == want.tobytes()

    def test_mixed_summaries_equal_the_oracle(self):
        obj, x0 = make_quadratic(2, 10.0), np.ones(2)
        specs = [
            # converges: best f before the last iteration, threshold reached
            OptimizerSpec("adam", "adam", PresetParams(eta=0.05)),
            # crawls: best f at the last iteration, threshold never reached
            OptimizerSpec("adamssm", "adamssm", PresetParams(b3=0.02, eta=1e-4), "beta"),
            # oscillates outward until the milestone: leaves the box, stays finite
            OptimizerSpec("sgd_momentum", "sgd_momentum", PresetParams(eta=0.3), beta=0.0),
            OptimizerSpec("gadagrad", "gadagrad", PresetParams(c=0.5, eta=0.5)),
        ]
        entries = [
            {"kind": spec.kind, **dataclasses.asdict(spec.preset), "bias_mode": spec.bias_mode, "beta": spec.beta}
            for spec in specs
        ]
        n, milestones, threshold = 300, ((150, 0.5),), 1e-4
        results = run_discrete_batch(specs, obj, x0, n, milestones, threshold)
        reports = []
        for entry, (traj, report) in zip(entries, results):
            rows = discrete_entry_run(entry, obj.eval_grad, x0, n, milestones)
            assert traj.states.tobytes() == np.array([row[1:] for row in rows]).tobytes()
            assert traj.alpha_values.tobytes() == np.array([row[0] for row in rows]).tobytes()
            fs = [obj.eval_f(row[1]) for row in rows]
            norms = [float(np.linalg.norm(obj.eval_grad(row[1]))) for row in rows]
            assert traj.f_values.tobytes() == np.array(fs).tobytes()
            assert traj.grad_norms.tobytes() == np.array(norms).tobytes()
            reached = [k for k, g in enumerate(norms) if g < threshold]
            assert report.best_f == min(fs)
            assert report.epoch_of_best == fs.index(min(fs))
            assert report.iters_to_threshold == (reached[0] if reached else None)
            assert report.final_grad_norm == norms[-1]
            assert all((row[4] >= 0).all() for row in rows)
            assert report.diagnostics == {"stayed_in_box": all((np.abs(row[1]) <= BOX).all() for row in rows)}
            reports.append(report)
        # the rows differ in what the summary has to track
        assert len({r.epoch_of_best for r in reports}) > 1
        assert {r.iters_to_threshold is None for r in reports} == {True, False}
        assert [r.diagnostics["stayed_in_box"] for r in reports].count(False) == 1


@st.composite
def entries_meeting_their_conditions(draw):
    """One entry of every kind, each with its own bias mode and rates drawn
    inside its conditions: eta from 1e-4 to 1e2, and for the moment kinds
    a sampling time up to where 1 - delta*b1 or 1 - delta*b2 - delta*b3
    reaches 0."""
    unit = partial(draw, st.floats(1e-3, 0.999))
    specs = []
    for kind in KIND_KEYS:
        b1 = unit()
        b2 = b1 * unit()
        b3 = (4.0 * b1 - b2) * unit()
        delta = 10.0 ** draw(st.floats(-3.0, 1.0)) if kind == "gadagrad" else unit() / max(b1, b2 + b3)
        rates = PresetParams(
            b1=b1, b2=b2, b3=b3, delta=delta, epsilon=10.0 ** draw(st.floats(-12.0, -2.0)),
            eta=10.0 ** draw(st.floats(-4.0, 2.0)), c=unit(),
        )
        spec = OptimizerSpec(kind, kind, rates, draw(st.sampled_from(BIAS_MODES)), beta=draw(st.floats(0.0, 0.999)))
        assume(not spec.violations())
        specs.append(spec)
    return specs


class TestNonnegativity:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        specs=entries_meeting_their_conditions(),
        objective=st.sampled_from(["quadratic", "rosenbrock", "logistic"]),
        scale=st.floats(0.0, 3.0),
    )
    def test_no_recorded_nu_of_an_entry_meeting_its_conditions_is_negative(self, specs, objective, scale):
        # the conditions keep every coefficient that feeds zeta or nu >= 0, so
        # nu, from 0 and driven by a square, never goes below 0 (NaN after an
        # overflow is not below 0); this is why a run's report has no nu check
        obj, x0 = discrete_objective(objective)
        x0 = 10.0 ** scale * np.where(x0 == 0.0, 1.0, x0)
        for outcome in run_discrete_batch(specs, obj, x0, 60):
            traj, _ = outcome
            assert not (traj.states[:, 3] < 0.0).any()

    def test_family_keeps_second_moment_nonnegative(self, rng):
        steppers = [
            preset_stepper(PresetKind.ADAMSSM, ADAMSSM),
            preset_stepper(PresetKind.ADAM, PresetParams()),
            preset_stepper(PresetKind.ADABELIEFSSM, ADAMSSM),
        ]
        for stepper in steppers:
            for _ in range(10):
                state = initial_stepper_state(rng.uniform(-2, 2, 3))
                for k in range(200):
                    g = rng.uniform(-10.0, 10.0, 3)
                    state = stepper(state, g, 1e-3, k)
                    assert np.all(state[3] >= 0.0)

    def test_accumulator_stepper_nonnegative(self, rng):
        state = initial_stepper_state(np.zeros(3))
        for k in range(500):
            g = rng.standard_normal(3) * 5.0
            state = gadagrad_step(state, g, k, c=0.5, eta=0.01, epsilon=1e-8, delta=1.0)
            assert np.all(state[3] >= 0.0)
