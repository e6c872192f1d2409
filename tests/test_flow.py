"""Unit tests for the continuous-time flows, integrators, trajectory
artifacts, and the accumulator energy diagnostic."""

import dataclasses

import numpy as np
import pytest

import ssmopt.flow as flow_module
from ssmopt import (
    FlowProblem,
    OptimizerParams,
    PresetKind,
    PresetParams,
    PsiKind,
    StepFailure,
    Trajectory,
    ValidationError,
    alpha_g,
    gadagrad_energy_residual,
    initial_stepper_state,
    integrate_euler,
    integrate_reference,
    make_logistic,
    make_quadratic,
    make_rosenbrock,
    map_preset_to_general,
    Objective,
    OptimizerSpec,
    preset_flow,
    rhs_general,
    validate_params,
)
from ssmopt.discrete import run_discrete_batch
from ssmopt.flow import euler_step, integrate_batch, rk4_step
from ssmopt.objectives import BOX
from samplers import random_valid_adamssm_preset, random_valid_params
from oracles import adam_rhs, general_alpha, general_flow_run, general_rhs, rosenbrock_grad, run_summary

ADAMSSM = PresetParams(b3=0.02)
FIVE_PRESETS = [
    (PresetKind.GADAGRAD, PresetParams()),
    (PresetKind.ADAM, PresetParams()),
    (PresetKind.ADABELIEF, PresetParams()),
    (PresetKind.ADAMSSM, ADAMSSM),
    (PresetKind.ADABELIEFSSM, ADAMSSM),
]
ORACLE_PSI = {
    PsiKind.SQUARED_GRADIENT: lambda g, mu: g * g,
    PsiKind.BELIEF: lambda g, mu: (g - mu) * (g - mu),
}


def flow_objective(name: str):
    """One of the three shipped objectives with a starting point off its
    minimum; rosenbrock10 is the chained one at d = 10."""
    if name == "quadratic":
        return make_quadratic(2, 100.0), np.ones(2)
    if name == "rosenbrock":
        return make_rosenbrock(2), np.array([-1.2, 1.0])
    if name == "rosenbrock10":
        return make_rosenbrock(10), np.tile([-0.5, 0.5], 5)
    return make_logistic(5, 40, 0), np.zeros(5)


def lam_dict(p: OptimizerParams) -> dict:
    return {i: getattr(p, f"lambda{i}") for i in range(1, 9)}


def random_flow_state(rng, dim: int, t_max: float = 20.0) -> tuple[np.ndarray, float]:
    """A random (4, d) state with nu > 0, and a random time."""
    state = np.array((
        rng.uniform(-2.0, 2.0, dim),
        rng.uniform(-1.0, 1.0, dim),
        rng.uniform(0.0, 1.0, dim),
        rng.uniform(0.1, 2.0, dim),
    ))
    return state, float(rng.uniform(0.0, t_max))


class TestRhsGeneral:
    def test_equilibrium_at_critical_point(self):
        obj = make_quadratic(2, 10.0)
        params = map_preset_to_general(ADAMSSM, PresetKind.ADAMSSM)
        problem = FlowProblem(obj, params, np.zeros(2), np.ones(2))
        # zeta = nu makes the auxiliary state stationary as well
        state = np.array((np.zeros(2), np.zeros(2), np.ones(2), np.ones(2)))
        dx, dmu, dzeta, dnu = rhs_general(state, 0.0, problem)
        assert np.array_equal(dx, np.zeros(2))
        assert np.array_equal(dmu, np.zeros(2))
        assert np.array_equal(dzeta, np.zeros(2))
        assert np.array_equal(dnu, 0.02 * np.ones(2) - 0.0267 * np.ones(2))

    def test_accumulator_flow_hand_values(self):
        obj = make_quadratic(1, 1.0)
        params = map_preset_to_general(PresetParams(c=0.5), PresetKind.GADAGRAD)
        problem = FlowProblem(obj, params, np.array([2.0]), np.array([1.0]))
        dx, _, _, dnu = rhs_general([[2.0], [0.0], [0.0], [1.0]], 0.0, problem)
        assert dnu[0] == 4.0
        assert dx[0] == -2.0

    def test_one_state_mapping_matches_oracle(self, rng):
        obj = make_quadratic(3, 30.0)
        params = map_preset_to_general(PresetParams(), PresetKind.ADAM)
        problem = FlowProblem(obj, params, np.ones(3), np.ones(3))
        for _ in range(30):
            state, t = random_flow_state(rng, 3)
            d = rhs_general(state, t, problem)
            dmu, dnu, dx = adam_rhs(state[0], state[1], state[3], t, 0.67, 0.0067, obj.eval_grad)
            assert np.allclose(d[1], dmu, rtol=1e-13, atol=0.0)
            assert np.allclose(d[3], dnu, rtol=1e-13, atol=0.0)
            assert np.allclose(d[0], dx, rtol=1e-12, atol=0.0)

    def test_general_form_matches_oracle(self, rng):
        obj = make_rosenbrock(3)
        for _ in range(50):
            params = random_valid_params(rng)
            problem = FlowProblem(obj, params, np.ones(3), np.ones(3))
            state, t = random_flow_state(rng, 3)
            d = rhs_general(state, t, problem)
            dmu, dzeta, dnu, dx = general_rhs(
                *state, t, lam_dict(params), params.c, ORACLE_PSI[params.psi_kind], obj.eval_grad,
            )
            assert np.allclose(d[1], dmu, rtol=1e-12, atol=0.0)
            assert np.allclose(d[2], dzeta, rtol=1e-12, atol=0.0)
            assert np.allclose(d[3], dnu, rtol=1e-12, atol=1e-300)
            assert np.allclose(d[0], dx, rtol=1e-12, atol=0.0)

    def test_zero_coupling_reduction_is_bitwise(self, rng):
        obj = make_rosenbrock(2)
        preset = PresetParams(b3=0.0)
        params_two_state = map_preset_to_general(preset, PresetKind.ADAMSSM)
        params_one_state = map_preset_to_general(preset, PresetKind.ADAM)
        assert params_two_state == params_one_state
        pa = FlowProblem(obj, params_two_state, np.ones(2), np.ones(2))
        pb = FlowProblem(obj, params_one_state, np.ones(2), np.ones(2))
        for _ in range(100):
            state, t = random_flow_state(rng, 2)
            da = rhs_general(state, t, pa)
            db = rhs_general(state, t, pb)
            for a, b in zip(da, db):
                assert np.array_equal(a, b)

    def test_domain_guard(self):
        obj = make_quadratic(1, 1.0)
        params = map_preset_to_general(PresetParams(), PresetKind.ADAM)
        problem = FlowProblem(obj, params, np.array([1.0]), np.array([1.0]))
        bad = np.array(([1.0], [0.0], [0.0], [0.0]))
        with pytest.raises(ValidationError) as err:
            rhs_general(bad, 0.0, problem)
        assert err.value.violations == ["nu must be positive componentwise at t=0"]

    def test_negative_or_nan_time_rejected(self):
        obj = make_quadratic(2, 10.0)
        problem = FlowProblem(obj, map_preset_to_general(PresetParams(), PresetKind.ADAM), np.ones(2), np.ones(2))
        state = np.array((np.ones(2), np.zeros(2), np.zeros(2), np.ones(2)))
        for t in (-2.0, -1.0, float("nan")):
            with pytest.raises(ValidationError) as err:
                rhs_general(state, t, problem)
            assert err.value.violations == ["t >= 0"], t


class TestIntegrators:
    def adam_problem(self, dim=2, cond=10.0):
        obj = make_quadratic(dim, cond)
        return preset_flow(PresetKind.ADAM, PresetParams(), obj, np.ones(dim), np.ones(dim))

    def final_state_vector(self, traj: Trajectory) -> np.ndarray:
        return traj.states[-1].ravel()

    def test_iterate_constant_at_critical_start(self):
        obj = make_quadratic(2, 10.0)
        problem = preset_flow(PresetKind.ADAM, PresetParams(), obj, np.zeros(2), np.ones(2))
        traj = integrate_euler(problem, dt=0.1, t_end=5.0)
        for x in traj.states[:, 0]:
            assert np.array_equal(x, np.zeros(2))
        traj = integrate_reference(problem, dt=0.1, t_end=5.0)
        for x in traj.states[:, 0]:
            assert np.array_equal(x, np.zeros(2))

    def test_accumulator_flow_descends(self):
        obj = make_quadratic(1, 1.0)
        problem = preset_flow(
            PresetKind.GADAGRAD, PresetParams(c=0.5), obj, np.array([1.0]), np.array([1.0])
        )
        traj = integrate_reference(problem, dt=1e-3, t_end=10.0, record_stride=100)
        assert np.all(np.diff(traj.f_values) <= 1e-10)
        assert traj.grad_norms[-1] < 0.1 * traj.grad_norms[0]
        assert np.all(traj.alpha_values == 1.0)

    def test_euler_error_halves_with_step(self):
        problem = self.adam_problem()
        ref = self.final_state_vector(integrate_reference(problem, dt=0.003125, t_end=10.0, record_stride=3200))
        errs = []
        for dt in (0.05, 0.025):
            traj = integrate_euler(problem, dt=dt, t_end=10.0, record_stride=10_000)
            errs.append(float(np.max(np.abs(self.final_state_vector(traj) - ref))))
        assert 1.4 < errs[0] / errs[1] < 2.9

    def test_reference_error_is_fourth_order(self):
        problem = self.adam_problem()
        ref = self.final_state_vector(integrate_reference(problem, dt=0.003125, t_end=10.0, record_stride=3200))
        errs = []
        for dt in (0.4, 0.2):
            traj = integrate_reference(problem, dt=dt, t_end=10.0, record_stride=10_000)
            errs.append(float(np.max(np.abs(self.final_state_vector(traj) - ref))))
        assert 8.0 < errs[0] / errs[1] < 40.0

    def test_record_stride_pattern(self):
        problem = self.adam_problem()
        traj = integrate_euler(problem, dt=0.1, t_end=1.0, record_stride=3)
        expected = [0.0, 3 * 0.1, 6 * 0.1, 9 * 0.1, 10 * 0.1]
        assert list(traj.times) == expected

    def test_positivity_stop_in_euler(self):
        # with a zero gradient the second moment only decays, so one huge
        # explicit step drives it negative
        obj = make_quadratic(1, 1.0)
        problem = preset_flow(PresetKind.ADAMSSM, ADAMSSM, obj, np.array([0.0]), np.array([1.0]))
        with pytest.raises(StepFailure) as err:
            integrate_euler(problem, dt=50.0, t_end=100.0)
        assert err.value.t == 50.0
        assert np.any(err.value.state[3] < 0)

    def test_positivity_stop_in_reference_stage(self):
        obj = make_quadratic(1, 1.0)
        problem = preset_flow(PresetKind.ADAMSSM, ADAMSSM, obj, np.array([0.0]), np.array([1.0]))
        with pytest.raises(StepFailure) as err:
            integrate_reference(problem, dt=100.0, t_end=100.0)
        assert "stage" in str(err.value)

    def test_grid_validation(self):
        problem = self.adam_problem()
        with pytest.raises(ValidationError) as err:
            integrate_euler(problem, dt=0.0, t_end=1.0)
        assert err.value.violations == ["dt > 0"]
        with pytest.raises(ValidationError) as err:
            integrate_reference(problem, dt=1.0, t_end=0.5)
        assert err.value.violations == ["t_end >= dt"]
        for integrate in (integrate_euler, integrate_reference):
            with pytest.raises(ValidationError) as err:
                integrate(problem, dt=0.3, t_end=1.0)
            assert err.value.violations == ["t_end a whole number of dt steps"]

    @pytest.mark.parametrize("record_stride", [0, -1])
    def test_record_stride_rejected_by_name(self, record_stride):
        problem = self.adam_problem()
        for integrate in (integrate_euler, integrate_reference):
            with pytest.raises(ValidationError) as err:
                integrate(problem, dt=0.1, t_end=1.0, record_stride=record_stride)
            assert err.value.violations == ["record_stride >= 1"]

    @pytest.mark.parametrize("record_stride", [0, -1])
    def test_empty_batch_checks_its_run_settings(self, record_stride):
        # as run_discrete_batch does on no entries
        with pytest.raises(ValidationError) as err:
            integrate_batch([], rk4_step, 0.1, 1.0, record_stride=record_stride)
        assert err.value.violations == ["record_stride >= 1"]

    def test_reference_keeps_second_moment_positive(self):
        obj = make_quadratic(2, 100.0)
        problem = preset_flow(PresetKind.ADAMSSM, ADAMSSM, obj, np.ones(2), np.ones(2))
        traj = integrate_reference(problem, dt=0.01, t_end=20.0, record_stride=50)
        for s in traj.states:
            assert np.all(s[3] > 0.0)

    def test_preset_flow_validates(self):
        obj = make_quadratic(2, 10.0)
        with pytest.raises(ValidationError):
            preset_flow(PresetKind.ADAM, PresetParams(b1=0.5, b2=0.6), obj, np.ones(2), np.ones(2))

    def test_problem_shape_checks(self):
        obj = make_quadratic(2, 10.0)
        params = map_preset_to_general(PresetParams(), PresetKind.ADAM)
        with pytest.raises(ValueError):
            FlowProblem(obj, params, np.ones(3), np.ones(3))
        with pytest.raises(ValidationError) as err:
            FlowProblem(obj, params, np.ones(2), np.zeros(2))
        assert err.value.violations == ["nu0 finite and positive componentwise"]


@pytest.mark.parametrize("objective", ["quadratic", "rosenbrock", "logistic"])
@pytest.mark.parametrize("integrate, rk4", [(integrate_euler, False), (integrate_reference, True)])
def test_integrators_match_oracle_bitwise(objective, integrate, rk4):
    obj, x0 = flow_objective(objective)
    nu0 = np.full(obj.dim, 1.0)
    dt, n_steps, stride = 0.01, 100, 3
    for kind, preset in FIVE_PRESETS:
        problem = preset_flow(kind, preset, obj, x0, nu0)
        p = problem.params
        expected = general_flow_run(
            x0, nu0, lam_dict(p), p.c, ORACLE_PSI[p.psi_kind], obj.eval_grad, dt, n_steps, rk4
        )
        traj = integrate(problem, dt, n_steps * dt, record_stride=stride)
        steps = list(range(0, n_steps, stride)) + [n_steps]
        assert list(traj.times) == [k * dt if k else 0.0 for k in steps], kind
        for k, state in zip(steps, traj.states):
            for got, want in zip(state, expected[k]):
                assert np.array_equal(got, want), (kind, k)


def assert_same_trajectory(got: Trajectory, want: Trajectory):
    assert list(got.times) == list(want.times)
    for name in ("f_values", "grad_norms", "alpha_values"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert len(got.states) == len(want.states)
    for a, b in zip(got.states, want.states):
        for row in range(4):
            assert np.array_equal(a[row], b[row]), row


class TestIntegrateBatch:
    @pytest.mark.parametrize("objective", ["quadratic", "rosenbrock", "rosenbrock10", "logistic"])
    @pytest.mark.parametrize("integrate, step", [(integrate_euler, euler_step), (integrate_reference, rk4_step)])
    def test_rows_equal_solo_runs(self, objective, integrate, step):
        # the extra gadagrad row gives the batch a second exponent c
        obj, x0 = flow_objective(objective)
        rows = FIVE_PRESETS + [(PresetKind.GADAGRAD, PresetParams(c=0.3))]
        problems = [preset_flow(kind, preset, obj, x0, np.ones(obj.dim)) for kind, preset in rows]
        results = integrate_batch(problems, step, dt=0.01, t_end=1.0, record_stride=7)
        assert len(results) == len(problems)
        for problem, got in zip(problems, results):
            assert_same_trajectory(got, integrate(problem, 0.01, 1.0, record_stride=7))

    @pytest.mark.parametrize(
        "integrate, step, dt", [(integrate_euler, euler_step, 50.0), (integrate_reference, rk4_step, 100.0)]
    )
    def test_failed_row_leaves_the_batch(self, integrate, step, dt):
        # zero gradient: nu only decays, and one huge step takes the ssm row's
        # nu below zero (after an Euler step, inside an RK4 stage)
        obj = make_quadratic(1, 1.0)
        gadagrad, adamssm = (
            preset_flow(kind, preset, obj, np.array([0.0]), np.array([1.0]))
            for kind, preset in [(PresetKind.GADAGRAD, PresetParams()), (PresetKind.ADAMSSM, ADAMSSM)]
        )
        kept, failure = integrate_batch([gadagrad, adamssm], step, dt, t_end=100.0)
        assert_same_trajectory(kept, integrate(gadagrad, dt, 100.0))
        with pytest.raises(StepFailure) as solo:
            integrate(adamssm, dt, 100.0)
        assert isinstance(failure, StepFailure)
        assert str(failure) == str(solo.value)
        assert failure.t == solo.value.t
        for row in range(4):
            assert np.array_equal(failure.state[row], solo.value.state[row])

    def test_stage_and_after_step_exits_in_one_batch(self):
        # zero gradient at x0 = 0: one RK4 stage takes nu below zero in the first step;
        # from x0 = 3 nu lasts until t = 576 and goes below zero after that step
        obj = make_quadratic(1, 1.0)
        problems = [
            preset_flow(kind, preset, obj, np.array([x0]), np.array([1.0]))
            for kind, preset, x0 in [
                (PresetKind.ADAMSSM, ADAMSSM, 0.0), (PresetKind.ADAMSSM, ADAMSSM, 3.0),
                (PresetKind.GADAGRAD, PresetParams(), 1.0),
            ]
        ]
        stage, after, kept = integrate_batch(problems, rk4_step, 96.0, 1920.0)
        for failure, problem, message, t in [
            (stage, problems[0], "stage evaluation left the domain: nu must be positive componentwise at t=48", 0.0),
            (after, problems[1], "integration failed at t=576: nu lost positivity", 576.0),
        ]:
            with pytest.raises(StepFailure) as solo:
                integrate_reference(problem, 96.0, 1920.0)
            assert isinstance(failure, StepFailure)
            assert str(failure) == str(solo.value) == message
            assert failure.t == solo.value.t == t
            assert failure.state.tobytes() == solo.value.state.tobytes()
        assert isinstance(kept, Trajectory) and len(kept) == 21
        assert_same_trajectory(kept, integrate_reference(problems[2], 96.0, 1920.0))

    @pytest.mark.parametrize(
        "integrate, step, x0, k", [(integrate_euler, euler_step, 1e150, 4), (integrate_reference, rk4_step, 1e80, 43)]
    )
    def test_non_finite_state_raises(self, integrate, step, x0, k):
        # f and the gradient norm stay finite while nu overflows at step k
        obj = make_quadratic(2, 100.0)
        diverging, kept = (
            preset_flow(PresetKind.ADABELIEF, PresetParams(), obj, [x, x], [1.0, 1.0]) for x in (x0, 1.0)
        )
        message = f"diverged at iteration {k}: the state is not finite"
        with pytest.raises(StepFailure) as solo:
            integrate(diverging, 10.0, 500.0)
        got, failure = integrate_batch([kept, diverging], step, 10.0, 500.0)
        assert str(solo.value) == message
        assert solo.value.t == k * 10.0
        assert np.isfinite(solo.value.state[0]).all() and not np.isfinite(solo.value.state).all()
        assert isinstance(failure, StepFailure) and str(failure) == message and failure.t == solo.value.t
        assert failure.state.tobytes() == solo.value.state.tobytes()
        assert_same_trajectory(got, integrate(kept, 10.0, 500.0))

    @pytest.mark.parametrize("stride", [1, 10])
    def test_non_finite_f_leaves_at_that_record(self, stride):
        # f = x^2 / 2 overflows at the first record while the state is finite
        obj = make_quadratic(1, 1.0)
        diverging, kept = (
            preset_flow(PresetKind.GADAGRAD, PresetParams(), obj, [x], [1.0]) for x in (1e155, 1.0)
        )
        message = "diverged at iteration 0: f or the gradient norm is not finite"
        with pytest.raises(StepFailure) as solo:
            integrate_reference(diverging, 0.01, 1.0, stride)
        got, failure = integrate_batch([kept, diverging], rk4_step, 0.01, 1.0, stride)
        for raised in (solo.value, failure):
            assert isinstance(raised, StepFailure) and str(raised) == message
            assert raised.t == 0.0
            assert raised.state.tobytes() == np.array([[1e155], [0.0], [0.0], [1.0]]).tobytes()
        assert_same_trajectory(got, integrate_reference(kept, 0.01, 1.0, stride))

    def test_batch_shares_one_objective(self):
        problems = [
            preset_flow(PresetKind.ADAM, PresetParams(), make_quadratic(2, 10.0), np.ones(2), np.ones(2))
            for _ in range(2)
        ]
        with pytest.raises(ValueError, match="one objective"):
            integrate_batch(problems, rk4_step, 0.1, 1.0)
        assert integrate_batch([], rk4_step, 0.1, 1.0) == []


class TestComponentMajorBatch:
    """A batch is one (4, R, d) state, and every rate and mask of its flow
    rule has the full shape of the block it multiplies."""

    def test_rates_have_the_full_shape_of_their_blocks(self):
        obj = make_quadratic(3, 10.0)
        problems = mixed_rate_problems(obj, np.ones(3))
        batch = flow_module._Batch(problems, rk4_step, 0.01)
        # keep no belief row: the mask is all True, at full shape
        no_belief = batch.select(np.array([p.params.psi_kind is PsiKind.SQUARED_GRADIENT for p in problems]))
        squared = no_belief.squared
        assert squared.shape == (5, 3) and squared.flags.c_contiguous and squared.dtype == bool and squared.all()
        for keep in (None, np.array([True, False, True, True, True, True])):
            if keep is not None:
                batch = batch.select(keep)
            r = len(batch.problems)
            arrays = {
                "coef": batch.coef,
                "l6": batch.l6,
                "squared": batch.squared,
                "alpha_block": batch.alpha_block(0.3),
            }
            for name, array in arrays.items():
                shape = (8, r, 3) if name == "coef" else (r, 3)
                assert array.shape == shape and array.flags.c_contiguous, name
        assert r == 5

    def test_deriv_leaves_its_inputs_unchanged(self, rng):
        # the kernel takes its own copies of the state's rows and works on
        # them in place: nothing writes through to the state or gradients
        obj = make_quadratic(3, 10.0)
        batch = flow_module._Batch(mixed_rate_problems(obj, np.ones(3)), rk4_step, 0.01)
        assert batch.squared is not None and batch.squared.any()
        s = np.abs(rng.standard_normal((4, 6, 3))) + 0.1
        g = rng.standard_normal((6, 3))
        before = s.tobytes(), g.tobytes()
        for grads in (g, None):
            d = batch.deriv(s, 0.3, grads)
            assert (s.tobytes(), g.tobytes()) == before
            assert not np.shares_memory(d, s) and not np.shares_memory(d, g)

    @pytest.mark.parametrize("step, dt", [(euler_step, 50.0), (rk4_step, 100.0)])
    def test_a_leaving_row_owns_its_failure_state(self, step, dt):
        # nu leaves its domain after an Euler step and inside an RK4 stage
        obj = make_quadratic(1, 1.0)
        problems = [
            preset_flow(kind, preset, obj, np.array([0.0]), np.array([1.0]))
            for kind, preset in [(PresetKind.GADAGRAD, PresetParams()), (PresetKind.ADAMSSM, ADAMSSM)]
        ]
        _, failure = integrate_batch(problems, step, dt, t_end=100.0)
        assert_owned_state(failure, 1)

    def test_a_diverging_row_owns_its_failure_state(self):
        obj = make_quadratic(2, 100.0)
        problems = [preset_flow(PresetKind.ADABELIEF, PresetParams(), obj, [x, x], [1.0, 1.0]) for x in (1.0, 1e80)]
        _, failure = integrate_batch(problems, rk4_step, 10.0, 500.0)
        assert_owned_state(failure, 2)


def assert_owned_state(failure, dim: int):
    """failure is a StepFailure whose state is a C-contiguous (4, dim) array
    of its own, not a view that keeps a batch alive."""
    assert isinstance(failure, StepFailure)
    state = failure.state
    assert state.shape == (4, dim) and state.flags.c_contiguous and state.base is None


def mixed_rate_problems(obj, x0) -> list[FlowProblem]:
    """Flows in four groups of alpha_g rates: adam and adabelief (the belief
    row) share (b1, b2, c); adamssm at other rates and a raw row weighting
    both mu and the gradient (lambda7, lambda8 > 0) have one each; the
    gadagrad rows at c = 0.5 and 0.3 have lambda7 = 0."""
    presets = [
        (PresetKind.ADAM, PresetParams()),
        (PresetKind.ADAMSSM, PresetParams(b1=0.5, b2=0.01, b3=0.02)),
        (PresetKind.GADAGRAD, PresetParams(c=0.5)),
        (PresetKind.GADAGRAD, PresetParams(c=0.3)),
        (PresetKind.ADABELIEF, PresetParams()),
    ]
    raw = validate_params(OptimizerParams(0.6, 0.5, 0.02, 0.01, 0.03, 0.02, 1.0, 0.5, 0.4))
    nu0 = np.ones(obj.dim)
    return [preset_flow(kind, preset, obj, x0, nu0) for kind, preset in presets] + [FlowProblem(obj, raw, x0, nu0)]


def assert_equals_oracle(traj: Trajectory, problem: FlowProblem, dt: float, n_steps: int, stride: int, rk4: bool):
    """Every record of a Rosenbrock flow, its time, state and alpha, equals
    the general flow oracle's bit for bit."""
    p = problem.params
    lam = lam_dict(p)
    expected = general_flow_run(
        problem.x0, problem.nu0, lam, p.c, ORACLE_PSI[p.psi_kind], rosenbrock_grad, dt, n_steps, rk4
    )
    steps = [*range(0, n_steps, stride), n_steps]
    assert list(traj.times) == [k * dt for k in steps]
    assert traj.alpha_values.tobytes() == np.array([general_alpha(k * dt, lam, p.c) for k in steps]).tobytes()
    assert traj.states.tobytes() == np.array([expected[k] for k in steps]).tobytes()


class TestRateGroups:
    """Rows at different rates share a batch: alpha_g runs once per group of
    rows sharing its rates and per time, and every row still equals the
    oracle bit for bit."""

    @pytest.mark.parametrize("step, rk4", [(euler_step, False), (rk4_step, True)])
    def test_rows_equal_the_oracle(self, step, rk4):
        problems = mixed_rate_problems(make_rosenbrock(2), np.array([-1.2, 1.0]))
        for problem, traj in zip(problems, integrate_batch(problems, step, 0.01, 1.0, record_stride=7)):
            assert_equals_oracle(traj, problem, 0.01, 100, 7, rk4)

    @pytest.mark.parametrize(
        "integrate, step, rk4", [(integrate_euler, euler_step, False), (integrate_reference, rk4_step, True)]
    )
    def test_rows_equal_the_oracle_after_a_row_leaves(self, integrate, step, rk4):
        # an accumulator (lambda7 = 0) adding g^2 ~ 1e307 to nu0 = 1.75e308
        # overflows nu at step 47; the rows after it move up in the batch
        obj = make_rosenbrock(2)
        problems = mixed_rate_problems(obj, np.array([-1.2, 1.0]))
        accumulator = validate_params(OptimizerParams(1.0, 1.0, 0.01, 0.0, 0.0, 1.0, 0.0, 1.0, 0.5))
        leaving = FlowProblem(obj, accumulator, np.array([2e50, 1.0]), np.full(2, 1.75e308))
        results = integrate_batch([problems[0], leaving, *problems[1:]], step, 0.01, 1.0, record_stride=7)
        with pytest.raises(StepFailure) as solo:
            integrate(leaving, 0.01, 1.0, record_stride=7)
        failure = results.pop(1)
        assert isinstance(failure, StepFailure) and str(failure) == str(solo.value)
        assert failure.t == solo.value.t == 47 * 0.01
        for problem, traj in zip(problems, results):
            assert_equals_oracle(traj, problem, 0.01, 100, 7, rk4)

    def test_alpha_once_per_group_and_time(self, monkeypatch):
        calls = {"alpha_g": 0}

        def counted_alpha(t, params):
            calls["alpha_g"] += 1
            return alpha_g(t, params)

        monkeypatch.setattr(flow_module, "alpha_g", counted_alpha)
        obj, grad_calls = counted_grad_objective()
        problems = [preset_flow(kind, preset, obj, np.array([-1.2, 1.0]), np.ones(2)) for kind, preset in FIVE_PRESETS]
        n, stride = 60, 7
        results = integrate_batch(problems, rk4_step, 0.01, n * 0.01, record_stride=stride)
        records = len(range(0, n + 1, stride)) + (n % stride != 0)
        assert [len(traj) for traj in results] == [records] * 5
        # the four moment presets share (b1, b2, c); gadagrad has lambda7 = 0
        groups = 2
        assert calls["alpha_g"] <= groups * (2 * n + records + 1)
        # four RK4 stages per step, the first of a recorded step taking the
        # record's gradients, and one more at the final record; a record
        # evaluates f and the gradient in one fused call
        assert grad_calls[0] == 4 * n + 1
        assert grad_calls[1] == records

    @pytest.mark.parametrize("step, per_step", [(euler_step, 1), (rk4_step, 4)])
    def test_a_record_every_step_evaluates_each_gradient_once(self, step, per_step):
        obj, grad_calls = counted_grad_objective()
        problem = preset_flow(PresetKind.ADAMSSM, ADAMSSM, obj, np.array([-1.2, 1.0]), np.ones(2))
        n = 40
        (traj,) = integrate_batch([problem], step, 0.01, n * 0.01, record_stride=1)
        assert len(traj) == n + 1
        assert grad_calls[0] == per_step * n + 1
        assert grad_calls[1] == n + 1
        assert_equals_oracle(traj, problem, 0.01, n, 1, step is rk4_step)


def counted_grad_objective():
    """2-D Rosenbrock that counts its gradients: calls[0] counts eval_grad
    and eval_f_grad together, calls[1] eval_f_grad alone."""
    obj = make_rosenbrock(2)
    calls = [0, 0]

    def counted(fused, fn):
        def wrapped(x):
            calls[0] += 1
            calls[1] += fused
            return fn(x)

        return wrapped

    counted_obj = dataclasses.replace(obj, eval_grad=counted(0, obj.eval_grad), eval_f_grad=counted(1, obj.eval_f_grad))
    return counted_obj, calls


def scripted_objective(script, row_ids=None):
    """A 2-D objective that hands back scripted values: the i-th evaluation
    of row r gives f script[r][0][i] and the gradient (script[r][1][i], 0).

    row_ids(x) names the rows of a batch x; by default they are the rows not
    yet ended by a non-finite f or gradient, in order, as a discrete batch
    keeps them. eval_grad, which only the stages of an unrecorded flow step
    call, is zero.
    """
    evaluated = [0] * len(script)
    live = list(range(len(script)))

    def f_grad(x):
        rows = live if row_ids is None else row_ids(x)
        assert len(rows) == len(x)
        f = np.array([script[r][0][evaluated[r]] for r in rows], dtype=float)
        g = np.zeros_like(x)
        g[:, 0] = [script[r][1][evaluated[r]] for r in rows]
        for r in rows:
            evaluated[r] += 1
        if row_ids is None:
            live[:] = [r for r, fr, gr in zip(rows, f, g[:, 0]) if np.isfinite(fr) and np.isfinite(gr)]
        return f, g

    return Objective(2, eval_f=None, eval_grad=np.zeros_like, eval_f_grad=f_grad)


def assert_reports_equal_the_oracle(outcomes, script, threshold, box, dt=1.0, flow=False):
    """Each (trajectory, report) of outcomes, of one step per dt, has the
    report that oracles.run_summary reads from its row's scripted values at
    its recorded steps, every field bit for bit (repr tells -0.0 from 0.0)."""
    wants = []
    for (traj, report), (fs, gs) in zip(outcomes, script):
        n = len(traj)
        norms = [float(np.linalg.norm([g, 0.0])) for g in gs[:n]]
        assert traj.f_values.tobytes() == np.array(fs[:n], dtype=float).tobytes()
        want = run_summary([round(t / dt) for t in traj.times], fs[:n], norms, traj.states, threshold, box, flow)
        got = dataclasses.asdict(report)
        del got["optimizer"]
        assert repr(got) == repr(want)
        wants.append(want)
    return wants


INF, NAN = float("inf"), float("nan")
ONES = [1.0] * 11
# Per discrete row, its scripted f values and gradients at iterations 0..10.
DISCRETE_SCRIPT = [
    # a best-f tie split across the fold after iteration 2
    ([3.0, 2.0, 5.0, 2.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0], ONES),
    # 0.0 then -0.0 across that fold; first below threshold in a block's first column
    ([1.0, 5.0, 0.0, -0.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0], [1.0, 1.0, 1.0, 1e-6, 1.0, 1e-6, 1, 1, 1, 1, 1]),
    # 0.0 then -0.0 in one block; below threshold at one iteration only
    ([1.0, 0.0, -0.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0], [1.0, 1.0, 1e-5, 1.0, 1, 1, 1, 1, 1, 1, 1]),
    # -0.0 then 0.0
    ([-0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], ONES),
    # leaves mid-block: f is inf at iteration 4
    ([5.0, 4.0, 3.0, 2.0, INF, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], ONES),
    # leaves mid-block: the gradient is NaN at iteration 7
    ([10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0], [1.0] * 7 + [NAN] + [1.0] * 3),
    # best f at the last iteration; the heavy ball leaves the box at iteration 1
    ([10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.5], [-100.0] * 11),
]
DISCRETE_KINDS = ["adam", "adamssm", "gadagrad", "adabelief", "adam", "adabeliefssm", "sgd_momentum"]
# Per flow row, its scripted f values and gradients at its evaluations 0..10.
FLOW_SCRIPT = [
    DISCRETE_SCRIPT[0],
    DISCRETE_SCRIPT[1],
    # its recorded f is inf at evaluation 4
    DISCRETE_SCRIPT[4],
    DISCRETE_SCRIPT[3],
    # starts outside the box
    ([10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.5], [0.5] * 11),
    # nu overflows in the step after evaluation 2, and the state ends the flow
    # at the next step, recorded or not, while the other rows go on
    ([4.0, 3.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1e154] + [1.0] * 8),
]


class TestSummaryOracle:
    """Every report of a batch, discrete or flow, equals the sequential
    oracle read from its row's values, with the summary store folding its
    blocks every three columns: ties, signed zeros and threshold hits split
    across folds, rows that leave mid-block, and runs that end on a full
    block and on a partial one."""

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_discrete_reports_equal_the_oracle(self, n, monkeypatch):
        monkeypatch.setattr(flow_module.RunStore, "K", 3, raising=False)
        specs = [
            OptimizerSpec(kind, f"{kind}{i}", PresetParams(b3=0.02, eta=0.1), beta=0.0)
            for i, kind in enumerate(DISCRETE_KINDS)
        ]
        reports = []
        for stride in (1, 4):
            outcomes = run_discrete_batch(specs, scripted_objective(DISCRETE_SCRIPT), np.ones(2), n, record_stride=stride)
            reports.append([report for _, report in outcomes])
            if stride == 1:
                wants = assert_reports_equal_the_oracle(outcomes, DISCRETE_SCRIPT, 1e-4, 5.0)
        # the summary reads every iteration, recorded or not
        assert repr(reports[0]) == repr(reports[1])
        assert [w["epoch_of_best"] for w in wants] == [1, 2, 1, 0, 0, 0, n]
        assert [repr(w["best_f"]) for w in wants[1:4]] == ["0.0", "0.0", "-0.0"]
        assert [w["iters_to_threshold"] for w in wants[:3]] == [None, 3, 2]
        assert [w["diagnostics"].get("diverged_at") for w in wants[4:6]] == [4, 7]
        assert wants[6]["diagnostics"] == {"stayed_in_box": False}

    @pytest.mark.parametrize("n", [8, 9, 10])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_flow_reports_equal_the_oracle(self, n, stride, monkeypatch):
        # x[1] stays at the row's index, as its gradient is 0 there
        monkeypatch.setattr(flow_module.RunStore, "K", 3, raising=False)
        obj = scripted_objective(FLOW_SCRIPT, row_ids=lambda x: x[:, 1].astype(int).tolist())
        problems = [
            preset_flow(kind, preset, obj, [6.0 if r == 4 else 1.0, float(r)], [1.0, 1.0])
            for r, (kind, preset) in enumerate([FIVE_PRESETS[0], FIVE_PRESETS[1]] * 2 + [FIVE_PRESETS[0]] * 2)
        ]
        names = [f"flow{r}" for r in range(len(problems))]
        outcomes = flow_module._integrate_rows(problems, names, euler_step, 2.0, 2.0 * n, stride, 1e-4)
        wants = assert_reports_equal_the_oracle(outcomes, FLOW_SCRIPT, 1e-4, 5.0, dt=2.0, flow=True)
        evaluated = [*range(0, n, stride), n]
        assert wants[2]["diagnostics"].get("diverged_at") == (evaluated[4] if len(evaluated) > 4 else None)
        assert wants[4]["diagnostics"]["stayed_in_box"] is False
        assert wants[5]["diagnostics"]["error"] == f"diverged at iteration {evaluated[2] + 1}: the state is not finite"
        assert [w["epoch_of_best"] for w in wants[:2]] == [evaluated[1], evaluated[2]]


class TestOneReductionCheck:
    """RunStore.add tests f and the gradient norm for finiteness with one
    reduction, the sum of f * grad_norm, which is finite when both are
    unless it overflows; only then does it check row by row. numpy's vdot
    sets no floating-point warning, which this suite (pyproject.toml) turns
    into an error."""

    def test_rows_whose_products_overflow_go_on(self):
        # f * grad_norm is 1e310 and -1e310 on the first two rows, though both
        # are finite: the sum is inf - inf, and the row check finds no row
        # to end, so each report is the oracle's, as the per-row maximum of
        # |f| and the gradient norm gave; the last row ends at iteration 4
        script = [([1e300] * 11, [1e10] * 11), ([-1e300] * 11, [1e10] * 11)]
        script += [*DISCRETE_SCRIPT[:2], DISCRETE_SCRIPT[4]]
        specs = [OptimizerSpec("adam", f"adam{i}", PresetParams(eta=0.1)) for i in range(len(script))]
        outcomes = run_discrete_batch(specs, scripted_objective(script), np.ones(2), 10)
        wants = assert_reports_equal_the_oracle(outcomes, script, 1e-4, 5.0)
        assert [w["diagnostics"].get("diverged_at") for w in wants] == [None] * 4 + [4]
        assert [w["best_f"] for w in wants[:2]] == [1e300, -1e300]

    def test_no_non_finite_value_slips_through(self, rng):
        values = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0, -2.5, 1e300, -1e300, 5e-324])
        for _ in range(400):
            n = int(rng.integers(1, 40))
            f = rng.choice(values, n)
            grad_norm = np.abs(rng.choice(values, n))
            store = flow_module.RunStore(n, 1, 1, 1e-4)
            got = store.add(np.arange(n), 3, np.zeros((4, n, 1)), f, grad_norm)
            want = ~(np.isfinite(f) & np.isfinite(grad_norm))
            assert (None if got is None else got.tolist()) == (want.tolist() if want.any() else None)
            assert store.diverged_at.tolist() == np.where(want, 3, -1).tolist()


class TestClosedBox:
    """RunStore.add flags a row whose x leaves the closed box [-BOX, BOX]^d:
    a coordinate at the edge stays in, one ulp past it or NaN does not."""

    def test_edge_stays_in_and_past_or_nan_leaves(self):
        past = np.nextafter(BOX, np.inf)
        states = np.zeros((4, 4, 2))
        states[0] = [[BOX, -BOX], [past, 0.0], [0.0, np.nan], [-past, 1.0]]
        store = flow_module.RunStore(4, 2, 1, 1e-4)
        assert store.add(np.arange(4), 1, states, np.ones(4), np.ones(4)) is None
        assert store.stayed_in_box.tolist() == [True, False, False, False]


class TestTrajectoryCsv:
    def small_trajectory(self) -> Trajectory:
        states = np.array([
            [[1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.25]],
            [[0.5, -1.5], [0.1, 0.2], [0.01, 0.02], [0.3, 0.125]],
        ])
        return Trajectory(
            times=np.array([0.0, 1.0]),
            states=states,
            f_values=np.array([1.5, 0.75]),
            grad_norms=np.array([2.0, 1.0]),
            alpha_values=np.array([1.0, 0.9]),
        )

    def test_exact_layout(self, tmp_path):
        # the third row pins repr of a signed zero, a tiny value near the
        # underflow range, a large integral float and an inexact sum
        traj = self.small_trajectory()
        traj.times = np.array([0.0, 1.0, 2.0])
        traj.states = np.append(
            traj.states, [[[-0.0, 1e-300], [1.5e16, 0.1 + 0.2], [0.0, -0.0], [1e-300, 0.0]]], axis=0
        )
        traj.f_values = np.array([1.5, 0.75, 0.1 + 0.2])
        traj.grad_norms = np.array([2.0, 1.0, 1.5e16])
        traj.alpha_values = np.array([1.0, 0.9, -0.0])
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        expected = (
            "t,f,grad_norm,alpha,x_0,x_1,mu_0,mu_1,zeta_0,zeta_1,nu_0,nu_1\n"
            "0.0,1.5,2.0,1.0,1.0,2.0,0.0,0.0,0.0,0.0,0.5,0.25\n"
            "1.0,0.75,1.0,0.9,0.5,-1.5,0.1,0.2,0.01,0.02,0.3,0.125\n"
            "2.0,0.30000000000000004,1.5e+16,-0.0,-0.0,1e-300,1.5e+16,0.30000000000000004,0.0,-0.0,1e-300,0.0\n"
        )
        assert path.read_text() == expected

    def test_round_trip_precision(self, tmp_path):
        obj = make_quadratic(2, 10.0)
        problem = preset_flow(PresetKind.ADAM, PresetParams(), obj, np.ones(2), np.ones(2))
        traj = integrate_reference(problem, dt=0.1, t_end=2.0)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 0], traj.times)
        assert np.array_equal(rows[:, 4:6], traj.states[:, 0])

    def test_negative_nu_rejected(self, tmp_path):
        traj = self.small_trajectory()
        traj.states[1] = [[0.5, -1.5], [0.1, 0.2], [0.01, 0.02], [-0.3, 0.125]]
        with pytest.raises(ValueError, match="negative nu"):
            traj.to_csv(tmp_path / "bad.csv")

    def test_zero_nu_accepted(self, tmp_path):
        # discrete runs legitimately start from a zero second moment
        traj = self.small_trajectory()
        traj.states[0] = [[1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        traj.to_csv(tmp_path / "ok.csv")

    def test_time_ordering_enforced(self, tmp_path):
        traj = self.small_trajectory()
        traj.times = np.array([0.0, 0.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            traj.to_csv(tmp_path / "bad.csv")

    def test_length_mismatch_rejected(self, tmp_path):
        traj = self.small_trajectory()
        traj.times = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="lengths differ"):
            traj.to_csv(tmp_path / "bad.csv")
        traj = self.small_trajectory()
        traj.f_values = np.array([1.5])
        with pytest.raises(ValueError, match="lengths differ"):
            traj.to_csv(tmp_path / "bad.csv")

    def test_helpers(self):
        traj = self.small_trajectory()
        assert len(traj) == 2


class TestEnergyResidual:
    def gadagrad_problem(self, x0=1.0, nu0=1.0):
        obj = make_quadratic(1, 1.0)
        return preset_flow(
            PresetKind.GADAGRAD, PresetParams(c=0.5), obj, np.array([x0]), np.array([nu0])
        )

    def test_first_entry_exactly_zero(self):
        problem = self.gadagrad_problem()
        traj = integrate_reference(problem, dt=0.01, t_end=2.0)
        residual = gadagrad_energy_residual(traj, problem)
        assert residual[0] == 0.0

    def test_reference_run_closes_the_balance(self):
        problem = self.gadagrad_problem()
        traj = integrate_reference(problem, dt=1e-3, t_end=5.0)
        residual = gadagrad_energy_residual(traj, problem)
        assert float(np.max(np.abs(residual))) < 1e-5

    def test_euler_residual_shrinks_linearly(self):
        problem = self.gadagrad_problem()
        maxes = []
        for dt in (0.01, 0.005):
            traj = integrate_euler(problem, dt=dt, t_end=5.0)
            maxes.append(float(np.max(np.abs(gadagrad_energy_residual(traj, problem)))))
        assert 1.5 < maxes[0] / maxes[1] < 3.0

    def test_requires_accumulator_pattern(self):
        obj = make_quadratic(1, 1.0)
        adam_params = map_preset_to_general(PresetParams(), PresetKind.ADAM)
        problem = FlowProblem(obj, adam_params, np.array([1.0]), np.array([1.0]))
        traj = integrate_reference(problem, dt=0.1, t_end=1.0)
        with pytest.raises(ValidationError) as err:
            gadagrad_energy_residual(traj, problem)
        assert err.value.violations == ["lambda5 == 0.0", "lambda6 == 1.0", "lambda7 == 0.0", "lambda8 == 1.0"]

    def test_requires_squared_gradient_input(self):
        obj = make_quadratic(1, 1.0)
        params = OptimizerParams(
            lambda1=1.0, lambda2=1.0, lambda3=1.0, lambda4=0.0, lambda5=0.0,
            lambda6=1.0, lambda7=0.0, lambda8=1.0, c=0.5, psi_kind=PsiKind.BELIEF,
        )
        problem = FlowProblem(obj, params, np.array([1.0]), np.array([1.0]))
        traj = integrate_euler(problem, dt=0.1, t_end=1.0)
        with pytest.raises(ValidationError) as err:
            gadagrad_energy_residual(traj, problem)
        assert err.value.violations == ["psi squared gradient"]

    def test_requires_fractional_exponent(self):
        obj = make_quadratic(1, 1.0)
        params = OptimizerParams(
            lambda1=1.0, lambda2=1.0, lambda3=1.0, lambda4=0.0, lambda5=0.0,
            lambda6=1.0, lambda7=0.0, lambda8=1.0, c=1.0,
        )
        problem = FlowProblem(obj, params, np.array([1.0]), np.array([1.0]))
        traj = integrate_euler(problem, dt=0.1, t_end=1.0)
        with pytest.raises(ValidationError) as err:
            gadagrad_energy_residual(traj, problem)
        assert err.value.violations == ["0 < c < 1"]


class TestInitialState:
    def test_moments_zeroed(self):
        state = initial_stepper_state(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        assert state.shape == (4, 2)
        assert np.array_equal(state[1], np.zeros(2))

    def test_random_presets_integrate_cleanly(self, rng):
        obj = make_quadratic(2, 10.0)
        for _ in range(5):
            preset = random_valid_adamssm_preset(rng)
            problem = preset_flow(PresetKind.ADAMSSM, preset, obj, np.ones(2), np.ones(2))
            traj = integrate_reference(problem, dt=0.05, t_end=2.0, record_stride=10)
            assert np.all(np.isfinite(traj.f_values))
