"""Unit tests for the continuous-time flows, integrators, trajectory
artifacts, and the accumulator energy diagnostic."""

import numpy as np
import pytest

from ssmopt import (
    DomainError,
    FlowProblem,
    OptimizerParams,
    PresetKind,
    PresetParams,
    PresetMismatch,
    PsiKind,
    StepFailure,
    Trajectory,
    ValidationError,
    gadagrad_energy_residual,
    initial_stepper_state,
    integrate_euler,
    integrate_reference,
    make_logistic,
    make_quadratic,
    make_rosenbrock,
    map_preset_to_general,
    preset_flow,
    rhs_general,
)
from ssmopt.flow import euler_step, integrate_batch, rk4_step
from samplers import random_valid_adamssm_preset, random_valid_params
from oracles import adam_rhs, general_flow_run, general_rhs

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
    """One of the three shipped objectives with a starting point off its minimum."""
    if name == "quadratic":
        return make_quadratic(2, 100.0), np.ones(2)
    if name == "rosenbrock":
        return make_rosenbrock(2), np.array([-1.2, 1.0])
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
        with pytest.raises(DomainError):
            rhs_general(bad, 0.0, problem)


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
        for x in traj.x_matrix():
            assert np.array_equal(x, np.zeros(2))
        traj = integrate_reference(problem, dt=0.1, t_end=5.0)
        for x in traj.x_matrix():
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
        with pytest.raises(ValueError):
            integrate_euler(problem, dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            integrate_reference(problem, dt=1.0, t_end=0.5)
        for integrate in (integrate_euler, integrate_reference):
            with pytest.raises(ValueError, match="t_end must be a whole number of dt steps"):
                integrate(problem, dt=0.3, t_end=1.0)

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
        with pytest.raises(DomainError):
            FlowProblem(obj, params, np.ones(2), np.zeros(2))


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
    @pytest.mark.parametrize("objective", ["quadratic", "rosenbrock", "logistic"])
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

    def test_batch_shares_one_objective(self):
        problems = [
            preset_flow(PresetKind.ADAM, PresetParams(), make_quadratic(2, 10.0), np.ones(2), np.ones(2))
            for _ in range(2)
        ]
        with pytest.raises(ValueError, match="one objective"):
            integrate_batch(problems, rk4_step, 0.1, 1.0)
        assert integrate_batch([], rk4_step, 0.1, 1.0) == []


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
        assert np.array_equal(rows[:, 4:6], traj.x_matrix())

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
        assert traj.x_matrix().shape == (2, 2)


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
        with pytest.raises(PresetMismatch):
            gadagrad_energy_residual(traj, problem)

    def test_requires_squared_gradient_input(self):
        obj = make_quadratic(1, 1.0)
        params = OptimizerParams(
            lambda1=1.0, lambda2=1.0, lambda3=1.0, lambda4=0.0, lambda5=0.0,
            lambda6=1.0, lambda7=0.0, lambda8=1.0, c=0.5, psi_kind=PsiKind.BELIEF,
        )
        problem = FlowProblem(obj, params, np.array([1.0]), np.array([1.0]))
        traj = integrate_euler(problem, dt=0.1, t_end=1.0)
        with pytest.raises(PresetMismatch):
            gadagrad_energy_residual(traj, problem)

    def test_requires_fractional_exponent(self):
        obj = make_quadratic(1, 1.0)
        params = OptimizerParams(
            lambda1=1.0, lambda2=1.0, lambda3=1.0, lambda4=0.0, lambda5=0.0,
            lambda6=1.0, lambda7=0.0, lambda8=1.0, c=1.0,
        )
        problem = FlowProblem(obj, params, np.array([1.0]), np.array([1.0]))
        traj = integrate_euler(problem, dt=0.1, t_end=1.0)
        with pytest.raises(PresetMismatch):
            gadagrad_energy_residual(traj, problem)


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
