"""Acceptance suite: one test per advertised guarantee of the library.

Each test certifies a single end-to-end property at its stated tolerance and
prints one PASS line on success (run with -v for pytest's own per-test line).
The checks are intentionally independent of the unit tests: expected values
come from frozen hand calculations, independent oracle transcriptions in
oracles.py, or self-convergence measurements.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from samplers import random_valid_adamssm_preset
from oracles import algorithm_flow_run, algorithm_paper_run, taylor_expm
from ssmopt import (
    FlowProblem,
    OptimizerParams,
    PresetKind,
    PresetParams,
    SecondMomentLTI,
    Trajectory,
    ValidationError,
    adamssm_tf,
    cli,
    dc_gain,
    finite_diff_grad,
    gadagrad_energy_residual,
    initial_stepper_state,
    integrate_batch,
    integrate_euler,
    integrate_reference,
    make_logistic,
    make_quadratic,
    make_rosenbrock,
    map_preset_to_general,
    poles_zeros,
    preset_flow,
    rhs_general,
    rk4_step,
    state_transition_entries,
    step_preset,
    validate_params,
    validate_preset,
)
from ssmopt.discrete import BIAS_MODES
from ssmopt.objectives import BOX

REPO_ROOT = Path(__file__).resolve().parents[1]

# Reference pole locations of the second-moment transfer function at the
# default rates b2 = 0.0067, b3 = 0.02, frozen from an independent closed-form
# evaluation (roots of s^2 + (2*b2 + b3)*s + b2^2).
POLE_FAST = -0.031997058540778
POLE_SLOW = -0.001402941459222

GENERAL_BASE = OptimizerParams(
    lambda1=1.0,
    lambda2=1.0,
    lambda3=1.0,
    lambda4=0.0,
    lambda5=0.0,
    lambda6=1.0,
    lambda7=0.0,
    lambda8=1.0,
    c=0.5,
)
ADAM_BASE = map_preset_to_general(PresetParams(), PresetKind.ADAM)


def full_state(s) -> np.ndarray:
    return s.ravel()


def fit_slope(dts, errors) -> float:
    return float(np.polyfit(np.log(dts), np.log(errors), 1)[0])


def test_c01_zero_coupling_reduction_identity(rng):
    """b3 = 0 collapses the two-state method onto its one-state member,
    bitwise, in both the discrete stepper and the flow right-hand side."""
    obj = make_quadratic(3, 10.0)
    for _ in range(100):
        preset = replace(random_valid_adamssm_preset(rng), b3=0.0)
        state = initial_stepper_state(rng.uniform(-2, 2, 3), rng.uniform(0.1, 2.0, 3))
        k = int(rng.integers(0, 200))
        grad = rng.standard_normal(3)
        mode = BIAS_MODES[rng.integers(0, len(BIAS_MODES))]
        a = step_preset(state, grad, preset.eta, k, PresetKind.ADAMSSM, preset, mode)
        b = step_preset(state, grad, preset.eta, k, PresetKind.ADAM, preset, mode)
        assert a.shape == b.shape == (4, 3)
        for row in range(4):
            assert np.array_equal(a[row], b[row])

        params_two = map_preset_to_general(preset, PresetKind.ADAMSSM)
        params_one = map_preset_to_general(preset, PresetKind.ADAM)
        assert params_two == params_one
        assert map_preset_to_general(preset, PresetKind.ADABELIEFSSM) == map_preset_to_general(
            preset, PresetKind.ADABELIEF
        )
        flow_state = np.array((
            rng.uniform(-2, 2, 3),
            rng.standard_normal(3),
            rng.uniform(0, 1, 3),
            rng.uniform(0.1, 2.0, 3),
        ))
        t = float(rng.uniform(0, 10))
        d_two = rhs_general(flow_state, t, FlowProblem(obj, params_two, np.ones(3), np.ones(3)))
        d_one = rhs_general(flow_state, t, FlowProblem(obj, params_one, np.ones(3), np.ones(3)))
        for got, want in zip(d_two, d_one):
            assert np.array_equal(got, want)
    print("criterion 1 (zero-coupling reduction identity): PASS")


def test_c02_accumulator_energy_certificate():
    """The accumulator flow satisfies its closed-form energy balance along a
    tightly integrated trajectory to better than 1e-6."""
    obj = make_quadratic(1, 1.0)
    problem = preset_flow(PresetKind.GADAGRAD, PresetParams(), obj, np.array([1.0]), np.array([1.0]))
    traj = integrate_reference(problem, 1e-4, 5.0)
    residual = gadagrad_energy_residual(traj, problem)
    worst = float(np.max(np.abs(residual)))
    assert residual[0] == 0.0
    assert worst < 1e-6
    print(f"criterion 2 (energy certificate, max residual {worst:.3e}): PASS")


def test_c03_second_moment_pole_locations(rng):
    """The second-moment transfer function is Hurwitz for every valid preset,
    and at the default rates its poles sit at the reference locations."""
    for _ in range(10_000):
        preset = random_valid_adamssm_preset(rng)
        poles, _ = poles_zeros(adamssm_tf(preset.b2, preset.b3))
        assert all(p.real < 0 for p in poles)
    tf = adamssm_tf(0.0067, 0.02)
    poles, zeros = poles_zeros(tf)
    assert abs(poles[0] - POLE_FAST) < 1e-6
    assert abs(poles[1] - POLE_SLOW) < 1e-6
    assert abs(zeros[0] - (-0.0067)) < 1e-12
    assert dc_gain(tf) == 1.0
    print("criterion 3 (pole locations and stability): PASS")


def test_c04_state_transition_matches_matrix_exponential(rng):
    """Closed-form transition entries agree with an independent matrix
    exponential to 1e-10 relative across random rate combinations."""
    for _ in range(100):
        l3 = rng.uniform(0.05, 0.8)
        l4 = rng.uniform(0.0, 0.6)
        lti = SecondMomentLTI(lambda3=l3, lambda4=l4, lambda5=rng.uniform(l4, l4 + 0.8))
        t = rng.uniform(0.2, 5.0)
        expm = taylor_expm(lti.A * t)
        phi12, phi22 = state_transition_entries(lti, t)
        assert abs(phi12 - expm[0, 1]) < 1e-10 * max(abs(expm[0, 1]), 1e-14)
        assert abs(phi22 - expm[1, 1]) < 1e-10 * abs(expm[1, 1])
    print("criterion 4 (state-transition closed form): PASS")


def test_c05_integrator_convergence_orders():
    """The forward-Euler integrator converges at first order and the
    Runge-Kutta integrator at fourth order on a smooth flow."""
    obj = make_quadratic(2, 10.0)
    problem = preset_flow(PresetKind.ADAM, PresetParams(), obj, np.ones(2), np.ones(2))
    t_end = 10.0
    ref = integrate_reference(problem, 0.003125, t_end, record_stride=3200)
    ref_final = full_state(ref.states[-1])

    def final_error(integrate, dt):
        traj = integrate(problem, dt, t_end, record_stride=int(round(t_end / dt)))
        return float(np.max(np.abs(full_state(traj.states[-1]) - ref_final)))

    euler_dts = [0.1, 0.05, 0.025, 0.0125]
    euler_slope = fit_slope(euler_dts, [final_error(integrate_euler, dt) for dt in euler_dts])
    rk4_dts = [0.4, 0.2, 0.1, 0.05]
    rk4_slope = fit_slope(rk4_dts, [final_error(integrate_reference, dt) for dt in rk4_dts])
    assert 0.7 < euler_slope < 1.3
    assert 3.5 < rk4_slope < 4.5
    print(
        f"criterion 5 (integrator orders, euler {euler_slope:.3f}, rk4 {rk4_slope:.3f}): PASS"
    )


def test_c06_discrete_steppers_track_the_flow():
    """The steppers reproduce the sequential update loop bitwise under both
    printed and flow-sampled bias corrections, and with eta = delta their
    iterates converge to the flow at first order in delta."""
    obj = make_quadratic(2, 10.0)
    cases = [
        (0.02, "paper", algorithm_paper_run),
        (0.0, "paper", algorithm_paper_run),
        (0.02, "continuous", algorithm_flow_run),
        (0.0, "continuous", algorithm_flow_run),
    ]
    for b3, mode, oracle in cases:
        preset = PresetParams(b3=b3, eta=0.01, epsilon=0.0)
        xs, moments = oracle(
            np.ones(2), np.ones(2), 0.67, 0.0067, b3, 0.15, 0.01, 0.0, obj.eval_grad, 50
        )
        state = initial_stepper_state(np.ones(2), np.ones(2))
        assert np.array_equal(state[0], xs[0])
        for k in range(50):
            grad = obj.eval_grad(state[0])
            state = step_preset(state, grad, preset.eta, k, PresetKind.ADAMSSM, preset, mode)
            assert np.array_equal(state[0], xs[k + 1])
            for got, want in zip(state[1:], moments[k + 1]):
                assert np.array_equal(got, want)

    t_end = 10.0
    deltas = [0.1, 0.05, 0.025, 0.0125]
    slopes = {}
    for label, b3 in (("one-state", 0.0), ("two-state", 0.02)):
        kind = PresetKind.ADAM if b3 == 0.0 else PresetKind.ADAMSSM
        problem = preset_flow(kind, PresetParams(b3=b3), obj, np.ones(2), np.ones(2))
        ref = integrate_reference(problem, 0.003125, t_end, record_stride=3200)
        ref_final = full_state(ref.states[-1])
        errors = []
        for delta in deltas:
            preset = PresetParams(b3=b3, delta=delta, eta=delta, epsilon=0.0)
            state = initial_stepper_state(np.ones(2), np.ones(2))
            for k in range(int(round(t_end / delta))):
                state = step_preset(
                    state, obj.eval_grad(state[0]), preset.eta, k, PresetKind.ADAMSSM, preset, "continuous"
                )
            errors.append(float(np.max(np.abs(full_state(state) - ref_final))))
        slopes[label] = fit_slope(deltas, errors)
        assert 0.7 < slopes[label] < 1.3
    print(
        "criterion 6 (discrete tracks flow, slopes "
        f"{slopes['one-state']:.3f}/{slopes['two-state']:.3f}): PASS"
    )


def test_c07_flows_converge_within_budget():
    """Every preset flow drives the gradient norm below 1e-4 within a fixed
    time budget on all three benchmark objectives, with nu staying positive."""
    quadratic = make_quadratic(2, 100.0)
    rosenbrock = make_rosenbrock(2)
    logistic = make_logistic(5, 40, 0)
    ssm = PresetParams(b3=0.02)
    plain = PresetParams()
    kinds = [
        (PresetKind.GADAGRAD, plain),
        (PresetKind.ADAM, plain),
        (PresetKind.ADABELIEF, plain),
        (PresetKind.ADAMSSM, ssm),
        (PresetKind.ADABELIEFSSM, ssm),
    ]
    budgets = []
    for kind, preset in kinds:
        budgets.append((kind, preset, quadratic, np.ones(2), 0.01, 50.0))
        if kind is PresetKind.GADAGRAD:
            budgets.append((kind, preset, rosenbrock, np.array([0.8, 0.64]), 0.0025, 40.0))
            budgets.append((kind, preset, logistic, np.zeros(5), 0.1, 3200.0))
        else:
            budgets.append((kind, preset, rosenbrock, np.array([0.8, 0.64]), 0.01, 60.0))
            budgets.append((kind, preset, logistic, np.zeros(5), 0.1, 1200.0))
    # one batch per (objective, dt, t_end); each row equals its solo
    # integrate_reference run bitwise (see TestIntegrateBatch)
    groups = {}
    for kind, preset, obj, x0, dt, t_end in budgets:
        groups.setdefault((obj.name, dt, t_end), []).append((kind, preset, obj, x0))
    assert len(groups) == 5
    for (_, dt, t_end), flows in groups.items():
        problems = [preset_flow(kind, preset, obj, x0, np.ones(obj.dim)) for kind, preset, obj, x0 in flows]
        trajs = integrate_batch(problems, rk4_step, dt, t_end, record_stride=10)
        for (kind, _, obj, _), traj in zip(flows, trajs):
            label = f"{kind.value} on {obj.name}"
            assert isinstance(traj, Trajectory), label
            assert float(np.min(traj.grad_norms)) < 1e-4, label
            nu_records = traj.states[:, 3]
            assert np.all(nu_records > 0), label
    print("criterion 7 (convergence budgets, 15 flows): PASS")


def test_c08_parameter_validation_table():
    """Twenty single-violation parameter sets each report exactly their one
    failed condition by name; the five shipped presets validate cleanly."""
    general_rows = [
        (replace(GENERAL_BASE, lambda2=0.0), "lambda2 > 0"),
        (replace(GENERAL_BASE, lambda3=0.0), "lambda3 > 0"),
        (replace(GENERAL_BASE, lambda4=-0.01), "lambda4 >= 0"),
        (replace(ADAM_BASE, lambda4=0.04, lambda5=0.0267), "lambda4 <= lambda5"),
        (replace(GENERAL_BASE, lambda5=4.0), "lambda5 < 2*lambda1/c"),
        (replace(GENERAL_BASE, lambda6=0.0), "lambda6 > 0"),
        (replace(GENERAL_BASE, lambda7=-1.0, lambda8=2.0), "lambda7 >= 0"),
        (replace(ADAM_BASE, lambda8=-0.5), "lambda8 >= 0"),
        (replace(GENERAL_BASE, lambda8=0.0), "lambda7 + lambda8 > 0"),
        (replace(GENERAL_BASE, c=1.0), "0 < c < 1"),
        (replace(GENERAL_BASE, lambda5=100.0, c=0.0), "0 < c < 1"),
        (replace(ADAM_BASE, lambda6=0.7), "lambda6 < lambda2"),
        (replace(ADAM_BASE, lambda2=1.2), "lambda2 < 1"),
    ]
    for params, expected in general_rows:
        with pytest.raises(ValidationError) as err:
            validate_params(params)
        assert err.value.violations == [expected], expected

    preset_rows = [
        (PresetKind.ADAM, PresetParams(b2=0.0), "0 < b2"),
        (PresetKind.ADAM, PresetParams(b1=0.5, b2=0.6), "b2 < b1"),
        (PresetKind.ADAM, PresetParams(b1=0.67, b2=0.67), "b2 < b1"),
        (PresetKind.ADAM, PresetParams(b1=1.0), "b1 < 1"),
        (PresetKind.ADAMSSM, PresetParams(b3=0.0), "b3 > 0"),
        (PresetKind.ADAMSSM, PresetParams(b3=2.68), "b2 + b3 < 4*b1"),
        (PresetKind.GADAGRAD, PresetParams(c=1.0), "0 < c < 1"),
    ]
    for kind, preset, expected in preset_rows:
        with pytest.raises(ValidationError) as err:
            validate_preset(preset, kind)
        assert err.value.violations == [expected], expected

    for kind in PresetKind:
        preset = (
            PresetParams(b3=0.02)
            if kind in (PresetKind.ADAMSSM, PresetKind.ADABELIEFSSM)
            else PresetParams()
        )
        validate_preset(preset, kind)
        validate_params(map_preset_to_general(preset, kind))
    print("criterion 8 (validation table, 20 rows): PASS")


def test_c09_gradients_match_finite_differences(rng):
    """Analytic gradients of all three objectives agree with central
    differences to 1e-5 relative at random points in the test box."""
    objectives = [make_quadratic(3, 50.0), make_rosenbrock(2), make_logistic(5, 40, 0)]
    for obj in objectives:
        for _ in range(100):
            x = rng.uniform(-BOX, BOX, obj.dim)
            g = obj.eval_grad(x)
            fd = finite_diff_grad(obj, x, 1e-5)
            rel = float(np.linalg.norm(fd - g) / (np.linalg.norm(g) + 1e-12))
            assert rel < 1e-5, obj.name
    print("criterion 9 (gradient consistency): PASS")


def test_c10_end_to_end_determinism(tmp_path, monkeypatch):
    """Two invocations of the bundled comparison config exit cleanly and
    produce byte-identical artifacts."""
    config = str(REPO_ROOT / "configs" / "example_compare.json")
    outputs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(out))
        assert cli.main(["compare", config]) == 0
        outputs.append(out)
    first, second = outputs
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert "summary.csv" in names and "report.json" in names
    assert sum(1 for n in names if n.startswith("traj_")) == 6
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    reports = json.loads((first / "report.json").read_text())
    assert all(r["iters_to_threshold"] is not None for r in reports)
    print("criterion 10 (end-to-end determinism): PASS")
