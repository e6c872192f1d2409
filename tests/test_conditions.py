"""NaN fails every named condition that tests it and no other: set one field
to NaN on valid input, and each validator names exactly the conditions that
read the field, in their order, the guarded ones only where their guard
holds. Every failed named condition is one ValidationError: the flow grid,
the energy diagnostic's mapping and a discrete row's first step name theirs
the way load_config does."""

import dataclasses
import json
import math

import numpy as np
import pytest

from ssmopt import (
    ExperimentConfig, FlowProblem, LrSchedule, ObjectiveSpec, OptimizerParams, OptimizerSpec, PresetKind,
    PresetParams, SecondMomentLTI, ValidationError, gadagrad_energy_residual, initial_stepper_state,
    integrate_reference, load_config, make_quadratic, map_preset_to_general, preset_flow, run_discrete,
    run_experiment, step_preset, validate_params, validate_preset,
)
from ssmopt.discrete import _STEP_NEEDS, KIND_KEYS, _first_step_error, run_discrete_batch
from ssmopt.flow import _check_grid

INF = math.inf

NAN = math.nan
PRESET = PresetParams(b3=0.02)

# per field of OptimizerParams: the failed conditions with the moment-weighted
# update (adamssm's mapping) and without it (gadagrad's, lambda7 = 0)
PARAMS_NAN = {
    "lambda1": (["lambda1 >= 0", "lambda5 < 2*lambda1/c"],) * 2,
    "lambda2": (["lambda2 > 0", "lambda6 < lambda2", "lambda2 < 1"], ["lambda2 > 0"]),
    "lambda3": (["lambda3 > 0"],) * 2,
    "lambda4": (["lambda4 >= 0", "lambda4 <= lambda5"],) * 2,
    "lambda5": (["lambda4 <= lambda5", "lambda5 < 2*lambda1/c"],) * 2,
    "lambda6": (["lambda6 > 0", "lambda6 < lambda2"], ["lambda6 > 0"]),
    "lambda7": (["lambda7 >= 0", "lambda7 + lambda8 > 0"],) * 2,
    "lambda8": (["lambda8 >= 0", "lambda7 + lambda8 > 0"],) * 2,
    "c": (["0 < c < 1"],) * 2,
}

_ALL_KINDS = {"delta": ["delta > 0"], "epsilon": ["epsilon > 0"], "eta": ["eta > 0"]}
_ONE_STATE = {**_ALL_KINDS, "b1": ["b2 < b1", "b1 < 1"], "b2": ["0 < b2", "b2 < b1"], "b3": [], "c": []}
_SSM = {
    **_ONE_STATE,
    "b1": ["b2 < b1", "b1 < 1", "b2 + b3 < 4*b1"],
    "b2": ["0 < b2", "b2 < b1", "b2 + b3 < 4*b1"],
    "b3": ["b3 > 0", "b2 + b3 < 4*b1"],
}
# per kind, per field of PresetParams: the failed conditions
PRESET_NAN = {
    PresetKind.GADAGRAD: {**_ALL_KINDS, "b1": [], "b2": [], "b3": [], "c": ["0 < c < 1"]},
    PresetKind.ADAM: _ONE_STATE,
    PresetKind.ADABELIEF: _ONE_STATE,
    PresetKind.ADAMSSM: _SSM,
    PresetKind.ADABELIEFSSM: _SSM,
}


def violations(make) -> list[str]:
    try:
        make()
    except ValidationError as exc:
        return exc.violations
    return []


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(OptimizerParams) if f.name != "psi_kind"])
def test_optimizer_params(field):
    for kind, expected in zip((PresetKind.ADAMSSM, PresetKind.GADAGRAD), PARAMS_NAN[field]):
        params = dataclasses.replace(map_preset_to_general(PRESET, kind), **{field: NAN})
        assert violations(lambda: validate_params(params)) == expected, kind


@pytest.mark.parametrize("kind", list(PresetKind))
def test_preset_params_and_entries(kind):
    assert set(PRESET_NAN[kind]) == {f.name for f in dataclasses.fields(PresetParams)}
    for field, expected in PRESET_NAN[kind].items():
        preset = dataclasses.replace(PRESET, **{field: NAN})
        assert violations(lambda: validate_preset(preset, kind)) == expected, field
        # NaN passes the sampling-time conditions: 1 - NaN < 0 does not hold
        assert OptimizerSpec(kind.value, "entry", preset).violations() == expected, field


def test_sgd_momentum_entry():
    assert OptimizerSpec("sgd_momentum", "entry", PresetParams(eta=NAN)).violations() == ["eta > 0"]
    assert OptimizerSpec("sgd_momentum", "entry", PresetParams(), beta=NAN).violations() == ["0 <= beta < 1"]


def test_second_moment_lti():
    assert violations(lambda: SecondMomentLTI(NAN, 0.02, 0.0267)) == ["lambda3 > 0"]
    assert violations(lambda: SecondMomentLTI(0.0067, NAN, 0.0267)) == ["lambda4 >= 0", "lambda5 >= lambda4"]
    assert violations(lambda: SecondMomentLTI(0.0067, 0.02, NAN)) == ["lambda5 >= lambda4"]


def test_lr_schedule():
    assert violations(lambda: LrSchedule(1e-3, ((10, NAN),))) == ["milestone multipliers positive"]
    # a NaN iteration is no whole number, and compares as neither out of order nor negative
    for milestones in (((NAN, 0.5),), ((10, 0.5), (NAN, 0.5)), ((NAN, 0.5), (10, 0.5))):
        assert violations(lambda: LrSchedule(1e-3, milestones)) == ["milestone iterations whole numbers"]


# (dt, t_end): the one condition of _check_grid named, the first that fails
GRID = {
    (0.0, 1.0): "dt > 0",
    (-0.1, 1.0): "dt > 0",
    (0.1, 0.05): "t_end >= dt",
    (0.3, 1.0): "t_end a whole number of dt steps",
    # a dt that is not > 0 is all the grid names, whatever t_end
    (-1.0, -2.0): "dt > 0",
    (0.0, 0.5): "dt > 0",
    (NAN, 1.0): "dt > 0",
    (INF, 1.0): "t_end >= dt",
    (-INF, 1.0): "dt > 0",
    (0.1, NAN): "t_end >= dt",
    (0.1, INF): "t_end a whole number of dt steps",
    (0.1, -INF): "t_end >= dt",
    (INF, INF): "t_end a whole number of dt steps",
}


@pytest.mark.parametrize("dt, t_end", list(GRID), ids=[f"{dt}-{t_end}" for dt, t_end in GRID])
def test_flow_grid(dt, t_end):
    assert violations(lambda: _check_grid(dt, t_end)) == [GRID[dt, t_end]]
    named = GRID[dt, t_end].replace("t_end", "--t-end").replace("dt", "--dt")
    assert violations(lambda: _check_grid(dt, t_end, "--dt", "--t-end")) == [named]


# (iterations, record_stride) given in code: the conditions named, an integer
# condition only where its range condition holds
RUN_SETTINGS = {
    (10.0, 1): ["iterations an integer"],
    (INF, 1): ["iterations an integer"],
    (10, 2.0): ["record_stride an integer"],
    (10, 1.5): ["record_stride an integer"],
    (10.5, 1.5): ["iterations an integer", "record_stride an integer"],
    (-1.5, 0.5): ["iterations >= 0", "record_stride >= 1"],
    (NAN, NAN): ["iterations >= 0", "record_stride >= 1"],
}


@pytest.mark.parametrize("iterations, record_stride", list(RUN_SETTINGS), ids=[f"{a}-{b}" for a, b in RUN_SETTINGS])
def test_run_settings_given_in_code(tmp_path, iterations, record_stride):
    expected = RUN_SETTINGS[iterations, record_stride]
    spec, objective, x0 = OptimizerSpec("adam", "adam", PRESET), make_quadratic(2, 10.0), np.ones(2)
    assert violations(lambda: run_discrete(spec, objective, x0, iterations, record_stride=record_stride)) == expected
    config = ExperimentConfig(ObjectiveSpec("quadratic"), (spec,), iterations, record_stride)
    assert violations(lambda: run_experiment(config, tmp_path / "out")) == expected
    assert not (tmp_path / "out").exists()
    # a flow's steps come from its grid, its record_stride from the caller
    problem = preset_flow(PresetKind.ADAM, PRESET, objective, x0, np.ones(2))
    stride = [name for name in expected if name.startswith("record_stride")]
    assert violations(lambda: integrate_reference(problem, 0.1, 1.0, record_stride=record_stride)) == stride


# per preset kind: the conditions of the accumulator mapping its flow fails
_MOMENT_MAPPING = ["lambda5 == 0.0", "lambda6 == 1.0", "lambda7 == 0.0", "lambda8 == 1.0"]
ENERGY = {
    PresetKind.ADAM: _MOMENT_MAPPING,
    PresetKind.ADABELIEF: [*_MOMENT_MAPPING, "psi squared gradient"],
    PresetKind.ADAMSSM: ["lambda4 == 0.0", *_MOMENT_MAPPING],
    PresetKind.ADABELIEFSSM: ["lambda4 == 0.0", *_MOMENT_MAPPING, "psi squared gradient"],
}


@pytest.mark.parametrize("kind", list(ENERGY))
def test_energy_residual_needs_the_accumulator_mapping(kind):
    problem = preset_flow(kind, PRESET, make_quadratic(2, 10.0), np.ones(2), np.ones(2))
    traj = integrate_reference(problem, dt=0.1, t_end=0.2)
    assert violations(lambda: gadagrad_energy_residual(traj, problem)) == ENERGY[kind]


def test_energy_residual_of_a_gadagrad_flow():
    problem = preset_flow(PresetKind.GADAGRAD, PresetParams(c=0.3), make_quadratic(1, 1.0), np.ones(1), np.ones(1))
    traj = integrate_reference(problem, dt=0.01, t_end=1.0)
    residual = gadagrad_energy_residual(traj, problem)
    # the trapezoid rule on the recorded grid bounds the residual, not the flow
    assert residual[0] == 0.0 and np.max(np.abs(residual)) < 1e-4
    off = FlowProblem(problem.objective, dataclasses.replace(problem.params, c=NAN), problem.x0, problem.nu0)
    assert violations(lambda: gadagrad_energy_residual(traj, off)) == ["0 < c < 1"]


# rates that fail every condition the first step of each kind needs, with a NaN beta for sgd_momentum
FAILING = PresetParams(b1=NAN, b2=NAN, b3=0.02, delta=NAN, c=NAN)


@pytest.mark.parametrize("kind", list(KIND_KEYS))
def test_first_step_names_entry_conditions(kind):
    # a condition renamed in preset_conditions or OptimizerSpec.conditions but not
    # in _STEP_NEEDS would let a row with bad rates take its step
    spec = OptimizerSpec(kind, "entry", FAILING, beta=NAN)
    assert set(_STEP_NEEDS[kind]) <= set(spec.conditions())
    assert _first_step_error(spec).violations == list(_STEP_NEEDS[kind])
    if kind in ("gadagrad", "sgd_momentum"):
        assert not any(name.startswith("1 - delta*") for name in spec.conditions())
        return
    # past delta = 1/b1 and 1/(b2 + b3), with rates that pass, the first step names both sampling-time conditions
    unstable = OptimizerSpec(kind, "entry", dataclasses.replace(PRESET, delta=200.0))
    failed = _first_step_error(unstable).violations
    assert set(failed) <= set(unstable.conditions())
    assert [name.split(" required (")[0] for name in failed] == ["1 - delta*b1 >= 0", "1 - delta*b2 - delta*b3 >= 0"]


def test_same_condition_same_error(tmp_path):
    preset = PresetParams(delta=2.0)
    failed = ["1 - delta*b1 >= 0 required (delta=2, b1=0.67)"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"objective": {"kind": "quadratic"}, "optimizers": [{"kind": "adam", "delta": 2.0}]}))
    assert violations(lambda: load_config(path)) == [f"optimizers[0]: {failed[0]}"]
    spec, objective, x0 = OptimizerSpec("adam", "adam", preset), make_quadratic(2, 10.0), np.ones(2)
    (outcome,) = run_discrete_batch([spec], objective, x0, 5)
    assert isinstance(outcome, ValidationError) and outcome.violations == failed
    assert violations(lambda: run_discrete(spec, objective, x0, 5)) == failed
    state = initial_stepper_state(x0)
    assert violations(lambda: step_preset(state, x0, preset.eta, 0, PresetKind.ADAM, preset)) == failed
