"""NaN fails every named condition that tests it and no other: set one field
to NaN on valid input, and each validator names exactly the conditions that
read the field, in their order, the guarded ones only where their guard
holds."""

import dataclasses
import math

import pytest

from ssmopt import (
    LrSchedule, OptimizerParams, OptimizerSpec, PresetKind, PresetParams, SecondMomentLTI, ValidationError,
    map_preset_to_general, validate_params, validate_preset,
)

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
