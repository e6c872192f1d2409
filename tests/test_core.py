"""Unit tests for the domain types, bias correction, and parameter
validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmopt import (
    DomainError,
    FlowProblem,
    OptimizerParams,
    PresetKind,
    PresetParams,
    PsiKind,
    ValidationError,
    alpha_g,
    initial_stepper_state,
    make_quadratic,
    map_preset_to_general,
    validate_params,
    validate_preset,
)
from samplers import random_valid_adamssm_preset, random_valid_params

ADAM_DEFAULTS = PresetParams()
ADAMSSM_DEFAULTS = PresetParams(b3=0.02)


def adam_params() -> OptimizerParams:
    return map_preset_to_general(ADAM_DEFAULTS, PresetKind.ADAM)


class TestAlphaG:
    def test_no_correction_when_gradient_weighted(self):
        preset = PresetParams(c=0.5)
        params = map_preset_to_general(preset, PresetKind.GADAGRAD)
        for t in (0.0, 0.5, 1.0, 10.0, 1e6):
            assert alpha_g(t, params) == 1.0

    def test_value_at_zero_for_default_rates(self):
        # (1 - 0.33) / sqrt(1 - 0.9933) evaluated directly and frozen
        assert abs(alpha_g(0.0, adam_params()) - 8.185352771872) < 1e-9

    def test_limit_is_one(self):
        assert abs(alpha_g(1e7, adam_params()) - 1.0) < 1e-12

    def test_decreasing_tail_for_default_rates(self):
        params = adam_params()
        grid = np.geomspace(1.0, 1e5, 200)
        values = np.array([alpha_g(t, params) for t in grid])
        tail = values[np.argmax(values):]
        assert np.all(np.diff(tail) <= 1e-15)
        assert values[-1] > 1.0 - 1e-9

    def test_decreasing_tail_for_random_presets(self, rng):
        for _ in range(20):
            preset = random_valid_adamssm_preset(rng)
            params = map_preset_to_general(preset, PresetKind.ADAMSSM)
            grid = np.geomspace(1.0, 1e6, 120)
            values = np.array([alpha_g(t, params) for t in grid])
            tail = values[np.argmax(values):]
            assert np.all(np.diff(tail) <= 1e-12)


class TestValidateParams:
    def test_adam_mapping_accepted(self):
        params = adam_params()
        assert validate_params(params) is params

    def test_random_preset_mappings_accepted(self, rng):
        for _ in range(200):
            preset = random_valid_adamssm_preset(rng)
            for kind in (PresetKind.ADAMSSM, PresetKind.ADABELIEFSSM):
                validate_params(map_preset_to_general(preset, kind))

    def test_random_general_params_accepted(self, rng):
        for _ in range(200):
            validate_params(random_valid_params(rng))

    def test_boundary_of_strict_inequality_rejected(self):
        base = adam_params()
        bad = OptimizerParams(
            lambda1=base.lambda1, lambda2=base.lambda2, lambda3=base.lambda3,
            lambda4=base.lambda4, lambda5=2.0 * base.lambda1 / base.c,
            lambda6=base.lambda6, lambda7=base.lambda7, lambda8=base.lambda8,
            c=base.c,
        )
        with pytest.raises(ValidationError) as err:
            validate_params(bad)
        assert err.value.violations == ["lambda5 < 2*lambda1/c"]

    def test_both_update_weights_zero_rejected(self):
        bad = OptimizerParams(
            lambda1=1.0, lambda2=1.0, lambda3=1.0, lambda4=0.0, lambda5=0.0,
            lambda6=1.0, lambda7=0.0, lambda8=0.0, c=0.5,
        )
        with pytest.raises(ValidationError) as err:
            validate_params(bad)
        assert err.value.violations == ["lambda7 + lambda8 > 0"]

    def test_lambda5_bound_skipped_when_c_not_positive(self):
        # c = 0 fails its own range check but must not trip the lambda5 bound,
        # which is not evaluable there.
        bad = OptimizerParams(
            lambda1=1.0, lambda2=1.0, lambda3=1.0, lambda4=0.0, lambda5=100.0,
            lambda6=1.0, lambda7=0.0, lambda8=1.0, c=0.0,
        )
        with pytest.raises(ValidationError) as err:
            validate_params(bad)
        assert err.value.violations == ["0 < c < 1"]

    def test_violations_aggregate_in_validator_order(self):
        bad = OptimizerParams(
            lambda1=1.0, lambda2=0.0, lambda3=-1.0, lambda4=0.0, lambda5=0.0,
            lambda6=0.0, lambda7=0.0, lambda8=1.0, c=0.5,
        )
        with pytest.raises(ValidationError) as err:
            validate_params(bad)
        assert err.value.violations == ["lambda2 > 0", "lambda3 > 0", "lambda6 > 0"]

    def test_message_names_every_violation(self):
        try:
            validate_params(
                OptimizerParams(
                    lambda1=-1.0, lambda2=1.0, lambda3=1.0, lambda4=0.0,
                    lambda5=0.0, lambda6=1.0, lambda7=0.0, lambda8=1.0, c=0.5,
                )
            )
        except ValidationError as exc:
            assert str(exc).startswith("invalid parameters: ")
            assert "lambda1 >= 0" in str(exc)
        else:
            pytest.fail("expected ValidationError")


class TestPresetParams:
    def test_retention_factor_identities(self):
        p = ADAM_DEFAULTS
        assert p.beta1 == 1.0 - 0.15 * 0.67
        assert p.beta2 == 1.0 - 0.15 * 0.0067
        assert abs(p.beta1 - 0.8995) < 1e-15
        assert abs(p.beta2 - 0.998995) < 1e-15

    def test_retention_close_to_standard_rates(self):
        # the default rates approximate the common (0.9, 0.999) pair;
        # beta1 lands at 0.8995, half a milli off the round value
        assert abs(ADAM_DEFAULTS.beta1 - 0.9) < 1e-3
        assert abs(ADAM_DEFAULTS.beta2 - 0.999) < 1e-4


class TestValidatePreset:
    def test_defaults_accepted_for_every_kind(self):
        for kind in (PresetKind.GADAGRAD, PresetKind.ADAM, PresetKind.ADABELIEF):
            validate_preset(ADAM_DEFAULTS, kind)
        for kind in (PresetKind.ADAMSSM, PresetKind.ADABELIEFSSM):
            validate_preset(ADAMSSM_DEFAULTS, kind)

    def test_moment_rate_order_enforced(self):
        with pytest.raises(ValidationError) as err:
            validate_preset(PresetParams(b1=0.5, b2=0.6), PresetKind.ADAM)
        assert err.value.violations == ["b2 < b1"]

    def test_ssm_requires_positive_coupling(self):
        with pytest.raises(ValidationError) as err:
            validate_preset(PresetParams(b3=0.0), PresetKind.ADAMSSM)
        assert err.value.violations == ["b3 > 0"]
        # the same rates are a perfectly valid one-state preset
        validate_preset(PresetParams(b3=0.0), PresetKind.ADAM)

    def test_gadagrad_only_checks_exponent(self):
        # b-chain violations are irrelevant for the accumulator preset
        validate_preset(PresetParams(b1=0.5, b2=0.6, c=0.5), PresetKind.GADAGRAD)
        with pytest.raises(ValidationError) as err:
            validate_preset(PresetParams(c=1.0), PresetKind.GADAGRAD)
        assert err.value.violations == ["0 < c < 1"]

    def test_sampling_time_and_guard_required(self):
        with pytest.raises(ValidationError) as err:
            validate_preset(PresetParams(delta=0.0, epsilon=0.0), PresetKind.ADAM)
        assert err.value.violations == ["delta > 0", "epsilon > 0"]

    def test_learning_rate_must_be_positive(self):
        for eta in (-0.05, 0.0, float("nan"), -float("inf")):
            for kind in PresetKind:
                with pytest.raises(ValidationError) as err:
                    validate_preset(PresetParams(b3=0.02, eta=eta), kind)
                assert err.value.violations == ["eta > 0"], (kind, eta)

    def test_coupling_budget(self):
        with pytest.raises(ValidationError) as err:
            validate_preset(PresetParams(b3=4.0 * 0.67), PresetKind.ADAMSSM)
        assert err.value.violations == ["b2 + b3 < 4*b1"]


class TestPresetMapping:
    def test_adamssm_decay_is_rate_sum(self):
        params = map_preset_to_general(ADAMSSM_DEFAULTS, PresetKind.ADAMSSM)
        assert params.lambda4 == 0.02
        assert params.lambda5 == 0.0067 + 0.02
        assert params.lambda3 == 0.0067
        assert params.psi_kind is PsiKind.SQUARED_GRADIENT

    def test_adam_mapping_shape(self):
        params = adam_params()
        assert (params.lambda1, params.lambda2) == (0.67, 0.67)
        assert params.lambda4 == 0.0
        assert params.lambda5 == params.lambda6 == 0.0067
        assert (params.lambda7, params.lambda8) == (1.0, 0.0)
        assert params.c == 0.5
        assert params.bias_correction

    def test_belief_kinds_use_belief_input(self):
        for kind in (PresetKind.ADABELIEF, PresetKind.ADABELIEFSSM):
            preset = ADAMSSM_DEFAULTS if kind is PresetKind.ADABELIEFSSM else ADAM_DEFAULTS
            assert map_preset_to_general(preset, kind).psi_kind is PsiKind.BELIEF

    def test_gadagrad_mapping_is_uncorrected(self):
        params = map_preset_to_general(PresetParams(c=0.3), PresetKind.GADAGRAD)
        assert not params.bias_correction
        assert (params.lambda7, params.lambda8) == (0.0, 1.0)
        assert params.c == 0.3
        validate_params(params)

    def test_every_default_mapping_validates(self):
        cases = (
            (PresetKind.GADAGRAD, ADAM_DEFAULTS),
            (PresetKind.ADAM, ADAM_DEFAULTS),
            (PresetKind.ADABELIEF, ADAM_DEFAULTS),
            (PresetKind.ADAMSSM, ADAMSSM_DEFAULTS),
            (PresetKind.ADABELIEFSSM, ADAMSSM_DEFAULTS),
        )
        for kind, preset in cases:
            validate_params(map_preset_to_general(preset, kind))


# any float, or one in (0, 1) where every rate condition can hold
RATES = st.floats() | st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@settings(derandomize=True, database=None, deadline=None)
@given(
    kind=st.sampled_from(PresetKind),
    b1=RATES, b2=RATES, b3=RATES | st.just(0.0), c=RATES,
    delta=RATES, epsilon=RATES, eta=RATES,
)
def test_valid_preset_maps_to_valid_params(kind, b1, b2, b3, c, delta, epsilon, eta):
    preset = PresetParams(b1=b1, b2=b2, b3=b3, delta=delta, epsilon=epsilon, eta=eta, c=c)
    try:
        validate_preset(preset, kind)
    except ValidationError:
        return
    validate_params(map_preset_to_general(preset, kind))


class TestInitialFlowState:
    def test_moments_start_at_zero(self):
        state = initial_stepper_state([1.0, -2.0], [0.5, 0.5])
        assert np.array_equal(state[1], np.zeros(2))
        assert np.array_equal(state[2], np.zeros(2))
        assert np.array_equal(state[3], np.array([0.5, 0.5]))
        assert state.shape == (4, 2)

    def test_nonpositive_nu0_rejected(self):
        # flows need nu0 > 0; discrete runs may start at nu0 = 0
        with pytest.raises(DomainError):
            FlowProblem(make_quadratic(1, 1.0), adam_params(), [1.0], [0.0])
        with pytest.raises(DomainError):
            FlowProblem(make_quadratic(2, 1.0), adam_params(), [1.0, 1.0], [1.0, -1.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError):
                FlowProblem(make_quadratic(2, 1.0), adam_params(), [1.0, 1.0], [bad, 1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            initial_stepper_state([1.0, 2.0], [1.0])
