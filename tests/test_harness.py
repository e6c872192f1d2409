"""Tests for config ingestion, batch execution, artifact emission, and the
command-line interface."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import discrete_entry_run
from ssmopt import PresetKind, RunReport, ValidationError, cli
from ssmopt.discrete import BIAS_MODES
from ssmopt.harness import (
    OBJECTIVE_KINDS,
    SUMMARY_COLUMNS,
    ExperimentConfig,
    ObjectiveSpec,
    ParseError,
    build_objective,
    default_x0,
    emit_summary,
    load_config,
    resolve_out_dir,
    run_compare,
    run_experiment,
    run_flows,
)
from ssmopt.objectives import make_logistic

REPO_ROOT = Path(__file__).resolve().parents[1]


# objectives that parse but that their factory rejects, with the message
UNBUILDABLE_OBJECTIVES = [
    pytest.param({"kind": "quadratic", "dim": 0}, "objective: d must be >= 1", id="dim"),
    pytest.param({"kind": "quadratic", "cond": 0.5}, "objective: condition_number must be >= 1", id="cond"),
    pytest.param({"kind": "logistic", "n_samples": 0}, "objective: d and n_samples must be >= 1", id="n_samples"),
    pytest.param({"kind": "rosenbrock", "dim": 1}, "objective: d must be >= 2", id="rosenbrock-dim"),
]


def base_payload():
    return {
        "objective": {"kind": "quadratic", "dim": 2, "cond": 10.0},
        "optimizers": [{"kind": "adam", "eta": 0.05}],
        "iterations": 50,
        "threshold": 1e-4,
    }


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestLoadConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = write_config(
            tmp_path, {"objective": {"kind": "quadratic"}, "optimizers": [{"kind": "adam"}]}
        )
        config = load_config(path)
        assert config.objective.kind == "quadratic"
        assert config.objective.dim == 2
        assert config.objective.cond == 100.0
        assert config.objective.x0 is None
        assert config.iterations == 1000
        assert config.record_stride == 1
        assert config.threshold == 1e-4
        assert config.milestones == ()
        assert config.output_dir == "runs"
        spec = config.optimizers[0]
        assert spec.kind == "adam"
        assert spec.name == "adam"
        assert spec.bias_mode == "paper"
        assert spec.preset.b1 == 0.67

    def test_unknown_optimizer_key(self, tmp_path):
        payload = base_payload()
        payload["optimizers"][0]["momentum_typo"] = 1.0
        with pytest.raises(ParseError, match="unknown key 'optimizers\\[0\\].momentum_typo'"):
            load_config(write_config(tmp_path, payload))

    def test_unknown_top_level_key(self, tmp_path):
        payload = base_payload()
        payload["verbosity"] = 2
        with pytest.raises(ParseError, match="unknown key 'verbosity'"):
            load_config(write_config(tmp_path, payload))

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"objective": }')
        with pytest.raises(ParseError, match="invalid JSON at line 1, column 15"):
            load_config(path)

    def test_missing_required_keys(self, tmp_path):
        with pytest.raises(ParseError, match="missing required key 'objective'"):
            load_config(write_config(tmp_path, {}))
        with pytest.raises(ParseError, match="missing required key 'objective.kind'"):
            load_config(write_config(tmp_path, {"objective": {}, "optimizers": [{"kind": "adam"}]}))

    def test_non_object_config_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(ParseError, match="config: expected an object, got list"):
            load_config(path)

    def test_optimizer_entry_must_be_object(self, tmp_path):
        payload = base_payload()
        payload["optimizers"] = ["adam"]
        with pytest.raises(ParseError, match="optimizers\\[0\\]: expected an object, got str"):
            load_config(write_config(tmp_path, payload))

    def test_empty_optimizer_list_rejected(self, tmp_path):
        payload = base_payload()
        payload["optimizers"] = []
        with pytest.raises(ParseError, match="optimizers: expected a non-empty list"):
            load_config(write_config(tmp_path, payload))

    def test_hyperparameter_violations_are_aggregated_and_named(self, tmp_path):
        payload = base_payload()
        payload["optimizers"] = [
            {"kind": "adam", "b1": 0.5, "b2": 0.6},
            {"kind": "sgd_momentum", "beta": 1.0, "eta": 0.0},
            {"kind": "gadagrad", "delta": 0, "c": 1.0},
            {"kind": "adamssm", "b3": 5.0},
            {"kind": "adabeliefssm", "b3": -0.1, "eta": 0, "b1": 1.0},
        ]
        with pytest.raises(ValidationError) as err:
            load_config(write_config(tmp_path, payload))
        assert err.value.violations == [
            "optimizers[0]: b2 < b1",
            "optimizers[1]: 0 <= beta < 1",
            "optimizers[1]: eta > 0",
            "optimizers[2]: delta > 0",
            "optimizers[2]: 0 < c < 1",
            "optimizers[3]: b2 + b3 < 4*b1",
            "optimizers[4]: eta > 0",
            "optimizers[4]: b1 < 1",
            "optimizers[4]: b3 > 0",
        ]

    def test_wrong_types_reported_with_path(self, tmp_path):
        payload = base_payload()
        payload["iterations"] = "many"
        with pytest.raises(ParseError, match="config.iterations: expected an integer, got str"):
            load_config(write_config(tmp_path, payload))
        payload = base_payload()
        payload["threshold"] = True
        with pytest.raises(ParseError, match="config.threshold: expected a number, got bool"):
            load_config(write_config(tmp_path, payload))
        payload = base_payload()
        payload["optimizers"][0]["b1"] = True
        with pytest.raises(ParseError, match="optimizers\\[0\\].b1: expected a number, got bool"):
            load_config(write_config(tmp_path, payload))

    def test_preset_keys_rejected_for_heavy_ball(self, tmp_path):
        payload = base_payload()
        payload["optimizers"] = [{"kind": "sgd_momentum", "delta": 0.1}]
        with pytest.raises(ParseError, match="optimizers\\[0\\].delta: not valid for sgd_momentum"):
            load_config(write_config(tmp_path, payload))

    def test_momentum_key_rejected_for_adaptive_kinds(self, tmp_path):
        payload = base_payload()
        payload["optimizers"] = [{"kind": "adam", "beta": 0.9}]
        with pytest.raises(ParseError, match="optimizers\\[0\\].beta: not valid for adam"):
            load_config(write_config(tmp_path, payload))

    def test_coupling_rate_rejected_for_one_state_kinds(self, tmp_path):
        for kind in ("adam", "adabelief"):
            payload = base_payload()
            payload["optimizers"] = [{"kind": "adamssm", "b3": 0.02}, {"kind": kind, "b3": 0.02}]
            with pytest.raises(ParseError, match=f"optimizers\\[1\\].b3: not valid for {kind}"):
                load_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize(
        "entry, key",
        [
            ({"kind": "gadagrad", "b1": 0.5}, "b1"),
            ({"kind": "gadagrad", "b2": 0.005}, "b2"),
            ({"kind": "gadagrad", "b3": 0.5}, "b3"),
            ({"kind": "gadagrad", "bias_mode": "beta"}, "bias_mode"),
            ({"kind": "adam", "c": 0.3}, "c"),
            ({"kind": "adabeliefssm", "b3": 0.02, "c": 0.3}, "c"),
            ({"kind": "sgd_momentum", "b1": 0.5}, "b1"),
        ],
    )
    def test_keys_the_kind_does_not_read_rejected(self, tmp_path, entry, key):
        payload = base_payload()
        payload["optimizers"] = [{"kind": "adam"}, entry]
        kind = entry["kind"]
        with pytest.raises(ParseError, match=f"optimizers\\[1\\].{key}: not valid for {kind}"):
            load_config(write_config(tmp_path, payload))

    def test_zero_coupling_rate_canonicalized_to_one_state_kind(self, tmp_path):
        payload = base_payload()
        payload["optimizers"] = [
            {"kind": "adamssm", "b3": 0.0},
            {"kind": "adabeliefssm", "b3": 0.0},
        ]
        config = load_config(write_config(tmp_path, payload))
        assert config.optimizers[0].kind == "adam"
        assert config.optimizers[0].name == "adamssm"
        assert config.optimizers[1].kind == "adabelief"
        assert config.optimizers[1].name == "adabeliefssm"

    def test_x0_validated(self, tmp_path):
        payload = base_payload()
        payload["objective"] = {"kind": "quadratic", "dim": 3, "x0": [1.0, 2.0]}
        with pytest.raises(ParseError, match="objective.x0: expected 3 entries, got 2"):
            load_config(write_config(tmp_path, payload))
        payload["objective"] = {"kind": "quadratic", "x0": [1.0, "a"]}
        with pytest.raises(ParseError, match="objective.x0: expected a list of numbers"):
            load_config(write_config(tmp_path, payload))

    def test_non_finite_numbers_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        for objective, optimizer in [
            ('"x0": [NaN, 1]', ""),
            ("", ', "eta": Infinity'),
            ('"cond": -Infinity', ""),
            ("", ', "b1": 1e999'),
        ]:
            sep = ", " if objective else ""
            path.write_text(
                f'{{"objective": {{"kind": "quadratic"{sep}{objective}}}, '
                f'"optimizers": [{{"kind": "adam"{optimizer}}}]}}'
            )
            with pytest.raises(ParseError, match="non-finite number"):
                load_config(path)

    def test_integers_too_large_for_a_float_rejected(self, tmp_path):
        huge = 10 ** 400
        for where, edit in [
            ("optimizers[0].eta", lambda p: p["optimizers"][0].update(eta=huge)),
            ("objective.x0", lambda p: p["objective"].update(x0=[1.0, -huge])),
            ("schedule.milestones[1]", lambda p: p.update(schedule={"milestones": [[5, 0.5], [9, huge]]})),
        ]:
            payload = base_payload()
            edit(payload)
            path = write_config(tmp_path, payload)
            with pytest.raises(ParseError, match=f"{re.escape(where)}: number too large for a float"):
                load_config(path)
        assert cli.main(["run", str(path)]) == 1

    def test_objective_keys_scoped_by_kind(self, tmp_path):
        payload = base_payload()
        payload["objective"] = {"kind": "rosenbrock", "cond": 10.0}
        with pytest.raises(ParseError, match="objective.cond: only valid for the quadratic"):
            load_config(write_config(tmp_path, payload))
        payload["objective"] = {"kind": "quadratic", "n_samples": 10}
        with pytest.raises(ParseError, match="objective.n_samples: only valid for the logistic"):
            load_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize(
        "key, owner, kind",
        [
            (key, owner, kind)
            for owner, (_, keys, _) in OBJECTIVE_KINDS.items()
            for key in keys
            for kind in OBJECTIVE_KINDS
            if kind != owner
        ],
    )
    def test_kind_only_key_rejected_under_every_other_kind(self, tmp_path, key, owner, kind):
        payload = base_payload()
        payload["objective"] = {"kind": kind, key: getattr(ObjectiveSpec, key)}
        with pytest.raises(ParseError) as err:
            load_config(write_config(tmp_path, payload))
        assert str(err.value) == f"objective.{key}: only valid for the {owner} objective"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                {"output_dir": 3, "schedule": {"milestones": 3}},
                "schedule.milestones: expected a list of [iteration, multiplier] pairs",
            ),
            (
                {"objective": {"kind": "rosenbrock", "cond": 10.0, "x0": [1.0]}},
                "objective.cond: only valid for the quadratic objective",
            ),
            (
                {"objective": {"kind": "quadratic", "cond": "high", "x0": [1.0]}},
                "objective.x0: expected 2 entries, got 1",
            ),
            ({"iterations": "a", "output_dir": 3}, "config.iterations: expected an integer, got str"),
        ],
    )
    def test_first_of_several_faults_is_reported(self, tmp_path, edit, message):
        # fields are read in a fixed order: objective (kind, keys of other
        # kinds, dim, x0, its own keys), optimizers, iterations,
        # record_stride, threshold, schedule, output_dir
        with pytest.raises(ParseError) as err:
            load_config(write_config(tmp_path, {**base_payload(), **edit}))
        assert str(err.value) == message

    def test_unknown_objective_kind(self, tmp_path):
        payload = base_payload()
        payload["objective"] = {"kind": "banana"}
        with pytest.raises(ParseError, match="objective.kind: expected one of"):
            load_config(write_config(tmp_path, payload))

    def test_bad_bias_mode(self, tmp_path):
        payload = base_payload()
        payload["optimizers"] = [{"kind": "adam", "bias_mode": "classic"}]
        with pytest.raises(ParseError, match="optimizers\\[0\\].bias_mode: expected one of"):
            load_config(write_config(tmp_path, payload))

    def test_milestone_pairs_validated(self, tmp_path):
        for bad in ([[10]], [10, 0.1], [[10.5, 0.1]], [[10, True]]):
            payload = base_payload()
            payload["schedule"] = {"milestones": bad}
            with pytest.raises(ParseError, match="expected an \\[iteration, multiplier\\] pair"):
                load_config(write_config(tmp_path, payload))
        payload = base_payload()
        payload["schedule"] = {"milestone": []}
        with pytest.raises(ParseError, match="unknown key 'schedule.milestone'"):
            load_config(write_config(tmp_path, payload))

    def test_negative_milestone_iteration_rejected(self, tmp_path):
        payload = base_payload()
        payload["schedule"] = {"milestones": [[-5, 0.1]]}
        with pytest.raises(ValidationError) as err:
            load_config(write_config(tmp_path, payload))
        assert err.value.violations == ["milestone iterations nonnegative"]

    def test_names_that_break_the_summary_csv_rejected(self, tmp_path):
        for bad in ("adam, fast", 'the "fast" one', "line\nbreak", "carriage\rreturn"):
            payload = base_payload()
            payload["optimizers"] = [{"kind": "adam"}, {"kind": "adam", "name": bad}]
            with pytest.raises(ParseError, match="optimizers\\[1\\].name: "):
                load_config(write_config(tmp_path, payload))
        payload = base_payload()
        payload["optimizers"] = [{"kind": "adamssm", "b3": 0.01, "name": "adamssm-b30.01-eta0.01"}]
        assert load_config(write_config(tmp_path, payload)).optimizers[0].name == "adamssm-b30.01-eta0.01"

    def test_valid_milestones_parsed(self, tmp_path):
        payload = base_payload()
        payload["schedule"] = {"milestones": [[5, 0.5], [9, 0.1]]}
        config = load_config(write_config(tmp_path, payload))
        assert config.milestones == ((5, 0.5), (9, 0.1))

    def test_schema_bounds_aggregate(self, tmp_path):
        payload = base_payload()
        payload["iterations"] = -1
        payload["record_stride"] = 0
        payload["threshold"] = 0.0
        with pytest.raises(ValidationError) as err:
            load_config(write_config(tmp_path, payload))
        assert err.value.violations == ["iterations >= 0", "record_stride >= 1", "threshold > 0"]

    @pytest.mark.parametrize("objective, message", UNBUILDABLE_OBJECTIVES)
    def test_objective_that_cannot_be_built_rejected(self, tmp_path, objective, message):
        payload = base_payload()
        payload["objective"] = objective
        with pytest.raises(ValidationError) as err:
            load_config(write_config(tmp_path, payload))
        assert str(err.value) == f"invalid parameters: {message}"

    def test_entry_violations_precede_the_objective_error(self, tmp_path):
        payload = base_payload()
        payload["objective"] = {"kind": "quadratic", "cond": 0.5}
        payload["optimizers"] = [{"kind": "adam", "b2": 0.9}]
        with pytest.raises(ValidationError) as err:
            load_config(write_config(tmp_path, payload))
        assert err.value.violations == ["optimizers[0]: b2 < b1"]

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read config file"):
            load_config(tmp_path / "missing.json")


def config_payloads():
    """Configs whose every number may be any float or an integer too large
    for one, and where now and then any value stands for a field or the
    whole document."""
    too_large = st.integers(min_value=2 ** 1024, max_value=10 ** 400).map(lambda n: n * (-1) ** n)
    numbers = st.one_of(
        st.integers(),
        too_large,
        too_large,
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, max_value=1.0),
    )
    anything = st.recursive(
        st.none() | st.booleans() | numbers | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=6,
    )

    def mostly(strategy):
        return st.one_of(strategy, strategy, strategy, anything)

    def entry(required, keys, **special):
        optional = {key: mostly(special.get(key, numbers)) for key in keys}
        return st.fixed_dictionaries(required, optional=optional)

    shape = {"dim": st.integers(1, 3), "x0": st.lists(numbers, min_size=1, max_size=3)}
    objective = st.one_of(
        entry({"kind": st.just("quadratic")}, ("dim", "cond", "x0"), **shape),
        entry({"kind": st.just("rosenbrock")}, ("dim", "x0"), **shape),
        entry({"kind": st.just("logistic")}, ("dim", "n_samples", "seed", "x0"), **shape),
    )
    optimizer = st.one_of(
        entry(
            {"kind": st.sampled_from([kind.value for kind in PresetKind])},
            ("name", "b1", "b2", "b3", "delta", "epsilon", "eta", "c", "bias_mode"),
            name=st.text(max_size=3),
            bias_mode=st.sampled_from(BIAS_MODES),
        ),
        entry({"kind": st.just("sgd_momentum")}, ("name", "eta", "beta"), name=st.text(max_size=3)),
    )
    milestone = st.tuples(st.integers(), numbers).map(list)
    config = entry(
        {"objective": mostly(objective), "optimizers": mostly(st.lists(optimizer, min_size=1, max_size=3))},
        ("iterations", "record_stride", "threshold", "schedule", "output_dir"),
        iterations=st.integers(),
        record_stride=st.integers(),
        schedule=st.fixed_dictionaries({"milestones": st.lists(mostly(milestone), max_size=3)}),
        output_dir=st.text(max_size=3),
    )
    return mostly(config)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(payload=config_payloads())
def test_load_config_raises_only_parse_or_validation_errors(payload, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "property_config.json"
    path.write_text(json.dumps(payload))
    try:
        load_config(path)
    except (ParseError, ValidationError):
        pass


DEFAULT_X0_DIM3 = {"quadratic": [1.0, 1.0, 1.0], "rosenbrock": [-1.2, 1.0, 1.0], "logistic": [0.0, 0.0, 0.0]}


class TestObjectiveSetup:
    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_default_x0_bit_for_bit(self, kind):
        x0 = default_x0(ObjectiveSpec(kind=kind, dim=3))
        assert x0.dtype == np.float64
        assert x0.tobytes() == np.array(DEFAULT_X0_DIM3[kind]).tobytes()

    def test_unknown_kind_raises_instead_of_a_default(self):
        for use in (default_x0, build_objective):
            with pytest.raises(ParseError, match="objective.kind: unknown kind 'mlp'"):
                use(ObjectiveSpec(kind="mlp", dim=3))

    def test_logistic_keys_reach_the_factory_in_order(self):
        built = build_objective(ObjectiveSpec(kind="logistic", dim=3, n_samples=17, seed=5))
        direct = make_logistic(3, 17, 5)
        w = np.array([[0.3, -0.2, 0.1], [1.5, 0.0, -2.0]])
        for a, b in zip(built.eval_f_grad(w), direct.eval_f_grad(w)):
            assert a.tobytes() == b.tobytes()
        assert built.eval_f(w[0]) == direct.eval_f(w[0])

    def test_default_starting_points(self):
        assert np.array_equal(default_x0(ObjectiveSpec(kind="quadratic", dim=3)), np.ones(3))
        ros = default_x0(ObjectiveSpec(kind="rosenbrock", dim=4))
        assert np.array_equal(ros, np.array([-1.2, 1.0, 1.0, 1.0]))
        assert np.array_equal(default_x0(ObjectiveSpec(kind="logistic", dim=5)), np.zeros(5))
        explicit = default_x0(ObjectiveSpec(kind="quadratic", dim=2, x0=(3.0, 4.0)))
        assert np.array_equal(explicit, np.array([3.0, 4.0]))

    def test_build_objective_wraps_constructor_errors(self):
        with pytest.raises(ValidationError) as err:
            build_objective(ObjectiveSpec(kind="quadratic", dim=2, cond=0.5))
        assert err.value.violations[0].startswith("objective: ")

    def test_build_objective_kinds(self):
        assert build_objective(ObjectiveSpec(kind="quadratic", dim=3)).dim == 3
        assert build_objective(ObjectiveSpec(kind="rosenbrock", dim=2)).dim == 2
        assert build_objective(ObjectiveSpec(kind="logistic", dim=4, n_samples=10)).dim == 4


class TestRunExperiment:
    def test_identical_entries_produce_identical_artifacts(self, tmp_path):
        payload = base_payload()
        payload["optimizers"] = [
            {"kind": "adam", "eta": 0.05, "name": "a"},
            {"kind": "adam", "eta": 0.05, "name": "b"},
        ]
        config = load_config(write_config(tmp_path, payload))
        out = tmp_path / "out"
        reports = run_experiment(config, out_dir=out)
        assert len(reports) == 2
        csv_a = (out / "traj_00_a.csv").read_bytes()
        csv_b = (out / "traj_01_b.csv").read_bytes()
        assert csv_a == csv_b
        assert reports[0].best_f == reports[1].best_f

    def test_zero_coupling_entry_matches_one_state_entry_bytes(self, tmp_path):
        payload = base_payload()
        payload["optimizers"] = [
            {"kind": "adamssm", "b3": 0.0, "eta": 0.05, "name": "two_state"},
            {"kind": "adam", "eta": 0.05, "name": "one_state"},
        ]
        config = load_config(write_config(tmp_path, payload))
        out = tmp_path / "out"
        run_experiment(config, out_dir=out)
        assert (out / "traj_00_two_state.csv").read_bytes() == (
            out / "traj_01_one_state.csv"
        ).read_bytes()

    def test_failed_run_is_isolated(self, tmp_path):
        payload = base_payload()
        payload["optimizers"] = [
            {"kind": "adamssm", "b3": 0.02, "delta": 100.0, "name": "unstable"},
            {"kind": "adam", "eta": 0.05, "name": "fine"},
        ]
        config = load_config(write_config(tmp_path, payload))
        out = tmp_path / "out"
        reports = run_experiment(config, out_dir=out)
        assert math.isnan(reports[0].best_f)
        assert reports[0].diagnostics["error"].startswith("InstabilityError")
        assert not math.isnan(reports[1].best_f)
        assert "error" not in reports[1].diagnostics
        assert not (out / "traj_00_unstable.csv").exists()
        assert (out / "traj_01_fine.csv").exists()
        records = json.loads((out / "report.json").read_text())
        assert records[0]["best_f"] is None
        assert records[0]["final_grad_norm"] is None
        assert records[0]["iters_to_threshold"] is None
        assert records[1]["best_f"] is not None
        assert "wall_time" not in (out / "report.json").read_text()

    def test_report_summarizes_every_iteration_not_only_records(self, tmp_path):
        payload = base_payload()
        payload.update(iterations=300, threshold=1e-2)
        payload["optimizers"] = [{"kind": "adam", "eta": 0.05}, {"kind": "sgd_momentum", "eta": 0.05}]
        summaries = {}
        for stride in (1, 7):
            payload["record_stride"] = stride
            config = load_config(write_config(tmp_path, payload, f"stride{stride}.json"))
            reports = run_experiment(config, out_dir=tmp_path / f"out{stride}")
            summaries[stride] = [
                (r.best_f, r.epoch_of_best, r.iters_to_threshold, r.final_grad_norm) for r in reports
            ]
        assert summaries[7] == summaries[1]
        # the best and the threshold iterations fall between records at stride 7
        for _, best, below, _ in summaries[7]:
            assert best % 7 and below % 7

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        payload = base_payload()
        payload["output_dir"] = str(tmp_path / "from_config")
        config = load_config(write_config(tmp_path, payload))
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(env_dir))
        assert resolve_out_dir(config) == env_dir
        run_experiment(config)
        assert (env_dir / "report.json").exists()
        assert not (tmp_path / "from_config").exists()

    def test_names_are_sanitized_for_filenames(self, tmp_path):
        payload = base_payload()
        payload["optimizers"] = [{"kind": "adam", "eta": 0.05, "name": "weird name/1"}]
        payload["iterations"] = 5
        config = load_config(write_config(tmp_path, payload))
        out = tmp_path / "out"
        run_experiment(config, out_dir=out)
        assert (out / "traj_00_weird_name_1.csv").exists()

    def test_every_row_matches_the_discrete_oracle_bitwise(self, tmp_path):
        moment_rates = {"b1": 0.67, "b2": 0.0067, "delta": 0.15, "epsilon": 1e-8, "eta": 0.05}
        entries = [{"kind": "gadagrad", "c": 0.5, "delta": 0.15, "epsilon": 1e-8, "eta": 0.5}]
        for kind in ("adam", "adabelief", "adamssm", "adabeliefssm"):
            for mode in BIAS_MODES:
                entry = {"kind": kind, "name": f"{kind}-{mode}", "bias_mode": mode, **moment_rates}
                if kind.endswith("ssm"):
                    entry["b3"] = 0.02
                entries.append(entry)
        entries.append({"kind": "sgd_momentum", "beta": 0.9, "eta": 0.01})
        milestones = [[20, 0.5], [40, 0.1]]
        payload = {
            "objective": {"kind": "quadratic", "dim": 3, "cond": 10.0},
            "optimizers": entries,
            "iterations": 60,
            "record_stride": 1,
            "schedule": {"milestones": milestones},
        }
        config = load_config(write_config(tmp_path, payload))
        out = tmp_path / "out"
        reports = run_experiment(config, out_dir=out)
        assert all("error" not in r.diagnostics for r in reports)
        objective = build_objective(config.objective)
        x0 = default_x0(config.objective)
        for i, entry in enumerate(entries):
            (path,) = out.glob(f"traj_{i:02d}_*.csv")
            lines = path.read_text().splitlines()[1:]
            expected = discrete_entry_run(entry, objective.eval_grad, x0, 60, milestones)
            assert len(lines) == len(expected) == 61
            for k, (line, (alpha, *state)) in enumerate(zip(lines, expected)):
                got = np.array([float(v) for v in line.split(",")[3:]])
                want = np.concatenate([[alpha], *state])
                assert got.tobytes() == want.tobytes(), f"{path.name} row {k}"


class TestEmitSummary:
    def report(self, name, best_f, itt=None, gn=0.5, epoch=7):
        return RunReport(
            optimizer=name,
            best_f=best_f,
            epoch_of_best=epoch,
            final_grad_norm=gn,
            iters_to_threshold=itt,
        )

    def test_empty_report_list_gives_header_only(self):
        assert emit_summary([]) == ",".join(SUMMARY_COLUMNS) + "\n"

    def test_rows_sorted_failed_last_unreached_blank(self):
        reports = [
            self.report("slow", 2.0, itt=None),
            self.report("failed", float("nan"), gn=float("nan")),
            self.report("fast", 1.0, itt=5),
        ]
        lines = emit_summary(reports).splitlines()
        assert lines[0] == "optimizer,best_f,epoch_of_best,final_grad_norm,iters_to_threshold"
        assert lines[1] == "fast,1.0,7,0.5,5"
        assert lines[2] == "slow,2.0,7,0.5,"
        assert lines[3] == "failed,nan,7,nan,"

    def test_ties_keep_declaration_order(self):
        reports = [self.report("first", 1.0), self.report("second", 1.0)]
        lines = emit_summary(reports).splitlines()
        assert lines[1].startswith("first,")
        assert lines[2].startswith("second,")

    def test_written_file_matches_returned_text(self, tmp_path):
        reports = [self.report("only", 3.5, itt=2)]
        text = emit_summary(reports, tmp_path / "summary.csv")
        assert (tmp_path / "summary.csv").read_text() == text

    def test_floats_render_with_repr(self):
        text = emit_summary([self.report("r", 0.1 + 0.2, gn=1e-17)])
        assert "0.30000000000000004" in text
        assert "1e-17" in text


class TestRunCompare:
    def test_summary_artifacts_ranked(self, tmp_path):
        payload = base_payload()
        payload["optimizers"] = [
            {"kind": "adam", "eta": 0.001, "name": "slow"},
            {"kind": "adam", "eta": 0.05, "name": "fast"},
        ]
        config = load_config(write_config(tmp_path, payload))
        out = tmp_path / "out"
        reports = run_compare(config, out_dir=out)
        assert [r.optimizer for r in reports] == ["slow", "fast"]
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[1].startswith("fast,")
        assert lines[2].startswith("slow,")
        ranked = json.loads((out / "summary.json").read_text())
        assert [r["optimizer"] for r in ranked] == ["fast", "slow"]

    def test_bundled_example_config_runs_clean(self, tmp_path):
        config = load_config(REPO_ROOT / "configs" / "example_compare.json")
        assert len(config.optimizers) == 6
        reports = run_compare(config, out_dir=tmp_path / "out")
        for report in reports:
            assert "error" not in report.diagnostics
            assert report.iters_to_threshold is not None
            assert report.iters_to_threshold <= config.iterations


class TestRunFlows:
    def flow_config(self, tmp_path):
        payload = base_payload()
        payload["optimizers"] = [
            {"kind": "gadagrad", "eta": 0.5, "c": 0.5},
            {"kind": "adam", "eta": 0.05},
            {"kind": "sgd_momentum", "eta": 0.01},
        ]
        return load_config(write_config(tmp_path, payload))

    def test_flow_artifacts_and_skip_note(self, tmp_path, capsys):
        config = self.flow_config(tmp_path)
        out = tmp_path / "out"
        reports = run_flows(config, dt=0.01, t_end=1.0, out_dir=out)
        err = capsys.readouterr().err
        assert (
            "note: skipping optimizers[2] (sgd_momentum): "
            "sgd_momentum has no flow counterpart" in err
        )
        assert len(reports) == 2
        assert (out / "flow_00_gadagrad.csv").exists()
        assert (out / "flow_01_adam.csv").exists()
        header = (out / "flow_00_gadagrad.csv").read_text().splitlines()[0]
        assert header == "t,f,grad_norm,alpha,x_0,x_1,mu_0,mu_1,zeta_0,zeta_1,nu_0,nu_1"
        records = json.loads((out / "flow_report.json").read_text())
        assert [r["optimizer"] for r in records] == ["gadagrad", "adam"]

    def test_flow_reports_diagnose_energy_and_box(self, tmp_path):
        config = self.flow_config(tmp_path)
        reports = run_flows(config, dt=0.01, t_end=1.0, out_dir=tmp_path / "out")
        gad, adam = reports
        assert gad.diagnostics["energy_residual_max_abs"] >= 0.0
        assert gad.diagnostics["energy_residual_max_abs"] < 0.05
        assert "energy_residual_max_abs" not in adam.diagnostics
        for report in reports:
            assert report.diagnostics["stayed_in_box"] is True
            assert isinstance(report.epoch_of_best, int)
            assert 0 <= report.epoch_of_best <= 100


    def test_report_epochs_count_steps_at_record_stride(self, tmp_path):
        payload = base_payload()
        payload["threshold"] = 1e-2
        payload["optimizers"] = [{"kind": "gadagrad", "eta": 0.5, "c": 0.5}, {"kind": "adam", "eta": 0.05}]
        reports = {}
        for stride in (1, 7):
            payload["record_stride"] = stride
            config = load_config(write_config(tmp_path, payload, f"stride{stride}.json"))
            reports[stride] = run_flows(config, dt=0.05, t_end=20.0, out_dir=tmp_path / f"out{stride}")
        for i, (report, name) in enumerate(zip(reports[7], ("gadagrad", "adam"))):
            rows = np.loadtxt(tmp_path / "out1" / f"flow_{i:02d}_{name}.csv", delimiter=",", skiprows=1)
            # the rows a stride-7 run records: every 7th step and the final one
            steps = np.unique(np.r_[np.arange(0, 401, 7), 400])
            f, grad_norm = rows[steps, 1], rows[steps, 2]
            assert report.best_f == f.min()
            assert report.epoch_of_best == steps[np.argmin(f)]
            assert report.iters_to_threshold == steps[np.argmax(grad_norm < 1e-2)]
            assert report.final_grad_norm == reports[1][i].final_grad_norm
            assert report.iters_to_threshold > len(steps)

    def test_non_finite_record_fails_the_flow(self, tmp_path):
        payload = base_payload()
        payload["objective"]["x0"] = [1e200, 1e200]
        payload["optimizers"] = [{"kind": "gadagrad"}, {"kind": "adam"}]
        payload["record_stride"] = 3
        config = load_config(write_config(tmp_path, payload))
        for report in run_flows(config, dt=0.01, t_end=0.1, out_dir=tmp_path / "out"):
            assert math.isnan(report.best_f)
            assert report.diagnostics == {
                "error": "diverged at iteration 0: f or the gradient norm is not finite",
                "diverged_at": 0,
            }
        # the flow leaves at the record whose f is not finite, its last row
        for name in ("flow_00_gadagrad.csv", "flow_01_adam.csv"):
            rows = np.loadtxt(tmp_path / "out" / name, delimiter=",", skiprows=1, ndmin=2)
            assert rows[:, 0].tolist() == [0.0]

    def test_non_finite_state_fails_the_flow(self, tmp_path, capsys, monkeypatch):
        # f and the gradient norm stay finite while nu overflows
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(tmp_path / "cli"))
        payload = base_payload()
        payload["objective"]["x0"] = [1e80, 1e80]
        payload["optimizers"] = [{"kind": "adabelief"}]
        payload["record_stride"] = 1
        path = write_config(tmp_path, payload)
        (report,) = run_flows(load_config(path), dt=10.0, t_end=500.0, out_dir=tmp_path / "out")
        assert math.isnan(report.best_f)
        assert report.diagnostics == {
            "error": "diverged at iteration 43: the state is not finite",
            "diverged_at": 43,
        }
        rows = np.loadtxt(tmp_path / "out" / "flow_00_adabelief.csv", delimiter=",", skiprows=1)
        assert rows[-1, 0] == 430.0
        assert np.isfinite(rows[:, 1:3]).all() and not np.isfinite(rows[-1]).all()
        assert cli.main(["flow", str(path), "--dt", "10", "--t-end", "500"]) == 2
        assert "failed runs: adabelief" in capsys.readouterr().err

    def test_failed_flow_keeps_its_solo_error(self, tmp_path):
        payload = base_payload()
        payload["objective"]["x0"] = [0.0, 0.0]
        payload["optimizers"] = [{"kind": "adamssm", "b3": 0.02}, {"kind": "gadagrad"}]
        config = load_config(write_config(tmp_path, payload))
        failed, kept = run_flows(config, dt=50.0, t_end=100.0, out_dir=tmp_path / "out")
        assert failed.diagnostics == {
            "error": "StepFailure: stage evaluation left the domain: "
            "nu must be positive componentwise at t=50"
        }
        assert "error" not in kept.diagnostics
        assert not (tmp_path / "out" / "flow_00_adamssm.csv").exists()
        assert (tmp_path / "out" / "flow_01_gadagrad.csv").exists()


class TestCli:
    def test_analyze_prints_pole_payload(self, capsys):
        rc = cli.main(["analyze", "--b2", "0.0067", "--b3", "0.02"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        poles = payload["poles"]
        assert abs(poles[0][0] - -0.031997058540778) < 1e-12
        assert abs(poles[1][0] - -0.001402941459222) < 1e-12
        assert poles[0][1] == 0.0 and poles[1][1] == 0.0
        assert payload["zeros"] == [[-0.0067, 0.0]]
        assert abs(payload["p"] - 0.030594117082) < 1e-11
        assert payload["dc_gain"] == 1.0

    def test_analyze_rejects_bad_rate(self, capsys):
        rc = cli.main(["analyze", "--b2", "0"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_analyze_rejects_non_finite_rates(self, capsys):
        for rates in (["--b2", "inf"], ["--b2", "0.0067", "--b3", "inf"], ["--b2", "nan"]):
            rc = cli.main(["analyze", *rates])
            assert rc == 1, rates
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "rates", [["1e200"], ["1e-170"], ["1e-320"], ["1e-3", "--b3", "1e200"]], ids=" ".join
    )
    def test_analyze_rejects_rates_the_closed_forms_cannot_represent(self, capsys, rates):
        rc = cli.main(["analyze", "--b2", *rates])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Warning" not in captured.err

    def test_module_entry_point_prints_the_cli_payload(self, capsys):
        args = ["analyze", "--b2", "0.0067", "--b3", "0.02"]
        assert cli.main(args) == 0
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "ssmopt", *args], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0
        assert done.stdout == capsys.readouterr().out

    def test_run_with_missing_config_fails_validation_exit(self, capsys, tmp_path):
        rc = cli.main(["run", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error: cannot read config file" in capsys.readouterr().err

    def test_run_happy_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(tmp_path / "out"))
        path = write_config(tmp_path, base_payload())
        rc = cli.main(["run", str(path)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("wrote 1 trajectories and report.json")
        assert (tmp_path / "out" / "report.json").exists()

    def test_run_rejects_bad_hyperparameters(self, capsys, tmp_path):
        payload = base_payload()
        payload["optimizers"] = [{"kind": "adam", "b1": 0.5, "b2": 0.6}]
        rc = cli.main(["run", str(write_config(tmp_path, payload))])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "optimizers[0]: b2 < b1" in err

    def test_compare_prints_summary_and_succeeds(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(tmp_path / "out"))
        path = write_config(tmp_path, base_payload())
        rc = cli.main(["compare", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("optimizer,best_f,epoch_of_best,final_grad_norm,iters_to_threshold")

    def test_compare_reports_failed_runs_with_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(tmp_path / "out"))
        payload = base_payload()
        payload["optimizers"] = [
            {"kind": "adamssm", "b3": 0.02, "delta": 100.0, "name": "unstable"},
            {"kind": "adam", "eta": 0.05},
        ]
        rc = cli.main(["compare", str(write_config(tmp_path, payload))])
        assert rc == 2
        err = capsys.readouterr().err
        assert "failed runs: unstable" in err
        assert "report.json" in err

    def test_compare_fails_a_diverging_run_with_exit_2(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(out))
        payload = {
            "objective": {"kind": "quadratic", "dim": 2, "cond": 100.0},
            "optimizers": [{"kind": "sgd_momentum", "eta": 0.5, "name": "diverging"}],
            "iterations": 200,
        }
        rc = cli.main(["compare", str(write_config(tmp_path, payload))])
        assert rc == 2
        assert "failed runs: diverging" in capsys.readouterr().err
        (record,) = json.loads((out / "report.json").read_text())
        k = record["diagnostics"]["diverged_at"]
        assert record["diagnostics"]["error"] == (
            f"diverged at iteration {k}: f or the gradient norm is not finite"
        )
        assert record["best_f"] is None and record["final_grad_norm"] is None
        # the trajectory ends at the first non-finite row
        rows = np.loadtxt(out / "traj_00_diverging.csv", delimiter=",", skiprows=1)
        assert rows[-1, 0] == k < 200
        assert not np.isfinite(rows[-1, :3]).all()
        assert np.isfinite(rows[:-1, :3]).all()

    def test_flow_argument_checks_precede_config_loading(self, capsys, tmp_path):
        rc = cli.main(["flow", str(tmp_path / "nope.json"), "--dt", "0", "--t-end", "1"])
        assert rc == 1
        assert "--dt must be positive" in capsys.readouterr().err
        rc = cli.main(["flow", str(tmp_path / "nope.json"), "--dt", "0.01", "--t-end", "0.005"])
        assert rc == 1
        assert "--t-end must be at least --dt" in capsys.readouterr().err
        rc = cli.main(["flow", str(tmp_path / "nope.json"), "--dt", "0.3", "--t-end", "1.0"])
        assert rc == 1
        assert "--t-end must be a whole number of --dt steps" in capsys.readouterr().err

    def test_flow_happy_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(tmp_path / "out"))
        path = write_config(tmp_path, base_payload())
        rc = cli.main(["flow", str(path), "--dt", "0.05", "--t-end", "0.5"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("wrote 1 flow trajectories")
        assert (tmp_path / "out" / "flow_report.json").exists()

    def test_flow_with_nothing_to_integrate_fails(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(out))
        payload = base_payload()
        payload["optimizers"] = [{"kind": "sgd_momentum", "eta": 0.01}]
        rc = cli.main(["flow", str(write_config(tmp_path, payload)), "--dt", "0.05", "--t-end", "0.5"])
        assert rc == 1
        assert "error: invalid parameters: optimizers: at least one entry with a flow counterpart" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run"], ["flow", "--dt", "0.05", "--t-end", "0.5"]], ids=["run", "flow"])
    @pytest.mark.parametrize("objective, message", UNBUILDABLE_OBJECTIVES)
    def test_objective_that_cannot_be_built_creates_no_output(
        self, capsys, tmp_path, monkeypatch, command, objective, message
    ):
        out = tmp_path / "out"
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(out))
        payload = base_payload()
        payload["objective"] = objective
        command = [command[0], str(write_config(tmp_path, payload)), *command[1:]]
        assert cli.main(command) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: invalid parameters: {message}\n")
        assert not out.exists()

    def test_flow_of_heavy_balls_on_a_bad_objective_reports_the_objective(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(out))
        payload = base_payload()
        payload["objective"] = {"kind": "rosenbrock", "dim": 1}
        payload["optimizers"] = [{"kind": "sgd_momentum"}]
        rc = cli.main(["flow", str(write_config(tmp_path, payload)), "--dt", "0.05", "--t-end", "0.5"])
        assert rc == 1
        assert capsys.readouterr().err == "error: invalid parameters: objective: d must be >= 2\n"
        assert not out.exists()

    def test_runtime_failures_exit_2(self, capsys, tmp_path, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(blocker / "sub"))
        path = write_config(tmp_path, base_payload())
        rc = cli.main(["run", str(path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("runtime failure:")
