"""Tests for config ingestion, batch execution, artifact emission, and the
command-line interface."""

import ast
import builtins
import dataclasses
import importlib.util
import json
import math
import os
import pickle
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import discrete_entry_run
from ssmopt import (
    FlowProblem, PresetKind, PresetParams, RunReport, StepFailure, ValidationError, cli, gadagrad_energy_residual,
    harness, integrate_reference, map_preset_to_general, preset_flow, rhs_general,
)
from ssmopt.discrete import BIAS_MODES, OptimizerSpec, bias_denominators, run_discrete_batch
from ssmopt.harness import (
    OBJECTIVE_KINDS,
    SUMMARY_COLUMNS,
    ExperimentConfig,
    ObjectiveSpec,
    ParseError,
    build_objective,
    default_x0,
    emit_summary,
    flow_skipped,
    load_config,
    resolve_out_dir,
    run_compare,
    run_experiment,
    run_flows,
)
from ssmopt.objectives import make_logistic, make_quadratic

REPO_ROOT = Path(__file__).resolve().parents[1]


# objectives that parse but that their factory rejects, with the message
UNBUILDABLE_OBJECTIVES = [
    pytest.param({"kind": "quadratic", "dim": 0}, "objective: d >= 1", id="dim"),
    pytest.param({"kind": "quadratic", "cond": 0.5}, "objective: condition_number >= 1", id="cond"),
    pytest.param({"kind": "logistic", "n_samples": 0}, "objective: n_samples >= 1", id="n_samples"),
    pytest.param({"kind": "rosenbrock", "dim": 1}, "objective: d >= 2", id="rosenbrock-dim"),
]


# the conditions on the arrays a config sizes, each within numpy's byte limit
RECORD_TABLE = "(ceil(iterations / record_stride) + 1) * (4 + 4*dim) floats within numpy's array size limit"
LOGISTIC_BUFFER = "objective: (n_samples + 1) * d floats within numpy's array size limit"


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


def run_under_ascii_locale(args, **env):
    """python -X utf8=0 with args, in an ASCII locale with neither locale
    coercion nor UTF-8 mode: open's default and the file-system encoding are ASCII."""
    env = {**{k: v for k, v in os.environ.items() if k != "PYTHONUTF8"}, **env}
    env.update(PYTHONPATH=str(REPO_ROOT / "src"), PYTHONCOERCECLOCALE="0", LC_ALL="C", LANG="C")
    return subprocess.run([sys.executable, "-X", "utf8=0", *args], env=env, capture_output=True, text=True, timeout=60)


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
        payload = base_payload()
        payload["optimizers"][0]["bias_mode"] = 1
        with pytest.raises(ParseError, match="optimizers\\[0\\].bias_mode: expected a string, got int"):
            load_config(write_config(tmp_path, payload))
        payload = base_payload()
        payload["output_dir"] = 3
        with pytest.raises(ParseError, match="config.output_dir: expected a string, got int"):
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

    def test_names_that_break_the_summary_csv_rejected(self, tmp_path, monkeypatch, capsys):
        # a lone surrogate passes every other name rule, but summary.csv cannot hold it as UTF-8
        out = tmp_path / "out"
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(out))
        for bad in ("adam, fast", 'the "fast" one', "line\nbreak", "carriage\rreturn", "a\udce9"):
            payload = base_payload()
            payload["optimizers"] = [{"kind": "adam"}, {"kind": "adam", "name": bad}]
            path = write_config(tmp_path, payload)
            with pytest.raises(ParseError, match="optimizers\\[1\\].name: "):
                load_config(path)
            assert cli.main(["compare", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: optimizers[1].name: ")
            assert not out.exists()
        payload = base_payload()
        payload["optimizers"] = [{"kind": "adamssm", "b3": 0.01, "name": "adamssm-b30.01-eta0.01"}]
        assert load_config(write_config(tmp_path, payload)).optimizers[0].name == "adamssm-b30.01-eta0.01"

    def test_code_built_entry_name_that_breaks_the_summary_csv_rejected(self):
        # the entry itself names the condition, so no code-built config can write such a row
        for bad in ("a,b", 'the "fast" one', "line\nbreak", "carriage\rreturn"):
            with pytest.raises(ValidationError) as err:
                OptimizerSpec("adam", bad, PresetParams())
            assert err.value.violations == ["name without comma, double quote, CR or LF"]
        with pytest.raises(ValidationError) as err:
            OptimizerSpec("adam", "a,\udce9", PresetParams())
        assert err.value.violations == ["name without comma, double quote, CR or LF", "name encodable as UTF-8"]

    def test_name_too_long_for_a_file_rejected_before_any_output(self, tmp_path, monkeypatch, capsys):
        # traj_00_ and .csv take 12 of a file name's 255 bytes, and an e-acute takes two in UTF-8
        out = tmp_path / "out"
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(out))
        too_long = "optimizers[1].name: artifact file name at most 255 bytes"
        for name in ("a" * 300, "a" * 244, "\u00e9" * 122):
            payload = base_payload()
            payload["optimizers"] = [{"kind": "adam", "name": "ok"}, {"kind": "adam", "name": name}]
            path = write_config(tmp_path, payload)
            with pytest.raises(ValidationError) as err:
                load_config(path)
            assert err.value.violations == [too_long]
            assert cli.main(["compare", str(path)]) == 1
            assert capsys.readouterr() == ("", f"error: invalid parameters: {too_long}\n")
            assert not out.exists()
        # a config built in code is checked by the run, before any output
        config = load_config(write_config(tmp_path, base_payload()))
        long_entry = dataclasses.replace(config, optimizers=(OptimizerSpec("adam", "a" * 300, PresetParams()),))
        for run in (run_compare, lambda config, out_dir: run_flows(config, 0.1, 1.0, out_dir)):
            with pytest.raises(ValidationError) as err:
                run(long_entry, out)
            assert err.value.violations == [too_long.replace("[1]", "[0]")]
            assert not out.exists()
        # the longest names that fit run and are written under them
        payload["optimizers"] = [{"kind": "adam", "name": "a" * 243}, {"kind": "adam", "name": "\u00e9" * 121 + "a"}]
        assert cli.main(["compare", str(write_config(tmp_path, payload))]) == 0
        written = sorted(p.name for p in out.glob("traj_*.csv"))
        assert written == ["traj_00_" + "a" * 243 + ".csv", "traj_01_" + "\u00e9" * 121 + "a.csv"]

    def test_name_the_file_system_cannot_encode_rejected_before_any_output(self, tmp_path):
        payload = base_payload()
        payload["optimizers"] = [{"kind": "adam", "name": "ok"}, {"kind": "adam", "name": "adam-\u00e9"}]
        path = tmp_path / "ascii.json"
        path.write_bytes(json.dumps(payload, ensure_ascii=False).encode("utf-8"))
        out = tmp_path / "out"
        done = run_under_ascii_locale(["-m", "ssmopt", "compare", str(path)], SSMOPT_OUT_DIR=str(out))
        assert (done.returncode, done.stdout) == (1, "")
        failed = "optimizers[1].name: artifact file name encodable in the file-system encoding"
        assert done.stderr == f"error: invalid parameters: {failed}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"objective": {"kind": "quadratic", "dim": 10 ** 20}}, RECORD_TABLE),
            # numpy: array is too big
            ({"objective": {"kind": "quadratic", "dim": 2 ** 61}}, RECORD_TABLE),
            ({"objective": {"kind": "logistic", "n_samples": 10 ** 20}}, LOGISTIC_BUFFER),
            ({"iterations": 10 ** 20}, RECORD_TABLE),
        ],
        ids=["dim", "dim-2**61", "n_samples", "iterations"],
    )
    def test_size_no_array_can_hold_rejected_before_any_output(self, tmp_path, monkeypatch, capsys, change, message):
        # each size is beyond numpy's byte limit, so nothing is allocated; one that fits but
        # cannot be allocated is a MemoryError (TestBlocks)
        out = tmp_path / "out"
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(out))
        path = write_config(tmp_path, {**base_payload(), **change})
        with pytest.raises(ValidationError) as err:
            load_config(path)
        assert err.value.violations == [message]
        assert cli.main(["compare", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: invalid parameters: {message}\n")
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "entry, failed",
        [
            ({"kind": "adam", "delta": 3.0}, ["optimizers[0]: 1 - delta*b1 >= 0 required (delta=3, b1=0.67)"]),
            (
                {"kind": "adamssm", "b3": 0.02, "delta": 100.0},
                [
                    "optimizers[0]: 1 - delta*b1 >= 0 required (delta=100, b1=0.67)",
                    "optimizers[0]: 1 - delta*b2 - delta*b3 >= 0 required (delta=100, b2=0.0067, b3=0.02)",
                ],
            ),
        ],
        ids=["adam", "adamssm"],
    )
    def test_unstable_sampling_time_rejected_at_parse(self, tmp_path, monkeypatch, capsys, entry, failed):
        payload = {
            "objective": {"kind": "quadratic", "dim": 2},
            "optimizers": [{**entry, "name": "big", "eta": 0.01}, {"kind": "adam", "name": "ok"}],
            "iterations": 6,
        }
        path = write_config(tmp_path, payload)
        with pytest.raises(ValidationError) as err:
            load_config(path)
        assert err.value.violations == failed
        # the commands exit 1 naming the conditions, before any output exists
        out = tmp_path / "out"
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(out))
        for argv in (["run", str(path)], ["compare", str(path)], ["flow", str(path), "--dt", "0.01", "--t-end", "1"]):
            assert cli.main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: {err.value}\n", argv
            assert not out.exists(), argv

    def test_empty_output_dir_rejected(self, tmp_path, monkeypatch, capsys):
        # Path("") is the current directory, where every artifact would land
        payload = {**base_payload(), "output_dir": ""}
        path = write_config(tmp_path, payload)
        with pytest.raises(ValidationError) as err:
            load_config(path)
        assert err.value.violations == ["output_dir non-empty"]
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.delenv("SSMOPT_OUT_DIR", raising=False)
        assert cli.main(["compare", str(path)]) == 1
        assert capsys.readouterr() == ("", "error: invalid parameters: output_dir non-empty\n")
        assert list(cwd.iterdir()) == []

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read config file"):
            load_config(tmp_path / "missing.json")

    def test_file_that_is_not_utf8_exits_1(self, tmp_path, capsys):
        payload = base_payload()
        payload["optimizers"][0]["name"] = "adam-\u00e9"
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(payload, ensure_ascii=False).encode("latin-1"))
        with pytest.raises(ParseError, match="cannot read config file .*can't decode byte 0xe9"):
            load_config(path)
        assert cli.main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {path}: ")

    def test_utf8_file_read_whatever_the_locale(self, tmp_path):
        # an ASCII locale with neither locale coercion nor UTF-8 mode: open's default is ASCII;
        # an en dash is no letter, so the artifact name is ASCII and the entry is valid there
        payload = base_payload()
        payload["optimizers"][0]["name"] = "adam\u2013ssm"
        path = tmp_path / "utf8.json"
        path.write_bytes(json.dumps(payload, ensure_ascii=False).encode("utf-8"))
        code = "import sys, ssmopt.harness as h; print(ascii(h.load_config(sys.argv[1]).optimizers[0].name))"
        done = run_under_ascii_locale(["-c", code, str(path)])
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == ascii("adam\u2013ssm") + "\n"

    @pytest.mark.parametrize(
        "text, key",
        [
            pytest.param('{"objective": {"kind": "quadratic"}, "optimizers": [{"kind": "adam"}], '
                         '"iterations": 10, "iterations": 20}', "iterations", id="top-level"),
            pytest.param('{"objective": {"kind": "quadratic", "dim": 2, "dim": 3}, '
                         '"optimizers": [{"kind": "adam"}]}', "objective.dim", id="objective"),
            pytest.param('{"objective": {"kind": "quadratic"}, '
                         '"optimizers": [{"kind": "adam", "eta": 0.1, "eta": 5.0}]}', "optimizers[0].eta",
                         id="optimizer"),
            pytest.param('{"objective": {"kind": "quadratic"}, "optimizers": [{"kind": "adam", "eta": 0.1}, '
                         '{"kind": "adam", "eta": 0.1, "eta": 0.2}]}', "optimizers[1].eta", id="second-entry"),
            pytest.param('{"objective": {"kind": "quadratic"}, "optimizers": [{"kind": "adam"}], '
                         '"schedule": {"milestones": [], "milestones": [[5, 0.1]]}}', "schedule.milestones",
                         id="schedule"),
        ],
    )
    def test_duplicate_key_exits_1(self, tmp_path, capsys, text, key):
        # json.loads alone would keep the last value and run with it; the message names the key's path
        path = tmp_path / "duplicate.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=f"^duplicate key '{re.escape(key)}'$"):
            load_config(path)
        assert cli.main(["run", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: duplicate key '{key}'\n")


def _perfbench_workloads():
    # perfbench/workloads.py by its path, without putting perfbench on sys.path
    spec = importlib.util.spec_from_file_location("perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestShippedConfigs:
    """Every config the repo ships or benchmarks passes load_config, so a
    stricter parse never rejects one."""

    @pytest.mark.parametrize(
        "path", sorted(p for p in (REPO_ROOT / "configs").rglob("*") if p.is_file()), ids=lambda p: p.name
    )
    def test_bundled_config_loads(self, path):
        load_config(path)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_workload_configs_load(self, tmp_path, seed):
        workloads = _perfbench_workloads()
        for workload in workloads.WORKLOADS:
            config = workloads.make_config(workload, seed)
            for name, payload in (("main", config), ("probe", workloads.probe_config(config))):
                load_config(write_config(tmp_path, payload, f"{workload}-{name}.json"))


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


class TestOneObjectiveBuild:
    """A command builds its objective once: load_config keeps the objective
    it builds to validate the config, and the run uses it."""

    @pytest.mark.parametrize("argv", [["run"], ["compare"], ["flow", "--dt", "0.1", "--t-end", "1"]])
    def test_each_command_builds_the_objective_once(self, argv, tmp_path, monkeypatch, capsys):
        factory, keys, x0 = OBJECTIVE_KINDS["quadratic"]
        calls = []

        def counted(*args):
            calls.append(args)
            return factory(*args)

        monkeypatch.setitem(OBJECTIVE_KINDS, "quadratic", (counted, keys, x0))
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(tmp_path / "out"))
        assert cli.main([argv[0], str(write_config(tmp_path, base_payload())), *argv[1:]]) == 0
        assert calls == [(2, 10.0)]

    def test_a_replaced_objective_is_built_again(self, tmp_path):
        config = load_config(write_config(tmp_path, base_payload()))
        assert config.built.name == "quadratic_d2_cond10"
        # the kept objective is no part of the config's value
        assert dataclasses.replace(config) == config and "built" not in repr(config)
        replaced = dataclasses.replace(config, objective=ObjectiveSpec("rosenbrock", 2))
        assert replaced.built is None
        # run before any other config is loaded, so no later build can stand in for it
        got = run_experiment(replaced, out_dir=tmp_path / "replaced")
        payload = base_payload()
        payload["objective"] = {"kind": "rosenbrock", "dim": 2}
        fresh = load_config(write_config(tmp_path, payload, "rosenbrock.json"))
        assert repr(got) == repr(run_experiment(fresh, out_dir=tmp_path / "fresh"))
        assert repr(got) != repr(run_experiment(config, out_dir=tmp_path / "quadratic"))
        for name in ("report.json", "traj_00_adam.csv"):
            assert (tmp_path / "replaced" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


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
        payload["optimizers"] = [{"kind": "adam", "eta": 0.05, "name": "fine"}]
        config = load_config(write_config(tmp_path, payload))
        # load_config rejects an unstable sampling time, so the entry is built in code
        unstable = OptimizerSpec("adamssm", "unstable", PresetParams(b3=0.02, delta=100.0))
        config = dataclasses.replace(config, optimizers=(unstable, *config.optimizers))
        out = tmp_path / "out"
        reports = run_experiment(config, out_dir=out)
        assert math.isnan(reports[0].best_f)
        assert reports[0].diagnostics["error"].startswith("ValidationError")
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

    def test_rates_that_would_turn_nu_negative_fail_as_in_the_library(self, tmp_path):
        # load_config rejects delta < 0 and a b3 < 0 or NaN, so these entries are
        # built in code: each fails its first step with the library's named
        # error, and no CSV is written for it, while b3 = 0 still steps
        payload = base_payload()
        payload.update(objective={"kind": "quadratic", "dim": 3, "cond": 10.0}, iterations=3000, record_stride=100)
        config = load_config(write_config(tmp_path, payload))
        drained = OptimizerSpec("gadagrad", "drained", PresetParams(delta=-0.15))
        coupled = [
            OptimizerSpec("adamssm", f"coupled{b3:g}", PresetParams(b3=b3, eta=0.05)) for b3 in (-0.005, -0.02, math.nan)
        ]
        failed = {
            drained: "delta > 0",
            coupled[0]: "delta*b3 >= 0 required (delta=0.15, b3=-0.005)",
            coupled[1]: "delta*b3 >= 0 required (delta=0.15, b3=-0.02)",
            coupled[2]: "delta*b3 >= 0 required (delta=0.15, b3=nan)",
        }
        uncoupled = OptimizerSpec("adamssm", "uncoupled", PresetParams(b3=0.0))
        specs = [drained, config.optimizers[0], coupled[0], uncoupled, coupled[1], coupled[2]]
        out = tmp_path / "out"
        reports = run_experiment(dataclasses.replace(config, optimizers=tuple(specs)), out_dir=out)
        x0 = default_x0(config.objective)
        for i, (spec, report) in enumerate(zip(specs, reports)):
            (solo,) = run_discrete_batch([spec], config.built, x0, config.iterations, record_stride=config.record_stride)
            if spec in failed:
                assert isinstance(solo, ValidationError) and solo.violations == [failed[spec]]
                assert math.isnan(report.best_f)
                assert report.diagnostics == {"error": f"ValidationError: invalid parameters: {failed[spec]}"}
                continue
            traj, want = solo
            assert repr(report) == repr(want)
            traj.to_csv(tmp_path / "solo.csv")
            assert (out / f"traj_{i:02d}_{spec.name}.csv").read_bytes() == (tmp_path / "solo.csv").read_bytes()
        assert sorted(path.name for path in out.iterdir()) == ["report.json", "traj_01_adam.csv", "traj_03_uncoupled.csv"]

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

    def test_artifact_names_formed_in_one_place(self):
        # every f-string, + or % ending in ".csv", and every str.format, with_suffix or with_name
        # of one, by top-level definition (a fixed name such as summary.csv is none of these):
        # an artifact name checked before a run is the one it writes
        def csv(node):
            return isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.endswith(".csv")

        found = set()
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
                for node in ast.walk(top):
                    formed = isinstance(node, ast.JoinedStr) and csv(node.values[-1])
                    formed |= isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod)) and (
                        csv(node.left) or csv(node.right)
                    )
                    formed |= isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
                        "format", "with_suffix", "with_name"
                    ) and any(csv(n) for n in [getattr(node.func, "value", None), *node.args])
                    if formed:
                        found.add(f"{path.name}:{getattr(top, 'name', top.lineno)}")
        assert sorted(found) == ["harness.py:_artifact_name"]

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
        # the library skips the sgd_momentum entry silently; the CLI notes it
        assert capsys.readouterr() == ("", "")
        assert flow_skipped(config) == [2]
        assert len(reports) == 2
        assert (out / "flow_00_gadagrad.csv").exists()
        assert (out / "flow_01_adam.csv").exists()
        header = (out / "flow_00_gadagrad.csv").read_text().splitlines()[0]
        assert header == "t,f,grad_norm,alpha,x_0,x_1,mu_0,mu_1,zeta_0,zeta_1,nu_0,nu_1"
        records = json.loads((out / "flow_report.json").read_text())
        assert [r["optimizer"] for r in records] == ["gadagrad", "adam"]

    @pytest.mark.parametrize(
        "dt, t_end, failed",
        [(-1.0, 1.0, "dt > 0"), (0.01, 0.001, "t_end >= dt"), (0.3, 1.0, "t_end a whole number of dt steps")],
    )
    def test_bad_grid_raises_before_any_output(self, tmp_path, dt, t_end, failed):
        config = self.flow_config(tmp_path)
        out = tmp_path / "out"
        with pytest.raises(ValidationError) as err:
            run_flows(config, dt=dt, t_end=t_end, out_dir=out)
        assert err.value.violations == [failed]
        assert not out.exists()

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


    def test_energy_diagnostic_is_the_library_residual_of_the_solo_flow(self, tmp_path):
        config = dataclasses.replace(self.flow_config(tmp_path), record_stride=3)
        gad, _ = run_flows(config, dt=0.01, t_end=1.0, out_dir=tmp_path / "out")
        nu0 = np.full(config.objective.dim, harness.FLOW_NU0)
        problem = preset_flow(
            PresetKind.GADAGRAD, config.optimizers[0].preset, build_objective(config.objective),
            default_x0(config.objective), nu0,
        )
        traj = integrate_reference(problem, 0.01, 1.0, record_stride=3)
        residual = gadagrad_energy_residual(traj, problem)
        assert gad.diagnostics["energy_residual_max_abs"] == float(np.max(np.abs(residual)))

    def test_energy_diagnostic_is_finished_before_any_output(self, tmp_path, monkeypatch):
        out = tmp_path / "out"

        def residual(traj, problem):
            assert not out.exists()
            raise ArithmeticError("no residual")

        monkeypatch.setattr(harness, "gadagrad_energy_residual", residual)
        gad, adam = run_flows(self.flow_config(tmp_path), dt=0.01, t_end=1.0, out_dir=out)
        # a residual that raises fails only its own entry, which writes no CSV
        assert math.isnan(gad.best_f)
        assert gad.diagnostics == {"error": "ArithmeticError: no residual"}
        assert "error" not in adam.diagnostics
        assert sorted(path.name for path in out.iterdir()) == ["flow_01_adam.csv", "flow_report.json"]

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

    def test_entry_whose_flow_cannot_be_built_is_isolated(self, tmp_path):
        config = self.flow_config(tmp_path)
        # load_config rejects b3 < 0, so the entry is built in code; its preset_flow raises
        unbuildable = OptimizerSpec("adamssm", "unbuildable", PresetParams(b3=-1.0))
        config = dataclasses.replace(config, optimizers=(config.optimizers[0], unbuildable, *config.optimizers[1:]))
        out = tmp_path / "out"
        gadagrad, failed, adam = run_flows(config, dt=0.01, t_end=1.0, out_dir=out)
        assert failed.optimizer == "unbuildable" and math.isnan(failed.best_f)
        assert failed.diagnostics == {"error": "ValidationError: invalid parameters: b3 > 0"}
        written = sorted(path.name for path in out.iterdir())
        assert written == ["flow_00_gadagrad.csv", "flow_02_adam.csv", "flow_report.json"]
        records = json.loads((out / "flow_report.json").read_text())
        assert [r["optimizer"] for r in records] == ["gadagrad", "unbuildable", "adam"]
        # the other entries are the flows of the config without it
        want = run_flows(self.flow_config(tmp_path), dt=0.01, t_end=1.0, out_dir=tmp_path / "want")
        assert [gadagrad, adam] == want
        assert (out / "flow_02_adam.csv").read_bytes() == (tmp_path / "want" / "flow_01_adam.csv").read_bytes()


class TestBatchThatCannotStart:
    """A batch that cannot start raises before any output, from each run
    function; a failed run inside a batch is still a report."""

    RUNS = [
        pytest.param(run_experiment, id="run"),
        pytest.param(run_compare, id="compare"),
        pytest.param(lambda config, out_dir: run_flows(config, 0.1, 1.0, out_dir), id="flow"),
    ]

    @pytest.mark.parametrize("run", RUNS)
    def test_bad_run_settings_raise_before_any_output(self, run, tmp_path):
        config = dataclasses.replace(load_config(write_config(tmp_path, base_payload())), record_stride=0)
        out = tmp_path / "out"
        with pytest.raises(ValidationError) as err:
            run(config, out_dir=out)
        assert err.value.violations == ["record_stride >= 1"]
        assert not out.exists()

    @pytest.mark.parametrize("run", RUNS)
    def test_x0_off_the_objective_raises_before_any_output(self, run, tmp_path):
        config = load_config(write_config(tmp_path, base_payload()))
        config = dataclasses.replace(config, objective=dataclasses.replace(config.objective, x0=(1.0, 2.0, 3.0)))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=re.escape("x0 shape (3,) does not match objective dimension 2")):
            run(config, out_dir=out)
        assert not out.exists()

    @pytest.mark.parametrize("run", RUNS)
    def test_empty_output_dir_raises_before_any_output(self, run, tmp_path, monkeypatch):
        # Path("") is the current directory: neither a config built in code nor
        # an out_dir given to the run may write into it
        config = load_config(write_config(tmp_path, base_payload()))
        empty = tmp_path / "empty"
        empty.mkdir()
        monkeypatch.chdir(empty)
        monkeypatch.delenv("SSMOPT_OUT_DIR", raising=False)
        for output_dir, out_dir in (("", None), ("runs", "")):
            with pytest.raises(ValidationError) as err:
                run(dataclasses.replace(config, output_dir=output_dir), out_dir=out_dir)
            assert err.value.violations == ["output_dir non-empty"]
            assert list(empty.iterdir()) == []


    @pytest.mark.parametrize(
        "run, failed",
        [
            pytest.param(run_experiment, "optimizers: at least one entry", id="run"),
            pytest.param(run_compare, "optimizers: at least one entry", id="compare"),
            pytest.param(
                lambda config, out_dir: run_flows(config, 0.1, 1.0, out_dir),
                "optimizers: at least one entry with a flow counterpart",
                id="flow",
            ),
        ],
    )
    def test_a_config_with_no_entry_raises_before_any_output(self, run, failed, tmp_path, monkeypatch):
        # load_config rejects an empty optimizers list, so the config is built in code
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SSMOPT_OUT_DIR", raising=False)
        # named before the output directory is checked
        for output_dir in ("out", ""):
            with pytest.raises(ValidationError) as err:
                run(ExperimentConfig(ObjectiveSpec("quadratic"), (), output_dir=output_dir), out_dir=None)
            assert err.value.violations == [failed]
        assert list(tmp_path.iterdir()) == []


def heavy_payload():
    """Six entries on logistic regression with n_samples 2000 and dim 100:
    work enough per step that the batch splits into blocks."""
    moment = {"eta": 0.05, "b1": 0.67, "b2": 0.0067, "delta": 0.15}
    return {
        "objective": {"kind": "logistic", "dim": 100, "n_samples": 2000, "seed": 5},
        "optimizers": [
            {"kind": "gadagrad", "eta": 0.5},
            {"kind": "adam", **moment},
            {"kind": "adabelief", **moment},
            {"kind": "adamssm", "b3": 0.02, **moment},
            {"kind": "adabeliefssm", "b3": 0.02, **moment},
            {"kind": "sgd_momentum", "eta": 0.5, "beta": 0.9},
        ],
        "iterations": 20,
        "record_stride": 3,
        "threshold": 1e-4,
    }


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestBlocks:
    """A heavy batch runs as blocks in forked workers, each of which writes
    its own rows: the artifacts are those of each entry's solo run."""

    @pytest.fixture
    def forks(self, monkeypatch):
        # three usable CPUs, whatever the host has, and a count of the workers forked
        forked = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(os, "fork", counted_fork)
        return forked

    @pytest.mark.parametrize(
        "command, prefix, report",
        [
            pytest.param(run_compare, "traj", "report.json", id="compare"),
            pytest.param(lambda config, out: run_flows(config, 0.05, 0.5, out), "flow", "flow_report.json", id="flow"),
        ],
    )
    def test_every_row_is_its_solo_run(self, tmp_path, forks, command, prefix, report):
        config = load_config(write_config(tmp_path, heavy_payload()))
        assert len(config.optimizers) * config.built.work >= harness.SPLIT_WORK
        command(config, tmp_path / "split")
        assert len(forks) == 2
        assert_no_child_left()
        records = json.loads((tmp_path / "split" / report).read_text())
        solo_records = []
        for i, spec in enumerate(config.optimizers):
            if prefix == "flow" and spec.kind == "sgd_momentum":
                continue
            solo = tmp_path / f"solo{i}"
            command(dataclasses.replace(config, optimizers=(spec,)), solo)
            (split_csv,) = (tmp_path / "split").glob(f"{prefix}_{i:02d}_*.csv")
            assert split_csv.read_bytes() == (solo / f"{prefix}_00_{spec.name}.csv").read_bytes()
            solo_records += json.loads((solo / report).read_text())
        assert len(forks) == 2
        assert records == solo_records
        assert_no_child_left()

    def test_a_batch_that_cannot_allocate_exits_2_with_no_output(self, tmp_path, monkeypatch, capsys, forks):
        out = tmp_path / "out"
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(out))
        payload = heavy_payload()
        payload["iterations"] = 10 ** 15
        assert cli.main(["compare", str(write_config(tmp_path, payload))]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("runtime failure: MemoryError: ")
        assert not out.exists()
        assert len(forks) == 2
        assert_no_child_left()

    def test_a_workers_exception_is_raised_with_its_type_and_message(self, tmp_path, forks):
        # only the last of three blocks raises: the parent stops the other worker and writes nothing
        def run(block, objective, x0):
            if 2 in block:
                raise ValidationError(["a > 0", "b < 1"])
            return [ValueError("not run")] * len(block)

        config = load_config(write_config(tmp_path, heavy_payload()))
        out = tmp_path / "out"
        with pytest.raises(ValidationError) as err:
            harness._run_blocks(config, out, [0, 1, 2], run, "traj", "report.json")
        assert err.value.violations == ["a > 0", "b < 1"]
        assert str(err.value) == "invalid parameters: a > 0; b < 1"
        assert not out.exists()
        assert len(forks) == 2
        assert_no_child_left()

    @pytest.mark.parametrize(
        "command, change, error, message",
        [
            pytest.param(run_compare, {"record_stride": 0}, ValidationError, "record_stride >= 1", id="compare-stride"),
            pytest.param(
                run_compare, {"x0": (1.0, 2.0, 3.0)}, ValueError,
                "x0 shape (3,) does not match objective dimension 100", id="compare-x0",
            ),
            pytest.param(
                run_compare, {"milestones": ((9, 0.5), (5, 0.5))}, ValidationError,
                "milestone iterations strictly increasing", id="compare-milestones",
            ),
            pytest.param(
                lambda config, out: run_flows(config, 0.05, 0.5, out), {"record_stride": 0}, ValidationError,
                "record_stride >= 1", id="flow-stride",
            ),
            pytest.param(
                lambda config, out: run_flows(config, 0.05, 0.5, out), {"x0": (1.0, 2.0, 3.0)}, ValueError,
                "x0 shape (3,) does not match objective dimension 100", id="flow-x0",
            ),
            pytest.param(
                lambda config, out: run_flows(config, -1.0, 0.5, out), {}, ValidationError, "dt > 0", id="flow-dt"
            ),
        ],
    )
    def test_a_heavy_batch_that_cannot_start_raises_with_no_output(
        self, tmp_path, forks, command, change, error, message
    ):
        # the batch's own checks raise, in the parent or a worker, before anything is written
        config = load_config(write_config(tmp_path, heavy_payload()))
        objective = dataclasses.replace(config.objective, x0=change.get("x0"))
        config = dataclasses.replace(config, objective=objective, **{k: v for k, v in change.items() if k != "x0"})
        out = tmp_path / "out"
        with pytest.raises(error, match=re.escape(message)):
            command(config, out)
        assert not out.exists()
        assert_no_child_left()

    def test_a_worker_that_ends_without_its_outcome_is_a_runtime_error(self, tmp_path, forks):
        # the first block runs here; each other ends its worker before it hands anything back
        def run(block, objective, x0):
            if 0 not in block:
                os._exit(3)
            return [ValueError("not run")] * len(block)

        config = load_config(write_config(tmp_path, heavy_payload()))
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match=r"^batch worker (\d+) ended without its outcome$") as err:
            harness._run_blocks(config, out, [0, 1, 2], run, "traj", "report.json")
        assert int(re.search(r"\d+", str(err.value)).group()) in forks
        assert len(forks) == 2
        assert not out.exists()
        assert_no_child_left()

    def test_a_light_batch_is_one_block(self, tmp_path, forks):
        config = load_config(write_config(tmp_path, base_payload()))
        run_compare(config, tmp_path / "out")
        run_flows(config, 0.1, 1.0, tmp_path / "flow")
        assert forks == []

    def test_fork_only_in_the_block_runner(self):
        # fork, _exit and sched_getaffinity, as an attribute, a name or an import, by top-level definition
        attrs = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}
        found = set()
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text(), str(path)).body:
                for node in ast.walk(top):
                    if getattr(node, attrs.get(type(node), ""), None) in ("fork", "_exit", "sched_getaffinity"):
                        found.add(f"{path.name}:{getattr(top, 'name', top.lineno)}")
        assert sorted(found) == ["harness.py:_run_blocks"]


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

    def test_module_runs_as_main_in_process(self, capsys, monkeypatch):
        args = ["analyze", "--b2", "0.0067"]
        assert cli.main(args) == 0
        want = capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["ssmopt", *args])
        with pytest.raises(SystemExit) as done:
            runpy.run_module("ssmopt", run_name="__main__")
        assert done.value.code == 0
        assert capsys.readouterr().out == want

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
        assert out == (tmp_path / "out" / "summary.csv").read_text(encoding="utf-8")

    def test_compare_reports_failed_runs_with_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(tmp_path / "out"))
        payload = base_payload()
        payload["objective"]["cond"] = 100.0
        payload["iterations"] = 200
        # eta 0.5 diverges on the quadratic, as in the test below
        payload["optimizers"] = [
            {"kind": "sgd_momentum", "eta": 0.5, "name": "unstable"},
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
        assert capsys.readouterr().err == "error: invalid parameters: --dt > 0\n"
        rc = cli.main(["flow", str(tmp_path / "nope.json"), "--dt", "0.01", "--t-end", "0.005"])
        assert rc == 1
        assert capsys.readouterr().err == "error: invalid parameters: --t-end >= --dt\n"
        rc = cli.main(["flow", str(tmp_path / "nope.json"), "--dt", "0.3", "--t-end", "1.0"])
        assert rc == 1
        assert capsys.readouterr().err == "error: invalid parameters: --t-end a whole number of --dt steps\n"

    @pytest.mark.parametrize(
        "argv, failed",
        [
            (["flow", "nope.json", "--dt", "-1", "--t-end", "1"], "--dt > 0"),
            (["flow", "nope.json", "--dt", "0.3", "--t-end", "1"], "--t-end a whole number of --dt steps"),
            (["analyze", "--b2", "nan"], "0 < b2"),
            (["analyze", "--b2", "0.0067", "--b3", "nan"], "b3 >= 0"),
            (["analyze", "--b2", "inf"], "(2*b2 + b3)**2 finite in floating point"),
        ],
        ids=["dt", "whole-steps", "nan-b2", "nan-b3", "inf-b2"],
    )
    def test_bad_arguments_exit_1_naming_their_condition(self, capsys, tmp_path, argv, failed):
        # the flow grid is checked before the (missing) config is read
        assert cli.main([str(tmp_path / arg) if arg == "nope.json" else arg for arg in argv]) == 1
        assert capsys.readouterr() == ("", f"error: invalid parameters: {failed}\n")

    def test_flow_happy_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(tmp_path / "out"))
        path = write_config(tmp_path, base_payload())
        rc = cli.main(["flow", str(path), "--dt", "0.05", "--t-end", "0.5"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("wrote 1 flow trajectories")
        assert (tmp_path / "out" / "flow_report.json").exists()

    def test_flow_notes_each_skipped_entry(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(tmp_path / "out"))
        payload = base_payload()
        payload["optimizers"] = [
            {"kind": "sgd_momentum", "name": "hb", "eta": 0.01},
            {"kind": "adam", "eta": 0.05},
            {"kind": "sgd_momentum", "eta": 0.01},
        ]
        rc = cli.main(["flow", str(write_config(tmp_path, payload)), "--dt", "0.05", "--t-end", "0.5"])
        assert rc == 0
        assert capsys.readouterr().err == (
            "note: skipping optimizers[0] (hb): sgd_momentum has no flow counterpart\n"
            "note: skipping optimizers[2] (sgd_momentum): sgd_momentum has no flow counterpart\n"
        )

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
        assert capsys.readouterr().err == "error: invalid parameters: objective: d >= 2\n"
        assert not out.exists()

    def test_runtime_failures_exit_2(self, capsys, tmp_path, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        monkeypatch.setenv("SSMOPT_OUT_DIR", str(blocker / "sub"))
        path = write_config(tmp_path, base_payload())
        rc = cli.main(["run", str(path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("runtime failure:")


class TestLibraryNeverPrints:
    def test_only_the_cli_writes_to_stdout_or_stderr(self):
        # every print call, or use of sys.stdout or sys.stderr, in any module but cli.py
        streams = {"stdout", "stderr", "__stdout__", "__stderr__"}
        found = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            if path.name == "cli.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                printed = isinstance(node, ast.Name) and node.id == "print"
                stream = isinstance(node, ast.Attribute) and node.attr in streams
                imported = isinstance(node, ast.ImportFrom) and node.module == "sys"
                imported = imported and not streams.isdisjoint(alias.name for alias in node.names)
                if printed or stream or imported:
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_errstate_only_at_the_batch_entry_points(self):
        # a run's overflow and invalid operations are its failure, never a RuntimeWarning on
        # stderr, by one policy at the two batch entry points: every np.errstate or np.seterr,
        # as an attribute, a name or an import, listed with its top-level definition
        attrs = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}
        found = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text(), str(path)).body:
                for node in ast.walk(top):
                    if getattr(node, attrs.get(type(node), ""), None) in ("errstate", "seterr"):
                        found.append(f"{path.name}:{getattr(top, 'name', top.lineno)}")
        assert found == ["discrete.py:run_discrete_batch", "flow.py:_integrate_rows"]


class TestTextFiles:
    def test_every_text_file_names_its_encoding(self):
        # every open, read_text and write_text in text mode passes encoding=, so no config or
        # artifact depends on the locale; binary opens ("rb", "wb") are exempt
        found = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name not in ("open", "read_text", "write_text"):
                    continue
                # open(file, mode) or path.open(mode); read_text and write_text take no mode
                modes = [k.value for k in node.keywords if k.arg == "mode"]
                if name == "open":
                    modes += node.args[1:2] if isinstance(node.func, ast.Name) else node.args[:1]
                binary = any(isinstance(m, ast.Constant) and "b" in str(m.value) for m in modes)
                if not binary and "encoding" not in {k.arg for k in node.keywords}:
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []


class TestErrorVocabulary:
    # the exception classes of the package: a failed named condition is always a ValidationError
    VOCABULARY = ["ParseError", "StepFailure", "ValidationError", "_RowsLeave"]

    def test_exception_classes_are_the_vocabulary(self):
        # a class is an exception class when a base is a builtin exception or one of the package's
        builtin = {name for name, value in vars(builtins).items() if isinstance(value, type)}
        builtin = {name for name in builtin if issubclass(getattr(builtins, name), BaseException)}
        classes = {}
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ClassDef):
                    classes[node.name] = {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}
        errors, grown = set(), True
        while grown:
            found = {name for name, bases in classes.items() if not bases.isdisjoint(builtin | errors)}
            errors, grown = found, found != errors
        assert sorted(errors) == self.VOCABULARY

    def test_exceptions_survive_pickling(self):
        # a batch worker hands its exception back pickled: type, message and attributes intact,
        # with a case for every public class of the vocabulary
        failure = StepFailure(0.5, np.arange(8.0).reshape(4, 2))
        problem = FlowProblem(make_quadratic(2, 1.0), map_preset_to_general(PresetParams(), PresetKind.ADAM),
                              [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValidationError) as left:
            rhs_general(np.array(([1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0])), 0.0, problem)
        cases = (ParseError("bad"), failure, ValidationError(["a > 0", "b < 1"]), left.value)
        for exc in cases:
            back = pickle.loads(pickle.dumps(exc))
            assert type(back) is type(exc) and str(back) == str(exc)
            assert back.args == exc.args
        public = {name for name in self.VOCABULARY if not name.startswith("_")}
        assert {type(exc).__name__ for exc in cases} == public
        back = pickle.loads(pickle.dumps(failure))
        assert back.t == 0.5 and back.state.tobytes() == failure.state.tobytes()
        assert pickle.loads(pickle.dumps(ValidationError(["a > 0", "b < 1"]))).violations == ["a > 0", "b < 1"]
        assert type(left.value) is ValidationError
        assert pickle.loads(pickle.dumps(left.value)).violations == ["nu must be positive componentwise at t=0"]

    def test_each_call_names_every_failed_condition(self):
        # one ValidationError per call, naming each condition it fails
        objective = make_quadratic(2, 1.0)
        params = map_preset_to_general(PresetParams(), PresetKind.ADAM)
        with pytest.raises(ValidationError) as err:
            FlowProblem(objective, params, [1.0, 1.0], [1.0, 0.0])
        assert err.value.violations == ["nu0 finite and positive componentwise"]
        problem = FlowProblem(objective, params, [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValidationError) as err:
            rhs_general(np.array(([1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0])), 0.0, problem)
        assert err.value.violations == ["nu must be positive componentwise at t=0"]
        with pytest.raises(ValidationError) as err:
            OptimizerSpec("nope", "x", PresetParams(), bias_mode="Paper")
        kinds = ("gadagrad", "adam", "adabelief", "adamssm", "adabeliefssm", "sgd_momentum")
        assert err.value.violations == [f"kind one of {kinds}", f"bias_mode one of {BIAS_MODES}"]
        with pytest.raises(ValidationError) as mode:
            bias_denominators(PresetParams(), 0, "Paper")
        assert mode.value.violations == err.value.violations[1:]

    def test_free_text_value_errors_are_the_shape_and_structure_checks(self):
        # every raise ValueError(...) in the package, by module and enclosing
        # function, in source order: a named condition goes through require
        found = []

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, where + [child.name])
                    continue
                call = child.exc if isinstance(child, ast.Raise) else None
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "ValueError":
                    found.append(".".join(where))
                visit(child, where)

        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text(), str(path)), [path.stem])
        assert found == [
            "analysis.RationalTF.__post_init__",
            "analysis.RationalTF.__post_init__",
            "analysis.second_moment_response",
            "core.initial_stepper_state",
            "core.preset_conditions",
            "core.map_preset_to_general",
            "flow._point_of",
            "flow.Trajectory.to_csv",
            "flow.Trajectory.to_csv",
            "flow.Trajectory.to_csv",
            "flow._integrate_rows",
        ]

    def test_only_main_turns_rejected_input_into_an_error(self):
        # every try, and every "error:" string, in cli.py outside main, listed with its function
        found = []
        for top in ast.parse(Path(cli.__file__).read_text()).body:
            if getattr(top, "name", None) == "main":
                continue
            for node in ast.walk(top):
                said = isinstance(node, ast.Constant) and isinstance(node.value, str) and "error:" in node.value
                if said or isinstance(node, ast.Try):
                    found.append(f"{getattr(top, 'name', top.lineno)}:{node.lineno}")
        assert found == []
