"""The quick tour in README.md runs as written, its config schema lists
every kind, its table of each optimizer kind's keys is KIND_KEYS, and its
entry conditions are the names OptimizerSpec.conditions gives each kind."""

import re
from pathlib import Path

from ssmopt import OptimizerSpec, PresetKind, PresetParams
from ssmopt.core import preset_conditions
from ssmopt.discrete import KIND_KEYS
from ssmopt.harness import OBJECTIVE_KINDS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(" (4, 2)")


def test_config_schema_lists_every_kind():
    (schema,) = re.findall(r"```jsonc\n(.*?)```", README.read_text(), re.S)
    # the comment of each "kind" line and the comment-only lines after it
    comments = re.findall(r'"kind":[^\n]*?//([^\n]*(?:\n\s*//[^\n]*)*)', schema)
    kinds = [[k.strip() for k in c.replace("//", "|").split("|") if k.strip()] for c in comments]
    assert kinds == [list(OBJECTIVE_KINDS), list(KIND_KEYS)]


def test_keys_table_matches_kind_keys():
    # the table after "Besides `kind` and `name`"; "the same" repeats the row above
    table = README.read_text().split("Besides `kind` and `name`")[1].split("\n\n")[1]
    rows, keys = [], []
    for row in table.splitlines()[2:]:
        kinds, cell = row.strip("|").split("|")
        keys = (keys if "the same" in cell else []) + re.findall(r"`(\w+)`", cell)
        rows += [(kind, tuple(keys)) for kind in re.findall(r"`(\w+)`", kinds)]
    assert rows == list(KIND_KEYS.items())


def test_entry_conditions_match_the_conditions_of_each_kind():
    # the clauses after "`OptimizerSpec.violations` lists:", up to the sentence on `run`
    text = README.read_text().split("`OptimizerSpec.violations` lists:")[1].split(". `run`")[0]
    sgd, gadagrad, moment = " ".join(text.split()).split(";")
    before, sampling = moment.split("sampling-time conditions")

    def names(clause):
        return [name for name in re.findall(r"`([^`]+)`", clause) if name not in KIND_KEYS]

    one_state = names(before.split("for the ssm kinds also")[0]) + names(sampling)
    ssm = names(before) + names(sampling)
    listed = {"gadagrad": names(gadagrad), "adam": one_state, "adabelief": one_state}
    listed.update({"adamssm": ssm, "adabeliefssm": ssm, "sgd_momentum": names(sgd)})
    for kind, conditions in listed.items():
        given = OptimizerSpec(kind, "entry", PresetParams()).conditions()
        # a sampling-time condition's name ends with the rates it was given
        assert [name.split(" required (")[0] for name in given] == conditions, kind
        if kind != "sgd_momentum":
            preset = list(preset_conditions(PresetParams(), PresetKind(kind)))
            assert preset == conditions[: len(preset)], kind
