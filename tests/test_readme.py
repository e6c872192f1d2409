"""The quick tour in README.md runs as written, its config schema lists
every kind, and its table of each optimizer kind's keys is KIND_KEYS."""

import re
from pathlib import Path

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
