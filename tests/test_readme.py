"""The quick tour in README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(" (4, 2)")
