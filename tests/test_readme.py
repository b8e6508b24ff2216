"""The README's library example runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library overview\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_library_overview_example_runs(capsys):
    exec(compile(_library_example(), str(README), "exec"), {"__name__": "readme"})
    mean, deviation, classification = capsys.readouterr().out.split()
    assert abs(float(mean) - 0.5) <= 1e-5
    assert 0.0 <= float(deviation) <= 1e-5
    assert classification == "general-d-type"
