"""The README's Python example runs as written."""

import re
from pathlib import Path

from matclust.data import generate_synthetic

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library"):]
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    raw_points = generate_synthetic(3, 6, 200, seed=42).points
    exec(compile(example, str(README), "exec"), {"raw_points": raw_points})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1] == "p-sweep 6"
