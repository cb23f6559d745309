"""The README's Python example runs as written, and every CLI flag it
names exists."""

import argparse
import re
from pathlib import Path

from matclust.cli import _build_parser
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


def cli_options() -> set[str]:
    """Every option string of matclust and of its subcommands."""
    parser = _build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        option
        for p in (parser, *subcommands.choices.values())
        for action in p._actions
        for option in action.option_strings
    }


def test_every_flag_the_readme_names_is_a_cli_option():
    text = README.read_text(encoding="utf-8")
    # `--flag ...` and `matclust ...` code spans, and matclust command lines
    # in fenced blocks (other tools' flags, as in `pip install ...`, are not
    # matclust's)
    inline = re.sub(r"```.*?```", "", text, flags=re.S)
    spans = re.findall(r"`((?:--|matclust )[^`\n]*)`", inline)
    commands = re.findall(r"^matclust .*$", text, re.M)
    named = {flag for s in spans + commands for flag in re.findall(r"(?<!\S)(--[a-z][a-z-]*)", s)}
    assert "--max-iter" in named and "--metric" in named
    assert sorted(named - cli_options()) == []
