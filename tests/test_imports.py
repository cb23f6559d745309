"""Every matclust module uses each name it imports.

The toolchain ships no linter, so this walks each module's syntax tree: a
name bound by an import must appear as a name somewhere in the module (an
attribute chain such as ``np.asarray`` starts with the name ``np``).
``__init__.py`` imports only to re-export, so it is left out.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import matclust
import matclust.evaluate as bound_evaluate  # binds the package attribute
from matclust.evaluate import OutlierPolicy

SRC = Path(__file__).resolve().parent.parent / "src" / "matclust"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_an_unused_name():
    source = "import numpy as np\nfrom .data import Dataset, load_csv\nload_csv(np.e)\n"
    assert unused_imports(source) == ["Dataset"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_package_evaluate_is_the_function_and_the_submodule_stays_importable():
    # the package re-exports the function evaluate under its submodule's
    # name; `from matclust.evaluate import ...` still reads the module
    module = importlib.import_module("matclust.evaluate")
    assert sys.modules["matclust.evaluate"] is module
    assert matclust.evaluate is module.evaluate
    assert bound_evaluate is module.evaluate
    assert OutlierPolicy is module.OutlierPolicy
