"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import buildinglab

SOURCES = sorted(Path(buildinglab.__file__).parent.rglob("*.py"))


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "buildinglab" if node.level else node.module


def test_sources_found():
    assert {"cli.py", "moufang.py"} <= {path.name for path in SOURCES}


def test_every_import_is_stdlib_or_buildinglab():
    outside = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in _imported_modules(tree):
            top = name.split(".")[0]
            if top != "buildinglab" and top not in sys.stdlib_module_names:
                outside.setdefault(path.name, []).append(name)
    assert not outside
