"""The runtime package imports nothing outside the standard library."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "spacelab"


def _absolute_imports(path: pathlib.Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imports_are_stdlib_only():
    allowed = set(sys.stdlib_module_names) | {"spacelab"}
    paths = sorted(SRC.glob("*.py"))
    assert paths
    outside = {path.name: sorted(_absolute_imports(path) - allowed)
               for path in paths}
    assert {name: mods for name, mods in outside.items() if mods} == {}
