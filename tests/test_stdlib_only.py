"""The runtime package imports nothing outside the standard library, not
``dataclasses``, and reads neither the environment nor the clock."""

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


def test_no_dataclasses_import():
    # dataclasses loads inspect, ast, dis and tokenize at the start of
    # every command line call; the records derive from errors.Record
    importing = [path.name for path in sorted(SRC.glob("*.py"))
                 if "dataclasses" in _absolute_imports(path)]
    assert importing == []


def test_no_environment_or_clock_reads():
    # every output byte is a function of argv and the spec files it names
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, mod) for mod in sorted(
            _absolute_imports(path) & {"datetime", "time"})]
        found += [(path.name, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in {"environ", "getenv", "environb"}]
    assert found == []
