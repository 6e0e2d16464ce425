"""The package namespace, and which layers a command line call runs.

Both are checked in a fresh interpreter, since the test session has
already run every layer.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

LAYERS = ("corpus", "detect", "dynamics", "errors", "experiments",
          "language", "psets", "reports")

ALL = [
    "Bohr", "BudgetError", "CORPUS_VERSION", "Complement", "Configuration",
    "DEFAULT_BUDGET", "DeltaOf", "DiffSet", "EXPERIMENT_IDS",
    "ExperimentReport", "Explicit", "FiniteSums", "Intersect",
    "LanguageProfile", "MEMBERS", "Multiples", "OrbitPoint", "PSetSpec",
    "PSetView", "SpacelabError", "SpecError", "Squares", "StructureWitness",
    "Union", "ValidationError", "build_pset", "check_bohr_avoidance",
    "count_words", "cylinder_distance_exponent", "density_report",
    "elements", "entropy_profile", "f_statistic", "find_delta_chain",
    "find_ip_generator", "find_ip_ip_generator", "find_join_gap",
    "finite_sums", "greedy_point", "intersective_refute", "is_admissible",
    "iter_corpus", "load_member", "make_point", "max_ones", "member",
    "named_points", "parse_spec", "periodic_point_check", "proximal_probe",
    "run_all", "run_experiment", "syndetic_gap", "thick_run",
    "transitive_gap_check", "verify_witness", "witness_from_json",
    "zero_point",
]

# the layer of each exported name that has no __module__ (errors defines
# DEFAULT_BUDGET, and language still exports it)
CONSTANTS = {"CORPUS_VERSION": "corpus", "MEMBERS": "corpus",
             "DEFAULT_BUDGET": "language", "EXPERIMENT_IDS": "experiments"}


def _run(code: str, *args: str, flags: tuple = ()) -> dict:
    """Run code in a fresh interpreter, with the extra interpreter
    `flags`; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, *flags, "-W", "error", "-c", code, *args],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


CONTRACT = """
import json, sys
import spacelab
layers, constants = json.loads(sys.argv[1]), json.loads(sys.argv[2])
reachable = [layer for layer in layers
             if sys.modules.get("spacelab." + layer) is getattr(spacelab, layer)]
wrong_home = []
for name in spacelab.__all__:
    value = getattr(spacelab, name)
    home = constants.get(name) or value.__module__.rpartition(".")[2]
    if getattr(sys.modules["spacelab." + home], name) is not value:
        wrong_home.append(name)
star = {}
exec("from spacelab import *", star)
print(json.dumps({"reachable": reachable, "all": spacelab.__all__,
                  "wrong_home": wrong_home,
                  "star": sorted(set(star) - {"__builtins__"})}))
"""


def test_package_exports_every_layer_and_name():
    got = _run(CONTRACT, json.dumps(LAYERS), json.dumps(CONSTANTS))
    assert got["reachable"] == list(LAYERS)
    assert got["all"] == ALL
    assert got["wrong_home"] == []
    assert got["star"] == ALL


def test_package_namespace_in_process():
    import spacelab
    assert set(ALL) <= set(dir(spacelab))
    with pytest.raises(AttributeError,
                       match="^module 'spacelab' has no attribute 'nope'$"):
        spacelab.nope


# records the spacelab source files whose code runs during one CLI call,
# and the modules it loads
TRACE_CLI = """
import json, os, sys
before = set(sys.modules)
seen = set()
sys.setprofile(lambda frame, event, arg: seen.add(frame.f_code.co_filename))
import spacelab.cli
code = spacelab.cli.main(sys.argv[1:])
sys.setprofile(None)
package = os.path.dirname(spacelab.__file__)
print()
print(json.dumps({"code": code, "ran": sorted(
    os.path.basename(f)[:-3] for f in seen
    if os.path.dirname(f) == package and f.endswith(".py")),
    "loaded": sorted(set(sys.modules) - before)}))
"""


@pytest.mark.parametrize("argv, needed, unneeded", [
    (["lang", "count", "--spec", '{"type":"squares"}', "--n", "12"],
     {"language"}, {"detect", "dynamics", "experiments", "corpus"}),
    (["pset", "density", "--spec", '{"type":"squares"}', "--horizon", "40",
      "--window-grid", "5"],
     {"psets"}, {"language"}),
    (["detect", "delta", "--spec", '{"type":"squares"}', "--depth", "2",
      "--bound", "30"],
     {"detect"}, {"language"}),
])
def test_command_runs_only_the_layers_it_calls(argv, needed, unneeded):
    got = _run(TRACE_CLI, *argv)
    assert got["code"] == 0
    ran = set(got["ran"])
    assert needed <= ran
    assert not ran & unneeded, sorted(ran & unneeded)
    # dataclasses (with inspect and ast) would slow every call's start
    assert "dataclasses" not in got["loaded"]


@pytest.mark.parametrize("argv", [
    ["lang", "count", "--spec", '{"type":"squares"}', "--n", "12"],
    ["corpus", "run-all", "--out"],
])
def test_command_loads_neither_typing_nor_resources(argv, tmp_path):
    # -S: a site hook (a .pth file) may import both before spacelab does,
    # which would hide them from the check above
    if argv[-1] == "--out":
        argv = [*argv, str(tmp_path / "out")]
    got = _run(TRACE_CLI, *argv, flags=("-S",))
    assert got["code"] == 0
    assert {"typing", "importlib.resources"}.isdisjoint(got["loaded"])
