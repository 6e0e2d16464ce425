"""Exact experiments on spacing shifts built from subsets of the naturals.

Importing the package is cheap.  Each layer below is in ``sys.modules``
and bound as ``spacelab.<layer>`` at once, but its body runs only on
first attribute access (``importlib.util.LazyLoader``), and a public name
is read from its layer on first use (PEP 562).  So a command line call
runs only the layers it calls.  ``cli`` is left out: ``python -m
spacelab.cli`` runs it as ``__main__``, and would run it twice.
"""

__version__ = "0.1.0"

import importlib.util as _util
import sys as _sys

# layer -> the public names it exports through the package
_EXPORTS = {
    "corpus": ("CORPUS_VERSION", "MEMBERS", "iter_corpus", "load_member"),
    "detect": ("StructureWitness", "check_bohr_avoidance", "find_delta_chain",
               "find_ip_generator", "find_ip_ip_generator", "finite_sums",
               "intersective_refute", "syndetic_gap", "thick_run",
               "verify_witness", "witness_from_json"),
    "dynamics": ("OrbitPoint", "cylinder_distance_exponent", "f_statistic",
                 "make_point", "named_points", "periodic_point_check",
                 "proximal_probe", "zero_point"),
    "errors": ("DEFAULT_BUDGET", "BudgetError", "SpacelabError", "SpecError",
               "ValidationError"),
    "experiments": ("EXPERIMENT_IDS", "ExperimentReport", "run_all",
                    "run_experiment"),
    "language": ("Configuration", "LanguageProfile", "count_words",
                 "entropy_profile", "find_join_gap", "greedy_point",
                 "is_admissible", "max_ones", "transitive_gap_check"),
    "psets": ("Bohr", "Complement", "DeltaOf", "DiffSet", "Explicit",
              "FiniteSums", "Intersect", "Multiples", "PSetSpec", "PSetView",
              "Squares", "Union", "build_pset", "density_report", "elements",
              "member", "parse_spec"),
    "reports": (),
}

_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LAYER_OF)


def _register(layer: str):
    spec = _util.find_spec(f"{__name__}.{layer}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _layer in _EXPORTS:
    globals()[_layer] = _register(_layer)


def __getattr__(name: str):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAYER_OF[name]], name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
