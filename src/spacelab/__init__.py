"""Exact experiments on spacing shifts built from subsets of the naturals."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .corpus import CORPUS_VERSION, MEMBERS, iter_corpus, load_member
from .detect import (
    StructureWitness,
    check_bohr_avoidance,
    find_delta_chain,
    find_ip_generator,
    find_ip_ip_generator,
    finite_sums,
    intersective_refute,
    syndetic_gap,
    thick_run,
    verify_witness,
    witness_from_json,
)
from .dynamics import (
    OrbitPoint,
    cylinder_distance_exponent,
    f_statistic,
    make_point,
    named_points,
    periodic_point_check,
    proximal_probe,
    zero_point,
)
from .errors import BudgetError, SpacelabError, SpecError, ValidationError
from .experiments import EXPERIMENT_IDS, ExperimentReport, run_all, run_experiment
from .language import (
    DEFAULT_BUDGET,
    Configuration,
    LanguageProfile,
    count_words,
    entropy_profile,
    find_join_gap,
    greedy_point,
    is_admissible,
    max_ones,
    transitive_gap_check,
)
from .psets import (
    Bohr,
    Complement,
    DeltaOf,
    DiffSet,
    Explicit,
    FiniteSums,
    Intersect,
    Multiples,
    PSetSpec,
    PSetView,
    Squares,
    Union,
    build_pset,
    density_report,
    elements,
    member,
    parse_spec,
)

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
