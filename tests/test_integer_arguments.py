"""Every integer argument of the library rejects a bool, a float and a
string with ValidationError, never a TypeError, a budget run or an answer.
"""

import pytest

from spacelab import (
    Configuration,
    ValidationError,
    build_pset,
    count_words,
    density_report,
    entropy_profile,
    f_statistic,
    find_delta_chain,
    find_ip_generator,
    find_ip_ip_generator,
    find_join_gap,
    greedy_point,
    make_point,
    max_ones,
    member,
    periodic_point_check,
    proximal_probe,
    transitive_gap_check,
)
from spacelab.psets import Multiples, Squares

SQUARES = build_pset(Squares(), 100)
FULL = build_pset(Multiples(k=1), 64)
U = Configuration(2, (0,))
X = make_point(FULL, "greedy", 64)
Y = make_point(FULL, "zero", 64)
# a search that let a non-integer depth through would run until its
# budget; a small one keeps such a failure quick
BUDGET = 10_000

CALLS = {
    "build_pset horizon": lambda x: build_pset(Squares(), x),
    "member n": lambda x: member(SQUARES, x),
    "density_report window": lambda x: density_report(SQUARES, [x]),
    "density_report n0": lambda x: density_report(SQUARES, [4], n0=x),
    "count_words n": lambda x: count_words(SQUARES, x),
    "count_words budget": lambda x: count_words(SQUARES, 20, budget=x),
    "max_ones n": lambda x: max_ones(SQUARES, x),
    "max_ones budget": lambda x: max_ones(SQUARES, 20, budget=x),
    "entropy_profile n_grid": lambda x: entropy_profile(SQUARES, [x]),
    "entropy_profile budget":
        lambda x: entropy_profile(SQUARES, [20], budget=x),
    "greedy_point horizon": lambda x: greedy_point(SQUARES, x),
    "find_join_gap gap_cap": lambda x: find_join_gap(FULL, U, U, x),
    "transitive_gap_check word_len_cap":
        lambda x: transitive_gap_check(FULL, x, 2),
    "transitive_gap_check gap_cap":
        lambda x: transitive_gap_check(FULL, 2, x),
    # (1, 10, 26) is a depth-3 chain, so no answer to depth 2.5 is right
    "find_delta_chain depth on the squares":
        lambda x: find_delta_chain(build_pset(Squares(), 100), x, 100),
    "find_delta_chain depth":
        lambda x: find_delta_chain(FULL, x, 64, budget=BUDGET),
    "find_delta_chain search_bound":
        lambda x: find_delta_chain(FULL, 3, x, budget=BUDGET),
    "find_delta_chain budget":
        lambda x: find_delta_chain(SQUARES, 3, 100, budget=x),
    "find_ip_generator depth":
        lambda x: find_ip_generator(FULL, x, 64, budget=BUDGET),
    "find_ip_generator search_bound":
        lambda x: find_ip_generator(FULL, 2, x, budget=BUDGET),
    "find_ip_ip_generator depth":
        lambda x: find_ip_ip_generator(FULL, x, 64, budget=BUDGET),
    "find_ip_generator budget":
        lambda x: find_ip_generator(FULL, 3, 64, budget=x),
    "find_ip_ip_generator budget":
        lambda x: find_ip_ip_generator(FULL, 3, 64, budget=x),
    "Configuration length": lambda x: Configuration(x, ()),
    "f_statistic l": lambda x: f_statistic(X, Y, x, [8]),
    "f_statistic n_grid": lambda x: f_statistic(X, Y, 0, [x]),
    "proximal_probe block": lambda x: proximal_probe(X, Y, x),
    "periodic_point_check k": lambda x: periodic_point_check(FULL, x, 10),
    "periodic_point_check horizon":
        lambda x: periodic_point_check(FULL, 2, x),
    "make_point horizon": lambda x: make_point(FULL, "zero", x),
}


@pytest.mark.parametrize("value", [True, 2.5, "3"], ids=repr)
@pytest.mark.parametrize("argument", sorted(CALLS))
def test_integer_argument_rejects_non_integers(argument, value):
    with pytest.raises(ValidationError):
        CALLS[argument](value)
