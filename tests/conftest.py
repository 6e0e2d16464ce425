import itertools
from fractions import Fraction

import pytest

from spacelab import build_pset, load_member
from spacelab.psets import Complement, Multiples, Squares


def brute_count(pset_elems, n):
    """Set-semantics enumeration oracle, independent of bitmask code."""
    ps = set(pset_elems)
    total = 0
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            if all((b - a) in ps
                   for a, b in itertools.combinations(combo, 2)):
                total += 1
    return total


def brute_f(x_word, y_word, l, n):
    """Direct-count oracle for the agreement statistic."""
    hits = 0
    for m in range(n):
        if all(x_word[m + i] == y_word[m + i] for i in range(l + 1)):
            hits += 1
    return Fraction(hits, n)


def brute_max_ones(pset_elems, n):
    ps = set(pset_elems)
    for r in range(n, -1, -1):
        for combo in itertools.combinations(range(n), r):
            if all((b - a) in ps
                   for a, b in itertools.combinations(combo, 2)):
                return r, combo
    return 0, ()


@pytest.fixture(scope="session")
def m2_view():
    return build_pset(Multiples(k=2), 64)


@pytest.fixture(scope="session")
def m3_view():
    return build_pset(Multiples(k=3), 64)


@pytest.fixture(scope="session")
def co2_view():
    return build_pset(Complement(of=Multiples(k=2)), 64)


@pytest.fixture(scope="session")
def co3_view():
    return build_pset(Complement(of=Multiples(k=3)), 64)


@pytest.fixture(scope="session")
def full_view():
    return build_pset(Multiples(k=1), 64)


@pytest.fixture(scope="session")
def squares_view():
    return build_pset(Squares(), 2000)


@pytest.fixture(scope="session")
def corpus_views_24():
    return {name: build_pset(spec, 24)
            for name, spec in ((n, load_member(n))
                               for n in _corpus_names())}


def _corpus_names():
    from spacelab import MEMBERS
    return MEMBERS
