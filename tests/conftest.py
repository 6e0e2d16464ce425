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


def russian_doll_omegas(pset_elems, n):
    """[omega_0, ..., omega_n]: the clique number of the distance graph
    on {0..k-1} for each k, by a Russian-doll recurrence (Ostergard, "A
    fast algorithm for the maximum clique problem", 2002), independent
    of the colour bound in max_ones.

    The graph is translation invariant, so a clique inside an interval
    of L positions has at most omega_L members.  A clique on {0..k-1}
    larger than omega_{k-1} cannot fit in k - 1 positions, so it holds
    both 0 and k - 1: omega_k = omega_{k-1} + 1 exactly when some clique
    of that size contains both, else omega_k = omega_{k-1}.
    """
    ps = set(pset_elems)
    omegas = [0, 1][:n + 1]

    def grow(size, cands, last, need):
        # size members chosen (0 and those below cands), plus last; each
        # candidate v is adjacent to all of them, and the members from v
        # to last fit in last - v + 1 positions
        if size + 1 >= need:
            return True
        for i, v in enumerate(cands):
            if (size + omegas[last - v + 1] < need
                    or size + 1 + len(cands) - i < need):
                return False
            if grow(size + 1, [u for u in cands[i + 1:] if u - v in ps],
                    last, need):
                return True
        return False

    for k in range(2, n + 1):
        last, need = k - 1, omegas[-1] + 1
        cands = [v for v in range(1, last) if v in ps and last - v in ps]
        omegas.append(need if last in ps and grow(1, cands, last, need)
                      else need - 1)
    return omegas


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
