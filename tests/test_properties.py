import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spacelab import (
    BudgetError,
    Configuration,
    build_pset,
    count_words,
    density_report,
    elements,
    find_delta_chain,
    find_ip_generator,
    finite_sums,
    greedy_point,
    is_admissible,
    max_ones,
    member,
    syndetic_gap,
    thick_run,
    verify_witness,
)
from spacelab.detect import StructureWitness
from spacelab.dynamics import random_point
from spacelab.psets import (Complement, Explicit, Intersect, Multiples,
                            Squares, Union)
from conftest import brute_count

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

subsets = st.sets(st.integers(min_value=1, max_value=12), max_size=8)


def view_of(elems, horizon=12):
    if elems:
        return build_pset(Explicit(elems=tuple(sorted(elems))), horizon)
    return build_pset(Complement(of=Multiples(k=1)), horizon)


@given(elems=subsets, n=st.integers(min_value=0, max_value=10))
@SETTINGS
def test_count_agrees_with_set_semantics(elems, n):
    view = view_of(elems)
    assert count_words(view, n) == brute_count(elems, n)


@given(elems=subsets, n=st.integers(min_value=0, max_value=10))
@SETTINGS
def test_naive_equals_optimized(elems, n):
    view = view_of(elems)
    assert (count_words(view, n, mode="naive")
            == count_words(view, n, mode="optimized"))


@given(elems=subsets, n=st.integers(min_value=1, max_value=10))
@SETTINGS
def test_heredity_of_max_witness(elems, n):
    view = view_of(elems)
    _, config = max_ones(view, n)
    for i in range(config.length + 1):
        for j in range(i, config.length + 1):
            sub = Configuration(
                length=j - i,
                ones=tuple(p - i for p in config.ones if i <= p < j))
            assert is_admissible(sub, view)


@given(elems=subsets, n=st.integers(min_value=0, max_value=9))
@SETTINGS
def test_count_monotone_in_p(elems, n):
    small = view_of(elems)
    grown = view_of(set(elems) | {1})
    assert count_words(small, n) <= count_words(grown, n)


@given(elems=subsets, m=st.integers(min_value=0, max_value=8),
       n=st.integers(min_value=0, max_value=8))
@SETTINGS
def test_submultiplicative(elems, m, n):
    view = view_of(elems, horizon=16)
    assert (count_words(view, m + n)
            <= count_words(view, m) * count_words(view, n))


@given(elems=subsets)
@SETTINGS
def test_count_monotone_in_n(elems):
    view = view_of(elems)
    counts = [count_words(view, n) for n in range(11)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


@given(a=subsets, b=subsets)
@SETTINGS
def test_boolean_algebra(a, b):
    if not a or not b:
        return
    sa = Explicit(elems=tuple(sorted(a)))
    sb = Explicit(elems=tuple(sorted(b)))
    union = build_pset(Union(parts=(sa, sb)), 12)
    inter = build_pset(Intersect(parts=(sa, sb)), 12)
    comp = build_pset(Complement(of=sa), 12)
    assert set(elements(union)) == (a | b) & set(range(1, 13))
    assert set(elements(inter)) == a & b & set(range(1, 13))
    assert set(elements(comp)) == set(range(1, 13)) - a


@given(elems=subsets, shift=st.integers(min_value=0, max_value=4))
@SETTINGS
def test_shift_invariance(elems, shift):
    view = view_of(elems)
    word = max_ones(view, 8)[1]
    shifted = Configuration(length=word.length + shift,
                            ones=tuple(p + shift for p in word.ones))
    assert is_admissible(shifted, view_of(elems, horizon=16))


@given(gens=st.sets(st.integers(min_value=1, max_value=6),
                    min_size=1, max_size=3))
@SETTINGS
def test_ip_witness_gives_delta_chain(gens):
    gens = tuple(sorted(gens))
    fs = finite_sums(gens)
    if max(fs) > 30:
        return
    view = build_pset(Explicit(elems=tuple(sorted(fs))), 30)
    witness = find_ip_generator(view, len(gens), max(fs))
    assert witness is not None
    assert verify_witness(witness, view)
    # prefix sums of the generators form a chain whose differences are
    # exactly the subset sums of consecutive stretches, all in FS
    prefix = [0]
    for g in witness.payload:
        prefix.append(prefix[-1] + g)
    chain = tuple(p + 1 for p in prefix)
    diffs = {b - a for i, a in enumerate(chain) for b in chain[i + 1:]}
    assert all(member(view, d) for d in diffs)
    delta = StructureWitness(kind="delta_chain", payload=chain,
                             verified=False, depth=len(chain),
                             bound=max(chain))
    assert verify_witness(delta, view)


@given(elems=subsets, n=st.integers(min_value=1, max_value=10))
@SETTINGS
def test_omega_bounds(elems, n):
    view = view_of(elems)
    omega, config = max_ones(view, n)
    assert 1 <= omega <= n
    assert len(config.ones) == omega
    assert is_admissible(config, view)
    assert (1 << omega) <= count_words(view, n)


# -- the bitset kernel against plain set semantics ---------------------------
#
# Each reference below reads P only as a Python set, so it shares no code
# with the byte table or the candidate masks it checks.

@st.composite
def small_sets(draw):
    """A small spec, its horizon (from 1) and its members as a set."""
    horizon = draw(st.integers(min_value=1, max_value=24))
    kind = draw(st.sampled_from(["explicit", "multiples", "co_multiples",
                                 "squares"]))
    if kind == "explicit":
        elems = draw(st.sets(st.integers(min_value=1, max_value=30),
                             max_size=12))
        spec, members = Explicit(elems=tuple(sorted(elems))), elems
    elif kind == "squares":
        spec, members = Squares(), {r * r for r in range(1, 6)}
    else:
        k = draw(st.integers(min_value=1, max_value=5))
        members = {n for n in range(1, 31) if n % k == 0}
        spec = Multiples(k=k)
        if kind == "co_multiples":
            # k = 1 gives the empty set
            spec = Complement(of=spec)
            members = set(range(1, 31)) - members
    in_horizon = {n for n in members if n <= horizon}
    return build_pset(spec, horizon), in_horizon


def ref_admissible(ps, ones):
    return all(b - a in ps for a, b in itertools.combinations(ones, 2))


def ref_scan(ps, horizon, keep=None):
    ones = []
    for pos in range(horizon):
        if all(pos - prev in ps for prev in ones):
            if keep is None or keep():
                ones.append(pos)
    return tuple(ones)


def ref_chain(ps, depth, bound, budget):
    """Least chain by depth-first search, one node per candidate tested;
    returns ("chain", tuple), ("none",) or ("budget", nodes)."""
    nodes = 0

    def rec(chain):
        nonlocal nodes
        for s in range(chain[-1] + 1 if chain else 1, bound + 1):
            nodes += 1
            if nodes > budget:
                raise BudgetError("reference budget", nodes)
            if all(s - c in ps for c in chain):
                found = chain + (s,)
                if len(found) == depth:
                    return found
                found = rec(found)
                if found:
                    return found
        return None

    try:
        found = rec(())
    except BudgetError as exc:
        return ("budget", exc.nodes)
    return ("chain", found) if found else ("none",)


@given(case=small_sets())
@SETTINGS
def test_table_matches_set_semantics(case):
    view, ps = case
    H = view.horizon
    assert view.table == bytes(int(n in ps) for n in range(H + 1))
    assert [member(view, n) for n in range(1, H + 1)] \
        == [n in ps for n in range(1, H + 1)]
    assert elements(view) == sorted(ps)


@given(case=small_sets(), data=st.data())
@SETTINGS
def test_points_and_admissibility_match_reference(case, data):
    view, ps = case
    h = data.draw(st.integers(min_value=0, max_value=view.horizon))
    assert greedy_point(view, h).ones == ref_scan(ps, h)
    seed = data.draw(st.integers(min_value=0, max_value=99))
    rng = random.Random(seed)
    assert random_point(view, h, seed).config.ones \
        == ref_scan(ps, h, keep=lambda: rng.random() < 0.5)
    ones = data.draw(st.sets(st.integers(min_value=0, max_value=max(h - 1, 0)),
                             max_size=6)) if h else set()
    config = Configuration(h, tuple(sorted(ones)))
    assert is_admissible(config, view) == ref_admissible(ps, config.ones)


@given(case=small_sets(), depth=st.integers(min_value=2, max_value=5),
       data=st.data())
@SETTINGS
def test_delta_chain_matches_reference(case, depth, data):
    view, ps = case
    bound = data.draw(st.integers(min_value=1, max_value=view.horizon))
    budget = data.draw(st.integers(min_value=0, max_value=400))
    expected = ref_chain(ps, depth, bound, budget)
    if expected[0] == "budget":
        with pytest.raises(BudgetError) as exc:
            find_delta_chain(view, depth, bound, budget=budget)
        assert exc.value.nodes == expected[1] == budget + 1
        return
    witness = find_delta_chain(view, depth, bound, budget=budget)
    if expected[0] == "none":
        assert witness is None
    else:
        assert witness.payload == expected[1]
        assert witness.verified


@given(case=small_sets(), data=st.data())
@SETTINGS
def test_scans_and_densities_match_reference(case, data):
    view, ps = case
    H = view.horizon
    longest = run = 0
    for n in range(1, H + 1):
        run = run + 1 if n in ps else 0
        longest = max(longest, run)
    assert thick_run(view) == longest
    if not ps:
        assert syndetic_gap(view) is None
    else:
        members = sorted(ps)
        gaps = [b - a - 1 for a, b in zip(members, members[1:])]
        report = syndetic_gap(view)
        assert report.interior_gap == max([members[0] - 1] + gaps)
        assert report.censored_tail == H - members[-1]
    grid = data.draw(st.lists(st.integers(min_value=1, max_value=H),
                              min_size=1, max_size=3))
    n0 = data.draw(st.integers(min_value=1, max_value=H))
    report = density_report(view, grid, n0=n0)
    prefix = tuple((n, Fraction(len([m for m in ps if m <= n]), n))
                   for n in range(1, H + 1))
    assert report.prefix_densities == prefix
    tail = [d for n, d in prefix if n >= n0]
    assert (report.lower_est, report.upper_est) == (min(tail), max(tail))
    assert report.banach_profile == tuple(
        (w, Fraction(max(len([n for n in ps if m < n <= m + w])
                         for m in range(H - w + 1)), w))
        for w in grid)
