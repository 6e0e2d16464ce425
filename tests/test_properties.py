import contextlib
import io
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spacelab import (
    MEMBERS,
    BudgetError,
    Configuration,
    ValidationError,
    build_pset,
    count_words,
    density_report,
    elements,
    entropy_profile,
    f_statistic,
    find_delta_chain,
    find_ip_generator,
    find_ip_ip_generator,
    finite_sums,
    greedy_point,
    is_admissible,
    load_member,
    max_ones,
    member,
    proximal_probe,
    syndetic_gap,
    thick_run,
    transitive_gap_check,
    verify_witness,
)
from spacelab.cli import main
from spacelab.detect import StructureWitness
from spacelab.dynamics import OrbitPoint, random_point
from spacelab.psets import (Bohr, Complement, DeltaOf, DiffSet, Explicit,
                            FiniteSums, Intersect, Multiples, Squares, Union,
                            _cliques, _least_extremes)
from conftest import brute_count, brute_f, brute_max_ones

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


def independent_set_count(elems, n):
    """Independent sets of the graph on range(n) that joins two positions
    whose distance lies outside `elems`: the admissible length-n words.

    Plain recursion on the raw vertex set, cached on that set as it
    stands, with no translation or reflection keys and no bitmasks.
    """
    ps = set(elems)
    apart = [frozenset(j for j in range(n) if j != i and abs(j - i) not in ps)
             for i in range(n)]
    cache = {}

    def count(free):
        if not free:
            return 1
        if free not in cache:
            v = min(free)
            rest = free - {v}
            cache[free] = count(rest) + count(rest - apart[v])
        return cache[free]

    return count(frozenset(range(n)))


@given(elems=st.sets(st.integers(min_value=1, max_value=31)),
       complement=st.booleans(), n=st.integers(min_value=0, max_value=32))
@SETTINGS
def test_count_agrees_with_independent_sets(elems, complement, n):
    # past naive mode's cap of 24; complements give dense distance graphs
    if complement:
        elems = set(range(1, 32)) - elems
    view = view_of(elems, horizon=32)
    assert count_words(view, n) == independent_set_count(elems, n)


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
def small_parts(draw):
    """An explicit or multiples spec and its members up to 30."""
    if draw(st.booleans()):
        elems = draw(st.sets(st.integers(min_value=1, max_value=30),
                             max_size=10))
        return Explicit(elems=tuple(sorted(elems))), elems
    k = draw(st.integers(min_value=1, max_value=6))
    return Multiples(k=k), set(range(k, 31, k))


@st.composite
def small_sets(draw):
    """A small spec, its horizon (from 1) and its members as a set."""
    horizon = draw(st.integers(min_value=1, max_value=24))
    kind = draw(st.sampled_from([
        "explicit", "multiples", "co_multiples", "big_multiples", "squares",
        "bohr", "fs", "delta", "diffset", "union", "intersect"]))
    if kind == "explicit":
        elems = draw(st.sets(st.integers(min_value=1, max_value=30),
                             max_size=12))
        spec, members = Explicit(elems=tuple(sorted(elems))), elems
    elif kind == "squares":
        spec, members = Squares(), {r * r for r in range(1, 6)}
    elif kind == "bohr":
        # alpha = a/1000 and the endpoints lo/20 < hi/20, all exact decimals
        a = draw(st.integers(min_value=1, max_value=999))
        lo = draw(st.integers(min_value=0, max_value=19))
        hi = draw(st.integers(min_value=lo + 1, max_value=20))
        spec = Bohr(alpha=a / 1000, interval=(lo / 20, hi / 20))
        members = {n for n in range(1, 31)
                   if Fraction(lo, 20) < Fraction(n * a % 1000, 1000)
                   < Fraction(hi, 20)}
    elif kind == "fs":
        gens = sorted(draw(st.sets(st.integers(min_value=1, max_value=12),
                                   min_size=1, max_size=4)))
        spec = FiniteSums(gens=tuple(gens))
        members = {sum(combo) for r in range(1, len(gens) + 1)
                   for combo in itertools.combinations(gens, r)}
    elif kind in ("delta", "diffset"):
        seq = tuple(sorted(draw(st.sets(st.integers(min_value=1, max_value=30),
                                        min_size=1, max_size=6))))
        spec = DeltaOf(seq=seq) if kind == "delta" else DiffSet(base=seq)
        members = {b - a for a, b in itertools.combinations(seq, 2)}
    elif kind in ("union", "intersect"):
        parts = draw(st.lists(small_parts(), min_size=1, max_size=3))
        specs, sets = zip(*parts)
        if kind == "union":
            spec, members = Union(parts=specs), set().union(*sets)
        else:
            spec, members = Intersect(parts=specs), set.intersection(*sets)
    elif kind == "big_multiples":
        # k past the horizon: no member inside it
        k = draw(st.integers(min_value=horizon + 1, max_value=horizon + 5))
        spec, members = Multiples(k=k), set(range(k, 31, k))
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
    """Least chain by a recursive search rooted at 1, on sets: the root
    (1,) is node 1 and each legal position appended is one more node;
    returns ("chain", tuple), ("none",) or ("budget", nodes)."""
    nodes = 0

    def rec(chain):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetError("reference budget", nodes)
        if len(chain) == depth:
            return chain
        legal = set(range(chain[-1] + 1, bound + 1))
        for c in chain:
            legal &= {c + p for p in ps}
        for s in sorted(legal):
            found = rec(chain + (s,))
            if found:
                return found
        return None

    try:
        found = rec((1,))
    except BudgetError as exc:
        return ("budget", exc.nodes)
    return ("chain", found) if found else ("none",)


def brute_chain(ps, depth, bound):
    """Least chain among all depth-subsets of [1..bound], from any start
    and without a budget, or None."""
    return next((c for c in itertools.combinations(range(1, bound + 1), depth)
                 if all(b - a in ps for a, b in itertools.combinations(c, 2))),
                None)


def ref_generator(ps, depth, bound, budget, pairwise):
    """Least increasing tuple of `depth` numbers with sum <= bound whose
    finite sums (IP) or positive differences of finite sums (IP-IP) lie
    in ps, by depth-first search in lexicographic order with one node per
    candidate tried; returns ("found", tuple), ("none",) or ("budget",
    nodes)."""
    nodes = 0

    def good(gens):
        sums = {sum(c) for r in range(1, len(gens) + 1)
                for c in itertools.combinations(gens, r)}
        if pairwise:
            return all(u - v in ps for u in sums for v in sums if u > v)
        return sums <= ps

    def rec(chosen):
        nonlocal nodes
        if len(chosen) == depth:
            return chosen
        rest = depth - len(chosen)
        a = chosen[-1] + 1 if chosen else 1
        # the least completion is a, a + 1, ..., a + rest - 1
        while sum(chosen) + rest * a + rest * (rest - 1) // 2 <= bound:
            nodes += 1
            if nodes > budget:
                raise BudgetError("reference budget", nodes)
            if good(chosen + (a,)):
                found = rec(chosen + (a,))
                if found:
                    return found
            a += 1
        return None

    try:
        found = rec(())
    except BudgetError as exc:
        return ("budget", exc.nodes)
    return ("found", found) if found else ("none",)


@given(case=small_sets(), depth=st.integers(min_value=1, max_value=6),
       pairwise=st.booleans(), data=st.data())
@SETTINGS
def test_generator_searches_match_reference(case, depth, pairwise, data):
    view, ps = case
    bound = data.draw(st.integers(min_value=1, max_value=view.horizon))
    budget = data.draw(st.one_of(st.integers(min_value=0, max_value=50),
                                 st.just(10 ** 7)))
    search = find_ip_ip_generator if pairwise else find_ip_generator
    expected = ref_generator(ps, depth, bound, budget, pairwise)
    if expected[0] == "budget":
        with pytest.raises(BudgetError) as exc:
            search(view, depth, bound, budget=budget)
        assert exc.value.nodes == expected[1] == budget + 1
        return
    witness = search(view, depth, bound, budget=budget)
    if expected[0] == "none":
        assert witness is None
    else:
        assert witness.payload == expected[1]
        assert witness.verified


def ref_ip_check(gens, ps, horizon):
    """The IP re-check on a set: each distinct sum in increasing order is
    refused outside [1..H], else looked up in P; (answer, error text)."""
    for s in ref_sums(gens):
        if not 1 <= s <= horizon:
            return None, (f"membership query {s} outside horizon "
                          f"[1..{horizon}]")
        if s not in ps:
            return False, None
    return True, None


def ref_ip_ip_check(gens, ps, horizon):
    """The IP-IP re-check on a set: the difference of each two distinct
    sums, pairs in lexicographic order, is refused past H, else looked
    up in P; (answer, error text)."""
    for a, b in itertools.combinations(ref_sums(gens), 2):
        if b - a > horizon:
            return None, (f"membership query {b - a} outside horizon "
                          f"[1..{horizon}]")
        if b - a not in ps:
            return False, None
    return True, None


def ref_sums(gens):
    sums = sorted({sum(combo) for r in range(1, len(gens) + 1)
                   for combo in itertools.combinations(gens, r)})
    assert finite_sums(gens) == sums
    return sums


@given(case=small_sets(), data=st.data())
@SETTINGS
def test_ip_witness_check_matches_reference(case, data):
    # repeats, any order, nonpositive entries and sums on both sides of H
    view, ps = case
    H = view.horizon
    gens = tuple(data.draw(st.lists(st.integers(min_value=-1,
                                                max_value=H + 1),
                                    max_size=5)))
    kind = data.draw(st.sampled_from(["ip_generator", "ip_ip_generator"]))
    witness = StructureWitness(kind=kind, payload=gens, verified=False)
    check = ref_ip_check if kind == "ip_generator" else ref_ip_ip_check
    expected, message = check(gens, ps, H)
    if message is not None:
        with pytest.raises(ValidationError) as err:
            verify_witness(witness, view)
        assert str(err.value) == message
    else:
        assert verify_witness(witness, view) is expected


@given(case=small_sets())
@SETTINGS
def test_table_matches_set_semantics(case):
    view, ps = case
    H = view.horizon
    assert view.table == bytes(int(n in ps) for n in range(H + 1))
    assert [member(view, n) for n in range(1, H + 1)] \
        == [n in ps for n in range(1, H + 1)]
    assert elements(view) == sorted(ps)


def bohr_cross_multiplied(alpha, interval, horizon):
    """Bohr members by the rule per n: frac(n * alpha) = r / q with
    r = n * p mod q, and lo < r / q < hi decided by cross-multiplying."""
    a, lo, hi = (Fraction(repr(float(x))) for x in (alpha, *interval))
    p, q = a.numerator, a.denominator
    return [n for n in range(1, horizon + 1)
            if lo.numerator * q < n * p % q * lo.denominator
            and n * p % q * hi.denominator < hi.numerator * q]


# decimal denominators; with one for alpha and one for the window, lo * q
# or hi * q is an integer whenever the window's divides alpha's reduced q
BOHR_DENOMINATORS = [2, 4, 5, 8, 10, 16, 20, 25, 100, 1000, 10 ** 11]
# reduced denominators 8 * 10^8 and 2 * 10^16: the laps take long steps
BOHR_ALPHAS = [0.61803398875, 0.41421356237309515]


@given(data=st.data())
@SETTINGS
def test_bohr_bits_match_cross_multiplication(data):
    den = data.draw(st.sampled_from(BOHR_DENOMINATORS))
    alpha = data.draw(st.one_of(
        st.sampled_from(BOHR_ALPHAS),
        st.integers(min_value=1, max_value=den - 1).map(lambda a: a / den)))
    den = data.draw(st.sampled_from(BOHR_DENOMINATORS[:-1]))
    lo, hi = sorted(data.draw(st.lists(
        st.integers(min_value=0, max_value=den), min_size=2, max_size=2,
        unique=True)))
    interval = (lo / den, hi / den)
    horizon = data.draw(st.integers(min_value=1, max_value=3000))
    view = build_pset(Bohr(alpha=alpha, interval=interval), horizon)
    assert elements(view) == bohr_cross_multiplied(alpha, interval, horizon)


@pytest.mark.parametrize("alpha, interval, horizon", [
    # q divides the step, so each class is all members or none
    (0.5, (0.25, 0.75), 16),
    (0.25, (0.0, 0.5), 100),
    (0.2, (0.1, 1.0), 4999),
    # the step 2 passes the horizon
    (0.5, (0.0, 1.0), 1),
    # the best step moves r by d > q / 2, so the residues are mirrored
    (0.61803398875, (0.0, 0.25), 5000),
    (0.41421356237309515, (0.25, 0.5), 5000),
    (0.9, (0.5, 1.0), 7),
    # and by d < q / 2
    (0.61803398875, (0.75, 1.0), 2000),
    (0.41421356237309515, (0.0, 1.0), 1000),
])
def test_bohr_lap_branches_match_cross_multiplication(alpha, interval,
                                                      horizon):
    view = build_pset(Bohr(alpha=alpha, interval=interval), horizon)
    assert elements(view) == bohr_cross_multiplied(alpha, interval, horizon)


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


@given(case=small_sets(), data=st.data())
@SETTINGS
def test_admits_matches_set_semantics(case, data):
    view, ps = case
    # offset positions whose span may run past the horizon, where a
    # difference counts as outside P (ps holds no member past it)
    lo = data.draw(st.integers(min_value=-5, max_value=40))
    positions = tuple(sorted(data.draw(st.sets(
        st.integers(min_value=lo, max_value=lo + 2 * view.horizon + 2),
        max_size=7))))
    assert view.admits(positions) == ref_admissible(ps, positions)


# -- orbit probes against brute-force word oracles ---------------------------

@st.composite
def word_pairs(draw):
    """Two words of one length in [1..64]; y is x with a drawn set of
    positions flipped, so that long agreeing blocks are common."""
    n = draw(st.integers(min_value=1, max_value=64))
    x = draw(st.text("01", min_size=n, max_size=n))
    flips = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    y = "".join("10"[int(c)] if i in flips else c for i, c in enumerate(x))
    return x, y


def word_point(word):
    return OrbitPoint(config=Configuration.from_word(word), label=word,
                      admissible=True, spec_digest="")


def ref_proximal(x, y, block):
    for m in range(len(x) - block + 1):
        if x[m:m + block] == y[m:m + block]:
            return m
    return None


@given(words=word_pairs())
@SETTINGS
def test_proximal_probe_matches_brute_force(words):
    x, y = words
    for block in range(1, len(x) + 1):
        assert proximal_probe(word_point(x), word_point(y), block) \
            == ref_proximal(x, y, block)


@given(words=word_pairs(), seed=st.integers(min_value=0, max_value=99))
@SETTINGS
def test_f_statistic_matches_brute_force(words, seed):
    x, y = words
    rng = random.Random(seed)
    for l in range(len(x)):
        # up to four grid points, repeats allowed, all with n + l <= len(x)
        grid = rng.choices(range(1, len(x) - l + 1), k=rng.randint(1, 4))
        report = f_statistic(word_point(x), word_point(y), l, grid)
        assert report.values == tuple((n, brute_f(x, y, l, n))
                                      for n in sorted(set(grid)))


@given(case=small_sets(), depth=st.integers(min_value=2, max_value=5),
       data=st.data())
@SETTINGS
def test_delta_chain_matches_reference(case, depth, data):
    view, ps = case
    bound = data.draw(st.integers(min_value=1, max_value=view.horizon))
    budget = data.draw(st.integers(min_value=0, max_value=400))
    # the translation argument: rooting at 1 loses no chain
    unrooted = brute_chain(ps, depth, bound)
    assert ref_chain(ps, depth, bound, float("inf")) == (
        ("chain", unrooted) if unrooted else ("none",))
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
    counts = tuple(len([m for m in ps if m <= n]) for n in range(1, H + 1))
    assert report.prefix_counts == counts
    prefix = tuple((n, Fraction(c, n)) for n, c in enumerate(counts, 1))
    assert report.prefix_densities == prefix
    assert report.prefix_densities is report.prefix_densities
    tail = [d for n, d in prefix if n >= n0]
    assert (report.lower_est, report.upper_est) == (min(tail), max(tail))
    # each extreme is the prefix density at the least n >= n0 reaching it
    for est in (report.lower_est, report.upper_est):
        n = next(n for n, d in prefix if n >= n0 and d == est)
        assert est == report.prefix_densities[n - 1][1]
    assert report.banach_profile == tuple(
        (w, Fraction(max(len([n for n in ps if m < n <= m + w])
                         for m in range(H - w + 1)), w))
        for w in grid)


@pytest.mark.parametrize("spec, members", [
    # every prefix density is 1
    (Multiples(k=1), set(range(1, 13))),
    # the maximum 1/2 recurs at every even n
    (Multiples(k=2), set(range(2, 13, 2))),
    # the minimum 1/2 recurs at every even n
    (Complement(of=Multiples(k=2)), set(range(1, 13, 2))),
    # the empty set: every density is 0
    (Complement(of=Multiples(k=1)), set()),
    (Explicit(elems=(1, 3, 4, 9, 10, 11)), {1, 3, 4, 9, 10, 11}),
], ids=["full", "evens", "odds", "empty", "explicit"])
def test_density_extremes_with_ties(spec, members):
    H = 12
    view = build_pset(spec, H)
    # n0 runs from 1 to H, so both ends of the cutoff are covered
    for n0 in range(1, H + 1):
        report = density_report(view, [1], n0=n0)
        tail = [Fraction(len([m for m in members if m <= n]), n)
                for n in range(n0, H + 1)]
        assert (report.lower_est, report.upper_est) == (min(tail), max(tail))
        assert type(report.lower_est) is type(report.upper_est) is Fraction


LONG = 3000


@pytest.mark.parametrize("name", MEMBERS)
def test_long_horizon_densities_match_reference(name):
    view = build_pset(load_member(name), LONG)
    ps = set(elements(view))
    counts = [0]
    for n in range(1, LONG + 1):
        counts.append(counts[-1] + (n in ps))
    grid = [1, 7, LONG // 3, LONG]
    for n0 in (1, LONG // 2, LONG):
        report = density_report(view, grid, n0=n0)
        tail = [(Fraction(counts[n], n), n) for n in range(n0, LONG + 1)]
        lo, hi = min(tail)[0], max(tail)[0]
        assert (report.lower_est, report.upper_est) == (lo, hi)
        least = [next(n for d, n in tail if d == est) for est in (lo, hi)]
        starts = bytes(p in ps and p - 1 not in ps
                       for p in range(1, LONG + 1))
        assert _least_extremes(view.bits, report.prefix_counts, starts,
                               n0) == least
        assert report.banach_profile == tuple(
            (w, Fraction(max(counts[m + w] - counts[m]
                             for m in range(LONG - w + 1)), w))
            for w in grid)


@pytest.mark.parametrize("name", ["multiples_2", "co_squares",
                                  "bohr_golden_quarter"])
def test_long_horizon_points_match_reference(name):
    view = build_pset(load_member(name), LONG)
    ps = set(elements(view))
    assert greedy_point(view, LONG).ones == ref_scan(ps, LONG)
    rng = random.Random(11)
    assert random_point(view, LONG, 11).config.ones \
        == ref_scan(ps, LONG, keep=lambda: rng.random() < 0.5)


# -- the clique searches against brute force ---------------------------------

@given(case=small_sets(), data=st.data())
@SETTINGS
def test_clique_searches_match_brute_force(case, data):
    view, ps = case
    n = data.draw(st.integers(min_value=0, max_value=min(12, view.horizon)))
    assert count_words(view, n) == brute_count(ps, n)
    omega, config = max_ones(view, n)
    assert (omega, config.ones) == brute_max_ones(ps, n)


def brute_cliques(ps, n):
    """Every position set in [0..n) with all differences in ps, sorted."""
    return sorted(c for r in range(n + 1)
                  for c in itertools.combinations(range(n), r)
                  if ref_admissible(ps, c))


@given(case=small_sets(), data=st.data())
@SETTINGS
def test_clique_walk_matches_brute_force(case, data):
    view, ps = case
    n = data.draw(st.integers(min_value=0, max_value=min(10, view.horizon)))
    expected = brute_cliques(ps, n)
    assert [tuple(c) for c in _cliques(view, n)] == expected
    root = data.draw(st.sampled_from(expected))
    assert [tuple(c) for c in _cliques(view, n, root)] == [
        c for c in expected if c[:len(root)] == root]


def ones_of(word):
    return tuple(i for i, c in enumerate(word) if c == "1")


def ref_join_gap(ps, u, v, gap_cap):
    """Least gap g with every cross difference of u 0^g v in ps, tried
    one g at a time."""
    for g in range(gap_cap + 1):
        if all(len(u) + g + j - i in ps
               for i in ones_of(u) for j in ones_of(v)):
            return g
    return None


@given(case=small_sets(), data=st.data())
@SETTINGS
def test_transitive_gap_check_matches_reference(case, data):
    view, ps = case
    word_len_cap = data.draw(st.integers(min_value=1, max_value=4))
    if 2 * word_len_cap > view.horizon:
        with pytest.raises(ValidationError):
            transitive_gap_check(view, word_len_cap, 0)
        return
    gap_cap = data.draw(st.integers(
        min_value=0, max_value=view.horizon - 2 * word_len_cap))
    # every admissible 0/1 word of length 1..word_len_cap, in
    # (length, ones) order
    words = sorted((w for n in range(1, word_len_cap + 1)
                    for w in map("".join, itertools.product("01", repeat=n))
                    if ref_admissible(ps, ones_of(w))),
                   key=lambda w: (len(w), ones_of(w)))
    pairs = [(u, v) for u in words for v in words]
    failing = [p for p in pairs if ref_join_gap(ps, *p, gap_cap) is None]
    report = transitive_gap_check(view, word_len_cap, gap_cap)
    assert report.total_pairs == len(pairs)
    assert report.joinable_pairs == len(pairs) - len(failing)
    assert report.least_failing == (failing[0] if failing else None)


@given(case=small_sets(), data=st.data())
@SETTINGS
def test_profile_rows_match_standalone_calls(case, data):
    view, _ = case
    grid = data.draw(st.lists(
        st.integers(min_value=1, max_value=min(12, view.horizon)),
        min_size=1, max_size=5))
    profile = entropy_profile(view, grid)
    assert [(row.n, row.count, row.omega) for row in profile.rows] == [
        (n, count_words(view, n), max_ones(view, n)[0])
        for n in sorted(set(grid))]


@given(case=small_sets(), data=st.data())
@SETTINGS
def test_profile_budget_matches_standalone_sequence(case, data):
    # the shared memo over an ascending grid runs out exactly where the
    # standalone count_words, max_ones sequence does, with the same error
    view, _ = case
    grid = sorted(set(data.draw(st.lists(
        st.integers(min_value=1, max_value=view.horizon),
        min_size=1, max_size=5))))
    for budget in data.draw(st.lists(st.integers(min_value=1, max_value=300),
                                     min_size=1, max_size=4)):
        try:
            expected = [(n, count_words(view, n, budget=budget),
                         max_ones(view, n, budget=budget)[0]) for n in grid]
        except BudgetError as err:
            with pytest.raises(BudgetError) as got:
                entropy_profile(view, grid, budget=budget)
            assert (got.value.nodes, str(got.value)) == (err.nodes, str(err))
        else:
            profile = entropy_profile(view, grid, budget=budget)
            assert [(row.n, row.count, row.omega)
                    for row in profile.rows] == expected


def ref_memo_entries(ps, n):
    """Distinct keys of the nonempty candidate sets that the counter
    reaches from {0..n-1}.  The key of S is the smaller of S shifted to
    start at 0 and S mirrored to start at 0, each read as a bitmask; the
    set that key encodes is expanded by dropping its lowest vertex or by
    keeping only that vertex's neighbours."""
    seen = set()
    todo = [frozenset(range(n))]
    while todo:
        cand = todo.pop()
        if not cand:
            continue
        low, high = min(cand), max(cand)
        key = min(sum(1 << (v - low) for v in cand),
                  sum(1 << (high - v) for v in cand))
        if key in seen:
            continue
        seen.add(key)
        rep = [v for v in range(high - low + 1) if key >> v & 1]
        rest = rep[1:]
        todo.append(frozenset(rest))
        todo.append(frozenset(v for v in rest if v in ps))
    return len(seen)


@given(case=small_sets(), data=st.data())
@SETTINGS
def test_budget_exhaustion_reports_budget_plus_one(case, data):
    view, ps = case
    n = data.draw(st.integers(min_value=0, max_value=min(12, view.horizon)))
    entries = ref_memo_entries(ps, n)
    for search in (count_words, max_ones):
        answers = []
        for budget in range(51):
            try:
                answers.append(search(view, n, budget=budget))
            except BudgetError as exc:
                assert exc.nodes == budget + 1
                answers.append(None)
            if search is count_words:
                # one node per memo entry: the count needs exactly `entries`
                assert (answers[-1] is None) == (budget < entries)
        # a larger budget never turns an answer into "don't know"
        done = [answer is not None for answer in answers]
        assert done == sorted(done)
        assert {answer for answer in answers if answer is not None} <= {
            search(view, n)}


# -- the CLI contract on random small inputs ---------------------------------

def _leaf_specs():
    # mostly valid specs, with some malformed ones mixed in
    elems = st.one_of(
        st.sets(st.integers(min_value=1, max_value=30), max_size=8).map(sorted),
        st.lists(st.integers(min_value=-1, max_value=30), max_size=3))
    ends = st.integers(min_value=0, max_value=19).flatmap(
        lambda lo: st.integers(min_value=lo + 1, max_value=20).map(
            lambda hi: [lo / 20, hi / 20]))
    return st.one_of(
        st.builds(lambda e: {"type": "explicit", "elems": e}, elems),
        st.builds(lambda k: {"type": "multiples", "k": k},
                  st.integers(min_value=1, max_value=6)),
        st.just({"type": "squares"}),
        st.builds(lambda a, iv: {"type": "bohr", "alpha": a / 1000,
                                 "interval": iv},
                  st.integers(min_value=1, max_value=999), ends))


cli_specs = st.recursive(
    _leaf_specs(),
    lambda child: st.one_of(
        st.builds(lambda c: {"type": "complement", "of": c}, child),
        st.builds(lambda t, cs: {"type": t, "of": cs},
                  st.sampled_from(["union", "intersect"]),
                  st.lists(child, min_size=1, max_size=2))),
    max_leaves=3)


@given(spec=cli_specs, cmd=st.sampled_from(["count", "maxones", "entropy"]),
       ns=st.lists(st.integers(min_value=0, max_value=40), min_size=1,
                   max_size=3),
       horizon=st.one_of(st.none(), st.integers(min_value=-1, max_value=45)),
       budget=st.integers(min_value=-2, max_value=1000))
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_cli_contract_on_small_inputs(spec, cmd, ns, horizon, budget):
    argv = ["lang", cmd, "--spec", json.dumps(spec), "--budget", str(budget)]
    if cmd == "entropy":
        argv += ["--n-grid", ",".join(map(str, ns))]
    else:
        argv += ["--n", str(ns[0])]
    if horizon is not None:
        argv += ["--horizon", str(horizon)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code:
        assert isinstance(json.loads(err.getvalue()), dict)
