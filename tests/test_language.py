import hashlib
import tracemalloc
from fractions import Fraction

import pytest

from spacelab import (
    BudgetError,
    Configuration,
    ValidationError,
    build_pset,
    count_words,
    elements,
    entropy_profile,
    find_join_gap,
    greedy_point,
    is_admissible,
    load_member,
    max_ones,
    transitive_gap_check,
)
from spacelab.language import _count_cliques
from spacelab.psets import (
    Complement,
    DiffSet,
    Explicit,
    FiniteSums,
    Multiples,
    Squares,
    Union,
    _mask_from,
)
from conftest import brute_count, brute_max_ones, russian_doll_omegas


def test_configuration_round_trip():
    c = Configuration(length=6, ones=(0, 2, 5))
    assert c.word() == "101001"
    assert Configuration.from_word("101001") == c
    assert c.ones_mask == 0b100101
    assert c.padded(9).word() == "101001000"


@pytest.mark.parametrize("length, ones", [(0, ()), (1, (0,)), (6, (0, 2, 5)),
                                          (70, (1, 64, 69))])
def test_ones_mask_is_cached_outside_the_fields(length, ones):
    config, twin = Configuration(length, ones), Configuration(length, ones)
    before = hash(config)
    assert config.ones_mask == _mask_from((p + 1 for p in ones), length)
    assert config.ones_mask is config.ones_mask
    assert hash(config) == before == hash(twin)
    assert config == twin and twin == config
    assert repr(config) == repr(twin)


def test_configuration_validation():
    with pytest.raises(ValidationError):
        Configuration(length=3, ones=(3,))
    with pytest.raises(ValidationError):
        Configuration(length=3, ones=(1, 1))
    with pytest.raises(ValidationError):
        Configuration(length=-1, ones=())
    with pytest.raises(ValidationError,
                       match="^word must consist of 0s and 1s$"):
        Configuration.from_word("102")


def test_is_admissible(m2_view):
    assert is_admissible(Configuration.from_word("10101"), m2_view)
    assert not is_admissible(Configuration.from_word("11"), m2_view)
    assert is_admissible(Configuration.from_word("00000"), m2_view)


@pytest.mark.parametrize("call, message", [
    (lambda view: is_admissible(Configuration(65, (0,)), view),
     "configuration length 65 exceeds horizon 64"),
    (lambda view: greedy_point(view, 65),
     "point horizon 65 exceeds view horizon 64"),
    (lambda view: find_join_gap(view, Configuration.from_word("1"),
                                Configuration.from_word("1"), 64),
     "cross differences would exceed the horizon"),
], ids=["is_admissible", "greedy_point", "find_join_gap"])
def test_past_the_horizon_rejected(m2_view, call, message):
    with pytest.raises(ValidationError) as err:
        call(m2_view)
    assert str(err.value) == message


def test_count_empty_word(full_view):
    assert count_words(full_view, 0) == 1


def test_count_full_shift(full_view):
    for n in (1, 5, 10):
        assert count_words(full_view, n) == 2 ** n


def test_count_frozen_values(m3_view, co2_view, co3_view):
    assert count_words(m3_view, 8) == 18
    assert count_words(co3_view, 12) == 125
    assert [count_words(co2_view, n) for n in (4, 8, 16, 24, 32)] == \
        [9, 25, 81, 169, 289]
    m5 = build_pset(Multiples(k=5), 24)
    assert count_words(m5, 24) == 140


def test_count_matches_brute(m2_view, co3_view):
    for view in (m2_view, co3_view):
        elems = elements(view)
        for n in (0, 1, 5, 9, 12):
            assert count_words(view, n) == brute_count(elems, n)


def test_count_naive_equals_optimized(co3_view):
    for n in range(15):
        assert (count_words(co3_view, n, mode="naive")
                == count_words(co3_view, n, mode="optimized"))


def test_count_mode_validation(m2_view):
    with pytest.raises(ValidationError):
        count_words(m2_view, 4, mode="fast")
    with pytest.raises(ValidationError):
        count_words(m2_view, 25, mode="naive")
    with pytest.raises(ValidationError):
        count_words(m2_view, -1)
    with pytest.raises(ValidationError):
        count_words(m2_view, 65)


def test_count_budget():
    view = build_pset(Multiples(k=1), 64)
    with pytest.raises(BudgetError) as err:
        count_words(view, 64, budget=10)
    assert err.value.nodes > 10


def test_count_budget_boundary_frozen():
    # the count of co_squares at n = 56 expands 70,384 states, each keyed
    # up to translation and reflection; one fewer is "don't know"
    view = build_pset(Complement(of=Squares()), 56)
    with pytest.raises(BudgetError) as err:
        count_words(view, 56, budget=70_383)
    assert err.value.nodes == 70_384
    assert count_words(view, 56, budget=70_384) == 24_269_734


def test_count_budget_boundary_frozen_bohr():
    # the count of bohr_golden_quarter at n = 1000 expands 34,119 states;
    # which states the memo keeps depends on the order in which the
    # counter reaches them, so this pin holds for its fixed child order
    view = build_pset(load_member("bohr_golden_quarter"), 1000)
    with pytest.raises(BudgetError) as err:
        count_words(view, 1000, budget=34_118)
    assert err.value.nodes == 34_119
    assert count_words(view, 1000, budget=34_119) == 12_988_649_786_243


def test_count_memo_entries_frozen():
    # co_squares at n = 64: a without-child is stored only at even
    # popcount or when consecutive, so 157,998 entries serve 245,700
    # nodes, and at most one entry is held per node; equal counts are
    # stored as one int object
    view = build_pset(Complement(of=Squares()), 64)
    memo = {0: 1}
    assert _count_cliques(view.bits, 64, 245_700, memo, 0) == (
        173_142_751, 245_700)
    assert len(memo) - 1 == 157_998
    values = memo.values()
    assert len(set(values)) == len({id(v) for v in values}) == 9_430


@pytest.mark.parametrize("n,count", [(64, 173_142_751), (68, 420_693_164)])
def test_count_at_the_wall_frozen(n, count):
    # co_squares, where exact counting runs out first; computed before
    # each state of the counter was expanded once
    assert count_words(build_pset(Complement(of=Squares()), n), n) == count


def test_searches_deeper_than_the_stack():
    view = build_pset(Multiples(k=1), 1500)
    assert count_words(view, 1500) == 2 ** 1500
    assert max_ones(view, 1500) == (1500, Configuration(1500, range(1500)))


def test_max_ones_frozen(m2_view, m3_view, co3_view):
    omega, config = max_ones(m3_view, 8)
    assert omega == 3
    assert config.ones == (0, 3, 6)
    assert max_ones(m2_view, 24)[0] == 12
    assert max_ones(co3_view, 8)[0] == 3


# omega and the sha256 of the witness ones joined by commas, computed
# before max_ones bounded each candidate by colour classes
MAX_ONES_FROZEN = {
    ("co_squares", 48): (
        14, "8482fe24d3dae937d7233faeefffb61ca767ff3a98f0b482eec9960bb8fd674f"),
    ("co_squares", 64): (
        16, "8860608d85ec43b675af3968ec3c198de78c3add251b0be7204f1ceb016c65d6"),
    ("co_squares", 80): (
        20, "1ed816aa0753ef9b0dcde1c9cd3ff0908315be9419e1110595427eb8e0e654d5"),
    ("co_multiples_5", 512): (
        5, "6484c68c0c85987f9beb3db42175c46955a8abe05170239580fcd1ff8b514452"),
    ("bohr_golden_quarter", 512): (
        16, "65cfc825a7469faf92a90fdf4baac0d286dab6e70cbb626250d931ee288e6fb4"),
}


@pytest.mark.parametrize("member,n", sorted(MAX_ONES_FROZEN))
def test_max_ones_corpus_frozen(member, n):
    omega, config = max_ones(build_pset(load_member(member), n), n)
    digest = hashlib.sha256(",".join(map(str, config.ones)).encode())
    assert (omega, digest.hexdigest()) == MAX_ONES_FROZEN[member, n]
    assert len(config.ones) == omega and config.length == n


def test_max_ones_budget_boundary_frozen():
    # the colour-class search on co_squares at n = 48 extends 376 cliques,
    # the root {0} included; one fewer is "don't know"
    view = build_pset(Complement(of=Squares()), 48)
    with pytest.raises(BudgetError) as err:
        max_ones(view, 48, budget=375)
    assert err.value.nodes == 376
    assert max_ones(view, 48, budget=376)[0] == 14


@pytest.mark.parametrize("member, n, omega, nodes", [
    ("co_squares", 64, 16, 13_106),
    ("bohr_golden_quarter", 256, 11, 54),
    ("union_m3_p15", 128, 43, 45),
    ("multiples_2", 512, 256, 256),
    ("squares", 2000, 3, 12),
])
def test_max_ones_node_counts_frozen(member, n, omega, nodes):
    # the least budget at which the search answers, taken before its
    # masks were kept relative to the last vertex; one fewer is "don't
    # know", reported at budget + 1 nodes
    view = build_pset(load_member(member), n)
    assert max_ones(view, n, budget=nodes)[0] == omega
    with pytest.raises(BudgetError) as err:
        max_ones(view, n, budget=nodes - 1)
    assert err.value.nodes == nodes


def test_max_ones_setup_memory():
    # one and drop, n masks of up to n bits each, are all that is built
    # before the first node (2.44 MB); a third n-row table beside them
    # would pass the bound
    view = build_pset(load_member("co_multiples_2"), 4000)
    view.bits
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert max_ones(view, 4000)[0] == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_max_ones_matches_brute(co2_view, squares_view):
    for view in (co2_view, squares_view):
        elems = elements(view)
        for n in (1, 4, 8, 11):
            omega, config = max_ones(view, n)
            b_omega, b_combo = brute_max_ones(elems, n)
            assert omega == b_omega
            assert config.ones == b_combo


@pytest.mark.parametrize("member", ["co_squares", "bohr_golden_quarter",
                                    "union_m3_p15"])
def test_max_ones_matches_russian_doll(member):
    # past brute-force sizes, omega is checked against an oracle that
    # shares no code or bound with the colour-class search
    view = build_pset(load_member(member), 80)
    omegas = russian_doll_omegas(elements(view), 80)
    assert [max_ones(view, k)[0] for k in range(8, 81, 8)] == omegas[8::8]


def test_max_ones_lex_least(co3_view):
    omega, config = max_ones(co3_view, 10)
    best = brute_max_ones([e for e in range(1, 11) if e % 3], 10)
    assert (omega, config.ones) == best


def test_entropy_profile(m2_view):
    profile = entropy_profile(m2_view, [4, 8, 12])
    assert [r.n for r in profile.rows] == [4, 8, 12]
    assert [r.count for r in profile.rows] == [7, 31, 127]
    assert profile.rows[0].entropy == pytest.approx(0.701838730514401)
    assert profile.rows[0].omega_over_n == Fraction(1, 2)
    assert profile.rows[1].omega == 4


def test_entropy_profile_grid_rules(m2_view):
    profile = entropy_profile(m2_view, [8, 4, 8])
    assert [r.n for r in profile.rows] == [4, 8]
    with pytest.raises(ValidationError):
        entropy_profile(m2_view, [])
    with pytest.raises(ValidationError):
        entropy_profile(m2_view, [0, 4])


def test_greedy_point():
    fs = build_pset(FiniteSums(gens=(2, 5)), 12)
    assert greedy_point(fs, 12).ones == (0, 2, 7)
    co5 = build_pset(Complement(of=Multiples(k=5)), 64)
    assert greedy_point(co5, 64).ones == (0, 1, 2, 3, 4)


def test_find_join_gap(m2_view):
    u = Configuration.from_word("1")
    v = Configuration.from_word("1")
    assert find_join_gap(m2_view, u, v, 6) == 1
    co2 = build_pset(Complement(of=Multiples(k=2)), 64)
    assert find_join_gap(co2, u, v, 6) == 0
    assert find_join_gap(co2, Configuration.from_word("11"),
                         Configuration.from_word("11"), 6) is None


def test_transitive_union_defect():
    union = build_pset(Union(parts=(Multiples(k=3),
                                    Explicit(elems=(1, 5)))), 12)
    report = transitive_gap_check(union, 3, 6)
    assert report.total_pairs == 144
    assert report.joinable_pairs == 135
    assert report.least_failing == ("11", "11")


def test_transitive_full_join():
    big = build_pset(DiffSet(base=tuple(range(1, 32))), 32)
    report = transitive_gap_check(big, 4, 8)
    assert report.total_pairs == 900
    assert report.joinable_pairs == 900
    assert report.least_failing is None


def test_transitive_horizon_requirement():
    view = build_pset(Multiples(k=2), 10)
    with pytest.raises(ValidationError):
        transitive_gap_check(view, 4, 8)


def test_heredity(squares_view):
    word = max_ones(squares_view, 24)[1]
    for i in range(word.length):
        for j in range(i, word.length + 1):
            sub = Configuration(
                length=j - i,
                ones=tuple(p - i for p in word.ones if i <= p < j))
            assert is_admissible(sub, squares_view)
