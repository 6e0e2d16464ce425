import sys
import tracemalloc

import pytest

from spacelab import (
    BudgetError,
    ValidationError,
    build_pset,
    check_bohr_avoidance,
    find_delta_chain,
    find_ip_generator,
    find_ip_ip_generator,
    finite_sums,
    intersective_refute,
    load_member,
    syndetic_gap,
    thick_run,
    verify_witness,
    witness_from_json,
)
from spacelab.detect import StructureWitness
from spacelab.errors import replace
from spacelab.psets import (
    Complement,
    DiffSet,
    Explicit,
    Multiples,
    Squares,
)


def test_finite_sums():
    assert finite_sums((2, 5)) == [2, 5, 7]
    assert finite_sums((1, 2, 4)) == [1, 2, 3, 4, 5, 6, 7]
    assert finite_sums((3,)) == [3]
    assert finite_sums((1, 2, 3)) == [1, 2, 3, 4, 5, 6]  # 3 twice
    assert finite_sums(()) == []
    assert finite_sums((0,)) == [0]
    assert finite_sums((-1, 1)) == [-1, 0, 1]


def test_delta_chain_squares(squares_view):
    view = build_pset(Squares(), 100)
    witness = find_delta_chain(view, 3, 100)
    assert witness.payload == (1, 10, 26)
    assert witness.verified
    assert witness.depth == 3
    assert witness.bound == 100
    diffs = {b - a for i, a in enumerate(witness.payload)
             for b in witness.payload[i + 1:]}
    assert diffs == {9, 16, 25}
    assert verify_witness(witness, view)


def test_delta_chain_lex_least(m2_view):
    witness = find_delta_chain(m2_view, 4, 10)
    assert witness.payload == (1, 3, 5, 7)


def test_delta_chain_none():
    view = build_pset(Explicit(elems=(1,)), 10)
    assert find_delta_chain(view, 3, 10) is None


def test_delta_chain_budget():
    # no three integers have pairwise odd differences; the rooted search
    # needs 15,001 nodes to say so
    view = build_pset(Complement(of=Multiples(k=2)), 30000)
    with pytest.raises(BudgetError) as exc:
        find_delta_chain(view, 3, 30000, budget=1000)
    assert exc.value.nodes == 1001


@pytest.mark.parametrize("spec, depth, bound, budget", [
    # rooted at 1, the search visits 382 legal positions
    (Squares(), 5, 30000, 1000),
    # pigeonhole mod 3: of any four integers, two differ by a multiple
    # of 3; the search visits 17,956 legal positions to say so
    (Complement(of=Multiples(k=3)), 4, 400, 100_000),
], ids=["squares", "co_multiples_3"])
def test_delta_chain_rooted_search_answers_none(spec, depth, bound, budget):
    view = build_pset(spec, bound)
    assert find_delta_chain(view, depth, bound, budget=budget) is None


@pytest.mark.parametrize("member, depth, bound, nodes, payload", [
    ("co_squares", 12, 64, 12,
     (1, 3, 6, 8, 11, 13, 16, 18, 21, 23, 35, 40)),
    ("bohr_golden_quarter", 6, 2000, 9, (1, 3, 92, 181, 414, 647)),
    ("squares", 4, 30000, 382, None),
])
def test_delta_chain_budget_boundary_frozen(member, depth, bound, nodes,
                                            payload):
    # the least budget at which the rooted walk answers, taken before its
    # masks were kept relative to the last position; one fewer is
    # "don't know", reported at budget + 1 nodes
    view = build_pset(load_member(member), bound)
    witness = find_delta_chain(view, depth, bound, budget=nodes)
    assert (witness and witness.payload) == payload
    assert witness is None or witness.verified
    with pytest.raises(BudgetError) as exc:
        find_delta_chain(view, depth, bound, budget=nodes - 1)
    assert exc.value.nodes == nodes


@pytest.mark.parametrize("member, depth, bound, ip, ip_ip", [
    ("multiples_2", 3, 64, (6, (2, 4, 6)), (36, (2, 4, 6))),
    ("co_squares", 4, 200, (10, (2, 3, 5, 10)), (109, (2, 5, 10, 45))),
    ("union_m3_p15", 4, 400, (334, (3, 6, 9, 12)), (462, (3, 6, 9, 12))),
    ("intersect_co2_co3", 3, 300, (2583, None), (7450, None)),
    ("bohr_golden_quarter", 3, 2000, (610, (2, 34, 610)),
     (255262, (13, 26, 39))),
])
def test_generator_budget_boundary_frozen(member, depth, bound, ip, ip_ip):
    # the least budget at which each search answers, taken while the
    # IP-IP search still kept three masks per level; one fewer is
    # "don't know", reported at budget + 1 nodes
    view = build_pset(load_member(member), bound)
    for search, (nodes, payload) in ((find_ip_generator, ip),
                                     (find_ip_ip_generator, ip_ip)):
        witness = search(view, depth, bound, budget=nodes)
        assert (witness and witness.payload) == payload
        assert witness is None or witness.verified
        with pytest.raises(BudgetError) as exc:
            search(view, depth, bound, budget=nodes - 1)
        assert exc.value.nodes == nodes


@pytest.mark.parametrize("search, limit", [
    (find_ip_generator, 5_000_000),
    (find_ip_ip_generator, 16_000_000),
], ids=["ip", "ip_ip"])
def test_deep_generator_memory(search, limit):
    # 1 + ... + 500 = 125250: one mask per level, the finite sums for IP
    # and the signed sums for IP-IP, peaks at about 3 and 11 MB, and
    # masks offset by the bound, three per level for IP-IP, at 11 and 31
    view = build_pset(Multiples(k=1), 125250)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        witness = search(view, 500, 125250)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness.payload == tuple(range(1, 501))
    assert witness.verified
    assert peak < limit


def test_delta_chain_deeper_than_the_stack():
    # every difference is in N, so the least chain is 1..depth; the
    # search must not need one stack frame per level
    view = build_pset(Multiples(k=1), 1500)
    witness = find_delta_chain(view, 1200, 1500)
    assert witness.payload == tuple(range(1, 1201))
    assert witness.verified


def test_ip_generator(m2_view, full_view):
    witness = find_ip_generator(m2_view, 2, 10)
    assert witness.payload == (2, 4)
    assert witness.verified
    assert find_ip_generator(full_view, 3, 10).payload == (1, 2, 3)


def test_ip_generator_squares_positive():
    view = build_pset(Squares(), 10000)
    witness = find_ip_generator(view, 2, 10000)
    assert witness.payload == (9, 16)
    assert finite_sums((9, 16)) == [9, 16, 25]
    assert witness.verified


def test_ip_generator_none():
    view = build_pset(Explicit(elems=(1, 2)), 10)
    assert find_ip_generator(view, 2, 10) is None


def test_ip_ip_generator(m3_view, full_view):
    witness = find_ip_ip_generator(m3_view, 2, 30)
    assert witness.payload == (3, 6)
    assert witness.verified
    assert find_ip_ip_generator(full_view, 3, 20).payload == (1, 2, 3)
    big = build_pset(DiffSet(base=tuple(range(1, 32))), 32)
    assert find_ip_ip_generator(big, 3, 31).payload == (1, 2, 3)


def test_ip_ip_generator_work_per_node():
    # the witness 1..14 is found after 14 nodes; the search must not hold
    # one finite sum per subset of the generators
    view = build_pset(Multiples(k=1), 1000)
    witness = find_ip_ip_generator(view, 14, 1000, budget=20)
    assert witness.payload == tuple(range(1, 15))
    assert witness.verified


def test_ip_ip_recheck_at_depth_60():
    # FS(1..60) = 1..1830: 1.7 million pairs of sums but only 1829
    # distinct differences, each read once; 1829 is the largest
    view = build_pset(Multiples(k=1), 1830)
    witness = find_ip_ip_generator(view, 60, 1830)
    assert witness.payload == tuple(range(1, 61))
    assert witness.verified
    holed = build_pset(Complement(of=Explicit(elems=(1829,))), 1830)
    assert not verify_witness(witness, holed)
    assert verify_witness(witness, build_pset(
        Complement(of=Explicit(elems=(1830,))), 1830))


def test_generators_deeper_than_the_stack():
    # 1 + ... + 30 = 465; with only a few stack frames to spare, the
    # searches must not need one frame per generator
    view = build_pset(Multiples(k=1), 465)
    frame, frames = sys._getframe(), 0
    while frame is not None:
        frame, frames = frame.f_back, frames + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frames + 20)
    try:
        ip = find_ip_generator(view, 30, 465)
        ip_ip = find_ip_ip_generator(view, 30, 465)
    finally:
        sys.setrecursionlimit(limit)
    assert ip.payload == ip_ip.payload == tuple(range(1, 31))
    assert ip.verified and ip_ip.verified


def test_depth_validation(m2_view):
    with pytest.raises(ValidationError):
        find_delta_chain(m2_view, 1, 10)
    with pytest.raises(ValidationError):
        find_ip_generator(m2_view, 0, 10)
    with pytest.raises(ValidationError):
        find_delta_chain(m2_view, 3, 0)
    with pytest.raises(ValidationError,
                       match="^search bound 65 exceeds horizon 64$"):
        find_delta_chain(m2_view, 3, 65)


def test_witness_json_round_trip(squares_view):
    view = build_pset(Squares(), 100)
    witness = find_delta_chain(view, 3, 100)
    obj = witness.to_json()
    assert obj == {"kind": "delta_chain", "S": [1, 10, 26],
                   "verified": True, "depth": 3, "bound": 100}
    again = witness_from_json(obj)
    assert again.payload == witness.payload
    assert verify_witness(again, view)


@pytest.mark.parametrize("obj", [
    {"kind": "mystery", "S": [1]},
    {"kind": "delta_chain"},  # no payload
    5,  # not an object
    {"kind": "intersective_hit", "value": 2, "pair": 5},
])
def test_witness_json_rejects_unknown(obj):
    with pytest.raises(ValidationError):
        witness_from_json(obj)


def test_verify_witness_rejects_bad(m2_view):
    bad = StructureWitness(kind="delta_chain", payload=(1, 2),
                           verified=True, depth=2, bound=10)
    assert not verify_witness(bad, m2_view)
    good = StructureWitness(kind="ip_generator", payload=(2, 4),
                            verified=True, depth=2, bound=10)
    assert verify_witness(good, m2_view)
    hit = StructureWitness(kind="intersective_hit", payload=2, verified=True,
                           pair=(1, 3))
    assert verify_witness(hit, m2_view)
    assert verify_witness(replace(hit, pair=None), m2_view) is False
    for pair in ((1,), 5):  # a pair is two integers
        with pytest.raises(ValidationError, match="^a pair is two integers"):
            verify_witness(replace(hit, pair=pair), m2_view)
    with pytest.raises(ValidationError,
                       match="^unknown witness kind 'mystery'$"):
        verify_witness(replace(hit, kind="mystery"), m2_view)


@pytest.mark.parametrize("payload, expected", [
    ((), True),
    ((4,), True),
    ((1, 3, 5), True),
    ((1, 2), False),
    ((1, 11), True),  # the difference 10 is the horizon itself
    ((-1, 1), True),  # only differences are looked up
    ((1, 2, 0), False),  # not increasing, but the pair (1, 2) fails first
    ((5, 3), ValidationError),  # difference -2
    ((2, 2), ValidationError),  # difference 0
    ((1, 3, 3), ValidationError),
    ((1, 12), ValidationError),  # difference 11 is past the horizon
    ((1.0, 3.0), ValidationError),  # differences must be integers
    (5, ValidationError),  # not a list or tuple
    (("a", "b"), ValidationError),  # not numbers
])
def test_verify_delta_chain_edge_cases(payload, expected):
    view = build_pset(Multiples(k=2), 10)
    witness = StructureWitness(kind="delta_chain", payload=payload,
                               verified=False)
    if expected is ValidationError:
        with pytest.raises(ValidationError):
            verify_witness(witness, view)
    else:
        assert verify_witness(witness, view) is expected


_OUTSIDE = "outside horizon [1..10]"


@pytest.mark.parametrize("payload, ip, ip_ip", [
    ((), True, True),
    ((2,), True, True),
    ((2, 2), True, True),  # repeated sums count once
    ((1, 1), False, False),
    ((2, 2, 2), True, True),
    ((0,), "query 0 " + _OUTSIDE, True),
    ((0, 2), "query 0 " + _OUTSIDE, True),
    ((-2, 4), "query -2 " + _OUTSIDE, True),
    ((-2, 2), "query -2 " + _OUTSIDE, True),
    ((2.0, 4), "query 2.0 " + _OUTSIDE, "query 2.0 " + _OUTSIDE),
    ((2, 4.0), "query 4.0 " + _OUTSIDE, "query 2.0 " + _OUTSIDE),
    ((1.5,), "query 1.5 " + _OUTSIDE, True),
    ((4, 8), "query 12 " + _OUTSIDE, True),  # sum past the horizon
    ((6, 8), "query 14 " + _OUTSIDE, True),
    ((2, 12), "query 12 " + _OUTSIDE, "query 12 " + _OUTSIDE),
    ((10,), True, True),
    ((12,), "query 12 " + _OUTSIDE, True),
    ((2, 3, 8), False, False),
    ((4, 2), True, True),  # not increasing
    ((True,), False, True),
    ((2, True), False, False),
    (("3",), ValidationError, ValidationError),  # not numbers
    (None, ValidationError, ValidationError),  # not a list or tuple
])
def test_verify_generator_edge_cases(payload, ip, ip_ip):
    # membership is asked of the sorted distinct sums (IP) or of their
    # pairwise differences (IP-IP), so the first bad one names the error
    view = build_pset(Multiples(k=2), 10)
    for kind, expected in (("ip_generator", ip), ("ip_ip_generator", ip_ip)):
        witness = StructureWitness(kind=kind, payload=payload,
                                   verified=False)
        if expected is ValidationError:
            with pytest.raises(ValidationError):
                verify_witness(witness, view)
        elif isinstance(expected, str):
            with pytest.raises(ValidationError) as err:
                verify_witness(witness, view)
            assert str(err.value) == "membership " + expected
        else:
            assert verify_witness(witness, view) is expected


def test_verify_ip_generator_at_the_horizon():
    # 1..100 has every sum 1..5050 and nothing past it, so the table
    # answers; one more 1 reaches 5051, which member still refuses
    view = build_pset(Multiples(k=1), 5050)
    payload = tuple(range(1, 101))
    witness = StructureWitness(kind="ip_generator", payload=payload,
                               verified=False)
    assert verify_witness(witness, view)
    with pytest.raises(ValidationError) as err:
        verify_witness(replace(witness, payload=(*payload, 1)), view)
    assert str(err.value) == "membership query 5051 outside horizon [1..5050]"


def test_verify_ip_ip_generator_reads_the_sum_at_the_horizon():
    # the sums of (2, 3) are 2, 3 and 5 = H; only the differences from 5
    # to the others, 3 and 2, are not both in P = {1, 3}
    witness = StructureWitness(kind="ip_ip_generator", payload=(2, 3),
                               verified=False)
    assert not verify_witness(witness, build_pset(Explicit((1, 3)), 5))
    assert verify_witness(witness, build_pset(Explicit((1, 2, 3)), 5))


def test_verify_ip_ip_generator_excludes_the_full_sum():
    # the sums of (1, 2) are 1, 2 and 3 = H; 3 is a signed sum but no
    # difference of two sums, so P = {1, 2} admits the generator
    witness = StructureWitness(kind="ip_ip_generator", payload=(1, 2),
                               verified=False)
    assert verify_witness(witness, build_pset(Explicit((1, 2)), 3))


def test_syndetic_gap():
    view = build_pset(Squares(), 100)
    report = syndetic_gap(view)
    assert report.interior_gap == 18
    assert report.censored_tail == 0
    m3 = build_pset(Multiples(k=3), 30)
    report = syndetic_gap(m3)
    assert report.interior_gap == 2
    assert report.censored_tail == 0
    empty = build_pset(Explicit(elems=(50,)), 10)
    assert syndetic_gap(empty) is None


def test_syndetic_censored_tail():
    view = build_pset(Explicit(elems=(2, 40)), 50)
    report = syndetic_gap(view)
    assert report.interior_gap == 37
    assert report.censored_tail == 10


def test_thick_run():
    assert thick_run(build_pset(Multiples(k=1), 30)) == 30
    assert thick_run(build_pset(Multiples(k=3), 30)) == 1
    assert thick_run(build_pset(Explicit(elems=(4, 5, 6, 9)), 12)) == 3
    assert thick_run(build_pset(Complement(of=Multiples(k=1)), 12)) == 0


def test_intersective_refute_hit():
    e = build_pset(Multiples(k=2), 50)
    a = build_pset(Explicit(elems=(1, 4, 9, 16, 25, 36, 49)), 50)
    witness = intersective_refute(e, a)
    assert witness.payload == 8
    assert witness.pair == (1, 9)
    assert witness.verified


def test_intersective_refute_none():
    e = build_pset(Explicit(elems=(2, 4, 6)), 50)
    a = build_pset(Explicit(elems=(1, 4, 9, 16, 25, 36, 49)), 50)
    assert intersective_refute(e, a) is None


def test_intersective_horizon_mismatch():
    e = build_pset(Multiples(k=2), 50)
    a = build_pset(Multiples(k=3), 40)
    with pytest.raises(ValidationError):
        intersective_refute(e, a)


def test_bohr_avoidance():
    m3 = build_pset(Multiples(k=3), 64)
    report = check_bohr_avoidance(m3, 0.61803398875, (0.0, 0.25))
    assert report.bohr_size == 16
    assert report.in_p == 5
    assert report.least_missing == 2
    assert not report.contained
    full = build_pset(Multiples(k=1), 64)
    report = check_bohr_avoidance(full, 0.61803398875, (0.0, 0.25))
    assert report.contained
    assert report.least_missing is None
