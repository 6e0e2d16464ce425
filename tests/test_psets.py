import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import isqrt, lcm

import pytest

from spacelab import (
    SpecError,
    ValidationError,
    build_pset,
    density_report,
    elements,
    member,
    parse_spec,
)
from spacelab import corpus
from spacelab.psets import (
    MAX_SPEC_DEPTH,
    Bohr,
    Complement,
    DeltaOf,
    DiffSet,
    Explicit,
    FiniteSums,
    Intersect,
    Multiples,
    Squares,
    Union,
)
from spacelab.reports import density_prefix_csv


def test_explicit_membership():
    view = build_pset(Explicit(elems=(2, 5, 9)), 12)
    assert elements(view) == [2, 5, 9]
    assert member(view, 5)
    assert not member(view, 4)


def test_member_out_of_horizon():
    view = build_pset(Explicit(elems=(2,)), 8)
    for n, text in ((9, "membership query 9 outside horizon [1..8]"),
                    (0, "membership query 0 outside horizon [1..8]"),
                    (True, "membership query True outside horizon [1..8]")):
        with pytest.raises(ValidationError) as err:
            member(view, n)
        assert str(err.value) == text


def test_multiples_and_complement():
    m3 = build_pset(Multiples(k=3), 12)
    assert elements(m3) == [3, 6, 9, 12]
    co3 = build_pset(Complement(of=Multiples(k=3)), 12)
    assert elements(co3) == [1, 2, 4, 5, 7, 8, 10, 11]


def test_squares():
    view = build_pset(Squares(), 30)
    assert elements(view) == [1, 4, 9, 16, 25]


EDGE_ELEMS = (1, 7, 8, 9, 16, 17, 63, 64, 65, 1000, 4097, 10 ** 9)
EDGE_DIFFS = {b - a for a, b in combinations(EDGE_ELEMS, 2)}
# (spec, horizon, membership of n by its definition): the squares and the
# lists are packed 8 to a byte, the last byte may be partial, and
# Multiples(k) repeats a block of lcm(k, 8) bits, cut at the horizon
BIT_EDGES = (
    [(Squares(), H, lambda n: isqrt(n) ** 2 == n)
     for H in (1, 3, 4, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000, 4096)]
    + [(Multiples(k), H, lambda n, k=k: n % k == 0)
       for k in (1, 3, 7, 8, 9, 24)
       for H in (lcm(k, 8) - 1, lcm(k, 8), lcm(k, 8) + 1, 1000, 4096)]
    + [(spec, H, member_of)
       for spec, member_of in ((Explicit(EDGE_ELEMS), EDGE_ELEMS.__contains__),
                               (DeltaOf(EDGE_ELEMS), EDGE_DIFFS.__contains__),
                               (DiffSet(EDGE_ELEMS), EDGE_DIFFS.__contains__))
       for H in (8, 9, 16, 17, 64, 65, 999, 1000, 4096)])


@pytest.mark.parametrize(
    "spec, horizon, member_of", BIT_EDGES,
    ids=[f"{spec.kind}{getattr(spec, 'k', '')}-{H}" for spec, H, _ in BIT_EDGES])
def test_bits_at_byte_and_period_edges(spec, horizon, member_of):
    view = build_pset(spec, horizon)
    assert elements(view) == [n for n in range(1, horizon + 1) if member_of(n)]
    assert view.bits < 1 << horizon


def test_finite_sums_set():
    view = build_pset(FiniteSums(gens=(2, 5)), 30)
    assert elements(view) == [2, 5, 7]
    view2 = build_pset(FiniteSums(gens=(1, 2, 4)), 30)
    assert elements(view2) == [1, 2, 3, 4, 5, 6, 7]
    # sums past the horizon are cut; so is a generator past it
    view3 = build_pset(FiniteSums(gens=(4, 5, 6, 10 ** 30)), 10)
    assert elements(view3) == [4, 5, 6, 9, 10]


def test_delta_of_sequence():
    view = build_pset(DeltaOf(seq=(1, 4, 9, 16, 25)), 30)
    diffs = sorted({b - a for i, a in enumerate((1, 4, 9, 16, 25))
                    for b in (1, 4, 9, 16, 25)[i + 1:]})
    assert elements(view) == diffs


def test_diffset():
    view = build_pset(DiffSet(base=(1, 4, 9)), 10)
    assert elements(view) == [3, 5, 8]


def test_union_intersect():
    u = build_pset(Union(parts=(Multiples(k=2), Multiples(k=3))), 12)
    assert elements(u) == [2, 3, 4, 6, 8, 9, 10, 12]
    i = build_pset(Intersect(parts=(Multiples(k=2), Multiples(k=3))), 24)
    assert elements(i) == [6, 12, 18, 24]


def test_complement_in_bounds_only():
    co = build_pset(Complement(of=Explicit(elems=(1, 3))), 5)
    assert elements(co) == [2, 4, 5]


def test_bohr_membership_margin():
    view = build_pset(Bohr(alpha=0.61803398875, interval=(0.0, 0.25)), 20)
    got = elements(view)
    alpha = Fraction("0.61803398875")
    expected = [n for n in range(1, 21)
                if 0 < (n * alpha) % 1 < Fraction(1, 4)]
    assert got == expected
    assert 2 in got
    # exact open interval: a point just inside an endpoint is a member
    # and a point on it is not
    near = build_pset(Bohr(alpha=0.2499999995, interval=(0.0, 0.25)), 4)
    assert elements(near) == [1]
    half = build_pset(Bohr(alpha=0.5, interval=(0.0, 0.5)), 8)
    assert elements(half) == []


@pytest.mark.parametrize("alpha, interval, members", [
    (0.25, (0.25, 0.75), [2, 6, 10, 14, 18]),
    (0.2, (0.0, 0.4), [1, 6, 11, 16]),
    (0.3, (0.1, 1.0), [1, 2, 3, 4, 5, 6, 8, 9, 11, 12, 13, 14, 15, 16, 18,
                       19]),
    (0.61803398875, (0.25, 0.5), [4, 7, 12, 15, 20]),
])
def test_bohr_window_ends_on_a_multiple_of_one_over_q(alpha, interval,
                                                      members):
    # lo * q and hi * q are integers here (q = 4, 5, 10 and 8 * 10^8); in
    # the first three frac(n * alpha) lands on an end for some n, and the
    # open window leaves that n out
    assert elements(build_pset(Bohr(alpha, interval), 20)) == members


# one spec per kind, built with list arguments, in the order of README's
# "Spec JSON" block, with its digest pinned
KIND_EXAMPLES = [
    (Explicit([2, 5, 9]),
     "ec54962534de5a16e1b1ad2de3f88f7f2b8958c6a4662d1e922133464e370022"),
    (Multiples(3),
     "9d7355b8fb5b622f3ebcc704fbdd4c85feec80a0aaa492388c678875f0e99fdc"),
    (Squares(),
     "0b17cc69a73dd85966791b8e4dac37e820b1ad6e0916f0a89b4abf88dcb0a89b"),
    (FiniteSums([2, 5]),
     "f824204e1112c9eea7ad07a2bef6ad0f462a8d3f5a74e5b4668ae09a352a5631"),
    (DeltaOf([1, 4, 9, 16, 25]),
     "e1f07471b0dad6c13e36e492ecb17439f6d372090af4d32742c37dee5e0e7899"),
    (DiffSet([1, 4, 9]),
     "36c6d9dda4436533b271e771e5d28a8018c64bc5195efad6cb858ab6854d8005"),
    (Bohr(0.61803398875, [0.0, 0.25]),
     "fb268980da78bc20e5b5bba79f8b7da38768f1ef9afbf2cf3635788183284b89"),
    (Complement(Multiples(2)),
     "e8096c1d8299f204f123793128395a8b77edbe05eb49bbd00789b8fc23bc0491"),
    (Union([Multiples(2), Multiples(3)]),
     "2e05daef9b1943f30eff3e922fd0511cc72d1ec45795adc323a4e0f895368738"),
    (Intersect([Multiples(2), Multiples(3)]),
     "ee0907dbb1efda5c86a3c36bd10b7036e6b577d81548f2f35186fa1720c5f100"),
]


TOO_LONG = f"horizon must be at most {sys.maxsize}"


@pytest.mark.parametrize("spec", [spec for spec, _ in KIND_EXAMPLES
                                  if spec != Squares()],
                         ids=lambda spec: spec.kind)
@pytest.mark.parametrize("horizon", [sys.maxsize + 1, 10 ** 20])
def test_horizon_past_maxsize_rejected(spec, horizon):
    # rejected before the kind builds anything: buffers of more than
    # sys.maxsize bytes, or shifts by more than sys.maxsize bits, fail
    with pytest.raises(ValidationError) as err:
        build_pset(spec, horizon)
    assert str(err.value) == TOO_LONG


def test_squares_horizon_past_maxsize_rejected():
    # squares would first loop over the 10^10 roots below the horizon;
    # a child process with a timeout turns that hang into a failure
    code = ("from spacelab import Squares, ValidationError, build_pset\n"
            "try:\n    build_pset(Squares(), 10 ** 20)\n"
            "except ValidationError as err:\n    print(err)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, TOO_LONG + "\n")


def _readme_spec_objects() -> list:
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Spec JSON", 1)[1].split("```json\n", 1)[1]
    return [json.loads(line) for line in block.split("```", 1)[0].splitlines()]


def test_parse_round_trip():
    spec = Union(parts=(Multiples(k=3),
                        Complement(of=Squares()),
                        Explicit(elems=(1, 5))))
    obj = spec.to_json()
    again = parse_spec(json.loads(json.dumps(obj)))
    assert again == spec
    assert again.digest() == spec.digest()
    objects = _readme_spec_objects()
    assert [o["type"] for o in objects] == [
        "explicit", "multiples", "squares", "fs", "delta", "diffset", "bohr",
        "complement", "union", "intersect"]
    assert len(KIND_EXAMPLES) == len(objects)
    for (spec, digest), obj in zip(KIND_EXAMPLES, objects):
        assert spec.to_json() == obj
        again = parse_spec(obj)
        assert again == spec and hash(again) == hash(spec)
        assert spec.digest() == again.digest() == digest


def test_parse_wire_keys():
    spec = parse_spec({"type": "fs", "gens": [2, 5]})
    assert spec == FiniteSums(gens=(2, 5))
    spec = parse_spec({"type": "delta", "seq": [1, 4, 9]})
    assert spec == DeltaOf(seq=(1, 4, 9))
    spec = parse_spec({"type": "diffset", "set": [1, 4, 9]})
    assert spec == DiffSet(base=(1, 4, 9))
    spec = parse_spec({"type": "bohr", "alpha": 0.5,
                       "interval": [0.1, 0.4]})
    assert spec == Bohr(alpha=0.5, interval=(0.1, 0.4))


def test_parse_unknown_type():
    with pytest.raises(SpecError):
        parse_spec({"type": "mystery"})


def test_parse_extra_key():
    with pytest.raises(SpecError):
        parse_spec({"type": "multiples", "k": 2, "extra": 1})


def test_parse_missing_key():
    with pytest.raises(SpecError):
        parse_spec({"type": "multiples"})


def test_parse_error_paths():
    bad = {"type": "union", "of": [{"type": "multiples", "k": 2},
                                   {"type": "multiples", "k": 0}]}
    with pytest.raises(SpecError) as err:
        parse_spec(bad)
    assert "of/1" in str(err.value)


@pytest.mark.parametrize("obj, message, path", [
    ({"type": "explicit", "elems": 5}, "expected a list of integers",
     "elems"),
    ({"type": "explicit", "elems": [1, "2"]}, "elements must be integers",
     "elems/1"),
    ({"type": "multiples", "k": "2"}, "expected an integer", "k"),
    ({"type": "bohr", "alpha": "0.5", "interval": [0.0, 1.0]},
     "alpha must be a number", "alpha"),
    ([], "spec node must be a JSON object", ""),
    ({"k": 2}, "missing 'type' tag", ""),
    ({"type": "union", "of": []}, "'of' must be a nonempty list", "of"),
    ({"type": "complement", "of": {"type": "intersect", "of": {}}},
     "'of' must be a nonempty list", "of/of"),
])
def test_parse_rejects_and_names_the_node(obj, message, path):
    with pytest.raises(SpecError) as err:
        parse_spec(obj)
    assert (err.value.args[0], err.value.path) == (message, path)


def nested(levels):
    """`levels` nested nodes: complements around the multiples of 2."""
    obj = {"type": "multiples", "k": 2}
    for _ in range(levels - 1):
        obj = {"type": "complement", "of": obj}
    return obj


def test_parse_at_the_nesting_cap():
    spec = parse_spec(nested(MAX_SPEC_DEPTH))
    # an odd number of complements leaves the odd numbers
    assert elements(build_pset(spec, 10)) == [1, 3, 5, 7, 9]
    assert spec.digest() == parse_spec(spec.to_json()).digest()
    with pytest.raises(SpecError) as err:
        parse_spec(nested(MAX_SPEC_DEPTH + 1))
    assert err.value.path == "/".join(["of"] * MAX_SPEC_DEPTH)


def test_validation_rules():
    with pytest.raises(ValidationError):
        Explicit(elems=(3, 1)).validate()
    with pytest.raises(ValidationError):
        Explicit(elems=(0, 1)).validate()
    with pytest.raises(ValidationError):
        Multiples(k=0).validate()
    with pytest.raises(ValidationError):
        FiniteSums(gens=()).validate()
    with pytest.raises(ValidationError):
        DeltaOf(seq=()).validate()
    assert elements(build_pset(DeltaOf(seq=(5,)), 10)) == []
    with pytest.raises(ValidationError):
        Bohr(alpha=0.5, interval=(0.4, 0.1)).validate()
    with pytest.raises(ValidationError):
        Bohr(alpha=-1.0, interval=(0.0, 0.5)).validate()
    with pytest.raises(SpecError):
        Bohr(alpha=0.5, interval=0.3).validate()
    with pytest.raises(ValidationError):
        Union(parts=()).validate()
    with pytest.raises(ValidationError):
        build_pset(Multiples(k=2), 0)


def test_digest_stable_and_distinct():
    a = Multiples(k=2).digest()
    b = Multiples(k=2).digest()
    c = Multiples(k=3).digest()
    assert a == b
    assert a != c
    assert len(a) == 64


def test_prefix_densities_are_not_kept_on_the_report():
    # the H Fractions are built on each read and freed with the tuple,
    # so the report keeps only its integer counts; a cached tuple would
    # hold about 17.8 MB (CPython 3.11)
    report = density_report(build_pset(Squares(), 100_000), [10])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert report.prefix_densities[-1] == (100_000, Fraction(316, 100_000))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1_000_000
    assert vars(report).keys() == set(report._fields)


def test_density_exact_fractions(co2_view):
    report = density_report(co2_view, [8, 16, 32])
    assert report.prefix_densities[-1] == (64, Fraction(1, 2))
    assert report.banach_profile == ((8, Fraction(1, 2)),
                                     (16, Fraction(1, 2)),
                                     (32, Fraction(1, 2)))
    assert report.lower_est == Fraction(1, 2)
    assert report.upper_est == Fraction(17, 33)


@pytest.mark.parametrize("name", corpus.MEMBERS)
def test_density_prefix_csv_matches_fractions(name):
    # the rows are reduced by gcd from the counts; the reference builds a
    # Fraction per n from a recount of the members
    H = 5000
    view = build_pset(corpus.load_member(name), H)
    ones = set(elements(view))
    lines, count = ["n,prefix_density"], 0
    for n in range(1, H + 1):
        count += n in ones
        d = Fraction(count, n)
        lines.append(f"{n},{d.numerator}/{d.denominator}")
    report = density_report(view, [1])
    assert density_prefix_csv(report) == "\n".join(lines) + "\n"


def test_load_member_rejects_unknown_name():
    with pytest.raises(ValidationError,
                       match="^unknown corpus member 'nope'$"):
        corpus.load_member("nope")


def test_density_squares_banach(squares_view):
    report = density_report(squares_view, [50], n0=1000)
    assert report.banach_profile == ((50, Fraction(7, 50)),)


def test_density_window_validation(co2_view):
    with pytest.raises(ValidationError):
        density_report(co2_view, [0])
    with pytest.raises(ValidationError):
        density_report(co2_view, [128])
    with pytest.raises(ValidationError,
                       match="^window_grid must be nonempty$"):
        density_report(co2_view, [])
