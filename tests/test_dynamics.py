import hashlib
import random
from fractions import Fraction

import pytest

from spacelab import (
    Configuration,
    ValidationError,
    build_pset,
    cylinder_distance_exponent,
    f_statistic,
    make_point,
    named_points,
    periodic_point_check,
    proximal_probe,
    zero_point,
)
from spacelab.dynamics import OrbitPoint, random_point
from spacelab.psets import Complement, Multiples

from conftest import brute_f


def _point(view, word):
    return OrbitPoint(config=Configuration.from_word(word), label="test",
                      admissible=True, spec_digest=view.spec_digest)


def test_cylinder_distance():
    a = Configuration.from_word("10110")
    b = Configuration.from_word("10100")
    assert cylinder_distance_exponent(a, b) == 3
    assert cylinder_distance_exponent(a, a) is None
    c = Configuration.from_word("00110")
    assert cylinder_distance_exponent(a, c) == 0


def test_zero_point(co3_view):
    p = zero_point(co3_view, 12)
    assert p.config.word() == "0" * 12
    assert p.admissible


def test_make_point_names(co3_view, m2_view):
    assert make_point(co3_view, "zero", 16).config.ones == ()
    assert make_point(co3_view, "greedy", 16).config.ones == (0, 1, 2)
    assert make_point(co3_view, "maxones:8", 16).config.ones == (0, 1, 2)
    peri = make_point(m2_view, "periodic:4", 16)
    assert peri.config.ones == (0, 4, 8, 12)
    assert peri.admissible


@pytest.mark.parametrize("name", ["zero", "greedy", "maxones:2",
                                  "periodic:2", "random:3"])
def test_make_point_rejects_negative_horizon(name):
    view = build_pset(Multiples(k=2), 20)
    with pytest.raises(ValidationError,
                       match="^horizon must be a non-negative integer$"):
        make_point(view, name, -1)


@pytest.mark.parametrize("name, horizon, message", [
    ("zero", 65, "point horizon 65 exceeds view horizon 64"),
    ("maxones:17", 16, "maxones window exceeds point horizon"),
    ("maxones:x", 16, "bad maxones window: 'x'"),
    ("periodic:2.5", 16, "bad period: '2.5'"),
    ("random:seven", 16, "bad seed: 'seven'"),
    # int() reads these as 8 and 5; a point has only its canonical name
    ("maxones:\u0668", 16, "bad maxones window: '\u0668'"),
    ("random:\u0665", 16, "bad seed: '\u0665'"),
    ("random: 5", 16, "bad seed: ' 5'"),
    ("random:0_5", 16, "bad seed: '0_5'"),
    ("random", 16, "random point generator needs a seed"),
    ("periodic:4", 16, "no period-4 point: multiple 12 missing"),
    ("mystery", 16, "unknown point generator 'mystery'"),
])
def test_make_point_rejects(co3_view, name, horizon, message):
    with pytest.raises(ValidationError) as err:
        make_point(co3_view, name, horizon)
    assert str(err.value) == message


def test_make_point_random_names_its_seed(co3_view):
    point = make_point(co3_view, "random:7", 64)
    assert point == random_point(co3_view, 64, seed=7)
    assert point.label == "random:7"


def test_random_point_deterministic(co3_view):
    a = random_point(co3_view, 64, seed=7)
    b = random_point(co3_view, 64, seed=7)
    c = random_point(co3_view, 64, seed=8)
    assert a.config == b.config
    assert a.label == "random:7"
    assert a.config != c.config
    assert a.admissible


def test_random_point_frozen(co3_view):
    # the generator is consulted once per legal position, in increasing
    # order; these values pin that call order
    assert random_point(co3_view, 64, seed=7).config.ones == (0, 1, 5)
    assert random_point(co3_view, 64, seed=8).config.ones == (0, 2, 7)
    ones = random_point(build_pset(Multiples(k=2), 8000), 8000,
                        seed=11).config.ones
    assert len(ones) == 2015
    assert hashlib.sha256(",".join(map(str, ones)).encode()).hexdigest() \
        == "99d70a97895b5c373e7d36fc47b33213eb6eb2e22f33fed0d0281406d6655b80"


def test_named_points(co3_view):
    pts = named_points(co3_view, 32, maxones_n=8)
    assert [p.label for p in pts] == ["zero", "greedy", "maxones:8"]
    assert all(p.admissible for p in pts)
    assert all(p.config.length == 32 for p in pts)


def test_f_statistic_matches_brute(co3_view):
    x = make_point(co3_view, "greedy", 64)
    y = make_point(co3_view, "zero", 64)
    for l in (0, 1, 3):
        report = f_statistic(x, y, l, [4, 16, 32])
        for n, value in report.values:
            assert value == brute_f(x.config.word(), y.config.word(), l, n)


def test_f_statistic_frozen(co3_view):
    x = make_point(co3_view, "greedy", 64)
    y = make_point(co3_view, "zero", 64)
    report = f_statistic(x, y, 0, [16, 32, 64])
    assert report.values == ((16, Fraction(13, 16)),
                             (32, Fraction(29, 32)),
                             (64, Fraction(61, 64)))
    assert report.tail_min == Fraction(61, 64)


def test_f_statistic_floor_parity(full_view):
    x = _point(full_view, "10" * 16)
    y = _point(full_view, "0" * 32)
    report = f_statistic(x, y, 0, [7, 8, 9])
    for n, value in report.values:
        assert value == brute_f(x.config.word(), y.config.word(), 0, n)
        assert value == Fraction(n // 2, n)


def test_f_statistic_self_is_one(co3_view):
    x = make_point(co3_view, "greedy", 64)
    report = f_statistic(x, x, 2, [8, 32])
    assert all(value == 1 for _, value in report.values)


def test_f_statistic_horizon_guard(co3_view):
    x = make_point(co3_view, "zero", 16)
    y = make_point(co3_view, "greedy", 16)
    with pytest.raises(ValidationError):
        f_statistic(x, y, 4, [16])
    with pytest.raises(ValidationError):
        f_statistic(x, y, 0, [])


def test_proximal_probe():
    view = build_pset(Complement(of=Multiples(k=3)), 256)
    x = make_point(view, "zero", 256)
    y = make_point(view, "greedy", 256)
    for block in (1, 8, 32):
        assert proximal_probe(x, y, block) == 3
    assert proximal_probe(x, x, 16) == 0


def test_proximal_probe_failure():
    full = build_pset(Multiples(k=1), 64)
    x = _point(full, "10" * 32)
    y = _point(full, "0" * 64)
    assert proximal_probe(x, y, 2) is None
    assert proximal_probe(x, y, 1) == 1


_L_INT = "l must be an integer"
_GRID = "n_grid must be positive integers"


@pytest.mark.parametrize("l, grid, message", [
    (0.5, [4], _L_INT), (True, [4], _L_INT), ("1", [4], _L_INT),
    (-1, [4], "l must be >= 0"),
    (0, [2.5], _GRID), (0, [True], _GRID), (0, [4, "8"], _GRID),
    (0, [4, None], _GRID), (0, [0, 4], _GRID),
])
def test_f_statistic_rejects_non_integers(co3_view, l, grid, message):
    x = make_point(co3_view, "zero", 16)
    y = make_point(co3_view, "greedy", 16)
    with pytest.raises(ValidationError) as err:
        f_statistic(x, y, l, grid)
    assert str(err.value) == message


@pytest.mark.parametrize("block", [2.5, 2.0, True, "2", None])
def test_proximal_probe_rejects_non_integers(co3_view, block):
    x = make_point(co3_view, "zero", 16)
    y = make_point(co3_view, "greedy", 16)
    with pytest.raises(ValidationError) as err:
        proximal_probe(x, y, block)
    assert str(err.value) == "block must lie in [1..16]"


@pytest.mark.parametrize("probe, message", [
    (lambda x, y: cylinder_distance_exponent(x.config, y.config),
     "words must have equal lengths"),
    (lambda x, y: f_statistic(x, y, 0, [4]), "points must have equal lengths"),
    (lambda x, y: proximal_probe(x, y, 2), "points must have equal lengths"),
], ids=["cylinder_distance_exponent", "f_statistic", "proximal_probe"])
def test_probes_reject_unequal_lengths(co3_view, probe, message):
    x = make_point(co3_view, "greedy", 16)
    y = make_point(co3_view, "greedy", 17)
    with pytest.raises(ValidationError) as err:
        probe(x, y)
    assert str(err.value) == message


def test_periodic_point_check():
    m3 = build_pset(Multiples(k=3), 30)
    result = periodic_point_check(m3, 3, 30)
    assert result.point is not None
    assert result.point.config.ones == tuple(range(0, 30, 3))
    assert result.point.admissible
    assert result.failing_multiple is None

    co3 = build_pset(Complement(of=Multiples(k=3)), 30)
    result = periodic_point_check(co3, 3, 30)
    assert result.point is None
    assert result.failing_multiple == 3

    m2 = build_pset(Multiples(k=2), 30)
    result = periodic_point_check(m2, 4, 30)
    assert result.point is not None
    result = periodic_point_check(m2, 3, 30)
    assert result.point is None
    assert result.failing_multiple == 3


def test_periodic_validation(m3_view):
    with pytest.raises(ValidationError):
        periodic_point_check(m3_view, 0, 30)
    with pytest.raises(ValidationError):
        periodic_point_check(m3_view, 3, 100)


def _linear_apart(diff, l):
    # the reference: the disagreement mask OR-ed over all l + 1 shifts
    apart = 0
    for shift in range(l + 1):
        apart |= diff >> shift
    return apart


def test_f_statistic_matches_linear_or():
    # sparse to dense disagreements, every l, and every n the horizon allows
    rng = random.Random(7)
    for _ in range(300):
        horizon = rng.randint(1, 300)
        flip = rng.choice([0.01, 0.05, 0.2, 0.5])
        x = [rng.choice("01") for _ in range(horizon)]
        y = ["10"[int(c)] if rng.random() < flip else c for c in x]
        px, py = (OrbitPoint(config=Configuration.from_word("".join(w)),
                             label="", admissible=True, spec_digest="")
                  for w in (x, y))
        l = rng.randint(0, horizon - 1)
        grid = range(1, horizon - l + 1)
        apart = _linear_apart(px.config.ones_mask ^ py.config.ones_mask, l)
        assert f_statistic(px, py, l, grid).values == tuple(
            (n, Fraction(n - (apart & ((1 << n) - 1)).bit_count(), n))
            for n in grid)
