"""Acceptance gate: one test per criterion, one printed verdict line each.

Every numeric comparison here is exact (big-integer or rational) except
where a wall-clock limit is part of the criterion itself.
"""

import json
import time
from fractions import Fraction

from spacelab import (
    MEMBERS,
    build_pset,
    count_words,
    elements,
    find_delta_chain,
    find_ip_generator,
    greedy_point,
    load_member,
    make_point,
    max_ones,
    named_points,
    f_statistic,
    periodic_point_check,
    proximal_probe,
    run_all,
    verify_witness,
)
from spacelab.cli import main as cli_main
from spacelab.dynamics import random_point
from spacelab.psets import Complement, Multiples, Squares


def _report(num, text):
    print(f"[criterion {num:02d}] PASS: {text}")


def test_criterion_01_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for name in MEMBERS:
        view = build_pset(load_member(name), 18)
        for n in range(19):
            naive = count_words(view, n, mode="naive")
            fast = count_words(view, n, mode="optimized")
            assert naive == fast, (name, n, naive, fast)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(1, f"optimized == naive on {checked} (member, n) cells "
               f"in {elapsed:.1f}s")


def test_criterion_02_closed_forms():
    full = build_pset(Multiples(k=1), 30)
    m2 = build_pset(Multiples(k=2), 30)
    for n in range(31):
        assert count_words(full, n) == 2 ** n
        expected = 2 ** ((n + 1) // 2) + 2 ** (n // 2) - 1
        assert count_words(m2, n) == expected
        if n <= 18:
            assert count_words(m2, n, mode="naive") == expected
    _report(2, "c(n) closed forms for the full shift and Multiples(2), "
               "n <= 30, oracle-checked to n = 18")


def test_criterion_03_pigeonhole_cap():
    for k in (2, 3, 5):
        view = build_pset(Complement(of=Multiples(k=k)), 64)
        for n in range(1, 25):
            omega, config = max_ones(view, n)
            assert omega == min(k, n), (k, n, omega)
            assert len(config.ones) == omega
        assert greedy_point(view, 64).ones == tuple(range(k))
    _report(3, "max_ones = min(k, n) and greedy emits k ones for "
               "complements of multiples, k in {2,3,5}, n <= 24")


def test_criterion_04_entropy_bound():
    for k in (1, 2, 3):
        view = build_pset(Multiples(k=k), 24)
        for n in range(8, 25):
            c = count_words(view, n)
            omega, _ = max_ones(view, n)
            # h_n >= omega/n - log2(n+1)/n  <=>  (n+1) c(n) >= 2^omega
            assert (n + 1) * c >= 1 << omega, (k, n)
    _report(4, "(n+1) c(n) >= 2^omega for Multiples(k), k in {1,2,3}, "
               "n in [8..24]")


def test_criterion_05_submultiplicativity():
    for name in MEMBERS:
        view = build_pset(load_member(name), 24)
        counts = [count_words(view, n) for n in range(25)]
        for m in range(1, 24):
            for n in range(1, 25 - m):
                assert counts[m + n] <= counts[m] * counts[n], (name, m, n)
    _report(5, "c(m+n) <= c(m) c(n) for all m+n <= 24 across the corpus")


def test_criterion_06_structure_witnesses():
    squares = build_pset(Squares(), 100)
    chain = find_delta_chain(squares, 3, 100)
    assert chain.payload == (1, 10, 26)
    diffs = {b - a for i, a in enumerate(chain.payload)
             for b in chain.payload[i + 1:]}
    assert diffs == {9, 16, 25}
    assert chain.verified and verify_witness(chain, squares)

    m2 = build_pset(Multiples(k=2), 10)
    gen = find_ip_generator(m2, 2, 10)
    assert gen.payload == (2, 4)
    assert gen.verified and verify_witness(gen, m2)
    _report(6, "delta chain (1,10,26) on squares and IP generator (2,4) "
               "on evens, both re-verified")


def test_criterion_07_squares_trend():
    view = build_pset(Complement(of=Squares()), 24)
    c8 = count_words(view, 8)
    c24 = count_words(view, 24)
    # h_24 < h_8  <=>  c(24)^8 < c(8)^24, exactly in big integers
    assert c24 ** 8 < c8 ** 24
    omega8, _ = max_ones(view, 8)
    omega24, _ = max_ones(view, 24)
    assert Fraction(omega24, 24) < Fraction(omega8, 8)
    _report(7, f"complement of squares: h_24 < h_8 "
               f"(c8={c8}, c24={c24}) and omega/n falls "
               f"{Fraction(omega8, 8)} -> {Fraction(omega24, 24)}")


def test_criterion_08_proximality_shadow():
    view = build_pset(Complement(of=Multiples(k=2)), 256)
    points = named_points(view, 256, maxones_n=8)
    probes = 0
    for x in points:
        for y in points:
            for block in range(1, 33):
                assert proximal_probe(x, y, block) is not None, \
                    (x.label, y.label, block)
                probes += 1
    _report(8, f"proximal_probe succeeded for all {probes} "
               "(pair, block) cases at horizon 256")


def test_criterion_09_periodic_criterion():
    horizon = 48
    for name in MEMBERS:
        view = build_pset(load_member(name), horizon)
        present = set(elements(view))
        for k in range(1, 7):
            contains = all(m in present
                           for m in range(k, horizon + 1, k))
            result = periodic_point_check(view, k, horizon)
            assert (result.point is not None) == contains, (name, k)
            if result.point is not None:
                assert result.point.admissible
            else:
                assert result.failing_multiple % k == 0
                assert result.failing_multiple not in present
    _report(9, "periodic point exists exactly when all multiples of k "
               "lie in P, corpus x k in {1..6}")


def test_criterion_10_f_statistic_sanity():
    view = build_pset(Complement(of=Multiples(k=2)), 131)
    points = list(named_points(view, 131, maxones_n=8))
    points += [random_point(view, 131, seed=s) for s in range(12)]
    grid = [16, 64, 128]
    pairs = 0
    for i, x in enumerate(points):
        assert all(v == 1 for _, v in f_statistic(x, x, 1, grid).values)
        for y in points[i + 1:]:
            prev = None
            for l in (0, 1, 2):
                fxy = f_statistic(x, y, l, grid)
                fyx = f_statistic(y, x, l, grid)
                assert fxy.values == fyx.values
                if prev is not None:
                    assert all(cur <= before for (_, cur), (_, before)
                               in zip(fxy.values, prev))
                prev = fxy.values
            pairs += 1
    assert pairs >= 100
    _report(10, f"F(x,x) = 1, symmetry, and monotonicity in l over "
                f"{pairs} generator pairs")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    dirs = (tmp_path / "run1", tmp_path / "run2")
    streams = []
    for out_dir in dirs:
        code = cli_main(["corpus", "run-all", "--out", str(out_dir)])
        assert code == 0
        streams.append(capsys.readouterr())
    assert streams[0] == streams[1]
    index = json.loads(streams[0].out)
    assert len(index["verdicts"]) == 9
    assert all(v == "consistent" for v in index["verdicts"].values())
    names = sorted(p.name for p in dirs[0].iterdir())
    assert "manifest.json" in names
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        first, second = ((d / name).read_bytes() for d in dirs)
        assert first == second, name
    _report(11, "corpus run-all is byte-identical across runs, stdout, "
                "stderr and manifest included; all 9 verdicts consistent")
