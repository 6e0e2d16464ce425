"""Independent oracles for the benchmark's answers.

Nothing here imports spacelab.  Sets are Python sets or bytearray
tables built from the tagged JSON wire format, Bohr membership is
decided with exact rationals, and every search is a plain enumeration,
so agreement with the library is evidence that the bitmask code is
right, not a restatement of it.

Answers are compared as digests (see :func:`digest`): big integers are
hashed through ``hex`` and never ``str``, because CPython refuses to
convert integers of more than 4300 digits to decimal.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction


# -- digests -----------------------------------------------------------------

def _feed(h, obj) -> None:
    if obj is None:
        h.update(b"N")
    elif obj is True:
        h.update(b"T")
    elif obj is False:
        h.update(b"F")
    elif isinstance(obj, int):
        h.update(b"i%x;" % obj if obj >= 0 else b"i-%x;" % -obj)
    elif isinstance(obj, Fraction):
        _feed(h, obj.numerator)
        h.update(b"/")
        _feed(h, obj.denominator)
    elif isinstance(obj, float):
        h.update(b"f" + obj.hex().encode("ascii") + b";")
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        h.update(b"s%d:" % len(raw) + raw)
    elif isinstance(obj, bytes):
        h.update(b"b%d:" % len(obj) + obj)
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for item in obj:
            _feed(h, item)
        h.update(b")")
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(answer) -> str:
    """SHA-256 of a plain answer built from ints, fractions, strings,
    bytes, floats, None, bools, tuples, lists and dicts."""
    h = hashlib.sha256()
    _feed(h, answer)
    return h.hexdigest()


# -- set semantics -----------------------------------------------------------

def spec_digest(obj: dict) -> str:
    """Content hash of a spec in canonical JSON form."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def members(obj: dict, horizon: int) -> set:
    """The elements of a described set inside [1..horizon]."""
    kind = obj["type"]
    if kind == "explicit":
        return {v for v in obj["elems"] if v <= horizon}
    if kind == "multiples":
        return set(range(obj["k"], horizon + 1, obj["k"]))
    if kind == "squares":
        out, r = set(), 1
        while r * r <= horizon:
            out.add(r * r)
            r += 1
        return out
    if kind == "fs":
        out = set()
        gens = obj["gens"]
        for r in range(1, len(gens) + 1):
            for combo in itertools.combinations(gens, r):
                out.add(sum(combo))
        return {v for v in out if v <= horizon}
    if kind in ("delta", "diffset"):
        seq = obj["seq"] if kind == "delta" else obj["set"]
        return {b - a for a, b in itertools.combinations(seq, 2)
                if b - a <= horizon}
    if kind == "bohr":
        # exact: alpha and the endpoints are the decimals their JSON denotes
        alpha = Fraction(repr(float(obj["alpha"])))
        lo, hi = (Fraction(repr(float(x))) for x in obj["interval"])
        return {n for n in range(1, horizon + 1) if lo < (n * alpha) % 1 < hi}
    if kind == "complement":
        return set(range(1, horizon + 1)) - members(obj["of"], horizon)
    if kind == "union":
        return set().union(*(members(p, horizon) for p in obj["of"]))
    if kind == "intersect":
        parts = [members(p, horizon) for p in obj["of"]]
        return parts[0].intersection(*parts[1:])
    raise ValueError(f"unknown spec type {kind!r}")


def mask(values) -> int:
    """Bitmask with bit v-1 set for each v (built through bytes, not shifts)."""
    values = list(values)
    if not values:
        return 0
    table = bytearray((max(values) + 8) // 8)
    for v in values:
        table[(v - 1) // 8] |= 1 << ((v - 1) % 8)
    return int.from_bytes(table, "little")


def table(elems: set, horizon: int) -> bytearray:
    """Membership table: t[d] == 1 iff d is in the set, for d in [0..horizon]."""
    t = bytearray(horizon + 1)
    for v in elems:
        if v <= horizon:
            t[v] = 1
    return t


def view_answer(obj: dict, horizon: int) -> tuple:
    return ("view", horizon, mask(members(obj, horizon)), spec_digest(obj))


# -- words -------------------------------------------------------------------

def brute_count(elems: set, n: int) -> int:
    """Admissible length-n words by enumerating every subset."""
    total = 0
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            if all(b - a in elems for a, b in itertools.combinations(combo, 2)):
                total += 1
    return total


def brute_max_ones(elems: set, n: int) -> tuple:
    """(omega, lexicographically least witness) by enumeration."""
    for r in range(n, -1, -1):
        for combo in itertools.combinations(range(n), r):
            if all(b - a in elems for a, b in itertools.combinations(combo, 2)):
                return r, combo
    return 0, ()


def multiples_count(k: int, n: int) -> int:
    """Closed form for kN: the ones of a word share one residue mod k."""
    return 1 + sum(2 ** len(range(r, n, k)) - 1 for r in range(min(k, n)))


def pairwise_ok(ones, elems) -> bool:
    """Direct re-check: every difference of the positions is in the set."""
    return all(b - a in elems for a, b in itertools.combinations(ones, 2))


def config_answer(length: int, ones) -> tuple:
    return ("config", length, mask(p + 1 for p in ones))


def greedy_ones(t: bytearray, horizon: int, seed=None) -> list:
    """Scan positions, keeping each one compatible with all kept ones; with
    a seed, keep a legal position only when the generator says so (the
    generator is consulted for legal positions only)."""
    rng = random.Random(seed) if seed is not None else None
    ones: list = []
    for pos in range(horizon):
        if all(t[pos - prev] for prev in ones):
            if rng is None or rng.random() < 0.5:
                ones.append(pos)
    return ones


def point_answer(label: str, admissible: bool, length: int, ones) -> tuple:
    return ("point", label, admissible, config_answer(length, ones))


def least_chain(elems: set, depth: int, bound: int):
    """Lexicographically least s_1 < ... < s_depth <= bound with every
    difference in the set, or None.  Differences are translation
    invariant, so a chain exists iff one starts at 1."""
    diffs = sorted(d for d in elems if d <= bound - 1)
    chain = [0]
    stack = [iter(diffs)]
    while stack:
        for d in stack[-1]:
            if d > chain[-1] and all(d - c in elems for c in chain):
                chain.append(d)
                if len(chain) == depth:
                    return tuple(c + 1 for c in chain)
                stack.append(iter(diffs))
                break
        else:
            stack.pop()
            chain.pop()
    return None


def chain_answer(chain, depth: int, bound: int) -> tuple:
    if chain is None:
        return ("none",)
    return ("witness", "delta_chain", tuple(chain), True, depth, bound, None)


# -- densities and scans -----------------------------------------------------

def density_answer(elems: set, horizon: int, grid, n0=None) -> tuple:
    """Plain Fraction recount of the prefix and window densities."""
    if n0 is None:
        n0 = max(1, horizon // 2)
    counts = [0] * (horizon + 1)
    for n in range(1, horizon + 1):
        counts[n] = counts[n - 1] + (n in elems)
    prefix = tuple((n, Fraction(counts[n], n)) for n in range(1, horizon + 1))
    tail = [d for n, d in prefix if n >= n0]
    banach = tuple((w, Fraction(max(counts[m + w] - counts[m]
                                    for m in range(horizon - w + 1)), w))
                   for w in grid)
    return ("density", horizon, n0, prefix, min(tail), max(tail), banach)


def syndetic_answer(elems: set, horizon: int) -> tuple:
    ordered = sorted(elems)
    gaps = [ordered[0] - 1] + [b - a - 1 for a, b in zip(ordered, ordered[1:])]
    return ("syndetic", max(gaps), horizon - ordered[-1])


def thick_answer(elems: set, horizon: int) -> int:
    best = run = 0
    for n in range(1, horizon + 1):
        run = run + 1 if n in elems else 0
        best = max(best, run)
    return best


def intersect_answer(e_elems: set, a_elems: set, horizon: int) -> tuple:
    ordered = sorted(a_elems)
    for e in sorted(e_elems):
        for a in ordered:
            if a + e in a_elems:
                return ("witness", "intersective_hit", e, True, None, horizon,
                        (a, a + e))
    return ("none",)


def bohr_answer(p_elems: set, alpha: float, interval, horizon: int) -> tuple:
    bohr = members({"type": "bohr", "alpha": alpha,
                    "interval": list(interval)}, horizon)
    missing = bohr - p_elems
    return ("bohr", len(bohr), len(bohr & p_elems),
            min(missing) if missing else None, not missing)


def fstat_answer(x_ones, y_ones, l: int, grid, x_label, y_label) -> tuple:
    xs, ys = set(x_ones), set(y_ones)
    values = []
    for n in sorted(set(grid)):
        agree = sum(1 for m in range(n)
                    if all((i in xs) == (i in ys) for i in range(m, m + l + 1)))
        values.append((n, Fraction(agree, n)))
    tail = values[-max(1, len(values) // 4):]
    return ("fstat", l, x_label, y_label, tuple(values),
            min(v for _, v in tail))


def proximal_answer(x_ones, y_ones, horizon: int, block: int):
    xs, ys = set(x_ones), set(y_ones)
    run = 0
    for i in range(horizon):
        run = run + 1 if (i in xs) == (i in ys) else 0
        if run == block:
            return i - block + 1
    return None
