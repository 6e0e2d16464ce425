"""Exact language enumeration for spacing shifts.

A length-n word is admissible when every pairwise difference of its
1-positions is a member of P; equivalently its 1-positions form a clique
in the distance graph on {0..n-1} with edges |i-j| in P.  That graph is
invariant under translation and under reflection i -> n-1-i, which the
searches below exploit.

Two counters are kept deliberately separate: a naive oracle that walks
all 2^n subsets and checks pairwise differences directly, and a clique
counter whose memo is keyed on candidate masks up to translation and
reflection, so that translates and mirror images share one entry, and
that expands each entry once on an explicit stack, handing its value
straight to its parent's frame; a state reached by dropping a vertex
enters the memo only at even popcount or when consecutive.  Tests
require the two to agree exactly.  The max-ones search is a
branch-and-bound over cliques containing 0 that bounds each candidate
by greedy colour classes.  The counter's mirror step and the colouring
both read each vertex's lower neighbours from one reversed mask of P.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .errors import (DEFAULT_BUDGET, BudgetError, Record, ValidationError,
                     check_int)
from .psets import PSetView, _cliques, _mask_from

NAIVE_MAX_N = 24


class Configuration(Record):
    """A finite 0/1 word given by its length and sorted 1-positions."""

    length: int
    ones: tuple

    def __post_init__(self):
        object.__setattr__(self, "ones", tuple(self.ones))
        check_int(self.length, "configuration length must be >= 0", 0)
        prev = -1
        for p in self.ones:
            if not isinstance(p, int) or isinstance(p, bool) or p <= prev:
                raise ValidationError(
                    "ones must be strictly increasing positions")
            prev = p
        if self.ones and self.ones[-1] >= self.length:
            raise ValidationError("ones must lie inside [0, length)")

    @cached_property
    def ones_mask(self) -> int:
        """Bit p is set iff p is a 1-position; built on first read and
        cached, outside the fields that equality and hash compare."""
        return _mask_from((p + 1 for p in self.ones), self.length)

    def word(self) -> str:
        chars = ["0"] * self.length
        for p in self.ones:
            chars[p] = "1"
        return "".join(chars)

    @classmethod
    def from_word(cls, word: str) -> "Configuration":
        if set(word) - {"0", "1"}:
            raise ValidationError("word must consist of 0s and 1s")
        return cls(len(word), tuple(i for i, c in enumerate(word) if c == "1"))

    def padded(self, length: int) -> "Configuration":
        """The same 1-positions inside a longer window."""
        check_int(length, "cannot pad to a shorter length", self.length)
        return Configuration(length, self.ones)


def is_admissible(config: Configuration, view: PSetView) -> bool:
    """Whether every pairwise difference of 1-positions lies in P.

    The configuration must fit inside the view's horizon so that every
    difference can be looked up; longer inputs raise.
    """
    if config.length > view.horizon:
        raise ValidationError(
            f"configuration length {config.length} exceeds horizon {view.horizon}")
    return view.admits(config.ones)


def _count_naive(view: PSetView, n: int) -> int:
    bits = view.bits & ((1 << n) - 1)
    total = 0
    for mask in range(1 << n):
        ones = []
        rest = mask
        ok = True
        while rest:
            low = rest & -rest
            pos = low.bit_length() - 1
            for prev in ones:
                if not bits >> (pos - prev - 1) & 1:
                    ok = False
                    break
            if not ok:
                break
            ones.append(pos)
            rest ^= low
        if ok:
            total += 1
    return total


def _reversed_p(bits: int, n: int) -> int:
    # bit n - d set iff d in P, for 0 < d < n; so its row h, rev >> (n - h),
    # has bit i set iff h - i in P, for 0 <= i < h: the neighbours of h
    # below it in the distance graph on {0..n-1}
    return int(format(bits & ((1 << (n - 1)) - 1), f"0{n - 1}b")[::-1], 2) << 1


def _count_cliques(bits: int, n: int, budget: int, memo: dict,
                   nodes: int) -> tuple[int, int]:
    # f(A) = cliques inside the candidate mask A, the empty one included,
    # depends only on A up to translation and reflection (the graph is
    # invariant under both), so the memo is keyed on the smaller of A
    # shifted down to bit 0 and its mirror over its own span.  Split on
    # its lowest vertex 0: f(A) = f(A - {0}) + f((A >> 1) & bits), each
    # side shifted down again; each such sum is one node, counted on top
    # of `nodes` and returned with f.  A state carries its mirror M, so
    # no mask is reversed: with h the top bit of A, the mirror of A - {0}
    # is M - {h}, and that of the neighbours of 0 is M & rrow[h], shifted
    # down.  A child missing from the memo opens a frame (the key that
    # stores f(A), 0 when A is not stored; with-child key and mirror; f
    # of the without-child or None) that takes the child's value when it
    # is done; the with-child is looked up once the without-child is
    # known, as that subtree may add it.  A without-child is stored only
    # at even popcount or when consecutive (count_words says why).
    root = (1 << n) - 1
    if root in memo:
        return memo[root], nodes
    rev = _reversed_p(bits, n)
    rrow = [rev >> (n - h) for h in range(n)]
    get = memo.get
    frames = []
    a = m = key = root  # the state to expand, a <= its mirror m
    while True:
        nodes += 1
        if nodes > budget:
            raise BudgetError("word-count budget exhausted", nodes)
        h = a.bit_length() - 1
        rest = a >> 1
        # ((x & -x) >> 1).bit_length() is the number of trailing zeros
        # of x, and 0 for x == 0, so each shift below is safe on 0
        w = rest & bits
        w >>= ((w & -w) >> 1).bit_length()
        wm = m & rrow[h]
        wm >>= ((wm & -wm) >> 1).bit_length()
        if wm < w:
            w, wm = wm, w
        sub = rest >> ((rest & -rest) >> 1).bit_length()
        m ^= 1 << h
        if m < sub:
            sub, m = m, sub
        value = get(sub)
        if value is None:
            frames.append((key, w, wm, None))
            a = sub
            key = sub if not sub & (sub + 1) or not sub.bit_count() & 1 else 0
            continue
        # value is f of a's without-child, (w, wm) its with-child
        while True:
            with_0 = get(w)
            if with_0 is None:
                frames.append((key, w, wm, value))
                a, m, key = w, wm, w
                break
            value += with_0
            # a is done: finish the frames that waited for their with-child
            while True:
                if key:
                    memo[key] = value
                if not frames:
                    return value, nodes
                key, w, wm, without = frames.pop()
                if without is None:
                    break
                value += without


def count_words(view: PSetView, n: int, mode: str = "optimized",
                budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of admissible length-n words, empty word included.

    Parameters
    ----------
    view : PSetView
        Materialized set P.
    n : int
        Word length; must not exceed the horizon.  Naive mode is
        additionally capped at 24.
    mode : {"naive", "optimized"}
        ``naive`` enumerates all 2^n subsets and checks differences
        directly; ``optimized`` counts cliques with a memo keyed on
        candidate masks up to translation and reflection.  The two must
        agree exactly.
    budget : int
        Node cap for optimized mode.  A node is one expansion: a
        nonempty candidate mask, up to translation and reflection, whose
        two children are summed.  The child that drops the lowest vertex
        enters the memo only when its popcount is even or its vertices
        are consecutive; every other state does.  A state left out has
        odd popcount, so its parent has even popcount, enters the memo
        and is expanded once: entries <= nodes <= 2 * entries, and the
        budget caps work and memo alike.  The consecutive states are the
        roots of the shorter lengths, so a count at n keeps each count
        below n.  Exhaustion raises :class:`BudgetError` with
        ``nodes == budget + 1``; a partial count is never returned.  A
        node costs about 51 bytes at the peak (tracemalloc, CPython
        3.11, co_squares at n = 68: 23.7 MiB for 482,776 nodes), so the
        default budget admits about 0.5 GB.
        The budget counts nodes, not bits, so on periodic P memory
        grows as n² inside it: about 1.5n keys of up to n bits, values
        of up to n/2 bits on multiples_2, and the n-row mirror table
        built before the first node (tracemalloc peak on multiples_2:
        1.46, 4.75 and 17.7 MiB at n = 2000, 4000 and 8000).
    """
    return _count_words(view, n, mode, budget, {0: 1}, 0)[0]


def _count_words(view: PSetView, n: int, mode: str, budget: int,
                 memo: dict, nodes: int) -> tuple[int, int]:
    check_int(n, "word length must be a non-negative integer", 0)
    check_int(budget, "budget must be an integer")
    if n > view.horizon:
        raise ValidationError(f"word length {n} exceeds horizon {view.horizon}")
    if mode == "naive":
        if n > NAIVE_MAX_N:
            raise ValidationError(f"naive mode is capped at n <= {NAIVE_MAX_N}")
        return _count_naive(view, n), nodes
    if mode == "optimized":
        return _count_cliques(view.bits, n, budget, memo, nodes)
    raise ValidationError(f"unknown mode {mode!r}")


def max_ones(view: PSetView, n: int,
             budget: int = DEFAULT_BUDGET) -> tuple[int, Configuration]:
    """Largest number of 1s in an admissible length-n word, with witness.

    Returns the clique number of the distance graph together with the
    lexicographically least witness configuration.  That witness
    contains 0, since shifting a clique down keeps it a clique, so the
    search starts from the clique {0} alone.  It extends cliques by
    vertices in increasing order, so the first maximum clique it reaches
    is the lexicographic minimum.

    Each level is one frame beside the clique ``chosen``, updated in
    place: its untried candidates, its uncoloured ones and the heads of
    its classes.  Bit i of a mask is the vertex i + 1 past the clique's
    last one, so a child's candidates are its parent's shifted past the
    new vertex and ANDed with P cut to n - 1 bits.  They are coloured
    greedily from the highest vertex down, one class at a time; the head
    of a class is its top vertex, and the heads strictly decrease.  The
    candidates >= v lie in the classes whose head is >= v, so no clique
    among them is larger than the number of such classes.  Candidates
    are tried in increasing order, so a frame stops as soon as its least
    untried candidate lies above the head of the last class a clique
    beating the best size would need.  Classes are coloured only as far
    as that test asks, the rest when the best size grows.

    The bound only prunes: it changes neither the order of the search
    nor what a node is.  Each clique extended is one node and the root
    {0} is node 1; exhausting ``budget`` raises :class:`BudgetError`
    with ``nodes == budget + 1``.  Before the first node it builds
    ``one`` and ``drop``, n masks each of up to n bits (``drop``
    straight from one reversed mask of P), which the budget does not
    cap: memory grows as n², to a tracemalloc peak of 2.44 MB at
    n = 4000 on co_multiples_2.  Both stay, as the search ran 15% slower
    without ``one`` and 60% slower making ``drop`` rows as it colours.
    """
    check_int(n, "window length must be a non-negative integer", 0)
    check_int(budget, "budget must be an integer")
    if n > view.horizon:
        raise ValidationError(f"window length {n} exceeds horizon {view.horizon}")
    if n == 0:
        return 0, Configuration(0, ())
    if budget < 1:
        raise BudgetError("max-ones budget exhausted", 1)

    # classes do not change under translation, so drop[h] clears h and
    # its lower neighbours from a class in any frame's relative mask
    bits = view.bits & ((1 << (n - 1)) - 1)
    one = [1 << h for h in range(n)]
    rev = _reversed_p(view.bits, n)
    drop = [~(rev >> (n - h) | one[h]) for h in range(n)]
    best_size, best_ones, nodes = 1, (0,), 1
    # frames[i] = [untried, uncoloured, heads] extends chosen[:i + 1]
    chosen = [0]
    frames = [[bits, bits, []]]
    while frames:
        frame = frames[-1]
        rest, left, hs = frame
        need = best_size - len(chosen) + 1  # classes a better clique needs
        count = rest.bit_count()
        # one class always suffices for need 1; past that, colour only if
        # the cheap popcount test passes
        if 1 < need <= count and len(hs) < need:
            while left and len(hs) < need:
                hs.append(left.bit_length() - 1)
                cls = left
                while cls:
                    h = cls.bit_length() - 1
                    left ^= one[h]
                    cls &= drop[h]
            frame[1] = left
        low = rest & -rest
        v = low.bit_length() - 1
        if count < need or 1 < need and (len(hs) < need or v > hs[need - 1]):
            frames.pop()
            chosen.pop()
            continue
        frame[0] = rest ^ low
        sub = rest >> (v + 1) & bits
        if sub.bit_count() < need - 1:
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetError("max-ones budget exhausted", nodes)
        chosen.append(chosen[-1] + v + 1)
        if need == 1:
            best_size += 1
            best_ones = tuple(chosen)
        if sub:
            frames.append([sub, sub, []])
        else:
            chosen.pop()
    return best_size, Configuration(n, best_ones)


class ProfileRow(Record):
    n: int
    count: int
    entropy: float
    omega: int
    omega_over_n: Fraction


class LanguageProfile(Record):
    """Per-length word counts, entropy estimates, and max-ones records.

    ``entropy`` is log2(c(n)) / n computed in double precision from the
    exact count; no extrapolation to the true entropy is attempted, the
    trend over the grid is the deliverable.
    """

    spec_digest: str
    rows: tuple


def entropy_profile(view: PSetView, n_grid: Sequence[int],
                    mode: str = "optimized",
                    budget: int = DEFAULT_BUDGET) -> LanguageProfile:
    """Exact counts and entropy estimates over a grid of word lengths.

    In optimized mode the counts share one memo over the ascending grid,
    so ``budget`` caps the nodes expanded over the whole grid; each
    ``max_ones`` call gets its own ``budget``.  Dropping vertex 0 from the
    full mask of length n gives that of n - 1, and full masks always enter
    the memo, so after each n the shared memo and node count are those of
    a standalone ``count_words`` at n: it runs out where that would, with
    the same :class:`BudgetError`.
    """
    grid = list(n_grid)
    for n in grid:
        check_int(n, "grid lengths must be positive integers", 1)
    grid = sorted(set(grid))
    if not grid:
        raise ValidationError("n_grid must be nonempty")
    rows = []
    memo, nodes = {0: 1}, 0
    for n in grid:
        count, nodes = _count_words(view, n, mode, budget, memo, nodes)
        omega, _ = max_ones(view, n, budget=budget)
        rows.append(ProfileRow(n=n, count=count,
                               entropy=math.log2(count) / n,
                               omega=omega,
                               omega_over_n=Fraction(omega, n)))
    return LanguageProfile(spec_digest=view.spec_digest, rows=tuple(rows))


def greedy_point(view: PSetView, horizon: int) -> Configuration:
    """Scan 0..horizon-1, keeping every position compatible with the past.

    The result is always admissible; for sets whose complement contains
    all differences of some shape, it finishes with finitely many 1s.
    """
    check_int(horizon, "horizon must be a non-negative integer", 0)
    if horizon > view.horizon:
        raise ValidationError(
            f"point horizon {horizon} exceeds view horizon {view.horizon}")
    return Configuration(horizon, scan_point(view, horizon))


def scan_point(view: PSetView, horizon: int, keep=None) -> tuple:
    """1-positions of a left-to-right scan over 0..horizon-1.

    Each position legal against the positions kept so far is offered to
    ``keep()`` in increasing order and kept when it returns true (every
    legal position is kept when `keep` is None).  Only legal positions
    are visited: the scan walks the set bits of a candidate mask that
    starts after the last position decided, so each step costs
    O((horizon - pos) / 64) words and the steps grow cheaper as it goes.
    """
    # bit i of legal is position pos + 1 + i; once pos is kept, only the
    # positions pos + 1 + i with i + 1 in P stay legal
    legal = (1 << max(horizon, 0)) - 1
    pos = -1
    ones = []
    while legal:
        step = (legal & -legal).bit_length()
        pos += step
        if keep is None or keep():
            ones.append(pos)
            legal = legal >> step & view.bits
        else:
            legal >>= step
    return tuple(ones)


def find_join_gap(view: PSetView, u: Configuration, v: Configuration,
                  gap_cap: int) -> int | None:
    """Least g in [0, gap_cap] with u 0^g v admissible, or None.

    Within-word admissibility of `u` and `v` is assumed; only the cross
    differences |u| + g + j - i are checked.
    """
    check_int(gap_cap, "gap_cap must be >= 0", 0)
    offsets = {u.length + j - i for i in u.ones for j in v.ones}
    reach = max(offsets, default=0) + gap_cap
    if offsets and reach > view.horizon:
        raise ValidationError("cross differences would exceed the horizon")
    # bit g of bits >> (d - 1) is set iff d + g is in P, cut at reach so
    # that no shift costs O(H); legal keeps the gaps every offset admits
    bits = view.bits & ((1 << reach) - 1)
    legal = (1 << (gap_cap + 1)) - 1
    for d in offsets:
        legal &= bits >> (d - 1)
    return (legal & -legal).bit_length() - 1 if legal else None


class TransitiveGapReport(Record):
    """Joinability of admissible word pairs by zero-gaps.

    A failing pair is evidence against transitivity via zero-filled
    connecting words only; connecting words containing 1s are not
    searched, so failures are not proofs.
    """

    word_len_cap: int
    gap_cap: int
    total_pairs: int
    joinable_pairs: int
    least_failing: tuple | None


def transitive_gap_check(view: PSetView, word_len_cap: int,
                         gap_cap: int) -> TransitiveGapReport:
    """Try to join every ordered pair of short admissible words.

    Pairs range over all nonempty-length admissible words up to
    ``word_len_cap``; each is joined by the least zero-gap in
    [0, gap_cap] if one exists.  Pairs are ordered by (length, ones) and
    the least failing pair, if any, is reported as two word strings.
    """
    check_int(word_len_cap, "word_len_cap must be >= 1", 1)
    check_int(gap_cap, "gap_cap must be >= 0", 0)
    if 2 * word_len_cap + gap_cap > view.horizon:
        raise ValidationError(
            "need 2 * word_len_cap + gap_cap <= horizon")
    # the walk's pre-order is the (length, ones) order
    words = [Configuration(length, tuple(ones))
             for length in range(1, word_len_cap + 1)
             for ones in _cliques(view, length)]
    failing = [(u, v) for u in words for v in words
               if find_join_gap(view, u, v, gap_cap) is None]
    total = len(words) ** 2
    return TransitiveGapReport(
        word_len_cap=word_len_cap, gap_cap=gap_cap, total_pairs=total,
        joinable_pairs=total - len(failing),
        least_failing=tuple(w.word() for w in failing[0]) if failing else None)
