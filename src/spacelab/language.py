"""Exact language enumeration for spacing shifts.

A length-n word is admissible when every pairwise difference of its
1-positions is a member of P; equivalently its 1-positions form a clique
in the distance graph on {0..n-1} with edges |i-j| in P.  That graph is
invariant under translation and under reflection i -> n-1-i, which the
searches below exploit.

Two counters are kept deliberately separate: a naive oracle that walks
all 2^n subsets and checks pairwise differences directly, and a clique
counter whose memo is keyed on candidate masks up to translation and
reflection, so that translates and mirror images share one entry.  Tests
require the two to agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import BudgetError, ValidationError
from .psets import PSetView

DEFAULT_BUDGET = 10_000_000

NAIVE_MAX_N = 24


@dataclass(frozen=True)
class Configuration:
    """A finite 0/1 word given by its length and sorted 1-positions."""

    length: int
    ones: tuple

    def __post_init__(self):
        object.__setattr__(self, "ones", tuple(self.ones))
        if self.length < 0:
            raise ValidationError("configuration length must be >= 0")
        prev = -1
        for p in self.ones:
            if not isinstance(p, int) or isinstance(p, bool) or p <= prev:
                raise ValidationError(
                    "ones must be strictly increasing positions")
            prev = p
        if self.ones and self.ones[-1] >= self.length:
            raise ValidationError("ones must lie inside [0, length)")

    def ones_mask(self) -> int:
        mask = 0
        for p in self.ones:
            mask |= 1 << p
        return mask

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
        if length < self.length:
            raise ValidationError("cannot pad to a shorter length")
        return Configuration(length, self.ones)


def is_admissible(config: Configuration, view: PSetView) -> bool:
    """Whether every pairwise difference of 1-positions lies in P.

    The configuration must fit inside the view's horizon so that every
    difference can be looked up; longer inputs raise.
    """
    if config.length > view.horizon:
        raise ValidationError(
            f"configuration length {config.length} exceeds horizon {view.horizon}")
    # bit d-1 of ones_mask >> (p + 1) is set iff p + d is a 1-position
    ones_mask = config.ones_mask()
    not_p = ~view.bits
    return not any((ones_mask >> (p + 1)) & not_p for p in config.ones)


def _count_naive(view: PSetView, n: int) -> int:
    allowed_diffs = {d for d in range(1, n) if view.table[d]}
    total = 0
    for mask in range(1 << n):
        ones = []
        rest = mask
        ok = True
        while rest:
            low = rest & -rest
            pos = low.bit_length() - 1
            for prev in ones:
                if pos - prev not in allowed_diffs:
                    ok = False
                    break
            if not ok:
                break
            ones.append(pos)
            rest ^= low
        if ok:
            total += 1
    return total


def _count_cliques(bits: int, n: int, budget: int, memo: dict) -> int:
    # f(A) = cliques inside the candidate mask A, the empty one included,
    # depends only on A up to translation and reflection (the graph is
    # invariant under both), so the memo is keyed on the smaller of A
    # shifted down to bit 0 and its mirror over its own span, and that
    # representative is the one expanded.  Split on its lowest vertex 0:
    # f(A) = f(A - {0}) + f((A >> 1) & bits), each side shifted down
    # again.  A state carries its mirror M, so no mask is reversed: with
    # h the top bit of A, the mirror of A - {0} is M - {h}, and that of
    # the neighbours of 0 is M & rrow[h], shifted down.  The seeded
    # memo[0] == 1 is not a node; later entries are.
    root = (1 << n) - 1
    if root in memo:
        return memo[root]
    # rev has bit n - d set iff d in P (0 < d < n); rrow[h] has bit i set
    # iff h - i in P, for 0 <= i < h
    rev = int(format(bits & (root >> 1), f"0{n - 1}b")[::-1], 2) << 1
    rrow = [rev >> (n - h) for h in range(n)]
    get = memo.get
    stack = [(root, root)]  # each state as (key, mirror), key <= mirror
    while stack:
        a, m = stack[-1]
        h = a.bit_length() - 1
        rest = a >> 1
        if rest:
            sub = rest >> ((rest & -rest).bit_length() - 1)
            sub_m = m ^ (1 << h)
        else:
            sub = sub_m = 0
        without = get(sub if sub < sub_m else sub_m)
        if without is not None:
            sub = rest & bits
            if sub:
                sub >>= (sub & -sub).bit_length() - 1
                sub_m = m & rrow[h]
                sub_m >>= (sub_m & -sub_m).bit_length() - 1
            else:
                sub_m = 0
            with_0 = get(sub if sub < sub_m else sub_m)
            if with_0 is not None:
                memo[a] = without + with_0
                stack.pop()
                if len(memo) > budget + 1:
                    raise BudgetError("word-count budget exhausted",
                                      len(memo) - 1)
                continue
        stack.append((sub, sub_m) if sub < sub_m else (sub_m, sub))
    return memo[root]


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
        Node cap for optimized mode.  A node is one memo entry added (a
        distinct nonempty candidate mask up to translation and
        reflection), so the budget also caps the memo.  Exhaustion
        raises :class:`BudgetError` with ``nodes == budget + 1``; a
        partial count is never returned.
    """
    return _count_words(view, n, mode, budget, {0: 1})


def _count_words(view: PSetView, n: int, mode: str, budget: int,
                 memo: dict) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValidationError("word length must be a non-negative integer")
    if n > view.horizon:
        raise ValidationError(f"word length {n} exceeds horizon {view.horizon}")
    if mode == "naive":
        if n > NAIVE_MAX_N:
            raise ValidationError(f"naive mode is capped at n <= {NAIVE_MAX_N}")
        return _count_naive(view, n)
    if mode == "optimized":
        return _count_cliques(view.bits, n, budget, memo)
    raise ValidationError(f"unknown mode {mode!r}")


def _colors_exceed(allowed: int, rows: list, limit: int) -> bool:
    # whether greedy coloring of the allowed subgraph in increasing vertex
    # order, one class at a time, needs more than `limit` classes (the
    # class count bounds the largest clique from above)
    while allowed:
        if limit <= 0:
            return True
        limit -= 1
        cls = allowed
        while cls:
            low = cls & -cls
            allowed ^= low
            cls = (cls ^ low) & ~rows[low.bit_length() - 1]
    return False


def max_ones(view: PSetView, n: int,
             budget: int = DEFAULT_BUDGET) -> Tuple[int, Configuration]:
    """Largest number of 1s in an admissible length-n word, with witness.

    Returns the clique number of the distance graph together with the
    lexicographically least witness configuration.  That witness
    contains 0, since shifting a clique down keeps it a clique, so the
    search starts from the clique {0} alone.  It extends cliques by
    vertices in increasing order, so the first maximum clique it reaches
    is the lexicographic minimum; a greedy coloring bound prunes branches
    that cannot beat the best size found so far.

    Each clique extended is one node and the root {0} is node 1;
    exhausting ``budget`` raises :class:`BudgetError` with
    ``nodes == budget + 1``.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValidationError("window length must be a non-negative integer")
    if n > view.horizon:
        raise ValidationError(f"window length {n} exceeds horizon {view.horizon}")
    if n == 0:
        return 0, Configuration(0, ())

    # rows[v] = positions j > v with j - v in P, as a bitmask
    full = (1 << n) - 1
    rows = [view.after(v) & full for v in range(n)]
    best_size, best_ones, nodes = 0, (), 0
    # frame i: the candidates of chosen[:i] and those not yet tried; the
    # root frame, with no vertex chosen, tries 0 alone
    chosen = []
    allowed = [full]
    untried = [1]
    while untried:
        rest = untried[-1]
        # no candidate left can beat the best: each extends by at most rest
        if len(chosen) + rest.bit_count() <= best_size:
            untried.pop()
            allowed.pop()
            del chosen[-1:]  # nothing to drop at the root frame
            continue
        low = rest & -rest
        untried[-1] = rest ^ low
        v = low.bit_length() - 1
        sub = allowed[-1] & rows[v]
        size = len(chosen) + 1
        if size + sub.bit_count() <= best_size:
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetError("max-ones budget exhausted", nodes)
        chosen.append(v)
        if size > best_size:
            best_size = size
            best_ones = tuple(chosen)
        if sub and _colors_exceed(sub, rows, best_size - size):
            allowed.append(sub)
            untried.append(sub)
        else:
            chosen.pop()
    return best_size, Configuration(n, best_ones)


@dataclass(frozen=True)
class ProfileRow:
    n: int
    count: int
    entropy: float
    omega: int
    omega_over_n: Fraction


@dataclass(frozen=True)
class LanguageProfile:
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

    In optimized mode the counts share one memo, so ``budget`` caps the
    memo entries added over the whole grid; each ``max_ones`` call gets
    its own ``budget``.
    """
    grid = sorted(set(n_grid))
    if not grid:
        raise ValidationError("n_grid must be nonempty")
    for n in grid:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValidationError("grid lengths must be positive integers")
    rows = []
    memo = {0: 1}
    for n in grid:
        count = _count_words(view, n, mode, budget, memo)
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
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 0:
        raise ValidationError("horizon must be a non-negative integer")
    if horizon > view.horizon:
        raise ValidationError(
            f"point horizon {horizon} exceeds view horizon {view.horizon}")
    return Configuration(horizon, scan_point(view, horizon))


def scan_point(view: PSetView, horizon: int, keep=None) -> tuple:
    """1-positions of a left-to-right scan over 0..horizon-1.

    Each position legal against the positions kept so far is offered to
    ``keep()`` in increasing order and kept when it returns true (every
    legal position is kept when `keep` is None).  Only legal positions
    are visited: the scan walks the set bits of a candidate mask.
    """
    allowed = (1 << max(horizon, 0)) - 1
    ones = []
    while allowed:
        low = allowed & -allowed
        pos = low.bit_length() - 1
        if keep is None or keep():
            ones.append(pos)
            allowed &= view.after(pos)
        else:
            allowed ^= low
    return tuple(ones)


def find_join_gap(view: PSetView, u: Configuration, v: Configuration,
                  gap_cap: int) -> Optional[int]:
    """Least g in [0, gap_cap] with u 0^g v admissible, or None.

    Within-word admissibility of `u` and `v` is assumed; only the cross
    differences |u| + g + j - i are checked.
    """
    if gap_cap < 0:
        raise ValidationError("gap_cap must be >= 0")
    worst = u.length + gap_cap + max(v.ones, default=0) - min(u.ones, default=0)
    if u.ones and v.ones and worst > view.horizon:
        raise ValidationError("cross differences would exceed the horizon")
    if not u.ones or not v.ones:
        return 0
    table = view.table
    for g in range(gap_cap + 1):
        base = u.length + g
        if all(table[base + j - i] for i in u.ones for j in v.ones):
            return g
    return None


def _admissible_words_up_to(view: PSetView, max_len: int) -> list:
    out = []
    for length in range(1, max_len + 1):
        stack = [((), (1 << length) - 1)]
        while stack:
            ones, allowed = stack.pop()
            out.append(Configuration(length, ones))
            while allowed:
                low = allowed & -allowed
                pos = low.bit_length() - 1
                allowed ^= low
                stack.append((ones + (pos,), allowed & view.after(pos)))
    out.sort(key=lambda c: (c.length, c.ones))
    return out


@dataclass(frozen=True)
class TransitiveGapReport:
    """Joinability of admissible word pairs by zero-gaps.

    A failing pair is evidence against transitivity via zero-filled
    connecting words only; connecting words containing 1s are not
    searched, so failures are not proofs.
    """

    word_len_cap: int
    gap_cap: int
    total_pairs: int
    joinable_pairs: int
    least_failing: Optional[tuple]


def transitive_gap_check(view: PSetView, word_len_cap: int,
                         gap_cap: int) -> TransitiveGapReport:
    """Try to join every ordered pair of short admissible words.

    Pairs range over all nonempty-length admissible words up to
    ``word_len_cap``; each is joined by the least zero-gap in
    [0, gap_cap] if one exists.  Pairs are ordered by (length, ones) and
    the least failing pair, if any, is reported as two word strings.
    """
    if word_len_cap < 1:
        raise ValidationError("word_len_cap must be >= 1")
    if gap_cap < 0:
        raise ValidationError("gap_cap must be >= 0")
    if 2 * word_len_cap + gap_cap > view.horizon:
        raise ValidationError(
            "need 2 * word_len_cap + gap_cap <= horizon")
    words = _admissible_words_up_to(view, word_len_cap)
    total = 0
    joinable = 0
    least_failing = None
    for u in words:
        for v in words:
            total += 1
            if find_join_gap(view, u, v, gap_cap) is not None:
                joinable += 1
            elif least_failing is None:
                least_failing = (u.word(), v.word())
    return TransitiveGapReport(word_len_cap=word_len_cap, gap_cap=gap_cap,
                               total_pairs=total, joinable_pairs=joinable,
                               least_failing=least_failing)
