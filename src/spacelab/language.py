"""Exact language enumeration for spacing shifts.

A length-n word is admissible when every pairwise difference of its
1-positions is a member of P; equivalently its 1-positions form a clique
in the distance graph on {0..n-1} with edges |i-j| in P.  The language is
hereditary (delete any 1 and the word stays admissible), which both
counting routes below exploit only through the definition itself.

Two counters are kept deliberately separate: a naive oracle that walks
all 2^n subsets and checks pairwise differences directly, and an
optimized clique counter over bitmask adjacency rows.  Tests require the
two to agree exactly.
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


def _adjacency_rows(view: PSetView, n: int) -> list:
    # rows[v] = positions j > v with j - v in P, as a bitmask
    full = (1 << n) - 1
    return [view.after(v) & full for v in range(n)]


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


def _count_cliques(rows: list, full: int, budget: int) -> int:
    # f(allowed) = cliques inside `allowed`, chosen in increasing vertex
    # order; memoized on the allowed mask, budget counts cache misses
    memo = {}
    nodes = 0

    def rec(allowed: int) -> int:
        nonlocal nodes
        hit = memo.get(allowed)
        if hit is not None:
            return hit
        nodes += 1
        if nodes > budget:
            raise BudgetError("word-count budget exhausted", nodes)
        total = 1
        rest = allowed
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            total += rec(allowed & rows[v])
        memo[allowed] = total
        return total

    return rec(full)


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
        directly; ``optimized`` counts cliques over adjacency rows.
        The two must agree exactly.
    budget : int
        Node cap for optimized mode.  Exhaustion raises
        :class:`BudgetError`; a partial count is never returned.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValidationError("word length must be a non-negative integer")
    if n > view.horizon:
        raise ValidationError(
            f"word length {n} exceeds horizon {view.horizon}")
    if mode == "naive":
        if n > NAIVE_MAX_N:
            raise ValidationError(
                f"naive mode is capped at n <= {NAIVE_MAX_N}")
        return _count_naive(view, n)
    if mode == "optimized":
        if n == 0:
            return 1
        return _count_cliques(_adjacency_rows(view, n), (1 << n) - 1, budget)
    raise ValidationError(f"unknown mode {mode!r}")


def _color_bound(allowed: int, adj: list) -> int:
    # greedy coloring of the allowed subgraph; class count bounds the
    # largest clique from above
    classes = []
    rest = allowed
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        rest ^= low
        for i, cls in enumerate(classes):
            if not cls & adj[v]:
                classes[i] = cls | low
                break
        else:
            classes.append(low)
    return len(classes)


def max_ones(view: PSetView, n: int,
             budget: int = DEFAULT_BUDGET) -> Tuple[int, Configuration]:
    """Largest number of 1s in an admissible length-n word, with witness.

    Returns the clique number of the distance graph together with the
    lexicographically least witness configuration.  The search explores
    vertices in increasing order, so the first maximum clique it reaches
    is the lexicographic minimum; a greedy coloring bound prunes branches
    that cannot beat the best size found so far.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValidationError("window length must be a non-negative integer")
    if n > view.horizon:
        raise ValidationError(f"window length {n} exceeds horizon {view.horizon}")
    if n == 0:
        return 0, Configuration(0, ())

    rows = _adjacency_rows(view, n)
    adj = list(rows)
    for v in range(n):
        rest = rows[v]
        while rest:
            low = rest & -rest
            adj[low.bit_length() - 1] |= 1 << v
            rest ^= low

    best_size = 0
    best_ones: tuple = ()
    nodes = 0

    def expand(chosen: list, allowed: int) -> None:
        nonlocal best_size, best_ones, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetError("max-ones budget exhausted", nodes)
        if len(chosen) > best_size:
            best_size = len(chosen)
            best_ones = tuple(chosen)
        if not allowed:
            return
        if len(chosen) + _color_bound(allowed, adj) <= best_size:
            return
        rest = allowed
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            if len(chosen) + 1 + (allowed & rows[v]).bit_count() <= best_size:
                continue
            chosen.append(v)
            expand(chosen, allowed & rows[v])
            chosen.pop()

    expand([], (1 << n) - 1)
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
    """Exact counts and entropy estimates over a grid of word lengths."""
    grid = sorted(set(n_grid))
    if not grid:
        raise ValidationError("n_grid must be nonempty")
    for n in grid:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValidationError("grid lengths must be positive integers")
    rows = []
    for n in grid:
        count = count_words(view, n, mode=mode, budget=budget)
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
