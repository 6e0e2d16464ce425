"""Searches for the finite combinatorial certificates behind the theory.

Every search returns the lexicographically least witness inside its
bound, re-verified by direct arithmetic before being handed back, or
None when no witness exists within the bound.  A None is always a
bounded-search outcome, never a proof of non-existence: the objects
certified here (difference chains, IP generators, IP-IP generators) are
finite stand-ins for infinite structures.

Searches carry an explicit node budget; running out raises
:class:`BudgetError`, which is distinct from "no witness in bound".
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations, pairwise

from .errors import (DEFAULT_BUDGET, BudgetError, Record, ValidationError,
                     check_int, replace)
from .psets import Bohr, FiniteSums, PSetView, _cliques, build_pset, member

_PAYLOAD_KEYS = {
    "delta_chain": "S",
    "ip_generator": "A",
    "ip_ip_generator": "A",
    "intersective_hit": "value",
}


class StructureWitness(Record):
    """A concrete finite certificate, checkable by direct arithmetic.

    ``payload`` is a strictly increasing tuple for chain/generator kinds
    and a single integer for hits.  ``verified`` is set only after the
    certificate has been re-checked against the view, independently of
    the search that produced it.
    """

    kind: str
    payload: object
    verified: bool
    depth: int | None = None
    bound: int | None = None
    pair: tuple | None = None

    def to_json(self) -> dict:
        key = _PAYLOAD_KEYS[self.kind]
        payload = (list(self.payload) if isinstance(self.payload, tuple)
                   else self.payload)
        out = {"kind": self.kind, key: payload, "verified": self.verified}
        if self.depth is not None:
            out["depth"] = self.depth
        if self.bound is not None:
            out["bound"] = self.bound
        if self.pair is not None:
            out["pair"] = list(self.pair)
        return out


def witness_from_json(obj: dict) -> StructureWitness:
    """Rebuild a witness from its JSON form (inverse of ``to_json``)."""
    kind = obj.get("kind")
    if kind not in _PAYLOAD_KEYS:
        raise ValidationError(f"unknown witness kind {kind!r}")
    payload = obj[_PAYLOAD_KEYS[kind]]
    if isinstance(payload, list):
        payload = tuple(payload)
    pair = obj.get("pair")
    return StructureWitness(kind=kind, payload=payload,
                            verified=bool(obj.get("verified")),
                            depth=obj.get("depth"), bound=obj.get("bound"),
                            pair=tuple(pair) if pair is not None else None)


def finite_sums(values: Sequence[int]) -> list:
    """All distinct nonempty subset sums, sorted."""
    sums: set = set()
    for v in values:
        sums |= {s + v for s in (0, *sums)}  # v alone, or v added
    return sorted(sums)


def _differences_in(values: object, view: PSetView) -> bool:
    # whether big - small is in P for every two entries of `values`,
    # taken in the order given
    if (values and isinstance(values, tuple)
            and all(isinstance(v, int) for v in values)
            and all(a < b for a, b in pairwise(values))
            and values[-1] - values[0] <= view.horizon):
        return view.admits(values)
    return all(member(view, big - small)
               for small, big in combinations(values, 2))


def verify_witness(witness: StructureWitness, view: PSetView) -> bool:
    """Re-check a certificate by direct membership arithmetic.

    A generator a_1..a_k of integers >= 1 with sum S <= H is checked by
    one mask inside P.  For IP it holds the finite sums, one shift-or per
    a_i as :class:`~spacelab.psets.FiniteSums` builds them.  For IP-IP it
    holds the positive differences u - v of finite sums, which are the
    positive signed sums d = Σ e_i a_i (e_i in {-1, 0, 1}) but S: u - v
    has e = 1 on U - V and -1 on V - U, and is S only if V is empty;
    conversely, U = {e = 1} and V = {e = -1} give d if some e_i = -1,
    and else some e_j = 0 (as d < S), and V = {j}, U = {e = 1} + {j} do.

    Other generators take the sums of :func:`finite_sums`; :func:`member`,
    which raises :class:`ValidationError` outside [1..H], is asked of
    each IP sum.  A delta chain, or IP-IP sums, forming a strictly
    increasing tuple of integers spanning at most H go to
    :meth:`PSetView.admits`, any other to ``member`` pair by pair.
    """
    kind = witness.kind
    if kind == "delta_chain":
        return _differences_in(witness.payload, view)
    if kind in ("ip_generator", "ip_ip_generator"):
        gens = witness.payload
        if (all(isinstance(g, int) and g >= 1 for g in gens)
                and (total := sum(gens)) <= view.horizon):
            if kind == "ip_generator":
                return not FiniteSums(gens)._bits(view.horizon) & ~view.bits
            signed = 1 << total
            for g in gens:
                signed |= signed << g | signed >> g
            # bit S + d of signed marks d; bit d - 1 of diffs, for 0 < d < S
            diffs = signed >> (total + 1) & ((1 << total) - 1) >> 1
            return not diffs & ~view.bits
        if kind == "ip_generator":
            return all(member(view, s) for s in finite_sums(gens))
        return _differences_in(tuple(finite_sums(gens)), view)
    if kind == "intersective_hit":
        if witness.pair is None:
            return False
        a, b = witness.pair
        return member(view, witness.payload) and b - a == witness.payload
    raise ValidationError(f"unknown witness kind {kind!r}")


def _certified(view: PSetView, **fields) -> StructureWitness:
    # verified is set from an independent re-check of the finished witness
    witness = StructureWitness(verified=False, **fields)
    return replace(witness, verified=verify_witness(witness, view))


def find_delta_chain(view: PSetView, depth: int, search_bound: int,
                     budget: int = DEFAULT_BUDGET) -> StructureWitness | None:
    """Lexicographically least s_1 < ... < s_depth with all differences in P.

    Returns None when no chain of this depth fits inside the bound; that
    is not evidence that no longer chain exists beyond it.  The walk
    :func:`~spacelab.psets._cliques` meets chains in lexicographic
    order, so the first complete chain is the least.

    The search is rooted at the chain (1).  Differences do not change
    under translation, so any chain s_1 < ... < s_depth <= bound
    translates to 1, s_2 - s_1 + 1, ..., which is smaller and still
    fits: the least chain starts at 1, or no chain exists.  Each chain
    walked is one node, the root being node 1, as in
    :func:`~spacelab.language.max_ones`; exhaustion raises
    :class:`BudgetError` with ``nodes == budget + 1``.
    """
    check_int(depth, "delta chains need depth >= 2", 2)
    _check_bound(view, search_bound)
    check_int(budget, "budget must be an integer")
    for nodes, chain in enumerate(_cliques(view, search_bound + 1, (1,)), 1):
        if nodes > budget:
            raise BudgetError("delta-chain budget exhausted", nodes)
        if len(chain) == depth:
            return _certified(view, kind="delta_chain", payload=tuple(chain),
                              depth=depth, bound=search_bound)
    return None


def _check_bound(view: PSetView, search_bound: int) -> None:
    check_int(search_bound, "search bound must be a positive integer", 1)
    if search_bound > view.horizon:
        raise ValidationError(
            f"search bound {search_bound} exceeds horizon {view.horizon}")


def _find_generator(view: PSetView, depth: int, search_bound: int,
                    budget: int, kind: str) -> StructureWitness | None:
    # lexicographic DFS over increasing tuples with sum <= bound on a stack
    # of mask frames (value v is bit W + v): with F = FS(chosen) and
    # G = F + {0}, a frame holds pos = G, and for IP-IP also neg = -G and
    # diffs = F - F.  Each positive value a newly requires must be in P:
    # g + a (IP); +-(a+g-f) and +-f (IP-IP: with F - F, checked before,
    # all new differences)
    pairwise = kind == "ip_ip_generator"
    name = "IP-IP" if pairwise else "IP"
    check_int(depth, f"{name} generators need depth >= 1", 1)
    _check_bound(view, search_bound)
    check_int(budget, "budget must be an integer")
    W = search_bound
    zero = 1 << W
    illegal = ~view.bits
    nodes = 0
    chosen: list = []
    frames = [(zero, zero, 0) if pairwise else (zero,)]
    a = 1  # next candidate at the current level
    while True:
        pos = frames[-1][0]
        total = pos.bit_length() - 1 - W  # max(G) = sum(chosen)
        rest = depth - len(chosen)
        # the least completion a, a + 1, ..., a + rest - 1 must fit
        if total + rest * a + rest * (rest - 1) // 2 > search_bound:
            if not chosen:
                return None
            frames.pop()
            a = chosen.pop() + 1
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetError("generator budget exhausted", nodes)
        if pairwise:
            _, neg, diffs = frames[-1]
            f_pos, f_neg = pos ^ zero, neg ^ zero
            new = (diffs << a | diffs >> a | f_neg << a | f_pos >> a
                   | f_pos | f_neg)
        else:
            new = pos << a
        if (new >> (W + 1)) & illegal:
            a += 1
            continue
        chosen.append(a)
        if len(chosen) == depth:
            return _certified(view, kind=kind, payload=tuple(chosen),
                              depth=depth, bound=search_bound)
        frames.append((pos | pos << a, neg | neg >> a, diffs | new | zero)
                      if pairwise else (pos | pos << a,))
        a += 1


def find_ip_generator(view: PSetView, depth: int, search_bound: int,
                      budget: int = DEFAULT_BUDGET) -> StructureWitness | None:
    """Least a_1 < ... < a_depth with every nonempty subset sum in P.

    The bound caps max(FS(A)) = sum(A); every intermediate sum is then
    inside the horizon automatically.

    One node is one candidate a tried as the next element: at each level
    every a from the previous element + 1 (or 1) upward is tried in
    increasing order while the least completion a, a + 1, ... still fits
    the bound.  The distinct sums are kept as a bitmask, so a node costs
    O(bound / 64) word operations and the search holds one mask of
    O(bound) bits per level.  Exhaustion raises :class:`BudgetError`
    with ``nodes == budget + 1``.
    """
    return _find_generator(view, depth, search_bound, budget, "ip_generator")


def find_ip_ip_generator(view: PSetView, depth: int, search_bound: int,
                         budget: int = DEFAULT_BUDGET) -> StructureWitness | None:
    """Least A with every difference of finite sums u - v > 0 in P.

    The sums themselves need not be members, only their differences; a
    depth-1 generator is vacuous (FS has a single element) and returns
    (1,) whenever the bound admits it.

    Nodes, the budget rule and the cost of O(bound / 64) word
    operations per node are those of :func:`find_ip_generator`; the
    search holds three masks of O(bound) bits per level (the sums, their
    negatives and their differences).
    """
    return _find_generator(view, depth, search_bound, budget,
                           "ip_ip_generator")


class SyndeticGapReport(Record):
    """Lengths of the gaps of A inside [1..H].

    ``interior_gap`` is the largest maximal run of consecutive
    non-members that is bounded by members (or by the left edge of N,
    which censors nothing); the run touching the right edge is reported
    separately as ``censored_tail`` because the horizon truncates it.
    """

    interior_gap: int
    censored_tail: int


def syndetic_gap(view: PSetView) -> SyndeticGapReport | None:
    """Gap profile of the members, or None when A is empty on [1..H]."""
    if not view.bits:
        return None
    table = view.table
    first = table.index(1)
    last = table.rindex(1)
    # the stretch first..last starts and ends with a member, so it
    # splits into exactly the interior runs of non-members
    runs = table[first:last + 1].split(b"\1")
    interior = max(first - 1, max(map(len, runs)))
    return SyndeticGapReport(interior_gap=interior,
                             censored_tail=view.horizon - last)


def thick_run(view: PSetView) -> int:
    """Length of the longest run of consecutive members in [1..H]."""
    return max(map(len, view.table[1:].split(b"\0")))


def intersective_refute(e_view: PSetView,
                        a_view: PSetView) -> StructureWitness | None:
    """Least e in E intersect (A - A) within the horizon, or None.

    A None is refutation evidence that A - A avoids E up to H.  Hits are
    returned with the least witnessing pair (a, b), b - a = e, and
    re-verified.  The members e of E are tried in increasing order, each
    with one shift-and-mask of A, so the worst case (no hit) costs
    O(|E| * H / 64) word operations and a hit among the first few
    members of E costs a few masks.
    """
    if e_view.horizon != a_view.horizon:
        raise ValidationError("E and A must share a horizon")
    horizon = e_view.horizon
    a_bits = a_view.bits
    rest = e_view.bits
    while rest:
        low = rest & -rest
        e = low.bit_length()
        # bit a-1 is set iff a and a + e are both in A
        both = a_bits & (a_bits >> e)
        if both:
            break
        rest ^= low
    else:
        return None
    a = (both & -both).bit_length()
    pair = (a, a + e)
    witness = _certified(e_view, kind="intersective_hit", payload=e,
                         bound=horizon, pair=pair)
    in_a = member(a_view, a) and member(a_view, a + e)
    return replace(witness, verified=witness.verified and in_a)


class BohrAvoidanceReport(Record):
    """Finite-horizon comparison of P against one candidate Bohr set.

    ``contained`` says whether every Bohr member up to the horizon lies
    in P; ``least_missing`` is the first one that does not.  Neither
    certifies anything beyond the horizon.
    """

    alpha: float
    interval: tuple
    bohr_size: int
    in_p: int
    least_missing: int | None
    contained: bool


def check_bohr_avoidance(view: PSetView, alpha: float,
                         interval: tuple) -> BohrAvoidanceReport:
    """Check whether P contains the candidate Bohr set up to the horizon."""
    bohr_bits = build_pset(Bohr(alpha, interval), view.horizon).bits
    missing = bohr_bits & ~view.bits
    least = (missing & -missing).bit_length() if missing else None
    return BohrAvoidanceReport(
        alpha=float(alpha), interval=tuple(float(x) for x in interval),
        bohr_size=bohr_bits.bit_count(),
        in_p=(bohr_bits & view.bits).bit_count(),
        least_missing=least, contained=not missing)
