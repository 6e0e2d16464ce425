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
        optional = {"depth": self.depth, "bound": self.bound,
                    "pair": self.pair and list(self.pair)}
        out.update((k, v) for k, v in optional.items() if v is not None)
        return out


def witness_from_json(obj: dict) -> StructureWitness:
    """Rebuild a witness from its JSON form (inverse of ``to_json``)."""
    if not isinstance(obj, dict):
        raise ValidationError(f"a witness is a JSON object, not {obj!r}")
    kind = obj.get("kind")
    if kind not in _PAYLOAD_KEYS:
        raise ValidationError(f"unknown witness kind {kind!r}")
    key, pair = _PAYLOAD_KEYS[kind], obj.get("pair")
    if key not in obj or not isinstance(pair, (list, type(None))):
        raise ValidationError(f"malformed {kind} witness JSON: {obj!r}")
    payload = obj[key]
    if isinstance(payload, list):
        payload = tuple(payload)
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
    kind, payload, pair = witness.kind, witness.payload, witness.pair
    if kind not in _PAYLOAD_KEYS:
        raise ValidationError(f"unknown witness kind {kind!r}")
    if kind == "intersective_hit":
        if pair is None:
            return False
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(v, int) for v in pair)):
            raise ValidationError(f"a pair is two integers, not {pair!r}")
        return member(view, payload) and pair[1] - pair[0] == payload
    if not (isinstance(payload, (list, tuple))
            and all(isinstance(g, (int, float)) for g in payload)):
        raise ValidationError(f"{kind} {payload!r}: not a list of numbers")
    if kind == "delta_chain":
        return _differences_in(payload, view)
    if (all(isinstance(g, int) and g >= 1 for g in payload)
            and (total := sum(payload)) <= view.horizon):
        if kind == "ip_generator":
            return not FiniteSums(payload)._bits(view.horizon) & ~view.bits
        signed = 1 << total
        for g in payload:
            signed |= signed << g | signed >> g
        # bit S + d of signed marks d; bit d - 1 of diffs, for 0 < d < S
        diffs = signed >> (total + 1) & ((1 << total) - 1) >> 1
        return not diffs & ~view.bits
    if kind == "ip_generator":
        return all(member(view, s) for s in finite_sums(payload))
    return _differences_in(tuple(finite_sums(payload)), view)


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
    _check_search(view, search_bound, budget)
    for nodes, chain in enumerate(_cliques(view, search_bound + 1, (1,)), 1):
        if nodes > budget:
            raise BudgetError("delta-chain budget exhausted", nodes)
        if len(chain) == depth:
            return _certified(view, kind="delta_chain", payload=tuple(chain),
                              depth=depth, bound=search_bound)
    return None


def _check_search(view: PSetView, search_bound: int, budget: int) -> None:
    check_int(search_bound, "search bound must be a positive integer", 1)
    if search_bound > view.horizon:
        raise ValidationError(
            f"search bound {search_bound} exceeds horizon {view.horizon}")
    check_int(budget, "budget must be an integer")


def _find_generator(view: PSetView, depth: int, search_bound: int,
                    budget: int, kind: str) -> StructureWitness | None:
    # lexicographic DFS over increasing tuples with sum <= bound on a stack
    # of one mask per level (value v is bit W + v): with G = FS(chosen) +
    # {0}, IP keeps G (W = 0) and IP-IP the signed sums G - G (W = bound),
    # whose positive part but the full sum S holds the differences of
    # finite sums (proof in verify_witness).  The child's positive part,
    # less S + a for IP-IP, must lie in P
    pairwise = kind == "ip_ip_generator"
    name = "IP-IP" if pairwise else "IP"
    check_int(depth, f"{name} generators need depth >= 1", 1)
    _check_search(view, search_bound, budget)
    W = search_bound if pairwise else 0
    illegal = ~view.bits
    nodes = 0
    chosen: list = []
    masks = [1 << W]
    a = 1  # next candidate at the current level
    while True:
        mask = masks[-1]
        total = mask.bit_length() - 1 - W  # max(G) = sum(chosen)
        rest = depth - len(chosen)
        # the least completion a, a + 1, ..., a + rest - 1 must fit
        if total + rest * a + rest * (rest - 1) // 2 > search_bound:
            if not chosen:
                return None
            masks.pop()
            a = chosen.pop() + 1
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetError("generator budget exhausted", nodes)
        child = mask | mask << a | (mask >> a if pairwise else 0)
        # bit v - 1 of the positive part is v; S + a is its top bit
        top = 1 << (total + a - 1) if pairwise else 0
        if (child >> (W + 1) ^ top) & illegal:
            a += 1
            continue
        chosen.append(a)
        if len(chosen) == depth:
            return _certified(view, kind=kind, payload=tuple(chosen),
                              depth=depth, bound=search_bound)
        masks.append(child)
        a += 1


def find_ip_generator(view: PSetView, depth: int, search_bound: int,
                      budget: int = DEFAULT_BUDGET) -> StructureWitness | None:
    """Least a_1 < ... < a_depth with every nonempty subset sum in P.

    The bound caps max(FS(A)) = sum(A); every intermediate sum is then
    inside the horizon automatically.

    One node is one candidate a tried as the next element: at each level
    every a from the previous element + 1 (or 1) upward is tried in
    increasing order while the least completion a, a + 1, ... still fits
    the bound.  The search keeps one mask per level, the finite sums of
    the chosen prefix, so a node costs O(bound / 64) word operations and
    each level holds O(bound) bits.  Exhaustion raises
    :class:`BudgetError` with ``nodes == budget + 1``.
    """
    return _find_generator(view, depth, search_bound, budget, "ip_generator")


def find_ip_ip_generator(view: PSetView, depth: int, search_bound: int,
                         budget: int = DEFAULT_BUDGET) -> StructureWitness | None:
    """Least A with every difference of finite sums u - v > 0 in P.

    The sums themselves need not be members, only their differences; a
    depth-1 generator is vacuous (FS has a single element) and returns
    (1,) whenever the bound admits it.

    Nodes, the budget rule and the cost per node are those of
    :func:`find_ip_generator`, and so is one mask per level: here the
    signed sums of the prefix, whose positive part but the full sum is
    the set of differences of finite sums (see :func:`verify_witness`).
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
    # the digits run from the last member down to 1: split on "1", they
    # give the interior runs of non-members, the gap before the first last
    digits = format(view.bits, "b")
    return SyndeticGapReport(interior_gap=max(map(len, digits.split("1"))),
                             censored_tail=view.horizon - len(digits))


def thick_run(view: PSetView) -> int:
    """Length of the longest run of consecutive members in [1..H]."""
    return max(map(len, format(view.bits, "b").split("0")))


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
                         bound=e_view.horizon, pair=pair)
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
