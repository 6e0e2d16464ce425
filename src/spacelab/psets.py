"""Composable descriptions of subsets of N and their finite materializations.

A description is a small immutable tree: arithmetic progressions,
squares, explicit lists, finite subset sums, difference sets, Bohr sets,
and boolean combinations of those.  Each kind states its tagged-JSON
keys once, in ``_wire``, and construction, parsing and serialization
read them there.  Trees validate with a path to the offending node, and
materialize over a horizon [1..H] as an integer bitmask (bit n-1 set iff
n is a member), with a byte table alongside for constant-time lookups.
Setting one bit of an H-bit int costs O(H / 64), so no builder does:
:func:`_mask_from` packs a few members (squares, explicit lists,
differences) into H / 8 bytes read as an int once, multiples repeat one
period block of lcm(k, 8) bits as bytes, Bohr sets fill a byte per
position by one strided slice per lap of a rotation, about 2√H of them,
and convert the flags once, and finite sums grow by one shift-or per
generator.  A view tests a whole set of positions against P in one
place, :meth:`PSetView.admits`, and :func:`_cliques` walks all such sets
in lexicographic order for the delta-chain search and the words of the
transitivity check; both, like ``max_ones`` and ``scan_point``, keep
masks relative to the last position chosen, bit i being the position
i + 1 past it.  ``max_ones`` (colour bounds), the word counter (a
memo), its naive oracle (independent) and ``scan_point`` (one path) keep
their own loops.  Densities are exact rationals, built on demand from
stored integer prefix counts, and their extremes are found among the run
boundaries of P by integer cross-multiplication.

Conventions: N starts at 1.  Word positions elsewhere in the package are
0-based; the difference of two positions is the 1-based number looked up
here.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import (accumulate, chain, combinations, compress, islice,
                       pairwise)
from math import ceil, floor, isqrt, lcm
from operator import gt, lt, sub

from .errors import Record, SpecError, ValidationError, check_int


def _child(path: str, key: object) -> str:
    return f"{path}/{key}" if path else str(key)


def _check_increasing(values: object, path: str, min_len: int) -> None:
    if not isinstance(values, (list, tuple)):
        raise SpecError("expected a list of integers", path)
    if len(values) < min_len:
        raise SpecError(f"need at least {min_len} element(s)", path)
    prev = 0
    for i, v in enumerate(values):
        if not isinstance(v, int) or isinstance(v, bool):
            raise SpecError("elements must be integers", _child(path, i))
        if v <= prev:
            raise SpecError("elements must be >= 1 and strictly increasing",
                            _child(path, i))
        prev = v


def _tuple(value: object) -> object:
    # JSON scalars, strings and objects stay as given, so that validate
    # can name them instead of tuple() failing or splitting them
    if isinstance(value, (str, dict)) or not hasattr(value, "__iter__"):
        return value
    return tuple(value)


def _mask_from(values, horizon: int) -> int:
    # bit v - 1 of an H/8-byte little-endian buffer marks each v in
    # [1..horizon]; OR-ing bits into an int one by one costs O(H / 64) each
    packed = bytearray((horizon + 7) // 8)
    for v in values:
        if 1 <= v <= horizon:
            v -= 1
            packed[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(packed, "little")


class PSetSpec(Record):
    """Abstract base of all set descriptions.

    Concrete subclasses are frozen records (see
    :class:`~spacelab.errors.Record`) that declare their wire format
    once, in ``_wire`` (JSON key -> field, in JSON order), for
    construction, :meth:`to_json` and :func:`parse_spec` to read.  Two
    descriptions compare equal iff their JSON forms do, and :meth:`digest`
    is a stable content hash of that JSON.
    """

    kind = "abstract"
    _wire = {}

    def __post_init__(self):
        # list arguments are kept as tuples, so equal specs hash equal
        for field in self._wire.values():
            object.__setattr__(self, field, _tuple(getattr(self, field)))

    def validate(self, path: str = "") -> None:
        """Raise SpecError naming the first bad node under `path`; a kind
        without fields has nothing to check."""

    def to_json(self) -> dict:
        obj = {"type": self.kind}
        for key, field in self._wire.items():
            obj[key] = _encode(getattr(self, field))
        return obj

    def _bits(self, horizon: int) -> int:
        raise NotImplementedError

    def digest(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _encode(value: object) -> object:
    if isinstance(value, PSetSpec):
        return value.to_json()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


class _IncreasingList(PSetSpec):
    """A kind given by one strictly increasing list of integers."""

    _min_len = 1

    @property
    def _values(self) -> tuple:
        (field,) = self._wire.values()
        return getattr(self, field)

    def validate(self, path: str = "") -> None:
        (key,) = self._wire
        _check_increasing(self._values, _child(path, key), self._min_len)


class Explicit(_IncreasingList):
    """A finite set given by its sorted element list (may be empty)."""

    elems: tuple

    kind = "explicit"
    _wire = {"elems": "elems"}
    _min_len = 0

    def _bits(self, horizon: int) -> int:
        return _mask_from(self.elems, horizon)


class Multiples(PSetSpec):
    """kN = {k, 2k, 3k, ...}; Multiples(1) is all of N."""

    k: int

    kind = "multiples"
    _wire = {"k": "k"}

    def validate(self, path: str = "") -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise SpecError("expected an integer", _child(path, "k"))
        if self.k < 1:
            raise SpecError("expected an integer >= 1", _child(path, "k"))

    def _bits(self, horizon: int) -> int:
        # one period block of lcm(k, 8) bits is whole bytes, repeated
        # past the horizon (a longer block is cut to the horizon's bytes)
        period = min(lcm(self.k, 8), (horizon + 7) // 8 * 8)
        block = _mask_from(range(self.k, period + 1, self.k), period)
        return int.from_bytes(block.to_bytes(period // 8, "little")
                              * -(-horizon // period), "little")


class Squares(PSetSpec):
    """The perfect squares {1, 4, 9, ...}."""

    kind = "squares"

    def _bits(self, horizon: int) -> int:
        return _mask_from((r * r for r in range(1, isqrt(horizon) + 1)),
                          horizon)


class FiniteSums(_IncreasingList):
    """All nonempty subset sums of a finite generator list.

    Only finite generator lists are materialized; infinite IP sets are
    searched for elsewhere, never constructed.
    """

    gens: tuple

    kind = "fs"
    _wire = {"gens": "gens"}

    def _bits(self, horizon: int) -> int:
        # bit s is the sum s, bit 0 the empty one; the gens increase
        limit = (1 << (horizon + 1)) - 1
        mask = 1
        for g in self.gens:
            if g > horizon:
                break
            mask = (mask | mask << g) & limit
        return mask >> 1


class _Differences(_IncreasingList):
    """All differences b - a of two members a < b of the list."""

    def _bits(self, horizon: int) -> int:
        return _mask_from({b - a for a, b in combinations(self._values, 2)},
                          horizon)


class DeltaOf(_Differences):
    """All pairwise differences of a strictly increasing sequence."""

    seq: tuple

    kind = "delta"
    _wire = {"seq": "seq"}


class DiffSet(_Differences):
    """{a - a' : a, a' in base, a > a'} for a finite base set."""

    base: tuple

    kind = "diffset"
    _wire = {"set": "base"}


class Bohr(PSetSpec):
    """{n : frac(n * alpha) in (lo, hi)}, decided exactly.

    alpha and both endpoints are read as the decimal rationals that their
    JSON text denotes, so membership involves no floating-point rounding
    and the materialized set is the same on every platform.  The members
    are marked lap by lap: along each class mod a step s <= √H + 1 the
    rotation wraps about 2√H times in all over [1..H], and between two
    wraps the members form one run of the class, set by one slice.
    """

    alpha: float
    interval: tuple

    kind = "bohr"
    _wire = {"alpha": "alpha", "interval": "interval"}

    def validate(self, path: str = "") -> None:
        if not isinstance(self.alpha, (int, float)) or isinstance(self.alpha, bool):
            raise SpecError("alpha must be a number", _child(path, "alpha"))
        if not 0.0 < float(self.alpha) < 1.0:
            raise SpecError("alpha must lie strictly between 0 and 1",
                            _child(path, "alpha"))
        iv = self.interval
        if not isinstance(iv, tuple) or len(iv) != 2 or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in iv):
            raise SpecError("interval must be a pair of numbers",
                            _child(path, "interval"))
        lo, hi = float(iv[0]), float(iv[1])
        if not (0.0 <= lo < hi <= 1.0):
            raise SpecError("interval must satisfy 0 <= lo < hi <= 1",
                            _child(path, "interval"))

    def to_json(self) -> dict:
        # integer inputs are written as JSON floats
        return {"type": "bohr", "alpha": float(self.alpha),
                "interval": [float(self.interval[0]), float(self.interval[1])]}

    def _bits(self, horizon: int) -> int:
        # each number is the decimal rational that its JSON text denotes
        alpha, lo, hi = (Fraction(repr(float(x)))
                         for x in (self.alpha, *self.interval))
        p, q = alpha.numerator, alpha.denominator
        # frac(n * alpha) = r / q with r = n * p mod q; r is an integer,
        # so lo < r / q < hi iff floor(lo * q) < r < ceil(hi * q), and the
        # two integer bounds are computed once from the exact Fractions
        low, high = floor(lo * q), ceil(hi * q)
        flags = bytearray(horizon)
        # along a class n = j, j + s, j + 2s, ... r moves by d = s * p mod q;
        # by Dirichlet some s <= S = isqrt(H) + 1 has min(d, q - d) < q / S,
        # so the classes wrap about s + H * min(d, q - d) / q <= 2 * sqrt(H)
        # times in all, and between two wraps the members are one run
        step = min(range(1, isqrt(horizon) + 2),
                   key=lambda s: min(s * p % q, -s * p % q))
        d = step * p % q
        if 2 * d > q:
            # mirror: (q - r) mod q = n * (q - p) mod q moves by q - d, and
            # low < r < high iff q - high < q - r < q - low (r = 0 is out)
            p, d, low, high = q - p, q - d, q - high, q - low
        for j in range(1, min(step, horizon) + 1):
            r, last = j * p % q, (horizon - j) // step
            if not d:
                # q divides the step: the class is all members or none
                if low < r < high:
                    flags[j - 1::step] = b"\1" * (last + 1)
                continue
            for lap in range((r + last * d) // q + 1):
                # the k-th of the class has r + k * d = lap * q + residue,
                # so on this lap low < residue < high for k in [a..b]
                base = lap * q - r
                a = max(0, -((-base - low - 1) // d))
                b = min(last, (base + high - 1) // d)
                if a <= b:
                    flags[j - 1 + a * step:j + b * step:step] = \
                        b"\1" * (b - a + 1)
        # flag i is 1 iff i + 1 is a member; base 2 has no int digit limit
        return int(flags.translate(bytes.maketrans(b"\0\1", b"01"))[::-1], 2)


class Complement(PSetSpec):
    """N minus another described set, truncated to the horizon."""

    of: PSetSpec

    kind = "complement"
    _wire = {"of": "of"}

    def validate(self, path: str = "") -> None:
        self.of.validate(_child(path, "of"))

    def _bits(self, horizon: int) -> int:
        full = (1 << horizon) - 1
        return full ^ self.of._bits(horizon)


class _Combination(PSetSpec):
    """Shared fields and rules of a boolean combination of parts."""

    parts: tuple

    _wire = {"of": "parts"}

    def validate(self, path: str = "") -> None:
        if not self.parts:
            raise SpecError("need at least 1 part", _child(path, "of"))
        for i, part in enumerate(self.parts):
            part.validate(_child(_child(path, "of"), i))


class Union(_Combination):
    kind = "union"

    def _bits(self, horizon: int) -> int:
        mask = 0
        for part in self.parts:
            mask |= part._bits(horizon)
        return mask


class Intersect(_Combination):
    kind = "intersect"

    def _bits(self, horizon: int) -> int:
        mask = self.parts[0]._bits(horizon)
        for part in self.parts[1:]:
            mask &= part._bits(horizon)
        return mask


def _expect_keys(obj: dict, path: str, keys: set) -> None:
    extra = sorted(set(obj) - keys - {"type"})
    if extra:
        raise SpecError(f"unexpected keys {extra}", path)
    missing = sorted(keys - set(obj))
    if missing:
        raise SpecError(f"missing keys {missing}", path)


# wire tag -> class; the key "of" holds one child spec for the field
# "of" and a list for "parts"
_KINDS = {cls.kind: cls for cls in (
    Explicit, Multiples, Squares, FiniteSums, DeltaOf, DiffSet, Bohr,
    Complement, Union, Intersect)}


# the deepest node a parsed description may have (the root is level 1);
# parsing, validation, materialization and JSON encoding all recurse per
# level, and this keeps each of them far inside Python's default
# recursion limit
MAX_SPEC_DEPTH = 100


def parse_spec(obj: object) -> PSetSpec:
    """Parse the tagged JSON wire format into a description tree.

    Parameters
    ----------
    obj : object
        Decoded JSON value; must be an object with a ``"type"`` tag.

    Returns
    -------
    PSetSpec
        The parsed and validated tree.  Structural problems raise
        :class:`SpecError` naming the offending node by its path from
        `obj` (the root's path is empty); an unknown tag is a hard error,
        and so is nesting deeper than ``MAX_SPEC_DEPTH`` levels.
    """
    return _parse_node(obj, "", 1)


def _parse_node(obj: object, path: str, level: int) -> PSetSpec:
    if level > MAX_SPEC_DEPTH:
        raise SpecError(f"spec nested deeper than {MAX_SPEC_DEPTH} levels",
                        path)
    if not isinstance(obj, dict):
        raise SpecError("spec node must be a JSON object", path)
    if "type" not in obj:
        raise SpecError("missing 'type' tag", path)
    tag = obj["type"]
    if not isinstance(tag, str) or tag not in _KINDS:
        raise SpecError(f"unknown spec type {tag!r}", path)
    cls = _KINDS[tag]
    _expect_keys(obj, path, set(cls._wire))
    fields = {field: obj[key] for key, field in cls._wire.items()}
    of_path = _child(path, "of")
    if "of" in fields:
        fields["of"] = _parse_node(obj["of"], of_path, level + 1)
    if "parts" in fields:
        parts = obj["of"]
        if not isinstance(parts, list) or not parts:
            raise SpecError("'of' must be a nonempty list", of_path)
        fields["parts"] = tuple(
            _parse_node(part, _child(of_path, i), level + 1)
            for i, part in enumerate(parts))
    spec = cls(**fields)
    spec.validate(path)
    return spec


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _flags_from_mask(mask: int, length: int) -> bytes:
    # byte i is 1 iff bit i of mask is set, for i < length; the inverse
    # of the flag conversion that ends Bohr._bits, in O(length)
    digits = format(mask, f"0{length}b")[:-length - 1:-1]
    return digits.encode("ascii").translate(_BIT_BYTES)


class PSetView(Record):
    """Materialized membership of a described set over [1..horizon].

    ``bits`` has bit n-1 set iff n is a member.  Views are immutable and
    a pure function of (spec, horizon); sharing them across workers is
    safe.  Single numbers are looked up in :attr:`table`, and a whole
    set of positions is tested with :meth:`admits`, which walks a legal
    mask from position to position.  Searches over positions read
    ``bits`` cut to their span and keep their own masks relative to the
    last position chosen.
    """

    horizon: int
    bits: int
    spec_digest: str

    @cached_property
    def table(self) -> bytes:
        """Byte lookup table: ``table[n] == 1`` iff n is in P, else 0.

        Its length is horizon + 1; ``table[0]`` is 0 because 0 is not in
        N.  Built once in O(horizon) on first use and cached on the view;
        indexing it costs O(1), where reading one bit of ``bits`` costs
        O(horizon / 64).
        """
        return _flags_from_mask(self.bits << 1, self.horizon + 1)

    def admits(self, positions: Sequence[int]) -> bool:
        """Whether q - p is in P for every two of the increasing
        `positions` p < q, a difference past the horizon counting as
        outside P; walked as :func:`~spacelab.language.scan_point` walks,
        one shift-and-mask of O(span / 64) words and one bit test a step.
        """
        # bit i of legal: the position i past the last one is legal so far
        # (bit 0, the last one, is not); P cut at the span keeps shifts O(span)
        span = positions[-1] - positions[0] if positions else 0
        legal = bits = (self.bits & ((1 << span) - 1)) << 1
        for last, p in pairwise(positions):
            legal >>= p - last
            if not legal & 1:
                return False
            legal &= bits
        return True


def _cliques(view: PSetView, n: int, root: Sequence[int] = ()):
    """Every subset of {0..n-1} with all differences in P that extends
    the admissible, increasing `root` by larger positions, in
    lexicographic (depth-first pre-)order, `root` first.  One list is
    yielded, grown and shrunk in place: callers copy what they keep.
    """
    # masks are relative to the last position chosen, as in admits; a
    # child's are its parent's shifted past it, ANDed with P cut to n - 1
    bits = view.bits & ((1 << n) - 1) >> 1
    clique = list(root)
    last = clique[-1] if clique else -1
    allowed = (1 << (n - 1 - last)) - 1
    for p in root:
        allowed &= bits >> (last - p)
    # masks[i] holds the untried candidates extending clique[:len(root) + i]
    masks = [allowed]
    yield clique
    while masks:
        allowed = masks.pop()
        if allowed:
            low = allowed & -allowed
            step = low.bit_length()
            masks += allowed ^ low, allowed >> step & bits
            clique.append((clique[-1] if clique else -1) + step)
            yield clique
        elif masks:
            clique.pop()


def build_pset(spec: PSetSpec, horizon: int) -> PSetView:
    """Validate `spec` and materialize it over [1..horizon].

    Raises
    ------
    SpecError
        If the description is invalid; the message names the node.
    ValidationError
        If the horizon is not a positive integer, or exceeds
        ``sys.maxsize``, the largest length of the buffers a view is
        built in.
    """
    check_int(horizon, "horizon must be a positive integer", 1)
    if horizon > sys.maxsize:
        raise ValidationError(f"horizon must be at most {sys.maxsize}")
    spec.validate()
    bits = spec._bits(horizon) & ((1 << horizon) - 1)
    return PSetView(horizon=horizon, bits=bits, spec_digest=spec.digest())


def member(view: PSetView, n: int) -> bool:
    """Exact membership of n, valid only inside the horizon.

    Out-of-horizon queries raise instead of returning False: the view
    carries no information beyond [1..H].
    """
    check_int(n, f"membership query {n!r} outside horizon [1..{view.horizon}]",
              1, view.horizon)
    return bool(view.table[n])


def elements(view: PSetView) -> list:
    """All members in increasing order."""
    return list(compress(range(view.horizon + 1), view.table))


class DensityReport(Record):
    """Exact finite-horizon density profile of a set.

    ``prefix_counts`` holds |A intersect [1..n]| for every n up to the
    horizon, as plain ints, stored at the cost of one addition each;
    :attr:`prefix_densities` builds the rationals count/n from them on
    first read, at the cost of one ``Fraction`` (a gcd) each, several
    times the whole report's.  ``lower_est``/``upper_est`` are the
    min/max of the prefix densities over n >= n0 (the cutoff damps
    initial transients and is reported, not hidden); ``banach_profile``
    maps each window length W to the best window density max over m of
    |A intersect (m, m+W]| / W.
    """

    horizon: int
    n0: int
    prefix_counts: tuple
    lower_est: Fraction
    upper_est: Fraction
    banach_profile: tuple

    @cached_property
    def prefix_densities(self) -> tuple:
        """``(n, Fraction(count, n))`` for every n up to the horizon,
        built from ``prefix_counts`` on first read and cached."""
        return tuple((n, Fraction(count, n))
                     for n, count in enumerate(self.prefix_counts, 1))


def _least_extremes(bits: int, counts: tuple, starts: bytes,
                    n0: int) -> list:
    # the least n >= n0 where c(n)/n is least, and where it is greatest.
    # c(n)/n does not fall along a run of members and does not rise along
    # a run of non-members, so the first n to reach the minimum is n0, H
    # or a non-member followed by a member, and the first to reach the
    # maximum is n0, H or a member followed by a non-member.  The former
    # is byte n of starts (a run of members starts at n + 1), the latter
    # bit n - 1 of a run-end mask; c/n beats c'/n' iff
    # better(c * n', c' * n)
    H = len(counts)
    ends = (bits & ~(bits >> 1)) >> (n0 - 1)
    found = []
    for flags, better in ((starts[n0:], lt),
                          (_flags_from_mask(ends, H - n0 + 1), gt)):
        best = n0
        for n in chain(compress(range(n0, H + 1), flags), (H,)):
            if better(counts[n - 1] * best, counts[best - 1] * n):
                best = n
        found.append(best)
    return found


def _max_window_count(counts: tuple, starts: bytes, before: list,
                      width: int) -> int:
    # a window (m, m+width] counts no more than (m+1, m+width+1] when m+1
    # is not a member, and no more than (m-1, m+width-1] when m is a
    # member; so the best is the last window or one that starts where a
    # run of members does, at p, with counts[p + width - 2] - before[i]
    # members for the i-th run
    heads = compress(islice(counts, width - 1, None), starts)
    last = counts[-1] - (counts[-width - 1] if width < len(counts) else 0)
    return max(last, max(map(sub, heads, before), default=0))


def density_report(view: PSetView, window_grid: Sequence[int],
                   n0: int | None = None) -> DensityReport:
    """Compute the four density notions of the profile exactly.

    Runs in C-level passes over the H positions, one for the prefix
    counts and one per window, plus one Python step per boundary of a
    run of members in the tail; no float decides anything.  The H
    prefix counts are stored; their H ``Fraction``s are not built here
    but on the first read of ``prefix_densities``.  The tail extremes
    are found among the run boundaries, comparing count/n as integer
    cross-products, and each window count among the windows that start
    a run of members; each reported extreme is the rational already in
    ``prefix_densities`` (at the least n >= n0 where it occurs), since
    both are ``Fraction(count, n)`` of the same count and n.

    Parameters
    ----------
    view : PSetView
        Materialized set.
    window_grid : sequence of int
        Window lengths for the Banach-density profile; each must lie in
        [1..horizon] and the grid must be nonempty.
    n0 : int, optional
        Tail cutoff for the lower/upper estimates; defaults to H // 2
        (at least 1).
    """
    H = view.horizon
    if n0 is None:
        n0 = max(1, H // 2)
    check_int(n0, f"n0 must lie in [1..{H}]", 1, H)
    grid = list(window_grid)
    if not grid:
        raise ValidationError("window_grid must be nonempty")
    for w in grid:
        check_int(w, f"window length {w!r} outside [1..{H}]", 1, H)

    bits = view.bits
    counts = tuple(accumulate(view.table[1:]))
    # byte p - 1 of starts is 1 iff a run of members starts at p, and
    # before holds the members ahead of each run
    starts = _flags_from_mask(bits & ~(bits << 1), H)
    lo_n, hi_n = _least_extremes(bits, counts, starts, n0)
    before = list(compress(chain((0,), counts), starts))
    banach = tuple(
        (w, Fraction(_max_window_count(counts, starts, before, w), w))
        for w in grid)
    return DensityReport(horizon=H, n0=n0, prefix_counts=counts,
                         lower_est=Fraction(counts[lo_n - 1], lo_n),
                         upper_est=Fraction(counts[hi_n - 1], hi_n),
                         banach_profile=banach)
