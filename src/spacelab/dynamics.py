"""Orbit-level probes: cylinder metric, agreement statistics, periodicity.

Points are finite truncations of elements of the shift space, carried as
configurations with a label naming the generator that produced them.
The metric is fixed as d(x, y) = 2^-min{i : x_i != y_i}, so closeness
below 2^-l is exactly agreement on a length-(l+1) block.  Every probe
of two points reads their disagreement mask x XOR y: the least agreeing
block is one substring search over its digits, and an agreement count
is one popcount of that mask OR-ed over l + 1 consecutive shifts, taken
as O(log l) doubling shifts, so all are exact.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from fractions import Fraction

from .errors import DEFAULT_BUDGET, Record, ValidationError, check_int
from .language import (Configuration, greedy_point, is_admissible, max_ones,
                       scan_point)
from .psets import PSetView


class OrbitPoint(Record):
    """A truncated point of the shift space, tagged with how it was built."""

    config: Configuration
    label: str
    admissible: bool
    spec_digest: str


def _wrap(view: PSetView, config: Configuration, label: str) -> OrbitPoint:
    return OrbitPoint(config=config, label=label,
                      admissible=is_admissible(config, view),
                      spec_digest=view.spec_digest)


def zero_point(view: PSetView, horizon: int) -> OrbitPoint:
    return _wrap(view, Configuration(horizon, ()), "zero")


def random_point(view: PSetView, horizon: int, seed: int) -> OrbitPoint:
    """Seeded admissible point: greedy scan that keeps each legal
    position with probability 1/2.  Built for the point name
    ``random:N``, with N the seed, and labelled with it."""
    rng = random.Random(seed)
    ones = scan_point(view, horizon, keep=lambda: rng.random() < 0.5)
    return _wrap(view, Configuration(horizon, ones), f"random:{seed}")


def make_point(view: PSetView, name: str, horizon: int,
               budget: int = DEFAULT_BUDGET) -> OrbitPoint:
    """Build a named generator point.

    Names: ``zero``, ``greedy``, ``maxones:N`` (max-ones witness on a
    length-N window, zero-padded), ``periodic:K`` (the period-K point,
    which must be admissible), ``random:N`` (the random point with seed
    N).  A bare ``random`` names no seed and is rejected.
    """
    check_int(horizon, "horizon must be a non-negative integer", 0)
    if horizon > view.horizon:
        raise ValidationError(
            f"point horizon {horizon} exceeds view horizon {view.horizon}")
    if name == "zero":
        return zero_point(view, horizon)
    if name == "greedy":
        return _wrap(view, greedy_point(view, horizon), "greedy")
    if name.startswith("maxones:"):
        n = _parse_int(name.split(":", 1)[1], "maxones window")
        if n > horizon:
            raise ValidationError("maxones window exceeds point horizon")
        _, witness = max_ones(view, n, budget=budget)
        return _wrap(view, witness.padded(horizon), name)
    if name.startswith("periodic:"):
        k = _parse_int(name.split(":", 1)[1], "period")
        result = periodic_point_check(view, k, horizon)
        if result.point is None:
            raise ValidationError(
                f"no period-{k} point: multiple {result.failing_multiple} missing")
        return result.point
    if name.startswith("random:"):
        return random_point(view, horizon,
                            _parse_int(name.split(":", 1)[1], "seed"))
    if name == "random":
        raise ValidationError("random point generator needs a seed")
    raise ValidationError(f"unknown point generator {name!r}")


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"bad {what}: {text!r}") from None


def named_points(view: PSetView, horizon: int, maxones_n: int = 8,
                 budget: int = DEFAULT_BUDGET) -> list:
    """The deterministic generator triple used by the experiments."""
    return [zero_point(view, horizon),
            make_point(view, "greedy", horizon),
            make_point(view, f"maxones:{maxones_n}", horizon, budget=budget)]


def cylinder_distance_exponent(x: Configuration,
                               y: Configuration) -> int | None:
    """min{i : x_i != y_i}, or None when equal on the whole window.

    The metric value is 2^-exponent; None is the infinity marker (the
    words are indistinguishable at this truncation).
    """
    if x.length != y.length:
        raise ValidationError("words must have equal lengths")
    diff = x.ones_mask ^ y.ones_mask
    if not diff:
        return None
    return (diff & -diff).bit_length() - 1


class FStatReport(Record):
    """Agreement frequencies F_n at closeness threshold t = 2^-l.

    ``values`` holds exact fractions with denominator n; ``tail_min`` is
    the minimum over the last quarter of the grid and stands in for the
    liminf, which a finite window cannot certify.
    """

    l: int
    x_label: str
    y_label: str
    values: tuple
    tail_min: Fraction


def f_statistic(x: OrbitPoint, y: OrbitPoint, l: int,
                n_grid: Sequence[int]) -> FStatReport:
    """F_n = |{m < n : x, y agree on coordinates m..m+l}| / n, exactly."""
    if x.config.length != y.config.length:
        raise ValidationError("points must have equal lengths")
    check_int(l, "l must be an integer")
    check_int(l, "l must be >= 0", 0)
    grid = list(n_grid)
    if not grid:
        raise ValidationError("n_grid must be positive integers")
    for n in grid:
        check_int(n, "n_grid must be positive integers", 1)
    grid = sorted(set(grid))
    if grid[-1] + l > x.config.length:
        raise ValidationError("n_grid plus block length exceeds the horizon")
    diff = x.config.ones_mask ^ y.config.ones_mask
    # bit m of apart is set iff x and y disagree somewhere in [m, m+l];
    # each OR doubles the window, the last one only up to width l + 1
    apart, width = diff, 1
    while width <= l:
        apart |= apart >> min(width, l + 1 - width)
        width = min(2 * width, l + 1)
    values = [(n, Fraction(n - (apart & ((1 << n) - 1)).bit_count(), n))
              for n in grid]
    tail = values[-max(1, len(values) // 4):]
    return FStatReport(l=l, x_label=x.label, y_label=y.label,
                       values=tuple(values),
                       tail_min=min(v for _, v in tail))


def proximal_probe(x: OrbitPoint, y: OrbitPoint, block: int) -> int | None:
    """Least m with x, y agreeing on [m, m+block), or None in horizon.

    Repeated hits at growing block lengths are the finite evidence that
    the pair is proximal; a None only says the window was too short.
    """
    if x.config.length != y.config.length:
        raise ValidationError("points must have equal lengths")
    horizon = x.config.length
    check_int(block, f"block must lie in [1..{horizon}]", 1, horizon)
    # digit m is "1" iff x and y disagree at position m
    diff = x.config.ones_mask ^ y.config.ones_mask
    m = format(diff, f"0{horizon}b")[::-1].find("0" * block)
    return m if m >= 0 else None


class PeriodicCheckResult(Record):
    """Outcome of the period-k membership test.

    Exactly one of ``point`` and ``failing_multiple`` is set: the
    verified truncation of (1 0^{k-1})^inf, or the least multiple of k
    within the horizon that is missing from P.
    """

    point: OrbitPoint | None
    failing_multiple: int | None


def periodic_point_check(view: PSetView, k: int,
                         horizon: int) -> PeriodicCheckResult:
    """Period-k point exists iff every multiple of k up to horizon is in P."""
    check_int(k, "period must be a positive integer", 1)
    check_int(horizon, f"horizon must lie in [1..{view.horizon}]", 1,
              view.horizon)
    missing = view.table[k:horizon + 1:k].find(0)
    if missing >= 0:
        return PeriodicCheckResult(point=None,
                                   failing_multiple=k * (missing + 1))
    config = Configuration(horizon, tuple(range(0, horizon, k)))
    point = _wrap(view, config, f"periodic:{k}")
    return PeriodicCheckResult(point=point, failing_multiple=None)
