"""Named, reproducible experiments instantiating the theory at desk scale.

Every experiment is a pure function of (id, params): it builds views from
pinned default parameters (overridable), computes exact observations, and
asserts only finite, machine-checkable shadows of the statements it
probes.  A failed shadow yields verdict "violation"; an exhausted search
budget yields "inconclusive" with diagnostics; asymptotic claims are
never asserted, only reported as trends.

Trend assertions use a fixed rule: the last grid value must be at most
half the first, and no step may increase by more than log2(n+1)/n slack.
Exact monotonicity fails for small-n parity effects, which is what the
slack absorbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import corpus
from .detect import (check_bohr_avoidance, find_delta_chain,
                     find_ip_ip_generator)
from .dynamics import named_points, periodic_point_check, proximal_probe
from .errors import DEFAULT_BUDGET, BudgetError, ValidationError
from .language import (Configuration, count_words, greedy_point,
                       is_admissible, max_ones, scan_point,
                       transitive_gap_check)
from .psets import (Complement, DiffSet, Explicit, Multiples, PSetSpec,
                    Squares, build_pset, density_report, parse_spec)
from .reports import frac_str


@dataclass(frozen=True)
class ExperimentReport:
    """Machine-readable outcome of one experiment run."""

    experiment: str
    params: dict
    observations: dict
    verdict: str
    notes: tuple

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": self.params,
            "observations": self.observations,
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


# JSON type names, "integer" apart from other numbers
_JSON_TYPES = (("boolean", bool), ("integer", int), ("number", float),
               ("string", str), ("array", list), ("object", dict))

# the parameters that list word or window lengths
_LENGTH_GRIDS = ("n_grid", "window_grid", "block_grid", "omega_grid")


def _json_type(value: object) -> str:
    return next((name for name, types in _JSON_TYPES
                 if isinstance(value, types)), "null")


def _type_name(default: object) -> str:
    if isinstance(default, list) and default:
        return f"array of {_type_name(default[0])}"
    return _json_type(default)


def _conforms(value: object, default: object) -> bool:
    # an integer passes for a number, and a list's elements must conform
    # to the default's first element; a null default admits anything
    got, want = _json_type(value), _json_type(default)
    if default is not None and got != want and (got, want) != (
            "integer", "number"):
        return False
    return want != "array" or not default or all(
        _conforms(v, default[0]) for v in value)


def _merge(defaults: dict, overrides: Optional[dict]) -> dict:
    params = dict(defaults)
    if overrides:
        unknown = sorted(set(overrides) - set(defaults))
        if unknown:
            raise ValidationError(f"unknown experiment parameters {unknown}")
        for key, value in overrides.items():
            if not _conforms(value, defaults[key]):
                raise ValidationError(f"parameter {key} must be a JSON "
                                      f"{_type_name(defaults[key])}")
            if key in _LENGTH_GRIDS and (not value or min(value) < 1):
                raise ValidationError(f"parameter {key} must be a nonempty "
                                      "list of integers >= 1")
            if key in ("k_grid", "members") and not value:
                raise ValidationError(f"parameter {key} must be nonempty")
        params.update(overrides)
    return params


def _finish(exp_id: str, params: dict, observations: dict, checks: list,
            notes: list) -> ExperimentReport:
    failed = [label for label, ok in checks if not ok]
    verdict = "consistent" if not failed else "violation"
    notes = list(notes)
    for label in failed:
        notes.append(f"failed check: {label}")
    observations = dict(observations)
    observations["checks"] = [[label, bool(ok)] for label, ok in checks]
    return ExperimentReport(experiment=exp_id, params=params,
                            observations=observations, verdict=verdict,
                            notes=tuple(notes))


def _trend_down(ns: list, counts: list) -> bool:
    # the trend rule on h_n = log2(c_n) / n, decided on integers:
    # log2(a) / m <= log2(b) / k  iff  a^k <= b^m
    if counts[-1] ** (2 * ns[0]) > counts[0] ** ns[-1]:
        return False
    for i in range(len(counts) - 1):
        if counts[i + 1] ** ns[i] > (counts[i] * (ns[i] + 1)) ** ns[i + 1]:
            return False
    return True


def _binom_tail(n: int, k: int) -> int:
    return sum(math.comb(n, j) for j in range(0, min(n, k) + 1))


def _co_multiples(k: int) -> PSetSpec:
    return Complement(Multiples(k))


def _exp_delta_kills_density(params: dict, budget: int) -> ExperimentReport:
    k = params["k"]
    n_grid = list(params["n_grid"])
    horizon = params["horizon"]
    window_grid = list(params["window_grid"])
    view = build_pset(_co_multiples(k), horizon)

    checks = []
    rows = []
    witness = None
    for n in n_grid:
        omega, config = max_ones(view, n, budget=budget)
        rows.append([n, omega, frac_str(Fraction(omega, n))])
        checks.append((f"omega({n}) <= {k}", omega <= k))
        witness = config
    padded = witness.padded(horizon)
    a_w = build_pset(Explicit(tuple(p + 1 for p in padded.ones)), horizon)
    dens = density_report(a_w, window_grid)
    banach = [d for _, d in dens.banach_profile]
    checks.append(("witness banach profile non-increasing",
                   all(b >= c for b, c in zip(banach, banach[1:]))))
    checks.append(("witness banach profile halves",
                   banach[-1] <= banach[0] / 2))
    observations = {
        "table": {"columns": ["n", "omega_n", "omega_over_n"], "rows": rows},
        "witness_ones": list(witness.ones),
        "witness_banach": [[w, frac_str(d)] for w, d in dens.banach_profile],
    }
    return _finish("delta-kills-density", params, observations, checks, [])


def _exp_zero_density_zero_entropy(params: dict, budget: int) -> ExperimentReport:
    horizon = params["horizon"]
    n_grid = list(params["n_grid"])
    checks = []
    rows = []
    notes = []
    for k in params["k_grid"]:
        view = build_pset(_co_multiples(k), horizon)
        counts = []
        for n in n_grid:
            c = count_words(view, n, budget=budget)
            h = math.log2(c) / n
            counts.append(c)
            rows.append([k, n, c, f"{h:.17g}"])
            checks.append((f"k={k}: c({n}) polynomially bounded",
                           c <= _binom_tail(n, k)))
        checks.append((f"k={k}: h_n trends to zero",
                       _trend_down(n_grid, counts)))
    observations = {
        "table": {"columns": ["k", "n", "c_n", "h_n"], "rows": rows},
    }
    return _finish("zero-density-zero-entropy", params, observations,
                   checks, notes)


def _exp_density_entropy_bound(params: dict, budget: int) -> ExperimentReport:
    horizon = params["horizon"]
    n_grid = list(params["n_grid"])
    checks = []
    rows = []
    for k in params["k_grid"]:
        view = build_pset(Multiples(k), horizon)
        for n in n_grid:
            c = count_words(view, n, budget=budget)
            omega, _ = max_ones(view, n, budget=budget)
            # h_n >= omega/n - log2(n+1)/n, exactly: (n+1) c(n) >= 2^omega
            ok = (n + 1) * c >= 1 << omega
            rows.append([k, n, c, omega, frac_str(Fraction(omega, n))])
            checks.append((f"k={k}, n={n}: (n+1)c(n) >= 2^omega", ok))
    observations = {
        "table": {"columns": ["k", "n", "c_n", "omega_n", "omega_over_n"],
                  "rows": rows},
    }
    return _finish("density-entropy-bound", params, observations, checks, [])


def _classify_ratio(ratio: float) -> str:
    if ratio <= 0.5:
        return "toward-zero"
    if ratio >= 0.75:
        return "flat-or-positive"
    return "ambiguous"


def _exp_entropy_iff_banach(params: dict, budget: int) -> ExperimentReport:
    horizon = params["horizon"]
    n_grid = list(params["n_grid"])
    checks = []
    rows = []
    notes = []
    for name, spec in corpus.iter_corpus():
        view = build_pset(spec, horizon)
        hs = []
        omegas = []
        for n in n_grid:
            c = count_words(view, n, budget=budget)
            omega, _ = max_ones(view, n, budget=budget)
            hs.append(math.log2(c) / n)
            omegas.append(Fraction(omega, n))
            rows.append([name, n, c, omega])
            # exact sandwich tying entropy to the best window density:
            # every subset of a maximum configuration is admissible, and
            # no word carries more than omega ones
            checks.append((f"{name}, n={n}: 2^omega <= c(n)",
                           (1 << omega) <= c))
            checks.append((f"{name}, n={n}: c(n) <= sum C(n,j), j<=omega",
                           c <= _binom_tail(n, omega)))
        h_ratio = hs[-1] / hs[0]
        w_ratio = float(omegas[-1] / omegas[0])
        notes.append(f"{name}: h trend {_classify_ratio(h_ratio)} "
                     f"({h_ratio:.3f}), omega/n trend "
                     f"{_classify_ratio(w_ratio)} ({w_ratio:.3f})")
    observations = {
        "table": {"columns": ["member", "n", "c_n", "omega_n"], "rows": rows},
    }
    return _finish("entropy-iff-banach", params, observations, checks, notes)


def _exp_zero_entropy_proximal(params: dict, budget: int) -> ExperimentReport:
    horizon = params["horizon"]
    blocks = list(params["block_grid"])
    checks = []
    rows = []
    for name in params["members"]:
        view = build_pset(corpus.load_member(name), horizon)
        points = named_points(view, horizon, maxones_n=params["maxones_n"],
                              budget=budget)
        for x in points:
            for y in points:
                hits = []
                ok = True
                for block in blocks:
                    m = proximal_probe(x, y, block)
                    hits.append("-" if m is None else m)
                    ok = ok and m is not None
                rows.append([name, x.label, y.label] + hits)
                checks.append(
                    (f"{name}: {x.label} vs {y.label} hits all blocks", ok))
    observations = {
        "table": {"columns": ["member", "x", "y"] +
                  [f"m_at_block_{b}" for b in blocks],
                  "rows": rows},
    }
    return _finish("zero-entropy-proximal", params, observations, checks, [])


def _exp_transitive_needs_ipip(params: dict, budget: int) -> ExperimentReport:
    checks = []
    notes = []
    ipip_view = build_pset(corpus.load_member(params["ipip_member"]),
                           params["ipip_horizon"])
    rep = transitive_gap_check(ipip_view, params["word_len_cap"],
                               params["gap_cap"])
    checks.append(("IP-IP instance: every word pair joinable",
                   rep.joinable_pairs == rep.total_pairs))
    gen = find_ip_ip_generator(ipip_view, params["ipip_depth"],
                               params["ipip_bound"], budget=budget)
    checks.append(("IP-IP instance: generator found and verified",
                   gen is not None and gen.verified))
    if gen is not None:
        notes.append(f"ip-ip generator: {list(gen.payload)}")

    defect_view = build_pset(parse_spec(params["defect_spec"]),
                             params["defect_horizon"])
    defect = transitive_gap_check(defect_view, params["defect_word_len_cap"],
                                  params["defect_gap_cap"])
    checks.append(("defect instance: some word pair fails to join",
                   defect.joinable_pairs < defect.total_pairs))
    if defect.least_failing is not None:
        notes.append("defect instance least failing pair: "
                     f"{defect.least_failing[0]} {defect.least_failing[1]}")
    observations = {
        "table": {"columns": ["instance", "total_pairs", "joinable_pairs"],
                  "rows": [["ip_ip", rep.total_pairs, rep.joinable_pairs],
                           ["defect", defect.total_pairs,
                            defect.joinable_pairs]]},
    }
    return _finish("transitive-needs-ipip", params, observations, checks,
                   notes)


def _exp_squares_zero_entropy(params: dict, budget: int) -> ExperimentReport:
    n_grid = list(params["n_grid"])
    lang_view = build_pset(Complement(Squares()), params["lang_horizon"])
    checks = []
    rows = []
    notes = []
    counts = []
    omegas = []
    for n in n_grid:
        c = count_words(lang_view, n, budget=budget)
        omega, _ = max_ones(lang_view, n, budget=budget)
        counts.append(c)
        omegas.append(Fraction(omega, n))
        rows.append([n, c, f"{math.log2(c) / n:.17g}", omega])
    # h_last < h_first, exactly: c_last^n_first < c_first^n_last
    checks.append(("h_n strictly decreases across the grid",
                   counts[-1] ** n_grid[0] < counts[0] ** n_grid[-1]))
    checks.append(("omega/n strictly decreases across the grid",
                   omegas[-1] < omegas[0]))

    search_view = build_pset(Squares(), params["search_bound"])
    depth = params["chain_depth"]
    chain = find_delta_chain(search_view, depth, params["chain_bound"],
                             budget=budget)
    checks.append((f"depth-{depth} chain with square differences found",
                   chain is not None and chain.verified))
    if chain is not None:
        notes.append(f"depth-{depth} chain: {list(chain.payload)}")
    try:
        deep = find_delta_chain(search_view, params["deep_depth"],
                                params["search_bound"],
                                budget=params["deep_budget"])
    except BudgetError as err:
        notes.append(f"depth-{params['deep_depth']} search exhausted its "
                     f"budget after {err.nodes} nodes (reported, not asserted)")
    else:
        outcome = "none" if deep is None else f"{list(deep.payload)}"
        notes.append(f"depth-{params['deep_depth']} search outcome: {outcome}")
    observations = {
        "table": {"columns": ["n", "c_n", "h_n", "omega_n"], "rows": rows},
    }
    return _finish("squares-zero-entropy", params, observations, checks,
                   notes)


def _exp_positive_entropy_no_periodic(params: dict,
                                      budget: int) -> ExperimentReport:
    checks = []
    notes = []
    s_horizon = params["s_horizon"]
    if params["candidate_set"] is not None:
        spec = DiffSet(params["candidate_set"])
        notes.append("using user-supplied candidate set")
    else:
        # the greedy S in [1..s_horizon] whose differences avoid forbidden
        banned = sorted({d for d in params["forbidden"] if 0 < d < s_horizon})
        allowed = build_pset(Complement(Explicit(banned)), s_horizon)
        spec = DiffSet([p + 1 for p in scan_point(allowed, s_horizon)])
        notes.append("using built-in greedy candidate; it is NOT certified "
                     "Bohr-free, see the avoidance reports")
    view = build_pset(spec, s_horizon)
    s_set = spec.base

    rows = []
    for k in range(1, params["k_max"] + 1):
        result = periodic_point_check(view, k, params["check_horizon"])
        rows.append([k, "-" if result.failing_multiple is None
                     else result.failing_multiple])
        checks.append((f"no period-{k} point", result.point is None))

    try:
        floor = Fraction(params["density_floor"])
    except (ValueError, ZeroDivisionError):
        raise ValidationError("parameter density_floor must be a rational "
                              "such as \"1/8\"") from None
    for n in params["omega_grid"]:
        ones = tuple(s - 1 for s in s_set if s <= n)
        config = Configuration(n, ones)
        checks.append((f"candidate window n={n} admissible",
                       is_admissible(config, view)))
        checks.append((f"ones density at n={n} >= {params['density_floor']}",
                       Fraction(len(ones), n) >= floor))
    omega_probe = params["omega_probe"]
    omega, _ = max_ones(view, omega_probe, budget=budget)
    notes.append(f"exact omega({omega_probe}) = {omega}")

    bohr_rows = []
    for alpha in params["bohr_alphas"]:
        for window in params["bohr_windows"]:
            rep = check_bohr_avoidance(view, alpha, window)
            bohr_rows.append([alpha, f"{window[0]}..{window[1]}",
                              rep.bohr_size, rep.in_p,
                              "-" if rep.least_missing is None
                              else rep.least_missing])
    observations = {
        "table": {"columns": ["k", "failing_multiple"], "rows": rows},
        "bohr_avoidance": {"columns": ["alpha", "window", "bohr_size",
                                       "in_p", "least_missing"],
                           "rows": bohr_rows},
        "candidate_size": len(s_set),
    }
    return _finish("positive-entropy-no-periodic", params, observations,
                   checks, notes)


def _exp_high_density_trivial_dynamics(params: dict,
                                       budget: int) -> ExperimentReport:
    horizon = params["horizon"]
    checks = []
    rows = []
    for k in params["k_grid"]:
        view = build_pset(_co_multiples(k), horizon)
        dens = density_report(view, list(params["window_grid"]))
        prefix = dens.prefix_densities[-1][1]
        target = 1 - Fraction(1, k)
        checks.append((f"k={k}: prefix density >= 1 - 1/{k}",
                       prefix >= target))
        greedy = greedy_point(view, horizon)
        checks.append((f"k={k}: greedy point has exactly {k} ones",
                       greedy.ones == tuple(range(k))))
        rows.append([k, frac_str(prefix), frac_str(dens.lower_est),
                     frac_str(dens.upper_est), len(greedy.ones)])
    observations = {
        "table": {"columns": ["k", "prefix_density", "lower_est",
                              "upper_est", "greedy_ones"], "rows": rows},
    }
    return _finish("high-density-trivial-dynamics", params, observations,
                   checks, [])


# id -> (runner, pinned default parameters)
_EXPERIMENTS = {
    "delta-kills-density": (_exp_delta_kills_density, {
        "k": 3,
        "n_grid": [4, 8, 12, 16, 20, 24],
        "horizon": 64,
        "window_grid": [8, 16, 32],
    }),
    "zero-density-zero-entropy": (_exp_zero_density_zero_entropy, {
        "k_grid": [2, 3, 5],
        "n_grid": [4, 8, 16, 24, 32],
        "horizon": 64,
    }),
    "density-entropy-bound": (_exp_density_entropy_bound, {
        "k_grid": [1, 2, 3],
        "n_grid": list(range(8, 25)),
        "horizon": 32,
    }),
    "entropy-iff-banach": (_exp_entropy_iff_banach, {
        "n_grid": [8, 16, 24],
        "horizon": 64,
    }),
    "zero-entropy-proximal": (_exp_zero_entropy_proximal, {
        "members": ["co_multiples_2", "co_multiples_3", "co_multiples_5",
                    "intersect_co2_co3", "fs_2_5"],
        "horizon": 256,
        "block_grid": [1, 2, 4, 8, 16, 32],
        "maxones_n": 8,
    }),
    "transitive-needs-ipip": (_exp_transitive_needs_ipip, {
        "ipip_member": "diffset_fs_1_2_4_8_16",
        "ipip_horizon": 32,
        "word_len_cap": 4,
        "gap_cap": 8,
        "ipip_depth": 3,
        "ipip_bound": 31,
        "defect_spec": {"type": "union", "of": [
            {"type": "multiples", "k": 3},
            {"type": "explicit", "elems": [1, 5]},
        ]},
        "defect_horizon": 12,
        "defect_word_len_cap": 3,
        "defect_gap_cap": 6,
    }),
    "squares-zero-entropy": (_exp_squares_zero_entropy, {
        "n_grid": [8, 16, 24],
        "lang_horizon": 64,
        "chain_depth": 3,
        "chain_bound": 100,
        "deep_depth": 5,
        "deep_budget": 1_000_000,
        "search_bound": 30_000,
    }),
    "positive-entropy-no-periodic": (_exp_positive_entropy_no_periodic, {
        "candidate_set": None,
        "forbidden": [7, 14, 21, 28, 35, 42],
        "s_horizon": 200,
        "k_max": 6,
        "check_horizon": 42,
        "omega_grid": [14, 28, 56, 112],
        "omega_probe": 28,
        "density_floor": "1/8",
        "bohr_alphas": [0.61803398875, 0.41421356237309515],
        "bohr_windows": [[0.0, 0.25], [0.25, 0.5], [0.5, 0.75], [0.75, 1.0]],
    }),
    "high-density-trivial-dynamics": (_exp_high_density_trivial_dynamics, {
        "k_grid": [2, 3, 5],
        "horizon": 240,
        "window_grid": [16, 64],
    }),
}

EXPERIMENT_IDS = tuple(sorted(_EXPERIMENTS))


def run_experiment(exp_id: str, overrides: Optional[dict] = None,
                   budget: int = DEFAULT_BUDGET) -> ExperimentReport:
    """Run one named experiment and return its report.

    Unknown ids and unknown parameter names raise; an exhausted budget in
    an asserted computation turns into verdict "inconclusive" with the
    diagnostics in the notes.
    """
    if exp_id not in _EXPERIMENTS:
        raise ValidationError(f"unknown experiment {exp_id!r}")
    runner, defaults = _EXPERIMENTS[exp_id]
    params = _merge(defaults, overrides)
    try:
        return runner(params, budget)
    except BudgetError as err:
        return ExperimentReport(
            experiment=exp_id, params=params,
            observations={"checks": []}, verdict="inconclusive",
            notes=(f"budget exhausted after {err.nodes} nodes: {err}",))


def run_all(budget: int = DEFAULT_BUDGET) -> list:
    """Run every experiment with its pinned defaults, in a fixed order."""
    return [run_experiment(exp_id, budget=budget)
            for exp_id in EXPERIMENT_IDS]
