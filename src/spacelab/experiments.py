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

The per-length tables of c_n, h_n and omega_n are the rows of
``language.entropy_profile`` in ``n_grid`` order, repeats kept; budgets
run out as in a loop over the grid.  A runner returns its observations,
checks and notes, and ``run_experiment`` alone names the report and sets
its verdict.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from . import corpus
from .detect import (check_bohr_avoidance, find_delta_chain,
                     find_ip_ip_generator)
from .dynamics import named_points, periodic_point_check, proximal_probe
from .errors import DEFAULT_BUDGET, BudgetError, Record, ValidationError
from .language import (Configuration, entropy_profile, greedy_point,
                       is_admissible, max_ones, scan_point,
                       transitive_gap_check)
from .psets import (Complement, DiffSet, Explicit, Multiples, PSetView,
                    Squares, build_pset, density_report, parse_spec)
from .reports import float17, frac_str


class ExperimentReport(Record):
    """Machine-readable outcome of one experiment run."""

    experiment: str
    params: dict
    observations: dict
    verdict: str
    notes: tuple

    def to_json(self) -> dict:
        return {**vars(self), "notes": list(self.notes)}


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
    return ExperimentReport(
        experiment=exp_id, params=params,
        observations={**observations, "checks": [[label, bool(ok)]
                                                 for label, ok in checks]},
        verdict="violation" if failed else "consistent",
        notes=tuple(notes) + tuple(f"failed check: {label}"
                                   for label in failed))


def _trend_down(rows: list) -> bool:
    # the trend rule on h_n = log2(c_n) / n, decided on integers:
    # log2(a) / m <= log2(b) / k  iff  a^k <= b^m
    first, last = rows[0], rows[-1]
    if last.count ** (2 * first.n) > first.count ** last.n:
        return False
    return all(b.count ** a.n <= (a.count * (a.n + 1)) ** b.n
               for a, b in zip(rows, rows[1:]))


def _profile(view: PSetView, n_grid: list, budget: int) -> list:
    # entropy_profile's rows in n_grid order, repeats kept.  A length past
    # the horizon is the largest of the grid up to it, so the profile of
    # that prefix ends by raising for it, as a loop in grid order would
    cut = next((i + 1 for i, n in enumerate(n_grid) if n > view.horizon),
               len(n_grid))
    rows = {row.n: row
            for row in entropy_profile(view, n_grid[:cut], budget=budget).rows}
    return [rows[n] for n in n_grid]


def _binom_tail(n: int, k: int) -> int:
    return sum(math.comb(n, j) for j in range(0, min(n, k) + 1))


def _exp_delta_kills_density(params: dict, budget: int) -> tuple:
    k, horizon = params["k"], params["horizon"]
    view = build_pset(Complement(Multiples(k)), horizon)
    checks = []
    rows = []
    for n in params["n_grid"]:
        omega, witness = max_ones(view, n, budget=budget)
        rows.append([n, omega, frac_str(Fraction(omega, n))])
        checks.append((f"omega({n}) <= {k}", omega <= k))
    a_w = build_pset(Explicit(tuple(p + 1 for p in witness.ones)), horizon)
    dens = density_report(a_w, list(params["window_grid"]))
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
    return observations, checks, []


def _exp_zero_density_zero_entropy(params: dict, budget: int) -> tuple:
    checks = []
    rows = []
    for k in params["k_grid"]:
        view = build_pset(Complement(Multiples(k)), params["horizon"])
        profile = _profile(view, params["n_grid"], budget)
        for r in profile:
            rows.append([k, r.n, r.count, float17(r.entropy)])
            checks.append((f"k={k}: c({r.n}) polynomially bounded",
                           r.count <= _binom_tail(r.n, k)))
        checks.append((f"k={k}: h_n trends to zero", _trend_down(profile)))
    observations = {
        "table": {"columns": ["k", "n", "c_n", "h_n"], "rows": rows},
    }
    return observations, checks, []


def _exp_density_entropy_bound(params: dict, budget: int) -> tuple:
    checks = []
    rows = []
    for k in params["k_grid"]:
        view = build_pset(Multiples(k), params["horizon"])
        for r in _profile(view, params["n_grid"], budget):
            rows.append([k, r.n, r.count, r.omega, frac_str(r.omega_over_n)])
            # h_n >= omega/n - log2(n+1)/n, exactly: (n+1) c(n) >= 2^omega
            checks.append((f"k={k}, n={r.n}: (n+1)c(n) >= 2^omega",
                           (r.n + 1) * r.count >= 1 << r.omega))
    observations = {
        "table": {"columns": ["k", "n", "c_n", "omega_n", "omega_over_n"],
                  "rows": rows},
    }
    return observations, checks, []


def _classify_ratio(ratio: float) -> str:
    if ratio <= 0.5:
        return "toward-zero"
    if ratio >= 0.75:
        return "flat-or-positive"
    return "ambiguous"


def _exp_entropy_iff_banach(params: dict, budget: int) -> tuple:
    checks = []
    rows = []
    notes = []
    for name, spec in corpus.iter_corpus():
        view = build_pset(spec, params["horizon"])
        profile = _profile(view, params["n_grid"], budget)
        for r in profile:
            rows.append([name, r.n, r.count, r.omega])
            # exact sandwich tying entropy to the best window density:
            # every subset of a maximum configuration is admissible, and
            # no word carries more than omega ones
            checks.append((f"{name}, n={r.n}: 2^omega <= c(n)",
                           (1 << r.omega) <= r.count))
            checks.append((f"{name}, n={r.n}: c(n) <= sum C(n,j), j<=omega",
                           r.count <= _binom_tail(r.n, r.omega)))
        h_ratio = profile[-1].entropy / profile[0].entropy
        w_ratio = float(profile[-1].omega_over_n / profile[0].omega_over_n)
        notes.append(f"{name}: h trend {_classify_ratio(h_ratio)} "
                     f"({h_ratio:.3f}), omega/n trend "
                     f"{_classify_ratio(w_ratio)} ({w_ratio:.3f})")
    observations = {
        "table": {"columns": ["member", "n", "c_n", "omega_n"], "rows": rows},
    }
    return observations, checks, notes


def _exp_zero_entropy_proximal(params: dict, budget: int) -> tuple:
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
                hits = [proximal_probe(x, y, block) for block in blocks]
                rows.append([name, x.label, y.label] +
                            ["-" if m is None else m for m in hits])
                checks.append((f"{name}: {x.label} vs {y.label} hits all "
                               "blocks", None not in hits))
    observations = {
        "table": {"columns": ["member", "x", "y"] +
                  [f"m_at_block_{b}" for b in blocks],
                  "rows": rows},
    }
    return observations, checks, []


def _exp_transitive_needs_ipip(params: dict, budget: int) -> tuple:
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
    return observations, checks, notes


def _exp_squares_zero_entropy(params: dict, budget: int) -> tuple:
    lang_view = build_pset(Complement(Squares()), params["lang_horizon"])
    profile = _profile(lang_view, params["n_grid"], budget)
    first, last = profile[0], profile[-1]
    notes = []
    # h_last < h_first, exactly: c_last^n_first < c_first^n_last
    checks = [("h_n strictly decreases across the grid",
               last.count ** first.n < first.count ** last.n),
              ("omega/n strictly decreases across the grid",
               last.omega_over_n < first.omega_over_n)]

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
        "table": {"columns": ["n", "c_n", "h_n", "omega_n"],
                  "rows": [[r.n, r.count, float17(r.entropy), r.omega]
                           for r in profile]},
    }
    return observations, checks, notes


def _exp_positive_entropy_no_periodic(params: dict, budget: int) -> tuple:
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
    return observations, checks, notes


def _exp_high_density_trivial_dynamics(params: dict, budget: int) -> tuple:
    horizon = params["horizon"]
    checks = []
    rows = []
    for k in params["k_grid"]:
        view = build_pset(Complement(Multiples(k)), horizon)
        dens = density_report(view, list(params["window_grid"]))
        prefix = Fraction(dens.prefix_counts[-1], horizon)
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
    return observations, checks, []


# id -> (runner, pinned default parameters); a runner returns its
# observations, its checks as (label, ok) pairs and its notes
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
        observations, checks, notes = runner(params, budget)
    except BudgetError as err:
        return ExperimentReport(exp_id, params, {"checks": []}, "inconclusive",
                                (f"budget exhausted after {err.nodes} nodes: "
                                 f"{err}",))
    return _finish(exp_id, params, observations, checks, notes)


def run_all(budget: int = DEFAULT_BUDGET) -> list:
    """Run every experiment with its pinned defaults, in a fixed order."""
    return [run_experiment(exp_id, budget=budget)
            for exp_id in EXPERIMENT_IDS]
