"""Command line entry point.

Every subcommand prints its primary result to stdout (a bare number for
counts, JSON or CSV for everything else) and, when ``--out`` is given,
writes the same data as files next to a ``manifest.json`` recording the
tool version, spec digests, and resolved parameters.  Every output is
a function of the command line and the spec files it names, so identical
invocations produce byte-identical outputs, manifest included.

Exit codes: 0 success, 2 validation error (including usage errors),
3 "don't know": a search budget ran out or memory did.  Errors are
emitted as JSON on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import corpus as corpus_mod
from . import detect, dynamics, experiments, language, reports
from .errors import DEFAULT_BUDGET, BudgetError, SpecError, ValidationError
from .psets import PSetSpec, build_pset, density_report, parse_spec


class _Parser(argparse.ArgumentParser):
    def add_argument(self, *args, choices=None, **kwargs):
        # argparse reads every choice here; set afterwards, _ExperimentIds
        # is read only when a value is checked or a usage is printed
        action = super().add_argument(*args, **kwargs)
        action.choices = choices
        return action

    def error(self, message):
        _print_error("usage", message)
        raise SystemExit(2)


def _print_error(kind: str, message: str, **extra) -> None:
    payload = {"error": {"type": kind, "message": message, **extra}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _load_spec(text: str) -> PSetSpec:
    source = text.strip()
    if source.startswith("{"):
        what = "inline spec"
    else:
        if not os.path.exists(text):
            raise ValidationError(f"spec file not found: {text}")
        what = "spec file"
        try:
            with open(text, "r", encoding="utf-8") as fh:
                source = fh.read()
        except UnicodeDecodeError as err:
            raise SpecError(f"{what} is not UTF-8 text: {err}") from None
        except OSError as err:
            raise ValidationError(f"spec file {text}: {err.strerror}") from None
    try:
        obj = json.loads(source)
    except json.JSONDecodeError as err:
        raise SpecError(f"{what} is not valid JSON: {err}") from None
    except RecursionError:
        # the decoder recurses once per nesting level
        raise SpecError(f"{what} is nested too deeply to decode") from None
    return parse_spec(obj)


def _int_list(text: str, what: str) -> list:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValidationError(f"{what} must be comma-separated integers") from None
    if not values:
        raise ValidationError(f"{what} must be nonempty")
    return values


def _json_result(payload: dict, name: str, params: dict) -> tuple:
    # the common result: JSON on stdout and the same JSON as one file
    text = reports.json_text(payload)
    return text, {name: text}, params


# Each handler takes the parsed arguments, with --budget checked, and the
# view of --spec (None for commands without one).  It returns (stdout
# text, {file name: text} for --out, its own manifest parameters) and,
# when it reads more specs than --spec, their digests by name.  main
# prints and writes them, and adds the fields that every command shares:
# "horizon" and the "spec" digest when the command has --spec, "budget"
# when it has --budget.

def _shared_params(args, view) -> dict:
    params = {} if view is None else {"horizon": view.horizon}
    if hasattr(args, "budget"):
        params["budget"] = args.budget
    return params


def _cmd_pset_density(args, view) -> tuple:
    grid = _int_list(args.window_grid, "--window-grid")
    report = density_report(view, grid, n0=args.n0)
    text = reports.json_text(reports.density_json(report))
    files = {"density.json": text}
    if args.out:
        files["prefix.csv"] = reports.density_prefix_csv(report)
        files["banach.csv"] = reports.density_banach_csv(report)
        if args.plot:
            # count / n is correctly rounded, so equal to float(Fraction(count, n))
            xs = list(range(1, report.horizon + 1))
            ys = [count / n for n, count in zip(xs, report.prefix_counts)]
            files["density.svg"] = reports.svg_line_plot(
                [("prefix", xs, ys)], "prefix density", "n", "density")
    return text, files, {"n0": report.n0, "window_grid": grid}


def _witness_output(args, witness, view, kind: str, params: dict) -> tuple:
    # a search that finds nothing echoes every parameter it ran with
    obj = (witness.to_json() if witness is not None else
           {"kind": kind, "result": "none", **params, **_shared_params(args, view)})
    text = reports.json_text(obj)
    files = {"witness.json": text}
    if witness is not None and args.verify:
        echoed = detect.witness_from_json(json.loads(text))
        if not detect.verify_witness(echoed, view):
            raise ValidationError("witness failed re-verification")
        text += "verified"
    return text, files


def _cmd_detect_search(args, view) -> tuple:
    finder, kind = {
        "delta": (detect.find_delta_chain, "delta_chain"),
        "ip": (detect.find_ip_generator, "ip_generator"),
        "ipip": (detect.find_ip_ip_generator, "ip_ip_generator"),
    }[args.detect_cmd]
    witness = finder(view, args.depth, args.bound, budget=args.budget)
    params = {"depth": args.depth, "bound": args.bound}
    return (*_witness_output(args, witness, view, kind, params), params)


def _cmd_detect_syndetic(args, view) -> tuple:
    report = detect.syndetic_gap(view)
    if report is None:
        payload = {"result": "none", "reason": "set empty on horizon"}
    else:
        payload = {"interior_gap": report.interior_gap,
                   "censored_tail": report.censored_tail}
    return _json_result(payload, "syndetic.json", {})


def _cmd_detect_thick(args, view) -> tuple:
    return _json_result({"run": detect.thick_run(view)}, "thick.json", {})


def _cmd_detect_intersect(args, view) -> tuple:
    other = build_pset(_load_spec(args.other), view.horizon)
    witness = detect.intersective_refute(view, other)
    return (*_witness_output(args, witness, view, "intersective_hit", {}),
            {}, {"other": other.spec_digest})


def _cmd_lang_count(args, view) -> tuple:
    count = language.count_words(view, args.n, mode=args.mode,
                                 budget=args.budget)
    payload = {"n": args.n, "mode": args.mode, "count": count}
    return (str(count), {"count.json": reports.json_text(payload)},
            {"n": args.n, "mode": args.mode})


def _cmd_lang_entropy(args, view) -> tuple:
    grid = _int_list(args.n_grid, "--n-grid")
    profile = language.entropy_profile(view, grid, mode=args.mode,
                                       budget=args.budget)
    csv = reports.profile_csv(profile)
    files = {"profile.csv": csv}
    if args.plot and args.out:
        xs = [r.n for r in profile.rows]
        files["profile.svg"] = reports.svg_line_plot(
            [("h_n", xs, [r.entropy for r in profile.rows]),
             ("omega/n", xs, [float(r.omega_over_n) for r in profile.rows])],
            "entropy profile", "n", "value")
    return csv, files, {"n_grid": grid, "mode": args.mode}


def _cmd_lang_maxones(args, view) -> tuple:
    omega, config = language.max_ones(view, args.n, budget=args.budget)
    payload = {"n": args.n, "omega": omega, "ones": list(config.ones),
               "word": config.word()}
    return _json_result(payload, "maxones.json", {"n": args.n})


def _cmd_lang_greedy(args, view) -> tuple:
    config = language.greedy_point(view, view.horizon)
    payload = {"horizon": view.horizon, "ones": list(config.ones),
               "word": config.word()}
    return _json_result(payload, "greedy.json", {})


def _cmd_lang_transitive(args, view) -> tuple:
    report = language.transitive_gap_check(view, args.word_len, args.gap_cap)
    payload = {"word_len_cap": report.word_len_cap,
               "gap_cap": report.gap_cap,
               "total_pairs": report.total_pairs,
               "joinable_pairs": report.joinable_pairs,
               "least_failing": (list(report.least_failing)
                                 if report.least_failing else None)}
    return _json_result(payload, "transitive.json",
                        {"word_len": args.word_len, "gap_cap": args.gap_cap})


def _points(args, view) -> tuple:
    return tuple(dynamics.make_point(view, name, view.horizon,
                                     budget=args.budget)
                 for name in (args.x, args.y))


def _cmd_dyn_fstat(args, view) -> tuple:
    x, y = _points(args, view)
    grid = _int_list(args.n_grid, "--n-grid")
    report = dynamics.f_statistic(x, y, args.l, grid)
    csv = reports.fstat_csv(report)
    files = {"fstat.csv": csv}
    if args.plot and args.out:
        xs = [n for n, _ in report.values]
        files["fstat.svg"] = reports.svg_line_plot(
            [("F_n", xs, [float(f) for _, f in report.values])],
            "F statistic", "n", "F_n")
    return csv, files, {"l": args.l, "n_grid": grid, "x": args.x, "y": args.y}


def _cmd_dyn_proximal(args, view) -> tuple:
    x, y = _points(args, view)
    m = dynamics.proximal_probe(x, y, args.block)
    payload = {"block": args.block, "m": m, "x": x.label, "y": y.label}
    return _json_result(payload, "proximal.json",
                        {"block": args.block, "x": args.x, "y": args.y})


def _cmd_dyn_periodic(args, view) -> tuple:
    result = dynamics.periodic_point_check(view, args.k, view.horizon)
    if result.point is None:
        payload = {"k": args.k, "point": None,
                   "failing_multiple": result.failing_multiple}
    else:
        payload = {"k": args.k, "point": result.point.config.word(),
                   "admissible": result.point.admissible}
    return _json_result(payload, "periodic.json", {"k": args.k})


def _experiment_files(report, plot: bool) -> dict:
    files = {f"{report.experiment}.json": reports.json_text(report.to_json())}
    table = report.observations.get("table")
    if table:
        files[f"{report.experiment}.csv"] = reports.csv_text(
            table["columns"], table["rows"])
        if plot and "h_n" in table["columns"] and "n" in table["columns"]:
            n_idx = table["columns"].index("n")
            h_idx = table["columns"].index("h_n")
            xs = [float(row[n_idx]) for row in table["rows"]]
            ys = [float(row[h_idx]) for row in table["rows"]]
            files[f"{report.experiment}.svg"] = reports.svg_line_plot(
                [("h_n", xs, ys)], report.experiment, "n", "h_n")
    return files


def _parse_param(text: str):
    if "=" not in text:
        raise ValidationError(f"--param expects KEY=VALUE, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


class _ExperimentIds:
    # "exp run" choices: reading them runs experiments, so only on use
    def __iter__(self):
        return iter(experiments.EXPERIMENT_IDS)


def _cmd_exp_run(args, view) -> tuple:
    overrides = dict(_parse_param(p) for p in args.param or [])
    report = experiments.run_experiment(args.experiment_id,
                                        overrides or None, budget=args.budget)
    files = _experiment_files(report, args.plot and args.out)
    return (files[f"{report.experiment}.json"], files,
            {"experiment": args.experiment_id, "overrides": overrides})


def _cmd_corpus_run_all(args, view) -> tuple:
    files = {}
    verdicts = {}
    for report in experiments.run_all(budget=args.budget):
        files.update(_experiment_files(report, args.plot))
        verdicts[report.experiment] = report.verdict
    index = {"corpus_version": corpus_mod.CORPUS_VERSION,
             "verdicts": verdicts}
    files["index.json"] = reports.json_text(index)
    digests = {name: spec.digest() for name, spec in corpus_mod.iter_corpus()}
    return (files["index.json"], files,
            {"experiments": list(experiments.EXPERIMENT_IDS)}, digests)


# Options as (flag, add_argument keywords); the order within a command is
# the order of its help text and of its "required" error message.
_SPEC = ("--spec", {"required": True,
                    "help": "path to a spec JSON file, or inline JSON"})
_HORIZON = ("--horizon", {"type": int, "required": True})
_OPT_HORIZON = ("--horizon", {"type": int, "default": None})
_BUDGET = ("--budget", {"type": int, "default": DEFAULT_BUDGET})
_OUT = ("--out", {"help": "directory for output files"})
_PLOT = ("--plot", {"action": "store_true",
                    "help": "also write SVG plots (requires --out)"})
_MODE = ("--mode", {"choices": ("naive", "optimized"),
                    "default": "optimized"})
_SEARCH = (_SPEC, ("--depth", {"type": int, "required": True}),
           ("--bound", {"type": int, "required": True}),
           ("--horizon", {"type": int, "default": None,
                          "help": "view horizon; defaults to the bound"}),
           _BUDGET,
           ("--verify", {"action": "store_true",
                         "help": "re-check the emitted witness"}),
           _OUT)


def _grid_horizon(args) -> int:
    return max(_int_list(args.n_grid, "--n-grid"))


# group -> (help, [(command, add_parser keywords, handler, default horizon
# as a function of the arguments or None, options)])
_COMMANDS = {
    "pset": ("set construction and densities", [
        ("density", {"help": "exact density report"}, _cmd_pset_density,
         None,
         (_SPEC, _HORIZON,
          ("--n0", {"type": int, "default": None,
                    "help": "tail cutoff for lower/upper estimates"}),
          ("--window-grid", {"required": True,
                             "help": "comma-separated window lengths"}),
          _OUT, _PLOT)),
    ]),
    "detect": ("structure witness searches", [
        ("delta", {"help": "difference chain"}, _cmd_detect_search,
         lambda a: a.bound, _SEARCH),
        ("ip", {"help": "IP generator"}, _cmd_detect_search,
         lambda a: a.bound, _SEARCH),
        ("ipip", {"help": "IP-IP generator"}, _cmd_detect_search,
         lambda a: a.bound, _SEARCH),
        ("syndetic", {}, _cmd_detect_syndetic, None,
         (_SPEC, _HORIZON, _OUT)),
        ("thick", {}, _cmd_detect_thick, None, (_SPEC, _HORIZON, _OUT)),
        ("intersect", {"help": "E vs A-A hit search"}, _cmd_detect_intersect,
         None,
         (_SPEC,
          ("--other", {"required": True,
                       "help": "spec for the set A (path or inline JSON)"}),
          _HORIZON, ("--verify", {"action": "store_true"}), _OUT)),
    ]),
    "lang": ("language enumeration", [
        ("count", {"help": "exact word count"}, _cmd_lang_count,
         lambda a: a.n,
         (_SPEC, ("--n", {"type": int, "required": True}), _MODE,
          _OPT_HORIZON, _BUDGET, _OUT)),
        ("entropy", {"help": "entropy profile CSV"}, _cmd_lang_entropy,
         _grid_horizon,
         (_SPEC, ("--n-grid", {"required": True}), _MODE, _OPT_HORIZON,
          _BUDGET, _OUT, _PLOT)),
        ("maxones", {"help": "max ones and witness"}, _cmd_lang_maxones,
         lambda a: a.n,
         (_SPEC, ("--n", {"type": int, "required": True}), _OPT_HORIZON,
          _BUDGET, _OUT)),
        ("greedy", {"help": "greedy point"}, _cmd_lang_greedy, None,
         (_SPEC, _HORIZON, _OUT)),
        ("transitive", {"help": "zero-gap joinability"},
         _cmd_lang_transitive, lambda a: 2 * a.word_len + a.gap_cap,
         (_SPEC, ("--word-len", {"type": int, "required": True}),
          ("--gap-cap", {"type": int, "required": True}), _OPT_HORIZON,
          _OUT)),
    ]),
    "dyn": ("orbit probes", [
        ("fstat", {"help": "agreement statistic"}, _cmd_dyn_fstat, None,
         (_SPEC, _HORIZON,
          ("--x", {"required": True, "help": "point generator name"}),
          ("--y", {"required": True, "help": "point generator name"}),
          ("--l", {"type": int, "default": 0}),
          ("--n-grid", {"required": True}), _BUDGET, _OUT, _PLOT)),
        ("proximal", {"help": "agreement window probe"}, _cmd_dyn_proximal,
         None,
         (_SPEC, _HORIZON, ("--x", {"required": True}),
          ("--y", {"required": True}),
          ("--block", {"type": int, "required": True}), _BUDGET, _OUT)),
        ("periodic", {"help": "period-k point check"}, _cmd_dyn_periodic,
         None,
         (_SPEC, ("--k", {"type": int, "required": True}), _HORIZON,
          _OUT)),
    ]),
    "exp": ("named experiments", [
        ("run", {"help": "run one experiment"}, _cmd_exp_run, None,
         (("experiment_id",
           {"choices": _ExperimentIds()}),
          _BUDGET,
          ("--param", {"action": "append",
                       "help": "override one parameter, KEY=VALUE "
                               "(JSON value)"}),
          _OUT, _PLOT)),
    ]),
    "corpus": ("shipped corpus operations", [
        ("run-all", {"help": "run every experiment on the corpus"},
         _cmd_corpus_run_all, None,
         (("--out", {"required": True, "help": "report directory"}),
          ("--plot", {"action": "store_true"}), _BUDGET)),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spacelab",
                     description="spacing shift laboratory")
    top = parser.add_subparsers(dest="group", required=True)
    for group, (help_text, commands) in _COMMANDS.items():
        sub = top.add_parser(group, help=help_text).add_subparsers(
            dest=f"{group}_cmd", required=True)
        for name, keywords, func, default_horizon, options in commands:
            cmd = sub.add_parser(name, **keywords)
            for flag, option in options:
                cmd.add_argument(flag, **option)
            cmd.set_defaults(func=func, command=f"{group} {name}",
                             default_horizon=default_horizon)
    return parser


def _view(args):
    # the default horizon is worked out even when --horizon is given, so
    # that a bad --n-grid is reported before a bad spec, and is at least 1,
    # so that a bad --n, --n-grid, --word-len or --bound reports itself
    default = args.default_horizon and max(args.default_horizon(args), 1)
    horizon = default if args.horizon is None else args.horizon
    return build_pset(_load_spec(args.spec), horizon)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        view = _view(args) if hasattr(args, "spec") else None
        if hasattr(args, "budget") and args.budget < 1:
            raise ValidationError("budget must be positive")
        if args.out == "":
            raise ValidationError("--out must name a directory")
        text, files, params, *extra = args.func(args, view)
        if args.out:
            params.update(_shared_params(args, view))
            digests = {} if view is None else {"spec": view.spec_digest}
            digests.update(*extra)
            manifest = reports.build_manifest(
                {"command": args.command, **params}, digests)
            files["manifest.json"] = reports.json_text(manifest)
            paths = [os.path.join(args.out, name) for name in files]
            for i, (path, data) in enumerate(zip(paths, files.values())):
                try:
                    reports.write_text(path, data)
                except OSError as err:
                    # a failed call leaves none of its files behind
                    for done in paths[:i]:
                        with contextlib.suppress(OSError):
                            os.remove(done)
                    raise ValidationError(
                        f"cannot write {path}: {err.strerror}") from None
    except BudgetError as err:
        _print_error("budget", str(err), nodes=err.nodes)
        return 3
    except MemoryError:
        _print_error("memory", "out of memory; try a smaller horizon, "
                     "window or budget")
        return 3
    except SpecError as err:
        _print_error("spec", str(err), path=err.path)
        return 2
    except ValidationError as err:
        _print_error("validation", str(err))
        return 2
    print(text, end="" if text.endswith("\n") else "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
