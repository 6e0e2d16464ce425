"""Spans around every call into spacelab's layers, recorded from outside.

:class:`Tracer` replaces each public function of each layer module with
a wrapper, in memory only, wherever the function object is bound: the
defining module, the package namespace and every ``from ... import``
name in another layer (``spacelab.experiments.count_words`` and the
like).  A wrapper appends one span per call: name, layer, parent span,
start, end, time spent in child spans, and a few counts taken from the
arguments.  Spans stay in memory until :meth:`Tracer.dump`.
Memory is not traced here: tracemalloc slows the clique counter about
twelvefold (see ``worker.probe_peak`` for what replaces it).

A layer's self time is its spans' durations minus the time covered by
their child spans.  ``busy`` time of a function or group counts only
its outermost spans, so recursion and nesting are not counted twice.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from statistics import median

LAYERS = ("psets", "language", "detect", "dynamics", "experiments",
          "reports", "corpus", "cli")

EXPERIMENT_IDS = (
    "delta-kills-density", "density-entropy-bound", "entropy-iff-banach",
    "high-density-trivial-dynamics", "positive-entropy-no-periodic",
    "squares-zero-entropy", "transitive-needs-ipip",
    "zero-density-zero-entropy", "zero-entropy-proximal",
)

CLI_COMMANDS = (
    "pset.density", "detect.delta", "detect.ip", "detect.ipip",
    "detect.syndetic", "detect.thick", "detect.intersect", "lang.count",
    "lang.entropy", "lang.maxones", "lang.greedy", "lang.transitive",
    "dyn.fstat", "dyn.proximal", "dyn.periodic", "exp.run", "corpus.run-all",
)

# functions whose time is also summed as one group
GROUPS = {
    "detect.scans": ("detect.syndetic_gap", "detect.thick_run",
                     "detect.intersective_refute",
                     "detect.check_bohr_avoidance"),
    "detect.generators": ("detect.find_ip_generator",
                          "detect.find_ip_ip_generator"),
    "dynamics.probes": ("dynamics.f_statistic", "dynamics.proximal_probe",
                        "dynamics.cylinder_distance_exponent"),
}
# every other public function of reports formats output
SERIALIZE = "reports.serialize"
SEARCHES = ("detect.find_delta_chain", "detect.find_ip_generator",
            "detect.find_ip_ip_generator", "detect.intersective_refute")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _work(name, args, kwargs):
    """Units of work of one call, read from its arguments."""
    if name == "psets.build_pset":
        return _arg(args, kwargs, 1, "horizon")
    if name == "psets.density_report":
        view = _arg(args, kwargs, 0, "view")
        grid = _arg(args, kwargs, 1, "window_grid")
        return view.horizon * (1 + len(grid))
    if name == "language.greedy_point":
        return _arg(args, kwargs, 1, "horizon")
    if name == "language.is_admissible":
        ones = len(_arg(args, kwargs, 0, "config").ones)
        return ones * (ones - 1) // 2
    if name == "reports.write_text":
        return len(_arg(args, kwargs, 1, "text"))
    return 0


def _tag(name, args, kwargs):
    if name == "experiments.run_experiment":
        return _arg(args, kwargs, 0, "exp_id")
    if name == "cli.main":
        argv = _arg(args, kwargs, 0, "argv")
        return ".".join(argv[:2]) if argv else None
    return None


# span fields
NAME, LAYER, PARENT, START, END, CHILD, OUTER, WORK, OUTCOME, NODES, TAG = range(11)


class Tracer:
    """Wraps the layer functions of an imported spacelab package."""

    def __init__(self, package) -> None:
        self.spans: list = []
        self.stack: list = []
        self.active: dict = {}
        self.restore: list = []
        self.budget_error = package.errors.BudgetError

    def install(self) -> None:
        group_of = {}
        for group, names in GROUPS.items():
            for name in names:
                group_of[name] = group
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"spacelab.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    group = group_of.get(name)
                    if layer == "reports" and attr != "write_text":
                        group = SERIALIZE
                    keys = (name, layer) + ((group,) if group else ())
                    originals[id(obj)] = self._wrap(obj, name, layer, keys)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "spacelab" and not mod_name.startswith("spacelab."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self.restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in self.restore:
            setattr(module, attr, obj)
        self.restore.clear()

    def _wrap(self, fn, name, layer, keys):
        spans, stack, active = self.spans, self.stack, self.active
        budget_error = self.budget_error

        def wrapper(*args, **kwargs):
            outer = tuple(k for k in keys if not active.get(k))
            for k in keys:
                active[k] = active.get(k, 0) + 1
            span = [name, layer, stack[-1] if stack else -1, 0.0, 0.0, 0.0,
                    outer, _work(name, args, kwargs), "ok", 0,
                    _tag(name, args, kwargs)]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if result is None:
                    span[OUTCOME] = "none"
                return result
            except budget_error as err:
                span[OUTCOME] = "unknown"
                span[NODES] = err.nodes
                raise
            except Exception as err:
                span[OUTCOME] = "error:" + type(err).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if stack:
                    spans[stack[-1]][CHILD] += span[END] - span[START]
                for k in keys:
                    active[k] -= 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def take(self) -> list:
        """Hand over the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    @staticmethod
    def dump(spans_by_pass: list, path: str) -> None:
        """Write spans as JSON lines, one per span, with the pass index."""
        fields = ("name", "layer", "parent", "start", "end", "child_s",
                  "outer", "work", "outcome", "nodes", "tag")
        with open(path, "w", encoding="utf-8") as fh:
            for index, spans in enumerate(spans_by_pass):
                for span in spans:
                    row = dict(zip(fields, span))
                    row["pass"] = index
                    fh.write(json.dumps(row) + "\n")


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("language.count_words.busy_s", "s", "lower"),
        ("language.entropy_profile.busy_s", "s", "lower"),
        ("language.max_ones.busy_s", "s", "lower"),
        ("language.count_words.peak_mb", "MB", "lower"),
        ("language.max_ones.peak_mb", "MB", "lower"),
        ("language.fail", "count", "lower"),
        ("language.greedy_point.positions_per_s", "1/s", "higher"),
        ("language.is_admissible.pairs_per_s", "1/s", "higher"),
        ("language.transitive_gap_check.busy_s", "s", "lower"),
        ("psets.build_pset.busy_s", "s", "lower"),
        ("psets.build_pset.bits_per_s", "1/s", "higher"),
        ("psets.density_report.busy_s", "s", "lower"),
        ("psets.density_report.positions_per_s", "1/s", "higher"),
        ("psets.parse_spec.busy_s", "s", "lower"),
        ("corpus.load_member.busy_s", "s", "lower"),
        ("dynamics.random_point.busy_s", "s", "lower"),
        ("dynamics.periodic_point_check.busy_s", "s", "lower"),
        ("dynamics.make_point.busy_s", "s", "lower"),
        ("dynamics.probes.busy_s", "s", "lower"),
        ("detect.scans.busy_s", "s", "lower"),
        ("detect.find_delta_chain.busy_s", "s", "lower"),
        ("detect.find_delta_chain.nodes_per_s", "1/s", "higher"),
        ("detect.find_delta_chain.unknown", "count", "lower"),
        ("detect.found_ratio", "ratio", "higher"),
        ("detect.generators.busy_s", "s", "lower"),
    ]
    + [(f"experiments.{exp}.self_s", "s", "lower") for exp in EXPERIMENT_IDS]
    + [
        ("reports.serialize.busy_s", "s", "lower"),
        ("reports.write_text.busy_s", "s", "lower"),
        ("reports.bytes_written", "bytes", "lower"),
        ("cli.cold_start_s", "s", "lower"),
    ]
    + [(f"cli.{cmd}.wall_s", "s", "lower") for cmd in CLI_COMMANDS]
    + [
        ("cli.contract_violations", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def pass_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced pass (the CLI and trace metrics
    that need more than spans are filled in by the caller)."""
    busy: dict = {}
    work: dict = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    exp_self = {exp: 0.0 for exp in EXPERIMENT_IDS}
    cli_wall = {cmd: 0.0 for cmd in CLI_COMMANDS}
    fails = unknown = nodes = 0
    unknown_s = 0.0
    searches = found = 0
    for span in spans:
        dur = span[END] - span[START]
        own = dur - span[CHILD]
        self_s[span[LAYER]] += own
        for key in span[OUTER]:
            busy[key] = busy.get(key, 0.0) + dur
            work[key] = work.get(key, 0) + span[WORK]
        name = span[NAME]
        if name == "experiments.run_experiment" and span[TAG] in exp_self:
            exp_self[span[TAG]] += own
        if name == "cli.main" and span[TAG] in cli_wall:
            cli_wall[span[TAG]] += dur
        if span[LAYER] == "language" and "language" in span[OUTER] \
                and span[OUTCOME].startswith("error:"):
            fails += 1
        if name in SEARCHES and name in span[OUTER]:
            searches += 1
            found += span[OUTCOME] == "ok"
        if name == "detect.find_delta_chain" and span[OUTCOME] == "unknown":
            unknown += 1
            nodes += span[NODES]
            unknown_s += dur

    def rate(key):
        return work.get(key, 0) / busy[key] if busy.get(key) else 0.0

    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    for metric, _, _ in PER_LAYER:
        if metric.endswith(".busy_s"):
            out[metric] = busy.get(metric[:-len(".busy_s")], 0.0)
    out.update({
        "language.fail": fails,
        "language.greedy_point.positions_per_s": rate("language.greedy_point"),
        "language.is_admissible.pairs_per_s": rate("language.is_admissible"),
        "psets.build_pset.bits_per_s": rate("psets.build_pset"),
        "psets.density_report.positions_per_s": rate("psets.density_report"),
        "detect.find_delta_chain.nodes_per_s":
            nodes / unknown_s if unknown_s else 0.0,
        "detect.find_delta_chain.unknown": unknown,
        "detect.found_ratio": found / searches if searches else 0.0,
        "reports.bytes_written": work.get("reports.write_text", 0),
    })
    out.update({f"experiments.{e}.self_s": v for e, v in exp_self.items()})
    out.update({f"cli.{c}.wall_s": v for c, v in cli_wall.items()})
    return out


def median_metrics(per_pass: list) -> dict:
    return {key: median(p[key] for p in per_pass) for key in per_pass[0]}
