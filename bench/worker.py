"""Run one workload's operation list in this process, pass after pass.

Started by ``run.py`` in a fresh interpreter whose ``PYTHONPATH`` is the
checkout's ``src``, so that its peak RSS and CPU time belong to the
workload alone.  One client, no threads: each operation starts after the
previous one has returned.  corpus-cli runs the command line one child
process at a time, or in this process through ``cli.main(argv)`` when
traced.

Only the call itself is timed.  Building views, encoding answers,
hashing them, and creating or deleting output directories happen
outside the timed region.  The result is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback

import oracle
import tracer
import workloads


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# -- answers of library calls ------------------------------------------------

def _config(c) -> tuple:
    return oracle.config_answer(c.length, c.ones)


def _point(p) -> tuple:
    return oracle.point_answer(p.label, p.admissible, p.config.length,
                               p.config.ones)


def _witness(w) -> tuple:
    if w is None:
        return ("none",)
    return ("witness", w.kind, w.payload, w.verified, w.depth, w.bound, w.pair)


def answer(kind: str, r):
    """Plain form of a library result, comparable with the oracle's."""
    if kind in ("count", "thick", "admissible", "proximal"):
        return r
    if kind == "maxones":
        return ("maxones", r[0], _config(r[1]))
    if kind == "entropy":
        return ("profile", r.spec_digest,
                tuple((row.n, row.count, row.entropy, row.omega,
                       row.omega_over_n) for row in r.rows))
    if kind == "build":
        return ("view", r.horizon, r.bits, r.spec_digest)
    if kind == "density":
        return ("density", r.horizon, r.n0, r.prefix_densities, r.lower_est,
                r.upper_est, r.banach_profile)
    if kind == "syndetic":
        return ("syndetic", r.interior_gap, r.censored_tail)
    if kind in ("intersect", "chain"):
        return _witness(r)
    if kind == "bohr":
        return ("bohr", r.bohr_size, r.in_p, r.least_missing, r.contained)
    if kind == "greedy":
        return _config(r)
    if kind in ("random_point", "make_point"):
        return _point(r)
    if kind == "periodic":
        return ("periodic", r.point and _point(r.point), r.failing_multiple)
    if kind == "fstat":
        return ("fstat", r.l, r.x_label, r.y_label, r.values, r.tail_min)
    raise ValueError(f"no answer encoding for {kind!r}")


# -- runners -----------------------------------------------------------------

class LibraryOp:
    """One call into the library on views built beforehand."""

    def __init__(self, op, call) -> None:
        self.op = op
        self.call = call

    def run(self, pass_dir):
        try:
            return "ok", self.call()
        except Exception as err:  # every failure is counted, none aborts
            return "raised", err

    def outcome(self, raw, budget_error):
        status, value = raw
        if status == "ok":
            return "ok", oracle.digest(answer(self.op.kind, value)), None
        if isinstance(value, budget_error):
            return "unknown", None, value.nodes
        return "error", type(value).__name__, None


class CliOp:
    """One command line invocation with a fresh output directory."""

    def __init__(self, op, package) -> None:
        self.op = op
        self.package = package  # run in this process when given
        self.out_dir = None

    def run(self, pass_dir):
        self.out_dir = os.path.join(pass_dir, self.op.name)
        argv = [self.out_dir if a == workloads.OUT else a
                for a in self.op.args["argv"]]
        if self.package:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.package.cli.main(argv)
                except Exception:  # a crash is a contract violation
                    traceback.print_exc()
                    code = 1
            return code, out.getvalue().encode(), err.getvalue().encode()
        try:
            proc = subprocess.run([sys.executable, "-m", "spacelab.cli", *argv],
                                  cwd=workloads.ROOT, capture_output=True,
                                  timeout=120)
        except subprocess.TimeoutExpired:
            # a hung child is counted as a failure, like a crashed one
            return -1, b"", b"timeout"
        return proc.returncode, proc.stdout, proc.stderr

    def outcome(self, raw, budget_error):
        code, out, err = raw
        status, ans, nodes = workloads.cli_outcome(self.op, code, out, err,
                                                   self.out_dir)
        if status == "ok":
            ans = oracle.digest(ans)
        return status, ans, nodes

    def manifest_digests(self) -> dict:
        path = os.path.join(self.out_dir, "manifest.json")
        if not os.path.exists(path):
            return {}
        with open(path, encoding="ascii") as fh:
            return json.load(fh).get("spec_digests", {})


def build_runners(package, ops, cli_in_process):
    """Views and points are made here, outside any timed region."""
    if package is None:
        return [CliOp(op, None) for op in ops], {}
    psets, language = package.psets, package.language
    detect, dynamics, corpus = package.detect, package.dynamics, package.corpus
    views: dict = {}
    orbit_points: dict = {}

    def view(member, horizon):
        key = (member, horizon)
        if key not in views:
            views[key] = psets.build_pset(corpus.load_member(member), horizon)
        return views[key]

    def points(a):
        key = (a["member"], a["horizon"], a["seed"])
        if key not in orbit_points:
            orbit_points[key] = make_points(a)
        return orbit_points[key]

    def make_points(a):
        h = a["horizon"]
        v = view(a["member"], h)
        t = oracle.table(oracle.members(
            workloads.member_json(a["member"]), h), h)
        make = dynamics.OrbitPoint
        x = make(language.Configuration(h, oracle.greedy_ones(t, h)),
                 "greedy", True, v.spec_digest)
        y = make(language.Configuration(h, oracle.greedy_ones(t, h, a["seed"])),
                 f"random:{a['seed']}", True, v.spec_digest)
        return x, y

    runners = []
    for op in ops:
        a, k = op.args, op.kind
        if k == "cli":
            runners.append(CliOp(op, package if cli_in_process else None))
            continue
        if k == "count":
            v = view(a["member"], a["n"])
            extra = {"budget": a["budget"]} if "budget" in a else {}
            call = (lambda v=v, n=a["n"], extra=extra:
                    language.count_words(v, n, **extra))
        elif k == "maxones":
            v = view(a["member"], a["n"])
            call = lambda v=v, n=a["n"]: language.max_ones(v, n)
        elif k == "entropy":
            v = view(a["member"], max(a["grid"]))
            call = lambda v=v, g=a["grid"]: language.entropy_profile(v, g)
        elif k == "build":
            spec = corpus.load_member(a["member"])
            call = lambda s=spec, h=a["horizon"]: psets.build_pset(s, h)
        elif k == "density":
            v = view(a["member"], a["horizon"])
            call = lambda v=v, g=a["grid"]: psets.density_report(v, g)
        elif k == "syndetic":
            v = view(a["member"], a["horizon"])
            call = lambda v=v: detect.syndetic_gap(v)
        elif k == "thick":
            v = view(a["member"], a["horizon"])
            call = lambda v=v: detect.thick_run(v)
        elif k == "intersect":
            e, av = view(a["e"], a["horizon"]), view(a["a"], a["horizon"])
            call = lambda e=e, av=av: detect.intersective_refute(e, av)
        elif k == "bohr":
            v = view(a["member"], a["horizon"])
            call = (lambda v=v, al=a["alpha"], iv=tuple(a["interval"]):
                    detect.check_bohr_avoidance(v, al, iv))
        elif k == "greedy":
            v = view(a["member"], a["horizon"])
            call = lambda v=v, h=a["horizon"]: language.greedy_point(v, h)
        elif k == "admissible":
            v = view(a["member"], a["horizon"])
            c = language.Configuration(a["horizon"],
                                       range(0, a["horizon"], a["step"]))
            call = lambda v=v, c=c: language.is_admissible(c, v)
        elif k == "random_point":
            v = view(a["member"], a["horizon"])
            call = (lambda v=v, h=a["horizon"], s=a["seed"]:
                    dynamics.random_point(v, h, s))
        elif k == "periodic":
            v = view(a["member"], a["horizon"])
            call = (lambda v=v, k_=a["k"], h=a["horizon"]:
                    dynamics.periodic_point_check(v, k_, h))
        elif k == "make_point":
            v = view(a["member"], a["horizon"])
            call = (lambda v=v, nm=a["name"], h=a["horizon"]:
                    dynamics.make_point(v, nm, h))
        elif k == "fstat":
            x, y = points(a)
            call = (lambda x=x, y=y, l=a["l"], g=a["grid"]:
                    dynamics.f_statistic(x, y, l, g))
        elif k == "proximal":
            x, y = points(a)
            call = lambda x=x, y=y, b=a["block"]: dynamics.proximal_probe(x, y, b)
        elif k == "chain":
            v = view(a["member"], a["horizon"])
            extra = {"budget": a["budget"]} if "budget" in a else {}
            call = (lambda v=v, d=a["depth"], b=a["bound"], extra=extra:
                    detect.find_delta_chain(v, d, b, **extra))
        else:
            raise ValueError(f"unknown operation kind {k!r}")
        runners.append(LibraryOp(op, call))
    digests = {f"{m}@{h}": v.spec_digest for (m, h), v in views.items()}
    return runners, digests


def _status_kb(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


def probe_peak(runner) -> int:
    """Bytes by which one call raises this process's resident set above
    where it started (VmHWM after the call minus VmRSS before it).  Meant
    for a fresh interpreter, whose heap holds no freed memory that the
    call could reuse unseen."""
    start = _status_kb("VmRSS")
    runner.run(None)
    return max(0, _status_kb("VmHWM") - start) * 1024


def peak_in_fresh_process(args, op) -> int:
    """tracemalloc would give Python-level peaks but slows count_words
    about twelvefold, so each probe runs the call once in a new worker."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0",
         "--work", args.work, "--probe", op.name],
        capture_output=True, timeout=120, check=True)
    return int(proc.stdout.split()[-1])


def run_pass(runners, work_dir, index, budget_error) -> dict:
    pass_dir = os.path.join(work_dir, f"pass{index}")
    ops = []
    wall = cpu = 0.0
    for runner in runners:
        c0, k0 = time.process_time(), _children_cpu()
        t0 = time.perf_counter()
        raw = runner.run(pass_dir)
        t1 = time.perf_counter()
        c1, k1 = time.process_time(), _children_cpu()
        status, info, nodes = runner.outcome(raw, budget_error)
        ops.append([runner.op.name, status, info, t1 - t0, nodes])
        wall += t1 - t0
        cpu += (c1 - c0) + (k1 - k0)
    return {"wall": wall, "cpu": cpu, "ops": ops}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--probe", help="print the peak memory of this one op")
    args = p.parse_args()

    ops = workloads.operations(args.workload, args.seed)
    spacelab = budget_error = None
    if args.trace or args.workload != "corpus-cli":
        # a child's peak RSS includes the RSS of the parent it was spawned
        # from, so the CLI children are started from a worker that never
        # imports the library
        import spacelab
        import spacelab.cli
        src = os.path.realpath(os.path.join(workloads.ROOT, "src"))
        if not os.path.realpath(spacelab.__file__).startswith(src + os.sep):
            print(f"spacelab imported from {spacelab.__file__}, not {src}",
                  file=sys.stderr)
            return 2
        budget_error = spacelab.errors.BudgetError
    if args.probe:
        ops = [op for op in ops if op.name == args.probe]
    runners, view_digests = build_runners(spacelab, ops, bool(args.trace))
    if args.probe:
        print(probe_peak(runners[0]))
        return 0

    # untraced passes fill the run; a traced run spends the first third
    # untraced (the reference for trace.overhead_s) and the rest traced
    untraced_until = args.seconds / 3 if args.trace else args.seconds
    start = time.perf_counter()
    passes, traced = [], []
    while not passes or time.perf_counter() - start < untraced_until:
        passes.append(run_pass(runners, args.work, len(passes), budget_error))
        if len(passes) == 1:
            # peak memory of running the list once: later passes raise the
            # high-water mark further through heap fragmentation, which
            # would tie the figure to how many passes fit in the run
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            children_peak_kb = resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss
    manifest_digests = {}
    for runner in runners:
        if isinstance(runner, CliOp):
            manifest_digests.update(runner.manifest_digests())
    shutil.rmtree(args.work, ignore_errors=True)

    span_passes, layer_metrics = [], []
    cli_names = {op.name for op in ops if op.kind == "cli"}
    if args.trace:
        t = tracer.Tracer(spacelab)
        t.install()
        try:
            while not traced or time.perf_counter() - start < args.seconds:
                index = len(passes) + len(traced)
                traced.append(run_pass(runners, args.work, index, budget_error))
                spans = t.take()
                span_passes.append(spans)
                metrics = tracer.pass_metrics(spans)
                metrics["cli.contract_violations"] = sum(
                    1 for name, status, *_ in traced[-1]["ops"]
                    if status == "error" and name in cli_names)
                layer_metrics.append(metrics)
                shutil.rmtree(args.work, ignore_errors=True)
        finally:
            t.uninstall()
        tracer.Tracer.dump(span_passes,
                           workloads.spans_path(args.workload, args.seed))
        peaks = {"count": 0, "maxones": 0}
        for op in ops:
            if op.kind in peaks:
                peaks[op.kind] = max(peaks[op.kind],
                                     peak_in_fresh_process(args, op))
        for metrics in layer_metrics:
            metrics["language.count_words.peak_mb"] = peaks["count"] / 2 ** 20
            metrics["language.max_ones.peak_mb"] = peaks["maxones"] / 2 ** 20

    result = {
        "passes": passes,
        "traced_passes": traced,
        "layer_metrics": layer_metrics,
        "peak_rss_kb": peak_kb,
        "children_peak_rss_kb": children_peak_kb,
        "spec_digests": {**view_digests, **manifest_digests},
    }
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
