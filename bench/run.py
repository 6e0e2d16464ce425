"""spacelab benchmark: one command, three closed-loop workloads.

    python3 bench/run.py --workload {lang-wall,long-horizon,corpus-cli}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its
``src`` directory.  With ``--trace 0`` the run measures the end-to-end
metrics: set-up time over several fresh interpreters, then the
workload's operation list pass after pass in one worker process for
``--seconds`` seconds.  With ``--trace 1`` a separate run records spans
around every call into a layer and reports the per-layer metrics.

Every answer is checked against a pinned digest (``pinned.json``, made
by ``pin.py`` from independent oracles where one is cheap) or, for
inputs made from the seed, against an oracle run here outside the timed
region.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give every metric by name and unit and the run's metadata.
Results and spans are also kept in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

import oracle
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = workloads.ROOT
SETUP_SPAWNS = 15
COLD_START_SPAWNS = 5
DEADLINE_S = 170

SETUP_CODE = ("import time, spacelab, spacelab.cli; "
              "spacelab.cli.build_parser(); "
              "print(time.monotonic_ns(), spacelab.__file__)")
COLD_START_ARGV = ["lang", "count", "--spec", '{"type":"multiples","k":2}',
                   "--n", "1"]

DISK_NOTE = (
    "every CLI run writes into a fresh --out directory that is deleted "
    "outside the timed region: on an ext4 mount with 'discard', os.replace "
    "over an existing file cost about 54 ms each, and corpus run-all into "
    "a reused directory took 1.3-1.9 s instead of 0.6 s")

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("fail_frac", "ratio"),
              ("unknown_frac", "ratio"))


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _git_revision() -> str:
    try:
        # the ceiling keeps git from reporting a repository above ROOT
        env = dict(os.environ,
                   GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if proc.returncode != 0:
        return "unknown (not a git checkout)"
    return proc.stdout.decode().strip()


def _spawn_times(argv: list, env: dict, count: int, src: str) -> list:
    """Seconds from spawning each fresh interpreter until it is ready."""
    times = []
    for _ in range(count):
        t0 = time.monotonic_ns()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              timeout=60)
        t1 = time.monotonic_ns()
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode(errors="replace")[-2000:])
        fields = proc.stdout.split()
        if len(fields) == 2:
            # setup probe: the child reports when spacelab was ready
            if not os.path.realpath(fields[1].decode()).startswith(src):
                raise RuntimeError(f"spacelab imported from {fields[1]!r}")
            t1 = int(fields[0])
        times.append((t1 - t0) / 1e9)
    return times


def _expected_digests(ops: list, pinned: dict) -> dict:
    """op name -> accepted answer digests (work done outside any timing)."""
    out = {}
    for op in ops:
        if op.seeded:
            out[op.name] = {oracle.digest(workloads.expected(op))}
        elif op.name in pinned:
            out[op.name] = set(pinned[op.name])
        else:
            raise KeyError(f"no pinned digest for {op.name}; run bench/pin.py")
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    started = time.monotonic()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "spacelab", "__init__.py")):
        return _fail(f"no spacelab sources under {src}")
    pinned_path = os.path.join(HERE, "pinned.json")
    with open(pinned_path, encoding="ascii") as fh:
        pinned = json.load(fh)["workloads"][args.workload]

    load_before = os.getloadavg()
    env = workloads.child_env()
    src_prefix = os.path.realpath(src) + os.sep
    out_root = workloads.OUT_ROOT
    work = os.path.join(out_root, f"work-{os.getpid()}")
    os.makedirs(out_root, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)

    try:
        if args.trace:
            cold = _spawn_times([sys.executable, "-m", "spacelab.cli",
                                 *COLD_START_ARGV], env, COLD_START_SPAWNS,
                                src_prefix)
        else:
            setup = _spawn_times([sys.executable, "-c", SETUP_CODE], env,
                                 SETUP_SPAWNS, src_prefix)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        return _fail(f"set-up failed: {err}")

    ops = workloads.operations(args.workload, args.seed)
    worker = [sys.executable, os.path.join(HERE, "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--work", work]
    # the worker gets its own process group, so that a timeout also ends
    # the CLI child it may be waiting for
    proc = subprocess.Popen(worker, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return _fail("worker timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(stderr.decode(errors="replace")[-4000:])
        return _fail(f"worker exited {proc.returncode}")
    result = json.loads(stdout.decode().splitlines()[-1])

    try:
        accepted = _expected_digests(ops, pinned)
    except KeyError as err:
        return _fail(str(err.args[0]))
    attempted = failed = unknown = mismatched = 0
    problems: dict = {}
    exhausted: dict = {}
    for record in result["passes"] + result["traced_passes"]:
        for name, status, info, seconds, nodes in record["ops"]:
            attempted += 1
            if status == "ok" and info not in accepted[name]:
                mismatched += 1
                status, info = "error", "answer differs from the pinned digest"
            if status == "error":
                failed += 1
                problems.setdefault(name, info)
            elif status == "unknown":
                unknown += 1
            if nodes:
                # an "ok" operation with nodes ran an exhausted search
                # inside it (corpus run-all), so it has no rate of its own
                entry = exhausted.setdefault(name, {
                    "nodes": nodes, "seconds": [],
                    "whole_operation": status == "unknown"})
                entry["seconds"].append(seconds)
    op_seconds = {}
    for record in result["passes"]:
        for name, _, _, seconds, _ in record["ops"]:
            op_seconds.setdefault(name, []).append(seconds)
    for entry in exhausted.values():
        entry["seconds"] = median(entry["seconds"])
        if entry.pop("whole_operation"):
            entry["nodes_per_s"] = entry["nodes"] / entry["seconds"]

    walls = [p["wall"] for p in result["passes"]]
    if args.trace:
        measured = tracer.median_metrics(result["layer_metrics"])
        measured["cli.cold_start_s"] = median(cold)
        measured["trace.overhead_s"] = (
            median(p["wall"] for p in result["traced_passes"]) - median(walls))
        metrics = {name: measured[name] for name, _, _ in tracer.PER_LAYER}
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    else:
        rss_kb = (result["children_peak_rss_kb"]
                  if args.workload == "corpus-cli" else result["peak_rss_kb"])
        metrics = {
            "wall_s": median(walls),
            "cpu_s": median(p["cpu"] for p in result["passes"]),
            "setup_s": median(setup),
            "peak_rss_mb": rss_kb / 1024,
            "fail_frac": failed / attempted,
            "unknown_frac": unknown / attempted,
        }
        units = dict(END_TO_END)

    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "passes": len(result["passes"]),
        "traced_passes": len(result["traced_passes"]),
        "pass_walls_s": walls,
        "ops_per_pass": len(ops),
        "op_median_s": {name: median(v) for name, v in op_seconds.items()},
        "failures": problems,
        "budget_exhausted": exhausted,
        "spec_digests": result["spec_digests"],
        "disk_note": DISK_NOTE,
    }
    final = {
        "correct": mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    tag = workloads.run_tag(args.workload, args.seed, args.trace)
    with open(os.path.join(out_root, f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": final}, fh, indent=2)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({"meta": meta}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
