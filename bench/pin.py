"""Regenerate ``pinned.json``: the accepted answer digests of every fixed
operation.

    python3 bench/pin.py

Runs each workload once and compares every answer with the independent
oracle in ``oracle.py`` wherever one exists; it refuses to pin an answer
the oracle contradicts.  Where no cheap oracle exists (exact counts and
max-ones near the wall), the library's answer is pinned as it stands,
after its max-ones witnesses pass a pairwise re-check.
Operations that fail or run out of budget today are pinned to the exact
answer (the oracle's, or for a budgeted count the library's without the
budget), so a fix is checked the day it lands.  Re-pin only when
an answer is meant to change, and say why.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile

import oracle
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = workloads.ROOT


def run_once(workload: str) -> dict:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_pin-") as work:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
             workload, "--seed", "0", "--seconds", "0",
             "--work", os.path.join(work, "out")],
            cwd=ROOT, env=workloads.child_env(), capture_output=True,
            check=True)
    record = json.loads(proc.stdout.decode().splitlines()[-1])["passes"][0]
    return {name: (status, info) for name, status, info, _, _ in record["ops"]}


def run_all_variants(ok_digest: str) -> list:
    """run-all's deep search may end as "don't know" or, if it completes,
    as "none" (the oracle finds no depth-5 chain of squares up to 30000)."""
    depth5 = oracle.least_chain(oracle.members({"type": "squares"}, 30_000),
                                5, 30_000)
    assert depth5 is None
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_pin-") as work:
        out_dir = os.path.join(work, "out")
        argv = [a if a != workloads.OUT else out_dir
                for a in dict(workloads.CLI_BATCH)["corpus.run-all"]]
        proc = subprocess.run([sys.executable, "-m", "spacelab.cli", *argv],
                              cwd=ROOT, env=workloads.child_env(),
                              capture_output=True, check=True)
        files, _ = workloads.read_outputs(out_dir)
    answer = ("cli", 0, proc.stdout, proc.stderr, files)
    assert oracle.digest(answer) == ok_digest
    none = tuple((name, data.replace(b'"depth-5 search: unknown"',
                                     b'"depth-5 search: none"'))
                 for name, data in files)
    return [ok_digest, oracle.digest(("cli", 0, proc.stdout, proc.stderr,
                                      none))]


def library_answer(op: workloads.Op):
    """The library's answer in this process, without the op's budget."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spacelab
    import worker

    a = op.args
    view = spacelab.build_pset(spacelab.load_member(a["member"]), a["n"])
    if op.kind == "count":
        return worker.answer("count", spacelab.count_words(view, a["n"]))
    omega, config = spacelab.max_ones(view, a["n"])
    # the witness is re-checked pairwise against the set's own elements
    elems = oracle.members(workloads.member_json(a["member"]), a["n"])
    if len(config.ones) != omega or not oracle.pairwise_ok(config.ones, elems):
        raise SystemExit(f"{op.name}: witness fails the pairwise re-check")
    return worker.answer("maxones", (omega, config))


def pin(workload: str) -> dict:
    results = run_once(workload)
    pinned = {}
    for op in workloads.operations(workload, 0):
        if op.seeded:
            continue
        status, info = results[op.name]
        truth = workloads.expected(op)
        if truth is None and op.kind in ("count", "maxones"):
            truth = library_answer(op)
        if truth is not None:
            want = oracle.digest(truth)
            if status == "ok" and info != want:
                raise SystemExit(f"{op.name}: library and oracle disagree")
            pinned[op.name] = [want]
        elif status == "ok":
            pinned[op.name] = [info]
        else:
            raise SystemExit(f"{op.name}: {status} {info} and no oracle")
        if op.name == "corpus.run-all":
            pinned[op.name] = run_all_variants(info)
        print(f"{workload} {op.name}: {status}")
    return pinned


def main() -> int:
    out = {"python": platform.python_version(),
           "workloads": {w: pin(w) for w in workloads.WORKLOADS}}
    with open(os.path.join(HERE, "pinned.json"), "w", encoding="ascii") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
