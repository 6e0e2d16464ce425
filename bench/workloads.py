"""The benchmark's workloads as plain data, and their expected answers.

A workload is a fixed list of operations.  Each operation is an
``Op(name, kind, args)`` record that says what to call, not how: the
worker turns it into a call into spacelab, and :func:`expected` turns it
into the answer an independent oracle gives.  Nothing here imports
spacelab, so the parent process can check results without loading the
program it measures.

Workloads
---------
lang-wall
    Exact counting and max-ones near the wall on ``co_squares``, plus the
    structured members at n = 512 where the memo stays small.  All the
    work is in ``language``; ``psets`` does almost none of it.
long-horizon
    Linear scans and deep lookups over horizons of 10^4 to 10^5 in
    ``psets``, ``detect``, ``dynamics`` and ``language``; no counting.
corpus-cli
    The command line end to end: ``corpus run-all`` and one or more
    invocations of every subcommand, one child process at a time.

``--seed`` drives the ``random_point`` seed of long-horizon and the small
random specs added to the corpus-cli batch; lang-wall has no random input.
"""

from __future__ import annotations

import json
import os
import random
import re
from typing import NamedTuple

import oracle

WORKLOADS = ("lang-wall", "long-horizon", "corpus-cli")

# the checkout this benchmark sits in; results and spans go to OUT_ROOT
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_ROOT = os.path.join(ROOT, ".bench_out")


def run_tag(workload: str, seed: int, trace: int) -> str:
    return f"{workload}-seed{seed}-trace{trace}"


def spans_path(workload: str, seed: int) -> str:
    """Where a traced run writes its spans as JSON lines."""
    return os.path.join(OUT_ROOT, f"spans-{run_tag(workload, seed, 1)}.jsonl")


def child_env() -> dict:
    """Environment of every child that runs spacelab: the checkout's
    sources on the path and no budget override from the caller."""
    env = dict(os.environ)
    env.pop("SPACELAB_BUDGET", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


class Op(NamedTuple):
    name: str
    kind: str
    args: dict
    seeded: bool = False


# -- lang-wall ---------------------------------------------------------------

def _lang_wall() -> list:
    ops = [
        Op("count_words:co_squares:64", "count", {"member": "co_squares", "n": 64}),
        Op("count_words:co_squares:68", "count", {"member": "co_squares", "n": 68}),
        Op("max_ones:co_squares:64", "maxones", {"member": "co_squares", "n": 64}),
        Op("max_ones:co_squares:80", "maxones", {"member": "co_squares", "n": 80}),
        Op("entropy_profile:co_squares", "entropy",
           {"member": "co_squares", "grid": [16, 32, 48, 64]}),
    ]
    for member in ("bohr_golden_quarter", "co_multiples_5", "multiples_2",
                   "union_m3_p15"):
        ops.append(Op(f"count_words:{member}:512", "count",
                      {"member": member, "n": 512}))
        ops.append(Op(f"max_ones:{member}:512", "maxones",
                      {"member": member, "n": 512}))
    # "don't know" today: the memo needs more nodes than this budget
    ops.append(Op("count_words:co_squares:72:budget", "count",
                  {"member": "co_squares", "n": 72, "budget": 300_000}))
    # known defect: the recursive clique counter overflows the stack
    ops.append(Op("count_words:full_shift:1200", "count",
                  {"member": "full_shift", "n": 1200}))
    return ops


# -- long-horizon ------------------------------------------------------------

BIG = 100_000
ORBIT = 8_000
BOHR_PROBE = (0.41421356237309515, (0.25, 0.5))


def _long_horizon(seed: int) -> list:
    rng = random.Random(f"long-horizon:{seed}")
    point_seed = rng.randrange(2 ** 32)
    ops = [Op(f"build_pset:{m}:{BIG}", "build", {"member": m, "horizon": BIG})
           for m in ("squares", "co_squares", "multiples_3",
                     "bohr_golden_quarter", "union_m3_p15",
                     "intersect_co2_co3")]
    grid = [16, 256, 4096]
    ops += [
        Op(f"density_report:squares:{BIG}", "density",
           {"member": "squares", "horizon": BIG, "grid": grid}),
        Op(f"density_report:bohr_golden_quarter:{BIG}", "density",
           {"member": "bohr_golden_quarter", "horizon": BIG, "grid": grid}),
        Op(f"syndetic_gap:squares:{BIG}", "syndetic",
           {"member": "squares", "horizon": BIG}),
        Op(f"thick_run:co_squares:{BIG}", "thick",
           {"member": "co_squares", "horizon": BIG}),
        Op(f"intersective_refute:squares:multiples_3:{BIG}", "intersect",
           {"e": "squares", "a": "multiples_3", "horizon": BIG}),
        Op(f"check_bohr_avoidance:co_squares:{BIG}", "bohr",
           {"member": "co_squares", "horizon": BIG, "alpha": BOHR_PROBE[0],
            "interval": list(BOHR_PROBE[1])}),
        Op(f"greedy_point:multiples_2:{ORBIT}", "greedy",
           {"member": "multiples_2", "horizon": ORBIT}),
        Op(f"is_admissible:multiples_2:{ORBIT}", "admissible",
           {"member": "multiples_2", "horizon": ORBIT, "step": 2}),
        Op(f"random_point:multiples_2:{ORBIT}", "random_point",
           {"member": "multiples_2", "horizon": ORBIT, "seed": point_seed},
           seeded=True),
        Op(f"periodic_point_check:multiples_2:{ORBIT}", "periodic",
           {"member": "multiples_2", "k": 2, "horizon": ORBIT}),
        Op(f"make_point:multiples_2:maxones:64:{ORBIT}", "make_point",
           {"member": "multiples_2", "name": "maxones:64", "horizon": ORBIT}),
        Op(f"f_statistic:multiples_2:{ORBIT}", "fstat",
           {"member": "multiples_2", "horizon": ORBIT, "seed": point_seed,
            "l": 2, "grid": [100, 1000, 4000, 7990]}, seeded=True),
        Op(f"proximal_probe:multiples_2:{ORBIT}", "proximal",
           {"member": "multiples_2", "horizon": ORBIT, "seed": point_seed,
            "block": 6}, seeded=True),
        Op("greedy_point:full_shift:4000", "greedy",
           {"member": "full_shift", "horizon": 4000}),
        # "don't know" today: the chain search runs out of budget
        Op("find_delta_chain:squares:4:30000:budget", "chain",
           {"member": "squares", "depth": 4, "bound": 30_000,
            "horizon": 30_000, "budget": 2_000_000}),
        # known defect: the recursive chain search overflows the stack
        Op("find_delta_chain:full_shift:1200", "chain",
           {"member": "full_shift", "depth": 1200, "bound": 1500,
            "horizon": 1500}),
    ]
    return ops


# -- corpus-cli --------------------------------------------------------------

def _spec(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


M1 = {"type": "multiples", "k": 1}
M2 = {"type": "multiples", "k": 2}
M3 = {"type": "multiples", "k": 3}
SQ = {"type": "squares"}
CO2 = {"type": "complement", "of": M2}
CO3 = {"type": "complement", "of": M3}
CO_SQ = {"type": "complement", "of": SQ}
DIFFSET_FS = {"type": "diffset", "set": list(range(1, 32))}

OUT = "{out}"

# (name, argv); OUT is replaced by a fresh directory for every invocation
CLI_BATCH = [
    ("corpus.run-all", ["corpus", "run-all", "--out", OUT]),
    ("pset.density", ["pset", "density", "--spec", _spec(SQ), "--horizon",
                      "400", "--window-grid", "8,16,32", "--plot",
                      "--out", OUT]),
    ("detect.delta", ["detect", "delta", "--spec", _spec(SQ), "--depth", "3",
                      "--bound", "100", "--verify", "--out", OUT]),
    ("detect.ip", ["detect", "ip", "--spec", _spec(M2), "--depth", "3",
                   "--bound", "64", "--verify", "--out", OUT]),
    ("detect.ipip", ["detect", "ipip", "--spec", _spec(DIFFSET_FS),
                     "--depth", "3", "--bound", "31", "--verify",
                     "--out", OUT]),
    ("detect.syndetic", ["detect", "syndetic", "--spec", _spec(SQ),
                         "--horizon", "256", "--out", OUT]),
    ("detect.thick", ["detect", "thick", "--spec", _spec(CO_SQ),
                      "--horizon", "256", "--out", OUT]),
    ("detect.intersect", ["detect", "intersect", "--spec", _spec(SQ),
                          "--other", _spec(M3), "--horizon", "256",
                          "--verify", "--out", OUT]),
    ("lang.count", ["lang", "count", "--spec", _spec(CO3), "--n", "24",
                    "--out", OUT]),
    ("lang.count-naive", ["lang", "count", "--spec", _spec(CO3), "--n", "12",
                          "--mode", "naive", "--out", OUT]),
    ("lang.entropy", ["lang", "entropy", "--spec", _spec(CO_SQ), "--n-grid",
                      "8,16,24", "--plot", "--out", OUT]),
    ("lang.maxones", ["lang", "maxones", "--spec", _spec(CO_SQ), "--n", "32",
                      "--out", OUT]),
    ("lang.greedy", ["lang", "greedy", "--spec", _spec(M2), "--horizon",
                     "256", "--out", OUT]),
    ("lang.transitive", ["lang", "transitive", "--spec", _spec(DIFFSET_FS),
                         "--word-len", "3", "--gap-cap", "6", "--out", OUT]),
    ("dyn.fstat", ["dyn", "fstat", "--spec", _spec(CO2), "--horizon", "256",
                   "--x", "greedy", "--y", "maxones:8", "--l", "1",
                   "--n-grid", "16,64,128,250", "--plot", "--out", OUT]),
    ("dyn.proximal", ["dyn", "proximal", "--spec", _spec(CO3), "--horizon",
                      "256", "--x", "greedy", "--y", "zero", "--block", "8",
                      "--out", OUT]),
    ("dyn.periodic", ["dyn", "periodic", "--spec", _spec(M2), "--k", "2",
                      "--horizon", "256", "--out", OUT]),
    ("exp.run", ["exp", "run", "delta-kills-density", "--out", OUT]),
    # contract: an invalid spec exits 2 with JSON on stderr
    ("lang.count-invalid", ["lang", "count", "--spec",
                            _spec({"type": "multiples", "k": 0}), "--n", "4"]),
    # "don't know": exit 3 with JSON on stderr
    ("detect.delta-budget", ["detect", "delta", "--spec", _spec(SQ),
                             "--depth", "5", "--bound", "30000",
                             "--budget", "200000"]),
    # known defect: RecursionError traceback and exit 1
    ("lang.count-deep", ["lang", "count", "--spec", _spec(M1),
                         "--n", "1500"]),
]

RANDOM_SPECS = 4


def _random_spec(rng: random.Random, depth: int = 0) -> dict:
    kinds = ["multiples", "squares", "explicit", "fs", "delta", "diffset",
             "bohr"]
    if depth < 2:
        kinds += ["complement", "union", "intersect"]
    kind = rng.choice(kinds)
    if kind == "multiples":
        return {"type": "multiples", "k": rng.randint(1, 5)}
    if kind == "squares":
        return {"type": "squares"}
    if kind in ("explicit", "delta", "diffset"):
        values = sorted(rng.sample(range(1, 13), rng.randint(1, 6)))
        key = {"explicit": "elems", "delta": "seq", "diffset": "set"}[kind]
        return {"type": kind, key: values}
    if kind == "fs":
        return {"type": "fs", "gens": sorted(rng.sample(range(1, 7), 2))}
    if kind == "bohr":
        lo = rng.choice([0.0, 0.25, 0.5])
        return {"type": "bohr", "alpha": rng.randint(1, 99) / 100,
                "interval": [lo, lo + 0.5]}
    if kind == "complement":
        return {"type": "complement", "of": _random_spec(rng, depth + 1)}
    return {"type": kind, "of": [_random_spec(rng, depth + 1)
                                 for _ in range(2)]}


_INVALID_SPECS = [
    {"type": "multiples", "k": 0},
    {"type": "explicit", "elems": [5, 3]},
    {"type": "fs", "gens": []},
    {"type": "complement"},
    {"type": "bohr", "alpha": 1.5, "interval": [0.0, 0.5]},
    {"type": "no-such-kind"},
]


def _corpus_cli(seed: int) -> list:
    ops = [Op(name, "cli", {"argv": argv}) for name, argv in CLI_BATCH]
    rng = random.Random(f"corpus-cli:{seed}")
    for i in range(RANDOM_SPECS):
        spec = _random_spec(rng)
        n = rng.randint(6, 12)
        cmd = "count" if i % 2 == 0 else "maxones"
        ops.append(Op(f"random.lang.{cmd}.{i}", "cli",
                      {"argv": ["lang", cmd, "--spec", _spec(spec),
                                "--n", str(n)],
                       "spec": spec, "n": n}, seeded=True))
    bad = rng.choice(_INVALID_SPECS)
    ops.append(Op("random.lang.count.invalid", "cli",
                  {"argv": ["lang", "count", "--spec", _spec(bad), "--n",
                            str(rng.randint(1, 12))], "error": "spec"},
                  seeded=True))
    return ops


def operations(workload: str, seed: int) -> list:
    if workload == "lang-wall":
        return _lang_wall()
    if workload == "long-horizon":
        return _long_horizon(seed)
    if workload == "corpus-cli":
        return _corpus_cli(seed)
    raise ValueError(f"unknown workload {workload!r}")


# -- CLI answers -------------------------------------------------------------

_TIMESTAMP = re.compile(rb',\n  "timestamp": "[^"]*"')
_DEEP_NOTE = re.compile(rb'"depth-5 search[^"]*"')
_DEEP_NODES = re.compile(rb'"depth-5 search[^"]*?(\d+) nodes')


def _deep_class(match) -> bytes:
    # the only CLI text that may change: keep just its outcome class
    text = match.group(0)
    if b"budget" in text or b"exhausted" in text:
        return b'"depth-5 search: unknown"'
    if text.endswith(b'outcome: none"'):
        return b'"depth-5 search: none"'
    return text


def read_outputs(out_dir: str) -> tuple:
    """((name, bytes) of every file a CLI run wrote, deep-search nodes).

    The files are normalized: the manifest loses its timestamp and the
    deep-search note keeps only its outcome class; the node count it
    reported is returned on the side (None when it reported none).
    """
    if not os.path.isdir(out_dir):
        return (), None
    files = []
    nodes = None
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name == "manifest.json":
            data = _TIMESTAMP.sub(b"", data)
        elif name == "squares-zero-entropy.json":
            found = _DEEP_NODES.search(data)
            nodes = found and int(found.group(1))
            data = _DEEP_NOTE.sub(_deep_class, data)
        files.append((name, data))
    return tuple(files), nodes


def json_error(stderr: bytes):
    """The error object of a JSON stderr line, or None."""
    try:
        obj = json.loads(stderr.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    if isinstance(obj, dict) and isinstance(obj.get("error"), dict):
        return obj["error"]
    return None


def cli_outcome(op: Op, code: int, out: bytes, err: bytes, out_dir: str):
    """Classify one CLI run: (outcome, answer, nodes).

    Exit 3 with JSON stderr is "don't know"; exit 0, or 2 with JSON
    stderr, is an answer; anything else breaks the CLI contract.
    """
    if code not in (0, 2, 3):
        return "error", f"exit {code}", None
    error = json_error(err) if code else None
    if code and error is None:
        return "error", f"exit {code} without JSON on stderr", None
    if code == 3:
        return "unknown", None, error.get("nodes")
    if "error" in op.args:
        return "ok", ("cli-error", code, error and error.get("type")), None
    files, nodes = read_outputs(out_dir)
    return "ok", ("cli", code, out, err, files), nodes


# -- expected answers --------------------------------------------------------

def member_json(name: str) -> dict:
    path = os.path.join(ROOT, "src", "spacelab", "corpus", f"{name}.json")
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def expected(op: Op):
    """The oracle's answer for `op`, or None where no cheap oracle exists."""
    a = op.args
    k = op.kind

    def elems(name, horizon):
        return oracle.members(member_json(name), horizon)

    if k == "count" and a["member"] == "full_shift":
        return 2 ** a["n"]
    if k == "count" and a["member"] == "multiples_2":
        return oracle.multiples_count(2, a["n"])
    if k == "maxones" and a["member"] == "multiples_2":
        ones = tuple(range(0, a["n"], 2))
        return ("maxones", len(ones), oracle.config_answer(a["n"], ones))
    if k == "build":
        return oracle.view_answer(member_json(a["member"]), a["horizon"])
    if k == "density":
        return oracle.density_answer(elems(a["member"], a["horizon"]),
                                     a["horizon"], a["grid"])
    if k == "syndetic":
        return oracle.syndetic_answer(elems(a["member"], a["horizon"]),
                                      a["horizon"])
    if k == "thick":
        return oracle.thick_answer(elems(a["member"], a["horizon"]),
                                   a["horizon"])
    if k == "intersect":
        return oracle.intersect_answer(elems(a["e"], a["horizon"]),
                                       elems(a["a"], a["horizon"]),
                                       a["horizon"])
    if k == "bohr":
        return oracle.bohr_answer(elems(a["member"], a["horizon"]),
                                  a["alpha"], a["interval"], a["horizon"])
    if k in ("greedy", "random_point", "fstat", "proximal"):
        h = a["horizon"]
        t = oracle.table(elems(a["member"], h), h)
        if k == "greedy":
            return oracle.config_answer(h, oracle.greedy_ones(t, h))
        ones = oracle.greedy_ones(t, h, a["seed"])
        label = f"random:{a['seed']}"
        if k == "random_point":
            return oracle.point_answer(label, True, h, ones)
        greedy = oracle.greedy_ones(t, h)
        if k == "fstat":
            return oracle.fstat_answer(greedy, ones, a["l"], a["grid"],
                                       "greedy", label)
        return oracle.proximal_answer(greedy, ones, h, a["block"])
    if k == "admissible":
        return oracle.pairwise_ok(range(0, a["horizon"], a["step"]),
                                  elems(a["member"], a["horizon"]))
    if k == "periodic":
        h, step = a["horizon"], a["k"]
        p = elems(a["member"], h)
        missing = [m for m in range(step, h + 1, step) if m not in p]
        if missing:
            return ("periodic", None, missing[0])
        ones = range(0, h, step)
        return ("periodic", oracle.point_answer(
            f"periodic:{step}", oracle.pairwise_ok(ones, p), h, ones), None)
    if k == "make_point" and a["member"] == "multiples_2":
        n = int(a["name"].split(":")[1])
        ones = tuple(range(0, n, 2))
        return oracle.point_answer(a["name"], True, a["horizon"], ones)
    if k == "chain":
        chain = oracle.least_chain(elems(a["member"], a["horizon"]),
                                   a["depth"], a["bound"])
        return oracle.chain_answer(chain, a["depth"], a["bound"])
    if k == "cli":
        return _expected_cli(op)
    return None


def _expected_cli(op: Op):
    a = op.args
    if "error" in a:
        return ("cli-error", 2, a["error"])
    if "spec" in a:
        p = oracle.members(a["spec"], a["n"])
        if a["argv"][1] == "count":
            out = f"{oracle.brute_count(p, a['n'])}\n"
        else:
            omega, ones = oracle.brute_max_ones(p, a["n"])
            word = "".join("1" if i in ones else "0" for i in range(a["n"]))
            out = json.dumps({"n": a["n"], "omega": omega, "ones": list(ones),
                              "word": word}, indent=2, sort_keys=True) + "\n"
        return ("cli", 0, out.encode("ascii"), b"", ())
    argv = a["argv"]
    if argv[:2] == ["lang", "count"] and "--out" not in argv:
        # only closed forms: the full shift admits every word
        spec = json.loads(argv[argv.index("--spec") + 1])
        n = int(argv[argv.index("--n") + 1])
        if spec == M1:
            return ("cli", 0, f"{2 ** n}\n".encode("ascii"), b"", ())
    if argv[:2] == ["detect", "delta"] and "--out" not in argv:
        spec = json.loads(argv[argv.index("--spec") + 1])
        depth = int(argv[argv.index("--depth") + 1])
        bound = int(argv[argv.index("--bound") + 1])
        budget = int(argv[argv.index("--budget") + 1])
        chain = oracle.least_chain(oracle.members(spec, bound), depth, bound)
        if chain is None:
            payload = {"kind": "delta_chain", "result": "none", "depth": depth,
                       "bound": bound, "budget": budget, "horizon": bound}
            out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
            return ("cli", 0, out.encode("ascii"), b"", ())
    return None
