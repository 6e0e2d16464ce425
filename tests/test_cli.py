import json
import os
import subprocess
import sys

import pytest

from spacelab import cli
from spacelab.cli import main
from spacelab.psets import MAX_SPEC_DEPTH


M2 = '{"type":"multiples","k":2}'
CO3 = '{"type":"complement","of":{"type":"multiples","k":3}}'
SQUARES = '{"type":"squares"}'
# no three integers have pairwise odd differences, and the rooted chain
# search takes 15,001 nodes to say so, so a budget of 1000 runs out
ODDS = '{"type":"complement","of":{"type":"multiples","k":2}}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lang_count_bare_number(capsys):
    code, out, err = run_cli(capsys, "lang", "count", "--spec", M2,
                             "--n", "4", "--mode", "naive")
    assert code == 0
    assert out == "7\n"
    assert err == ""


def test_lang_count_modes_agree(capsys):
    _, naive, _ = run_cli(capsys, "lang", "count", "--spec", CO3,
                          "--n", "10", "--mode", "naive")
    _, opt, _ = run_cli(capsys, "lang", "count", "--spec", CO3,
                        "--n", "10", "--mode", "optimized")
    assert naive == opt


@pytest.mark.parametrize("cmd", ["count", "maxones"])
def test_lang_deeper_than_the_stack(capsys, cmd):
    code, out, err = run_cli(capsys, "lang", cmd, "--spec",
                             '{"type":"multiples","k":1}', "--n", "1500")
    assert code == 0
    assert err == ""
    if cmd == "count":
        assert out == f"{2 ** 1500}\n"
    else:
        assert json.loads(out)["ones"] == list(range(1500))


def test_detect_delta_witness_shape(capsys):
    code, out, _ = run_cli(capsys, "detect", "delta", "--spec", SQUARES,
                           "--depth", "3", "--bound", "100")
    assert code == 0
    assert json.loads(out) == {"kind": "delta_chain", "S": [1, 10, 26],
                               "verified": True, "depth": 3, "bound": 100}


def test_detect_verify_flag(capsys):
    code, out, _ = run_cli(capsys, "detect", "ip", "--spec", M2,
                           "--depth", "2", "--bound", "10", "--verify")
    assert code == 0
    body, tail = out.rsplit("\n", 2)[0], out.strip().splitlines()[-1]
    assert json.loads(body)["A"] == [2, 4]
    assert tail == "verified"


def test_detect_ip_full_shift_verifies(capsys):
    # the 500 generators 1..500 have 2^500 subsets and sums up to the
    # bound 125,250 = H; the re-check tests them in one mask inclusion
    code, out, err = run_cli(capsys, "detect", "ip", "--spec",
                             '{"type":"multiples","k":1}', "--depth", "500",
                             "--bound", "125250", "--verify")
    assert (code, err) == (0, "")
    body, tail = out.rstrip("\n").rsplit("\n", 1)
    assert json.loads(body)["A"] == list(range(1, 501))
    assert tail == "verified"


def test_detect_none_result(capsys):
    code, out, _ = run_cli(capsys, "detect", "ip", "--spec",
                           '{"type":"explicit","elems":[3]}',
                           "--depth", "2", "--bound", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "none"
    assert payload["kind"] == "ip_generator"


def test_budget_exit_code(capsys):
    code, out, err = run_cli(capsys, "detect", "delta", "--spec", ODDS,
                             "--depth", "3", "--bound", "30000",
                             "--budget", "1000")
    assert code == 3
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "budget"
    assert payload["error"]["nodes"] == 1001


def test_memory_error_exit_code(capsys, monkeypatch):
    def build_pset(spec, horizon):
        raise MemoryError

    monkeypatch.setattr(cli, "build_pset", build_pset)
    code, out, err = run_cli(capsys, "lang", "count", "--spec", M2,
                             "--n", "3")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"]["type"] == "memory"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="address-space limit via setrlimit")
def test_huge_horizon_under_memory_limit_exits_3():
    import resource

    def limit_address_space():
        cap = 800 * 2 ** 20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "spacelab.cli", "pset", "density", "--spec",
         M2, "--horizon", "3000000000", "--window-grid", "4"],
        capture_output=True, text=True, preexec_fn=limit_address_space)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["type"] == "memory"


# one spec of every kind other than the squares
NOT_SQUARES = [
    '{"type":"explicit","elems":[1,4]}', M2, '{"type":"fs","gens":[1,2]}',
    '{"type":"delta","seq":[1,3,7]}', '{"type":"diffset","set":[2,5]}',
    '{"type":"bohr","alpha":0.5,"interval":[0.1,0.2]}', CO3,
    '{"type":"union","of":[%s,%s]}' % (M2, CO3),
    '{"type":"intersect","of":[%s,%s]}' % (M2, CO3),
]
HUGE = str(10 ** 20)
TOO_LONG = {"message": f"horizon must be at most {sys.maxsize}",
            "type": "validation"}


@pytest.mark.parametrize("spec", NOT_SQUARES)
def test_horizon_past_maxsize_exits_2(capsys, spec):
    code, out, err = run_cli(capsys, "lang", "count", "--spec", spec,
                             "--n", "4", "--horizon", HUGE)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == TOO_LONG


@pytest.mark.parametrize("argv", [
    ["lang", "count", "--spec", M2, "--n", HUGE],
    ["pset", "density", "--spec", M2, "--horizon", HUGE,
     "--window-grid", "4"],
    ["detect", "delta", "--spec", M2, "--depth", "2", "--bound", HUGE],
])
def test_default_or_given_horizon_past_maxsize_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == TOO_LONG


@pytest.mark.parametrize("size", [["--n", "4", "--horizon", HUGE],
                                  ["--n", HUGE]])
def test_squares_horizon_past_maxsize_exits_2(size):
    # squares would first loop over the 10^10 roots below the horizon;
    # a child process with a timeout turns that hang into a failure
    proc = subprocess.run(
        [sys.executable, "-m", "spacelab.cli", "lang", "count", "--spec",
         SQUARES, *size], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert json.loads(proc.stderr)["error"] == TOO_LONG


@pytest.mark.parametrize("value", ["1", "abc"])
def test_budget_ignores_environment(capsys, monkeypatch, value):
    # the budget comes from --budget or the default alone, so a variable
    # that once set it changes no byte of the run
    argv = ("detect", "delta", "--spec", SQUARES, "--depth", "3",
            "--bound", "100")
    expected = run_cli(capsys, *argv)
    monkeypatch.setenv("SPACELAB_BUDGET", value)
    assert run_cli(capsys, *argv) == expected
    assert expected[0] == 0


def test_validation_exit_code(capsys):
    code, out, err = run_cli(capsys, "lang", "count", "--spec",
                             "missing-file.json", "--n", "3")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "validation"


def test_spec_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "lang", "count", "--spec",
                           '{"type":"mystery"}', "--n", "3")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "spec"


@pytest.mark.parametrize("option", ["--spec", "--other"])
@pytest.mark.parametrize("content, kind", [(b"\xff\xfe{}", "spec"),
                                           (None, "validation")])
def test_unreadable_spec_file(capsys, tmp_path, option, content, kind):
    # a file that is not UTF-8, or a directory where a file is expected
    if content is None:
        path = tmp_path
    else:
        path = tmp_path / "spec.json"
        path.write_bytes(content)
    specs = {"--spec": M2, "--other": M2, option: str(path)}
    code, out, err = run_cli(capsys, "detect", "intersect",
                             "--spec", specs["--spec"],
                             "--other", specs["--other"], "--horizon", "10")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == kind


@pytest.mark.parametrize("out", ["file", "file/sub", "", "taken", "held"])
def test_unwritable_out_exits_2(capsys, tmp_path, out):
    # a file where the report directory should be, a path under a file,
    # no path at all, or a directory where the report or the manifest
    # written after it should be: nothing is printed and nothing written
    # is left behind, not even a temp file
    (tmp_path / "file").write_text("kept")
    (tmp_path / "taken" / "count.json").mkdir(parents=True)
    (tmp_path / "held" / "manifest.json").mkdir(parents=True)
    code, stdout, err = run_cli(capsys, "lang", "count", "--spec", SQUARES,
                                "--n", "3", "--out",
                                out and str(tmp_path / out))
    assert (code, stdout) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["type"] == "validation"
    assert not list(tmp_path.rglob("*.tmp"))
    assert sorted(p.relative_to(tmp_path).as_posix()
                  for p in tmp_path.rglob("*")) == [
        "file", "held", "held/manifest.json", "taken", "taken/count.json"]
    assert (tmp_path / "file").read_text() == "kept"


def test_noncanonical_point_name_exits_2(capsys, tmp_path):
    # int() reads the Arabic-Indic digit as 8, and the ASCII report
    # could not hold the name
    code, out, err = run_cli(capsys, "dyn", "fstat", "--spec", CO3,
                             "--horizon", "64", "--x", "greedy", "--y",
                             "maxones:\u0668", "--l", "0", "--n-grid", "16",
                             "--out", str(tmp_path / "fstat"))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "type": "validation", "message": "bad maxones window: '\u0668'"}


def nested_spec(levels, kind):
    """JSON text of `levels` nested nodes around the multiples of 2, built
    as text so that writing it needs no recursion."""
    if kind == "complement":
        opener, closer = '{"type":"complement","of":', "}"
    else:
        opener, closer = f'{{"type":"{kind}","of":[', "]}"
    return opener * (levels - 1) + M2 + closer * (levels - 1)


def spec_argument(text, source, tmp_path):
    if source == "inline":
        return text
    path = tmp_path / "spec.json"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("source", ["inline", "file"])
@pytest.mark.parametrize("kind, count", [("complement", "6"),
                                         ("union", "5")])
def test_spec_at_the_nesting_cap(capsys, tmp_path, source, kind, count):
    spec = spec_argument(nested_spec(MAX_SPEC_DEPTH, kind), source, tmp_path)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "lang", "count", "--spec", spec,
                             "--n", "3", "--out", str(out_dir))
    assert (code, out, err) == (0, f"{count}\n", "")
    assert sorted(p.name for p in out_dir.iterdir()) == ["count.json",
                                                          "manifest.json"]


@pytest.mark.parametrize("source", ["inline", "file"])
@pytest.mark.parametrize("levels", [MAX_SPEC_DEPTH + 1, 1200])
def test_spec_nested_too_deeply(capsys, tmp_path, source, levels):
    spec = spec_argument(nested_spec(levels, "complement"), source, tmp_path)
    code, out, err = run_cli(capsys, "lang", "count", "--spec", spec,
                             "--n", "3")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "spec"


@pytest.mark.parametrize("argv", [
    ["lang", "count", "--spec", M2, "--n", "3"],
    ["lang", "entropy", "--spec", M2, "--n-grid", "4"],
    ["lang", "maxones", "--spec", M2, "--n", "3"],
    ["lang", "transitive", "--spec", M2, "--word-len", "2", "--gap-cap", "2"],
    ["detect", "delta", "--spec", SQUARES, "--depth", "2", "--bound", "10"],
    ["detect", "ip", "--spec", SQUARES, "--depth", "2", "--bound", "10"],
    ["detect", "ipip", "--spec", SQUARES, "--depth", "2", "--bound", "10"],
])
def test_zero_horizon_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--horizon", "0")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "validation"


@pytest.mark.parametrize("argv, message", [
    (["lang", "entropy", "--spec", M2, "--n-grid", "0"],
     "grid lengths must be positive integers"),
    (["lang", "transitive", "--spec", M2, "--word-len", "0",
      "--gap-cap", "0"], "word_len_cap must be >= 1"),
    (["detect", "delta", "--spec", SQUARES, "--depth", "2", "--bound", "0"],
     "search bound must be a positive integer"),
    # the default horizon is read from the grid, which is checked first
    (["lang", "entropy", "--spec", M2, "--n-grid", "4,x"],
     "--n-grid must be comma-separated integers"),
    (["lang", "entropy", "--spec", M2, "--n-grid", ","],
     "--n-grid must be nonempty"),
])
def test_default_horizon_leaves_the_real_fault(capsys, argv, message):
    # without --horizon the default horizon is at least 1, so the error
    # names the option that is wrong rather than the horizon
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"message": message,
                                        "type": "validation"}


def test_inline_spec_not_json(capsys):
    code, out, err = run_cli(capsys, "lang", "count", "--spec", "{nope",
                             "--n", "3")
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert (error["type"], error["path"]) == ("spec", "")
    assert error["message"].startswith("inline spec is not valid JSON: ")


@pytest.mark.parametrize("argv, message", [
    (["pset", "density", "--spec", M2, "--horizon", "8",
      "--window-grid", "4;8"],
     "--window-grid must be comma-separated integers"),
    (["exp", "run", "delta-kills-density", "--param", "k"],
     "--param expects KEY=VALUE, got 'k'"),
    # a value that is not JSON is passed on as its text
    (["exp", "run", "delta-kills-density", "--param", "k=four"],
     "parameter k must be a JSON integer"),
    (["dyn", "fstat", "--spec", CO3, "--horizon", "16", "--x", "greedy",
      "--y", "random", "--n-grid", "8"],
     "random point generator needs a seed"),
    (["dyn", "proximal", "--spec", CO3, "--horizon", "16", "--x", "random",
      "--y", "zero", "--block", "2"], "random point generator needs a seed"),
    (["detect", "delta", "--spec", ODDS, "--depth", "3", "--bound", "30000",
      "--budget", "0"], "budget must be positive"),
    (["detect", "delta", "--spec", ODDS, "--depth", "3", "--bound", "30000",
      "--budget", "-3"], "budget must be positive"),
])
def test_bad_option_values_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"message": message,
                                        "type": "validation"}


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "bogus")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "usage"


def test_pset_density_files(capsys, tmp_path):
    out_dir = tmp_path / "dens"
    code, out, _ = run_cli(capsys, "pset", "density", "--spec", CO3,
                           "--horizon", "16", "--window-grid", "4,8",
                           "--out", str(out_dir), "--plot")
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["banach.csv", "density.json", "density.svg",
                     "manifest.json", "prefix.csv"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert sorted(manifest) == ["parameters", "spec_digests", "tool"]
    assert manifest["tool"]["name"] == "spacelab"
    assert manifest["parameters"]["horizon"] == 16
    assert len(manifest["spec_digests"]["spec"]) == 64
    assert json.loads(out)["prefix_final"] == "11/16"


def test_pset_density_without_out_builds_no_files(capsys, monkeypatch,
                                                  tmp_path):
    # the CSVs and the plot are built only to be written under --out
    argv = ["pset", "density", "--spec", CO3, "--horizon", "16",
            "--window-grid", "4,8", "--plot"]
    _, usual, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "dens"))

    def refuse(*args, **kwargs):
        raise AssertionError("report file built without --out")

    for name in ("density_prefix_csv", "density_banach_csv", "svg_line_plot"):
        monkeypatch.setattr(cli.reports, name, refuse)
    assert run_cli(capsys, *argv) == (0, usual, "")


def test_lang_entropy_csv(capsys):
    code, out, _ = run_cli(capsys, "lang", "entropy", "--spec", M2,
                           "--n-grid", "4,8,12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,c_n,h_n,omega_n,omega_over_n"
    assert lines[1] == "4,7,0.70183873051440104,2,1/2"
    assert lines[2] == "8,31,0.61927453879835936,4,1/2"
    assert lines[3] == "12,127,0.58239039056434716,6,1/2"


def test_lang_maxones(capsys):
    code, out, _ = run_cli(capsys, "lang", "maxones", "--spec",
                           '{"type":"multiples","k":3}', "--n", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 8, "omega": 3, "ones": [0, 3, 6],
                       "word": "10010010"}


def test_lang_transitive(capsys):
    spec = ('{"type":"union","of":[{"type":"multiples","k":3},'
            '{"type":"explicit","elems":[1,5]}]}')
    code, out, _ = run_cli(capsys, "lang", "transitive", "--spec", spec,
                           "--word-len", "3", "--gap-cap", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_pairs"] == 144
    assert payload["joinable_pairs"] == 135
    assert payload["least_failing"] == ["11", "11"]


def test_dyn_fstat_csv(capsys):
    code, out, _ = run_cli(capsys, "dyn", "fstat", "--spec", CO3,
                           "--horizon", "64", "--x", "greedy", "--y",
                           "zero", "--l", "0", "--n-grid", "16,32,64")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# l=0"
    assert lines[-1] == "64,61/64"


def test_detect_syndetic_empty_set(capsys):
    code, out, err = run_cli(capsys, "detect", "syndetic", "--spec",
                             '{"type":"explicit","elems":[]}',
                             "--horizon", "8")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"result": "none",
                               "reason": "set empty on horizon"}


def test_dyn_periodic_missing_multiple(capsys):
    code, out, err = run_cli(capsys, "dyn", "periodic", "--spec", CO3,
                             "--k", "3", "--horizon", "24")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"k": 3, "point": None, "failing_multiple": 3}


def test_dyn_periodic(capsys):
    code, out, _ = run_cli(capsys, "dyn", "periodic", "--spec",
                           '{"type":"multiples","k":3}', "--k", "3",
                           "--horizon", "24")
    assert code == 0
    assert json.loads(out)["admissible"] is True


def test_exp_run_param_override(capsys):
    code, out, _ = run_cli(capsys, "exp", "run", "delta-kills-density",
                           "--param", "k=4")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "consistent"
    assert payload["params"]["k"] == 4


def test_exp_run_candidate_set_override(capsys):
    code, out, err = run_cli(capsys, "exp", "run",
                             "positive-entropy-no-periodic", "--param",
                             "candidate_set=[1,2,4,8,16]")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["params"]["candidate_set"] == [1, 2, 4, 8, 16]
    assert "using user-supplied candidate set" in payload["notes"]


def test_exp_run_out_of_budget_writes_no_table(capsys, tmp_path):
    # the budget runs out before any table is made, so there is no CSV
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "exp", "run", "squares-zero-entropy",
                             "--budget", "10", "--plot", "--out",
                             str(out_dir))
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "inconclusive"
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "manifest.json", "squares-zero-entropy.json"]


def test_exp_run_plot_without_out_draws_nothing(capsys, monkeypatch):
    # --plot needs --out, as for the other commands: no SVG is built
    _, plain, _ = run_cli(capsys, "exp", "run", "zero-density-zero-entropy")
    calls = []
    draw = cli.reports.svg_line_plot

    def counted(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(cli.reports, "svg_line_plot", counted)
    code, out, err = run_cli(capsys, "exp", "run", "zero-density-zero-entropy",
                             "--plot")
    assert (code, out, err) == (0, plain, "")
    assert calls == []


def test_one_point_plot(capsys, tmp_path):
    # one n, and h_n = omega_n / n = 1 on the full shift: both axes have a
    # single value, and each is drawn over a span of one from it
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "lang", "entropy", "--spec",
                             '{"type":"multiples","k":1}', "--n-grid", "8",
                             "--plot", "--out", str(out_dir))
    assert (code, err) == (0, "")
    svg = (out_dir / "profile.svg").read_text()
    assert '<polyline fill="none" stroke="#1f6feb" stroke-width="1.5" ' \
        'points="60.00,350.00"/>' in svg
    assert '>9</text>' in svg and '>2</text>' in svg


@pytest.mark.parametrize("experiment, param", [
    ("delta-kills-density", "n_grid=[]"),
    ("delta-kills-density", "n_grid=5"),
    ("delta-kills-density", "n_grid=[0]"),
    ("delta-kills-density", "window_grid=5"),
    ("zero-density-zero-entropy", "n_grid=[0]"),
    ("zero-density-zero-entropy", "n_grid=[]"),
    ("density-entropy-bound", "n_grid=[0]"),
    ("entropy-iff-banach", "n_grid=[]"),
    ("entropy-iff-banach", "n_grid=[0]"),
    ("zero-entropy-proximal", 'block_grid=["a"]'),
    ("squares-zero-entropy", "n_grid=[]"),
    ("squares-zero-entropy", "n_grid=[0]"),
    ("positive-entropy-no-periodic", 'density_floor="x"'),
    ("positive-entropy-no-periodic", 'density_floor="1/0"'),
    ("positive-entropy-no-periodic", "forbidden=5"),
    ("positive-entropy-no-periodic", "omega_grid=[0]"),
    ("positive-entropy-no-periodic", "bohr_windows=5"),
    ("zero-density-zero-entropy", "k_grid=[]"),
    ("zero-entropy-proximal", "members=[]"),
    ("density-entropy-bound", "k_grid=[]"),
    ("high-density-trivial-dynamics", "k_grid=[]"),
])
def test_exp_run_bad_param_exits_2(capsys, experiment, param):
    code, out, err = run_cli(capsys, "exp", "run", experiment,
                             "--param", param)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "validation"


def test_exp_run_rejects_unknown_id(capsys):
    code, _, err = run_cli(capsys, "exp", "run", "unknown-exp")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "usage"


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "spacelab.cli", "lang",
                           "count", "--spec", M2, "--n", "4"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "7\n"
