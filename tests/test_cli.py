import contextlib
import gc
import glob
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import affine_crystals
from affine_crystals import iso, quiver
from affine_crystals.cli import _json, main
from affine_crystals.linalg import gm_from_blocks
from affine_crystals.walls import total_content

from oracles import zero_wall_map

RUN = [sys.executable, "-m", "affine_crystals.cli"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(args, env_seed=None):
    env = dict(os.environ)
    env.pop("CRYSTAL_SEED", None)
    if env_seed is not None:
        env["CRYSTAL_SEED"] = str(env_seed)
    return subprocess.run(RUN + args, capture_output=True, text=True, env=env)


@pytest.mark.parametrize("args", [
    ["graph", "--crystal", "b1", "--n", "3", "--level", "3", "--max-nodes", "2000"],
    ["verify", "example"],
], ids=["graph", "verify-example"])
def test_closed_stdout_ends_without_a_traceback(args):
    # the read end is closed before the child starts, so every write fails
    # whatever the pipe buffer holds: exit 1, nothing on stderr
    read, write = os.pipe()
    os.close(read)
    env = {k: v for k, v in os.environ.items() if k != "CRYSTAL_SEED"}
    proc = subprocess.Popen(RUN + args, stdout=write, stderr=subprocess.PIPE, text=True, env=env)
    os.close(write)
    _, err = proc.communicate(timeout=300)
    assert (proc.returncode, err) == (1, "")


def test_path_command_worked_example(tmp_path):
    out = tmp_path / "p.json"
    rc = main(["path", "--n", "2", "--lambda", "2,1,0", "--kind", "ad",
               "--word", "1^4 2^5 1^2 0^4 2 1", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "Ad"
    assert data["rendered"][0] == "rows: [1,2,2,2,2,3],[3,3,3]"
    assert data["deviations"][0] == {"mbar": [2, 1, 0], "m": [0, 2, 1], "cap": 3}


@pytest.mark.parametrize("kind, digest", [
    ("b1", "8d6335bfa891985a17e8d6382a17a57e9dd17754dca1c6d80d3bbb702883ca4c"),
    ("bn", "1c289db52311058a4e9296acdf6404e27a9d3375b41791e21b77a3f16bc47e18"),
    ("ad", "1feae0689ab43a8001c53830a6b3058d1b6b1adc3fc92f364970ea63dfe49d1f"),
])
def test_path_output_bytes_pinned(kind, digest, capsys):
    # the whole stdout of the worked example: every deviation and rendered factor
    assert main(["path", "--n", "2", "--lambda", "2,1,0", "--kind", kind,
                 "--word", "1^4 2^5 1^2 0^4 2 1"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_path_command_empty_word(capsys):
    assert main(["path", "--n", "2", "--lambda", "2,1,0", "--word", ""]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["deviations"] == []


def test_path_command_dead_word():
    proc = run_cli(["path", "--n", "2", "--lambda", "2,1,0", "--word", "2"])
    assert proc.returncode == 1
    assert "annihilates" in proc.stderr


def test_quiver_command(tmp_path):
    out = tmp_path / "q.json"
    rc = main(["quiver", "--n", "2", "--lambda", "2,1,0",
               "--word", "1^4 2^5 1^2 0^4 2 1", "--seed", "0", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["commutant_dim"] == 29
    assert len(data["matrix_units"]["x"]) == 9
    assert len(data["matrix_units"]["xbar"]) == 8
    assert data["kernel_table"]["ker_x"][1] == [3, 3, 2]
    assert data["ok"] is True


def test_quiver_empty_word(tmp_path):
    out = tmp_path / "q0.json"
    assert main(["quiver", "--n", "1", "--lambda", "1,0", "--word", "",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["matrix_units"]["x"] == []
    assert data["alpha"] == [0, 0]


def test_quiver_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["quiver", "--n", "2", "--lambda", "1,1,0", "--word", "1 0", "--seed", "9"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_env_seed_override(tmp_path):
    proc = run_cli(["quiver", "--n", "2", "--lambda", "2,1,0", "--word", "1",
                    "--seed", "4"], env_seed=123)
    data = json.loads(proc.stdout)
    assert data["seed"] == 123


def test_graph_b1(capsys):
    assert main(["graph", "--crystal", "b1", "--n", "2", "--level", "1"]) == 0
    dot = capsys.readouterr().out
    assert dot.count("->") == 3
    assert dot.startswith("digraph")


def test_graph_adjoint_count(capsys):
    assert main(["graph", "--crystal", "ad", "--n", "2", "--level", "1"]) == 0
    dot = capsys.readouterr().out
    assert dot.count("[label=") - dot.count("->") == 9  # 9 nodes: 1 + 8


def test_graph_depth_zero(capsys):
    assert main(["graph", "--crystal", "b1", "--n", "2", "--level", "2",
                 "--depth", "0"]) == 0
    dot = capsys.readouterr().out
    assert dot.count("->") == 0


def test_verify_example_suite():
    proc = run_cli(["verify", "example"])
    assert proc.returncode == 0
    assert "A1" in proc.stdout and "FAIL" not in proc.stdout


def test_verify_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "nope"])


def test_verify_detects_corrupted_reference(monkeypatch, capsys):
    from affine_crystals import golden

    monkeypatch.setattr(golden, "COMMUTANT_DIM", 28)
    rc = main(["verify", "example"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "A3 commutant fiber dimension is 29: FAIL" in out


WORKED = ["--n", "2", "--lambda", "2,1,0", "--word", "1^4 2^5 1^2 0^4 2 1", "--seed", "0"]


@pytest.mark.parametrize("field, digest", [
    ("fp", "a75763ccd80087e6b8d7b7006fbb7adc5f1e1cf7df91e70eade31a80e6dff50d"),
    ("qq", "22ebc5c59ed075e1921922d136ecfce6422eeba401ad6eb899f8104fcc571860"),
])
def test_quiver_output_bytes_pinned(field, digest):
    # covers sampled_xbar_blocks, so a reordered commutant basis shows here
    proc = run_cli(["quiver"] + WORKED + ["--field", field])
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_every_hooked_pipeline_span_is_reached(monkeypatch, capsys):
    # the benchmark wraps the names the pipeline looks up at call time; a stage
    # that is still present but no longer called would read 0 there.  Only
    # cli.extra_commutant (quiver.commutant_basis, rebuilt by no command) is not reached.
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import layers

    tracer = layers.Tracer()
    with layers.hooked(tracer, layers.PIPELINE_HOOKS):
        assert main(["quiver"] + WORKED) == 0
    capsys.readouterr()
    spans = {span for _, _, span in layers.PIPELINE_HOOKS}
    assert set(tracer.self_s) == spans - {"cli.extra_commutant"}


@pytest.mark.parametrize("field", ["fp", "qq"])
def test_quiver_case_leaves_no_cyclic_garbage(field):
    # json's indent=2 encoder builds closures that reference each other on every
    # call; the CLI's own writer, and the rest of a case, leave nothing for the
    # cyclic collector, so a long in-process run's memory tracks its live heap
    args = ["quiver"] + WORKED + ["--field", field]
    with contextlib.redirect_stdout(io.StringIO()):
        main(args)  # first-call caches are not garbage
    gc.collect()
    before = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(args) == 0
        gc.collect()
        assert gc.garbage[before:] == []
    finally:
        gc.set_debug(0)
        del gc.garbage[before:]


_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-10**80, 10**80)
           | st.floats() | st.text()
           | st.sampled_from(["", "\u00e9", "\n\t\"\\/", "\u2028", "\U0001f600", "\x00"]))
_KEYS = st.text(), st.integers(), st.booleans(), st.floats()
_TREES = st.recursive(_LEAVES, lambda kids: (
    st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
    | st.one_of([st.dictionaries(keys, kids, max_size=4) for keys in _KEYS])), max_leaves=25)


@given(_TREES)
@example({})
@example([[], {}, ()])
@example({"a": [True, 1, 0, False, None], "b": [-(10**40), 7, 0], "c": {"": 1.5}})
@example({1: "x", 0: {"k": float("nan")}, 2: [float("inf"), -float("inf")]})
@settings(max_examples=300)
def test_json_writer_is_json_dumps(value):
    assert _json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [object(), {1, 2}, {"a": [1, object()]}, [{"k": {3}}],
                                   {"a": 1, 2: "mixed keys"}])
def test_json_writer_raises_like_json(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _json(value)


def _interpreter(version: str) -> str | None:
    """python<version> on PATH, else a pyenv build of it, whichever first starts."""
    pattern = os.path.expanduser(f"~/.pyenv/versions/{version}.*/bin/python{version}")
    for exe in (shutil.which(f"python{version}"), *sorted(glob.glob(pattern))):
        if exe and not subprocess.run([exe, "-c", ""], capture_output=True).returncode:
            return exe
    return None


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_quiver_bytes_agree_across_interpreters(version):
    # the coefficient draws are the program's own rule, not randrange's, so every
    # interpreter that starts writes the same bytes; a missing one is skipped (a
    # pyenv shim on PATH exits non-zero when its version is not selected)
    exe = _interpreter(version)
    if exe is None:
        pytest.skip(f"no python{version} starts here")
    src = os.path.dirname(os.path.dirname(os.path.abspath(affine_crystals.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("CRYSTAL_SEED", None)
    args = ["-m", "affine_crystals.cli", "quiver", *WORKED[:-1], "7"]
    for field in ("fp", "qq"):
        here, there = (subprocess.run([python, *args, "--field", field], capture_output=True,
                                      text=True, env=env) for python in (sys.executable, exe))
        assert here.returncode == there.returncode == 0, there.stderr
        assert (hashlib.sha256(there.stdout.encode()).hexdigest()
                == hashlib.sha256(here.stdout.encode()).hexdigest())


@pytest.mark.parametrize("args, digest", [
    ("--crystal b1 --n 3 --level 3",
     "a87c793bb97780bc66746a10e627483a2fa38177a8649b4eab7de9631b5beed4"),
    ("--crystal bn --n 3 --level 3",
     "94f1f75b3be7cf0e085e825495b304574dda0d773cdf5a24673b063136f405d0"),
    ("--crystal ad --n 2 --level 2",
     "349294c53af3338c6b9eabc5bc8175595fe7e55f8b1c2fb80a9959c35beb4e23"),
    ("--crystal path --n 2 --lambda 2,1,0 --kind b1 --max-nodes 300",
     "a7e665834dbc59036c5e301d6f433639b7f2a428003d60333668218f6d7decef"),
    ("--crystal path --n 2 --lambda 2,1,0 --kind bn --max-nodes 300",
     "c86c2e147437fb7f02331a43e22f45b563561f93dd80f05b5a2712c3b1c0f4e4"),
    ("--crystal path --n 2 --lambda 2,1,0 --kind ad --max-nodes 300",
     "0e6c666baf96ec51d7bf06f52edd9ac497b17c9e8bfbc9f9648451c6c7943902"),
], ids=["b1", "bn", "ad", "path-b1", "path-bn", "path-ad"])
def test_graph_output_bytes_pinned(args, digest, capsys):
    # labels are each node's own render(), edges go through each e_i/f_i,
    # and the path balls stop at --max-nodes, so the truncation line is pinned too
    assert main(["graph"] + args.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args", [
    ["quiver", "--n", "2", "--lambda", "0,0,0"],
    ["quiver", "--n", "2", "--lambda", "a,b,c"],
    ["path", "--n", "2", "--lambda=-1,2,0"],
    ["quiver", "--n", "0", "--lambda", "2", "--word", "0^3"],
    ["graph", "--crystal", "ad", "--n", "0"],
    ["graph", "--crystal", "b1", "--n", "2", "--level", "-1"],
    ["graph", "--crystal", "ad", "--n", "2", "--level", "-2"],
    ["graph", "--crystal", "bn", "--n", "2", "--max-nodes", "0"],
    ["graph", "--crystal", "b1", "--n", "2", "--depth", "-1"],
    ["graph", "--crystal", "path", "--n", "2"],
    ["graph", "--crystal", "b1", "--n", "2", "--lambda", "2,1,0"],
], ids=["level-zero", "not-integers", "not-dominant", "n-zero", "graph-n-zero",
        "graph-b1-level-negative", "graph-ad-level-negative", "graph-max-nodes-zero",
        "graph-depth-negative", "graph-path-no-lambda", "graph-b1-lambda"])
def test_bad_lambda_or_n_is_a_usage_error(args):
    proc = run_cli(args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("crystal", ["b1", "bn", "ad"])
def test_graph_kind_is_only_for_path(crystal, capsys):
    # --kind picks a path model: on a perfect crystal it is refused, not ignored
    with pytest.raises(SystemExit) as exc:
        main(["graph", "--crystal", crystal, "--n", "1", "--kind", "ad", "--max-nodes", "3"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err == f"error: --kind is only for --crystal path, not --crystal {crystal}\n"
    # a path ball without --kind is the B1 model's
    dots = []
    for kind in ([], ["--kind", "b1"]):
        assert main(["graph", "--crystal", "path", "--n", "2", "--lambda", "2,1,0",
                     "--max-nodes", "40", *kind]) == 0
        dots.append(capsys.readouterr().out)
    assert dots[0] == dots[1]


HUGE = "99999999999999999999"  # > 2^63: every one fails before it allocates


@pytest.mark.parametrize("args", [
    ["path", "--n", "1", "--lambda", f"{HUGE},0", "--word", "0"],
    ["quiver", "--n", "1", "--lambda", f"{HUGE},0", "--word", "0"],
    ["graph", "--crystal", "path", "--n", "1", "--lambda", f"{HUGE},0"],
    ["graph", "--crystal", "b1", "--n", "1", "--level", HUGE],
    ["graph", "--crystal", "b1", "--n", HUGE],
    ["path", "--n", "1", "--lambda", f"{2**62},{2**62}"],  # each fits, the level does not
], ids=["path-lambda", "quiver-lambda", "graph-path-lambda", "graph-level", "graph-n",
        "level-sum"])
def test_integers_past_an_index_are_a_usage_error(args):
    # a rank or level past sys.maxsize cannot size a list: one usage line, no OverflowError
    proc = run_cli(args)
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "at most" in lines[0], lines


def test_bad_env_seed_is_a_usage_error():
    proc = run_cli(["quiver", "--n", "2", "--lambda", "2,1,0", "--word", "1"], env_seed="abc")
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: CRYSTAL_SEED")


@pytest.mark.parametrize("args", [
    ["path", "--word", "x"],
    ["quiver", "--word", "x"],
    ["path", "--word", "3^2 1"],
    ["quiver", "--word", "3^2 1"],
], ids=["path-bad-token", "quiver-bad-token", "path-index-above-n", "quiver-index-above-n"])
def test_bad_word_is_a_usage_error(args):
    proc = run_cli(args[:1] + ["--n", "2", "--lambda", "2,1,0"] + args[1:])
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --word")


@pytest.mark.parametrize("args, env_seed", [
    (["path", "--n", "1", "--lambda", "1_0,0"], None),
    (["path", "--n", "1", "--lambda", "\u0661,0"], None),
    (["path", "--n", "2", "--lambda", "2,1,0", "--word", "\u0662 1^\u0661"], None),
    (["path", "--n", "2", "--lambda", "2,1,0", "--word", "1^1_0"], None),
    (["path", "--n", "\u0661", "--lambda", "1,0"], None),
    (["quiver", "--n", "2", "--lambda", "2,1,0", "--seed", "1_0"], None),
    (["graph", "--crystal", "b1", "--n", "2", "--level", "\u0662"], None),
    (["graph", "--crystal", "b1", "--n", "2", "--max-nodes", "1_000"], None),
    (["verify", "example", "--seed", "\u0663"], None),
    (["quiver", "--n", "2", "--lambda", "2,1,0", "--word", "1"], "1_0"),
    (["quiver", "--n", "2", "--lambda", "2,1,0", "--word", "1"], "\u0663"),
], ids=["lambda-underscore", "lambda-arabic-indic", "word-arabic-indic", "word-underscore",
        "n-arabic-indic", "seed-underscore", "level-arabic-indic", "max-nodes-underscore",
        "verify-seed-arabic-indic", "env-seed-underscore", "env-seed-arabic-indic"])
def test_numbers_take_ascii_digits_only(args, env_seed, monkeypatch, capsys):
    # int() alone also reads '_' separators and the digits of other scripts
    monkeypatch.delenv("CRYSTAL_SEED", raising=False)
    if env_seed is not None:
        monkeypatch.setenv("CRYSTAL_SEED", env_seed)
    with pytest.raises(SystemExit) as exc:
        main(args)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_one_parser_serves_every_call(capsys):
    # main reuses one parser; a failed parse leaves nothing behind for the next call
    from affine_crystals.cli import build_parser

    assert build_parser() is build_parser()
    with pytest.raises(SystemExit):
        main(["path", "--n", "2", "--lambda", "2,1,0", "--kind", "xx"])
    for _ in range(2):
        assert main(["path", "--n", "2", "--lambda", "2,1,0", "--word", "1"]) == 0
    out = capsys.readouterr().out
    assert out[:len(out) // 2] == out[len(out) // 2:]
    assert json.loads(out[:len(out) // 2])["kind"] == "B1"


def test_argparse_errors_are_one_usage_line():
    proc = run_cli(["graph", "--n", "x"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: argument --n: invalid integer value: 'x'\n"


@pytest.mark.parametrize("command", [
    ["path", "--n", "2", "--lambda", "2,1,0", "--word", "1"],
    ["quiver", "--n", "2", "--lambda", "2,1,0", "--word", "1"],
    ["graph", "--crystal", "b1", "--n", "2", "--max-nodes", "5"],
], ids=["path", "quiver", "graph"])
@pytest.mark.parametrize("target", ["missing-dir", "a-directory"])
def test_unwritable_out_is_one_usage_error(command, target, tmp_path):
    out = tmp_path / "missing" / "x" if target == "missing-dir" else tmp_path
    proc = run_cli(command + ["--out", str(out)])
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: --out: cannot write {str(out)!r}")


def test_quiver_command_dead_word():
    proc = run_cli(["quiver", "--n", "2", "--lambda", "2,1,0", "--word", "0^9"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "annihilates" in lines[0]


def test_quiver_sampling_failure_is_one_error_line(monkeypatch, capsys):
    # no sample drawn: generic_kernel_table raises GenericityError with its witness
    monkeypatch.setattr(quiver, "MAX_SAMPLES", 0)
    assert main(["quiver", "--n", "2", "--lambda", "2,1,0", "--word", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: no agreeing generic kernel table: 0 samples drawn "
                                 "(min_samples 3), 0 agreeing with the minimum table {}\n")


def test_quiver_stalled_filtration_is_one_error_line(monkeypatch, capsys):
    # x = 0 commutes with the cyclic xbar, which is invertible: ker xbar^k stays 0
    def zero_map(walls):
        return zero_wall_map(total_content(walls).k, 1)

    def cyclic_sample(x, basis, rng, p):
        return gm_from_blocks(x.dims, -x.shift, [[[1]]] * x.m)

    monkeypatch.setattr(iso, "wall_graded_map", zero_map)
    monkeypatch.setattr(quiver, "sample_in_commutant", cyclic_sample)
    assert main(["quiver", "--n", "2", "--lambda", "1,0,0", "--word", "1 2 0"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: kernel filtration ker xbar^k stabilized at 0 "
                                 "below alpha = 1a0+1a1+1a2\n")


small = st.integers(-1, 3)


words = st.lists(st.tuples(st.integers(-1, 4), st.integers(0, 2)), max_size=4).filter(
    lambda w: sum(max(m, 1) for _, m in w) <= 4
).map(lambda w: " ".join(f"{i}^{m}" if m != 1 else str(i) for i, m in w))


@st.composite
def cli_args(draw):
    """argparse-well-typed arguments for path, graph and quiver, small and often invalid."""
    n = draw(st.one_of(st.integers(1, 3), small))
    fits = st.lists(st.integers(0, 2), min_size=max(n + 1, 0), max_size=max(n + 1, 0))
    lam = ",".join(map(str, draw(st.one_of(fits, st.lists(small, max_size=4)))))
    common = [f"--n={n}", f"--lambda={lam}"]
    command = draw(st.sampled_from(["path", "graph", "quiver"]))
    if command == "path":
        kind = draw(st.sampled_from(["b1", "bn", "ad"]))
        return ["path", *common, f"--kind={kind}", f"--word={draw(words)}"]
    if command == "quiver":
        field = draw(st.sampled_from(["fp", "qq"]))
        return ["quiver", *common, f"--word={draw(words)}", f"--seed={draw(small)}",
                f"--field={field}"]
    crystal = draw(st.sampled_from(["b1", "bn", "ad", "path"]))
    kind = draw(st.sampled_from(["b1", "bn", "ad"]))
    if crystal != "path" and draw(st.booleans()):  # --lambda there is a usage error
        common.pop()
    if draw(st.booleans()):  # --kind too, and a path ball without it is B1's
        common.append(f"--kind={kind}")
    return ["graph", *common, f"--crystal={crystal}",
            f"--level={draw(small)}", f"--depth={draw(small)}",
            f"--max-nodes={draw(st.integers(-1, 30))}"]


@settings(max_examples=500)
@given(cli_args())
def test_cli_ends_in_a_result_or_one_usage_error(args):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = main(args)
        except SystemExit as exc:
            assert exc.code == 2, args
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (args, lines)
            return
    assert rc in (0, 1), args


def _random_quiver_args(count=60, seed=0):
    """quiver arguments for random words: n <= 4, level <= 4, <= 30 letters, every fifth over Q."""
    from affine_crystals.suites import random_dominant, random_word

    rng = random.Random(seed)
    for t in range(count):
        n = rng.randint(1, 4)
        lam = random_dominant(n, rng.randint(1, 4), rng)
        word = random_word(lam, rng.randint(0, 30), rng)
        yield ["quiver", "--n", str(n), "--lambda", ",".join(map(str, lam.a)),
               "--word", " ".join(str(i) for i, _ in word), "--seed", str(rng.randrange(1000)),
               "--field", "qq" if t % 5 == 4 else "fp"]


def test_quiver_bytes_pinned_over_random_words(monkeypatch, capsys):
    # the whole stdout, sampled_xbar_blocks, seed and field included, and each exit code
    monkeypatch.delenv("CRYSTAL_SEED", raising=False)
    h = hashlib.sha256()
    for args in _random_quiver_args():
        rc = main(args)
        h.update(f"{rc}\n{capsys.readouterr().out}".encode())
    assert h.hexdigest() == "071a2fd891c681f46becaf9b1df3db965c92859c78a53e5d3815fb01e333c611"
