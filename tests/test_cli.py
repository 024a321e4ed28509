import io
import os
import subprocess
import sys

import pytest

import actorgame
from actorgame.cli import main

RELAY = "ctx 1. snd(2,2).0 | rcv(2).tick.0"

RELAY_CLOSED = """\
lts-v1 vertices=4 edges=3 root=0
0 -fork(1)@0#0,0-> 1
1 -sync(2;2|2;2,2)@1,0#0,0-> 2
2 -tick(3)@1#0-> 3
"""


@pytest.fixture
def write(tmp_path):
    def go(text, name="t.act"):
        p = tmp_path / name
        p.write_text(text + "\n")
        return str(p)

    return go


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ------------------------------------------------------------- commands


def test_parse_echoes_normal_form(capsys, write):
    code, out, err = run(capsys, "parse", write("ctx 1. snd(2,2).0|rcv(2).tick.0"))
    assert code == 0 and err == ""
    assert out == "ctx 1. (snd(2,2).0 | rcv(2).tick.0)\n"


def test_parse_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("ctx 0. tick.0"))
    code, out, _ = run(capsys, "parse", "-")
    assert code == 0
    assert out == "ctx 0. tick.0\n"


def test_interp_nil(capsys, write):
    code, out, _ = run(capsys, "interp", write("ctx 0. 0"))
    assert code == 0
    assert out == "strat-v1\n@0{}\n"


def test_interp_relay(capsys, write):
    code, out, _ = run(capsys, "interp", write(RELAY))
    assert code == 0
    assert out == (
        "strat-v1\n"
        "@1{forkL:[@2{out 2 2:[@2{}]}];forkR:[@2{in 2:[@3{heart:[@3{}]}]}]}\n"
    )


def test_lts_closed_relay(capsys, write):
    code, out, _ = run(capsys, "lts", write(RELAY), "--world", "closed")
    assert code == 0
    assert out == RELAY_CLOSED


def test_lts_closed_sides_agree_on_relay(capsys, write):
    f = write(RELAY)
    _, game, _ = run(capsys, "lts", f, "--world", "closed", "--side", "strategy")
    _, proc, _ = run(capsys, "lts", f, "--world", "closed", "--side", "process")
    # a Par has exactly one pair of children, so the process side has no
    # fork choice to record; otherwise the chains coincide
    assert proc == game.replace("fork(1)@0#0,0", "fork(1)@0#")


def test_lts_interface_header(capsys, write):
    code, out, _ = run(capsys, "lts", write("ctx 0. tick.0"))
    assert code == 0
    assert out == "lts-v1 vertices=2 edges=1 root=0\n0 -tick-> 1\n"


def test_lts_enable_link(capsys, write):
    f = write("ctx 2. rcv(1).0")
    _, plain, _ = run(capsys, "lts", f)
    _, linked, _ = run(capsys, "lts", f, "--enable-link")
    assert "link" not in plain
    assert "link(1," in linked


def test_fair_single(capsys, write):
    code, out, _ = run(capsys, "fair", write("ctx 0. tick.0"), "--test", write("ctx 0. 0", "n.act"))
    assert code == 0
    assert out == "RESULT pass\n"


def test_fair_single_fail(capsys, write):
    code, out, _ = run(
        capsys, "fair", write("ctx 1. rcv(1).0"), "--test", write("ctx 1. snd(1,1).0", "t2.act")
    )
    assert code == 1
    assert out.startswith("RESULT fail")


def test_fair_strict(capsys, write):
    code, out, _ = run(
        capsys,
        "fair",
        write("ctx 0. tick.0"),
        "--test",
        write("ctx 0. 0", "n.act"),
        "--bot",
        "strict",
    )
    assert code == 1
    assert out == "RESULT fail witness: tick(0)@1#0\n"


def test_fair_map_wires_across_contexts(capsys, write):
    subj = write("ctx 1. rcv(1).tick.0")
    t = write("ctx 2. snd(2,1).0", "t2.act")
    code, out, _ = run(capsys, "fair", subj, "--test", t, "--map", "2")
    assert code == 0 and out == "RESULT pass\n"
    # without a map the contexts must line up
    code, _, err = run(capsys, "fair", subj, "--test", t)
    assert code == 2 and "--map" in err


def test_fair_suite(capsys, write):
    code, out, _ = run(capsys, "fair", write("ctx 1. rcv(1).tick.0"), "--gen", "1", "--limit", "5")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "test#0 fail"
    assert lines[-1] == "RESULT 2/5 pass"


def test_fair_suite_seed_reorders(capsys, write):
    f = write("ctx 1. rcv(1).tick.0")
    _, plain, _ = run(capsys, "fair", f, "--gen", "1", "--limit", "5")
    _, s1, _ = run(capsys, "fair", f, "--gen", "1", "--limit", "5", "--seed", "7")
    _, s1b, _ = run(capsys, "fair", f, "--gen", "1", "--limit", "5", "--seed", "7")
    assert s1 == s1b
    assert plain.splitlines()[-1] == s1.splitlines()[-1]  # same tally


def test_eq_suite_distinguishes(capsys, write):
    a = write("ctx 1. rcv(1).tick.0", "a.act")
    b = write("ctx 1. rcv(1).tick.0 + rcv(1).0", "b.act")
    code, out, _ = run(capsys, "eq", a, b, "--gen", "2")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("test#2 h=(1) ctx 1. snd(1,1).0 left=pass right=fail")
    assert lines[-1] == "RESULT distinguished test#2"


def test_eq_suite_equivalent(capsys, write):
    a = write("ctx 1. rcv(1).0 + rcv(1).0", "a.act")
    b = write("ctx 1. rcv(1).0", "b.act")
    code, out, _ = run(capsys, "eq", a, b, "--gen", "2", "--limit", "300")
    assert code == 0
    assert out == "checked 300 tests\nRESULT equivalent-on-suite\n"


def test_eq_bisim(capsys, write):
    a = write("ctx 1. rcv(1).tick.0", "a.act")
    b = write("ctx 1. rcv(1).tick.0 + rcv(1).0", "b.act")
    code, out, _ = run(capsys, "eq", a, b, "--bisim")
    assert code == 1
    assert out == "witness: in(1);tick\nRESULT distinguished\n"
    c = write("ctx 1. rcv(1).0 + rcv(1).0", "c.act")
    d = write("ctx 1. rcv(1).0", "d.act")
    code, out, _ = run(capsys, "eq", c, d, "--bisim")
    assert code == 0
    assert out == "RESULT equivalent\n"


def test_dot_outputs(capsys, write):
    f = write(RELAY)
    code, out, _ = run(capsys, "dot", f)
    assert code == 0 and out.startswith("digraph position {")
    code, out, _ = run(capsys, "dot", f, "--what", "move", "--index", "0")
    assert code == 0 and 'label="fork(1)"' in out
    code, out, _ = run(capsys, "dot", f, "--what", "play", "--trace", "0,0,0")
    assert code == 0 and out.count("subgraph cluster_") == 4


# --------------------------------------------------------------- errors


def test_module_entry_point():
    # python -m actorgame runs __main__.py, which exits with main()'s code
    paths = [os.path.dirname(os.path.dirname(actorgame.__file__))]
    paths += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

    def go(text):
        return subprocess.run(
            [sys.executable, "-m", "actorgame", "parse", "-"],
            input=text,
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )

    ok = go("ctx 0. tick.0")
    assert ok.returncode == 0 and ok.stdout == "ctx 0. tick.0\n"
    bad = go("ctx 0. rcv(1).0")
    assert bad.returncode == 2 and bad.stdout == "" and bad.stderr.startswith("error:")


def test_missing_file(capsys):
    code, out, err = run(capsys, "parse", "/no/such/file.act")
    assert code == 2 and out == "" and err.startswith("error:")


def test_ill_typed_input(capsys, write):
    code, _, err = run(capsys, "parse", write("ctx 0. rcv(1).0"))
    assert code == 2
    assert "receive subject 1 out of range" in err


def test_syntax_error_with_location(capsys, write):
    code, _, err = run(capsys, "parse", write("ctx 1. snd(1.0"))
    assert code == 2 and "error:" in err


def test_fair_needs_exactly_one_mode(capsys, write):
    f = write("ctx 0. tick.0")
    n = write("ctx 0. 0", "n.act")
    code, _, err = run(capsys, "fair", f)
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "fair", f, "--test", n, "--gen", "1")
    assert code == 2 and "exactly one" in err


def test_fair_map_needs_test(capsys, write):
    f = write("ctx 1. rcv(1).tick.0")
    code, out, err = run(capsys, "fair", f, "--map", "1", "--gen", "1", "--limit", "2")
    assert code == 2 and out == "" and "--map" in err


def test_suite_options_need_a_suite(capsys, write):
    f = write("ctx 1. rcv(1).tick.0")
    t = write("ctx 1. snd(1,1).0", "t1.act")
    for option in ("--limit", "--seed"):
        code, out, err = run(capsys, "fair", f, "--test", t, option, "3")
        assert code == 2 and out == ""
        assert err == f"error: {option} needs a generated suite: --test runs a single test\n"
        code, out, err = run(capsys, "eq", f, f, "--bisim", option, "3")
        assert code == 2 and out == ""
        assert err == f"error: {option} needs a generated suite: --bisim runs no test suite\n"


def test_closed_lts_rejects_enable_link(capsys, write):
    f = write(RELAY)
    code, out, err = run(capsys, "lts", f, "--world", "closed", "--enable-link")
    assert code == 2 and out == "" and "--enable-link" in err


def test_eq_context_mismatch(capsys, write):
    a = write("ctx 0. tick.0", "a.act")
    b = write("ctx 1. tick.0", "b.act")
    code, _, err = run(capsys, "eq", a, b)
    assert code == 2 and "different contexts" in err


def test_bad_map(capsys, write):
    subj = write("ctx 1. rcv(1).0")
    t = write("ctx 2. 0", "t2.act")
    code, _, err = run(capsys, "fair", subj, "--test", t, "--map", "x,y")
    assert code == 2 and "handle map" in err
    code, _, err = run(capsys, "fair", subj, "--test", t, "--map", "1,2")
    assert code == 2 and "handle map" in err


def test_empty_map_is_checked_for_length(capsys, write):
    subj = write("ctx 1. rcv(1).0")
    t = write("ctx 2. 0", "t2.act")
    for side in ("game", "process"):
        code, out, err = run(capsys, "fair", subj, "--test", t, "--map", "", "--side", side)
        assert code == 2 and out == ""
        assert err == "error: handle map has 0 entries, subject needs 1\n"


def test_dot_empty_move(capsys, write):
    code, _, err = run(capsys, "dot", write("ctx 0. 0"), "--what", "move")
    assert code == 2 and "error:" in err


def test_bad_numeric_options_name_the_option(capsys, write):
    f = write(RELAY)
    code, out, err = run(capsys, "dot", f, "--what", "play", "--trace", "x")
    assert code == 2 and out == ""
    assert err == "error: bad --trace 'x': expected comma separated step indices\n"
    code, out, err = run(capsys, "eq", f, f, "--gen", "1", "--limit", "-1")
    assert code == 2 and out == ""
    assert err == "error: --limit must be at least 0, got -1\n"
    code, _, err = run(capsys, "fair", f, "--gen", "1", "--width", "-2")
    assert code == 2 and err == "error: --width must be at least 0, got -2\n"


# ---------------------------------------------------------- determinism


def test_repeat_runs_byte_identical(capsys, write):
    f = write(RELAY)
    for argv in (
        ["lts", f, "--world", "closed"],
        ["interp", f],
        ["fair", f, "--gen", "2", "--limit", "30"],
    ):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
