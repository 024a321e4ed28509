import io
import os
import subprocess
import sys

import pytest

import actorgame
from actorgame import fairtest
from actorgame.cli import main
from actorgame.fairtest import gen_tests
from actorgame.term import MAX_CONTEXT, MAX_DIGITS

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


def test_eq_suite_draws_no_test_past_the_distinguishing_one(capsys, write, monkeypatch):
    # without --seed the suite is not listed: its tests are generated
    # as eq asks for them
    drawn = []

    def counting_gen_tests(*args):
        for test in gen_tests(*args):
            drawn.append(test)
            yield test

    monkeypatch.setattr(actorgame.cli, "gen_tests", counting_gen_tests)
    a = write("ctx 1. rcv(1).tick.0", "a.act")
    b = write("ctx 1. rcv(1).tick.0 + rcv(1).0", "b.act")
    code, out, _ = run(capsys, "eq", a, b, "--gen", "2")
    assert code == 1 and out.splitlines()[-1] == "RESULT distinguished test#2"
    assert len(drawn) == 3


def test_eq_suite_equivalent(capsys, write):
    a = write("ctx 1. rcv(1).0 + rcv(1).0", "a.act")
    b = write("ctx 1. rcv(1).0", "b.act")
    code, out, _ = run(capsys, "eq", a, b, "--gen", "2", "--limit", "300")
    assert code == 0
    assert out == "checked 300 tests\nRESULT equivalent-on-suite\n"


def test_eq_suite_counts_repeated_tests(capsys, write):
    # the suite's first 53 tests hold three that repeat an earlier one
    # up to the order of summands (tests 24, 27 and 28): they are not
    # run, but they count in "checked" and in the test# index
    a = write("ctx 1. snd(1,1).0", "a.act")
    b = write("ctx 1. snd(1,1).snd(1,1).0", "b.act")
    code, out, _ = run(capsys, "eq", a, b, "--gen", "2", "--limit", "52")
    assert code == 0
    assert out == "checked 52 tests\nRESULT equivalent-on-suite\n"
    code, out, _ = run(capsys, "eq", a, b, "--gen", "2", "--limit", "53")
    assert code == 1
    assert out == (
        "test#52 h=(1) ctx 1. rcv(1).(rcv(1).0 + tick.0) left=pass right=fail witness: "
        "sync(1;1|1;1,1)@1,0#0,0;sync(2;1|1;1,1)@0,1#0,0\n"
        "RESULT distinguished test#52\n"
    )


def test_fair_suite_decides_each_repeat_that_fails(capsys, write, monkeypatch):
    # tests 23 and 27 differ only in the order of their summands: a
    # failing repeat is decided again and prints its own witness, a
    # passing one is not
    decided = []
    orig_settle = fairtest.settle

    def counting_settle(ranks, form, composite, mode):
        decided.append(form)
        return orig_settle(ranks, form, composite, mode)

    monkeypatch.setattr(fairtest, "settle", counting_settle)
    f = write("ctx 1. snd(1,1).0")
    code, out, _ = run(capsys, "fair", f, "--gen", "2", "--limit", "29", "--side", "process")
    lines = out.splitlines()
    assert code == 1 and len(lines) == 30
    assert lines[23] == "test#23 fail witness: sync(1;1|1;1,1)@1,0#0,0"
    assert lines[27] == "test#27 fail witness: sync(1;1|1;1,1)@0,1#0,1"
    assert lines[28] == "test#28 pass"
    # of the repeats 24, 27 and 28 only the passing 28 is not decided
    assert len(decided) == 28
    # strictly, 24, 27 and 28 fail; test 88 repeats the passing test 52
    decided.clear()
    argv = ("fair", f, "--gen", "2", "--limit", "89", "--side", "process", "--bot", "strict")
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 1 and len(lines) == 90
    assert lines[23] == "test#23 fail witness: tick(1)@0#1"
    assert lines[27] == "test#27 fail witness: tick(1)@1#0"
    assert lines[52] == "test#52 pass" and lines[88] == "test#88 pass"
    assert len(decided) == 88


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


# The play of a sync whose receiver comes before its sender: player
# serials follow identifier order, so the avatars' identifiers must be
# allocated in player order, not in the seed's sender-receiver order.
SYNC_PLAY = (
    "digraph play {\n"
    "  rankdir=LR;\n"
    "  subgraph cluster_0 {\n"
    '    label="0: start";\n'
    '    s0_c0 [shape=ellipse label="c0"];\n'
    '    s0_p0 [shape=box label="1"];\n'
    '    s0_p0 -> s0_c0 [label="1"];\n'
    "  }\n"
    "  subgraph cluster_1 {\n"
    '    label="1: fork(1)";\n'
    '    s1_c0 [shape=ellipse label="c0"];\n'
    '    s1_c1 [shape=ellipse label="c1"];\n'
    '    s1_p0 [shape=box label="2"];\n'
    '    s1_p1 [shape=box label="2"];\n'
    '    s1_p0 -> s1_c0 [label="1"];\n'
    '    s1_p0 -> s1_c1 [label="2"];\n'
    '    s1_p1 -> s1_c0 [label="1"];\n'
    '    s1_p1 -> s1_c1 [label="2"];\n'
    "  }\n"
    "  subgraph cluster_2 {\n"
    '    label="2: sync(2;2|2;2,1)";\n'
    '    s2_c0 [shape=ellipse label="c0"];\n'
    '    s2_c1 [shape=ellipse label="c1"];\n'
    '    s2_p0 [shape=box label="3"];\n'
    '    s2_p1 [shape=box label="2"];\n'
    '    s2_p0 -> s2_c0 [label="1"];\n'
    '    s2_p0 -> s2_c1 [label="2"];\n'
    '    s2_p0 -> s2_c0 [label="3"];\n'
    '    s2_p1 -> s2_c0 [label="1"];\n'
    '    s2_p1 -> s2_c1 [label="2"];\n'
    "  }\n"
    "  s0_p0 -> s1_p0 [style=dashed];\n"
    "  s0_p0 -> s1_p1 [style=dashed];\n"
    "  s0_c0 -> s1_c0 [style=dotted];\n"
    "  s1_p0 -> s2_p0 [style=dashed];\n"
    "  s1_p1 -> s2_p1 [style=dashed];\n"
    "  s1_c0 -> s2_c0 [style=dotted];\n"
    "  s1_c1 -> s2_c1 [style=dotted];\n"
    "}\n"
)


def test_dot_play_of_a_sync_whose_receiver_comes_first(capsys, write):
    f = write("ctx 1. (rcv(2).0 | snd(2,1).0)")
    code, out, err = run(capsys, "dot", f, "--what", "play", "--trace", "0,0")
    assert (code, out, err) == (0, SYNC_PLAY, "")


# --------------------------------------------------------------- errors


def run_module(*argv, stdin=None):
    """``python -m actorgame ARGV`` in a fresh process."""
    paths = [os.path.dirname(os.path.dirname(actorgame.__file__))]
    paths += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, "-m", "actorgame", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_module_entry_point():
    # python -m actorgame runs __main__.py, which exits with main()'s code
    ok = run_module("parse", "-", stdin="ctx 0. tick.0")
    assert ok.returncode == 0 and ok.stdout == "ctx 0. tick.0\n"
    bad = run_module("parse", "-", stdin="ctx 0. rcv(1).0")
    assert bad.returncode == 2 and bad.stdout == "" and bad.stderr.startswith("error:")


# The longest `ctx 0.` chain of `tick.` prefixes each command answers in
# a fresh Python 3.11 process; one prefix more and the interpreter's
# recursion limit stops it. A warm process answers deeper chains, since
# typing and interpretation remember the terms they have seen, so each
# command runs in a process of its own.
DEEP_LIMITS = [
    (247, "parse {f}"),
    (198, "interp {f}"),
    (493, "lts {f} --side strategy"),
    (493, "lts {f} --side process"),
    (493, "lts {f} --world closed --side strategy"),
    (493, "lts {f} --world closed --side process"),
    (328, "fair {f} --test {f} --side strategy"),
    (329, "fair {f} --test {f} --side process"),
]

# The limits as they stood while terms were still objects; chains of those
# lengths must keep answering too.
EARLIER_LIMITS = [
    (329, "lts {f} --side strategy"),
    (329, "lts {f} --side process"),
    (329, "lts {f} --world closed --side strategy"),
    (329, "lts {f} --world closed --side process"),
    (196, "fair {f} --test {f} --side strategy"),
    (196, "fair {f} --test {f} --side process"),
]


def run_on_chain(write, length, command):
    f = write("ctx 0. " + "tick." * length + "0")
    return run_module(*[arg.format(f=f) for arg in command.split()])


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the limit is the interpreter's")
@pytest.mark.parametrize("length, command", DEEP_LIMITS + EARLIER_LIMITS)
def test_deep_chains_within_the_limit_answer(write, length, command):
    res = run_on_chain(write, length, command)
    assert res.returncode in (0, 1), res.stderr


@pytest.mark.parametrize("command", [command for _, command in DEEP_LIMITS])
def test_very_deep_chains_answer_or_fail_cleanly(write, command):
    res = run_on_chain(write, 3000, command)
    assert "Traceback" not in res.stderr
    if res.returncode not in (0, 1):
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


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


SUITE_FOR_BISIM = "needs a generated suite: --bisim runs no test suite"


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ["eq", "S", "S", "--bisim", "--gen", "1"],
            f"--gen {SUITE_FOR_BISIM}",
            id="eq-bisim-gen",
        ),
        pytest.param(
            ["eq", "S", "S", "--bisim", "--width", "1"],
            f"--width {SUITE_FOR_BISIM}",
            id="eq-bisim-width",
        ),
        pytest.param(
            ["eq", "S", "S", "--bisim", "--bot", "weak"],
            "--bot needs a fair test: --bisim runs none",
            id="eq-bisim-bot",
        ),
        pytest.param(
            ["fair", "S", "--test", "S", "--width", "3"],
            "--width needs a generated suite: --test runs a single test",
            id="fair-test-width",
        ),
        pytest.param(
            ["dot", "S", "--what", "position", "--trace", "0"],
            "--trace needs --what move or play",
            id="dot-position-trace",
        ),
        pytest.param(
            ["dot", "S", "--what", "position", "--index", "0"],
            "--index needs --what move or play",
            id="dot-position-index",
        ),
        pytest.param(
            ["dot", "S", "--what", "play", "--index", "0"],
            "--index needs --what move without --trace",
            id="dot-play-index",
        ),
        pytest.param(
            ["dot", "S", "--what", "move", "--trace", "0", "--index", "0"],
            "--index needs --what move without --trace",
            id="dot-move-trace-index",
        ),
    ],
)
def test_ignored_option_is_refused(capsys, write, argv, message):
    f = write(RELAY)
    code, out, err = run(capsys, *(f if a == "S" else a for a in argv))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_omitted_options_take_their_defaults(capsys, write):
    f = write(RELAY)
    t = write("ctx 1. rcv(1).0 + snd(1,1).0", "t1.act")
    for short, full in (
        (["fair", f, "--gen", "1"], ["--width", "2", "--bot", "weak"]),
        (["fair", f, "--test", t], ["--bot", "weak"]),
        (["eq", f, t, "--limit", "40"], ["--gen", "2", "--width", "2", "--bot", "weak"]),
        (["dot", f, "--what", "move"], ["--index", "0"]),
    ):
        assert run(capsys, *short) == run(capsys, *short, *full)


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


def test_huge_context_is_an_input_error(capsys, write):
    for gamma in (MAX_CONTEXT + 1, 10**20):
        f = write(f"ctx {gamma}. 0")
        for argv in (
            ["parse", f],
            ["interp", f],
            ["lts", f],
            ["fair", f, "--test", f],
            ["eq", f, f, "--gen", "0"],
            ["eq", f, f, "--bisim"],
            ["dot", f],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err == (
                f"error: context size must be at most {MAX_CONTEXT}, found {gamma} "
                f"at line 1, column 5\n"
            )


def parse_stdin(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run(capsys, "parse", "-")


def test_range_errors_point_at_the_number(capsys, monkeypatch):
    for text, message in (
        ("ctx 65537. 0", "context size must be at most 65536, found 65537 at line 1, column 5"),
        ("ctx 1. snd(0,1).0", "channel index must be at least 1, found 0 at line 1, column 12"),
        ("ctx 1. snd(1,0).0", "channel index must be at least 1, found 0 at line 1, column 14"),
        ("ctx 1.\n rcv(0).0", "channel index must be at least 1, found 0 at line 2, column 6"),
    ):
        assert parse_stdin(capsys, monkeypatch, text) == (2, "", f"error: {message}\n")


def test_numbers_past_the_digit_limit_get_the_parsers_message(capsys, monkeypatch):
    n = MAX_DIGITS + 700
    for text, what, col in (
        (f"ctx {'9' * n}. 0", "context size", 5),
        (f"ctx 1. snd(1,{'9' * n}).0", "channel index", 14),
        (f"ctx 1. rcv({'7' * n}).0", "channel index", 12),
    ):
        assert parse_stdin(capsys, monkeypatch, text) == (
            2,
            "",
            f"error: {what} has {n} digits, more than {MAX_DIGITS} at line 1, column {col}\n",
        )
    # leading zeros are not significant digits
    code, out, _ = parse_stdin(capsys, monkeypatch, f"ctx {'0' * n}1. rcv({'0' * n}1).0")
    assert code == 0 and out == "ctx 1. rcv(1).0\n"


def test_largest_context_is_accepted(capsys, write):
    code, out, _ = run(capsys, "parse", write(f"ctx {MAX_CONTEXT}. 0"))
    assert code == 0 and out == f"ctx {MAX_CONTEXT}. 0\n"


def test_dot_empty_move(capsys, write):
    code, _, err = run(capsys, "dot", write("ctx 0. 0"), "--what", "move")
    assert code == 2 and "error:" in err


def test_dot_move_of_an_empty_trace_is_refused(capsys, write):
    # an empty trace has no last move; as a play it is the start position
    f = write(RELAY)
    code, out, err = run(capsys, "dot", f, "--what", "move", "--trace", "")
    assert code == 2 and out == ""
    assert err == "error: --trace is empty: --what move draws the last move of a trace\n"
    code, out, _ = run(capsys, "dot", f, "--what", "play", "--trace", "")
    assert code == 0 and out.startswith("digraph play {") and '"0: start"' in out
    assert "1: " not in out


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


def test_game_is_the_old_name_of_the_strategy_side(capsys, write):
    f = write(RELAY)
    for argv in (
        ["lts", f],
        ["fair", f, "--gen", "1", "--limit", "4"],
        ["eq", f, f, "--gen", "1", "--limit", "4"],
        ["eq", f, f, "--bisim"],
    ):
        default = run(capsys, *argv)
        assert default[0] in (0, 1)
        for side in ("strategy", "game"):
            assert run(capsys, *argv, "--side", side) == default


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
