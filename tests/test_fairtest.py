import functools
import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actorgame import cli, fairtest
from actorgame.fairtest import Test as FTest
from actorgame.fairtest import (
    compose,
    decide,
    eq_check,
    gen_tests,
    in_bot,
    merge_map,
    passes,
)
from actorgame.lts import closed_graph, process_lts, root_process, root_strategy, strategy_lts
from actorgame.term import IllTyped, parse
from gen import terms
from oracles import brute_in_bot, count_terms


def term(text):
    return parse(text)[0]


EMPTY0 = FTest((), 0, term("ctx 0. 0"))
EMPTY1 = FTest((1,), 1, term("ctx 1. 0"))
ROOTS = (root_strategy, root_process)


def composite(root, subject, gamma, test):
    return compose(root(subject, gamma), root(test.proc, test.ctx), test.h)


# ---------------------------------------------------------- composition


def test_test_validation():
    with pytest.raises(ValueError, match=r"^handle 1 wired to 3, outside 1\.\.2$"):
        FTest((3,), 2, term("ctx 2. 0"))
    with pytest.raises(IllTyped):
        FTest((1,), 1, term("ctx 2. snd(2,2).0"))


def test_compose_game_shapes():
    # on both sides: the test's actor on the identity, the subject's wired by h
    for root in ROOTS:
        s = composite(root, term("ctx 1. rcv(1).0"), 1, FTest((2,), 2, term("ctx 2. snd(2,1).0")))
        assert s.num_channels == 2
        assert sorted(a.attach for a in s.actors) == [(1, 2), (2,)]
        # one message for a wrong-length handle map on both sides
        with pytest.raises(ValueError, match=r"^subject arity 1 does not match handle map of length 2$"):
            composite(root, term("ctx 1. rcv(1).0"), 1, FTest((1, 2), 2, term("ctx 2. 0")))


def test_compose_proc_mirrors_game():
    subject = term("ctx 1. rcv(1).0")
    test = FTest((2,), 2, term("ctx 2. snd(2,1).0"))
    game, proc = (composite(root, subject, 1, test) for root in ROOTS)
    assert game.num_channels == proc.num_channels == 2
    assert sorted(p.attach for p in game.actors) == sorted(t.attach for t in proc.actors) == [(1, 2), (2,)]


# ---------------------------------------------------------------- in_bot


def test_bot_weak_goldens():
    assert passes(term("ctx 0. tick.0"), 0, EMPTY0).passed
    assert not passes(term("ctx 1. rcv(1).tick.0"), 1, EMPTY1).passed
    # nothing ever ticks, so liveness fails even without divergence
    assert not passes(term("ctx 0. 0"), 0, EMPTY0).passed
    relay = term("ctx 1. snd(2,2).0 | rcv(2).tick.0")
    assert passes(relay, 1, EMPTY1).passed


def test_bot_fail_witness_is_tick_free_path():
    v = passes(term("ctx 1. rcv(1).tick.0"), 1, EMPTY1)
    assert v.witness == ()  # the root itself is already bad
    relay = term("ctx 1. snd(2,2).0 | rcv(2).0")
    v2 = passes(relay, 1, EMPTY1)
    assert not v2.passed
    assert v2.witness == ()


def test_bot_witness_shortest_prefix():
    # tick is only reachable before the sync consumes the receiver
    p = term("ctx 1. snd(2,2).0 | rcv(2).0 + tick.0")
    v = passes(p, 1, EMPTY1)
    assert not v.passed
    assert v.witness == ("fork(1)@1#0,0", "sync(2;2|2;2,2)@2,1#0,0")


def test_bot_strict():
    assert not passes(term("ctx 0. tick.0"), 0, EMPTY0, mode="strict").passed
    assert passes(term("ctx 0. 0"), 0, EMPTY0, mode="strict").passed
    # one step to a state with a direct tick
    p = term("ctx 0. tick.tick.0")
    assert passes(p, 0, EMPTY0, mode="strict").passed


def test_bot_rejects_interface_graphs():
    g = strategy_lts(term("ctx 0. tick.0"), 0)
    with pytest.raises(TypeError):
        in_bot(g)


def test_bot_rejects_edgeless_interface_graphs():
    # no edge to look at: the check must go by the kind of state
    for build in (process_lts, strategy_lts):
        with pytest.raises(TypeError):
            in_bot(build(*parse("ctx 0. 0")))


def test_bot_rejects_unknown_mode():
    g = closed_graph(root_strategy(term("ctx 0. 0"), 0))
    with pytest.raises(ValueError):
        in_bot(g, "sloppy")


def test_bot_agrees_with_brute_oracle(small_corpus):
    for gamma, terms in small_corpus.items():
        suite = list(itertools.islice(gen_tests(gamma, 1), 6))
        for subject in terms[:8]:
            for t in suite:
                g = closed_graph(composite(root_strategy, subject, gamma, t))
                assert in_bot(g).passed == brute_in_bot(g), (gamma, subject, t)


def test_game_and_process_verdicts_agree_samples(small_corpus):
    for gamma, terms in small_corpus.items():
        suite = list(itertools.islice(gen_tests(gamma, 2), 10))
        for subject in terms[:8]:
            for t in suite:
                vg = passes(subject, gamma, t, "game")
                vp = passes(subject, gamma, t, "process")
                assert vg.passed == vp.passed, (gamma, subject, t)


# SHA-256 over Verdict.render() of subjects A and B of criterion 6
# against every tenth test of the context-1, depth-2 suite, on both
# sides and in both modes, recorded with the verdict read off the full
# closed graph.
GOLDEN_VERDICTS = (
    "79f3ca10c6ecbc2f9395aca2d598741e"
    "5305f9e22b048c7be1c4b42029aafc2e"
)


def test_verdicts_match_golden_digest():
    h = hashlib.sha256()
    suite = list(itertools.islice(gen_tests(1, 2), 0, None, 10))
    for text in ("ctx 1. rcv(1).tick.0", "ctx 1. rcv(1).tick.0 + rcv(1).0"):
        subject = term(text)
        for t in suite:
            for side in ("game", "process"):
                for mode in ("weak", "strict"):
                    h.update(passes(subject, 1, t, side, mode).render().encode() + b"\n")
    assert h.hexdigest() == GOLDEN_VERDICTS


def test_large_composite_fail_witnesses():
    # about 9500 closed states per side; the witnesses are shortest
    # tick-free paths, ties broken by label order
    subject = term("ctx 1. snd(1,1).rcv(1).0 + rcv(1).snd(1,1).0")
    test = FTest(
        (1,),
        1,
        term(
            "ctx 1. ((rcv(1).tick.0 | rcv(1).0) | (snd(2,1).0 | rcv(2).0)) "
            "| ((rcv(2).0 | snd(2,2).0) | (snd(1,1).0 | rcv(3).0))"
        ),
    )
    assert passes(subject, 1, test, "game").render() == (
        "fail witness: fork(1)@0#0,0;fork(2)@1#0,0;fork(2)@1#0,0;fork(3)@1#0,0;"
        "fork(3)@3#0,0;sync(1;1|4;1,1)@6,0#0,0;sync(4;1|2;1,1)@0,3#0,0"
    )
    assert passes(subject, 1, test, "process").render() == (
        "fail witness: fork(1)@1#;fork(2)@1#;fork(2)@3#;fork(3)@1#;"
        "fork(3)@4#;sync(1;1|4;1,1)@3,4#0,1;sync(4;1|2;1,1)@4,1#0,0"
    )


@st.composite
def composites(draw):
    """A random subject at context 0-2 composed, on a random side, with a
    random test at context 0-2 under a random handle map."""
    gamma = draw(st.integers(0, 2))
    ctx = draw(st.integers(1 if gamma else 0, 2))
    h = draw(st.tuples(*[st.integers(1, ctx)] * gamma))
    subject = draw(terms(gamma))
    test = FTest(h, ctx, draw(terms(ctx)))
    return composite(draw(st.sampled_from(ROOTS)), subject, gamma, test)


@settings(max_examples=150, deadline=None)
@given(composites())
def test_search_matches_full_graph_verdict(root):
    g = closed_graph(root)
    for mode in ("weak", "strict"):
        assert decide(root, mode) == in_bot(g, mode)
    # the weak verdict is deadlock reachability: every graph is acyclic
    reached, stack = {g.root}, [g.root]
    while stack:
        for label, d in g.edges[stack.pop()]:
            if not label.is_tick and d not in reached:
                reached.add(d)
                stack.append(d)
    assert in_bot(g).passed == all(g.edges[v] for v in reached)


def test_search_counts_forms_and_witness_states():
    # root, forked and ticking: three forms, no witness
    relay = composite(root_process, term("ctx 1. snd(2,2).0 | rcv(2).tick.0"), 1, EMPTY1)
    assert decide(relay, max_states=3).passed
    with pytest.raises(RuntimeError, match="state space exceeds 2 states"):
        decide(relay, max_states=2)
    # root, forked and deadlocked forms, then two witness states
    late = composite(root_process, term("ctx 1. snd(2,2).0 | rcv(2).0 + tick.0"), 1, EMPTY1)
    assert not decide(late, max_states=5).passed
    with pytest.raises(RuntimeError, match="state space exceeds 4 states"):
        decide(late, max_states=4)


def test_state_bound_is_an_input_error(tmp_path, monkeypatch, capsys):
    big = (
        "ctx 1. ((rcv(1).0 | snd(2,1).0) | (rcv(2).tick.0 | snd(2,2).0)) "
        "| ((tick.0 | rcv(1).0) | (snd(1,1).0 | rcv(3).0))"
    )
    subject = tmp_path / "subject.act"
    subject.write_text("ctx 1. rcv(1).tick.0 + snd(1,1).0\n")
    test = tmp_path / "test.act"
    test.write_text(big + "\n")
    argv = ["fair", str(subject), "--test", str(test)]
    assert cli.main(argv) == 0
    monkeypatch.setattr(fairtest, "decide", functools.partial(decide, max_states=50))
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: state space exceeds 50 states\n"


def test_passes_rejects_unknown_mode():
    with pytest.raises(ValueError):
        passes(term("ctx 0. 0"), 0, EMPTY0, mode="sloppy")


def test_passes_rejects_unknown_side():
    with pytest.raises(ValueError):
        passes(term("ctx 0. 0"), 0, EMPTY0, side="umpire")


# ------------------------------------------------------------ the suite


def test_merge_map():
    assert merge_map(3, 1, 3) == (1, 2, 1)
    assert merge_map(3, 1, 2) == (1, 1, 2)
    assert merge_map(2, 1, 2) == (1, 1)
    with pytest.raises(ValueError):
        merge_map(2, 2, 2)


def test_gen_tests_identity_block_first():
    suite = list(itertools.islice(gen_tests(1, 2), 5))
    assert all(t.h == (1,) and t.ctx == 1 for t in suite)


def test_gen_tests_merge_block():
    suite = list(gen_tests(2, 1))
    idn = count_terms(2, 1, 2)
    assert len(suite) == idn + count_terms(1, 1, 2)
    assert suite[idn].h == (1, 1) and suite[idn].ctx == 1


def test_gen_tests_size_matches_enumeration_counts():
    assert sum(1 for _ in gen_tests(1, 1)) == count_terms(1, 1, 2)
    assert sum(1 for _ in gen_tests(0, 2)) == count_terms(0, 2, 2)


def test_gen_tests_deterministic():
    a = list(itertools.islice(gen_tests(2, 2), 50))
    b = list(itertools.islice(gen_tests(2, 2), 50))
    assert a == b


# ------------------------------------------------------------- eq_check


def test_eq_check_distinguishes_choice_timing():
    a = term("ctx 1. rcv(1).tick.0")
    b = term("ctx 1. rcv(1).tick.0 + rcv(1).0")
    suite = list(itertools.islice(gen_tests(1, 2), 100))
    res = eq_check(a, b, 1, suite)
    assert not res.equivalent
    assert res.index is not None and res.test is not None
    assert res.verdict_left.passed != res.verdict_right.passed


def test_eq_check_reports_first_difference_in_suite_order():
    a = term("ctx 1. rcv(1).tick.0")
    b = term("ctx 1. rcv(1).tick.0 + rcv(1).0")
    suite = list(itertools.islice(gen_tests(1, 2), 100))
    res = eq_check(a, b, 1, suite)
    for k in range(res.index):
        va = passes(a, 1, suite[k])
        vb = passes(b, 1, suite[k])
        assert va.passed == vb.passed


def test_eq_check_equivalent_on_suite():
    a = term("ctx 1. rcv(1).0 + rcv(1).0")
    b = term("ctx 1. rcv(1).0")
    suite = list(itertools.islice(gen_tests(1, 2), 200))
    res = eq_check(a, b, 1, suite)
    assert res.equivalent
    assert res.checked == 200


def test_bisimilar_pairs_pass_all_suites(small_corpus):
    # weak bisimilarity is sound for suite equivalence
    from actorgame.lts import weak_bisim

    for gamma, terms in small_corpus.items():
        sample = terms[:8]
        suite = list(itertools.islice(gen_tests(gamma, 1), 12))
        for i, j in itertools.combinations(range(len(sample)), 2):
            if weak_bisim(
                strategy_lts(sample[i], gamma), strategy_lts(sample[j], gamma)
            ).equivalent:
                res = eq_check(sample[i], sample[j], gamma, suite)
                assert res.equivalent, (gamma, i, j)
