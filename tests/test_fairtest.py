import itertools

import pytest

from actorgame.fairtest import Test as FTest
from actorgame.fairtest import (
    compose_game,
    compose_proc,
    eq_check,
    gen_tests,
    in_bot,
    merge_map,
    passes,
)
from actorgame.lts import closed_graph, process_lts, root_strategy, strategy_lts
from actorgame.strategy import interpret
from actorgame.term import parse
from oracles import brute_in_bot, count_terms


def term(text):
    return parse(text)[0]


EMPTY0 = FTest((), 0, term("ctx 0. 0"))
EMPTY1 = FTest((1,), 1, term("ctx 1. 0"))


# ---------------------------------------------------------- composition


def test_test_validation():
    with pytest.raises(ValueError):
        FTest((2,), 1, term("ctx 1. 0")).check()
    with pytest.raises(Exception):
        FTest((1,), 1, term("ctx 2. snd(2,2).0")).check()


def test_compose_game_shapes():
    s = interpret(term("ctx 1. rcv(1).0"), 1)
    g = compose_game(s, FTest((2,), 2, term("ctx 2. snd(2,1).0")))
    assert g.num_channels == 2
    assert sorted(p.attach for p in g.players) == [(1, 2), (2,)]
    with pytest.raises(ValueError):
        compose_game(s, FTest((1, 2), 2, term("ctx 2. 0")))


def test_compose_proc_mirrors_game():
    subject = term("ctx 1. rcv(1).0")
    test = FTest((2,), 2, term("ctx 2. snd(2,1).0"))
    s = compose_proc(subject, 1, test)
    assert s.num_channels == 2
    assert sorted(t.env for t in s.threads) == [(1, 2), (2,)]


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
    assert len(v.witness) >= 1
    assert all("tick" not in w for w in v.witness)


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
                g = closed_graph(compose_game(interpret(subject, gamma), t))
                assert in_bot(g).passed == brute_in_bot(g), (gamma, subject, t)


def test_game_and_process_verdicts_agree_samples(small_corpus):
    for gamma, terms in small_corpus.items():
        suite = list(itertools.islice(gen_tests(gamma, 2), 10))
        for subject in terms[:8]:
            for t in suite:
                vg = passes(subject, gamma, t, "game")
                vp = passes(subject, gamma, t, "process")
                assert vg.passed == vp.passed, (gamma, subject, t)


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
    for t in suite:
        t.check()


def test_gen_tests_merge_block():
    suite = list(gen_tests(2, 1))
    idn = count_terms(2, 1, 2)
    assert len(suite) == idn + count_terms(1, 1, 2)
    assert suite[idn].h == (1, 1) and suite[idn].ctx == 1
    for t in suite:
        t.check()


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
