import copy
import gc
import hashlib
import itertools
import pickle
import weakref

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from actorgame import cli, fairtest, lts
from actorgame.fairtest import Test as FTest
from actorgame.fairtest import (
    Verdict,
    compose,
    decide,
    eq_check,
    gen_tests,
    merge_map,
    passes,
    suite_verdicts,
)
from actorgame.lts import (
    Explorer,
    closed_graph,
    interface_graph,
    process_lts,
    root_process,
    root_strategy,
    strategy_lts,
)
from actorgame.term import IllTyped, Par, Sum, Tick, canonical, parse
from gen import terms
from oracles import brute_in_bot, count_terms, in_bot


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
    with pytest.raises(IllTyped, match=r"^send subject 2 out of range \(at branch0, context size 1\)$"):
        FTest((1,), 1, term("ctx 2. snd(2,2).0"))


def test_a_test_is_a_checked_named_tuple():
    proc = term("ctx 2. snd(2,1).0")
    test = FTest((2,), 2, proc)
    assert isinstance(test, tuple) and FTest._fields == ("h", "ctx", "proc")
    assert (test.h, test.ctx, test.proc) == ((2,), 2, proc)
    assert repr(test) == f"Test(h=(2,), ctx=2, proc={proc!r})"
    twin = FTest((2,), 2, term("ctx 2. snd(2,1).0"))
    assert twin == test and hash(twin) == hash(test)
    assert FTest((1,), 2, proc) != test
    for again in (copy.copy(test), copy.deepcopy(test), pickle.loads(pickle.dumps(test))):
        assert type(again) is FTest and again == test


def test_a_test_keeps_its_handle_map_as_a_tuple():
    h = (1,)
    assert FTest(h, 1, term("ctx 1. 0")).h is h
    listed = FTest([1], 1, term("ctx 1. rcv(1).tick.0"))
    assert listed.h == (1,) and type(listed.h) is tuple
    # a suite keys each test by (canonical term, ctx, h), so h must hash
    assert passes(term("ctx 1. snd(1,1).0"), 1, listed).passed


def test_a_test_built_from_its_fields_is_checked():
    # _make and _replace build through the constructor: the same checks,
    # with the same messages, and h kept as a tuple
    proc = term("ctx 1. rcv(1).tick.0")
    test = FTest._make(([1], 1, proc))
    assert test == FTest((1,), 1, proc) and type(test.h) is tuple
    listed = FTest((1,), 1, term("ctx 1. 0"))._replace(h=[1], proc=proc)
    assert type(listed) is FTest and listed == test
    assert passes(term("ctx 1. snd(1,1).0"), 1, listed).passed
    with pytest.raises(ValueError, match=r"^handle 1 wired to 9, outside 1\.\.1$"):
        FTest._make(([9], 1, proc))
    with pytest.raises(ValueError, match=r"^handle 1 wired to 9, outside 1\.\.1$"):
        test._replace(h=(9,))
    with pytest.raises(IllTyped, match=r"^send subject 2 out of range \(at branch0, context size 1\)$"):
        test._replace(proc=term("ctx 2. snd(2,2).0"))


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


def test_compose_rejects_roots_of_two_sides():
    p = term("ctx 1. rcv(1).0")
    with pytest.raises(ValueError, match=r"^actors of two sides in one state: PlayerState and Thread$"):
        compose(root_strategy(p, 1), root_process(p, 1), (1,))
    with pytest.raises(ValueError, match=r"^actors of two sides in one state: Thread and PlayerState$"):
        compose(root_process(p, 1), root_strategy(p, 1), (1,))


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
        fairtest.in_bot(g)


def test_bot_rejects_edgeless_interface_graphs():
    # no edge to look at: the check must go by the kind of state
    for build in (process_lts, strategy_lts):
        with pytest.raises(TypeError):
            fairtest.in_bot(build(*parse("ctx 0. 0")))


def test_bot_rejects_unknown_mode():
    g = closed_graph(root_strategy(term("ctx 0. 0"), 0))
    with pytest.raises(ValueError):
        fairtest.in_bot(g, "sloppy")


# the test term of the state-bound test: 3362 closed states per side
BIG = (
    "ctx 1. ((rcv(1).0 | snd(2,1).0) | (rcv(2).tick.0 | snd(2,2).0)) "
    "| ((tick.0 | rcv(1).0) | (snd(1,1).0 | rcv(3).0))"
)


def test_hooked_in_bot_is_the_oracle_on_closed_graphs(corpus):
    # fairtest.in_bot settles a graph's root; the oracle walks the graph
    cases = [(t, gamma) for gamma, terms in corpus.items() for t in terms] + [parse(BIG)]
    for t, gamma in cases:
        for root in ROOTS:
            g = closed_graph(root(t, gamma))
            for mode in ("weak", "strict"):
                assert fairtest.in_bot(g, mode) == in_bot(g, mode), (gamma, t, mode)


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
                vg = passes(subject, gamma, t, "strategy")
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
            for side in ("strategy", "process"):
                for mode in ("weak", "strict"):
                    h.update(passes(subject, 1, t, side, mode).render().encode() + b"\n")
    assert h.hexdigest() == GOLDEN_VERDICTS


# the benchmark's failing closed composite, about 9500 closed states per side
FAIL_SUBJECT = term("ctx 1. snd(1,1).rcv(1).0 + rcv(1).snd(1,1).0")
FAIL_TEST = FTest(
    (1,),
    1,
    term(
        "ctx 1. ((rcv(1).tick.0 | rcv(1).0) | (snd(2,1).0 | rcv(2).0)) "
        "| ((rcv(2).0 | snd(2,2).0) | (snd(1,1).0 | rcv(3).0))"
    ),
)


def test_large_composite_fail_witnesses():
    # the witnesses are shortest tick-free paths, ties broken by label order
    assert passes(FAIL_SUBJECT, 1, FAIL_TEST, "strategy").render() == (
        "fail witness: fork(1)@0#0,0;fork(2)@1#0,0;fork(2)@1#0,0;fork(3)@1#0,0;"
        "fork(3)@3#0,0;sync(1;1|4;1,1)@6,0#0,0;sync(4;1|2;1,1)@0,3#0,0"
    )
    assert passes(FAIL_SUBJECT, 1, FAIL_TEST, "process").render() == (
        "fail witness: fork(1)@1#;fork(2)@1#;fork(2)@3#;fork(3)@1#;"
        "fork(3)@4#;sync(1;1|4;1,1)@3,4#0,1;sync(4;1|2;1,1)@4,1#0,0"
    )


def test_witness_walk_breaks_ties_as_the_graph_search():
    # at five of the witness's seven levels two steps lead one nearer a
    # failing form, so the walk must take the least in label order, as
    # the breadth-first search of in_bot does; it walks forms the
    # verdict's search has already met
    for root in ROOTS:
        state = composite(root, FAIL_SUBJECT, 1, FAIL_TEST)
        search = fairtest._Search(fairtest._Ranks())
        top = search.distance(search.ranks.form(state))
        met = len(search.forms)
        witness = search.witness(state, int(top))
        assert len(search.forms) == met
        assert len(witness) == 7
        assert decide(state) == in_bot(closed_graph(state)) == Verdict(False, witness)


def has_tick(p):
    """Whether a tick prefix occurs anywhere in ``p``."""
    if isinstance(p, Par):
        return has_tick(p.left) or has_tick(p.right)
    return any(isinstance(prefix, Tick) or has_tick(cont) for prefix, cont in p.branches)


@st.composite
def random_composites(draw):
    """A random subject at context 0-2 composed, on a random side, with a
    random test at context 0-2 under a random handle map, and whether
    either term has a tick prefix."""
    gamma = draw(st.integers(0, 2))
    ctx = draw(st.integers(1 if gamma else 0, 2))
    h = draw(st.tuples(*[st.integers(1, ctx)] * gamma))
    subject = draw(terms(gamma))
    test = FTest(h, ctx, draw(terms(ctx)))
    root = composite(draw(st.sampled_from(ROOTS)), subject, gamma, test)
    return root, has_tick(subject) or has_tick(test.proc)


# tick-free, and its full closed graph passes lts.MAX_STATES
WIDE_SUBJECT = term("ctx 0. ((0|0)|(0|0)) | ((0|0)|0)")
WIDE_TEST = FTest((), 0, term("ctx 0. ((0|0)|(0|0)) | ((0|0)|(0|0))"))


@settings(max_examples=150, deadline=None)
@given(random_composites())
@example((composite(root_strategy, WIDE_SUBJECT, 0, WIDE_TEST), False))
@example((composite(root_process, WIDE_SUBJECT, 0, WIDE_TEST), False))
def test_search_matches_full_graph_verdict(drawn):
    root, ticks = drawn
    try:
        g = closed_graph(root)
    except RuntimeError as e:
        if str(e) != f"state space exceeds {lts.MAX_STATES} states":
            raise
        if ticks:
            reject()
        # without a tick the root cannot reach one, and no successor of
        # the root has one
        first = min(label for label, _ in Explorer().steps(root))
        assert decide(root) == Verdict(False, ())
        assert decide(root, "strict") == Verdict(False, (first.render(),))
        return
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


def test_search_counts_forms_only(monkeypatch):
    def cap(n):
        monkeypatch.setattr(lts, "MAX_STATES", n)

    # root, forked and ticking: three forms, no witness
    relay = composite(root_process, term("ctx 1. snd(2,2).0 | rcv(2).tick.0"), 1, EMPTY1)
    cap(3)
    assert decide(relay).passed
    cap(2)
    with pytest.raises(RuntimeError, match="state space exceeds 2 states"):
        decide(relay)
    # root, forked and deadlocked forms; the witness walks them and
    # meets no fourth
    late = composite(root_process, term("ctx 1. snd(2,2).0 | rcv(2).0 + tick.0"), 1, EMPTY1)
    cap(3)
    assert decide(late) == Verdict(False, ("fork(1)@1#", "sync(2;2|2;2,2)@2,1#0,0"))
    cap(2)
    with pytest.raises(RuntimeError, match="state space exceeds 2 states"):
        decide(late)


def test_tick_nest_meets_the_same_forms_on_both_sides(monkeypatch):
    # 20 ticks forked apart, against themselves: the forms hold ranked
    # bodies, so the strategy side, whose players order by arity first,
    # meets no more forms than the process side
    nest = "tick.0"
    for _ in range(19):
        nest = f"(tick.0 | {nest})"
    p = term(f"ctx 0. {nest}")
    for root in ROOTS:
        state = compose(root(p, 0), root(p, 0), ())
        monkeypatch.setattr(lts, "MAX_STATES", 381)
        assert decide(state) == Verdict(True)
        monkeypatch.setattr(lts, "MAX_STATES", 380)
        with pytest.raises(RuntimeError, match="^state space exceeds 380 states$"):
            decide(state)


def test_no_rank_table_outlives_eq_check(monkeypatch, tmp_path, capsys):
    # every verdict of one eq_check, fair --gen or passes call reads one
    # table, which goes when the call returns or raises
    tables, ids = [], set()
    orig_settle = fairtest.settle

    def spying_settle(ranks, form, composite, mode):
        tables.append(weakref.ref(ranks))
        ids.add(id(ranks))
        return orig_settle(ranks, form, composite, mode)

    def outcome(call):
        try:
            return call()
        except RuntimeError as exc:
            return str(exc)

    monkeypatch.setattr(fairtest, "settle", spying_settle)
    c, d = term("ctx 1. rcv(1).0 + rcv(1).0"), term("ctx 1. rcv(1).0")
    path = tmp_path / "c.act"
    path.write_text("ctx 1. rcv(1).0 + rcv(1).0\n")
    suite = list(itertools.islice(gen_tests(1, 2), 40))
    test = FTest((1,), 1, term("ctx 1. snd(1,1).0"))
    cap, cap_error = lts.MAX_STATES, "state space exceeds 1 states"
    for side in ("strategy", "process"):
        fair = ["fair", str(path), "--gen", "2", "--limit", "40", "--side", side]
        for call, least, passing, failing in (
            (lambda: eq_check(c, d, 1, suite, side).equivalent, 40, True, cap_error),
            (lambda: (cli.main(fair), capsys.readouterr().err), 30, (1, ""), (2, f"error: {cap_error}\n")),
            (lambda: passes(c, 1, test, side).passed, 0, False, cap_error),
        ):
            for max_states, want in ((cap, passing), (1, failing)):
                tables.clear()
                ids.clear()
                monkeypatch.setattr(lts, "MAX_STATES", max_states)
                assert outcome(call) == want
                assert max_states == 1 or len(tables) > least
                if max_states == 1:
                    gc.collect()
                assert len(ids) == 1 and tables[0]() is None


def test_a_suite_reads_each_bodys_offers_once(monkeypatch):
    # the rank table files a body from the offers it read to rank it
    read = []

    def counted(offers):
        def reading(body):
            read.append(body)
            return offers(body)

        return staticmethod(reading)

    for kind in (lts.PlayerState, lts.Thread):
        monkeypatch.setattr(kind, "offers", counted(kind.offers))
    c, d = term("ctx 1. rcv(1).0 + rcv(1).0"), term("ctx 1. rcv(1).0")
    suite = list(itertools.islice(gen_tests(1, 2), 200))
    for side in ("strategy", "process"):
        read.clear()
        assert eq_check(c, d, 1, suite, side).equivalent
        assert len(read) == len(set(read)) > 100


def test_state_bound_is_an_input_error(tmp_path, monkeypatch, capsys):
    subject = tmp_path / "subject.act"
    subject.write_text("ctx 1. rcv(1).tick.0 + snd(1,1).0\n")
    test = tmp_path / "test.act"
    test.write_text(BIG + "\n")
    argv = ["fair", str(subject), "--test", str(test)]
    assert cli.main(argv) == 0
    monkeypatch.setattr(lts, "MAX_STATES", 50)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: state space exceeds 50 states\n"


def test_one_cap_stops_graph_builds_and_searches(tmp_path, monkeypatch, capsys):
    # lts.MAX_STATES is read when each build or search starts, so one
    # setting caps closed and interface graphs and verdicts alike
    relay = "ctx 1. snd(2,2).0 | rcv(2).tick.0"
    p = term(relay)
    subject = tmp_path / "relay.act"
    subject.write_text(relay + "\n")
    empty = tmp_path / "empty.act"
    empty.write_text("ctx 1. 0\n")
    argv = ["fair", str(subject), "--test", str(empty)]
    calls = [
        lambda root: closed_graph(root(p, 1)),
        lambda root: interface_graph(root(p, 1)),
        lambda root: decide(composite(root, p, 1, EMPTY1)),
    ]
    for root in ROOTS:
        for call in calls:
            call(root)
    assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(lts, "MAX_STATES", 2)
    for root in ROOTS:
        for call in calls:
            with pytest.raises(RuntimeError, match="^state space exceeds 2 states$"):
                call(root)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: state space exceeds 2 states\n"


def test_passes_rejects_unknown_mode():
    with pytest.raises(ValueError):
        passes(term("ctx 0. 0"), 0, EMPTY0, mode="sloppy")


def test_decide_rejects_unknown_mode():
    state = composite(root_strategy, term("ctx 0. 0"), 0, EMPTY0)
    with pytest.raises(ValueError, match="unknown verdict mode 'sloppy'"):
        decide(state, "sloppy")


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


def test_gen_tests_share_one_handle_tuple_per_map():
    tests = list(gen_tests(2, 1))
    assert {t.h for t in tests} == {(1, 2), (1, 1)}
    assert len({id(t.h) for t in tests}) == 2


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
    assert res.checked >= 1 and res.test is not None
    assert res.verdict_left.passed != res.verdict_right.passed


def test_eq_check_reports_first_difference_in_suite_order():
    a = term("ctx 1. rcv(1).tick.0")
    b = term("ctx 1. rcv(1).tick.0 + rcv(1).0")
    suite = list(itertools.islice(gen_tests(1, 2), 100))
    res = eq_check(a, b, 1, suite)
    for k in range(res.checked - 1):
        va = passes(a, 1, suite[k])
        vb = passes(b, 1, suite[k])
        assert va.passed == vb.passed


def test_suite_builds_each_root_once_and_draws_tests_lazily(monkeypatch):
    # the first 53 tests hold repeats, such as tests 22 and 24, which
    # differ only in the order of their summands; a repeat counts but
    # is not composed. A test is composed as a root form from its
    # ranked body, and its root is built only for a failure witness
    a = term("ctx 1. snd(1,1).0")
    b = term("ctx 1. snd(1,1).snd(1,1).0")
    built, drawn, forms = [], [], []
    orig_settle = fairtest.settle

    def root(p, gamma):
        built.append(p)
        return root_process(p, gamma)

    def tests():
        for t in gen_tests(1, 2):
            drawn.append(t)
            yield t

    def spying_settle(ranks, form, composite, mode):
        forms.append(form)
        return orig_settle(ranks, form, composite, mode)

    monkeypatch.setitem(lts.ROOTS, "process", root)
    monkeypatch.setattr(fairtest, "settle", spying_settle)
    res = eq_check(a, b, 1, tests(), side="process")
    assert not res.equivalent and len(drawn) == res.checked == 53
    firsts = {}
    for t in drawn:
        firsts.setdefault((canonical(t.proc), t.ctx, t.h), t.proc)
    assert len(firsts) == 50 and len(forms) == 2 * 50
    # one of the distinguishing test's two verdicts fails, with a witness
    assert [v.passed for v in (res.verdict_left, res.verdict_right)].count(False) == 1
    assert built == [a, b, drawn[-1].proc]
    # a repeat takes its key's flags, and its verdicts, when asked for,
    # are its own composites' verdicts: each key is settled once, and
    # each of the three repeats once more, for its verdicts
    wants = [(passes(a, 1, t, "process"), passes(b, 1, t, "process")) for t in drawn]
    forms.clear()
    for (_, flags, verdicts), want in zip(suite_verdicts([a, b], 1, drawn, "process"), wants):
        assert flags == tuple(v.passed for v in want)
        assert verdicts() == want
    assert len(forms) == 2 * 50 + 2 * 3


def test_suite_root_forms_are_the_composites_forms(monkeypatch):
    # in the suite's rank table, the root form built from subject, test
    # and handle map is the form of the concrete composite, at the same
    # distance: over the canonical suite and a merged-map block, with
    # every repeat's verdicts asked for
    cases = [
        (term("ctx 1. rcv(1).tick.0 + snd(1,1).0"), 1, list(gen_tests(1, 2))),
        (term("ctx 2. rcv(1).snd(2,2).0 + tick.0"), 2, list(gen_tests(2, 1))[count_terms(2, 1, 2) :]),
    ]
    assert {t.h for t in cases[1][2]} == {(1, 1)}
    settled = []

    def recording_settle(ranks, form, composite, mode):
        settled.append((ranks, form, composite))
        return True, lambda: Verdict(True)

    monkeypatch.setattr(fairtest, "settle", recording_settle)
    for side, root in lts.ROOTS.items():
        for subject, gamma, tests in cases:
            for test, _, verdicts in suite_verdicts([subject], gamma, tests, side):
                verdicts()
                ((ranks, form, build),) = settled
                settled.clear()
                old = ranks.form(compose(root(subject, gamma), root(test.proc, test.ctx), test.h))
                assert form == old == ranks.form(build())
                assert fairtest._Search(ranks).distance(form) == fairtest._Search(ranks).distance(old)


CRITERION_6 = [
    term("ctx 1. rcv(1).tick.0"),
    term("ctx 1. rcv(1).tick.0 + rcv(1).0"),
    term("ctx 1. rcv(1).0 + rcv(1).0"),
    term("ctx 1. rcv(1).0"),
]


def permuted(p, rng):
    """``p`` with the summands of every choice shuffled by ``rng``."""
    if isinstance(p, Par):
        return Par(permuted(p.left, rng), permuted(p.right, rng))
    branches = [(prefix, permuted(cont, rng)) for prefix, cont in p.branches]
    rng.shuffle(branches)
    return Sum(tuple(branches))


@settings(max_examples=60, deadline=None)
@given(terms(1, depth=3, width=3), st.randoms(use_true_random=False))
def test_permuting_summands_keeps_every_verdict(proc, rng):
    # what lets a suite run one test per key: see fairtest.suite_verdicts
    test = FTest((1,), 1, proc)
    other = FTest((1,), 1, permuted(proc, rng))
    for root in ROOTS:
        for subject in CRITERION_6:
            this, that = (composite(root, subject, 1, t) for t in (test, other))
            for mode in ("weak", "strict"):
                assert decide(this, mode).passed == decide(that, mode).passed


def test_eq_check_searches_for_no_witness(monkeypatch):
    # C and D of criterion 6 fail alike on many tests; eq_check reads
    # only whether each composite passed, and builds a concrete
    # composite, for a witness, only where a verdict of the test that
    # tells A from B fails
    a = term("ctx 1. rcv(1).tick.0")
    b = term("ctx 1. rcv(1).tick.0 + rcv(1).0")
    c = term("ctx 1. rcv(1).0 + rcv(1).0")
    d = term("ctx 1. rcv(1).0")
    failed, composed = [], []
    orig_settle, orig_compose = fairtest.settle, fairtest.compose

    def counting_settle(ranks, form, composite, mode):
        passed, verdict = orig_settle(ranks, form, composite, mode)
        failed.append(not passed)
        return passed, verdict

    def counting_compose(subject, env, h):
        composed.append(orig_compose(subject, env, h))
        return composed[-1]

    monkeypatch.setattr(fairtest, "settle", counting_settle)
    monkeypatch.setattr(fairtest, "compose", counting_compose)
    suite = list(itertools.islice(gen_tests(1, 2), 0, None, 20))
    for side in ("strategy", "process"):
        assert eq_check(c, d, 1, suite, side).equivalent
    assert sum(failed) > 100 and composed == []
    for side in ("strategy", "process"):
        res = eq_check(a, b, 1, suite, side)
        assert not res.equivalent
        failing = [s for s, v in ((a, res.verdict_left), (b, res.verdict_right)) if not v.passed]
        assert len(failing) == 1
        assert composed == [composite(lts.ROOTS[side], s, 1, res.test) for s in failing]
        composed.clear()


def test_fair_gen_composes_only_failing_tests(tmp_path, monkeypatch, capsys):
    # fair --gen decides each test from its root form, and builds a
    # concrete composite only for a failing test's witness
    b = "ctx 1. rcv(1).tick.0 + rcv(1).0"
    path = tmp_path / "b.act"
    path.write_text(b + "\n")
    suite = list(itertools.islice(gen_tests(1, 2), 400))
    composed = []
    orig_compose = fairtest.compose

    def counting_compose(subject, env, h):
        composed.append(orig_compose(subject, env, h))
        return composed[-1]

    monkeypatch.setattr(fairtest, "compose", counting_compose)
    for side, root in lts.ROOTS.items():
        composed.clear()
        assert cli.main(["fair", str(path), "--gen", "2", "--limit", "400", "--side", side]) == 1
        lines = capsys.readouterr().out.splitlines()[:-1]
        failing = [k for k, line in enumerate(lines) if line.startswith(f"test#{k} fail")]
        assert 0 < len(failing) < len(lines) == len(suite)
        assert composed == [composite(root, term(b), 1, suite[k]) for k in failing]


def test_distinguishing_verdicts_carry_their_witnesses():
    a = term("ctx 1. rcv(1).tick.0")
    b = term("ctx 1. rcv(1).tick.0 + rcv(1).0")
    for side in ("strategy", "process"):
        res = eq_check(a, b, 1, gen_tests(1, 2), side)
        assert not res.equivalent
        for subject, verdict in ((a, res.verdict_left), (b, res.verdict_right)):
            full = in_bot(closed_graph(composite(lts.ROOTS[side], subject, 1, res.test)))
            assert verdict == passes(subject, 1, res.test, side) == full
            assert verdict.render() == full.render()


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
