import gc
import hashlib
import itertools
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actorgame import arena, lts
from actorgame.fairtest import _Ranks
from actorgame.arena import Fork, Heartbeat, Sync, to_dot
from actorgame.cli import main
from actorgame.lts import (
    SILENT_TAGS,
    ALab,
    Explorer,
    LtsGraph,
    PlayerState,
    State,
    StepLabel,
    Thread,
    _Interface,
    _rank_bodies,
    arena_position,
    arena_trace,
    closed_graph,
    interface_graph,
    process_lts,
    root_process,
    root_strategy,
    strategy_lts,
    weak_bisim,
)
from actorgame.strategy import Definite, interpret
from actorgame.term import NIL, Sum, Tick, enumerate_terms, parse
from gen import typed_terms
from oracles import (
    AState,
    closed_moves,
    closed_steps,
    concrete_interface_graph,
    decoded,
    interface_steps,
    naive_weak_equiv,
)

RELAY = "ctx 1. snd(2,2).0 | rcv(2).tick.0"


def roots_of(p, gamma):
    return root_strategy(p, gamma), root_process(p, gamma)


def roots(text):
    return roots_of(*parse(text))


# --------------------------------------------------------------- states


def test_game_state_sorts_players():
    s = interpret(parse("ctx 1. tick.0")[0], 1)
    a = PlayerState((1,), s)
    b = PlayerState((1,), Definite(1))
    g1 = State.of(1, [a, b])
    g2 = State.of(1, [b, a])
    assert g1 == g2 and g1.actors == (b, a)


def test_game_state_rejects_arity_mismatch():
    arity = r"^player attached to 2 channels runs a strategy of arity 1$"
    with pytest.raises(ValueError, match=arity):
        State.of(2, [PlayerState((1, 2), Definite(1))])
    with pytest.raises(ValueError, match=r"^attachment 2 outside 1\.\.1$"):
        State.of(1, [PlayerState((2,), Definite(1))])


def test_a_player_built_from_its_fields_is_checked():
    # _make and _replace build through the constructor, and _make also
    # checks the arity field against the attachment
    s = interpret(parse("ctx 1. tick.0")[0], 1)
    player = PlayerState((1,), s)
    assert PlayerState._make((1, (1,), s)) == player
    assert type(player._replace(attach=(2,))) is PlayerState
    with pytest.raises(ValueError, match=r"^player of arity 5 attached to 1 channels$"):
        PlayerState._make((5, (1,), s))
    arity = r"^player attached to 2 channels runs a strategy of arity 1$"
    with pytest.raises(ValueError, match=arity):
        PlayerState._make((2, (1, 2), s))
    with pytest.raises(ValueError, match=r"^player of arity 1 attached to 2 channels$"):
        player._replace(attach=(1, 2))
    with pytest.raises(ValueError, match=arity):
        player._replace(arity=2, attach=(1, 2))


def test_proc_state_rejects_bad_env():
    with pytest.raises(ValueError, match=r"^attachment 2 outside 1\.\.1$"):
        State.of(1, [Thread(parse("ctx 0. 0")[0], (2,))])


@pytest.mark.parametrize("side", ["strategy", "process"])
def test_steps_check_the_attachments_of_a_state_built_as_a_tuple(side):
    # only ``State.of`` checks a state's actors, so a closed step checks
    # each avatar it inserts and an interface build its root's actors
    tick = parse("ctx 1. tick.0")[0]
    actor = PlayerState((5,), interpret(tick, 1)) if side == "strategy" else Thread(tick, (5,))
    state = State(1, (actor,))
    with pytest.raises(ValueError, match=r"^attachment 5 outside 1\.\.1$"):
        Explorer().steps(state)
    with pytest.raises(ValueError, match=r"^attachment 5 outside 1\.\.1$"):
        interface_graph(state)


def test_steps_check_the_arity_of_a_player_built_as_a_tuple():
    # a player built without its constructor may run a strategy of
    # another arity, so a closed step checks each avatar as PlayerState
    # does, and an interface build its root's actors
    tick = interpret(parse("ctx 1. tick.0")[0], 1)
    state = State(1, (tuple.__new__(PlayerState, (2, (1, 1), tick)),))
    arity = r"^player attached to 2 channels runs a strategy of arity 1$"
    with pytest.raises(ValueError, match=arity):
        Explorer().steps(state)
    with pytest.raises(ValueError, match=arity):
        interface_graph(state)


def test_root_states():
    g, s = roots("ctx 2. tick.0")
    assert g.num_channels == 2 and g.actors[0].attach == (1, 2)
    assert s.num_channels == 2 and s.actors[0].attach == (1, 2)


# --------------------------------------------------------- closed world


def test_closed_chain_golden_strategy_side():
    g, _ = roots(RELAY)
    graph = closed_graph(g)
    assert graph.dump() == (
        "lts-v1 vertices=4 edges=3 root=0\n"
        "0 -fork(1)@0#0,0-> 1\n"
        "1 -sync(2;2|2;2,2)@1,0#0,0-> 2\n"
        "2 -tick(3)@1#0-> 3\n"
    )


def test_closed_chain_process_side_same_shape():
    _, s = roots(RELAY)
    graph = closed_graph(s)
    assert len(graph.states) == 4 and graph.num_edges == 3
    kinds = [type(label.kind).__name__ for e in graph.edges for label, _ in e]
    assert kinds == ["Fork", "Sync", "Heartbeat"]


def test_tick_steps_per_branch():
    _, s = roots("ctx 0. tick.tick.0 + tick.0")
    steps = Explorer().steps(s)
    assert len(steps) == 2
    assert all(label.is_tick for label, _ in steps)
    assert len({target for _, target in steps}) == 2


def test_fork_creates_shared_channel():
    g, s = roots("ctx 1. 0 | 0")
    (label_g, nxt_g), = Explorer().steps(g)
    assert label_g.kind == Fork(1)
    assert nxt_g.num_channels == 2
    assert all(p.attach == (1, 2) for p in nxt_g.actors)
    (label_s, nxt_s), = Explorer().steps(s)
    assert nxt_s.num_channels == 2
    assert all(t.attach == (1, 2) for t in nxt_s.actors)


def test_sync_moves_object_channel():
    g, s = roots("ctx 2. snd(1,2).0 | rcv(1).snd(3,3).0")
    # fork first, then the receiver gains the sender's object channel
    (_, g1), = Explorer().steps(g)
    sync_steps = [x for x in Explorer().steps(g1) if x[0].tag == "sync"]
    assert len(sync_steps) == 1
    label, g2 = sync_steps[0]
    assert label.kind == Sync(3, 1, 3, 1, 2)
    receiver = next(p for p in g2.actors if len(p.attach) == 4)
    assert receiver.attach == (1, 2, 3, 2)
    (_, s1), = Explorer().steps(s)
    sl, s2 = next(x for x in Explorer().steps(s1) if x[0].tag == "sync")
    recv_thread = next(t for t in s2.actors if len(t.attach) == 4)
    assert recv_thread.attach == (1, 2, 3, 2)


def test_sync_needs_distinct_actors():
    # a lone thread with both a send and a receive cannot talk to itself
    _, s = roots("ctx 1. snd(1,1).0 + rcv(1).0")
    assert Explorer().steps(s) == []


def test_sync_between_identical_twins():
    g, _ = roots("ctx 1. (snd(2,2).0 + rcv(2).0) | (snd(2,2).0 + rcv(2).0)")
    (_, g1), = Explorer().steps(g)
    syncs = [x for x in Explorer().steps(g1) if x[0].tag == "sync"]
    # either twin may send to the other
    assert len(syncs) == 2


def assert_acyclic(graph):
    # BFS numbering alone does not make every edge point at a later
    # vertex, so peel off sources until none is left
    n = len(graph.states)
    indeg = [0] * n
    for src in range(n):
        for _, dst in graph.edges[src]:
            indeg[dst] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for _, dst in graph.edges[v]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                queue.append(dst)
    assert seen == n


def test_closed_graphs_are_dags(small_corpus):
    for gamma, terms in small_corpus.items():
        for t in terms[:12]:
            assert_acyclic(closed_graph(root_strategy(t, gamma)))


@settings(max_examples=40, deadline=None)
@given(typed_terms())
def test_random_terms_give_acyclic_graphs(tg):
    # weak_bisim relies on this: every step consumes a prefix or a
    # parallel node
    t, gamma = tg
    assert_acyclic(strategy_lts(t, gamma))
    assert_acyclic(process_lts(t, gamma))
    assert_acyclic(closed_graph(root_strategy(t, gamma)))
    assert_acyclic(closed_graph(root_process(t, gamma)))


# ------------------------------------------------- int-coded verdict forms


def fork_successors(state):
    return [nxt for label, nxt in Explorer().steps(state) if isinstance(label.kind, Fork)]


def test_normal_form_drops_inert_actors():
    for root in roots("ctx 1. 0 | tick.0"):
        (_, state), = Explorer().steps(root)
        ranks = _Ranks()
        n, actors = ranks.form(state)
        assert len(state.actors) == 2
        (live,) = [a for a in state.actors if a.offers(a.body)]
        assert actors == ((ranks.of(type(live), live.body), (1, 2)),) and n == 2
        assert [key for key, _ in live.offers(live.body)] == [("heart",)]
        assert ranks.steps((n, actors)) == (True, [])


def test_normal_form_renumbers_held_channels_by_first_occurrence():
    # p ranks before q on both sides, so its (4, 5) are read first and
    # become (1, 2), then q's 2 becomes 3; no actor holds 1, 3 or 6
    p, q = parse("ctx 2. rcv(1).0")[0], parse("ctx 2. snd(1,2).0")[0]
    for actor in (lambda t, a: PlayerState(a, interpret(t, 2)), lambda t, a: Thread(t, a)):
        ranks = _Ranks()
        rp, rq = (ranks.of(type(a), a.body) for a in (actor(p, (1, 2)), actor(q, (1, 2))))
        assert (rp, rq) == (0, 1)
        state = State.of(6, [actor(q, (5, 2)), actor(p, (4, 5))])
        assert ranks.form(state) == (3, ((rp, (1, 2)), (rq, (2, 3))))


def test_fork_interleavings_share_a_normal_form():
    # forking A then B or B then A gives A's halves and B's halves the
    # fresh channels 2 and 3 the other way round
    text = "ctx 0. (tick.0 | tick.tick.0) | (tick.tick.tick.0 | tick.tick.tick.tick.0)"
    for root in roots(text):
        (both,) = fork_successors(root)
        a_first, b_first = fork_successors(both)
        ((ab,), (ba,)) = fork_successors(a_first), fork_successors(b_first)
        assert ab != ba
        ranks = _Ranks()
        assert ranks.form(ab) == ranks.form(ba)
        # and the forms built from forms meet there too
        (form,) = ranks.steps(ranks.form(root))[1]
        a_form, b_form = ranks.steps(form)[1]
        assert ranks.steps(a_form)[1] == ranks.steps(b_form)[1] == [ranks.form(ab)]


def test_normal_form_keeps_tick_flag_and_step_count():
    # one table serves every state, as one serves a suite; on the states
    # of single terms the forms of a state's silent steps are, in order,
    # the forms of the explorer's tick-free successors, since both
    # engines list the fork pairs and sync matches of one enumeration
    for gamma in (0, 1, 2):
        ranks = _Ranks()
        for t in itertools.islice(enumerate_terms(gamma, 3, 2), 400):
            for root in (root_strategy(t, gamma), root_process(t, gamma)):
                world = Explorer()
                for state in closed_graph(root).states:
                    silent = [nxt for label, nxt in world.steps(state) if not label.is_tick]
                    form_tick, form_steps = ranks.steps(ranks.form(state))
                    assert world.can_tick(state) == form_tick
                    assert form_steps == [ranks.form(nxt) for nxt in silent]


def test_interface_silent_moves_are_the_explorers(small_corpus):
    # each interface state's fork and sync moves, decoded, are in order
    # the explorer's tick-free successors of the decoded state; coded
    # actors order as the actors do, so this holds on many-actor states
    picked = [root for gamma, terms in small_corpus.items() for t in terms for root in roots_of(t, gamma)]
    for root in picked + list(roots(W1376)):
        engine = _Interface(root)
        graph = engine.build()
        concrete = decoded(root, graph.states)
        for (h, n, actors), state in zip(graph.states, concrete):
            moves = engine.shared[n, actors]
            coded = [(h, m, succ) for _, label, _, m, succ in moves if label.tag in SILENT_TAGS]
            silent = [nxt for label, nxt in Explorer().steps(state.subject) if not label.is_tick]
            assert [a.subject for a in decoded(root, coded)] == silent


# ------------------------------------------------------------ interface


def test_interface_golden_strategy_side():
    p, gamma = parse(RELAY)
    graph = strategy_lts(p, gamma)
    assert graph.dump() == (
        "lts-v1 vertices=9 edges=8 root=0\n"
        "0 -fork-> 3\n"
        "0 -forkL-> 1\n"
        "0 -forkR-> 2\n"
        "1 -out(2,2)-> 4\n"
        "2 -in(2)-> 5\n"
        "3 -sync-> 6\n"
        "5 -tick-> 7\n"
        "6 -tick-> 8\n"
    )


def test_interface_in_requires_known_channel():
    # the bound channel of a receive is private until the environment
    # learns it from an emit
    p, gamma = parse("ctx 1. rcv(1).rcv(2).0")
    graph = process_lts(p, gamma)
    labels = sorted(l.render() for e in graph.edges for l, _ in e)
    assert labels == ["in(1)", "in(2)"]
    # the second receive listens on the fresh channel 2, which the
    # environment knows because it sent it
    q, gq = parse("ctx 1. rcv(1).0 | rcv(2).0")
    g2 = process_lts(q, gq)
    rendered = {l.render() for e in g2.edges for l, _ in e}
    assert "in(1)" in rendered
    # channel 2 names the private forked mailbox: silent fork keeps it
    # hidden, the observable halves hand it over
    assert "forkL" in rendered and "forkR" in rendered and "fork" in rendered


def successors(graph):
    """The (label, coded state) pairs of the root's edges."""
    return [(label, graph.states[w]) for label, w in graph.edges[0]]


def test_interface_out_teaches_environment():
    graph = process_lts(*parse("ctx 1. snd(1,1).0"))
    (label, (h, _, _)), = successors(graph)
    assert label == ALab("out", (1, 1))
    assert h == (1, 1)


def test_interface_out_needs_known_subject():
    # after a silent fork the shared mailbox is unknown to the
    # environment, so an emit on it is invisible and the state is stuck
    graph = process_lts(*parse("ctx 0. snd(1,1).0 | 0"))
    after = {label.tag: w for label, w in graph.edges[0]}
    assert graph.edges[after["fork"]] == ()
    # but through the observable half-fork the environment owns the
    # sibling end and sees the emit
    assert [l for l, _ in graph.edges[after["forkL"]]] == [ALab("out", (1, 1))]


def test_interface_tick_keeps_h():
    graph = strategy_lts(*parse("ctx 0. tick.0"))
    (label, (h, _, _)), = successors(graph)
    assert label == ALab("tick")
    assert h == ()


def test_interface_silent_fork_vs_observable_halves():
    p, gamma = parse("ctx 0. 0 | 0")
    graph = strategy_lts(p, gamma)
    rendered = sorted(l.render() for e in graph.edges for l, _ in e)
    assert rendered == ["fork", "forkL", "forkR"]
    h, _, _ = graph.states[0]
    for label, (h2, num_channels, actors) in successors(graph):
        if label.tag == "fork":
            assert h2 == h
            assert num_channels == 1
            assert len(actors) == 2
        else:
            assert h2 == h + (1,)
            assert len(actors) == 1


def test_link_rule_only_behind_flag():
    p, gamma = parse("ctx 2. rcv(1).0")
    plain = process_lts(p, gamma)
    assert not any(l.tag == "link" for e in plain.edges for l, _ in e)
    linked = interface_graph(root_process(p, gamma), enable_link=True)
    links = [l for e in linked.edges for l, _ in e if l.tag == "link"]
    assert links == [ALab("link", (1, 3, 2))]
    # h unchanged by link
    for label, (h, num_channels, _) in successors(linked):
        if label.tag == "link":
            assert h == (1, 2)
            assert num_channels == 3


def test_link_steps_follow_the_actors_other_steps():
    # the in step of a receive comes first, its link steps after every
    # other step of the same thread: a build numbers successors in step
    # order
    p, gamma = parse("ctx 2. rcv(1).0 + tick.0")
    graph = interface_graph(root_process(p, gamma), enable_link=True)
    tags = [label.tag for label, _ in sorted(graph.edges[0], key=lambda e: e[1])]
    assert tags == ["in", "tick", "link"]


def test_link_graphs_weakly_bisimilar_across_sides(small_corpus):
    for gamma, terms in small_corpus.items():
        for t in terms:
            linked_p = interface_graph(root_process(t, gamma), enable_link=True)
            linked_s = interface_graph(root_strategy(t, gamma), enable_link=True)
            assert weak_bisim(linked_p, linked_s).equivalent, (gamma, t)


def test_noninjective_h_duplicates_are_one_edge():
    # both handles name channel 1; the in label is by channel, so the
    # two table matches collapse into one edge
    p, gamma = parse("ctx 1. rcv(1).0")
    engine = _Interface(root_process(p, gamma))
    _, num_channels, actors = engine.root
    engine.root = ((1, 1), num_channels, actors)
    graph = engine.build()
    ins = [l for e in graph.edges for l, _ in e if l.tag == "in"]
    assert ins == [ALab("in", (1,))]


# ------------------------------------------------------------ golden dumps

# SHA-256 of the concatenated dump() text of every corpus term, one
# digest per kind of graph, recorded while each side still had its own
# step rules; they check the closed steps and the coded interface
# engine against those rules.
GOLDEN_DUMPS = {
    "closed.strategy": (
        "0103e2863f31c3c04610f30c57063c11"
        "a02b77d6a73f3aa1958623affe218782"
    ),
    "closed.process": (
        "18139a8dcd0fb781b1bb092807156b4e"
        "5607abc47c986cde7b9b6b3eea461091"
    ),
    "interface.strategy": (
        "7ebad7f8b01c166e175c9e33f38cc9b2"
        "51b182c67d09a0ad3a3264bc83bbb880"
    ),
    "interface.process": (
        "03076ece52412722b2f0265685775222"
        "0e2b3367f622eb49fc477409d9d1402a"
    ),
    "interface.strategy.link": (
        "1e576277c3c814511388e7a481d6f7bd"
        "211e278e1c26bbf86c83fca61b3dd0ca"
    ),
    "interface.process.link": (
        "605473a931b9d4f0bbcc0cd28f413599"
        "83df101fd9f2520a87404d26cbd6163d"
    ),
}


def corpus_dump_digests(corpus):
    builds = {
        "closed.strategy": lambda t, g: closed_graph(root_strategy(t, g)),
        "closed.process": lambda t, g: closed_graph(root_process(t, g)),
        "interface.strategy": strategy_lts,
        "interface.process": process_lts,
        "interface.strategy.link": lambda t, g: interface_graph(
            root_strategy(t, g), enable_link=True
        ),
        "interface.process.link": lambda t, g: interface_graph(
            root_process(t, g), enable_link=True
        ),
    }
    digests = {kind: hashlib.sha256() for kind in builds}
    for gamma, terms in corpus.items():
        for t in terms:
            for kind, build in builds.items():
                digests[kind].update(build(t, gamma).dump().encode())
    return {kind: h.hexdigest() for kind, h in digests.items()}


def test_corpus_dumps_match_golden_digests(corpus):
    assert corpus_dump_digests(corpus) == GOLDEN_DUMPS


# --------------------------------------------------------------- graphs


def test_build_graph_deterministic():
    p, gamma = parse(RELAY)
    assert strategy_lts(p, gamma).dump() == strategy_lts(p, gamma).dump()


def test_edges_share_interned_labels_and_kinds():
    # equal interface labels are one object, and so are equal closed
    # step labels and equal closed move kinds
    for root in roots("ctx 1. (snd(1,1).0 | rcv(1).tick.0) | tick.0"):
        closed = [l for e in closed_graph(root).edges for l, _ in e]
        for values in (
            [l for e in interface_graph(root).edges for l, _ in e],
            closed,
            [l.kind for l in closed],
        ):
            assert len(values) > len(set(values)) > 1
            assert len({id(v) for v in values}) == len(set(values))


# the graph builders: closed graphs through build_graph, interface
# graphs through their own loop
BUILDS = (
    strategy_lts,
    process_lts,
    lambda p, g: closed_graph(root_strategy(p, g)),
    lambda p, g: closed_graph(root_process(p, g)),
)


def test_build_graph_max_states(monkeypatch):
    p, gamma = parse(RELAY)
    assert len(closed_graph(root_strategy(p, gamma)).states) > 3
    monkeypatch.setattr(lts, "MAX_STATES", 3)
    for build in BUILDS:
        with pytest.raises(RuntimeError, match="^state space exceeds 3 states$"):
            build(p, gamma)


def test_build_graph_leaves_the_collector_as_it_found_it(monkeypatch):
    p, gamma = parse(RELAY)
    collecting = gc.isenabled()
    try:
        for enabled in (True, False):
            for build in BUILDS:
                gc.enable() if enabled else gc.disable()
                build(p, gamma)
                assert gc.isenabled() == enabled
                with monkeypatch.context() as m:
                    m.setattr(lts, "MAX_STATES", 3)
                    with pytest.raises(RuntimeError, match="^state space exceeds 3 states$"):
                        build(p, gamma)
                assert gc.isenabled() == enabled
    finally:
        gc.enable() if collecting else gc.disable()


# The W50K pair of perfbench/workloads.py: 49866 interface states per
# side, enough to order many actors with equal bodies in one state.
W50K = (
    "ctx 0. (snd(1,1).tick.0 + rcv(1).tick.0) | ((snd(2,2).rcv(2).0 + rcv(1).0) "
    "| ((rcv(1).snd(3,3).tick.0 | snd(1,1).rcv(1).0) | (snd(1,2).0 | rcv(1).snd(1,1).0)))"
)

W50K_LTS_SHA256 = {
    "strategy": "802e740afdc92c7d9488b55ca0a1e1f28f3bf0ae93697ed9bd89f3c2e86f21aa",
    "process": "865fe0d247278058a3fab2df88221159b52da3ae184ab522cd7ddfc095b7bc4a",
}


def test_large_interface_dumps_match_golden_digests(capsys, tmp_path):
    f = tmp_path / "w50k.act"
    f.write_text(W50K + "\n")
    for side, digest in W50K_LTS_SHA256.items():
        assert main(["lts", str(f), "--side", side]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def assert_explorer_matches_the_reference(root):
    # one explorer serves every state of the closed graph; its moves,
    # steps and tick flag equal those of a fresh explorer and of the
    # reference, which files every body afresh at every state, and each
    # successor is State.of of the unmoved actors and the avatars
    world = Explorer()
    for state in closed_graph(root).states:
        moves, steps = world.moves(state), world.steps(state)
        assert moves == Explorer().moves(state) == closed_moves(state)
        assert steps == Explorer().steps(state) == closed_steps(state)
        assert world.can_tick(state) == any(label.is_tick for label, _ in steps)
        for (label, nxt), (kind, actors, choice, created, avatars) in zip(steps, moves):
            assert label == StepLabel(kind, actors, choice)
            kept = [a for i, a in enumerate(state.actors) if i not in actors]
            moved = [a for av in avatars for a in av]
            assert nxt == State.of(state.num_channels + created, kept + moved)


def test_explorer_matches_the_reference_on_the_corpus(corpus):
    for gamma, terms in corpus.items():
        for t in terms:
            assert_explorer_matches_the_reference(root_strategy(t, gamma))
            assert_explorer_matches_the_reference(root_process(t, gamma))


@settings(max_examples=40, deadline=None)
@given(typed_terms())
def test_explorer_matches_the_reference_on_random_terms(tg):
    t, gamma = tg
    assert_explorer_matches_the_reference(root_strategy(t, gamma))
    assert_explorer_matches_the_reference(root_process(t, gamma))


@settings(max_examples=40, deadline=None)
@given(typed_terms())
# a state whose moves were first built for an equal state of other actor
# objects: its successors hold those objects in place of its unmoved ones
@example(parse("ctx 1. (0 | 0) | tick.0 + snd(1,1).0"))
def test_steps_with_filed_offers_and_inserted_avatars_match_fresh_ones(tg):
    # on every coded state of a build, with and without the link rule:
    # its edges, decoded, are the concrete engine's steps; the shared
    # moves of its (n, actors) equal those of an engine with no entries
    # yet, and each entry (its observable moves and its coded receives,
    # sends and fork halves) equals a fresh one; each successor's actors
    # are sorted, and each observable successor holds the unmoved
    # actors, compared by value, and the avatar object of the moved
    # actor's entry
    t, gamma = tg
    for root in (root_strategy(t, gamma), root_process(t, gamma)):
        for link in (True, False):
            engine = _Interface(root, link)
            graph = engine.build()
            concrete = decoded(root, graph.states)
            for v, (_, n, actors) in enumerate(graph.states):
                steps = {(l, concrete[w]) for l, w in graph.edges[v]}
                assert steps == set(interface_steps(concrete[v], link))
                shared = engine.shared[n, actors]
                fresh_moves = []
                _Interface(root, link).fill(fresh_moves, n, actors)
                assert shared == fresh_moves
                entries = {}
                for actor in actors:
                    moves, rules = engine.entries[n + 1][actor]
                    fresh, fresh_rules = _Interface(root, link).entry(actor, n + 1)
                    assert moves == fresh
                    if rules is None:
                        assert fresh_rules is None
                    else:
                        assert rules[1:] == fresh_rules[1:]
                        assert [r[:3] for r in rules[0]] == [r[:3] for r in fresh_rules[0]]
                        for _, _, group, by_obj in rules[0]:
                            for obj, avatars in by_obj.items():
                                assert avatars == engine.avatars(group, actor[1] + (obj,))
                    entries[actor] = {id(av) for *_, avatars in moves for av in avatars}
                before = Counter(actors)
                for _, label, _, _, succ in shared:
                    # a link move holds the successor of each avatar
                    for nxt in succ if label is None else (succ,):
                        assert list(nxt) == sorted(nxt)
                        if label is not None and label.tag in SILENT_TAGS:
                            continue
                        after = Counter(nxt)
                        [gone], [avatar] = before - after, after - before
                        assert any(id(a) in entries[gone] for a in nxt if a == avatar)


def assert_matches_the_concrete_engine(root):
    for link in (False, True):
        graph = interface_graph(root, enable_link=link)
        oracle = concrete_interface_graph(root, enable_link=link)
        assert graph.dump() == oracle.dump()
        assert decoded(root, graph.states) == oracle.states
        # each vertex's edges are sorted, with no (label, target) twice
        for edges in graph.edges:
            assert all(a < b for a, b in zip(edges, edges[1:])), edges


def test_coded_interface_graphs_match_the_concrete_engine(corpus):
    # the dump, the state of every vertex decoded through ranks that
    # plain sorted gives and strictly increasing edges, on both sides,
    # with and without the link rule
    for gamma, terms in corpus.items():
        for t in terms:
            assert_matches_the_concrete_engine(root_strategy(t, gamma))
            assert_matches_the_concrete_engine(root_process(t, gamma))


@settings(max_examples=60, deadline=None)
@given(typed_terms())
def test_coded_interface_graphs_match_the_concrete_engine_on_random_terms(tg):
    t, gamma = tg
    assert_matches_the_concrete_engine(root_strategy(t, gamma))
    assert_matches_the_concrete_engine(root_process(t, gamma))


def test_equal_steps_are_one_edge():
    # the root's two tick branches make two equal steps, which a build
    # keeps as one edge on both sides, with and without the link rule
    for root in roots("ctx 0. tick.0 + tick.0"):
        for link in (False, True):
            engine = _Interface(root, link)
            graph = engine.build()
            assert len(engine.shared[engine.root[1:]]) == 2
            assert graph.edges == [((ALab("tick"), 1),), ()]


def test_deep_bodies_rank_and_build_without_recursion():
    # a chain of 3000 ticks is far deeper than a recursive comparison or
    # hash can go; its suffixes rank by length, and its interface graph
    # is the chain of its ticks, on both sides
    chain, table = NIL, Definite(0)
    for _ in range(3000):
        chain = Sum(((Tick(), chain),))
        table = Definite(0, ((("heart",), (table,)),))
    for actor in (Thread(chain, ()), PlayerState((), table)):
        rank, filings = _rank_bodies(type(actor), (actor,))
        assert rank[id(actor.body)] == 3000 and len(filings) == 3001
        [(tag, slots, created, [(_, below)])] = filings[3000][0]
        assert filings[0] == ((), (), None) and rank[id(below)] == 2999
        assert (tag, slots, created) == ("tick", (), 0) and filings[3000][2] is None
        graph = interface_graph(State(0, (actor,)))
        assert len(graph.states) == 3001 and graph.num_edges == 3000


def test_empty_graph_dump():
    p, gamma = parse("ctx 0. 0")
    assert closed_graph(root_strategy(p, gamma)).dump() == (
        "lts-v1 vertices=1 edges=0 root=0\n"
    )


# ------------------------------------------------------------ weak bisim


def test_weak_bisim_reflexive():
    p, gamma = parse(RELAY)
    g = strategy_lts(p, gamma)
    res = weak_bisim(g, g)
    assert res.equivalent


def test_weak_bisim_process_vs_strategy_on_relay():
    p, gamma = parse(RELAY)
    assert weak_bisim(process_lts(p, gamma), strategy_lts(p, gamma)).equivalent


def test_weak_bisim_absorbs_silent_steps():
    a, ga = parse("ctx 0. tick.0")
    b, gb = parse("ctx 0. tick.0 | 0")
    res = weak_bisim(strategy_lts(a, ga), strategy_lts(b, gb))
    # the forked variant can be told apart: the environment may observe
    # the half-forks
    assert not res.equivalent
    # but absorbing only the silent fork, the tick stays matched
    c, gc = parse("ctx 0. 0")
    d, gd = parse("ctx 0. 0 | 0")
    res2 = weak_bisim(process_lts(c, gc), process_lts(c, gc))
    assert res2.equivalent
    assert not weak_bisim(process_lts(c, gc), process_lts(d, gd)).equivalent


def test_weak_bisim_distinguishes_and_witnesses():
    a, _ = parse("ctx 1. rcv(1).tick.0")
    b, _ = parse("ctx 1. rcv(1).tick.0 + rcv(1).0")
    res = weak_bisim(strategy_lts(a, 1), strategy_lts(b, 1))
    assert not res.equivalent
    assert res.witness[0] == "in(1)"


def test_weak_bisim_witness_from_either_silent_closure():
    # x = tick.in(1).0 + in(1).0 and y = sync.x' + sync.in(1).0, x' a copy
    # of x: y silently reaches a vertex of x's block and one that x's
    # closure does not meet, and both make the same weak observable steps
    tick, inp, sync = ALab("tick"), ALab("in", (1,)), ALab("sync")
    x = LtsGraph([0, 1, 2], [((inp, 2), (tick, 1)), ((inp, 2),), ()])
    y = LtsGraph(
        [0, 1, 2, 3, 4],
        [((sync, 1), (sync, 2)), ((inp, 4), (tick, 3)), ((inp, 4),), ((inp, 4),), ()],
    )
    # the closure of the second root meets the extra block
    res = weak_bisim(x, y)
    assert (res.equivalent, res.witness) == (False, ("tick",))
    # the closure of the first root does, besides its own block
    res = weak_bisim(y, x)
    assert (res.equivalent, res.witness) == (False, ("tick",))


def test_weak_bisim_witness_stops_at_the_depth_bound():
    # tick chains of 20 and 19 steps first differ after the 19th tick
    tick = ALab("tick")

    def chain(n):
        return LtsGraph(list(range(n + 1)), [((tick, i + 1),) for i in range(n)] + [()])

    res = weak_bisim(chain(20), chain(19))
    assert (res.equivalent, res.witness) == (False, ("tick",) * lts.WITNESS_DEPTH)


def test_weak_bisim_identifies_duplicate_branches():
    a, _ = parse("ctx 1. rcv(1).0 + rcv(1).0")
    b, _ = parse("ctx 1. rcv(1).0")
    assert weak_bisim(strategy_lts(a, 1), strategy_lts(b, 1)).equivalent


def test_weak_bisim_rejects_cycles():
    tick, sync = ALab("tick"), ALab("sync")
    empty = LtsGraph([0], [()])
    loop = LtsGraph([0, 1], [((tick, 1),), ((tick, 0),)])
    with pytest.raises(ValueError, match="vertex 0 of graph 2 lies on a cycle"):
        weak_bisim(empty, loop)
    with pytest.raises(ValueError, match="vertex 0 of graph 1 lies on a cycle"):
        weak_bisim(loop, empty)
    silent_loop = LtsGraph([0, 1], [((sync, 1),), ((sync, 0),)])
    with pytest.raises(ValueError, match="vertex 0 of graph 2 lies on a cycle"):
        weak_bisim(empty, silent_loop)
    # 0 -> 1 -> 2 -> 1: the root is not on the cycle
    below = LtsGraph([0, 1, 2], [((tick, 1),), ((tick, 2),), ((sync, 1),)])
    with pytest.raises(ValueError, match="vertex 1 of graph 2 lies on a cycle"):
        weak_bisim(empty, below)


# 1376 interface states a side
W1376 = (
    "ctx 0. (snd(1,1).tick.0 + rcv(1).tick.0) | ((snd(2,2).rcv(2).0 + rcv(1).0) "
    "| ((rcv(1).snd(3,3).tick.0 | snd(1,1).rcv(1).0) | snd(1,2).0))"
)


def test_interface_moves_are_built_once_per_channel_count_and_actors(monkeypatch):
    # states that differ only in h share their moves: with and without
    # the link rule, each distinct (num_channels, actors) of the graph's
    # states has its moves built exactly once, and each of its actors'
    # entries at its next fresh channel is coded exactly once
    built, coded = Counter(), Counter()
    fill, entry = _Interface.fill, _Interface.entry

    def counted_fill(self, moves, n, actors):
        built[n, actors] += 1
        fill(self, moves, n, actors)

    def counted_entry(self, actor, fresh):
        coded[fresh, actor] += 1
        return entry(self, actor, fresh)

    monkeypatch.setattr(_Interface, "fill", counted_fill)
    monkeypatch.setattr(_Interface, "entry", counted_entry)
    for root in roots(W1376):
        for link in (False, True):
            built.clear()
            coded.clear()
            graph = interface_graph(root, enable_link=link)
            shapes = {(n, actors) for _, n, actors in graph.states}
            assert built == Counter(shapes)
            assert coded == Counter({(n + 1, a) for n, actors in shapes for a in actors})
            assert len(shapes) < len(graph.states)


def test_a_build_reads_each_bodys_offers_once(monkeypatch, corpus):
    # one closed graph build and one interface graph build each file a
    # body once: its offers are read at most once per body object
    read = Counter()
    kept = []  # the bodies read, so that no id is reused

    def counted(offers):
        def reading(body):
            read[id(body)] += 1
            kept.append(body)
            return offers(body)

        return staticmethod(reading)

    for kind in (PlayerState, Thread):
        monkeypatch.setattr(kind, "offers", counted(kind.offers))
    for gamma, terms in corpus.items():
        for t in terms:
            for root in (root_strategy(t, gamma), root_process(t, gamma)):
                for build in (closed_graph, interface_graph):
                    read.clear()
                    build(root)
                    assert read and max(read.values()) == 1


def test_weak_bisim_does_not_copy_the_graphs():
    """weak_bisim reads the edges where the graphs hold them: its own
    allocations grow with its classes, not with a copy of every vertex.
    At 1376 states a side, a coded copy of both graphs peaked at 180
    bytes per vertex and reading the graphs in place at 61."""
    p, gamma = parse(W1376)
    g1, g2 = process_lts(p, gamma), strategy_lts(p, gamma)
    assert (len(g1.states), len(g2.states), g1.num_edges + g2.num_edges) == (1376, 1376, 3218)
    vertices = len(g1.states) + len(g2.states)
    tracemalloc.start()
    try:
        assert weak_bisim(g1, g2).equivalent
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / vertices < 120


def test_weak_bisim_matches_naive_oracle_on_pairs(small_corpus):
    for gamma, terms in small_corpus.items():
        sample = terms[:10]
        graphs = [strategy_lts(t, gamma) for t in sample]
        for i, j in itertools.combinations(range(len(sample)), 2):
            got = weak_bisim(graphs[i], graphs[j]).equivalent
            want = naive_weak_equiv(graphs[i], graphs[j])
            assert got == want, (gamma, i, j)


def rerooted(graph, root):
    """The part of ``graph`` reachable from ``root``, numbered from 0 in
    BFS order."""
    index = {root: 0}
    order = [root]
    for v in order:
        for _, w in graph.edges[v]:
            if w not in index:
                index[w] = len(order)
                order.append(w)
    edges = [tuple((label, index[w]) for label, w in graph.edges[v]) for v in order]
    return LtsGraph([graph.states[v] for v in order], edges)


def test_weak_bisim_matches_naive_oracle_on_silent_pairs(corpus):
    # graphs with silent edges, so that the stutter rule is at work: every
    # pair among both sides of the first eight such terms per context, and
    # the two ends of every silent edge, where a stuttering edge joins
    # equivalent states
    pairs, stutters = [], []
    for gamma, terms in corpus.items():
        graphs = []
        for t in terms:
            s = strategy_lts(t, gamma)
            if len(s.states) > 40 or not any(l.tag in SILENT_TAGS for e in s.edges for l, _ in e):
                continue
            sides = [process_lts(t, gamma), s]
            for g in sides:
                stutters += [
                    (rerooted(g, v), rerooted(g, u))
                    for v in range(len(g.states))
                    for l, u in g.edges[v]
                    if l.tag in SILENT_TAGS
                ]
            if len(graphs) < 16:
                graphs += sides
        assert len(graphs) == 16, gamma
        pairs += itertools.combinations(graphs, 2)
    answers = []
    for g1, g2 in pairs + stutters:
        answers.append(weak_bisim(g1, g2).equivalent)
        assert answers[-1] == naive_weak_equiv(g1, g2)
    assert any(answers[len(pairs) :])


@st.composite
def small_dags(draw):
    """A graph on up to seven vertices whose edges all point at a later
    vertex, labelled sync (silent), tick or in(1). Sometimes a vertex
    has a second edge with the label of one of its edges, into another
    vertex with the same edges as that edge's target: two edges that
    make one step."""
    labels = [ALab("sync"), ALab("tick"), ALab("in", (1,))]
    n = draw(st.integers(2, 7))
    edges = [()] * n
    for v in reversed(range(n - 1)):
        later = st.tuples(st.sampled_from(labels), st.integers(v + 1, n - 1))
        out = draw(st.sets(later, max_size=3))
        if out and draw(st.booleans()):
            label, w = draw(st.sampled_from(sorted(out)))
            twins = [u for u in range(v + 1, n) if u != w and set(edges[u]) == set(edges[w])]
            if twins:
                out.add((label, draw(st.sampled_from(twins))))
        edges[v] = tuple(out)
    return LtsGraph(list(range(n)), edges)


@settings(max_examples=150, deadline=None)
@given(small_dags())
def test_weak_bisim_matches_naive_oracle_on_random_dags(g):
    # every two vertices of one graph, so that a vertex is often compared
    # with its own silent successors and with states that reach the same
    # steps through them
    subgraphs = [rerooted(g, v) for v in range(len(g.states))]
    for g1, g2 in itertools.combinations(subgraphs, 2):
        assert weak_bisim(g1, g2).equivalent == naive_weak_equiv(g1, g2)


def test_weak_bisim_keys_one_edge_and_two_equal_steps_alike():
    # two tick edges into two leaves make one step, as one tick edge
    # into one leaf does: the roots share a class, beside the leaves'
    tick = ALab("tick")
    two = LtsGraph([0, 1, 2], [((tick, 1), (tick, 2)), (), ()])
    one = LtsGraph([0, 1], [((tick, 1),), ()])
    for g1, g2 in ((two, one), (one, two)):
        assert weak_bisim(g1, g2) == lts.BisimResult(True, (), 2)


# SHA-256 over (equivalent, num_blocks, witness) of every pair below,
# recorded with the saturating signature-refinement weak_bisim.
GOLDEN_BISIM = (
    "ae8b6365157d3169374ca078e67a0fdc"
    "5d04cbe7ed19471609216b271808edde"
)


def bisim_results_digest(corpus, small_corpus):
    h = hashlib.sha256()

    def record(g1, g2):
        res = weak_bisim(g1, g2)
        h.update(repr((res.equivalent, res.num_blocks, res.witness)).encode())

    for gamma, terms in small_corpus.items():
        graphs = []
        for t in terms[:12]:
            graphs += [process_lts(t, gamma), strategy_lts(t, gamma)]
        for g1, g2 in itertools.combinations(graphs, 2):
            record(g1, g2)
    for gamma, terms in corpus.items():
        for t in terms:
            record(process_lts(t, gamma), strategy_lts(t, gamma))
    return h.hexdigest()


def test_weak_bisim_matches_golden_results(corpus, small_corpus):
    assert bisim_results_digest(corpus, small_corpus) == GOLDEN_BISIM


@settings(max_examples=40, deadline=None)
@given(typed_terms(max_gamma=1, depth=2))
def test_weak_bisim_random_term_against_its_process_side(tg):
    t, gamma = tg
    assert weak_bisim(process_lts(t, gamma), strategy_lts(t, gamma)).equivalent


# --------------------------------------------------------- arena bridge


def test_arena_position_mirrors_state():
    g, _ = roots(RELAY)
    pos = arena_position(g)
    assert len(pos.channels) == 1
    assert len(pos.players) == 1
    (pl,) = pos.players.values()
    assert pl.arity == 1


def test_arena_trace_replays_closed_run():
    g, _ = roots(RELAY)
    play = arena_trace(g, [0, 0, 0])
    assert [type(m.kind).__name__ for m in play.moves] == ["Fork", "Sync", "Heartbeat"]
    assert len(play.final.players) == 2
    assert len(play.final.channels) == 2
    # boundaries glue exactly
    for earlier, later in zip(play.moves, play.moves[1:]):
        assert earlier.final == later.initial
    assert to_dot(play.initial) == to_dot(arena_position(g))


def test_arena_trace_rejects_bad_index():
    g, _ = roots(RELAY)
    with pytest.raises(IndexError):
        arena_trace(g, [5])


def test_arena_trace_positions_track_states():
    g, _ = roots("ctx 0. tick.0 | tick.0")
    play = arena_trace(g, [0, 0])
    assert type(play.moves[0].kind).__name__ == "Fork"
    assert play.moves[1].kind == Heartbeat(1)
    _, state1 = Explorer().steps(g)[0]
    assert to_dot(play.moves[0].final) == to_dot(arena_position(state1))


# the test term of test_fairtest's state-bound test: 3362 closed states
# and 7110 steps per side
BIG = (
    "ctx 1. ((rcv(1).0 | snd(2,1).0) | (rcv(2).tick.0 | snd(2,2).0)) "
    "| ((tick.0 | rcv(1).0) | (snd(1,1).0 | rcv(3).0))"
)


def shape(pos):
    """``pos`` up to identifiers: its channel count and the sorted
    attachments of its players, each channel named by its rank in
    identifier order. Equal shapes are isomorphic positions. A replay
    allocates a state's channels in their order and a created channel
    after them, as the state numbers it."""
    rank = {c: i for i, c in enumerate(sorted(pos.channels))}
    return len(rank), sorted(tuple(rank[c] for c in pl.attach) for pl in pos.players.values())


def test_replayed_moves_are_seeds_glued_into_the_state(corpus, monkeypatch):
    """Every step of the closed graphs of the corpus and of BIG, on both
    sides, replays as its kind's seed glued into the state's position
    (``arena.compose`` checks that the move starts there): it ends at
    the successor's position, up to identifiers, and its trace moves the
    step's actors onto its avatars, the final position's players."""
    glued = []
    extend = arena.extend

    def counted(m, z, glue):
        glued.append(m.kind)
        return extend(m, z, glue)

    monkeypatch.setattr(arena, "extend", counted)
    cases = [roots_of(t, gamma) for gamma, terms in corpus.items() for t in terms] + [roots(BIG)]
    steps = 0
    for root in itertools.chain.from_iterable(cases):
        world = Explorer()
        for state in closed_graph(root).states:
            for k, step in enumerate(world.moves(state)):
                kind, actors, _, _, avatars = step
                (move,) = arena_trace(state, [k]).moves
                nxt = world.successor(state, step)
                assert move.kind == kind
                assert shape(move.final) == shape(arena_position(nxt))
                assert sorted(itertools.chain(*move.player_map.values())) == sorted(move.final.players)
                moved = sorted(len(move.player_map[pid]) for pid in move.moving)
                assert moved == sorted(map(len, avatars)) and len(moved) == len(actors)
                steps += 1
    assert len(glued) == steps == 528 + 2 * 7110
