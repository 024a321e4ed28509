import hashlib
import itertools

import pytest
from hypothesis import given, settings

from actorgame.arena import Fork, Heartbeat, Sync, positions_isomorphic
from actorgame.lts import (
    ALab,
    AState,
    GameState,
    LtsGraph,
    PlayerState,
    ProcState,
    StepLabel,
    Thread,
    arena_position,
    arena_trace,
    build_graph,
    closed_graph,
    closed_world_steps,
    game_state,
    interface_steps,
    player_key,
    proc_state,
    process_lts,
    raw_closed_steps,
    root_process,
    root_strategy,
    strategy_lts,
    weak_bisim,
)
from actorgame.strategy import Definite, interpret
from actorgame.term import parse
from gen import typed_terms
from oracles import naive_weak_equiv

RELAY = "ctx 1. snd(2,2).0 | rcv(2).tick.0"


def roots(text):
    p, gamma = parse(text)
    return root_strategy(p, gamma), root_process(p, gamma)


# --------------------------------------------------------------- states


def test_game_state_sorts_players():
    s = interpret(parse("ctx 1. tick.0")[0], 1)
    a = PlayerState((1,), s)
    b = PlayerState((1,), Definite(1))
    g1 = game_state(1, [a, b])
    g2 = game_state(1, [b, a])
    assert g1 == g2


def test_game_state_rejects_arity_mismatch():
    with pytest.raises(ValueError):
        game_state(2, [PlayerState((1, 2), Definite(1))])
    with pytest.raises(ValueError):
        game_state(1, [PlayerState((2,), Definite(1))])


def test_proc_state_rejects_bad_env():
    with pytest.raises(ValueError):
        proc_state(1, [Thread(parse("ctx 0. 0")[0], (2,))])


def test_root_states():
    g, s = roots("ctx 2. tick.0")
    assert g.num_channels == 2 and g.players[0].attach == (1, 2)
    assert s.num_channels == 2 and s.threads[0].env == (1, 2)


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
    steps = closed_world_steps(s)
    assert len(steps) == 2
    assert all(label.is_tick for label, _ in steps)
    assert len({target for _, target in steps}) == 2


def test_fork_creates_shared_channel():
    g, s = roots("ctx 1. 0 | 0")
    (label_g, nxt_g), = closed_world_steps(g)
    assert label_g.kind == Fork(1)
    assert nxt_g.num_channels == 2
    assert all(p.attach == (1, 2) for p in nxt_g.players)
    (label_s, nxt_s), = closed_world_steps(s)
    assert nxt_s.num_channels == 2
    assert all(t.env == (1, 2) for t in nxt_s.threads)


def test_sync_moves_object_channel():
    g, s = roots("ctx 2. snd(1,2).0 | rcv(1).snd(3,3).0")
    # fork first, then the receiver gains the sender's object channel
    (_, g1), = closed_world_steps(g)
    sync_steps = [x for x in closed_world_steps(g1) if x[0].tag == "sync"]
    assert len(sync_steps) == 1
    label, g2 = sync_steps[0]
    assert label.kind == Sync(3, 1, 3, 1, 2)
    receiver = next(p for p in g2.players if len(p.attach) == 4)
    assert receiver.attach == (1, 2, 3, 2)
    (_, s1), = closed_world_steps(s)
    sl, s2 = next(x for x in closed_world_steps(s1) if x[0].tag == "sync")
    recv_thread = next(t for t in s2.threads if len(t.env) == 4)
    assert recv_thread.env == (1, 2, 3, 2)


def test_sync_needs_distinct_actors():
    # a lone thread with both a send and a receive cannot talk to itself
    _, s = roots("ctx 1. snd(1,1).0 + rcv(1).0")
    assert closed_world_steps(s) == []


def test_sync_between_identical_twins():
    g, _ = roots("ctx 1. (snd(2,2).0 + rcv(2).0) | (snd(2,2).0 + rcv(2).0)")
    (_, g1), = closed_world_steps(g)
    syncs = [x for x in closed_world_steps(g1) if x[0].tag == "sync"]
    # either twin may send to the other
    assert len(syncs) == 2


def test_closed_graphs_are_dags(small_corpus):
    for gamma, terms in small_corpus.items():
        for t in terms[:12]:
            graph = closed_graph(root_strategy(t, gamma))
            # edges only point at strictly later discovered states is not
            # guaranteed by BFS alone; check acyclicity explicitly
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


def test_interface_out_teaches_environment():
    root = AState((1,), root_process(*parse("ctx 1. snd(1,1).0")))
    (label, nxt), = interface_steps(root)
    assert label == ALab("out", (1, 1))
    assert nxt.h == (1, 1)
    assert nxt.delta == 2


def test_interface_out_needs_known_subject():
    # after a silent fork the shared mailbox is unknown to the
    # environment, so an emit on it is invisible and the state is stuck
    p, gamma = parse("ctx 0. snd(1,1).0 | 0")
    root = AState((), root_process(p, gamma))
    after_fork = next(n for l, n in interface_steps(root) if l.tag == "fork")
    assert interface_steps(after_fork) == []
    # but through the observable half-fork the environment owns the
    # sibling end and sees the emit
    after_half = next(n for l, n in interface_steps(root) if l.tag == "forkL")
    assert [l for l, _ in interface_steps(after_half)] == [ALab("out", (1, 1))]


def test_interface_tick_keeps_h():
    root = AState((), root_strategy(*parse("ctx 0. tick.0")))
    (label, nxt), = interface_steps(root)
    assert label == ALab("tick")
    assert nxt.h == ()


def test_interface_silent_fork_vs_observable_halves():
    p, gamma = parse("ctx 0. 0 | 0")
    graph = strategy_lts(p, gamma)
    rendered = sorted(l.render() for e in graph.edges for l, _ in e)
    assert rendered == ["fork", "forkL", "forkR"]
    root_state = graph.states[0]
    for label, nxt in interface_steps(root_state):
        if label.tag == "fork":
            assert nxt.h == root_state.h
            assert nxt.subject.num_channels == 1
            assert len(nxt.subject.players) == 2
        else:
            assert nxt.h == root_state.h + (1,)
            assert len(nxt.subject.players) == 1


def test_link_rule_only_behind_flag():
    p, gamma = parse("ctx 2. rcv(1).0")
    plain = process_lts(p, gamma)
    assert not any(l.tag == "link" for e in plain.edges for l, _ in e)
    linked = process_lts(p, gamma, enable_link=True)
    links = [l for e in linked.edges for l, _ in e if l.tag == "link"]
    assert links == [ALab("link", (1, 3, 2))]
    # h unchanged by link
    root = AState((1, 2), root_process(p, gamma))
    for label, nxt in interface_steps(root, enable_link=True):
        if label.tag == "link":
            assert nxt.h == root.h
            assert nxt.subject.num_channels == 3


def test_link_steps_follow_the_actors_other_steps():
    # the in step of a receive comes first, its link steps after every
    # other step of the same thread
    p, gamma = parse("ctx 2. rcv(1).0 + tick.0")
    root = AState((1, 2), root_process(p, gamma))
    tags = [label.tag for label, _ in interface_steps(root, enable_link=True)]
    assert tags == ["in", "tick", "link"]


def test_link_graphs_weakly_bisimilar_across_sides(small_corpus):
    for gamma, terms in small_corpus.items():
        for t in terms:
            linked_p = process_lts(t, gamma, enable_link=True)
            linked_s = strategy_lts(t, gamma, enable_link=True)
            assert weak_bisim(linked_p, linked_s).equivalent, (gamma, t)


def test_noninjective_h_duplicates_are_one_edge():
    # both handles name channel 1; the in label is by channel, so the
    # two table matches collapse into one edge
    p, gamma = parse("ctx 1. rcv(1).0")
    root = AState((1, 1), root_process(p, gamma))
    graph = build_graph(root, lambda a: interface_steps(a))
    ins = [l for e in graph.edges for l, _ in e if l.tag == "in"]
    assert ins == [ALab("in", (1,))]


# ------------------------------------------------------------ golden dumps

# SHA-256 of the concatenated dump() text of every corpus term, one
# digest per kind of graph, recorded while each side still had its own
# step rules; they check the shared step engine against those rules.
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
}


def corpus_dump_digests(corpus):
    builds = {
        "closed.strategy": lambda t, g: closed_graph(root_strategy(t, g)),
        "closed.process": lambda t, g: closed_graph(root_process(t, g)),
        "interface.strategy": strategy_lts,
        "interface.process": process_lts,
        "interface.strategy.link": lambda t, g: strategy_lts(t, g, enable_link=True),
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


def test_build_graph_max_states():
    p, gamma = parse(RELAY)
    with pytest.raises(RuntimeError):
        strategy_lts(p, gamma, max_states=3)


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


def test_weak_bisim_identifies_duplicate_branches():
    a, _ = parse("ctx 1. rcv(1).0 + rcv(1).0")
    b, _ = parse("ctx 1. rcv(1).0")
    assert weak_bisim(strategy_lts(a, 1), strategy_lts(b, 1)).equivalent


def test_weak_bisim_matches_naive_oracle_on_pairs(small_corpus):
    for gamma, terms in small_corpus.items():
        sample = terms[:10]
        graphs = [strategy_lts(t, gamma) for t in sample]
        for i, j in itertools.combinations(range(len(sample)), 2):
            got = weak_bisim(graphs[i], graphs[j]).equivalent
            want = naive_weak_equiv(graphs[i], graphs[j])
            assert got == want, (gamma, i, j)


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
    assert positions_isomorphic(play.initial, arena_position(g))


def test_arena_trace_rejects_bad_index():
    g, _ = roots(RELAY)
    with pytest.raises(IndexError):
        arena_trace(g, [5])


def test_arena_trace_positions_track_states():
    g, _ = roots("ctx 0. tick.0 | tick.0")
    play = arena_trace(g, [0, 0])
    assert type(play.moves[0].kind).__name__ == "Fork"
    assert play.moves[1].kind == Heartbeat(1)
    state1 = raw_closed_steps(g)[0].state
    assert positions_isomorphic(play.moves[0].final, arena_position(state1))
