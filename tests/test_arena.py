import itertools

import pytest

from actorgame.arena import (
    EMPTY,
    Fork,
    ForkL,
    ForkR,
    Heartbeat,
    Input,
    Move,
    Output,
    Player,
    Position,
    Sync,
    canonical_position_key,
    compose,
    extend,
    identity_play,
    interface,
    kind_label,
    moves_isomorphic,
    new_id,
    play_of,
    positions_isomorphic,
    seed,
    to_dot,
)


def all_kinds(max_n):
    for n in range(max_n + 1):
        yield Fork(n)
        yield ForkL(n)
        yield ForkR(n)
        yield Heartbeat(n)
    for n in range(1, max_n + 1):
        for a in range(1, n + 1):
            yield Input(n, a)
    for m in range(1, max_n + 1):
        for c in range(1, m + 1):
            for d in range(1, m + 1):
                yield Output(m, c, d)
    for n in range(1, max_n + 1):
        for a in range(1, n + 1):
            for m in range(1, max_n + 1):
                for c in range(1, m + 1):
                    for d in range(1, m + 1):
                        yield Sync(n, a, m, c, d)


# ---------------------------------------------------------------- seeds


def test_seed_validates_parameters():
    for bad in [Input(2, 3), Input(0, 1), Output(2, 0, 1), Output(2, 1, 3),
                Sync(2, 3, 2, 1, 1), Sync(2, 1, 2, 3, 1), Fork(-1)]:
        with pytest.raises(ValueError):
            seed(bad)


def test_fork_seed_shape():
    m = seed(Fork(2))
    assert len(m.initial.players) == 1
    assert len(m.final.players) == 2
    (w,) = m.created_channels()
    for pl in m.final.players.values():
        assert pl.arity == 3
        assert pl.attach[2] == w
    (p,) = m.initial.players.values()
    for pl in m.final.players.values():
        assert pl.attach[:2] == p.attach


def test_half_fork_and_input_seed_shape():
    for kind in [ForkL(2), ForkR(2), Input(2, 1), Input(2, 2)]:
        m = seed(kind)
        assert len(m.initial.players) == 1
        assert len(m.final.players) == 1
        assert len(m.created_channels()) == 1
        (pl,) = m.final.players.values()
        (w,) = m.created_channels()
        assert pl.arity == 3 and pl.attach[2] == w


def test_output_and_heartbeat_preserve_shape():
    for kind in [Output(3, 1, 2), Heartbeat(3)]:
        m = seed(kind)
        assert m.initial.channels == m.final.channels
        (p,) = m.initial.players.values()
        (q,) = m.final.players.values()
        assert p.attach == q.attach


def test_sync_seed_shape():
    m = seed(Sync(2, 1, 3, 2, 3))
    assert len(m.initial.channels) == 2 + 3 - 1
    assert not m.created_channels()
    sender = next(p for p in m.initial.players.values() if p.arity == 3)
    receiver = next(p for p in m.initial.players.values() if p.arity == 2)
    assert receiver.attach[0] == sender.attach[1]
    grown = next(p for p in m.final.players.values() if p.arity == 3
                 and p.attach[:2] == receiver.attach)
    assert grown.attach[2] == sender.attach[2]


def test_seed_table_exhaustive():
    for kind in all_kinds(3):
        m = seed(kind)
        assert m.is_seed()
        assert interface(m) == m.initial.channels
        # channel trace is an identity embedding
        assert m.channel_map == {c: c for c in m.initial.channels}
        assert m.initial.channels <= m.final.channels
        if isinstance(kind, (Fork, ForkL, ForkR, Input)):
            assert len(m.created_channels()) == 1
        else:
            assert not m.created_channels()
        if isinstance(kind, Fork):
            expect = {kind.n + 1: 2}
        elif isinstance(kind, (ForkL, ForkR, Input)):
            n = kind.n if not isinstance(kind, Input) else kind.n
            expect = {n + 1: 1}
        elif isinstance(kind, Output):
            expect = {kind.m: 1}
        elif isinstance(kind, Heartbeat):
            expect = {kind.n: 1}
        else:
            expect = {kind.m: 1, kind.n + 1: 1}
            if kind.m == kind.n + 1:
                expect = {kind.m: 2}
        got: dict[int, int] = {}
        for pl in m.final.players.values():
            got[pl.arity] = got.get(pl.arity, 0) + 1
        assert got == expect, kind


def test_seed_player_traces_total():
    for kind in all_kinds(2):
        m = seed(kind)
        sources = set(m.player_map)
        assert sources == set(m.initial.players)
        targets = [q for qs in m.player_map.values() for q in qs]
        assert sorted(targets) == sorted(m.final.players)
        assert m.moving == frozenset(m.initial.players)


# --------------------------------------------------------------- extend


def glue_position(m: Move) -> tuple[Position, dict[int, int]]:
    """A players-free ambient position mirroring the seed interface."""
    glue = {c: new_id() for c in sorted(interface(m))}
    return Position(frozenset(glue.values()), {}), glue


def test_extend_on_channels_only_is_identity_up_to_renaming():
    for kind in all_kinds(2):
        m = seed(kind)
        z, glue = glue_position(m)
        big = extend(m, z, glue)
        assert moves_isomorphic(m, big), kind


def test_extend_keeps_spectators_bit_for_bit():
    for kind in all_kinds(2):
        m = seed(kind)
        z, glue = glue_position(m)
        extra = new_id()
        chans = z.channels | {extra}
        pool = sorted(chans)
        spectators = {
            new_id(): Player((pool[0],)),
            new_id(): Player((pool[-1], pool[0])),
        }
        ambient = Position(chans, spectators)
        ambient.check()
        big = extend(m, ambient, glue)
        big.initial.check()
        big.final.check()
        for pid, pl in spectators.items():
            assert big.initial.players[pid] == pl
            assert big.final.players[pid] == pl
            assert big.player_map[pid] == (pid,)
            assert pid not in big.moving
        assert big.created_channels() == m.created_channels()


def test_extend_with_noninjective_glue():
    m = seed(Heartbeat(2))
    c = new_id()
    z = Position(frozenset({c}), {})
    i1, i2 = sorted(interface(m))
    big = extend(m, z, {i1: c, i2: c})
    (p,) = big.initial.players.values()
    assert p.attach == (c, c)


def test_extend_rejects_partial_glue():
    m = seed(Input(2, 1))
    z, glue = glue_position(m)
    glue.popitem()
    with pytest.raises(ValueError):
        extend(m, z, glue)


def test_extend_rejects_non_seed():
    m = seed(Heartbeat(1))
    z, glue = glue_position(m)
    big = extend(m, z, glue)
    empty_z = Position(frozenset(), {})
    with pytest.raises(ValueError):
        extend(extend_non_seed_fixture(big), empty_z, {})


def extend_non_seed_fixture(big: Move) -> Move:
    # add a spectator after the fact so moving != all initial players
    pid = new_id()
    ch = next(iter(big.initial.channels))
    init = Position(big.initial.channels, {**big.initial.players, pid: Player((ch,))})
    fin = Position(big.final.channels, {**big.final.players, pid: Player((ch,))})
    pm = {**big.player_map, pid: (pid,)}
    return Move(big.kind, init, fin, big.channel_map, pm, big.moving)


def test_extend_rejects_bad_glue_target():
    m = seed(Heartbeat(1))
    (i1,) = interface(m)
    z = Position(frozenset({new_id()}), {})
    with pytest.raises(ValueError):
        extend(m, z, {i1: 999999999})


# ---------------------------------------------------------------- plays


def test_play_composition_is_exact_on_boundaries():
    m = seed(Fork(1))
    z, glue = glue_position(m)
    big = extend(m, z, glue)
    p = play_of(big)
    ident = identity_play(big.initial)
    assert compose(p, ident).moves == p.moves
    q = compose(identity_play(big.final), p)
    assert q.initial == big.initial and q.final == big.final


def test_play_composition_rejects_mismatched_boundary():
    a = play_of(seed(Heartbeat(1)))
    b = play_of(seed(Heartbeat(1)))
    with pytest.raises(ValueError):
        compose(b, a)


# ------------------------------------------------------------ isomorphy


def test_positions_isomorphic_ignores_identifiers():
    a1, a2, p1 = new_id(), new_id(), new_id()
    b1, b2, q1 = new_id(), new_id(), new_id()
    x = Position(frozenset({a1, a2}), {p1: Player((a1, a2))})
    y = Position(frozenset({b1, b2}), {q1: Player((b1, b2))})
    assert positions_isomorphic(x, y)


def test_positions_isomorphic_sees_sharing():
    a1, a2, p = new_id(), new_id(), new_id()
    x = Position(frozenset({a1, a2}), {p: Player((a1, a2))})
    y_c, q = new_id(), new_id()
    y = Position(frozenset({y_c, new_id()}), {q: Player((y_c, y_c))})
    assert not positions_isomorphic(x, y)


def test_positions_isomorphic_counts_players():
    c1, c2 = new_id(), new_id()
    x = Position(frozenset({c1}), {new_id(): Player((c1,)), new_id(): Player((c1,))})
    y = Position(frozenset({c2}), {new_id(): Player((c2,))})
    assert not positions_isomorphic(x, y)


def test_position_key_respects_payload():
    c1, p1 = new_id(), new_id()
    c2, p2 = new_id(), new_id()
    x = Position(frozenset({c1}), {p1: Player((c1,))})
    y = Position(frozenset({c2}), {p2: Player((c2,))})
    assert canonical_position_key(x, {p1: ("a",)}) != canonical_position_key(
        y, {p2: ("b",)}
    )
    assert canonical_position_key(x, {p1: ("a",)}) == canonical_position_key(
        y, {p2: ("a",)}
    )


def test_position_key_distinguishes_twin_channels():
    # two players on one shared channel versus two private channels
    c = new_id()
    x = Position(frozenset({c}), {new_id(): Player((c,)), new_id(): Player((c,))})
    d1, d2 = new_id(), new_id()
    y = Position(frozenset({d1, d2}), {new_id(): Player((d1,)), new_id(): Player((d2,))})
    assert canonical_position_key(x) != canonical_position_key(y)


def test_moves_isomorphic_detects_kind_and_wiring():
    assert moves_isomorphic(seed(Heartbeat(2)), seed(Heartbeat(2)))
    assert not moves_isomorphic(seed(Heartbeat(2)), seed(Heartbeat(1)))
    assert not moves_isomorphic(seed(Output(2, 1, 2)), seed(Output(2, 1, 1)))
    assert not moves_isomorphic(seed(Input(2, 1)), seed(Heartbeat(2)))


def test_position_check_rejects_unknown_channel():
    c = new_id()
    with pytest.raises(ValueError):
        Position(frozenset({c}), {new_id(): Player((c, new_id()))}).check()


def test_empty_position():
    assert EMPTY.channels == frozenset()
    assert positions_isomorphic(EMPTY, Position(frozenset(), {}))


# ------------------------------------------------------------------ dot


def test_dot_position_is_canonical():
    a1, a2, p = new_id(), new_id(), new_id()
    x = Position(frozenset({a1, a2}), {p: Player((a2, a1))})
    b1, b2, q = new_id(), new_id(), new_id()
    y = Position(frozenset({b1, b2}), {q: Player((b2, b1))})
    assert to_dot(x) == to_dot(y)


def test_dot_golden_single_player():
    c, p = new_id(), new_id()
    x = Position(frozenset({c}), {p: Player((c, c))})
    assert to_dot(x) == (
        "digraph position {\n"
        "  rankdir=LR;\n"
        '  c0 [shape=ellipse label="c0"];\n'
        '  p0 [shape=box label="2"];\n'
        '  p0 -> c0 [label="1"];\n'
        '  p0 -> c0 [label="2"];\n'
        "}\n"
    )


def test_dot_move_mentions_kind_and_traces():
    m = seed(Input(1, 1))
    text = to_dot(m)
    assert kind_label(m.kind) in text
    assert "style=dashed" in text and "style=dotted" in text
    assert text == to_dot(seed(Input(1, 1)))


def test_dot_play_has_one_cluster_per_position():
    m = seed(Fork(0))
    play = play_of(m)
    text = to_dot(play)
    assert text.count("subgraph cluster_") == 2
    assert "0: start" in text and "1: fork(0)" in text
