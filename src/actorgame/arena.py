"""String-diagram positions and moves for the actor game.

A position is a finite set of channels together with finitely many
players; a player of arity n is attached to a channel in each of its
slots 1..n. Channels and players carry globally fresh opaque integer
identifiers; structural equality of positions is on identifiers, and
``positions_isomorphic`` compares up to bijective renaming.

A move is a cospan written here with an initial and a final position
plus traces saying how channels and players persist. Construction keeps
traced channel identifiers fixed, so the channel trace is an identity
embedding and created channels are exactly ``final - initial``. Avatars
(players produced by a move) always get fresh identifiers; spectators
added by ``extend`` keep theirs in both boundaries, which makes play
composition exact on identifiers.

Seed shapes:

  Fork(n)          one player of arity n becomes two avatars of arity
                   n+1 sharing one created channel in their last slot.
  ForkL/ForkR(n)   half of a fork: a single avatar of arity n+1 whose
                   last slot is a created channel shared with nobody yet.
  Input(n, a)      the player of arity n receives on its a-th slot; the
                   avatar has arity n+1, last slot a created channel.
  Output(m, c, d)  the player of arity m emits its d-th channel on its
                   c-th; the position is unchanged in shape.
  Heartbeat(n)     the tick observation; shape-preserving.
  Sync(n,a,m,c,d)  an output player of arity m and an input player of
                   arity n share the output's c-th channel as the
                   input's a-th; afterwards the input player has arity
                   n+1 with its new slot on the output's d-th channel.
                   Nothing is created.

Fork, Sync and Heartbeat are the closed-world kinds; ForkL, ForkR,
Input, Output and Heartbeat are the basic kinds a single strategy table
indexes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Union

_ids = itertools.count(1)


def new_id() -> int:
    """Globally fresh identifier for a channel or player."""
    return next(_ids)


@dataclass(frozen=True)
class Player:
    attach: tuple[int, ...]

    @property
    def arity(self) -> int:
        return len(self.attach)


@dataclass
class Position:
    channels: frozenset[int]
    players: dict[int, Player]

    def check(self) -> None:
        for pid, pl in self.players.items():
            for ch in pl.attach:
                if ch not in self.channels:
                    raise ValueError(f"player {pid} attached to unknown channel {ch}")


EMPTY = Position(frozenset(), {})


# ---------------------------------------------------------------- kinds


@dataclass(frozen=True)
class Fork:
    n: int


@dataclass(frozen=True)
class ForkL:
    n: int


@dataclass(frozen=True)
class ForkR:
    n: int


@dataclass(frozen=True)
class Input:
    n: int
    a: int


@dataclass(frozen=True)
class Output:
    m: int
    c: int
    d: int


@dataclass(frozen=True)
class Heartbeat:
    n: int


@dataclass(frozen=True)
class Sync:
    n: int
    a: int
    m: int
    c: int
    d: int


MoveKind = Union[Fork, ForkL, ForkR, Input, Output, Heartbeat, Sync]


def kind_label(kind: MoveKind) -> str:
    if isinstance(kind, Fork):
        return f"fork({kind.n})"
    if isinstance(kind, ForkL):
        return f"forkL({kind.n})"
    if isinstance(kind, ForkR):
        return f"forkR({kind.n})"
    if isinstance(kind, Input):
        return f"in({kind.n};{kind.a})"
    if isinstance(kind, Output):
        return f"out({kind.m};{kind.c},{kind.d})"
    if isinstance(kind, Heartbeat):
        return f"tick({kind.n})"
    return f"sync({kind.n};{kind.a}|{kind.m};{kind.c},{kind.d})"


def _validate_kind(kind: MoveKind) -> None:
    if isinstance(kind, (Fork, ForkL, ForkR, Heartbeat)):
        if kind.n < 0:
            raise ValueError(f"arity must be nonnegative: {kind}")
    elif isinstance(kind, Input):
        if kind.n < 1 or not 1 <= kind.a <= kind.n:
            raise ValueError(f"slot out of range: {kind}")
    elif isinstance(kind, Output):
        if kind.m < 1 or not 1 <= kind.c <= kind.m or not 1 <= kind.d <= kind.m:
            raise ValueError(f"slot out of range: {kind}")
    elif isinstance(kind, Sync):
        if kind.n < 1 or not 1 <= kind.a <= kind.n:
            raise ValueError(f"input slot out of range: {kind}")
        if kind.m < 1 or not 1 <= kind.c <= kind.m or not 1 <= kind.d <= kind.m:
            raise ValueError(f"output slot out of range: {kind}")
    else:
        raise ValueError(f"unknown move kind: {kind!r}")


# ---------------------------------------------------------------- moves


@dataclass
class Move:
    kind: MoveKind
    initial: Position
    final: Position
    channel_map: dict[int, int]
    player_map: dict[int, tuple[int, ...]]
    moving: frozenset[int]

    def created_channels(self) -> frozenset[int]:
        return self.final.channels - self.initial.channels

    def is_seed(self) -> bool:
        return self.moving == frozenset(self.initial.players)


def seed(kind: MoveKind) -> Move:
    """Build the minimal move of the given kind on fresh identifiers."""
    _validate_kind(kind)
    if not isinstance(kind, Sync):
        # one moving player; Heartbeat and Output keep its shape, the
        # other kinds add one created channel in a last slot, and Fork
        # gives it two avatars
        chans = tuple(new_id() for _ in range(kind.m if isinstance(kind, Output) else kind.n))
        grown = chans if isinstance(kind, (Heartbeat, Output)) else chans + (new_id(),)
        p = new_id()
        avatars = tuple(new_id() for _ in range(2 if isinstance(kind, Fork) else 1))
        return Move(
            kind,
            Position(frozenset(chans), {p: Player(chans)}),
            Position(frozenset(grown), {a: Player(grown) for a in avatars}),
            {c: c for c in chans},
            {p: avatars},
            frozenset({p}),
        )
    # Sync: output player on u_1..u_m, input player sharing u_c as slot a
    out_chans = tuple(new_id() for _ in range(kind.m))
    in_attach = tuple(
        out_chans[kind.c - 1] if j == kind.a else new_id() for j in range(1, kind.n + 1)
    )
    sender, receiver = new_id(), new_id()
    sender2, receiver2 = new_id(), new_id()
    all_chans = frozenset(out_chans) | frozenset(in_attach)
    return Move(
        kind,
        Position(all_chans, {sender: Player(out_chans), receiver: Player(in_attach)}),
        Position(
            all_chans,
            {
                sender2: Player(out_chans),
                receiver2: Player(in_attach + (out_chans[kind.d - 1],)),
            },
        ),
        {c: c for c in all_chans},
        {sender: (sender2,), receiver: (receiver2,)},
        frozenset({sender, receiver}),
    )


def interface(m: Move) -> frozenset[int]:
    """The channels of the initial position; what a seed glues along."""
    return m.initial.channels


def extend(m: Move, z: Position, glue: dict[int, int]) -> Move:
    """Glue the seed ``m`` into ambient position ``z`` along ``glue``.

    ``glue`` must send every interface channel of ``m`` to a channel of
    ``z`` (not necessarily injectively). Players of ``z`` become
    spectators, present and untouched in both boundaries. Identifier
    freshness makes ``z`` and the seed disjoint; this is checked.
    """
    if not m.is_seed():
        raise ValueError("only seeds can be extended")
    iface = interface(m)
    missing = iface - glue.keys()
    if missing:
        raise ValueError(f"glue map not total on the interface: missing {sorted(missing)}")
    bad = {glue[c] for c in iface} - z.channels
    if bad:
        raise ValueError(f"glue targets outside the ambient position: {sorted(bad)}")
    if z.players.keys() & (m.initial.players.keys() | m.final.players.keys()):
        raise ValueError("ambient position shares player identifiers with the seed")
    if z.channels & m.final.channels:
        raise ValueError("ambient position shares channel identifiers with the seed")

    created = m.created_channels()

    init_players = dict(z.players)
    for pid, pl in m.initial.players.items():
        init_players[pid] = Player(tuple(glue[c] for c in pl.attach))
    initial = Position(z.channels, init_players)

    fin_players = dict(z.players)
    for pid, pl in m.final.players.items():
        fin_players[pid] = Player(tuple(glue.get(c, c) for c in pl.attach))
    final = Position(z.channels | created, fin_players)

    player_map = {pid: (pid,) for pid in z.players}
    player_map.update(m.player_map)
    return Move(m.kind, initial, final, {c: c for c in z.channels}, player_map, m.moving)


# ---------------------------------------------------------------- plays


@dataclass
class Play:
    initial: Position
    final: Position
    moves: tuple[Move, ...]


def identity_play(pos: Position) -> Play:
    return Play(pos, pos, ())


def play_of(m: Move) -> Play:
    return Play(m.initial, m.final, (m,))


def compose(p: Play, q: Play) -> Play:
    """Run ``q`` first, then ``p``; the boundary must match on identifiers."""
    if q.final.channels != p.initial.channels or q.final.players != p.initial.players:
        raise ValueError("plays do not compose: boundary positions differ")
    return Play(q.initial, p.final, q.moves + p.moves)


# ------------------------------------------------ equality up to renaming


def canonical_position_key(pos: Position, payload: dict[int, object] | None = None) -> tuple:
    """Canonical form of a position under bijective renaming.

    ``payload`` optionally colors players with extra orderable data that
    a renaming must preserve (the transition systems use strategy keys);
    payload values used together must be mutually comparable. Color
    refinement plus individualization; exact, if slow on large highly
    symmetric positions, which this package never builds.
    """
    payload = payload or {}
    pids = sorted(pos.players)
    seedvals = sorted({(pos.players[pid].arity, payload.get(pid, ())) for pid in pids})
    rank = {v: i for i, v in enumerate(seedvals)}
    pcol = {pid: rank[(pos.players[pid].arity, payload.get(pid, ()))] for pid in pids}
    ccol = {c: 0 for c in pos.channels}
    return _canon(pos, payload, pcol, ccol)


def _canon(pos, payload, pcol, ccol) -> tuple:
    # colors are ints; refinement splits classes, individualization pins
    chans = sorted(pos.channels)
    pids = sorted(pos.players)
    while True:
        csig = {
            c: (
                ccol[c],
                tuple(
                    sorted(
                        (pcol[pid], slot)
                        for pid in pids
                        for slot, ch in enumerate(pos.players[pid].attach, 1)
                        if ch == c
                    )
                ),
            )
            for c in chans
        }
        crank = {s: i for i, s in enumerate(sorted(set(csig.values())))}
        new_ccol = {c: crank[csig[c]] for c in chans}
        psig = {
            pid: (pcol[pid], tuple(new_ccol[ch] for ch in pos.players[pid].attach))
            for pid in pids
        }
        prank = {s: i for i, s in enumerate(sorted(set(psig.values())))}
        new_pcol = {pid: prank[psig[pid]] for pid in pids}
        stable = len(set(new_ccol.values())) == len(set(ccol.values())) and len(
            set(new_pcol.values())
        ) == len(set(pcol.values()))
        ccol, pcol = new_ccol, new_pcol
        if stable:
            break

    classes: dict[tuple, list[int]] = {}
    for c in chans:
        classes.setdefault(("c", ccol[c]), []).append(c)
    for pid in pids:
        classes.setdefault(("p", pcol[pid]), []).append(pid)
    ambiguous = sorted(k for k, v in classes.items() if len(v) > 1)
    if ambiguous:
        kind, col = ambiguous[0]
        best = None
        for member in classes[(kind, col)]:
            if kind == "c":
                c2 = dict(ccol)
                c2[member] = 1 + max(c2.values())
                key = _canon(pos, payload, dict(pcol), c2)
            else:
                p2 = dict(pcol)
                p2[member] = 1 + max(p2.values())
                key = _canon(pos, payload, p2, dict(ccol))
            if best is None or key < best:
                best = key
        return best

    crank = {c: i for i, c in enumerate(sorted(chans, key=lambda c: ccol[c]))}
    ordered = sorted(pids, key=lambda pid: pcol[pid])
    return (
        len(chans),
        tuple(
            (
                pos.players[pid].arity,
                payload.get(pid, ()),
                tuple(crank[ch] for ch in pos.players[pid].attach),
            )
            for pid in ordered
        ),
    )


def positions_isomorphic(
    x: Position,
    y: Position,
    payload_x: dict[int, object] | None = None,
    payload_y: dict[int, object] | None = None,
) -> bool:
    return canonical_position_key(x, payload_x) == canonical_position_key(y, payload_y)


def moves_isomorphic(a: Move, b: Move) -> bool:
    """Move equality up to bijective renaming commuting with the traces."""
    if a.kind != b.kind:
        return False
    if len(a.initial.players) != len(b.initial.players):
        return False
    if len(a.initial.channels) != len(b.initial.channels):
        return False
    if len(a.final.channels) != len(b.final.channels):
        return False

    a_pids = sorted(a.initial.players)
    for b_perm in itertools.permutations(sorted(b.initial.players)):
        pmap = dict(zip(a_pids, b_perm))
        if any(
            a.initial.players[p].arity != b.initial.players[q].arity
            or (p in a.moving) != (q in b.moving)
            or len(a.player_map.get(p, ())) != len(b.player_map.get(q, ()))
            for p, q in pmap.items()
        ):
            continue
        cmap: dict[int, int] = {}
        ok = True
        for p, q in pmap.items():
            for ca, cb in zip(a.initial.players[p].attach, b.initial.players[q].attach):
                if cmap.setdefault(ca, cb) != cb:
                    ok = False
                    break
            if not ok:
                break
        if not ok or len(set(cmap.values())) != len(cmap):
            continue
        # avatars correspond componentwise through the player traces
        fmap = {}
        for p, q in pmap.items():
            for pa, qa in zip(a.player_map.get(p, ()), b.player_map.get(q, ())):
                fmap[pa] = qa
        if len(fmap) != len(a.final.players) or set(fmap.values()) != set(b.final.players):
            continue
        for pa, qa in fmap.items():
            if a.final.players[pa].arity != b.final.players[qa].arity:
                ok = False
                break
            for ca, cb in zip(a.final.players[pa].attach, b.final.players[qa].attach):
                if cmap.setdefault(ca, cb) != cb:
                    ok = False
                    break
            if not ok:
                break
        if not ok or len(set(cmap.values())) != len(cmap):
            continue
        # unattached channels only need matching counts, checked above
        return True
    return False


# ---------------------------------------------------------------- dot


def to_dot(x: Position | Move | Play) -> str:
    """Render as Graphviz source with canonical node serials.

    Channels are round, players are square boxes labelled by arity,
    attachment edges carry the slot index. Identifier values never leak
    into the output, so identical shapes render identically.
    """
    if isinstance(x, Position):
        lines = ["digraph position {", "  rankdir=LR;"]
        lines.extend("  " + l for l in _dot_position(x, ""))
        lines.append("}")
        return "\n".join(lines) + "\n"
    if isinstance(x, Move):
        lines = [
            "digraph move {",
            "  rankdir=LR;",
            f'  label="{kind_label(x.kind)}";',
        ]
        lines.extend(_dot_move_clusters(x, "i", "f", "initial", "final"))
        lines.extend("  " + l for l in _dot_traces(x, "i", "f"))
        lines.append("}")
        return "\n".join(lines) + "\n"
    lines = ["digraph play {", "  rankdir=LR;"]
    positions = [x.initial] + [m.final for m in x.moves]
    for k, pos in enumerate(positions):
        lines.append(f"  subgraph cluster_{k} {{")
        label = "start" if k == 0 else kind_label(x.moves[k - 1].kind)
        lines.append(f'    label="{k}: {label}";')
        lines.extend("    " + l for l in _dot_position(pos, f"s{k}_"))
        lines.append("  }")
    for k, m in enumerate(x.moves):
        lines.extend("  " + l for l in _dot_traces(m, f"s{k}", f"s{k + 1}"))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _serials(pos: Position) -> tuple[dict[int, str], dict[int, str]]:
    cs = {c: f"c{i}" for i, c in enumerate(sorted(pos.channels))}
    ps = {p: f"p{i}" for i, p in enumerate(sorted(pos.players))}
    return cs, ps


def _dot_position(pos: Position, prefix: str) -> list[str]:
    cs, ps = _serials(pos)
    lines = []
    for c in sorted(pos.channels):
        lines.append(f'{prefix}{cs[c]} [shape=ellipse label="{cs[c]}"];')
    for pid in sorted(pos.players):
        lines.append(f'{prefix}{ps[pid]} [shape=box label="{pos.players[pid].arity}"];')
    for pid in sorted(pos.players):
        for slot, ch in enumerate(pos.players[pid].attach, 1):
            lines.append(f'{prefix}{ps[pid]} -> {prefix}{cs[ch]} [label="{slot}"];')
    return lines


def _dot_move_clusters(m: Move, ip: str, fp: str, ilabel: str, flabel: str) -> list[str]:
    lines = [f"  subgraph cluster_{ip} {{", f'    label="{ilabel}";']
    lines.extend("    " + l for l in _dot_position(m.initial, ip + "_"))
    lines.append("  }")
    lines.append(f"  subgraph cluster_{fp} {{")
    lines.append(f'    label="{flabel}";')
    lines.extend("    " + l for l in _dot_position(m.final, fp + "_"))
    lines.append("  }")
    return lines


def _dot_traces(m: Move, ip: str, fp: str) -> list[str]:
    ics, ips = _serials(m.initial)
    fcs, fps = _serials(m.final)
    lines = []
    for pid in sorted(m.player_map):
        for av in m.player_map[pid]:
            lines.append(f"{ip}_{ips[pid]} -> {fp}_{fps[av]} [style=dashed];")
    for src in sorted(m.channel_map):
        lines.append(f"{ip}_{ics[src]} -> {fp}_{fcs[m.channel_map[src]]} [style=dotted];")
    return lines
