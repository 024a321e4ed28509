"""String-diagram positions and moves for the actor game.

A position is a finite set of channels together with finitely many
players; a player of arity n is attached to a channel in each of its
slots 1..n. Channels and players carry globally fresh opaque integer
identifiers; structural equality of positions is on identifiers.

A move is a cospan, stored as its kind, its initial and final
positions and its player trace. Construction keeps channel identifiers
fixed, so the channel trace is the identity embedding of the initial
channels and created channels are exactly ``final - initial``. A seed's
movers and avatars (the players a move produces) get fresh identifiers,
which ``extend``'s glue may carry onto others, one to one; spectators
added by ``extend`` keep theirs in both boundaries, so the moving
players are exactly those the trace does not keep, and play
composition is exact on identifiers.

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
indexes. A kind is the tuple of its class name and its fields, so
kinds hash, compare and order in C: by class name, then field by
field. Kinds of two classes are never equal, even with equal fields.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

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


# ---------------------------------------------------------------- kinds


class MoveKind(tuple):
    """A move kind: the tuple of its class name, then its fields. Each
    kind class names its fields in ``_fields``, in constructor order."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        for i, name in enumerate(cls._fields, 1):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *fields: int) -> MoveKind:
        if len(fields) != len(cls._fields):
            names = ", ".join(cls._fields)
            raise TypeError(f"{cls.__name__}({names}) got {len(fields)} values")
        return tuple.__new__(cls, (cls.__name__, *fields))

    def __getnewargs__(self) -> tuple:
        return self[1:]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={v!r}" for name, v in zip(self._fields, self[1:]))
        return f"{type(self).__name__}({fields})"


class Fork(MoveKind):
    __slots__ = ()
    _fields = ("n",)


class ForkL(MoveKind):
    __slots__ = ()
    _fields = ("n",)


class ForkR(MoveKind):
    __slots__ = ()
    _fields = ("n",)


class Input(MoveKind):
    __slots__ = ()
    _fields = ("n", "a")


class Output(MoveKind):
    __slots__ = ()
    _fields = ("m", "c", "d")


class Heartbeat(MoveKind):
    __slots__ = ()
    _fields = ("n",)


class Sync(MoveKind):
    __slots__ = ()
    _fields = ("n", "a", "m", "c", "d")


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
    player_map: dict[int, tuple[int, ...]]

    @property
    def moving(self) -> frozenset[int]:
        return frozenset(p for p, avs in self.player_map.items() if avs != (p,))

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
            {p: avatars},
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
        {sender: (sender2,), receiver: (receiver2,)},
    )


def interface(m: Move) -> frozenset[int]:
    """The channels of the initial position; what a seed glues along."""
    return m.initial.channels


def extend(m: Move, z: Position, glue: dict[int, int]) -> Move:
    """Glue the seed ``m`` into ambient position ``z`` along ``glue``.

    ``glue`` must send every interface channel of ``m`` to a channel of
    ``z`` (not necessarily injectively), and leaves created channels as
    they are. It may also carry seed players, movers and avatars alike,
    onto other identifiers; a seed player it does not name keeps its
    own. Players of ``z`` become spectators, present and untouched in
    both boundaries, so each must sit on channels of ``z``, and no two
    players of the result may share an identifier. Identifier freshness
    makes ``z`` and the seed's channels disjoint. All of this is checked.
    """
    if not m.is_seed():
        raise ValueError("only seeds can be extended")
    z.check()
    iface = interface(m)
    missing = iface - glue.keys()
    if missing:
        raise ValueError(f"glue map not total on the interface: missing {sorted(missing)}")
    bad = {glue[c] for c in iface} - z.channels
    if bad:
        raise ValueError(f"glue targets outside the ambient position: {sorted(bad)}")
    ids = {pid: glue.get(pid, pid) for pid in (*m.initial.players, *m.final.players)}
    if len(set(ids.values())) < len(ids):
        raise ValueError("glue carries two seed players onto one identifier")
    if z.players.keys() & ids.values():
        raise ValueError("ambient position shares player identifiers with the seed")
    if z.channels & m.final.channels:
        raise ValueError("ambient position shares channel identifiers with the seed")
    created = m.created_channels()
    if created & glue.keys():
        raise ValueError(f"glue names created channels: {sorted(created & glue.keys())}")

    init_players = dict(z.players)
    for pid, pl in m.initial.players.items():
        init_players[ids[pid]] = Player(tuple(glue[c] for c in pl.attach))
    initial = Position(z.channels, init_players)

    fin_players = dict(z.players)
    for pid, pl in m.final.players.items():
        fin_players[ids[pid]] = Player(tuple(glue.get(c, c) for c in pl.attach))
    final = Position(z.channels | created, fin_players)

    player_map = {pid: (pid,) for pid in z.players}
    for pid, avatars in m.player_map.items():
        player_map[ids[pid]] = tuple(ids[a] for a in avatars)
    return Move(m.kind, initial, final, player_map)


# ---------------------------------------------------------------- plays


@dataclass
class Play:
    initial: Position
    moves: tuple[Move, ...]

    @property
    def final(self) -> Position:
        return self.moves[-1].final if self.moves else self.initial


def identity_play(pos: Position) -> Play:
    return Play(pos, ())


def play_of(m: Move) -> Play:
    return Play(m.initial, (m,))


def compose(p: Play, q: Play) -> Play:
    """Run ``q`` first, then ``p``; the boundary must match on identifiers."""
    if q.final.channels != p.initial.channels or q.final.players != p.initial.players:
        raise ValueError("plays do not compose: boundary positions differ")
    return Play(q.initial, q.moves + p.moves)


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
        for prefix, label, pos in (("i", "initial", x.initial), ("f", "final", x.final)):
            lines += [f"  subgraph cluster_{prefix} {{", f'    label="{label}";']
            lines.extend("    " + l for l in _dot_position(pos, prefix + "_"))
            lines.append("  }")
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


def _dot_traces(m: Move, ip: str, fp: str) -> list[str]:
    ics, ips = _serials(m.initial)
    fcs, fps = _serials(m.final)
    lines = []
    for pid in sorted(m.player_map):
        for av in m.player_map[pid]:
            lines.append(f"{ip}_{ips[pid]} -> {fp}_{fps[av]} [style=dashed];")
    for c in sorted(m.initial.channels):
        lines.append(f"{ip}_{ics[c]} -> {fp}_{fcs[c]} [style=dotted];")
    return lines
