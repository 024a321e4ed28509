"""Transition systems over processes and over strategies.

Both sides share one channel discipline: a state knows how many global
channels exist, numbered 1..num_channels in creation order, and every
local attachment is a tuple of global channel numbers. Because creation
order is pinned by the transition sequence, labels mentioning global
channel numbers are directly comparable between the process side and
the strategy side; the weak bisimulation between them is checked on
these labels.

Closed world: the only steps are tick, silent fork and silent sync.
Edge labels are StepLabel values carrying the move kind plus which
actors moved and which summands or branches they chose; they are
interned, so equal labels are one object. One ``Explorer`` serves each
exploration of the closed world, filing each body's offers once.

Interface: the subject additionally interacts with an environment that
knows some of the global channels through the handle map h (a tuple of
global channel numbers, one per environment handle, not necessarily
injective). Observable labels are tick, in(a), out(a,b), forkL and
forkR, with a and b global channel numbers; sync and fork stay silent.
A receive adds one fresh channel known to both sides; an emit teaches
the environment the emitted channel; an observed fork half hands the
dropped sibling to the environment along one fresh shared channel.

The optional link rule lets the environment feed a receiver a fresh
channel while naming a second handle it got it from; it is off by
default and never changes h.

One state type serves both sides of the closed world; the side is the
type of the state's actors. An actor, a strategy player or a process
thread, has an ``attach`` field (the global channel of each local
slot), a ``body`` (its strategy or term), ``avatar(attach, cont)``
(the actor that carries on as ``cont``) and the static ``offers(body)``,
which reads a body alone. Offers are (seed key, ((choice,
continuation), ...)) groups in enumeration order: a player reads them
off its strategy table, a thread off its own syntax. A step's choice
concatenates its actors' choices, so closed labels read ``#i,j`` on the
strategy side and carry branch indices, or nothing for a fork, on the
process side.

Interface graphs are built over int-coded states ``(h, num_channels,
actors)``, and their ``states`` stay coded: bodies are ranked in body
order, so coded actors order as the actors do, and successors, vertex
numbering and dumps are those of the concrete states. One breadth-first
loop builds a graph: states that differ only in h share the moves of
their channel count and actors, and each state filters them by its h.

States, actors and labels are named tuples, so hashing, comparing and
sorting them runs in C. A player's leading ``arity`` field makes tuple
order the player order: arity, attachment, strategy. Move kinds are
tuples too (see ``arena``). Interface labels, closed step labels and
closed move kinds are interned: edges share one object per value, and a
dump renders each distinct label once.
"""

from __future__ import annotations

import gc
from bisect import bisect, insort
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

from . import arena
from .arena import Fork, Heartbeat, MoveKind, Sync, kind_label
from .strategy import Definite, SeedKey, interpret, prefix_to_key
from .term import Par, Process, typecheck

MAX_STATES = 200000  # the most states a graph or a verdict search may meet

# ------------------------------------------------------------- states

Offer = tuple[SeedKey, tuple[tuple[tuple[int, ...], object], ...]]


class _Player(NamedTuple):
    arity: int
    attach: tuple[int, ...]
    body: Definite


class PlayerState(_Player):
    """A strategy player, built as ``PlayerState(attach, body)``; its
    leading ``arity``, the length of ``attach``, makes players order by
    arity, attachment, strategy."""

    __slots__ = ()

    def __new__(cls, attach: tuple[int, ...], body: Definite) -> PlayerState:
        if len(attach) != body.arity:
            raise ValueError(
                f"player attached to {len(attach)} channels runs a strategy "
                f"of arity {body.arity}"
            )
        return tuple.__new__(cls, (body.arity, attach, body))

    def __getnewargs__(self) -> tuple:
        return self.attach, self.body

    @classmethod
    def _make(cls, fields: Iterable) -> PlayerState:
        """The checked player of ``(arity, attach, body)``, for ``_replace`` too."""
        arity, attach, body = fields
        if arity != len(attach):
            raise ValueError(f"player of arity {arity} attached to {len(attach)} channels")
        return cls(attach, body)

    @staticmethod
    def offers(body: Definite) -> list[Offer]:
        """The strategy table: one group per entry, choice (i,) for the
        i-th summand."""
        return [
            (key, tuple(((i,), d) for i, d in enumerate(summands)))
            for key, summands in body.table
        ]

    def avatar(self, attach: tuple[int, ...], cont: Definite) -> PlayerState:
        return PlayerState(attach, cont)


class Thread(NamedTuple):
    body: Process
    attach: tuple[int, ...]

    @staticmethod
    def offers(p: Process) -> list[Offer]:
        """The operational rules read off the syntax: a parallel offers
        its two halves with no choice, a choice offers each branch under
        its prefix's seed with choice (branch index,)."""
        if isinstance(p, Par):
            return [(("forkL",), (((), p.left),)), (("forkR",), (((), p.right),))]
        return [
            (prefix_to_key(prefix), (((b,), cont),))
            for b, (prefix, cont) in enumerate(p.branches)
        ]

    def avatar(self, attach: tuple[int, ...], cont: Process) -> Thread:
        return Thread(cont, attach)


class State(NamedTuple):
    """A closed world: channels 1..num_channels and the actors attached to them."""

    num_channels: int
    actors: tuple

    @classmethod
    def of(cls, num_channels: int, actors: Iterable) -> State:
        """The state of ``actors``, all of one side, sorted, each attached
        within 1..num_channels."""
        actors = list(actors)
        side = type(actors[0]) if actors else None
        for a in actors:
            if type(a) is not side:
                raise ValueError(
                    f"actors of two sides in one state: {side.__name__} and {type(a).__name__}"
                )
            for c in a.attach:
                if not 1 <= c <= num_channels:
                    raise ValueError(f"attachment {c} outside 1..{num_channels}")
        actors.sort()
        return cls(num_channels, tuple(actors))


def root_strategy(p: Process, gamma: int) -> State:
    """One player running the strategy of ``p``, attached to 1..gamma."""
    return State.of(gamma, [PlayerState(tuple(range(1, gamma + 1)), interpret(p, gamma))])


def root_process(p: Process, gamma: int) -> State:
    """One thread running ``p`` with the identity environment."""
    typecheck(p, gamma)
    return State.of(gamma, [Thread(p, tuple(range(1, gamma + 1)))])


# the root builder of each side
ROOTS = {"strategy": root_strategy, "process": root_process}


# ------------------------------------------------------------- labels


_CLOSED_TAG = {Heartbeat: "tick", Fork: "fork", Sync: "sync"}

# The closed move kinds, interned: equal kinds are one object, and a
# cache hit costs less than a kind's Python-level construction.
_heartbeat = lru_cache(maxsize=None)(Heartbeat)
_fork = lru_cache(maxsize=None)(Fork)
_sync = lru_cache(maxsize=None)(Sync)


class StepLabel(NamedTuple):
    """Closed-world edge label: the move kind, the indices of the actors
    in the source state, and the summand or branch indices chosen."""

    kind: MoveKind
    actors: tuple[int, ...]
    choice: tuple[int, ...]

    @property
    def tag(self) -> str:
        return _CLOSED_TAG[type(self.kind)]

    @property
    def is_tick(self) -> bool:
        return self.tag == "tick"

    def render(self) -> str:
        a = ",".join(str(i) for i in self.actors)
        ch = ",".join(str(i) for i in self.choice)
        return f"{kind_label(self.kind)}@{a}#{ch}"


# The closed step labels, interned: edges share one object per label.
_step_label = lru_cache(maxsize=None)(StepLabel)


class ALab(NamedTuple):
    """Interface edge label. Observable tags: tick, in, out, forkL,
    forkR, link; silent tags: sync, fork. Arguments are global channel
    numbers."""

    tag: str
    args: tuple[int, ...] = ()

    def render(self) -> str:
        if not self.args:
            return self.tag
        return f"{self.tag}({','.join(str(a) for a in self.args)})"


@lru_cache(maxsize=None)
def _label(tag: str, *args: int) -> ALab:
    """The interned interface label: edges share one object per label."""
    return ALab(tag, args)


SILENT_TAGS = frozenset({"sync", "fork"})


# --------------------------------------------------- closed-world steps


def _file_offers(body, offers: list) -> tuple:
    """The body, then its ``offers``, each group filed under the rule
    that consumes it: tick groups, (slot, group) receives, (channel
    slot, object slot, group) sends, and the (left, right) fork halves
    when the body offers both, else None. A filing kept by the body's
    id holds the body, so the id stays the body's."""
    ticks, ins, outs = [], [], []
    left = right = None
    for key, group in offers:
        tag = key[0]
        if tag == "heart":
            ticks.append(group)
        elif tag == "in":
            ins.append((key[1], group))
        elif tag == "out":
            outs.append((key[1], key[2], group))
        elif tag == "forkL":
            left = group
        else:
            right = group
    return body, ticks, ins, outs, (left, right) if left and right else None


class Explorer:
    """One exploration of the closed world: a closed graph build, a fair
    witness walk, a strict check or an arena replay. Offers depend on
    an actor's body alone, so the explorer files each body it meets
    once, by id.

    A move is a (kind, actors, choice, created, avatars) tuple: actor
    ``actors[i]`` of the state becomes the avatars ``avatars[i]``, and
    ``created`` fresh channels are added. A state's moves come in
    enumeration order: ticks by actor, then forks by actor, then syncs
    by sender then receiver, the choices of each step innermost."""

    def __init__(self) -> None:
        self.filed: dict[int, tuple] = {}  # id of a body -> its filing

    def file(self, actor) -> tuple:
        """``_file_offers`` of ``actor``'s body, which ``filed`` misses."""
        body = actor.body
        filing = self.filed[id(body)] = _file_offers(body, actor.offers(body))
        return filing

    def can_tick(self, state: State) -> bool:
        """Whether one of ``state``'s actors offers a tick."""
        filed = self.filed
        return any((filed.get(id(a.body)) or self.file(a))[1] for a in state.actors)

    def moves(self, state: State) -> list[tuple]:
        """``state``'s moves in enumeration order."""
        moves: list[tuple] = []
        forks, outs, ins = [], [], []
        filed = self.filed
        for p, actor in enumerate(state.actors):
            attach = actor.attach
            _, ticks, i, o, fork = filed.get(id(actor.body)) or self.file(actor)
            for group in ticks:
                kind = _heartbeat(len(attach))
                for choice, cont in group:
                    moves.append((kind, (p,), choice, 0, ((actor.avatar(attach, cont),),)))
            for a, group in i:
                ins.append((p, actor, attach, a, group))
            for c, d, group in o:
                outs.append((p, actor, attach, c, d, group))
            if fork:
                forks.append((p, actor, attach, *fork))
        fresh = state.num_channels + 1
        for p, actor, attach, lefts, rights in forks:
            kind = _fork(len(attach))
            grown = attach + (fresh,)
            for cl, dl in lefts:
                for cr, dr in rights:
                    av = (actor.avatar(grown, dl), actor.avatar(grown, dr))
                    moves.append((kind, (p,), cl + cr, 1, (av,)))
        for q, sender, sattach, c, d, sends in outs:
            shared, obj = sattach[c - 1], sattach[d - 1]
            for p, receiver, rattach, a, recvs in ins:
                if p == q or rattach[a - 1] != shared:
                    continue
                kind = _sync(len(rattach), a, len(sattach), c, d)
                for cs, ds in sends:
                    for cr, dr in recvs:
                        send_av = (sender.avatar(sattach, ds),)
                        recv_av = (receiver.avatar(rattach + (obj,), dr),)
                        moves.append((kind, (q, p), cs + cr, 0, (send_av, recv_av)))
        return moves

    @staticmethod
    def successor(state: State, move: tuple) -> State:
        """The state after ``move``: each avatar is checked and inserted
        among the unmoved actors, already sorted and checked, so the
        result is the ``State.of`` of the same actors (equal actors are
        equal values)."""
        _, moved, _, created, avatars = move
        num_channels = state.num_channels + created
        actors = [a for i, a in enumerate(state.actors) if i not in moved]
        for group in avatars:
            for a in group:
                for c in a.attach:
                    if not 1 <= c <= num_channels:
                        raise ValueError(f"attachment {c} outside 1..{num_channels}")
                insort(actors, a)
        return State(num_channels, tuple(actors))

    def steps(self, state: State) -> list[tuple[StepLabel, State]]:
        """Each of ``state``'s moves as a (label, successor) pair."""
        successor = self.successor
        return [(_step_label(*move[:3]), successor(state, move)) for move in self.moves(state)]


# ----------------------------------------------------- interface engine

# An order key is a flat tuple of ints: a strategy's arity, then for
# each offer group a branch marker, its seed tag's code and the slots
# of its seed key, a branch marker and the key of each continuation,
# and an end marker; a last end marker closes the body. Each side's
# codes give its own order of tags, and the end marker sorts below the
# branch marker, so keys compare as the bodies do, in C and with no
# recursion.
_END, _BRANCH = 0, 1
_TAG_CODE = {
    # a receive, a send, a tick, then a parallel's halves: Sum < Par
    Thread: {"in": 0, "out": 1, "heart": 2, "forkL": 3, "forkR": 4},
    # seed keys compare by their tag strings
    PlayerState: {"forkL": 0, "forkR": 1, "heart": 2, "in": 3, "out": 4},
}


def _rank_bodies(side: type, actors: tuple) -> tuple[dict[int, int], list[list], list[int]]:
    """Rank every body reachable from ``actors`` through its offers in
    body order, equal bodies alike. Gives the rank of each body met, by
    id; each rank's offers; and, for players, each rank's arity. Each
    body's offers are read once, and its order key is built from its
    continuations' keys, bottom-up; a lone body needs no key."""
    code = _TAG_CODE[side]
    player = side is PlayerState
    filed: dict[int, list] = {}  # id -> offers
    keys: dict[int, tuple] = {}
    stack = [a.body for a in actors]
    while stack:
        body = stack[-1]
        i = id(body)
        offers = filed.get(i)
        if offers is None:
            offers = filed[i] = side.offers(body)
            if not offers:  # an inert body's key is its head and an end marker
                if len(filed) == len(stack) == 1:
                    return {i: 0}, [offers], [body.arity] if player else []  # a lone body
                keys[i] = (body.arity, _END) if player else (_END,)
                stack.pop()
                continue
            pending = False
            for _, group in offers:
                for _, c in group:
                    if id(c) not in filed:
                        stack.append(c)
                        pending = True
            if pending:
                continue
        elif i in keys:
            stack.pop()
            continue
        key = [body.arity] if player else []
        for seed, group in offers:
            key += (_BRANCH, code[seed[0]], *seed[1:])
            for _, c in group:
                key.append(_BRANCH)
                key += keys[id(c)]
            key.append(_END)
        key.append(_END)
        keys[i] = tuple(key)
        stack.pop()
    rank: dict[int, int] = {}
    filings, arities = [], []
    prev = None
    for key, i in sorted(zip(keys.values(), keys)):
        if key != prev:
            prev = key
            filings.append(filed[i])
            if player:
                arities.append(key[0])
        rank[i] = len(filings) - 1
    return rank, filings, arities


def _inserted(rest: tuple, avatars: tuple) -> tuple:
    """``rest``, sorted, with ``avatars`` inserted each in its place."""
    actors = list(rest)
    for a in avatars:
        insort(actors, a)
    return tuple(actors)


class _Interface:
    """One interface graph build over int-coded states ``(h,
    num_channels, actors)``. A body's rank is its place among the
    bodies reachable from the root, sorted (``_rank_bodies``); a thread
    is coded ``(rank, attach)`` and a player ``(arity, attach, rank)``,
    so coded actors order as the actors do, and a coded state's steps,
    successors and their order are the concrete state's.

    An actor's moves depend on it and the next fresh channel alone, so
    ``entries`` keeps them per fresh channel and coded actor (``entry``).
    A state's moves, but for the channel each needs h to know, depend on
    its channel count and actors alone, so ``shared`` keeps them per
    ``(num_channels, actors)`` pair (``fill``): states that differ only
    in h share them, and ``build`` filters them by each state's h."""

    def __init__(self, root: State, enable_link: bool = False):
        actors = root.actors
        side = type(actors[0]) if actors else Thread
        self.player = player = side is PlayerState
        self.link = enable_link
        self.entries: dict[int, dict] = {}  # fresh channel -> actor -> entry
        self.shared: dict[tuple, list] = {}  # (n, actors) -> moves
        self.rank, self.filings, self.arities = _rank_bodies(side, actors)
        coded = []
        for a in actors:
            r = self.rank[id(a.body)]
            coded.append((a.arity, a.attach, r) if player else (r, a.attach))
        self.root = (tuple(range(1, root.num_channels + 1)), root.num_channels, tuple(coded))

    def avatars(self, group: tuple, attach: tuple, num_channels: int) -> tuple:
        """The coded actors that carry on as the continuations of the
        offer ``group`` attached to ``attach``, checked as ``PlayerState``
        and ``State.of`` check."""
        rank = self.rank
        if self.player:
            arity = len(attach)
            avatars = []
            for _, c in group:
                r = rank[id(c)]
                if self.arities[r] != arity:
                    raise ValueError(
                        f"player attached to {arity} channels runs a strategy "
                        f"of arity {self.arities[r]}"
                    )
                avatars.append((arity, attach, r))
        else:
            avatars = [(rank[id(c)], attach) for _, c in group]
        for c in attach:
            if not 1 <= c <= num_channels:
                raise ValueError(f"attachment {c} outside 1..{num_channels}")
        return tuple(avatars)

    def entry(self, actor: tuple, fresh: int) -> tuple:
        """``actor``'s entry in a state whose next fresh channel is
        ``fresh``: its observable moves in offer order as (channel h must
        know or None, label, handle extension, channels created, avatars),
        its fork avatar pairs, its sends as (channel, object, avatars) and
        its receives as (channel, avatars, attachment, offer group,
        avatars by object) for the link and sync rules."""
        r, attach = (actor[2], actor[1]) if self.player else actor
        filing = self.filings[r]
        if not filing:
            return (), (), (), ()
        n = fresh - 1
        grown = attach + (fresh,)
        moves, forks, sends, receives = [], [], [], []
        left = ()
        for seed, group in filing:
            tag = seed[0]
            if tag == "heart":
                moves.append((None, _label("tick"), (), 0, self.avatars(group, attach, n)))
            elif tag == "out":
                ch, obj = attach[seed[1] - 1], attach[seed[2] - 1]
                avatars = self.avatars(group, attach, n)
                moves.append((ch, _label("out", ch, obj), (obj,), 0, avatars))
                sends.append((ch, obj, avatars))
            elif tag == "in":
                ch = attach[seed[1] - 1]
                avatars = self.avatars(group, grown, fresh)
                moves.append((ch, _label("in", ch), (fresh,), 1, avatars))
                receives.append((ch, avatars, attach, group, {}))
            else:
                avatars = self.avatars(group, grown, fresh)
                moves.append((None, _label(tag), (fresh,), 1, avatars))
                if tag == "forkL":
                    left = avatars
                else:
                    for a in left:
                        for b in avatars:
                            forks.append((a, b))
        return moves, forks, sends, receives

    def fill(self, moves: list, n: int, actors: tuple) -> None:
        """Fill ``moves`` with the moves of every state ``(h, n,
        actors)``, whatever its h, in step order: observable moves actor
        by actor in offer order, then silent forks by actor and syncs by
        sender then receiver. An observable move is one (channel h must
        know or None, label, handle extension, channel count, successor
        actors) tuple per avatar; with the link rule on, each receive adds
        (channel, None, (), channel count, successor actors of each
        avatar) after its actor's other moves."""
        fresh = n + 1
        entries = self.entries.setdefault(fresh, {})
        link = self.link
        forks, sends, receives = [], [], []
        for p, actor in enumerate(actors):
            entry = entries.get(actor)
            if entry is None:
                entry = entries[actor] = self.entry(actor, fresh)
            own, pairs, outs, ins = entry
            if not own:
                continue  # an inert actor: no forks, sends or receives either
            rest = actors[:p] + actors[p + 1 :]
            for ch, label, ext, created, avatars in own:
                for av in avatars:
                    i = bisect(rest, av)
                    moves.append((ch, label, ext, n + created, rest[:i] + (av,) + rest[i:]))
            if link:
                for ch, avatars, *_ in ins:
                    linked = tuple([_inserted(rest, (av,)) for av in avatars])
                    moves.append((ch, None, (), fresh, linked))
            if pairs:
                forks.append((rest, pairs))
            for out in outs:
                sends.append((p, out))
            for recv in ins:
                receives.append((p, recv))
        if forks:
            label = _label("fork")
            for rest, pairs in forks:
                for pair in pairs:
                    moves.append((None, label, (), fresh, _inserted(rest, pair)))
        if sends and receives:
            label = _label("sync")
            for q, (ch, obj, sent) in sends:
                for p, (on, _, attach, group, got_by_obj) in receives:
                    if on != ch or p == q:
                        continue
                    got = got_by_obj.get(obj)
                    if got is None:
                        got = got_by_obj[obj] = self.avatars(group, attach + (obj,), n)
                    lo, hi = (p, q) if p < q else (q, p)
                    rest = actors[:lo] + actors[lo + 1 : hi] + actors[hi + 1 :]
                    for sent_av in sent:
                        for got_av in got:
                            moves.append((None, label, (), n, _inserted(rest, (sent_av, got_av))))

    def build(self) -> LtsGraph:
        """The graph from ``root``, numbered and capped as by ``build_graph``:
        a state's steps are its pair's shared moves whose channel h knows,
        with h extended, and only two or more are deduplicated and sorted."""
        max_states = MAX_STATES
        index = {self.root: 0}
        states = [self.root]
        edges: list[tuple] = []
        shared, fill = self.shared, self.fill
        miss: list[tuple] = []
        with _collector_paused():
            for h, n, actors in states:  # the loop meets every state appended
                moves = shared.setdefault((n, actors), miss)  # the key is hashed once
                if moves is miss:
                    fill(moves, n, actors)
                    miss = []
                known = None  # set(h), built when a move needs a channel known
                out = []
                for ch, label, ext, m, succ in moves:
                    if ch is not None:
                        if known is None:
                            known = set(h)
                        if ch not in known:
                            continue
                        if label is None:  # a receive's link steps
                            for src in sorted(known - {ch}):
                                label = _label("link", ch, m, src)
                                for linked in succ:
                                    nxt = (h, m, linked)
                                    dst = index.setdefault(nxt, len(states))
                                    if dst == len(states):
                                        states.append(nxt)
                                    out.append((label, dst))
                            continue
                    nxt = (h + ext, m, succ)
                    dst = index.setdefault(nxt, len(states))
                    if dst == len(states):
                        states.append(nxt)
                    out.append((label, dst))
                if len(states) > max_states:
                    raise RuntimeError(f"state space exceeds {max_states} states")
                edges.append(tuple(sorted(set(out))) if len(out) > 1 else tuple(out))
        return LtsGraph(states, edges)


# -------------------------------------------------------------- graphs


@dataclass
class LtsGraph:
    """Finite rooted graph; vertex 0 is the root, edges are sorted."""

    states: list
    edges: list[tuple]
    root = 0  # a class constant, not a field

    @property
    def num_edges(self) -> int:
        return sum(len(e) for e in self.edges)

    def dump(self) -> str:
        """The graph as text, one line per edge; each distinct label is
        rendered once."""
        lines = [
            f"lts-v1 vertices={len(self.states)} edges={self.num_edges} root=0"
        ]
        arrows: dict = {}  # label -> its rendered arrow
        for src in range(len(self.states)):
            for label, dst in self.edges[src]:
                arrow = arrows.get(label)
                if arrow is None:
                    arrow = arrows[label] = f" -{label.render()}-> "
                lines.append(f"{src}{arrow}{dst}")
        return "\n".join(lines) + "\n"


@contextmanager
def _collector_paused():
    """Pause the cyclic collector for a graph build, and leave it as
    found: states and labels are tuples that make no reference cycle, so
    the collector would only rescan the state table."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def build_graph(root, successors: Callable) -> LtsGraph:
    """BFS the reachable states, at most ``MAX_STATES`` of them, read
    when the build starts, with the collector paused. Successor lists
    are deduplicated and sorted by label then target, so vertex
    numbering and edge order are functions of the root alone. Closed
    graphs are built here; interface graphs by ``_Interface.build``."""
    max_states = MAX_STATES
    index = {root: 0}
    states = [root]
    edges: list[tuple] = []
    with _collector_paused():
        for state in states:  # the loop meets every state appended
            outs: set[tuple] = set()
            for label, nxt in successors(state):
                dst = index.setdefault(nxt, len(states))
                if dst == len(states):
                    if dst >= max_states:
                        raise RuntimeError(f"state space exceeds {max_states} states")
                    states.append(nxt)
                outs.add((label, dst))
            edges.append(tuple(sorted(outs)))
    return LtsGraph(states, edges)


def closed_graph(state: State) -> LtsGraph:
    return build_graph(state, Explorer().steps)


def interface_graph(root: State, enable_link: bool = False) -> LtsGraph:
    """The interface graph of a root whose every channel the environment
    knows. Its states are int-coded, as ``_Interface`` gives them."""
    return _Interface(root, enable_link).build()


def strategy_lts(p: Process, gamma: int) -> LtsGraph:
    return interface_graph(root_strategy(p, gamma))


def process_lts(p: Process, gamma: int) -> LtsGraph:
    return interface_graph(root_process(p, gamma))


# ---------------------------------------------------------- weak bisim


@dataclass(frozen=True)
class BisimResult:
    equivalent: bool
    witness: tuple[str, ...]
    num_blocks: int


WITNESS_DEPTH = 16


class _Offsets(dict):
    """Label -> its offset in ``weak_bisim``'s step code: 0 for a
    silent label, and for an observable one the next multiple of
    ``unit``, given when the label is first looked up."""

    def __init__(self, unit: int):
        self.unit = unit

    def __missing__(self, label) -> int:
        off = self[label] = 0 if label.tag in SILENT_TAGS else (len(self) + 1) * self.unit
        return off


def weak_bisim(g1: LtsGraph, g2: LtsGraph) -> BisimResult:
    """Decide weak bisimilarity of the two roots.

    Over the disjoint union of the two graphs, silent edges may be
    absorbed and every other label (tick included) is observable. The
    graphs must be acyclic, as every graph of this calculus is: each
    step consumes a prefix or a parallel node. A cycle raises
    ValueError.

    One flat depth-first pass over each graph's own edge lists
    classifies each vertex inline after all of its successors, with no
    Python-level call per vertex, in the rank-based style of Dovier,
    Piazza & Policriti (TCS 311, 2004). A vertex's weak behaviour is
    read off its successors' classes: T, the classes it reaches in one
    or more silent steps, and O, the (label, class) pairs it reaches by
    a weak observable step. A class keeps its O and its T plus itself.
    The vertex stutters into a class in its T that has the same O and
    whose T plus itself is the vertex's T; otherwise it joins, or
    founds, the class of its (O, T). The class of a vertex's own steps
    is remembered, keyed by its one step's int code when it has one
    edge and by the set of its steps' codes otherwise. Blocks are
    numbered by their first vertex, the first graph's vertices first.

    When the roots differ the witness is a label sequence tracing one
    spine of a distinguishing experiment, at most WITNESS_DEPTH labels
    long; it is a hint, not a certificate.
    """
    n1 = len(g1.states)
    n = n1 + len(g2.states)

    # A step, a (label, class) pair, is the int offset + class. There
    # are at most n classes, so with offset 0 for a silent label and a
    # distinct positive multiple of n for each observable one, given
    # when the label is first met, divmod(step, n) decodes a step.
    offsets = _Offsets(n)
    reach: list[frozenset[int]] = []  # per class: its T plus itself
    weak_pairs: list[frozenset[int]] = []  # per class: its O
    # A class is found under the (O, T) of the vertex that founded it,
    # and under (O, T plus itself), the (O, T) of a vertex stuttering
    # into it.
    classes: dict[tuple, int] = {}
    by_steps: dict[object, int] = {}  # a vertex's one step, or set of steps -> class

    unseen, open_ = -1, -2
    cls1, cls2 = [unseen] * n1, [unseen] * (n - n1)  # per vertex of each graph
    for side, edges, cls in ((1, g1.edges, cls1), (2, g2.edges, cls2)):
        for root in range(len(cls)):
            if cls[root] != unseen:
                continue
            cls[root] = open_
            stack = [(root, iter(edges[root]))]
            while stack:
                v, succ = stack[-1]
                for _, w in succ:
                    c = cls[w]
                    if c == unseen:
                        cls[w] = open_
                        stack.append((w, iter(edges[w])))
                        break
                    if c == open_:
                        raise ValueError(
                            f"weak_bisim needs acyclic graphs: vertex {w} of "
                            f"graph {side} lies on a cycle"
                        )
                else:
                    stack.pop()
                    # classify v from its successors' classes
                    arcs = edges[v]
                    if len(arcs) == 1:
                        [(label, w)] = arcs
                        steps = offsets[label] + cls[w]  # a lone step keys itself
                    else:
                        steps = frozenset([offsets[label] + cls[w] for label, w in arcs])
                    c = by_steps.get(steps)
                    if c is None:
                        t: set[int] = set()
                        o: set[int] = set()
                        for step in (steps,) if type(steps) is int else steps:
                            a, d = divmod(step, n)
                            if a == 0:
                                t |= reach[d]
                                o |= weak_pairs[d]
                            else:
                                o.update(step - d + e for e in reach[d])
                        key = (frozenset(o), frozenset(t))
                        c = classes.get(key)
                        if c is None:
                            c = len(reach)
                            t.add(c)
                            reach.append(frozenset(t))
                            weak_pairs.append(key[0])
                            classes[key] = classes[key[0], reach[c]] = c
                        by_steps[steps] = c
                    cls[v] = c

    first: dict[int, int] = {}
    block = [first.setdefault(c, len(first)) for cls in (cls1, cls2) for c in cls]
    r1, r2 = 0, n1
    if block[r1] == block[r2]:
        return BisimResult(True, (), len(first))

    def out(v: int) -> tuple[tuple, int]:
        """Vertex v's own edges, and the offset of their targets in the union."""
        return (g1.edges[v], 0) if v < n1 else (g2.edges[v - n1], n1)

    def closure(vs: Iterable[int]) -> set[int]:
        seen = set(vs)
        stack = list(seen)
        while stack:
            edges, base = out(stack.pop())
            for label, w in edges:
                w += base
                if label.tag in SILENT_TAGS and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def weak_successors(x: int) -> dict[object, set[int]]:
        targets: dict[object, list[int]] = {}
        for u in closure([x]):
            edges, base = out(u)
            for label, w in edges:
                if label.tag not in SILENT_TAGS:
                    targets.setdefault(label, []).append(base + w)
        return {a: closure(ws) for a, ws in targets.items()}

    def distinguish(x: int, y: int, depth: int) -> list[str]:
        if depth == 0:
            return []
        wx, wy = weak_successors(x), weak_successors(y)
        for a in sorted(wx.keys() | wy.keys()):
            bx = {block[w] for w in wx.get(a, ())}
            by = {block[w] for w in wy.get(a, ())}
            if bx == by:
                continue
            if bx - by:
                extra, src, other = min(bx - by), wx[a], wy.get(a, set())
            else:
                extra, src, other = min(by - bx), wy[a], wx.get(a, set())
            if not other:
                return [a.render()]
            w1 = min(w for w in src if block[w] == extra)
            return [a.render()] + distinguish(w1, min(other), depth - 1)
        # x and y lie in different blocks, so one silent closure meets a
        # block the other does not, besides its own root's: were the only
        # such blocks those of x and y, merging the two blocks would give
        # a coarser weak bisimulation
        tx, ty = closure([x]), closure([y])
        bx = {block[u] for u in tx}
        by = {block[u] for u in ty}
        if bx - by - {block[x]}:
            extra, src, other = min(bx - by - {block[x]}), tx, ty
        else:
            extra, src, other = min(by - bx - {block[y]}), ty, tx
        u1 = min(u for u in src if block[u] == extra)
        return distinguish(u1, min(other), depth - 1)

    return BisimResult(False, tuple(distinguish(r1, r2, WITNESS_DEPTH)), len(first))


# -------------------------------------------------------- arena bridge


def _position(state: State, chan_ids: dict[int, int], pids: Sequence[int]) -> arena.Position:
    """The arena position of ``state``: global channel c is ``chan_ids[c]``
    and the i-th player is ``pids[i]``."""
    return arena.Position(
        frozenset(chan_ids[c] for c in range(1, state.num_channels + 1)),
        {
            pid: arena.Player(tuple(chan_ids[c] for c in ps.attach))
            for ps, pid in zip(state.actors, pids)
        },
    )


def arena_position(g: State) -> arena.Position:
    """The current strategy-side state as a string-diagram position."""
    return arena_trace(g, []).initial


def arena_trace(state: State, indices: Sequence[int]) -> arena.Play:
    """Replay closed steps chosen by index as an arena play.

    Index k selects the k-th of ``Explorer.moves``: ticks by player,
    then forks by player, then syncs by sender then receiver, each
    player's entries in table order and summand products innermost.
    Channel and player traces are exact identity embeddings, so the
    resulting moves compose on the nose.
    """
    chan_ids = {c: arena.new_id() for c in range(1, state.num_channels + 1)}
    pids = [arena.new_id() for _ in state.actors]
    pos = _position(state, chan_ids, pids)
    play = arena.identity_play(pos)
    world = Explorer()
    for idx in indices:
        moves = world.moves(state)
        if not 0 <= idx < len(moves):
            raise IndexError(
                f"edge index {idx} out of range: state has {len(moves)} raw steps"
            )
        kind, actors, _, created, avatars = moves[idx]
        if created:
            chan_ids[state.num_channels + 1] = arena.new_id()
        repl = dict(zip(actors, avatars))
        nxt = world.successor(state, moves[idx])
        pairs: list[tuple[PlayerState, int]] = []
        player_map: dict[int, tuple[int, ...]] = {}
        for i, ps in enumerate(state.actors):
            if i in repl:
                fresh_pids = tuple(arena.new_id() for _ in repl[i])
                player_map[pids[i]] = fresh_pids
                pairs.extend(zip(repl[i], fresh_pids))
            else:
                player_map[pids[i]] = (pids[i],)
                pairs.append((ps, pids[i]))
        pairs.sort(key=lambda pr: pr[0])
        assert tuple(ps for ps, _ in pairs) == nxt.actors
        pids = [pid for _, pid in pairs]
        final = _position(nxt, chan_ids, pids)
        move = arena.Move(kind, pos, final, player_map)
        play = arena.compose(arena.play_of(move), play)
        pos = final
        state = nxt
    return play
