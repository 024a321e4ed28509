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
interned, so equal labels are one object.

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

One step core serves every engine: ``_filing`` files a body's offers
once, in slot form, and ``_silent_rules`` lists a state's fork pairs
and sync matches. The closed world (``Explorer``) codes a continuation
as a concrete actor, a verdict form (``fairtest``) as a rank and an
interface graph as a coded actor. Interface graphs are built over
int-coded states ``(h, num_channels, actors)``, with bodies ranked in
body order, so successors, vertex numbering and dumps are those of the
concrete states; states that differ only in h share the moves of their
channel count and actors, and each filters them by its h.

States, actors and labels are named tuples, so hashing, comparing and
sorting them runs in C. A player's leading ``arity`` field makes tuple
order the player order: arity, attachment, strategy. The move kinds,
terms and strategies inside them are ``term.Value`` tuples, so a state
hashes and compares in C all the way down. Interface labels, closed
step labels and closed move kinds are interned: edges share one object
per value, and a dump renders each distinct label once.
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


# ------------------------------------------------------------ step core


def _filing(side: type, body) -> tuple:
    """``body``'s offers, read once as an actor of ``side`` reads them,
    in slot form: the offers in offer order as (label tag, slots,
    channels created, group) tuples; the tick groups; and the rules that
    can take part in a silent step, or None if there are none: the
    receives as (slot, group), the sends as (channel slot, object slot,
    group) and the (left, right) fork halves when the body offers both,
    else None. Slots count from 0, and a group is an offer's ((choice,
    continuation), ...). Each engine codes the rules' groups in its own
    way and keeps their layout, which ``_silent_rules`` reads."""
    offers = side.offers(body)
    if not offers:
        return (), (), None  # an inert body
    order, ticks, ins, outs = [], [], [], []
    left = right = None
    for seed, group in offers:
        tag = seed[0]
        if tag == "heart":
            order.append(("tick", (), 0, group))
            ticks.append(group)
        elif tag == "in":
            a = seed[1] - 1
            order.append(("in", (a,), 1, group))
            ins.append((a, group))
        elif tag == "out":
            c, d = seed[1] - 1, seed[2] - 1
            order.append(("out", (c, d), 0, group))
            outs.append((c, d, group))
        else:
            order.append((tag, (), 1, group))
            if tag == "forkL":
                left = group
            else:
                right = group
    fork = (left, right) if left and right else None
    return order, ticks, (ins, outs, fork) if ins or outs or fork else None


def _silent_rules(actors: Sequence, rules: list) -> tuple[list, list]:
    """The silent steps of ``actors`` in enumeration order, given the
    (actor index, rules) of each actor whose filing has rules, in actor
    order: the fork pairs as (actor, left, right) tuples, actor by
    actor, then the syncs as (sender, send, receiver, receive) tuples,
    each send matched with every receive of another actor on the same
    global channel, by sender then receiver. An actor's attachment is
    its field 1 in every engine's coding."""
    if len(rules) == 1 and not rules[0][1][2]:
        return (), ()  # one actor, which does not fork
    forks, syncs = [], []
    for q, (_, sends, halves) in rules:
        if halves:
            for left in halves[0]:
                for right in halves[1]:
                    forks.append((q, left, right))
        if sends:
            attach = actors[q][1]
            for send in sends:
                ch = attach[send[0]]
                for p, (receives, _, _) in rules:
                    if receives and p != q:
                        rattach = actors[p][1]
                        for recv in receives:
                            if rattach[recv[0]] == ch:
                                syncs.append((q, send, p, recv))
    return forks, syncs


class Explorer:
    """One exploration of the closed world: a closed graph build, a fair
    witness walk, a strict check or an arena replay. Offers depend on
    an actor's body alone, so the explorer files each body it meets
    once, by id; a continuation is coded as itself.

    A move is a (kind, actors, choice, created, avatars) tuple: actor
    ``actors[i]`` of the state becomes the avatars ``avatars[i]``, and
    ``created`` fresh channels are added. A state's moves come in
    enumeration order: ticks by actor, then the forks and syncs of
    ``_silent_rules``, the choices of each step innermost."""

    def __init__(self) -> None:
        self.filed: dict[int, tuple] = {}  # id of a body -> its filing
        self.bodies: list = []  # the bodies filed, so that each id stays its body's

    def file(self, actor) -> tuple:
        """The filing of ``actor``'s body, which ``filed`` misses."""
        body = actor.body
        self.bodies.append(body)
        filing = self.filed[id(body)] = _filing(type(actor), body)
        return filing

    def can_tick(self, state: State) -> bool:
        """Whether one of ``state``'s actors offers a tick."""
        filed = self.filed
        return any((filed.get(id(a.body)) or self.file(a))[1] for a in state.actors)

    def moves(self, state: State) -> list[tuple]:
        """``state``'s moves in enumeration order."""
        moves: list[tuple] = []
        rules = []
        filed, actors = self.filed, state.actors
        for p, actor in enumerate(actors):
            _, ticks, own = filed.get(id(actor.body)) or self.file(actor)
            if ticks:
                attach = actor.attach
                kind = _heartbeat(len(attach))
                for group in ticks:
                    for choice, cont in group:
                        moves.append((kind, (p,), choice, 0, ((actor.avatar(attach, cont),),)))
            if own:
                rules.append((p, own))
        if not rules:
            return moves
        forks, syncs = _silent_rules(actors, rules)
        fresh = state.num_channels + 1
        for p, (cl, dl), (cr, dr) in forks:
            actor = actors[p]
            grown = actor.attach + (fresh,)
            av = (actor.avatar(grown, dl), actor.avatar(grown, dr))
            moves.append((_fork(len(grown) - 1), (p,), cl + cr, 1, (av,)))
        for q, (c, d, sends), p, (a, recvs) in syncs:
            sender, receiver = actors[q], actors[p]
            sattach, rattach = sender.attach, receiver.attach
            kind = _sync(len(rattach), a + 1, len(sattach), c + 1, d + 1)
            grown = rattach + (sattach[d],)
            for cs, ds in sends:
                for cr, dr in recvs:
                    av = ((sender.avatar(sattach, ds),), (receiver.avatar(grown, dr),))
                    moves.append((kind, (q, p), cs + cr, 0, av))
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
# each offer a branch marker, its tag's code and its slots, a branch
# marker and the key of each continuation, and an end marker; a last
# end marker closes the body. Each side's codes give its own order of
# tags, and the end marker sorts below the branch marker, so keys
# compare as the bodies do, in C and with no recursion.
_END, _BRANCH = 0, 1
_TAG_CODE = {
    # a receive, a send, a tick, then a parallel's halves: Sum < Par
    Thread: {"in": 0, "out": 1, "tick": 2, "forkL": 3, "forkR": 4},
    # seed keys compare by their tag strings, "heart" for a tick
    PlayerState: {"forkL": 0, "forkR": 1, "tick": 2, "in": 3, "out": 4},
}


def _rank_bodies(side: type, actors: tuple) -> tuple[dict[int, int], list[tuple]]:
    """Rank every body reachable from ``actors`` through its offers in
    body order, equal bodies alike. Gives the rank of each body met, by
    id, and each rank's filing. Each body is filed once, and its order
    key is built from its continuations' keys, bottom-up; a lone body
    needs no key."""
    code = _TAG_CODE[side]
    player = side is PlayerState
    filed: dict[int, tuple] = {}  # id -> filing
    keys: dict[int, tuple] = {}
    stack = [a.body for a in actors]
    while stack:
        body = stack[-1]
        i = id(body)
        filing = filed.get(i)
        if filing is None:
            filing = filed[i] = _filing(side, body)
            if not filing[0]:  # an inert body's key is its head and an end marker
                if len(filed) == len(stack) == 1:
                    return {i: 0}, [filing]  # a lone body
                keys[i] = (body.arity, _END) if player else (_END,)
                stack.pop()
                continue
            pending = False
            for offer in filing[0]:
                for _, c in offer[3]:
                    if id(c) not in filed:
                        stack.append(c)
                        pending = True
            if pending:
                continue
        elif i in keys:
            stack.pop()
            continue
        key = [body.arity] if player else []
        for tag, slots, _, group in filing[0]:
            key += (_BRANCH, code[tag], *slots)
            for _, c in group:
                key.append(_BRANCH)
                key += keys[id(c)]
            key.append(_END)
        key.append(_END)
        keys[i] = tuple(key)
        stack.pop()
    rank: dict[int, int] = {}
    filings = []
    prev = None
    for key, i in sorted(zip(keys.values(), keys)):
        if key != prev:
            prev = key
            filings.append(filed[i])
        rank[i] = len(filings) - 1
    return rank, filings


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
        # the root's actors, checked as ``State.of`` and ``PlayerState``
        # check; every avatar of a checked actor passes the same checks
        State.of(root.num_channels, [a.avatar(a.attach, a.body) for a in root.actors])
        actors = root.actors
        side = type(actors[0]) if actors else Thread
        self.player = player = side is PlayerState
        self.link = enable_link
        self.entries: dict[int, dict] = {}  # fresh channel -> actor -> entry
        self.shared: dict[tuple, list] = {}  # (n, actors) -> moves
        self.rank, self.filings = _rank_bodies(side, actors)
        coded = []
        for a in actors:
            r = self.rank[id(a.body)]
            coded.append((a.arity, a.attach, r) if player else (r, a.attach))
        self.root = (tuple(range(1, root.num_channels + 1)), root.num_channels, tuple(coded))

    def avatars(self, group: tuple, attach: tuple) -> tuple:
        """The coded actors that carry on as the continuations of the
        offer ``group`` attached to ``attach``."""
        rank = self.rank
        if self.player:
            return tuple([(len(attach), attach, rank[id(c)]) for _, c in group])
        return tuple([(rank[id(c)], attach) for _, c in group])

    def entry(self, actor: tuple, fresh: int) -> tuple:
        """``actor``'s filing in a state whose next fresh channel is
        ``fresh``, each group coded as the actors it becomes: its
        observable moves in offer order as (channel h must know or None,
        label, handle extension, channels created, avatars), and its
        rules: receives as (slot, avatars, group, avatars by object) for
        the link and sync rules, sends as (channel slot, object slot,
        avatars) and its fork halves' avatars."""
        r, attach = (actor[2], actor[1]) if self.player else actor
        order, _, rules = self.filings[r]
        if not order:
            return order, None  # an inert actor
        grown = attach + (fresh,)
        at = attach.__getitem__
        moves, coded = [], {}  # id of a group -> its avatars
        for tag, slots, created, group in order:
            chans = tuple(map(at, slots))
            if created:
                avatars = coded[id(group)] = self.avatars(group, grown)
                ext = (fresh,)
            else:
                avatars = coded[id(group)] = self.avatars(group, attach)
                ext = chans[1:]
            moves.append((chans[0] if chans else None, _label(tag, *chans), ext, created, avatars))
        if rules:
            ins, outs, fork = rules
            rules = (
                [(a, coded[id(g)], g, {}) for a, g in ins],
                [(c, d, coded[id(g)]) for c, d, g in outs],
                fork and (coded[id(fork[0])], coded[id(fork[1])]),
            )
        return moves, rules

    def fill(self, moves: list, n: int, actors: tuple) -> None:
        """Fill ``moves`` with the moves of every state ``(h, n,
        actors)``, whatever its h, in step order: observable moves actor
        by actor in offer order, then the silent forks and syncs of
        ``_silent_rules``. An observable move is one (channel h must
        know or None, label, handle extension, channel count, successor
        actors) tuple per avatar; with the link rule on, each receive adds
        (channel, None, (), channel count, successor actors of each
        avatar) after its actor's other moves."""
        fresh = n + 1
        entries = self.entries.setdefault(fresh, {})
        link = self.link
        rules = []
        for p, actor in enumerate(actors):
            entry = entries.get(actor)
            if entry is None:
                entry = entries[actor] = self.entry(actor, fresh)
            own, silent = entry
            if not own:
                continue  # an inert actor
            rest = actors[:p] + actors[p + 1 :]
            for ch, label, ext, created, avatars in own:
                for av in avatars:
                    i = bisect(rest, av)
                    moves.append((ch, label, ext, n + created, rest[:i] + (av,) + rest[i:]))
            if silent:
                rules.append((p, silent))
                if link:
                    for a, avatars, _, _ in silent[0]:
                        linked = tuple([tuple(sorted((*rest, av))) for av in avatars])
                        moves.append((actor[1][a], None, (), fresh, linked))
        if not rules:
            return
        forks, syncs = _silent_rules(actors, rules)
        for p, left, right in forks:
            rest = actors[:p] + actors[p + 1 :]
            moves.append((None, _label("fork"), (), fresh, tuple(sorted((*rest, left, right)))))
        for q, (_, d, sent), p, (_, _, group, got_by_obj) in syncs:
            obj = actors[q][1][d]
            got = got_by_obj.get(obj)
            if got is None:
                got = got_by_obj[obj] = self.avatars(group, actors[p][1] + (obj,))
            lo, hi = (p, q) if p < q else (q, p)
            rest = actors[:lo] + actors[lo + 1 : hi] + actors[hi + 1 :]
            for sent_av in sent:
                for got_av in got:
                    moves.append((None, _label("sync"), (), n, tuple(sorted((*rest, sent_av, got_av)))))

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
    edge, by one shared empty set when it has none, and by the set of
    its steps' codes otherwise. Blocks are
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
    leaf = frozenset()  # the steps of every vertex with no edge

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
                    elif arcs:
                        steps = frozenset([offsets[label] + cls[w] for label, w in arcs])
                    else:
                        steps = leaf
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


def arena_position(g: State) -> arena.Position:
    """The current strategy-side state as a string-diagram position."""
    return arena_trace(g, []).initial


def arena_trace(state: State, indices: Sequence[int]) -> arena.Play:
    """Replay closed steps chosen by index as an arena play.

    Index k selects the k-th of ``Explorer.moves``: ticks by player,
    then forks by player, then syncs by sender then receiver, each
    player's entries in table order and summand products innermost.
    Each step is its kind's seed glued among the other players, the
    spectators: the glue sends the seed's channels to the play's, its
    movers onto their players and its avatars onto fresh identifiers
    allocated in player order, so the resulting moves compose on the
    nose.
    """
    chans = {c: arena.new_id() for c in range(1, state.num_channels + 1)}
    pids = [arena.new_id() for _ in state.actors]
    attach = (tuple(chans[c] for c in ps.attach) for ps in state.actors)
    players = {pid: arena.Player(a) for pid, a in zip(pids, attach)}
    play = arena.identity_play(arena.Position(frozenset(chans.values()), players))
    world = Explorer()
    for idx in indices:
        moves = world.moves(state)
        if not 0 <= idx < len(moves):
            raise IndexError(
                f"edge index {idx} out of range: state has {len(moves)} raw steps"
            )
        kind, actors, _, _, avatars = moves[idx]
        seed = arena.seed(kind)
        # a seed's movers come in its step's actor order: a sync's sender first
        movers = dict(zip(actors, zip(seed.player_map, avatars)))
        glue: dict[int, int] = {}
        spectators = dict(play.final.players)
        pairs: list[tuple[PlayerState, int]] = []
        for i, (ps, pid) in enumerate(zip(state.actors, pids)):
            if i not in movers:
                pairs.append((ps, pid))
                continue
            mover, group = movers[i]
            glue[mover] = pid
            glue.update(zip(seed.initial.players[mover].attach, spectators.pop(pid).attach))
            for av, av_state in zip(seed.player_map[mover], group):
                glue[av] = arena.new_id()
                pairs.append((av_state, glue[av]))
        move = arena.extend(seed, arena.Position(play.final.channels, spectators), glue)
        state = world.successor(state, moves[idx])
        pairs.sort(key=lambda pr: pr[0])
        assert tuple(ps for ps, _ in pairs) == state.actors
        pids = [pid for _, pid in pairs]
        play = arena.compose(arena.play_of(move), play)
    return play
