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
actors moved and which summands or branches they chose.

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

One step engine serves both sides. An actor, a strategy player or a
process thread, shows it its ``attach`` (the global channel of each
local slot), its ``offers()`` and ``avatar(attach, cont)``, the actor
that carries on as ``cont``; a state shows its ``actors`` and builds a
``successor``. Offers are (seed key, ((choice, continuation), ...))
groups in enumeration order: a player reads them off its strategy
table, a thread off its own syntax. A step's choice is the
concatenation of its actors' choices, so closed labels read ``#i,j``
on the strategy side and carry branch indices, or nothing for a fork,
on the process side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

from .arena import Fork, Heartbeat, MoveKind, Sync, kind_label
from .strategy import Definite, SeedKey, interpret, prefix_to_key, strat_key
from .term import Par, Process, sort_key, typecheck

# ------------------------------------------------------------- states

Offer = tuple[SeedKey, tuple[tuple[tuple[int, ...], object], ...]]


@dataclass(frozen=True)
class PlayerState:
    attach: tuple[int, ...]
    strat: Definite

    def offers(self) -> list[Offer]:
        """The strategy table: one group per entry, choice (i,) for the
        i-th summand."""
        return [
            (key, tuple(((i,), d) for i, d in enumerate(plain.summands)))
            for key, plain in self.strat.table
        ]

    def avatar(self, attach: tuple[int, ...], cont: Definite) -> PlayerState:
        return PlayerState(attach, cont)


def player_key(ps: PlayerState) -> tuple:
    return (len(ps.attach), ps.attach, strat_key(ps.strat))


@dataclass(frozen=True)
class GameState:
    num_channels: int
    players: tuple[PlayerState, ...]

    @property
    def actors(self) -> tuple[PlayerState, ...]:
        return self.players

    def successor(self, created: int, players: list[PlayerState]) -> GameState:
        return game_state(self.num_channels + created, players)


def game_state(num_channels: int, players: Iterable[PlayerState]) -> GameState:
    ps = sorted(players, key=player_key)
    for p in ps:
        if len(p.attach) != p.strat.arity:
            raise ValueError(
                f"player attached to {len(p.attach)} channels runs a strategy "
                f"of arity {p.strat.arity}"
            )
        for c in p.attach:
            if not 1 <= c <= num_channels:
                raise ValueError(f"attachment {c} outside 1..{num_channels}")
    return GameState(num_channels, tuple(ps))


@dataclass(frozen=True)
class Thread:
    proc: Process
    env: tuple[int, ...]

    @property
    def attach(self) -> tuple[int, ...]:
        return self.env

    def offers(self) -> list[Offer]:
        """The operational rules read off the syntax: a parallel offers
        its two halves with no choice, a choice offers each branch under
        its prefix's seed with choice (branch index,)."""
        p = self.proc
        if isinstance(p, Par):
            return [(("forkL",), (((), p.left),)), (("forkR",), (((), p.right),))]
        return [
            (prefix_to_key(prefix), (((b,), cont),))
            for b, (prefix, cont) in enumerate(p.branches)
        ]

    def avatar(self, env: tuple[int, ...], cont: Process) -> Thread:
        return Thread(cont, env)


def thread_key(t: Thread) -> tuple:
    return (sort_key(t.proc), t.env)


@dataclass(frozen=True)
class ProcState:
    num_channels: int
    threads: tuple[Thread, ...]

    @property
    def actors(self) -> tuple[Thread, ...]:
        return self.threads

    def successor(self, created: int, threads: list[Thread]) -> ProcState:
        return proc_state(self.num_channels + created, threads)


def proc_state(num_channels: int, threads: Iterable[Thread]) -> ProcState:
    ts = sorted(threads, key=thread_key)
    for t in ts:
        for c in t.env:
            if not 1 <= c <= num_channels:
                raise ValueError(f"environment entry {c} outside 1..{num_channels}")
    return ProcState(num_channels, tuple(ts))


State = Union[GameState, ProcState]


def root_strategy(p: Process, gamma: int) -> GameState:
    """One player running the strategy of ``p``, attached to 1..gamma."""
    return game_state(gamma, [PlayerState(tuple(range(1, gamma + 1)), interpret(p, gamma))])


def root_process(p: Process, gamma: int) -> ProcState:
    """One thread running ``p`` with the identity environment."""
    typecheck(p, gamma)
    return proc_state(gamma, [Thread(p, tuple(range(1, gamma + 1)))])


# ------------------------------------------------------------- labels


def _kind_key(kind: MoveKind) -> tuple:
    return (type(kind).__name__,) + tuple(
        getattr(kind, f) for f in kind.__dataclass_fields__
    )


_CLOSED_TAG = {"Heartbeat": "tick", "Fork": "fork", "Sync": "sync"}


@dataclass(frozen=True)
class StepLabel:
    """Closed-world edge label: the move kind, the indices of the actors
    in the source state, and the summand or branch indices chosen."""

    kind: MoveKind
    actors: tuple[int, ...]
    choice: tuple[int, ...]

    @property
    def tag(self) -> str:
        return _CLOSED_TAG[type(self.kind).__name__]

    @property
    def is_tick(self) -> bool:
        return self.tag == "tick"

    @property
    def is_silent(self) -> bool:
        return self.tag in SILENT_TAGS

    def render(self) -> str:
        a = ",".join(str(i) for i in self.actors)
        ch = ",".join(str(i) for i in self.choice)
        return f"{kind_label(self.kind)}@{a}#{ch}"

    def sort_key(self) -> tuple:
        return (_kind_key(self.kind), self.actors, self.choice)


@dataclass(frozen=True)
class ALab:
    """Interface edge label. Observable tags: tick, in, out, forkL,
    forkR, link; silent tags: sync, fork. Arguments are global channel
    numbers."""

    tag: str
    args: tuple[int, ...] = ()

    @property
    def is_tick(self) -> bool:
        return self.tag == "tick"

    @property
    def is_silent(self) -> bool:
        return self.tag in SILENT_TAGS

    def render(self) -> str:
        if not self.args:
            return self.tag
        return f"{self.tag}({','.join(str(a) for a in self.args)})"

    def sort_key(self) -> tuple:
        return (self.tag, self.args)


SILENT_TAGS = frozenset({"sync", "fork"})


@dataclass(frozen=True)
class AState:
    """Interface state: handle map of the environment plus the subject."""

    h: tuple[int, ...]
    subject: State

    @property
    def delta(self) -> int:
        return len(self.h)


# ---------------------------------------------------------- step engine


@dataclass(frozen=True)
class RawStep:
    """A closed step with enough detail to rebuild the arena move: the
    avatars each actor in ``label.actors`` became, and how many channels
    the step created."""

    label: StepLabel
    state: State
    avatars: tuple[tuple, ...]
    created: int


def _replace(state: State, created: int, moved: dict[int, tuple]) -> State:
    """The successor in which actor i became the avatars moved[i]. The
    state constructors sort actors, so their order here is immaterial."""
    actors = [a for i, a in enumerate(state.actors) if i not in moved]
    for avatars in moved.values():
        actors.extend(avatars)
    return state.successor(created, actors)


def _scan(state: State) -> tuple[list, ...]:
    """Read every actor's attachment and offers once, and file each
    group under the rule that consumes it."""
    views, ticks, forks, outs, ins = [], [], [], [], []
    for p, actor in enumerate(state.actors):
        attach, offers = actor.attach, actor.offers()
        views.append((p, actor, attach, offers))
        left = right = None
        for key, group in offers:
            tag = key[0]
            if tag == "heart":
                ticks.append((p, actor, attach, group))
            elif tag == "in":
                ins.append((p, actor, attach, key[1], group))
            elif tag == "out":
                outs.append((p, actor, attach, key[1], key[2], group))
            elif tag == "forkL":
                left = group
            else:
                right = group
        if left and right:
            forks.append((p, actor, attach, left, right))
    return views, ticks, forks, outs, ins


def _silent_steps(state: State, forks: list, outs: list, ins: list) -> list[RawStep]:
    """Forks by actor, then syncs by sender then receiver, the choices
    of each step innermost."""
    steps: list[RawStep] = []
    fresh = state.num_channels + 1
    for p, actor, attach, lefts, rights in forks:
        kind = Fork(len(attach))
        grown = attach + (fresh,)
        for cl, dl in lefts:
            for cr, dr in rights:
                av = (actor.avatar(grown, dl), actor.avatar(grown, dr))
                steps.append(
                    RawStep(
                        StepLabel(kind, (p,), cl + cr),
                        _replace(state, 1, {p: av}),
                        (av,),
                        1,
                    )
                )
    for q, sender, sattach, c, d, sends in outs:
        shared, obj = sattach[c - 1], sattach[d - 1]
        for p, receiver, rattach, a, recvs in ins:
            if p == q or rattach[a - 1] != shared:
                continue
            kind = Sync(len(rattach), a, len(sattach), c, d)
            for cs, ds in sends:
                for cr, dr in recvs:
                    send_av = (sender.avatar(sattach, ds),)
                    recv_av = (receiver.avatar(rattach + (obj,), dr),)
                    steps.append(
                        RawStep(
                            StepLabel(kind, (q, p), cs + cr),
                            _replace(state, 0, {q: send_av, p: recv_av}),
                            (send_av, recv_av),
                            0,
                        )
                    )
    return steps


def raw_closed_steps(state: State) -> list[RawStep]:
    """Closed steps in enumeration order: ticks by actor, then forks by
    actor, then syncs by sender then receiver, the choices of each step
    innermost."""
    _, ticks, forks, outs, ins = _scan(state)
    steps: list[RawStep] = []
    for p, actor, attach, group in ticks:
        kind = Heartbeat(len(attach))
        for choice, cont in group:
            av = (actor.avatar(attach, cont),)
            steps.append(
                RawStep(StepLabel(kind, (p,), choice), _replace(state, 0, {p: av}), (av,), 0)
            )
    return steps + _silent_steps(state, forks, outs, ins)


def closed_world_steps(state: State) -> list[tuple[StepLabel, object]]:
    return [(r.label, r.state) for r in raw_closed_steps(state)]


def interface_steps(ast: AState, enable_link: bool = False) -> list[tuple[ALab, AState]]:
    """Observable steps actor by actor in offer order, each actor's link
    steps after its other steps, then the silent forks and syncs."""
    state, h = ast.subject, ast.h
    known = set(h)
    fresh = state.num_channels + 1
    views, _, forks, outs, ins = _scan(state)
    steps: list[tuple[ALab, AState]] = []
    for p, actor, attach, offers in views:
        grown = attach + (fresh,)
        links = []
        for key, group in offers:
            tag = key[0]
            if tag == "heart":
                label, h2, after, created = ALab("tick"), h, attach, 0
            elif tag == "forkL" or tag == "forkR":
                label, h2, after, created = ALab(tag), h + (fresh,), grown, 1
            else:
                ch = attach[key[1] - 1]
                if ch not in known:
                    continue
                if tag == "in":
                    label, h2, after, created = ALab("in", (ch,)), h + (fresh,), grown, 1
                    if enable_link:
                        links.append((ch, group))
                else:
                    obj = attach[key[2] - 1]
                    label, h2, after, created = ALab("out", (ch, obj)), h + (obj,), attach, 0
            for _, cont in group:
                nxt = _replace(state, created, {p: (actor.avatar(after, cont),)})
                steps.append((label, AState(h2, nxt)))
        for ch, group in links:
            for src in sorted(known - {ch}):
                label = ALab("link", (ch, fresh, src))
                for _, cont in group:
                    nxt = _replace(state, 1, {p: (actor.avatar(grown, cont),)})
                    steps.append((label, AState(h, nxt)))
    for r in _silent_steps(state, forks, outs, ins):
        steps.append((ALab(r.label.tag), AState(h, r.state)))
    return steps


# -------------------------------------------------------------- graphs


@dataclass
class LtsGraph:
    """Finite rooted graph; vertex 0 is the root, edges are sorted."""

    states: list
    edges: list[tuple]

    @property
    def root(self) -> int:
        return 0

    @property
    def num_edges(self) -> int:
        return sum(len(e) for e in self.edges)

    def dump(self) -> str:
        lines = [
            f"lts-v1 vertices={len(self.states)} edges={self.num_edges} root=0"
        ]
        for src in range(len(self.states)):
            for label, dst in self.edges[src]:
                lines.append(f"{src} -{label.render()}-> {dst}")
        return "\n".join(lines) + "\n"


def build_graph(root, successors: Callable, max_states: int = 200000) -> LtsGraph:
    """BFS the reachable states. Successor lists are deduplicated and
    sorted by label then target, so vertex numbering and edge order are
    functions of the root alone."""
    index = {root: 0}
    states = [root]
    edges: list[tuple] = []
    frontier = 0
    while frontier < len(states):
        state = states[frontier]
        seen = set()
        outs = []
        for label, nxt in successors(state):
            if nxt not in index:
                if len(states) >= max_states:
                    raise RuntimeError(f"state space exceeds {max_states} states")
                index[nxt] = len(states)
                states.append(nxt)
            pair = (label, index[nxt])
            if pair not in seen:
                seen.add(pair)
                outs.append(pair)
        outs.sort(key=lambda p: (p[0].sort_key(), p[1]))
        edges.append(tuple(outs))
        frontier += 1
    return LtsGraph(states, edges)


def closed_graph(state: State, max_states: int = 200000) -> LtsGraph:
    return build_graph(state, closed_world_steps, max_states)


def strategy_lts(p: Process, gamma: int, enable_link: bool = False, max_states: int = 200000) -> LtsGraph:
    root = AState(tuple(range(1, gamma + 1)), root_strategy(p, gamma))
    return build_graph(root, lambda a: interface_steps(a, enable_link), max_states)


def process_lts(p: Process, gamma: int, enable_link: bool = False, max_states: int = 200000) -> LtsGraph:
    root = AState(tuple(range(1, gamma + 1)), root_process(p, gamma))
    return build_graph(root, lambda a: interface_steps(a, enable_link), max_states)


# ---------------------------------------------------------- weak bisim


@dataclass(frozen=True)
class BisimResult:
    equivalent: bool
    witness: tuple[str, ...]
    num_blocks: int


def _tau_closure(n: int, silent_adj: list[list[int]]) -> list[frozenset[int]]:
    out = []
    for v in range(n):
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in silent_adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        out.append(frozenset(seen))
    return out


def weak_bisim(g1: LtsGraph, g2: LtsGraph, witness_depth: int = 16) -> BisimResult:
    """Decide weak bisimilarity of the two roots.

    Signature refinement over the disjoint union: silent edges may be
    absorbed, every other label (tick included) is observable. When the
    roots differ the witness is a label sequence tracing one spine of a
    distinguishing experiment; it is a hint, not a certificate.
    """
    n1 = len(g1.states)
    n = n1 + len(g2.states)
    silent_adj: list[list[int]] = [[] for _ in range(n)]
    obs_adj: list[list[tuple[ALab, int]]] = [[] for _ in range(n)]
    for src in range(n1):
        for label, dst in g1.edges[src]:
            (silent_adj if label.is_silent else obs_adj)[src].append(
                dst if label.is_silent else (label, dst)
            )
    for src in range(len(g2.states)):
        for label, dst in g2.edges[src]:
            (silent_adj if label.is_silent else obs_adj)[src + n1].append(
                dst + n1 if label.is_silent else (label, dst + n1)
            )

    tau = _tau_closure(n, silent_adj)
    weak: list[dict[ALab, frozenset[int]]] = []
    for v in range(n):
        acc: dict[ALab, set[int]] = {}
        for u in tau[v]:
            for label, w in obs_adj[u]:
                acc.setdefault(label, set()).update(tau[w])
        weak.append({label: frozenset(ws) for label, ws in acc.items()})

    block = [0] * n
    num_blocks = 1
    while True:
        sigs = []
        for v in range(n):
            obs_sig = frozenset(
                (label, block[w]) for label, ws in weak[v].items() for w in ws
            )
            tau_sig = frozenset(block[u] for u in tau[v])
            sigs.append((block[v], obs_sig, tau_sig))
        ranks: dict = {}
        for v in range(n):
            if sigs[v] not in ranks:
                ranks[sigs[v]] = len(ranks)
        new_block = [ranks[sigs[v]] for v in range(n)]
        if len(ranks) == num_blocks:
            block = new_block
            break
        block = new_block
        num_blocks = len(ranks)

    r1, r2 = 0, n1
    if block[r1] == block[r2]:
        return BisimResult(True, (), num_blocks)

    def distinguish(x: int, y: int, depth: int) -> list[str]:
        if depth == 0:
            return []
        labels = sorted(set(weak[x]) | set(weak[y]), key=lambda l: l.sort_key())
        for label in labels:
            bx = {block[w] for w in weak[x].get(label, ())}
            by = {block[w] for w in weak[y].get(label, ())}
            if bx == by:
                continue
            if bx - by:
                extra, src, other = min(bx - by), x, weak[y].get(label, frozenset())
            else:
                extra, src, other = min(by - bx), y, weak[x].get(label, frozenset())
            if not other:
                return [label.render()]
            w1 = min(w for w in weak[src][label] if block[w] == extra)
            w2 = min(other)
            return [label.render()] + distinguish(w1, w2, depth - 1)
        bx = {block[u] for u in tau[x]}
        by = {block[u] for u in tau[y]}
        if bx != by:
            if bx - by:
                extra, src, osrc = min(bx - by), x, y
            else:
                extra, src, osrc = min(by - bx), y, x
            u1 = min(u for u in tau[src] if block[u] == extra)
            return distinguish(u1, min(tau[osrc]), depth - 1)
        return []

    return BisimResult(False, tuple(distinguish(r1, r2, witness_depth)), num_blocks)


# -------------------------------------------------------- arena bridge


def arena_position(g: GameState):
    """The current strategy-side state as a string-diagram position."""
    from . import arena

    chan_ids = {c: arena.new_id() for c in range(1, g.num_channels + 1)}
    players = {}
    for ps in g.players:
        players[arena.new_id()] = arena.Player(tuple(chan_ids[c] for c in ps.attach))
    return arena.Position(frozenset(chan_ids.values()), players)


def arena_trace(g0: GameState, indices: Sequence[int]):
    """Replay closed steps chosen by index as an arena play.

    Index k selects the k-th step of ``raw_closed_steps``: ticks by
    player, then forks by player, then syncs by sender then receiver,
    each player's entries in table order and summand products innermost.
    Channel and player traces are exact identity embeddings, so the
    resulting moves compose on the nose.
    """
    from . import arena

    chan_ids = {c: arena.new_id() for c in range(1, g0.num_channels + 1)}
    pids = [arena.new_id() for _ in g0.players]
    pos = arena.Position(
        frozenset(chan_ids.values()),
        {
            pids[i]: arena.Player(tuple(chan_ids[c] for c in ps.attach))
            for i, ps in enumerate(g0.players)
        },
    )
    play = arena.identity_play(pos)
    state = g0
    for idx in indices:
        raws = raw_closed_steps(state)
        if not 0 <= idx < len(raws):
            raise IndexError(
                f"edge index {idx} out of range: state has {len(raws)} raw steps"
            )
        r = raws[idx]
        if r.created:
            chan_ids[state.num_channels + 1] = arena.new_id()
        repl = dict(zip(r.label.actors, r.avatars))
        pairs: list[tuple[PlayerState, int]] = []
        player_map: dict[int, tuple[int, ...]] = {}
        moving = frozenset(pids[i] for i in r.label.actors)
        for i, ps in enumerate(state.players):
            if i in repl:
                fresh_pids = tuple(arena.new_id() for _ in repl[i])
                player_map[pids[i]] = fresh_pids
                pairs.extend(zip(repl[i], fresh_pids))
            else:
                player_map[pids[i]] = (pids[i],)
                pairs.append((state.players[i], pids[i]))
        pairs.sort(key=lambda pr: player_key(pr[0]))
        final = arena.Position(
            frozenset(chan_ids[c] for c in range(1, r.state.num_channels + 1)),
            {
                pid: arena.Player(tuple(chan_ids[c] for c in ps.attach))
                for ps, pid in pairs
            },
        )
        move = arena.Move(
            r.label.kind,
            pos,
            final,
            {c: c for c in pos.channels},
            player_map,
            moving,
        )
        assert tuple(ps for ps, _ in pairs) == r.state.players
        play = arena.compose(arena.play_of(move), play)
        pos = final
        pids = [pid for _, pid in pairs]
        state = r.state
    return play
