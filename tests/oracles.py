"""Independent reference implementations used to cross-check the
package. Everything here is deliberately naive: closed formulas and
exhaustive path enumeration instead of the algorithms under test.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from functools import lru_cache
from typing import NamedTuple, Optional

from actorgame.arena import (
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
)
from actorgame.fairtest import Verdict
from actorgame.lts import ALab, LtsGraph, PlayerState, State, StepLabel, Thread
from actorgame.term import IllTyped, Par, Recv, Send, Sum, Tick


@lru_cache(maxsize=None)
def count_terms(gamma: int, depth: int, width: int) -> int:
    """How many terms the enumerator must yield, by recurrence.

    A term is the inert process, a choice of 1..width ordered branches,
    or a parallel pair typed one context larger. A branch is a receive
    (gamma choices, continuation one larger), a send (gamma^2 choices)
    or a tick, with the continuation one depth shallower.
    """
    if depth == 0:
        return 1
    b = count_branches(gamma, depth, width)
    total = 1
    for k in range(1, width + 1):
        total += b**k
    total += count_terms(gamma + 1, depth - 1, width) ** 2
    return total


@lru_cache(maxsize=None)
def count_branches(gamma: int, depth: int, width: int) -> int:
    recv = gamma * count_terms(gamma + 1, depth - 1, width)
    send_or_tick = (gamma * gamma + 1) * count_terms(gamma, depth - 1, width)
    return recv + send_or_tick


def term_size(p) -> int:
    """The node count by which ``term.enumerate_terms`` streams terms."""
    if isinstance(p, Sum):
        return 1 + sum(1 + term_size(c) for _, c in p.branches)
    return 1 + term_size(p.left) + term_size(p.right)


def term_depth(p) -> int:
    if isinstance(p, Sum):
        if not p.branches:
            return 0
        return 1 + max(term_depth(c) for _, c in p.branches)
    return 1 + max(term_depth(p.left), term_depth(p.right))


def ctx_after(prefix, gamma: int) -> int:
    """Context size of the continuation behind ``prefix``."""
    return gamma + 1 if isinstance(prefix, Recv) else gamma


def typecheck_with_paths(p, gamma: int) -> None:
    """The reference for ``term.typecheck``: every branch extends the
    path on the way down, so a failure raises with its path already
    built. Nothing is remembered."""
    if gamma < 0:
        raise IllTyped("context size must be nonnegative", (), gamma)
    _check_with_paths(p, gamma, ())


def _check_with_paths(p, gamma: int, path: tuple[str, ...]) -> None:
    if isinstance(p, Sum):
        for i, (prefix, cont) in enumerate(p.branches):
            here = path + (f"branch{i}",)
            if isinstance(prefix, Send):
                if not 1 <= prefix.subject <= gamma:
                    raise IllTyped(f"send subject {prefix.subject} out of range", here, gamma)
                if not 1 <= prefix.obj <= gamma:
                    raise IllTyped(f"send object {prefix.obj} out of range", here, gamma)
            elif isinstance(prefix, Recv):
                if not 1 <= prefix.subject <= gamma:
                    raise IllTyped(f"receive subject {prefix.subject} out of range", here, gamma)
            elif not isinstance(prefix, Tick):
                raise IllTyped(f"not a prefix: {prefix!r}", here, gamma)
            _check_with_paths(cont, ctx_after(prefix, gamma), here)
    elif isinstance(p, Par):
        _check_with_paths(p.left, gamma + 1, path + ("left",))
        _check_with_paths(p.right, gamma + 1, path + ("right",))
    else:
        raise IllTyped(f"not a process node: {p!r}", path, gamma)


def in_bot(g, mode: str = "weak") -> Verdict:
    """Does the composite pass the empty observer? Both verdicts read
    off its built closed graph, the reference for ``fairtest.decide``.

    weak: from every tick-free-reachable state a tick must stay
    tick-free-reachable. strict: every immediate successor of the root
    must itself have a direct tick.
    """
    if not isinstance(g.states[g.root], State):
        raise TypeError("fair testing needs a closed-world graph")
    if mode == "strict":
        for label, dst in g.edges[g.root]:
            if not any(l2.is_tick for l2, _ in g.edges[dst]):
                return Verdict(False, (label.render(),))
        return Verdict(True)
    if mode != "weak":
        raise ValueError(f"unknown verdict mode {mode!r}")

    n = len(g.states)
    tickfree = [[(l, d) for l, d in g.edges[v] if not l.is_tick] for v in range(n)]
    has_tick = [any(l.is_tick for l, _ in g.edges[v]) for v in range(n)]

    good = set(v for v in range(n) if has_tick[v])
    rev: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for _, d in tickfree[v]:
            rev[d].append(v)
    stack = list(good)
    while stack:
        v = stack.pop()
        for u in rev[v]:
            if u not in good:
                good.add(u)
                stack.append(u)

    # BFS the tick-free region so a failure witness is a shortest path
    parent: dict[int, tuple[int, StepLabel]] = {}
    seen = {g.root}
    queue = deque([g.root])
    while queue:
        v = queue.popleft()
        if v not in good:
            labels = []
            while v != g.root:
                u, label = parent[v]
                labels.append(label.render())
                v = u
            return Verdict(False, tuple(reversed(labels)))
        for label, d in tickfree[v]:
            if d not in seen:
                seen.add(d)
                parent[d] = (v, label)
                queue.append(d)
    return Verdict(True)


def brute_in_bot(graph) -> bool:
    """Fair-testing success by brute force: enumerate every simple
    tick-free path from the root; each vertex met must itself start a
    simple tick-free path ending where a direct tick edge exists."""
    edges = graph.edges

    def tickfree(v):
        return [d for label, d in edges[v] if not label.is_tick]

    def has_tick(v):
        return any(label.is_tick for label, _ in edges[v])

    def can_reach_tick(v, on_path):
        if has_tick(v):
            return True
        for d in tickfree(v):
            if d not in on_path and can_reach_tick(d, on_path | {d}):
                return True
        return False

    reached = set()

    def walk(v, on_path):
        reached.add(v)
        for d in tickfree(v):
            if d not in on_path:
                walk(d, on_path | {d})

    walk(graph.root, {graph.root})
    return all(can_reach_tick(v, {v}) for v in reached)


# the tags of the interface steps a weak equivalence may absorb
SILENT = frozenset({"sync", "fork"})


def naive_weak_equiv(g1, g2) -> bool:
    """Weak bisimilarity by greatest-fixpoint over the full pair
    relation, with weak transitive closures computed eagerly."""
    n1 = len(g1.states)
    n = n1 + len(g2.states)
    strong: list[list[tuple[object, int]]] = [[] for _ in range(n)]
    for src in range(n1):
        for label, dst in g1.edges[src]:
            strong[src].append((label, dst))
    for src in range(len(g2.states)):
        for label, dst in g2.edges[src]:
            strong[src + n1].append((label, dst + n1))

    def closure(seed: set[int]) -> frozenset[int]:
        out = set(seed)
        stack = list(seed)
        while stack:
            v = stack.pop()
            for label, d in strong[v]:
                if label.tag in SILENT and d not in out:
                    out.add(d)
                    stack.append(d)
        return frozenset(out)

    tau = [closure({v}) for v in range(n)]

    def weak(v, want) -> frozenset[int]:
        mid = set()
        for u in tau[v]:
            for label, d in strong[u]:
                if label == want:
                    mid.add(d)
        return closure(mid) if mid else frozenset()

    rel = {(x, y) for x in range(n) for y in range(n)}

    def simulated(x, y) -> bool:
        for label, xd in strong[x]:
            if label.tag in SILENT:
                if not any((xd, yd) in rel for yd in tau[y]):
                    return False
            else:
                if not any((xd, yd) in rel for yd in weak(y, label)):
                    return False
        return True

    changed = True
    while changed:
        changed = False
        for pair in sorted(rel):
            x, y = pair
            if not simulated(x, y) or not simulated(y, x):
                rel.discard(pair)
                changed = True
    return (g1.root, n1 + g2.root) in rel


# The sort keys the package used before its values ordered themselves.
# Each native order must sort as its key does, and two values must be
# equal exactly when their keys are.


def prefix_key(prefix) -> tuple:
    if isinstance(prefix, Recv):
        return (0, prefix.subject)
    if isinstance(prefix, Send):
        return (1, prefix.subject, prefix.obj)
    return (2,)


def term_key(p) -> tuple:
    if isinstance(p, Sum):
        return (0, tuple((prefix_key(a), term_key(c)) for a, c in p.branches))
    return (1, term_key(p.left), term_key(p.right))


def thread_key(t) -> tuple:
    return (term_key(t.body), t.attach)


def player_key(ps) -> tuple:
    return (len(ps.attach), ps.attach, ps.body)


# each move kind's fields, in the order its constructor takes them
KIND_FIELDS = {
    Fork: ("n",),
    ForkL: ("n",),
    ForkR: ("n",),
    Heartbeat: ("n",),
    Input: ("n", "a"),
    Output: ("m", "c", "d"),
    Sync: ("n", "a", "m", "c", "d"),
}


def kind_key(kind) -> tuple:
    return (type(kind).__name__,) + tuple(getattr(kind, f) for f in KIND_FIELDS[type(kind)])


def step_label_key(label) -> tuple:
    return (kind_key(label.kind), label.actors, label.choice)


def interface_label_key(label) -> tuple:
    return (label.tag, label.args)


def renamed(move: Move, ren: dict[int, int]) -> Move:
    """``move`` with each channel c replaced by ``ren.get(c, c)``; player
    identifiers, and so the player trace, are kept."""

    def position(pos: Position) -> Position:
        return Position(
            frozenset(ren.get(c, c) for c in pos.channels),
            {
                pid: Player(tuple(ren.get(c, c) for c in pl.attach))
                for pid, pl in pos.players.items()
            },
        )

    return Move(move.kind, position(move.initial), position(move.final), move.player_map)


# The closed-world steps with every body filed afresh at every state:
# the reference that ``lts.Explorer``'s moves and steps are checked
# against.


def _file_offers(side: type, body) -> tuple:
    """The body, its offers as an actor of ``side`` reads them, and each
    group filed under the rule that consumes it: tick groups, (slot,
    group) receives, (channel slot, object slot, group) sends, and the
    (left, right) fork halves when the body offers both, else None."""
    offers = side.offers(body)
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
    return body, offers, ticks, ins, outs, (left, right) if left and right else None


def _replace(state: State, created: int, moved: dict[int, tuple]) -> State:
    """The successor in which actor i became the avatars moved[i]."""
    num_channels = state.num_channels + created
    actors = [a for i, a in enumerate(state.actors) if i not in moved]
    for avatars in moved.values():
        for a in avatars:
            for c in a.attach:
                if not 1 <= c <= num_channels:
                    raise ValueError(f"attachment {c} outside 1..{num_channels}")
            insort(actors, a)
    return State(num_channels, tuple(actors))


def _silent_steps(state: State, forks: list, outs: list, ins: list) -> list[tuple]:
    """Forks by actor, then syncs by sender then receiver, the choices
    of each step innermost, as (kind, actors, choice, created, avatars)
    tuples: actor ``actors[i]`` becomes the avatars ``avatars[i]``."""
    steps: list[tuple] = []
    fresh = state.num_channels + 1
    for p, actor, attach, lefts, rights in forks:
        kind = Fork(len(attach))
        grown = attach + (fresh,)
        for cl, dl in lefts:
            for cr, dr in rights:
                av = (actor.avatar(grown, dl), actor.avatar(grown, dr))
                steps.append((kind, (p,), cl + cr, 1, (av,)))
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
                    steps.append((kind, (q, p), cs + cr, 0, (send_av, recv_av)))
    return steps


def closed_moves(state: State) -> list[tuple]:
    """Every closed step as a (kind, actors, choice, created, avatars)
    tuple: ticks by actor, then the forks and syncs of ``_silent_steps``."""
    moves, forks, outs, ins = [], [], [], []
    for p, actor in enumerate(state.actors):
        attach = actor.attach
        _, _, ticks, i, o, fork = _file_offers(type(actor), actor.body)
        for group in ticks:
            for choice, cont in group:
                av = actor.avatar(attach, cont)
                moves.append((Heartbeat(len(attach)), (p,), choice, 0, ((av,),)))
        for a, group in i:
            ins.append((p, actor, attach, a, group))
        for c, d, group in o:
            outs.append((p, actor, attach, c, d, group))
        if fork:
            forks.append((p, actor, attach, *fork))
    return moves + _silent_steps(state, forks, outs, ins)


def closed_steps(state: State) -> list[tuple[StepLabel, State]]:
    """The (label, successor) pair of each of ``closed_moves``."""
    return [
        (StepLabel(kind, actors, choice), _replace(state, created, dict(zip(actors, avatars))))
        for kind, actors, choice, created, avatars in closed_moves(state)
    ]


# The concrete interface engine: states hold the actors themselves, and
# each step inserts new actor values. The package builds the same graphs
# over int-coded states; ``decoded`` maps those back.


class AState(NamedTuple):
    """Interface state: handle map of the environment plus the subject."""

    h: tuple[int, ...]
    subject: State


def _entry(actor, fresh: int) -> tuple:
    """What an interface step reads of ``actor`` in a state whose next
    fresh channel is ``fresh``: its filing (``_file_offers``), its
    observable moves in offer order as (channel the environment must
    know or None, label, handle extension, channels created, avatars)
    tuples, one avatar per continuation, and its receives as (channel,
    avatars) pairs for the link rule, which shares the avatars."""
    filing = _file_offers(type(actor), actor.body)
    attach = actor.attach
    grown = attach + (fresh,)
    moves, receives = [], []
    for key, group in filing[1]:
        tag, ch = key[0], None
        if tag == "heart":
            label, ext, after, created = ALab("tick"), (), attach, 0
        elif tag == "forkL" or tag == "forkR":
            label, ext, after, created = ALab(tag), (fresh,), grown, 1
        elif tag == "in":
            ch = attach[key[1] - 1]
            label, ext, after, created = ALab("in", (ch,)), (fresh,), grown, 1
        else:
            ch, obj = attach[key[1] - 1], attach[key[2] - 1]
            label, ext, after, created = ALab("out", (ch, obj)), (obj,), attach, 0
        avatars = tuple(actor.avatar(after, cont) for _, cont in group)
        moves.append((ch, label, ext, created, avatars))
        if tag == "in":
            receives.append((ch, avatars))
    return filing, moves, receives


def interface_steps(ast: AState, enable_link: bool = False, filed: Optional[dict] = None) -> list:
    """Observable steps actor by actor in offer order, each actor's link
    steps after its other steps, then the silent forks and syncs.
    ``filed`` maps (id of a body, attachment, fresh channel) to the
    actor's ``_entry``; None builds the entries afresh."""
    state, h = ast.subject, ast.h
    known = set(h)
    fresh = state.num_channels + 1
    if filed is None:
        filed = {}
    steps = []
    forks, outs, ins = [], [], []
    for p, actor in enumerate(state.actors):
        attach = actor.attach
        key = (id(actor.body), attach, fresh)
        entry = filed.get(key)
        if entry is None:
            entry = filed[key] = _entry(actor, fresh)
        (_, _, _, i, o, fork), moves, receives = entry
        for a, group in i:
            ins.append((p, actor, attach, a, group))
        for c, d, group in o:
            outs.append((p, actor, attach, c, d, group))
        if fork:
            forks.append((p, actor, attach, *fork))
        for ch, label, ext, created, avatars in moves:
            if ch is None or ch in known:
                h2 = h + ext
                for av in avatars:
                    steps.append((label, AState(h2, _replace(state, created, {p: (av,)}))))
        if enable_link:
            for ch, avatars in receives:
                if ch not in known:
                    continue
                for src in sorted(known - {ch}):
                    label = ALab("link", (ch, fresh, src))
                    for av in avatars:
                        steps.append((label, AState(h, _replace(state, 1, {p: (av,)}))))
    for kind, actors, _, created, avatars in _silent_steps(state, forks, outs, ins):
        nxt = _replace(state, created, dict(zip(actors, avatars)))
        steps.append((ALab("fork" if isinstance(kind, Fork) else "sync"), AState(h, nxt)))
    return steps


def concrete_interface_graph(root: State, enable_link: bool = False):
    """``lts.interface_graph`` on the concrete engine."""
    start = AState(tuple(range(1, root.num_channels + 1)), root)
    filed: dict = {}
    index = {start: 0}
    states = [start]
    edges = []
    for state in states:  # the loop meets every state appended
        outs = set()
        for label, nxt in interface_steps(state, enable_link, filed):
            dst = index.setdefault(nxt, len(states))
            if dst == len(states):
                states.append(nxt)
            outs.add((label, dst))
        edges.append(tuple(sorted(outs)))
    return LtsGraph(states, edges)


def decoded(root: State, states) -> list[AState]:
    """The concrete states of an interface graph built from ``root``
    over int-coded states: every body reachable from the root's actors
    through their offers is ranked by plain ``sorted``, and a thread
    ``(rank, attach)`` or a player ``(arity, attach, rank)`` becomes the
    actor running the body of that rank."""
    side = type(root.actors[0])
    bodies, stack = set(), [a.body for a in root.actors]
    while stack:
        body = stack.pop()
        if body not in bodies:
            bodies.add(body)
            stack.extend(cont for _, group in side.offers(body) for _, cont in group)
    ranked = sorted(bodies)

    def actor(coded):
        if side is PlayerState:
            _, attach, r = coded
            return PlayerState(attach, ranked[r])
        r, attach = coded
        return Thread(ranked[r], attach)

    return [AState(h, State(n, tuple(map(actor, actors)))) for h, n, actors in states]
