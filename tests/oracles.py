"""Independent reference implementations used to cross-check the
package. Everything here is deliberately naive: closed formulas and
exhaustive path enumeration instead of the algorithms under test.
"""

from __future__ import annotations

from functools import lru_cache

from actorgame.arena import Move, Player, Position
from actorgame.term import Recv, Send, Sum


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


def kind_key(kind) -> tuple:
    return (type(kind).__name__,) + tuple(getattr(kind, f) for f in kind.__dataclass_fields__)


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
