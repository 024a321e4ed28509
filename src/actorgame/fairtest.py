"""Fair testing: compose a subject with a test and ask whether every
silent run can still reach a tick.

A test is a term together with a handle map h wiring the subject's
interface channels into the test's context. Composition is closed
world: the subject (as a strategy player or as a thread) and the test
run side by side over the test's channels, and the only observation is
the tick.

The weak verdict holds when every state reachable from the root by
tick-free steps can still reach, by tick-free steps, a state with an
outgoing tick. The strict verdict asks that every immediate successor
of the root have a direct tick available; a root with no steps passes
vacuously.

``in_bot`` reads both verdicts off a built closed graph. ``passes``
reaches the same verdicts, failure witness included, without building
one (``decide``). Every graph of this calculus is acyclic, since each
step consumes a prefix or a parallel node, so a state that cannot
reach a tick has a tick-free path to a deadlock: the weak verdict is
deadlock reachability over tick-free steps. The search files each
state under a channel-normalised form (``lts.channel_normal_form``);
the step rules are equivariant under channel renaming, so a form's
ticks, deadlocks and distances are those of every state it stands for.
On a failure, a breadth-first search over concrete states that keeps
only successors on shortest paths to a failing form rebuilds the
witness ``in_bot`` would give.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional

from collections import deque

from .lts import (
    GameState,
    LtsGraph,
    ProcState,
    State,
    StepLabel,
    channel_normal_form,
    closed_world_steps,
    root_process,
    root_strategy,
    tick_free_steps,
)
from .term import Process, enumerate_terms, typecheck


@dataclass(frozen=True)
class Test:
    """A testing context: h wires subject interface channel i to test
    channel h[i-1]; proc is the test's own behavior at context ctx.
    A test is checked once, when it is built."""

    h: tuple[int, ...]
    ctx: int
    proc: Process

    def __post_init__(self) -> None:
        for i, c in enumerate(self.h, 1):
            if not 1 <= c <= self.ctx:
                raise ValueError(f"handle {i} wired to {c}, outside 1..{self.ctx}")
        typecheck(self.proc, self.ctx)


def identity_test(gamma: int, proc: Process) -> Test:
    return Test(tuple(range(1, gamma + 1)), gamma, proc)


def compose(subject: State, env: State, h: tuple[int, ...]) -> State:
    """The closed world of ``subject`` run against the test ``env``: the
    subject's one actor, interface channel i wired to env channel
    h[i-1], beside env's actors over env's channels. Both are one-actor
    roots of the same side, as ``root_strategy`` or ``root_process``
    build them."""
    (actor,) = subject.actors
    if len(actor.attach) != len(h):
        raise ValueError(
            f"subject arity {len(actor.attach)} does not match handle map of length {len(h)}"
        )
    return env.successor(0, [replace(actor, attach=h), *env.actors])


# perfbench/tracing.py still hooks these two names (ROADMAP item 1)
compose_game = compose_proc = compose


# ------------------------------------------------------------ verdicts


@dataclass(frozen=True)
class Verdict:
    passed: bool
    mode: str
    witness: tuple[str, ...] = ()

    def render(self) -> str:
        if self.passed:
            return "pass"
        if self.witness:
            return "fail witness: " + ";".join(self.witness)
        return "fail"


def _check_closed(g: LtsGraph) -> None:
    if not isinstance(g.states[g.root], (GameState, ProcState)):
        raise TypeError("fair testing needs a closed-world graph")


def in_bot(g: LtsGraph, mode: str = "weak") -> Verdict:
    """Does the composite pass the empty observer?

    weak: from every tick-free-reachable state a tick must stay
    tick-free-reachable. strict: every immediate successor of the root
    must itself have a direct tick.
    """
    _check_closed(g)
    if mode == "strict":
        for label, dst in g.edges[g.root]:
            if not any(l2.is_tick for l2, _ in g.edges[dst]):
                return Verdict(False, mode, (label.render(),))
        return Verdict(True, mode)
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
            return Verdict(False, mode, tuple(reversed(labels)))
        for label, d in tickfree[v]:
            if d not in seen:
                seen.add(d)
                parent[d] = (v, label)
                queue.append(d)
    return Verdict(True, mode)


UNBOUNDED = float("inf")


class _Search:
    """The weak verdict's search over channel-normalised states.

    Each normal form met so far has an index into ``forms``; ``dist``
    holds its tick-free distance to a form that cannot reach a tick: 0
    for such a form, UNBOUNDED when none is reachable, None until known.
    Forms and the concrete states of a witness search both count
    against ``max_states``.
    """

    def __init__(self, max_states: int):
        self.index: dict[State, int] = {}
        self.forms: list[State] = []
        self.dist: list[Optional[float]] = []
        self.max_states = max_states
        self.states = 0

    def admit(self) -> None:
        if self.states >= self.max_states:
            raise RuntimeError(f"state space exceeds {self.max_states} states")
        self.states += 1

    def form_of(self, state: State) -> int:
        form = channel_normal_form(state)
        i = self.index.get(form)
        if i is None:
            self.admit()
            i = self.index[form] = len(self.forms)
            self.forms.append(form)
            self.dist.append(None)
        return i

    def frame(self, i: int) -> tuple:
        can_tick, steps = tick_free_steps(self.forms[i])
        children = [self.form_of(nxt) for _, nxt in steps]
        return i, can_tick, children, iter(children)

    def distance(self, state: State) -> float:
        """The distance of ``state``'s normal form, found depth first
        below it if no earlier search met that form; every graph is
        acyclic, so each form is finished after all of its successors."""
        dist = self.dist
        top = self.form_of(state)
        if dist[top] is None:
            stack = [self.frame(top)]
            while stack:
                i, can_tick, children, todo = stack[-1]
                for c in todo:
                    if dist[c] is None:
                        stack.append(self.frame(c))
                        break
                else:
                    stack.pop()
                    ds = [dist[c] for c in children]
                    dist[i] = 1 + min(ds, default=UNBOUNDED) if can_tick or any(ds) else 0
        return dist[top]

    def witness(self, root: State, top: int) -> tuple[str, ...]:
        """The failure witness of ``in_bot``: breadth first over concrete
        states with each state's steps in label order, keeping at depth
        k only the unseen successors at distance ``top - k - 1``. These
        are exactly the states on shortest paths to the forms that
        cannot reach a tick, met in ``in_bot``'s queue order with its
        parent pointers."""
        parent: dict[State, tuple[State, StepLabel]] = {}
        seen = {root}
        level = [root]
        for depth in range(top):
            below, want = [], top - depth - 1
            for u in level:
                steps = sorted(tick_free_steps(u)[1], key=lambda step: step[0])
                for label, nxt in steps:
                    if nxt not in seen and self.distance(nxt) == want:
                        self.admit()
                        seen.add(nxt)
                        parent[nxt] = (u, label)
                        below.append(nxt)
            level = below
        v = level[0]
        labels = []
        while v in parent:
            v, label = parent[v]
            labels.append(label.render())
        return tuple(reversed(labels))


def decide(state: State, mode: str = "weak", max_states: int = 200000) -> Verdict:
    """``in_bot(closed_graph(state), mode)``, found without building the
    graph.

    weak: every graph is acyclic, so a state that cannot reach a tick
    has a tick-free path to a deadlock, a state with no steps at all,
    and the composite passes exactly when no deadlock is reachable by
    tick-free steps. The search follows
    tick-free steps only, over channel-normalised forms: the step rules
    are equivariant under channel renaming, so a form's distance to the
    nearest state that cannot reach a tick is that of every state it
    stands for. strict: the root's steps in label order, each checked
    for a direct tick.
    """
    if mode == "strict":
        for label, nxt in sorted(closed_world_steps(state), key=lambda step: step[0]):
            if not tick_free_steps(nxt)[0]:
                return Verdict(False, mode, (label.render(),))
        return Verdict(True, mode)
    if mode != "weak":
        raise ValueError(f"unknown verdict mode {mode!r}")
    search = _Search(max_states)
    top = search.distance(state)
    if top == UNBOUNDED:
        return Verdict(True, mode)
    return Verdict(False, mode, search.witness(state, int(top)))


def _root(side: str) -> Callable[[Process, int], State]:
    """The root builder of a side: one actor on the identity attachment."""
    if side == "game":
        return root_strategy
    if side == "process":
        return root_process
    raise ValueError(f"unknown side {side!r}")


def passes(subject: Process, gamma: int, test: Test, side: str = "game", mode: str = "weak") -> Verdict:
    root = _root(side)
    return decide(compose(root(subject, gamma), root(test.proc, test.ctx), test.h), mode)


# ----------------------------------------------------------- test sets


def merge_map(gamma: int, i: int, j: int) -> tuple[int, ...]:
    """Handle map identifying channel j with channel i (i < j) and
    renumbering the rest down into 1..gamma-1."""
    if not 1 <= i < j <= gamma:
        raise ValueError(f"need 1 <= i < j <= {gamma}, got {i}, {j}")
    return tuple(i if x == j else (x if x < j else x - 1) for x in range(1, gamma + 1))


def gen_tests(gamma: int, depth: int, width: int = 2) -> Iterator[Test]:
    """Deterministic test stream: identity-wired tests over all terms at
    context gamma first, then for each pair i < j the same stream at
    context gamma-1 with channels i and j identified."""
    for t in enumerate_terms(gamma, depth, width):
        yield identity_test(gamma, t)
    for j in range(2, gamma + 1):
        for i in range(1, j):
            h = merge_map(gamma, i, j)
            for t in enumerate_terms(gamma - 1, depth, width):
                yield Test(h, gamma - 1, t)


@dataclass(frozen=True)
class EqResult:
    equivalent: bool
    checked: int
    index: Optional[int] = None
    test: Optional[Test] = None
    verdict_left: Optional[Verdict] = None
    verdict_right: Optional[Verdict] = None


def eq_check(
    left: Process,
    right: Process,
    gamma: int,
    tests: Iterable[Test],
    side: str = "game",
    mode: str = "weak",
) -> EqResult:
    """Run both subjects against the suite; stop at the first test whose
    verdicts differ. Each subject's root is built once per suite, each
    test's once per test."""
    root = _root(side)
    subjects = root(left, gamma), root(right, gamma)
    count = 0
    for count, test in enumerate(tests, 1):
        env = root(test.proc, test.ctx)
        vl, vr = (decide(compose(s, env, test.h), mode) for s in subjects)
        if vl.passed != vr.passed:
            return EqResult(False, count, count - 1, test, vl, vr)
    return EqResult(True, count)
