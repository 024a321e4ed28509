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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from collections import deque

from .lts import (
    GameState,
    LtsGraph,
    PlayerState,
    ProcState,
    StepLabel,
    Thread,
    closed_graph,
    game_state,
    proc_state,
)
from .strategy import Definite, interpret
from .term import Process, enumerate_terms, typecheck


@dataclass(frozen=True)
class Test:
    """A testing context: h wires subject interface channel i to test
    channel h[i-1]; proc is the test's own behavior at context ctx."""

    h: tuple[int, ...]
    ctx: int
    proc: Process

    def check(self) -> None:
        for i, c in enumerate(self.h, 1):
            if not 1 <= c <= self.ctx:
                raise ValueError(f"handle {i} wired to {c}, outside 1..{self.ctx}")
        typecheck(self.proc, self.ctx)


def identity_test(gamma: int, proc: Process) -> Test:
    return Test(tuple(range(1, gamma + 1)), gamma, proc)


def compose_game(subject: Definite, test: Test) -> GameState:
    test.check()
    if subject.arity != len(test.h):
        raise ValueError(
            f"subject arity {subject.arity} does not match handle map of "
            f"length {len(test.h)}"
        )
    return game_state(
        test.ctx,
        [
            PlayerState(test.h, subject),
            PlayerState(tuple(range(1, test.ctx + 1)), interpret(test.proc, test.ctx)),
        ],
    )


def compose_proc(subject: Process, gamma: int, test: Test) -> ProcState:
    test.check()
    typecheck(subject, gamma)
    if gamma != len(test.h):
        raise ValueError(
            f"subject context {gamma} does not match handle map of length {len(test.h)}"
        )
    return proc_state(
        test.ctx,
        [
            Thread(subject, test.h),
            Thread(test.proc, tuple(range(1, test.ctx + 1))),
        ],
    )


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


def passes(
    subject: Process,
    gamma: int,
    test: Test,
    side: str = "game",
    mode: str = "weak",
) -> Verdict:
    if side == "game":
        st = compose_game(interpret(subject, gamma), test)
    elif side == "process":
        st = compose_proc(subject, gamma, test)
    else:
        raise ValueError(f"unknown side {side!r}")
    return in_bot(closed_graph(st), mode)


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
    verdicts differ."""
    count = 0
    for idx, test in enumerate(tests):
        vl = passes(left, gamma, test, side, mode)
        vr = passes(right, gamma, test, side, mode)
        count += 1
        if vl.passed != vr.passed:
            return EqResult(False, count, idx, test, vl, vr)
    return EqResult(True, count)
