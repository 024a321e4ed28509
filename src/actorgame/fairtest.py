"""Fair testing: compose a subject with a test and ask whether every
silent run can still reach a tick.

A test is a term together with a handle map h wiring the subject's
interface channels into the test's context: a ``Test``, a named tuple
checked once, when built. A generated suite's tests share one handle
tuple per map, so drawing a test costs no more than its check.
Composition is closed world: the subject (as a strategy player or as a
thread) and the test run side by side over the test's channels, and the
only observation is the tick.

The weak verdict holds when every state reachable from the root by
tick-free steps can still reach, by tick-free steps, a state with an
outgoing tick. The strict verdict asks that every immediate successor
of the root have a direct tick available; a root with no steps passes
vacuously. Every graph of this calculus is acyclic, since each step
consumes a prefix or a parallel node, so the weak verdict is deadlock
reachability over tick-free steps.

``in_bot`` reads both verdicts off a built closed graph; ``settle``
reaches the same verdict, failure witness included, without building
one. The weak search runs over int-coded forms of ranked bodies (see
``_Ranks`` and ``_form``): a rank's filing is the ``lts`` step core's
with each continuation coded as its rank, and a successor form is built
from the core's fork pairs and sync matches alone, with no concrete
state or label. Since the step rules are equivariant under channel
renaming, a form's ticks, deadlocks and distances are those of every
state it stands for. Forms live for one decision; a rank table depends
on bodies alone, so one table serves every decision of a suite.

One driver, ``suite_verdicts``, runs every suite (``passes`` is its
one-test case) and owns the rule that a test equal to an earlier one up
to summand order passes or fails with it. A suite verdict starts from a
root form built from the subject's and the test's ranked bodies; a
concrete composite is built only for the labels that the strict verdict
and a weak failure's witness read. ``holds`` and ``decide`` settle a
concrete state, ranking its bodies afresh.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import lts
from .lts import ROOTS, Explorer, LtsGraph, PlayerState, State, StepLabel, Thread, _filing, _silent_rules
from .strategy import interpret
from .term import Process, canonical, enumerate_terms, typecheck


class _Test(NamedTuple):
    h: tuple[int, ...]
    ctx: int
    proc: Process


class Test(_Test):
    """A testing context, a named tuple built as ``Test(h, ctx, proc)``:
    h wires subject interface channel i to test channel h[i-1]; proc is
    the test's own behavior at context ctx. A test is checked once, when
    it is built (handles in 1..ctx, then ``typecheck``), and keeps h as
    a tuple, so any sequence of handles makes a hashable test."""

    __slots__ = ()

    def __new__(cls, h: Sequence[int], ctx: int, proc: Process) -> Test:
        h = tuple(h)
        for i, c in enumerate(h, 1):
            if not 1 <= c <= ctx:
                raise ValueError(f"handle {i} wired to {c}, outside 1..{ctx}")
        typecheck(proc, ctx)
        return tuple.__new__(cls, (h, ctx, proc))

    @classmethod
    def _make(cls, fields: Iterable) -> Test:
        """The checked test of ``(h, ctx, proc)``, for ``_replace`` too."""
        return cls(*fields)


def compose(subject: State, env: State, h: tuple[int, ...]) -> State:
    """The closed world of ``subject`` run against the test ``env``: the
    subject's one actor, interface channel i wired to env channel
    h[i-1], beside env's actors over env's channels. Both are one-actor
    roots of the same side, as a builder in ``lts.ROOTS`` makes them."""
    (actor,) = subject.actors
    if len(actor.attach) != len(h):
        raise ValueError(
            f"subject arity {len(actor.attach)} does not match handle map of length {len(h)}"
        )
    return State.of(env.num_channels, [actor.avatar(h, actor.body), *env.actors])


# perfbench/tracing.py still hooks these two names (ROADMAP item 1)
compose_game = compose_proc = compose


# ------------------------------------------------------------ verdicts


@dataclass(frozen=True, slots=True)
class Verdict:
    """Whether a composite passed, and on a failure the witness: the step
    labels of a shortest tick-free path to a state that cannot reach a
    tick, or the one root step without a direct tick."""

    passed: bool
    witness: tuple[str, ...] = ()

    def render(self) -> str:
        if self.passed:
            return "pass"
        if self.witness:
            return "fail witness: " + ";".join(self.witness)
        return "fail"


def in_bot(g: LtsGraph, mode: str = "weak") -> Verdict:
    """Does the composite pass the empty observer?

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


UNBOUNDED = float("inf")
_INERT = -1  # the rank of a body that offers nothing


class _Ranks:
    """A rank table: each live body met has a rank, the number of live
    bodies met before it, and a body that offers nothing has rank
    ``_INERT``. Equal bodies share a rank.

    A rank's filing is whether its body can tick and its body's rules
    (``lts._filing``), each group coded as its continuations' ranks. A
    body is filed once, when it is ranked, and its groups are coded when
    a form holding it is first expanded. Filings depend on bodies alone,
    so one table can serve every verdict of a suite (see
    ``suite_verdicts``).
    """

    def __init__(self):
        self.rank: dict = {}
        self.met: list[Optional[tuple]] = []  # rank -> side, tick flag and rules, until coded
        self.filings: list[Optional[tuple]] = []

    def of(self, side: type, body) -> int:
        r = self.rank.get(body)
        if r is None:
            r = _INERT
            filing = _filing(side, body)
            if filing[0]:
                r = len(self.met)
                self.met.append((side, bool(filing[1]), filing[2]))
                self.filings.append(None)
            self.rank[body] = r
        return r

    def _file(self, r: int) -> tuple:
        side, tick, rules = self.met[r]
        self.met[r] = None  # the rank dict keeps the body

        def conts(group) -> tuple[int, ...]:
            return tuple([self.of(side, cont) for _, cont in group])

        if rules:
            ins, outs, fork = rules
            rules = (
                tuple([(a, conts(group)) for a, group in ins]),
                tuple([(c, d, conts(group)) for c, d, group in outs]),
                fork and (conts(fork[0]), conts(fork[1])),
            )
        filing = self.filings[r] = (tick, rules)
        return filing

    def form(self, state: State) -> tuple:
        """The form of a concrete state."""
        return _form([(self.of(type(a), a.body), a.attach) for a in state.actors])

    def steps(self, form: tuple) -> tuple[bool, list[tuple]]:
        """Whether ``form`` can tick, and the form of each of its silent
        steps, forks and syncs in the order ``lts._silent_rules`` lists
        them."""
        n, actors = form
        filings = self.filings
        rules, can_tick = [], False
        for p, (r, _) in enumerate(actors):
            tick, own = filings[r] or self._file(r)
            can_tick = can_tick or tick
            if own:
                rules.append((p, own))
        if not rules:
            return can_tick, []
        forks, syncs = _silent_rules(actors, rules)
        succ = []
        for i, left, right in forks:
            grown = actors[i][1] + (n + 1,)
            succ.append(_form([*actors[:i], *actors[i + 1 :], (left, grown), (right, grown)]))
        for q, (_, d, sconts), p, (_, rconts) in syncs:
            rest = [a for k, a in enumerate(actors) if k != p and k != q]
            sattach = actors[q][1]
            grown = actors[p][1] + (sattach[d],)
            for sent in sconts:
                for got in rconts:
                    succ.append(_form([*rest, (sent, sattach), (got, grown)]))
        return can_tick, succ


def _form(actors: list[tuple[int, tuple[int, ...]]]) -> tuple:
    """``(num_channels, ((rank, attach), ...))``: the live ones of
    ``actors``, sorted, with their channels renumbered 1, 2, ... by first
    occurrence in that order and unheld channels dropped, so the next
    fresh channel is still ``num_channels + 1``."""
    names: dict[int, int] = {}
    live = []
    for r, attach in sorted(actors):
        if r >= 0:
            for c in attach:
                if c not in names:
                    names[c] = len(names) + 1
            live.append((r, tuple([names[c] for c in attach])))
    return len(names), tuple(live)


class _Search:
    """One weak verdict's search over int-coded forms of the rank table
    ``ranks``.

    Each form met so far has an index into ``forms``; ``dist`` holds its
    tick-free distance to a form that cannot reach a tick: 0 for such a
    form, UNBOUNDED when none is reachable, None until known. At most
    ``lts.MAX_STATES`` forms, read when the search is set up, may be met.
    """

    def __init__(self, ranks: _Ranks):
        self.ranks = ranks
        self.index: dict[tuple, int] = {}
        self.forms: list[tuple] = []
        self.dist: list[Optional[float]] = []
        self.max_states = lts.MAX_STATES

    def index_of(self, form: tuple) -> int:
        i = self.index.get(form)
        if i is None:
            i = len(self.forms)
            if i >= self.max_states:
                raise RuntimeError(f"state space exceeds {self.max_states} states")
            self.index[form] = i
            self.forms.append(form)
            self.dist.append(None)
        return i

    def frame(self, i: int) -> tuple:
        can_tick, succ = self.ranks.steps(self.forms[i])
        children = [self.index_of(form) for form in succ]
        return i, can_tick, children, iter(children)

    def distance(self, form: tuple) -> float:
        """The distance of ``form``, found depth first below it if no
        earlier search met it; every graph is acyclic, so each form is
        finished after all of its successors."""
        dist = self.dist
        top = self.index_of(form)
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

    def witness(self, state: State, top: int) -> tuple[str, ...]:
        """The failure witness of ``in_bot`` from ``state``, at distance
        ``top``: ``top`` times the least tick-free step in label order
        whose successor's form is one nearer. ``in_bot`` meets each
        depth's states in the order of their least label paths, so the
        first failing state it dequeues ends the least shortest path to
        any, and each step the walk keeps extends to that path. A form
        on the walk was most often expanded when its distance was found;
        one state's forms can differ in their channel numbering, and a
        form the search never met has the distance of the one it did,
        found afresh."""
        world, labels = Explorer(), []
        for want in range(top - 1, -1, -1):
            label, state = next(
                (label, nxt)
                for label, nxt in sorted(world.steps(state), key=lambda step: step[0])
                if not label.is_tick and self.distance(self.ranks.form(nxt)) == want
            )
            labels.append(label.render())
        return tuple(labels)


def settle(
    ranks: _Ranks, form: tuple, composite: Callable[[], State], mode: str
) -> tuple[bool, Callable[[], Verdict]]:
    """Whether the composite of root form ``form``, in the table
    ``ranks``, passes, and what gives its verdict with the witness, read
    off the concrete composite that ``composite`` builds: the first root
    step, in label order, after which no tick is direct (strict), or a
    walk down the distances of the search that decided it (weak).
    Meeting more than ``lts.MAX_STATES`` forms raises ``RuntimeError``."""
    if mode == "strict":
        world = Explorer()
        steps = sorted(world.steps(composite()), key=lambda step: step[0])
        witness = next(((label.render(),) for label, nxt in steps if not world.can_tick(nxt)), ())
        return not witness, lambda: Verdict(not witness, witness)
    if mode != "weak":
        raise ValueError(f"unknown verdict mode {mode!r}")
    search = _Search(ranks)
    top = search.distance(form)
    if top == UNBOUNDED:
        return True, lambda: Verdict(True)
    return False, lambda: Verdict(False, search.witness(composite(), int(top)))


def holds(state: State, mode: str = "weak") -> bool:
    """``decide(state, mode).passed``, found in the weak mode without
    searching for a failure witness."""
    ranks = _Ranks()
    return settle(ranks, ranks.form(state), lambda: state, mode)[0]


def decide(state: State, mode: str = "weak") -> Verdict:
    """``in_bot(closed_graph(state), mode)``, found without building the
    graph (see ``settle``)."""
    ranks = _Ranks()
    return settle(ranks, ranks.form(state), lambda: state, mode)[1]()


def suite_verdicts(
    subjects: Sequence[Process],
    gamma: int,
    tests: Iterable[Test],
    side: str = "strategy",
    mode: str = "weak",
) -> Iterator[tuple[Test, tuple[bool, ...], Callable[[], tuple[Verdict, ...]]]]:
    """Each test, drawn when asked for, with every subject's pass flag
    and a function that gives their verdicts, read off the test's own
    composites. One rank table serves the whole suite and goes with it.
    Each subject's root is built and ranked once per suite, and a test's
    body (its term, or on the strategy side its strategy) is ranked when
    its composites are settled from root forms (see ``settle``).

    A test's key is its term with every choice's summands in canonical
    order, its context and its handle map. Tests with one key pass or
    fail alike against any subject: the closed step rules treat the
    summands of a choice symmetrically, so permuting them changes only
    the choice indices in step labels, which no verdict reads. Only a
    failure witness, which prints labels, can tell them apart. So a
    test with the key of an earlier one takes that test's flags, and
    its body is ranked and its composites settled only if its verdicts
    are asked for."""
    if side not in ROOTS:
        raise ValueError(f"unknown side {side!r}")
    root, ranks, flags_of = ROOTS[side], _Ranks(), {}
    kind = PlayerState if side == "strategy" else Thread
    roots = [root(s, gamma) for s in subjects]
    ranked = [ranks.of(kind, r.actors[0].body) for r in roots]

    def build(subject: State, test: Test) -> Callable[[], State]:
        return lambda: compose(subject, root(test.proc, test.ctx), test.h)

    def run(test: Test) -> tuple[tuple[bool, ...], Callable[[], tuple[Verdict, ...]]]:
        if len(test.h) != gamma:
            raise ValueError(
                f"subject arity {gamma} does not match handle map of length {len(test.h)}"
            )
        body = interpret(test.proc, test.ctx) if kind is PlayerState else test.proc
        env = (ranks.of(kind, body), tuple(range(1, test.ctx + 1)))
        settled = [
            settle(ranks, _form([(r, test.h), env]), build(s, test), mode)
            for r, s in zip(ranked, roots)
        ]
        return tuple([p for p, _ in settled]), lambda: tuple([v() for _, v in settled])

    for test in tests:
        key = (canonical(test.proc), test.ctx, test.h)
        flags = flags_of.get(key)
        if flags is None:
            flags, verdicts = run(test)
            flags_of[key] = flags
        else:
            verdicts = lambda test=test: run(test)[1]()
        yield test, flags, verdicts


def passes(
    subject: Process, gamma: int, test: Test, side: str = "strategy", mode: str = "weak"
) -> Verdict:
    [(_, _, verdicts)] = suite_verdicts([subject], gamma, [test], side, mode)
    return verdicts()[0]


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
    context gamma-1 with channels i and j identified. The tests of one
    handle map share its tuple."""
    maps = [(tuple(range(1, gamma + 1)), gamma)]
    maps += [(merge_map(gamma, i, j), gamma - 1) for j in range(2, gamma + 1) for i in range(1, j)]
    for h, ctx in maps:
        for t in enumerate_terms(ctx, depth, width):
            yield Test(h, ctx, t)


@dataclass(frozen=True)
class EqResult:
    equivalent: bool
    checked: int
    test: Optional[Test] = None
    verdict_left: Optional[Verdict] = None
    verdict_right: Optional[Verdict] = None


def eq_check(
    left: Process,
    right: Process,
    gamma: int,
    tests: Iterable[Test],
    side: str = "strategy",
    mode: str = "weak",
) -> EqResult:
    """Run both subjects against the suite; stop at the first test whose
    pass flags differ, drawing no test after it, and decide just that
    test's two verdicts with their failure witnesses."""
    count = 0
    suite = suite_verdicts((left, right), gamma, tests, side, mode)
    for count, (test, (pl, pr), verdicts) in enumerate(suite, 1):
        if pl != pr:
            return EqResult(False, count, test, *verdicts())
    return EqResult(True, count)
