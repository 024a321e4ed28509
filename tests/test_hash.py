"""Every value is a tuple all the way down: prefixes, terms, strategies
and move kinds are ``term.Value`` tuples led by their class's tag, and
the engine's states, actors and labels are named tuples. So a value
hashes as the plain tuple of its fields, equal values built apart hash
equal, no value has a ``__dict__``, copies and pickles come back equal
and of their class, and values whose classes share a table never compare
equal: a tag keeps ``NIL`` apart from ``Definite(0)``, and a kind, tagged
by its class name, apart from every term. Interface graph states are
int-coded plain tuples, so only their labels are engine values here."""

import copy
import pickle
import sys
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from actorgame.arena import Fork, ForkL, ForkR, Heartbeat, Input, Output, Sync
from actorgame.fairtest import compose
from actorgame.lts import (
    ALab,
    Explorer,
    PlayerState,
    State,
    StepLabel,
    Thread,
    closed_graph,
    root_process,
    root_strategy,
)
from actorgame.strategy import Definite
from actorgame.term import NIL, Par, Recv, Send, Sum, Tick, Value, parse
from gen import terms
from oracles import AState, interface_steps

KINDS = (Fork, ForkL, ForkR, Input, Output, Heartbeat, Sync)
TERMS = (Recv, Send, Tick, Sum, Par)
VALUES = TERMS + (Definite,) + KINDS
NAMED = (PlayerState, Thread, State, StepLabel, ALab)
CLASSES = VALUES + NAMED

# the kinds of a single strategy's moves, which no closed step makes
BASIC_KINDS = {ForkL, ForkR, Input, Output}

# the fields a constructor takes, where they are not all of the fields
BUILT_FROM = {PlayerState: ("attach", "body")}

# classes whose values sit side by side in one table; every tagged value
# is in one group, so terms meet strategies and kinds meet terms
MIXED = ((State, Thread), (ALab, StepLabel), VALUES)


def fields(x):
    """The tuple ``x`` is: its tag, if it has one, then its fields."""
    tag = (x._tag,) if isinstance(x, Value) else ()
    return tag + tuple(getattr(x, f) for f in x._fields)


def as_tuples(x):
    """``x`` with every tuple in it, all the way down, a plain tuple."""
    return tuple(as_tuples(v) for v in x) if isinstance(x, tuple) else x


def rebuild(x):
    """An equal copy of ``x`` in which every value is built afresh."""
    if isinstance(x, CLASSES):
        names = BUILT_FROM.get(type(x), x._fields)
        return type(x)(*(rebuild(getattr(x, f)) for f in names))
    if isinstance(x, tuple):
        return tuple(rebuild(v) for v in x)
    return x


def values(roots):
    """The values in the closed and interface steps of ``roots``, and
    every value of a checked class inside them."""
    found, stack = [], []
    for root in roots:
        stack.append(root)
        stack.extend(Explorer().steps(root))
        # the root's interface steps, without building a graph that
        # may pass the state cap
        stack.extend(interface_steps(AState(tuple(range(1, root.num_channels + 1)), root)))
    while stack:
        x = stack.pop()
        if isinstance(x, CLASSES):
            found.append(x)
        if isinstance(x, tuple):
            stack.extend(x)
    return found


def check_hash_contract(found):
    for x in found:
        fresh = rebuild(x)
        assert fresh == x and tuple(x) == fields(x)
        assert hash(fresh) == hash(as_tuples(x)) == hash(tuple(x)) == hash(x)
        assert isinstance(x, tuple) and not hasattr(x, "__dict__")
    return {type(x) for x in found}


def check_classes_apart(found):
    """No value equals a value of another class that shares its tables:
    one dict keyed by all of them keeps each class's values apart."""
    for group in MIXED:
        table = {}
        for x in found:
            if isinstance(x, group):
                assert type(table.setdefault(x, x)) is type(x), (x, table[x])


def check_copies(found):
    for x in found:
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x


@st.composite
def closed_roots(draw):
    """A random subject at context 0-2 and a random test at context 0-2
    under a random handle map, as one-actor roots and composed, on both
    sides."""
    gamma = draw(st.integers(0, 2))
    ctx = draw(st.integers(1 if gamma else 0, 2))
    h = draw(st.tuples(*[st.integers(1, ctx)] * gamma))
    subject, test = draw(terms(gamma)), draw(terms(ctx))
    roots = []
    for root in (root_strategy, root_process):
        s, env = root(subject, gamma), root(test, ctx)
        roots += [s, env, compose(s, env, h)]
    return roots


@settings(max_examples=150, deadline=None)
@given(closed_roots())
def test_values_hash_as_their_compared_fields(roots):
    check_hash_contract(values(roots))


@settings(max_examples=50, deadline=None)
@given(closed_roots())
def test_engine_values_of_different_classes_never_compare_equal(roots):
    check_classes_apart(values(roots))


def composites():
    """A composite on each side: the composite syncs either way, and
    then one successor ticks and the other forks."""
    subject, gamma = parse("ctx 1. rcv(1).tick.0 + snd(1,1).(0 | tick.0)")
    test, ctx = parse("ctx 1. snd(1,1).0 + rcv(1).0")
    return [compose(root(subject, gamma), root(test, ctx), (1,)) for root in (root_strategy, root_process)]


def composed_roots():
    """The composites of ``composites`` and their successors."""
    roots = composites()
    return roots + [nxt for root in roots for _, nxt in Explorer().steps(root)]


def test_every_value_class_is_slotted_and_keeps_the_contract():
    found = values(composed_roots())
    assert check_hash_contract(found) == set(CLASSES) - BASIC_KINDS
    check_classes_apart(found)


def test_engine_values_copy_and_pickle_as_themselves():
    found = values(composed_roots())
    assert {type(x) for x in found} == set(CLASSES) - BASIC_KINDS
    check_copies(found)
    player = next(x for x in found if isinstance(x, PlayerState))
    assert player.arity == len(player.attach) == player.body.arity
    assert copy.copy(player) == player == pickle.loads(pickle.dumps(player))


def test_move_kinds_keep_the_contract():
    """All seven kinds, built directly: each hashes as its class name and
    fields, has no ``__dict__`` and copies and pickles as itself, and
    kinds of different classes with equal fields are never equal."""
    kinds = [Fork(2), ForkL(2), ForkR(2), Heartbeat(2), Input(2, 1), Output(2, 1, 2), Sync(1, 1, 2, 1, 2)]
    assert check_hash_contract(kinds) == set(KINDS)
    assert all(k[0] == type(k).__name__ for k in kinds)
    check_copies(kinds)
    check_classes_apart(kinds)
    assert len(set(kinds[:4])) == 4


def test_terms_strategies_and_kinds_with_equal_fields_are_apart():
    """Values built directly whose fields agree, of every tagged class:
    the inert process and the empty table of arity 0, a receive, a tick
    and kinds of the same fields. Each keeps the contract, and no two of
    them are equal."""
    found = [NIL, Definite(0), Sum(), Recv(0), Tick(), Send(0, 0), Par(NIL, NIL), Heartbeat(0), Fork(0)]
    assert check_hash_contract(found) == {Sum, Definite, Recv, Tick, Send, Par, Heartbeat, Fork}
    check_copies(found)
    check_classes_apart(found)
    assert NIL != Definite(0) and len(set(found)) == len(found) - 1  # NIL is Sum()
    assert repr(NIL) == "Sum(branches=())" and repr(Definite(0)) == "Definite(arity=0, table=())"


def test_closed_graphs_hash_and_compare_in_c():
    """Building a closed graph runs no Python-level ``__hash__``,
    ``__eq__`` or ``__lt__`` on either side: every state, actor, body and
    label it keys or sorts is a tuple all the way down."""
    calls = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name in ("__hash__", "__eq__", "__lt__"):
            calls[code.co_filename, code.co_name] += 1

    for root in composites():
        sys.setprofile(profile)
        try:
            graph = closed_graph(root)
        finally:
            sys.setprofile(None)
        assert len(graph.states) > 3
    assert not calls, calls
