"""Every value hashes as the tuple of its compared fields, whether or not
it keeps its hash after the first use; equal values built apart hash
equal, and no value has a ``__dict__``. A move kind's compared fields
lead with its class name. The engine's states, actors and labels and
the move kinds are tuples, so two more things are checked of them:
values of different classes never compare equal, and copies and pickles
come back equal and of their class. Interface graph states are int-coded
plain tuples, so only their labels are engine values here."""

import copy
import dataclasses
import pickle

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
    root_process,
    root_strategy,
)
from actorgame.strategy import Definite
from actorgame.term import Par, Recv, Send, Sum, Tick, parse
from gen import terms
from oracles import KIND_FIELDS, AState, interface_steps

KINDS = (Fork, ForkL, ForkR, Input, Output, Heartbeat, Sync)
TUPLES = (PlayerState, Thread, State, StepLabel, ALab) + KINDS
SLOTTED = (Send, Recv, Tick, Sum, Par, Definite) + TUPLES

# the kinds of a single strategy's moves, which no closed step makes
BASIC_KINDS = {ForkL, ForkR, Input, Output}

# the fields a constructor takes, where they are not all of the fields
BUILT_FROM = {PlayerState: ("attach", "body")}

# classes whose values sit side by side in one table
MIXED = ((State, Thread), (ALab, StepLabel), KINDS)


def field_names(x):
    if isinstance(x, KINDS):
        return KIND_FIELDS[type(x)]
    if isinstance(x, TUPLES):
        return x._fields
    return tuple(f.name for f in dataclasses.fields(x) if f.compare)


def compared(x):
    fields = tuple(getattr(x, f) for f in field_names(x))
    return (type(x).__name__, *fields) if isinstance(x, KINDS) else fields


def as_tuples(x):
    """``x`` with every value of a slotted class replaced, all the way
    down, by the tuple of its compared fields: it hashes as ``x`` would
    under the dataclass's own hash, and keeps no hash anywhere."""
    if isinstance(x, SLOTTED):
        return tuple(as_tuples(v) for v in compared(x))
    if isinstance(x, tuple):
        return tuple(as_tuples(v) for v in x)
    return x


def rebuild(x):
    """An equal copy of ``x`` in which every value is built afresh."""
    if isinstance(x, SLOTTED):
        names = BUILT_FROM.get(type(x), field_names(x))
        return type(x)(*(rebuild(getattr(x, f)) for f in names))
    if isinstance(x, tuple):
        return tuple(rebuild(v) for v in x)
    return x


def values(roots):
    """The values in the closed and interface steps of ``roots``, and
    every value of a slotted class inside them."""
    found, stack = [], []
    for root in roots:
        stack.append(root)
        stack.extend(Explorer().steps(root))
        # the root's interface steps, without building a graph that
        # may pass the state cap
        stack.extend(interface_steps(AState(tuple(range(1, root.num_channels + 1)), root)))
    while stack:
        x = stack.pop()
        if isinstance(x, SLOTTED):
            found.append(x)
            stack.extend(compared(x))
        elif isinstance(x, tuple):
            stack.extend(x)
    return found


def check_hash_contract(roots):
    found = values(roots)
    for x in found:
        fresh = rebuild(x)
        assert fresh == x
        assert hash(fresh) == hash(as_tuples(x)) == hash(compared(x)) == hash(x) == hash(fresh)
        assert not hasattr(x, "__dict__")
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
        if isinstance(x, TUPLES):
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
    check_hash_contract(roots)


@settings(max_examples=50, deadline=None)
@given(closed_roots())
def test_engine_values_of_different_classes_never_compare_equal(roots):
    check_classes_apart(values(roots))


def composed_roots():
    """A composite on each side and its successors: the composite syncs
    either way, and then one successor ticks and the other forks."""
    subject, gamma = parse("ctx 1. rcv(1).tick.0 + snd(1,1).(0 | tick.0)")
    test, ctx = parse("ctx 1. snd(1,1).0 + rcv(1).0")
    roots = [compose(root(subject, gamma), root(test, ctx), (1,)) for root in (root_strategy, root_process)]
    return roots + [nxt for root in roots for _, nxt in Explorer().steps(root)]


def test_every_value_class_is_slotted_and_keeps_the_contract():
    roots = composed_roots()
    assert check_hash_contract(roots) == set(SLOTTED) - BASIC_KINDS
    check_classes_apart(values(roots))


def test_engine_values_copy_and_pickle_as_themselves():
    found = values(composed_roots())
    assert {type(x) for x in found} >= set(TUPLES) - BASIC_KINDS
    check_copies(found)
    player = next(x for x in found if isinstance(x, PlayerState))
    assert player.arity == len(player.attach) == player.body.arity
    assert copy.copy(player) == player == pickle.loads(pickle.dumps(player))


def test_move_kinds_keep_the_contract():
    """All seven kinds, built directly: each hashes as its class name and
    fields, has no ``__dict__`` and copies and pickles as itself, and
    kinds of different classes with equal fields are never equal."""
    kinds = [Fork(2), ForkL(2), ForkR(2), Heartbeat(2), Input(2, 1), Output(2, 1, 2), Sync(1, 1, 2, 1, 2)]
    for k in kinds:
        assert hash(k) == hash(compared(k)) == hash(rebuild(k))
        assert not hasattr(k, "__dict__")
    check_copies(kinds)
    check_classes_apart(kinds)
    assert len(set(kinds[:4])) == 4
