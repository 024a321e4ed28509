import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actorgame.strategy import (
    Definite,
    MixedShapeWarning,
    definite,
    dump,
    interpret,
    key_arity,
    prefix_of_key,
    prefix_to_key,
    readback,
    seed_order,
)
from actorgame.term import NIL, IllTyped, Par, Recv, Send, Sum, Tick, canonical, parse, pretty
from gen import enumerate_pure, terms, typed_terms


def interp(text):
    p, gamma = parse(text)
    return interpret(p, gamma)


def keys(s):
    return tuple(k for k, _ in s.table)


# ---------------------------------------------------------------- tables


def test_seed_keys_in_table_order():
    keys = [
        ("in", 1),
        ("in", 2),
        ("out", 1, 1),
        ("out", 1, 2),
        ("out", 2, 1),
        ("out", 2, 2),
        ("heart",),
        ("forkL",),
        ("forkR",),
    ]
    assert keys == sorted(reversed(keys), key=seed_order)


def test_key_arity():
    assert key_arity(("in", 1), 3) == 4
    assert key_arity(("forkL",), 3) == 4
    assert key_arity(("forkR",), 0) == 1
    assert key_arity(("out", 1, 2), 3) == 3
    assert key_arity(("heart",), 3) == 3


def test_definite_normalizes_and_validates():
    d = definite(1, [(("heart",), (Definite(1),))])
    assert keys(d) == (("heart",),)
    with pytest.raises(ValueError):
        definite(1, [(("in", 2), (Definite(2),))])
    with pytest.raises(ValueError):
        definite(1, [(("heart",), (Definite(2),))])
    with pytest.raises(ValueError):
        definite(
            1,
            [
                (("heart",), (Definite(1),)),
                (("heart",), (Definite(1),)),
            ],
        )


def test_definite_drops_empty_entries():
    d = definite(1, [(("heart",), ())])
    assert d.table == ()
    # a dropped entry's key is still checked
    with pytest.raises(ValueError):
        definite(1, [(("in", 5), ())])


ONE = (Definite(1),)
TWO = (Definite(2),)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Definite(1, ((("heart",), ()),)),
        lambda: Definite(1, ((("heart",), ONE), (("out", 1, 1), ONE))),
        lambda: Definite(1, ((("heart",), ONE), (("heart",), ONE))),
        lambda: Definite(1, ((("in", 2), TWO),)),
        lambda: Definite(1, ((("out", 1, 2), ONE),)),
        lambda: Definite(1, ((("bogus",), ONE),)),
        lambda: Definite(1, ((("heart", 1), ONE),)),
        lambda: Definite(1, ((("heart",), TWO),)),
        lambda: Definite(1, ((("in", 1), ONE),)),
        lambda: Definite(1, ((("heart",), (Definite(1), Definite(2))),)),
        lambda: definite(1, [(("in",), TWO)]),
        lambda: definite(1, [(("bogus",), ONE)]),
    ],
    ids=[
        "empty entry",
        "keys out of order",
        "key repeated",
        "input key out of range",
        "output key out of range",
        "unknown key",
        "tick key with an argument",
        "entry of the wrong arity",
        "input entry of the wrong arity",
        "summand of another arity",
        "malformed key",
        "unknown key through definite",
    ],
)
def test_strategies_check_themselves(build):
    with pytest.raises(ValueError):
        build()


def test_lookup_total_with_empty_default():
    d = Definite(2)
    assert d.lookup(("in", 1)) == ()
    assert d.lookup(("out", 2, 1)) == ()


def test_restrict_indexes_summands():
    s = interp("ctx 1. rcv(1).0 + rcv(1).tick.0")
    summands = s.lookup(("in", 1))
    assert len(summands) == 2
    assert summands[0] == Definite(2)
    assert keys(summands[1]) == (("heart",),)
    with pytest.raises(IndexError):
        summands[2]


def test_validate_passes_on_corpus(corpus):
    # each table checks itself when it is built
    for gamma, terms in corpus.items():
        for t in terms:
            interpret(t, gamma)


# ------------------------------------------------------------ interpret


def test_interpret_nil_is_empty():
    assert interp("ctx 0. 0") == Definite(0)


def test_interpret_tick_single_entry():
    s = interp("ctx 0. tick.0")
    assert keys(s) == (("heart",),)
    assert s.lookup(("heart",)) == (Definite(0),)


def test_interpret_par_is_fork_shaped():
    s = interp("ctx 1. 0 | 0")
    assert keys(s) == (("forkL",), ("forkR",))
    assert s.lookup(("forkL",)) == (Definite(2),)


def test_interpret_groups_branches_by_prefix():
    s = interp("ctx 1. rcv(1).0 + tick.0 + rcv(1).tick.0")
    assert keys(s) == (("in", 1), ("heart",))
    assert len(s.lookup(("in", 1))) == 2


def test_interpret_typechecks():
    p, _ = parse("ctx 1. rcv(1).0")
    with pytest.raises(IllTyped):
        interpret(p, 0)


def test_interpret_recv_continuation_arity():
    s = interp("ctx 1. rcv(1).snd(2,2).0")
    cont = s.lookup(("in", 1))[0]
    assert cont.arity == 2
    assert keys(cont) == (("out", 2, 2),)


def test_prefix_key_conversions():
    for prefix in [Recv(2), Send(1, 3), Tick()]:
        assert prefix_of_key(prefix_to_key(prefix)) == prefix
    with pytest.raises(ValueError):
        prefix_of_key(("forkL",))
    with pytest.raises(TypeError, match="not a prefix"):
        prefix_to_key(NIL)


# ------------------------------------------------------------- readback


def test_readback_inverts_interpret_on_canonical_corpus(corpus):
    for gamma, terms in corpus.items():
        for t in terms:
            c = canonical(t)
            assert readback(interpret(c, gamma)) == c


@settings(max_examples=150, deadline=None)
@given(typed_terms())
def test_readback_inverts_interpret_random(tg):
    t, gamma = tg
    c = canonical(t)
    assert readback(interpret(c, gamma)) == c


def test_interpret_inverts_readback_on_pure(corpus):
    for gamma, terms in corpus.items():
        for t in terms[:40]:
            s = interpret(t, gamma)
            assert interpret(readback(s), gamma) == s


def test_readback_warns_and_drops_mixed_shape():
    mixed = definite(
        0,
        [
            (("heart",), (Definite(0),)),
            (("forkL",), (Definite(1),)),
        ],
    )
    with pytest.warns(MixedShapeWarning):
        t = readback(mixed)
    assert t == Sum(((Tick(), NIL),))


def test_readback_fork_requires_exact_shape():
    # two summands under forkL is not the image of a parallel term
    lopsided = definite(
        0,
        [
            (("forkL",), (Definite(1), Definite(1))),
            (("forkR",), (Definite(1),)),
        ],
    )
    with pytest.warns(MixedShapeWarning):
        t = readback(lopsided)
    assert t == NIL


def test_readback_emits_table_order():
    s = interp("ctx 1. tick.0 + snd(1,1).0 + rcv(1).0")
    assert pretty(readback(s)) == "rcv(1).0 + snd(1,1).0 + tick.0"


# ----------------------------------------------------------------- dump


def test_dump_goldens():
    assert dump(interp("ctx 0. 0")) == "strat-v1\n@0{}\n"
    assert dump(interp("ctx 0. tick.0")) == "strat-v1\n@0{heart:[@0{}]}\n"
    assert dump(interp("ctx 1. snd(2,2).0 | rcv(2).tick.0")) == (
        "strat-v1\n"
        "@1{forkL:[@2{out 2 2:[@2{}]}];forkR:[@2{in 2:[@3{heart:[@3{}]}]}]}\n"
    )


def test_dump_deterministic_under_branch_reordering():
    a = interp("ctx 1. tick.0 + rcv(1).0")
    b = interp("ctx 1. rcv(1).0 + tick.0")
    assert dump(a) == dump(b)
    assert a == b


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_strategies_are_totally_ordered(data):
    # a field that does not order would make a comparison raise
    gamma = data.draw(st.integers(0, 2))
    a, b, c = (interpret(data.draw(terms(gamma)), gamma) for _ in range(3))
    assert [a < b, b < a, a == b].count(True) == 1
    assert (a == b) == (dump(a) == dump(b))
    assert sorted([a, b, c]) == sorted([c, b, a])


# ------------------------------------------------------------ enumerate


def test_enumerate_pure_streams_valid_unique():
    seen = set()
    for s in itertools.islice(enumerate_pure(1, 2), 80):
        assert s not in seen
        seen.add(s)
        assert s.arity == 1


def test_enumerate_pure_is_interpret_image():
    for s in itertools.islice(enumerate_pure(2, 1), 40):
        assert interpret(readback(s), 2) == s
