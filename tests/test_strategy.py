import itertools

import pytest
from hypothesis import given, settings

from actorgame.strategy import (
    Definite,
    MixedShapeWarning,
    Plain,
    definite,
    dump,
    enumerate_pure,
    interpret,
    key_arity,
    prefix_of_key,
    prefix_to_key,
    readback,
    seed_keys,
    seed_order,
    strat_key,
    validate,
)
from actorgame.term import NIL, IllTyped, Par, Recv, Send, Sum, Tick, canonical, parse, pretty
from gen import typed_terms


def interp(text):
    p, gamma = parse(text)
    return interpret(p, gamma)


# ---------------------------------------------------------------- tables


def test_seed_keys_in_table_order():
    keys = seed_keys(2)
    assert keys == [
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
    assert keys == sorted(keys, key=seed_order)


def test_key_arity():
    assert key_arity(("in", 1), 3) == 4
    assert key_arity(("forkL",), 3) == 4
    assert key_arity(("forkR",), 0) == 1
    assert key_arity(("out", 1, 2), 3) == 3
    assert key_arity(("heart",), 3) == 3


def test_definite_normalizes_and_validates():
    d = definite(1, {("heart",): Plain(1, (Definite(1),))})
    assert d.keys() == (("heart",),)
    with pytest.raises(ValueError):
        definite(1, {("in", 2): Plain(2, (Definite(2),))})
    with pytest.raises(ValueError):
        definite(1, {("heart",): Plain(2, (Definite(2),))})
    with pytest.raises(ValueError):
        definite(
            1,
            [
                (("heart",), Plain(1, (Definite(1),))),
                (("heart",), Plain(1, (Definite(1),))),
            ],
        )


def test_definite_drops_empty_entries():
    d = definite(1, {("heart",): Plain(1)})
    assert d.table == ()


def test_lookup_total_with_empty_default():
    d = Definite(2)
    assert d.lookup(("in", 1)) == Plain(3)
    assert d.lookup(("out", 2, 1)) == Plain(2)


def test_restrict_indexes_summands():
    s = interp("ctx 1. rcv(1).0 + rcv(1).tick.0")
    plain = s.lookup(("in", 1))
    assert len(plain.summands) == 2
    assert plain.summands[0] == Definite(2)
    assert plain.summands[1].keys() == (("heart",),)
    with pytest.raises(IndexError):
        plain.summands[2]


def test_validate_passes_on_corpus(corpus):
    for gamma, terms in corpus.items():
        for t in terms:
            validate(interpret(t, gamma))


# ------------------------------------------------------------ interpret


def test_interpret_nil_is_empty():
    assert interp("ctx 0. 0") == Definite(0)


def test_interpret_tick_single_entry():
    s = interp("ctx 0. tick.0")
    assert s.keys() == (("heart",),)
    assert s.lookup(("heart",)) == Plain(0, (Definite(0),))


def test_interpret_par_is_fork_shaped():
    s = interp("ctx 1. 0 | 0")
    assert s.keys() == (("forkL",), ("forkR",))
    assert s.lookup(("forkL",)) == Plain(2, (Definite(2),))


def test_interpret_groups_branches_by_prefix():
    s = interp("ctx 1. rcv(1).0 + tick.0 + rcv(1).tick.0")
    assert s.keys() == (("in", 1), ("heart",))
    assert len(s.lookup(("in", 1)).summands) == 2


def test_interpret_typechecks():
    p, _ = parse("ctx 1. rcv(1).0")
    with pytest.raises(IllTyped):
        interpret(p, 0)


def test_interpret_recv_continuation_arity():
    s = interp("ctx 1. rcv(1).snd(2,2).0")
    cont = s.lookup(("in", 1)).summands[0]
    assert cont.arity == 2
    assert cont.keys() == (("out", 2, 2),)


def test_prefix_key_conversions():
    for prefix in [Recv(2), Send(1, 3), Tick()]:
        assert prefix_of_key(prefix_to_key(prefix)) == prefix
    with pytest.raises(ValueError):
        prefix_of_key(("forkL",))


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
        {
            ("heart",): Plain(0, (Definite(0),)),
            ("forkL",): Plain(1, (Definite(1),)),
        },
    )
    with pytest.warns(MixedShapeWarning):
        t = readback(mixed)
    assert t == Sum(((Tick(), NIL),))


def test_readback_fork_requires_exact_shape():
    # two summands under forkL is not the image of a parallel term
    lopsided = definite(
        0,
        {
            ("forkL",): Plain(1, (Definite(1), Definite(1))),
            ("forkR",): Plain(1, (Definite(1),)),
        },
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


def test_strat_key_injective_on_corpus(corpus):
    for gamma, terms in corpus.items():
        strategies = [interpret(t, gamma) for t in terms]
        keys = {strat_key(s) for s in strategies}
        distinct = {s for s in strategies}
        assert len(keys) == len(distinct)


# ------------------------------------------------------------ enumerate


def test_enumerate_pure_streams_valid_unique():
    seen = set()
    for s in itertools.islice(enumerate_pure(1, 2), 80):
        validate(s)
        k = strat_key(s)
        assert k not in seen
        seen.add(k)
        assert s.arity == 1


def test_enumerate_pure_is_interpret_image():
    for s in itertools.islice(enumerate_pure(2, 1), 40):
        assert interpret(readback(s), 2) == s
