import itertools

import pytest
from hypothesis import given, settings

from actorgame.term import (
    NIL,
    IllTyped,
    Par,
    ParseError,
    Recv,
    Send,
    Sum,
    Tick,
    canonical,
    ctx_after,
    enumerate_terms,
    max_term_size,
    parse,
    pretty,
    prefix_key,
    sort_key,
    term_depth,
    term_size,
    typecheck,
    unparse,
)
from gen import typed_terms
from oracles import count_terms


# ------------------------------------------------------------- parsing


def test_parse_simple():
    p, gamma = parse("ctx 2. snd(1,2).0")
    assert gamma == 2
    assert p == Sum(((Send(1, 2), NIL),))


def test_parse_nil_and_context():
    p, gamma = parse("ctx 0. 0")
    assert gamma == 0
    assert p == NIL


def test_parse_par_right_associated():
    p, _ = parse("ctx 0. 0 | 0 | tick.0")
    assert isinstance(p, Par)
    assert p.left == NIL
    assert isinstance(p.right, Par)


def test_parse_plus_binds_looser_than_dot():
    p, _ = parse("ctx 1. rcv(1).tick.0 + snd(1,1).0")
    assert isinstance(p, Sum)
    assert len(p.branches) == 2
    first, second = p.branches
    assert first[0] == Recv(1)
    assert first[1] == Sum(((Tick(), NIL),))
    assert second == (Send(1, 1), NIL)


def test_parse_parenthesized_par_as_continuation():
    p, _ = parse("ctx 1. rcv(1).(0 | 0)")
    (prefix, cont), = p.branches
    assert prefix == Recv(1)
    assert cont == Par(NIL, NIL)


def test_parse_whitespace_insensitive():
    a = parse("ctx 1.   rcv( 1 ) .\n tick . 0")
    b = parse("ctx 1. rcv(1).tick.0")
    assert a == b


@pytest.mark.parametrize(
    "text",
    [
        "",
        "ctx",
        "ctx 1",
        "ctx 1.",
        "ctx -1. 0",
        "ctx 1. 5",
        "ctx 1. snd(1).0",
        "ctx 1. rcv(0).0",
        "ctx 1. rcv(1)",
        "ctx 1. tick.0 +",
        "ctx 1. (tick.0",
        "ctx 1. tick.0 extra",
        "foo 1. 0",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as exc:
        parse("ctx 1.\nrcv(1)")
    assert exc.value.line == 2


# -------------------------------------------------------------- typing


def test_typecheck_ok():
    p, gamma = parse("ctx 2. rcv(1).snd(3,2).0")
    typecheck(p, gamma)


def test_recv_binds_one_index():
    p, _ = parse("ctx 0. tick.0")
    q = Sum(((Recv(1), NIL),))
    with pytest.raises(IllTyped):
        typecheck(q, 0)
    typecheck(q, 1)
    r = Sum(((Recv(1), Sum(((Recv(2), NIL),))),))
    typecheck(r, 1)
    with pytest.raises(IllTyped):
        typecheck(Sum(((Recv(1), Sum(((Recv(3), NIL),))),)), 1)


def test_par_children_typed_one_larger():
    inner = Sum(((Send(1, 1), NIL),))
    typecheck(Par(inner, NIL), 0)
    deeper = Sum(((Send(2, 2), NIL),))
    typecheck(Par(deeper, NIL), 1)
    with pytest.raises(IllTyped):
        typecheck(Par(deeper, NIL), 0)


def test_illtyped_reports_path():
    p = Par(NIL, Sum(((Send(9, 1), NIL),)))
    with pytest.raises(IllTyped) as exc:
        typecheck(p, 1)
    assert "right" in str(exc.value)
    assert exc.value.gamma == 2


def test_ctx_after():
    assert ctx_after(Recv(1), 4) == 5
    assert ctx_after(Send(1, 1), 4) == 4
    assert ctx_after(Tick(), 4) == 4


# ------------------------------------------------------------ printing


def test_pretty_parenthesizes_par():
    p, _ = parse("ctx 0. 0 | 0")
    assert pretty(p) == "(0 | 0)"


def test_pretty_parenthesizes_branching_continuations():
    p, _ = parse("ctx 1. rcv(1).(tick.0 + tick.0)")
    assert pretty(p) == "rcv(1).(tick.0 + tick.0)"


def test_unparse_roundtrip_examples(corpus):
    for gamma, terms in corpus.items():
        for t in terms:
            again, g2 = parse(unparse(t, gamma))
            assert again == t
            assert g2 == gamma


@settings(max_examples=150, deadline=None)
@given(typed_terms())
def test_unparse_roundtrip_random(tg):
    t, gamma = tg
    again, g2 = parse(unparse(t, gamma))
    assert again == t and g2 == gamma


# ------------------------------------------------------------ ordering


def test_prefix_key_orders_recv_send_tick():
    keys = [prefix_key(Tick()), prefix_key(Send(1, 2)), prefix_key(Recv(3))]
    assert sorted(keys) == [prefix_key(Recv(3)), prefix_key(Send(1, 2)), prefix_key(Tick())]


def test_canonical_sorts_and_is_idempotent():
    p, _ = parse("ctx 1. tick.0 + rcv(1).0 + snd(1,1).0")
    c = canonical(p)
    assert pretty(c) == "rcv(1).0 + snd(1,1).0 + tick.0"
    assert canonical(c) == c


def test_canonical_keeps_duplicates():
    p, _ = parse("ctx 1. rcv(1).0 + rcv(1).0")
    assert len(canonical(p).branches) == 2


def test_sort_key_injective_and_comparable(corpus):
    for terms in corpus.values():
        keys = [sort_key(t) for t in terms]
        sorted(keys)
        assert len(set(keys)) == len(terms)


# --------------------------------------------------------- enumeration


def test_sizes_and_depths():
    p, _ = parse("ctx 1. rcv(1).tick.0 + snd(1,1).0")
    assert term_size(p) == 1 + (1 + 3) + (1 + 1)
    assert term_depth(p) == 2
    assert term_size(NIL) == 1 and term_depth(NIL) == 0
    assert term_depth(Par(NIL, NIL)) == 1


def test_max_term_size_values():
    assert max_term_size(0, 2) == 1
    assert max_term_size(2, 2) == 13
    assert max_term_size(3, 2) == 29


@pytest.mark.parametrize(
    "gamma,depth,width,expected",
    [
        (0, 0, 2, 1),
        (0, 1, 1, 3),
        (0, 1, 2, 4),
        (1, 1, 2, 14),
        (2, 1, 2, 58),
        (0, 2, 2, 217),
    ],
)
def test_enumeration_counts_frozen(gamma, depth, width, expected):
    assert count_terms(gamma, depth, width) == expected
    assert sum(1 for _ in enumerate_terms(gamma, depth, width)) == expected


def test_enumeration_count_large_matches_oracle():
    # the criterion-6 suite size at context 1, depth 2
    assert count_terms(1, 2, 2) == 10847
    assert sum(1 for _ in enumerate_terms(1, 2, 2)) == 10847


def test_enumeration_is_exact_and_ordered():
    seen = set()
    last_size = 0
    for t in enumerate_terms(1, 2, 2):
        typecheck(t, 1)
        assert term_depth(t) <= 2
        assert t not in seen
        seen.add(t)
        assert term_size(t) >= last_size
        last_size = term_size(t)


def test_enumeration_prefix_is_stable():
    a = list(itertools.islice(enumerate_terms(2, 3, 2), 60))
    b = list(itertools.islice(enumerate_terms(2, 3, 2), 60))
    assert a == b


def test_enumeration_smallest_terms():
    first = list(itertools.islice(enumerate_terms(1, 2, 2), 5))
    assert first[0] == NIL
    assert parse("ctx 1. snd(1,1).0")[0] in first
