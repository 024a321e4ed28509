"""Hypothesis generators for random well-typed and possibly ill-typed
terms, and a stream of the strategies that terms denote."""

from __future__ import annotations

from hypothesis import strategies as st

from actorgame.strategy import interpret
from actorgame.term import NIL, Par, Recv, Send, Sum, Tick, canonical, enumerate_terms
from oracles import ctx_after


@st.composite
def prefixes(draw, gamma: int):
    kinds = ["tick"]
    if gamma > 0:
        kinds += ["recv", "send"]
    kind = draw(st.sampled_from(kinds))
    if kind == "tick":
        return Tick()
    if kind == "recv":
        return Recv(draw(st.integers(1, gamma)))
    return Send(draw(st.integers(1, gamma)), draw(st.integers(1, gamma)))


@st.composite
def terms(draw, gamma: int, depth: int = 3, width: int = 2):
    """A random process well typed at context ``gamma``."""
    if depth == 0:
        return NIL
    shape = draw(st.sampled_from(["nil", "sum", "sum", "par"]))
    if shape == "nil":
        return NIL
    if shape == "par":
        return Par(
            draw(terms(gamma + 1, depth - 1, width)),
            draw(terms(gamma + 1, depth - 1, width)),
        )
    k = draw(st.integers(1, width))
    branches = []
    for _ in range(k):
        prefix = draw(prefixes(gamma))
        cont = draw(terms(ctx_after(prefix, gamma), depth - 1, width))
        branches.append((prefix, cont))
    return Sum(tuple(branches))


@st.composite
def loose_terms(draw, gamma: int, depth: int = 3):
    """A random process whose channel indices range over 0..gamma+1 at
    each node, and which now and then holds a process where a prefix
    belongs or a prefix where a process belongs: it may be ill typed at
    any node, or well typed."""
    shape = draw(st.sampled_from(["nil", "sum", "sum", "sum", "par", "par", "junk"]))
    if depth == 0 or shape == "nil":
        return NIL
    if shape == "junk":
        return Tick()
    if shape == "par":
        return Par(draw(loose_terms(gamma + 1, depth - 1)), draw(loose_terms(gamma + 1, depth - 1)))
    index = st.integers(0, gamma + 1)
    branches = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["recv", "send", "tick", "recv", "send", "tick", "junk"]))
        if kind == "recv":
            prefix, inner = Recv(draw(index)), gamma + 1
        elif kind == "send":
            prefix, inner = Send(draw(index), draw(index)), gamma
        else:
            prefix, inner = (Tick() if kind == "tick" else NIL), gamma
        branches.append((prefix, draw(loose_terms(inner, depth - 1))))
    return Sum(tuple(branches))


@st.composite
def typed_terms(draw, max_gamma: int = 2, depth: int = 3):
    gamma = draw(st.integers(0, max_gamma))
    return draw(terms(gamma, depth)), gamma


def enumerate_pure(arity: int, depth: int, width: int = 2):
    """Stream the fork-free or exactly-fork-shaped strategies, smallest
    first, each exactly once. Mirrors the term enumerator through
    ``interpret``; used to synthesize strategy corpora directly."""
    seen = set()
    for t in enumerate_terms(arity, depth, width):
        s = interpret(canonical(t), arity)
        if s not in seen:
            seen.add(s)
            yield s
