"""Hypothesis generators for random well-typed terms, and a stream of
the strategies that terms denote."""

from __future__ import annotations

from hypothesis import strategies as st

from actorgame.strategy import interpret
from actorgame.term import NIL, Par, Recv, Send, Sum, Tick, canonical, ctx_after, enumerate_terms


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
