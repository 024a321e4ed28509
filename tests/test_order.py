"""Every value orders itself: the native orders of terms, threads,
players and edge labels against the sort keys in ``oracles``."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from actorgame.arena import Fork, ForkL, ForkR, Heartbeat, Input, Output, Sync
from actorgame.fairtest import compose, gen_tests
from actorgame.lts import (
    ALab,
    PlayerState,
    StepLabel,
    Thread,
    closed_graph,
    interface_graph,
    root_process,
    root_strategy,
    strategy_lts,
)
from actorgame.strategy import interpret
from gen import terms
from oracles import interface_label_key, player_key, step_label_key, term_key, thread_key


def assert_sorts_as_key(xs, key):
    idx = range(len(xs))
    assert sorted(idx, key=lambda i: xs[i]) == sorted(idx, key=lambda i: key(xs[i]))


def assert_orders_agree(xs, key):
    """``sorted`` gives the permutation the key gives, and two values
    compare (``<`` and ``==``) as their keys do."""
    assert_sorts_as_key(xs, key)
    keys = [key(x) for x in xs]
    for a, ka in zip(xs, keys):
        for b, kb in zip(xs, keys):
            assert (a == b) == (ka == kb)
            assert (a < b) == (ka < kb)


@st.composite
def shuffled(draw, elements, max_size=10):
    """A nonempty list with repeats, in random order."""
    xs = draw(st.lists(elements, min_size=1, max_size=max_size))
    xs += draw(st.lists(st.sampled_from(xs), max_size=4))
    return draw(st.permutations(xs))


small = st.integers(1, 3)
tuples = st.lists(small, max_size=3).map(tuple)
any_terms = st.integers(0, 2).flatmap(lambda g: terms(g, 3))
threads = st.builds(Thread, any_terms, tuples)


@st.composite
def players(draw):
    gamma = draw(st.integers(0, 2))
    strat = interpret(draw(terms(gamma, 3)), gamma)
    return PlayerState(tuple(draw(small) for _ in range(gamma)), strat)


kinds = st.one_of(
    [st.builds(k, small) for k in (Fork, ForkL, ForkR, Heartbeat)]
    + [st.builds(Input, small, small), st.builds(Output, small, small, small)]
    + [st.builds(Sync, small, small, small, small, small)]
)
step_labels = st.builds(StepLabel, kinds, tuples, tuples)
tags = st.sampled_from(["tick", "in", "out", "forkL", "forkR", "link", "sync", "fork"])
interface_labels = st.builds(ALab, tags, tuples)


@settings(max_examples=150, deadline=None)
@given(
    shuffled(any_terms),
    shuffled(threads),
    shuffled(players()),
    shuffled(step_labels),
    shuffled(interface_labels),
)
def test_native_orders_match_keys(ts, ths, ps, sls, als):
    assert_orders_agree(ts, term_key)
    assert_orders_agree(ths, thread_key)
    assert_orders_agree(ps, player_key)
    assert_orders_agree(sls, step_label_key)
    assert_orders_agree(als, interface_label_key)


def test_native_orders_match_keys_on_corpus(small_corpus):
    """The values the package builds from the corpus: its terms, the
    actors and labels of its closed composites with every 20th of the
    first 200 generated tests on both sides, and its interface labels.
    All distinct values are shuffled and sorted; 150 drawn with repeats
    are compared pairwise."""
    keys = (term_key, thread_key, player_key, step_label_key, interface_label_key)
    found = {key: set() for key in keys}
    for gamma, ts in small_corpus.items():
        found[term_key].update(ts)
        tests = list(itertools.islice(gen_tests(gamma, 2), 0, 200, 20))
        for t in ts:
            for test in tests:
                for root, key in ((root_process, thread_key), (root_strategy, player_key)):
                    g = closed_graph(compose(root(t, gamma), root(test.proc, test.ctx), test.h))
                    found[key].update(a for s in g.states for a in s.actors)
                    found[step_label_key].update(label for out in g.edges for label, _ in out)
            for g in (interface_graph(root_process(t, gamma), enable_link=True), strategy_lts(t, gamma)):
                found[interface_label_key].update(label for out in g.edges for label, _ in out)
    rng = random.Random(7)
    for key, values in found.items():
        xs = sorted(values, key=key)
        rng.shuffle(xs)
        assert_sorts_as_key(xs, key)
        assert_orders_agree(rng.choices(xs, k=150), key)
