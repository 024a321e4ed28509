#!/usr/bin/env python3
"""Check the fair verdict search against the verdict read off the full
closed graph.

Every composite is decided in both modes by ``decide``, the search over
channel-normalised states that ``passes`` uses, by ``holds``, the same
search without a failure witness that ``eq_check`` uses, and by
``in_bot(closed_graph(root))``. The composites are the four subjects of
acceptance criterion 6 against every test of the context-1, depth-2
suite on both sides (86776 composites), and the three large closed
composites of the benchmark's ``closed`` workload on both sides. The
``decide`` verdicts must agree with the graph's on pass or fail and on
the failure witness, and the ``holds`` flags on pass or fail.

    PYTHONPATH=src python3 scripts/fair_differential.py

Takes about 35 s on a 2-vCPU host; prints the composites and verdicts
checked, the mismatches of each search and each mismatch, and the time.
Exits 1 on any mismatch.
"""

import sys
import time

from actorgame.fairtest import compose, decide, gen_tests, holds, in_bot
from actorgame.lts import ROOTS, closed_graph
from actorgame.term import parse

SUBJECTS = {
    "A": "ctx 1. rcv(1).tick.0",
    "B": "ctx 1. rcv(1).tick.0 + rcv(1).0",
    "C": "ctx 1. rcv(1).0 + rcv(1).0",
    "D": "ctx 1. rcv(1).0",
}
BIG = (
    "ctx 1. ((rcv(1).0 | snd(2,1).0) | (rcv(2).tick.0 | snd(2,2).0)) "
    "| ((tick.0 | rcv(1).0) | (snd(1,1).0 | rcv(3).0))"
)
PASS_SUBJECT = "ctx 1. rcv(1).tick.0 + snd(1,1).0"
FAIL_SUBJECT = "ctx 1. snd(1,1).rcv(1).0 + rcv(1).snd(1,1).0"
FAIL_TEST = (
    "ctx 1. ((rcv(1).tick.0 | rcv(1).0) | (snd(2,1).0 | rcv(2).0)) "
    "| ((rcv(2).0 | snd(2,2).0) | (snd(1,1).0 | rcv(3).0))"
)


def term(text):
    return parse(text)[0]


def composites():
    """(name, root) pairs: the suite composites, then the closed ones."""
    suite = list(gen_tests(1, 2))
    for name, text in SUBJECTS.items():
        subjects = [(side, root(term(text), 1)) for side, root in ROOTS.items()]
        for k, test in enumerate(suite):
            for side, subject in subjects:
                env = ROOTS[side](test.proc, test.ctx)
                yield f"{name} test#{k} {side}", compose(subject, env, test.h)
    for side, root in ROOTS.items():
        yield f"BIG {side}", root(term(BIG), 1)
    for name, subject, test in (
        ("PASS", PASS_SUBJECT, BIG),
        ("FAIL", FAIL_SUBJECT, FAIL_TEST),
    ):
        for side, root in ROOTS.items():
            yield f"{name} {side}", compose(root(term(subject), 1), root(term(test), 1), (1,))


def main() -> int:
    start = time.perf_counter()
    checked = verdicts = decide_mismatches = holds_mismatches = 0
    for name, root in composites():
        checked += 1
        g = closed_graph(root)
        for mode in ("weak", "strict"):
            verdicts += 1
            got, want = decide(root, mode), in_bot(g, mode)
            if got != want:
                decide_mismatches += 1
                print(f"mismatch {name} {mode}: search {got.render()!r}, graph {want.render()!r}")
            if holds(root, mode) != want.passed:
                holds_mismatches += 1
                print(f"mismatch {name} {mode}: holds {not want.passed}, graph {want.render()!r}")
    elapsed = time.perf_counter() - start
    print(
        f"composites {checked}, verdicts {verdicts}, mismatches {decide_mismatches} (decide) "
        f"{holds_mismatches} (holds), {elapsed:.1f}s"
    )
    return 1 if decide_mismatches or holds_mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
