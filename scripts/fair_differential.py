#!/usr/bin/env python3
"""Check the fair verdict search against the verdict read off the full
closed graph, and the suite's one-run-per-key memo against a suite run
without it.

Every composite is decided in both modes by ``decide``, the search over
int-coded forms that ``passes`` uses, by the pass flag that ``settle``
gives first, before any failure witness, which the suite and so
``eq_check`` read, and by the reference ``in_bot(closed_graph(root))``
of ``tests/oracles.py``. The composites are the four subjects of
acceptance criterion 6 against every test of the context-1, depth-2
suite on both sides (86776 composites), and the three large closed
composites of the benchmark's ``closed`` workload on both sides. The
``decide`` verdicts must agree with the graph's on pass or fail and on
the failure witness, and the ``settle`` flags on pass or fail. The walk
that gives a weak failure's witness must meet no form that the search
for its distance did not.

The memo checks: for each of the six pairs of the four subjects, on
both sides and in both modes, ``eq_check`` must return, field by field,
the ``EqResult`` of a reference loop that compares the graph's pass
flags of every test's composites; and ``fair --gen 2`` must print, for each
subject, side and mode, the stdout whose sha256 the suite loop without
the memo printed.

    PYTHONPATH=src python3 scripts/fair_differential.py

Takes about 50 s on a 2-vCPU host; prints the composites and verdicts
checked, the mismatches of each search, of the witness walk and of the
memo checks, each mismatch, and the time. Exits 1 on any mismatch.
"""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import sys
import tempfile
import time
from pathlib import Path

from actorgame import cli
from actorgame.fairtest import EqResult, _Ranks, _Search, compose, decide, eq_check, gen_tests, settle
from actorgame.lts import ROOTS, closed_graph
from actorgame.term import parse

# the reference verdict is a test-side oracle
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import in_bot  # noqa: E402

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
MODES = ("weak", "strict")
SUITE = list(gen_tests(1, 2))

# sha256 of `fair <subject> --gen 2 --side <side> --bot <mode>` stdout,
# printed by the suite loop that decided every test
FAIR_GEN_SHA256 = {
    ("A", "strategy", "weak"): "ec66d08849015e7d8c5bc0154116e707c6d1809f8643090ada4c5ef9f40c2152",
    ("A", "strategy", "strict"): "0726cec1964941ead1efed32e9d53ab0efc5aef5687d412252b1630d69369320",
    ("A", "process", "weak"): "a4e7883ccd46fb54600928795f9bb50d0eb15b1c0f7f821aca7a8770898a4c68",
    ("A", "process", "strict"): "298734af8c46ea179abe3c9ba5230120bedb62c66d4349be10355ded6a76bfb0",
    ("B", "strategy", "weak"): "d59c919d30b14a7584a01ec30096d1e5804ed6f2ad63e5252a8c4abfc42d0ce7",
    ("B", "strategy", "strict"): "c9001cec1d39787045d1e689f7fd6bbdf0a4bab43ae655440d0d08a44870ce8e",
    ("B", "process", "weak"): "6f94190916b7d0e8f8cdc25b6c1235409497cdd35c818c05f5c32208da05fc82",
    ("B", "process", "strict"): "2ce482cdd6831402a84fb912db284ea497939dc8f7df64b9256da3dac495a127",
    ("C", "strategy", "weak"): "b634aeac5c017d504563e010e1fb972f47434fb47fd66aa27e0dc8c12d5918b2",
    ("C", "strategy", "strict"): "87cafbba55b78a413c8e8a8502aea5c3dd2b3e1a67d13752cea13781bb33b017",
    ("C", "process", "weak"): "259082d61a8f158f3e91eb7b601ecabf3a781677c51aaac4244e445d9fe73c5d",
    ("C", "process", "strict"): "e1e71a6a09a399001fe389412fca2a6a9bee979fc878a9b7b6da849328eb9e40",
    ("D", "strategy", "weak"): "b634aeac5c017d504563e010e1fb972f47434fb47fd66aa27e0dc8c12d5918b2",
    ("D", "strategy", "strict"): "2a53d9b44e0e8b4c8f7573e04c26ec021f661459f156d4bb81e65b591cc274cc",
    ("D", "process", "weak"): "3d8076e8710ca28a304ce79bf63659c9160edad06277fa15f2b4b8975854ef49",
    ("D", "process", "strict"): "e1e71a6a09a399001fe389412fca2a6a9bee979fc878a9b7b6da849328eb9e40",
}


def term(text):
    return parse(text)[0]


def composites():
    """(name, suite, root) triples: the suite composites, then the closed
    ones. ``suite`` is a suite composite's subject and side, else None."""
    for name, text in SUBJECTS.items():
        subjects = [(side, root(term(text), 1)) for side, root in ROOTS.items()]
        for k, test in enumerate(SUITE):
            for side, subject in subjects:
                env = ROOTS[side](test.proc, test.ctx)
                yield f"{name} test#{k} {side}", (name, side), compose(subject, env, test.h)
    for side, root in ROOTS.items():
        yield f"BIG {side}", None, root(term(BIG), 1)
    for name, subject, test in (
        ("PASS", PASS_SUBJECT, BIG),
        ("FAIL", FAIL_SUBJECT, FAIL_TEST),
    ):
        for side, root in ROOTS.items():
            yield f"{name} {side}", None, compose(root(term(subject), 1), root(term(test), 1), (1,))


def walk_meets_a_new_form(root) -> bool:
    """Whether walking the witness of a weak failure meets a form that the
    search for its distance did not."""
    search = _Search(_Ranks())
    top = search.distance(search.ranks.form(root))
    met = len(search.forms)
    try:
        search.witness(root, int(top))
    except KeyError:  # the walk read a form the search never met
        return True
    return len(search.forms) != met


def reference_eq(left, right, side, mode, flags):
    """``eq_check`` of two subjects on the suite without the memo: the
    graph's pass flags of every test's two composites, compared in suite
    order; only the first test whose flags differ is decided."""
    for k, test in enumerate(SUITE):
        if flags[left, side, mode][k] != flags[right, side, mode][k]:
            sl, sr = (
                compose(ROOTS[side](term(SUBJECTS[s]), 1), ROOTS[side](test.proc, test.ctx), test.h)
                for s in (left, right)
            )
            return EqResult(False, k + 1, test, decide(sl, mode), decide(sr, mode))
    return EqResult(True, len(SUITE))


def eq_mismatches(flags) -> int:
    mismatches = 0
    for left, right in itertools.combinations(SUBJECTS, 2):
        for side in ROOTS:
            for mode in MODES:
                got = eq_check(term(SUBJECTS[left]), term(SUBJECTS[right]), 1, SUITE, side, mode)
                want = reference_eq(left, right, side, mode, flags)
                differ = [
                    f.name
                    for f in dataclasses.fields(EqResult)
                    if getattr(got, f.name) != getattr(want, f.name)
                ]
                if differ:
                    mismatches += 1
                    print(f"mismatch eq {left} {right} {side} {mode}: fields {', '.join(differ)}")
    return mismatches


def fair_gen_mismatches() -> int:
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in SUBJECTS.items():
            path = Path(tmp) / f"{name}.act"
            path.write_text(text + "\n", encoding="utf-8")
            for side in ROOTS:
                for mode in MODES:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        cli.main(["fair", str(path), "--gen", "2", "--side", side, "--bot", mode])
                    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
                    if digest != FAIR_GEN_SHA256[name, side, mode]:
                        mismatches += 1
                        print(f"mismatch fair {name} --gen 2 {side} {mode}: stdout sha256 {digest}")
    return mismatches


def main() -> int:
    start = time.perf_counter()
    checked = verdicts = decide_mismatches = settle_mismatches = walk_mismatches = 0
    flags = {}  # (subject, side, mode) -> the graph's pass flag of each suite test
    for name, suite, root in composites():
        checked += 1
        g = closed_graph(root)
        for mode in MODES:
            verdicts += 1
            ranks = _Ranks()
            got, want = decide(root, mode), in_bot(g, mode)
            passed = settle(ranks, ranks.form(root), lambda: root, mode)[0]
            if got != want:
                decide_mismatches += 1
                print(f"mismatch {name} {mode}: search {got.render()!r}, graph {want.render()!r}")
            if passed != want.passed:
                settle_mismatches += 1
                print(f"mismatch {name} {mode}: settle {passed}, graph {want.render()!r}")
            if mode == "weak" and not want.passed and walk_meets_a_new_form(root):
                walk_mismatches += 1
                print(f"mismatch {name}: the witness walk met a new form")
            if suite:
                flags.setdefault((*suite, mode), []).append(want.passed)
    memo = eq_mismatches(flags) + fair_gen_mismatches()
    elapsed = time.perf_counter() - start
    print(
        f"composites {checked}, verdicts {verdicts}, mismatches {decide_mismatches} (decide) "
        f"{settle_mismatches} (settle) {walk_mismatches} (walk) {memo} (memo), {elapsed:.1f}s"
    )
    return 1 if decide_mismatches or settle_mismatches or walk_mismatches or memo else 0


if __name__ == "__main__":
    sys.exit(main())
