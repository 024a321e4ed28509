"""Pinned inputs, known answers and the four workloads.

Each workload is one pass of work, run in a fresh process by
``unit.py``. A pass is a list of operations; each operation calls a
public entry point of ``actorgame`` (``cli.main`` in-process, or a
library call the README documents), is timed on its own, and is
checked against its known answer. The program only ever sees term
text: the pinned texts below, or the corpus that ``corpus_texts``
draws from the seed.

Every call goes through a module attribute looked up at call time
(``ag.cli.main``, ``ag.weak_bisim``), so the tracing wrappers that
``tracing.py`` installs see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

# ------------------------------------------------------- pinned inputs

# The suite subjects (paper criterion 6): C and D agree on every test,
# A and B are told apart.
C = "ctx 1. rcv(1).0 + rcv(1).0"
D = "ctx 1. rcv(1).0"
A = "ctx 1. rcv(1).tick.0"
B = "ctx 1. rcv(1).tick.0 + rcv(1).0"

# The closed-world composites: BIG has 3362 closed states on either side.
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

# One large interface-graph pair: 49866 states per side.
W50K = (
    "ctx 0. (snd(1,1).tick.0 + rcv(1).tick.0) | ((snd(2,2).rcv(2).0 + rcv(1).0) "
    "| ((rcv(1).snd(3,3).tick.0 | snd(1,1).rcv(1).0) | (snd(1,2).0 | rcv(1).snd(1,1).0)))"
)

# sha256 of `lts BIG --world closed` stdout per side, from the first
# commit that carries this benchmark: the output must stay byte-identical.
BIG_LTS_SHA256 = {
    "strategy": "1adc4d3b8a375f8e2512b599f0360abcaf8a8cda2b936719630f9d380456ff3d",
    "process": "27109f3fd187ba562721552b51f05edf0f338377415787e9f7b6b754ead285ac",
}

CORPUS_SIZE = 1500
CORPUS_DEPTH = 3
CORPUS_WIDTH = 2
CORPUS_MAX_CTX = 2
CORPUS_PINNED_PARS = 3

WHY = {
    "suite": "10847-test fair suite on both sides: fixed cost per 2.7-state composite, no weak_bisim",
    "closed": "three large closed-world composites on both sides: per-state step cost, early-exit fail vs pass",
    "bisim": "W50k interface graphs and weak_bisim: interface build, tau closure, refinement, peak memory",
    "corpus": "1500 small terms, stratified by parallel count, through parse, interpret, readback, bisim and dot: per-call overhead",
}


def count_terms(gamma: int, depth: int, width: int) -> int:
    """Terms at context gamma up to depth and width, by recurrence:
    the inert process, 1..width branches, or a parallel pair typed one
    context larger. Independent of the enumerator it checks."""
    if depth == 0:
        return 1
    branches = gamma * count_terms(gamma + 1, depth - 1, width) + (
        gamma * gamma + 1
    ) * count_terms(gamma, depth - 1, width)
    pair = count_terms(gamma + 1, depth - 1, width) ** 2
    return 1 + sum(branches**k for k in range(1, width + 1)) + pair


SUITE_SIZE = count_terms(1, 2, 2)


def position_dot(gamma: int) -> str:
    """Expected Graphviz text of one player attached to channels 1..gamma."""
    lines = ["digraph position {", "  rankdir=LR;"]
    lines += [f'  c{i} [shape=ellipse label="c{i}"];' for i in range(gamma)]
    lines.append(f'  p0 [shape=box label="{gamma}"];')
    lines += [f'  p0 -> c{i} [label="{i + 1}"];' for i in range(gamma)]
    return "\n".join(lines + ["}"]) + "\n"


# ------------------------------------------------------------- corpus


def _prefix(rng: random.Random, gamma: int) -> tuple[str, int]:
    kinds = ["tick"] + (["recv", "send"] if gamma > 0 else [])
    kind = rng.choice(kinds)
    if kind == "tick":
        return "tick", gamma
    if kind == "recv":
        return f"rcv({rng.randint(1, gamma)})", gamma + 1
    return f"snd({rng.randint(1, gamma)},{rng.randint(1, gamma)})", gamma


def _term(rng: random.Random, gamma: int, depth: int, width: int) -> str:
    """A random process text well typed at context gamma, in the shape
    of the property-test generator: nil, a sum (twice as likely) or a
    parallel pair whose halves see one fresh channel."""
    if depth == 0:
        return "0"
    shape = rng.choice(["nil", "sum", "sum", "par"])
    if shape == "nil":
        return "0"
    if shape == "par":
        left = _term(rng, gamma + 1, depth - 1, width)
        right = _term(rng, gamma + 1, depth - 1, width)
        return f"({left} | {right})"
    branches = []
    for _ in range(rng.randint(1, width)):
        prefix, g2 = _prefix(rng, gamma)
        branches.append(f"{prefix}.({_term(rng, g2, depth - 1, width)})")
    return " + ".join(branches)


def par_count_shares() -> dict[int, Fraction]:
    """Exact distribution of the number of parallel compositions in a
    term drawn by ``_term``; prefixes do not change the shape."""

    def add(a: dict, b: dict) -> dict:
        out: dict[int, Fraction] = {}
        for i, p in a.items():
            for j, q in b.items():
                out[i + j] = out.get(i + j, Fraction(0)) + p * q
        return out

    dist = {0: Fraction(1)}
    for _ in range(CORPUS_DEPTH):
        nxt = {0: Fraction(1, 4)}  # nil
        for k, p in add(dist, dist).items():  # par
            nxt[k + 1] = nxt.get(k + 1, Fraction(0)) + p / 4
        branches = {0: Fraction(1)}
        for _ in range(CORPUS_WIDTH):  # a sum of 1..width branches
            branches = add(branches, dist)
            for k, p in branches.items():
                nxt[k] = nxt.get(k, Fraction(0)) + p / (2 * CORPUS_WIDTH)
        dist = nxt
    return dist


def corpus_quotas(size: int = CORPUS_SIZE) -> dict[int, int]:
    """Terms per parallel-composition count: the exact shares of
    ``par_count_shares`` scaled to ``size``, by largest remainder."""
    shares = par_count_shares()
    quota = {k: int(p * size) for k, p in shares.items()}
    by_remainder = sorted(shares, key=lambda k: (quota[k] - shares[k] * size, k))
    for k in by_remainder[: size - sum(quota.values())]:
        quota[k] += 1
    return {k: n for k, n in quota.items() if n}


def _draw(rng: random.Random, quota: dict[int, int]) -> list[tuple[str, int]]:
    left, out = dict(quota), []
    while any(left.values()):
        gamma = rng.randint(0, CORPUS_MAX_CTX)
        body = _term(rng, gamma, CORPUS_DEPTH, CORPUS_WIDTH)
        k = body.count("|")
        if left.get(k, 0):
            left[k] -= 1
            out.append((f"ctx {gamma}. {body}", gamma))
    return out


def corpus_texts(seed: int, size: int = CORPUS_SIZE) -> list[tuple[str, int]]:
    """The corpus as (source text, context size) pairs, stratified by
    the number of parallel compositions. Terms with fewer than
    ``CORPUS_PINNED_PARS`` are drawn from ``seed``; the few heavier ones
    (11% of the terms, about half of the time, and every term of the
    latency tail) come from the fixed seed 0, because a seeded draw of
    them moved op_tail_ms by about 30% from seed to seed. The seed
    also fixes the order."""
    quota = corpus_quotas(size)
    rng = random.Random(seed)
    light = _draw(rng, {k: n for k, n in quota.items() if k < CORPUS_PINNED_PARS})
    heavy = _draw(random.Random(0), {k: n for k, n in quota.items() if k >= CORPUS_PINNED_PARS})
    texts = light + heavy
    rng.shuffle(texts)
    return texts


# --------------------------------------------------------- operations


@dataclass
class Outcome:
    """What one pass did: per-operation latency and the failed checks.
    ``spans`` holds the perf_counter readings each operation began and
    ended at."""

    latencies: dict[str, float] = field(default_factory=dict)
    spans: dict[str, tuple[float, float]] = field(default_factory=dict)
    verdicts: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def run_cli(ag, argv: list[str]) -> tuple[int, str]:
    """Run the command line in-process and capture what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ag.cli.main(argv)
    return code, out.getvalue()


def _timed(outcome: Outcome, name: str, fn: Callable[[], None]) -> None:
    """Run one operation now and time it; an exception counts as a failed check."""
    start = time.perf_counter()
    try:
        fn()
    except Exception as exc:  # a raising operation is a wrong answer, not a crash
        outcome.check(name, False, f"raised {type(exc).__name__}: {exc}")
    finally:
        end = time.perf_counter()
        outcome.latencies[name] = end - start
        outcome.spans[name] = (start, end)


class Workload:
    """Set-up (untimed, part of setup_s) and one timed pass."""

    name = ""

    def __init__(self, ag, seed: int, workdir: Path):
        self.ag = ag
        self.seed = seed
        self.workdir = workdir

    def write(self, name: str, text: str) -> str:
        path = self.workdir / f"{name}.act"
        path.write_text(text + "\n", encoding="utf-8")
        return str(path)

    def run(self) -> Outcome:
        raise NotImplementedError


class Suite(Workload):
    name = "suite"

    def __init__(self, ag, seed, workdir):
        super().__init__(ag, seed, workdir)
        self.files = {n: self.write(n, t) for n, t in dict(a=A, b=B, c=C, d=D).items()}

    def run(self) -> Outcome:
        o = Outcome()
        f, seed = self.files, str(self.seed)
        expected = f"checked {SUITE_SIZE} tests\nRESULT equivalent-on-suite\n"
        for side in ("game", "process"):
            name = f"eq_cd_{side}"

            def op():
                code, out = run_cli(
                    self.ag, ["eq", f["c"], f["d"], "--gen", "2", "--side", side, "--seed", seed]
                )
                o.check(name, code == 0 and out == expected, f"exit {code}, output {out!r}")
                if code == 0:
                    o.verdicts += SUITE_SIZE

            _timed(o, name, op)

        def op_ab():
            code, out = run_cli(self.ag, ["eq", f["a"], f["b"], "--gen", "2", "--seed", seed])
            last = out.splitlines()[-1] if out else ""
            ok = code == 1 and last.startswith("RESULT distinguished test#")
            o.check("eq_ab", ok, f"exit {code}, last line {last!r}")
            if ok:
                o.verdicts += int(last.rsplit("#", 1)[1]) + 1

        _timed(o, "eq_ab", op_ab)
        return o


class Closed(Workload):
    name = "closed"

    def __init__(self, ag, seed, workdir):
        super().__init__(ag, seed, workdir)
        self.files = {
            n: self.write(n, t)
            for n, t in dict(
                big=BIG, pass_subject=PASS_SUBJECT, fail_subject=FAIL_SUBJECT, fail_test=FAIL_TEST
            ).items()
        }

    def run(self) -> Outcome:
        o = Outcome()
        f = self.files
        for side in ("strategy", "process"):
            name = f"lts_big_{side}"

            def op():
                code, out = run_cli(self.ag, ["lts", f["big"], "--world", "closed", "--side", side])
                digest = hashlib.sha256(out.encode()).hexdigest()
                o.check(
                    name,
                    code == 0 and digest == BIG_LTS_SHA256[side],
                    f"exit {code}, stdout sha256 {digest}",
                )
                o.verdicts += 1

            _timed(o, name, op)
        for subject, test, verdict, want_code in (
            ("pass_subject", "big", "pass", 0),
            ("fail_subject", "fail_test", "fail", 1),
        ):
            for side in ("game", "process"):
                name = f"fair_{verdict}_{side}"

                def op():
                    code, out = run_cli(self.ag, ["fair", f[subject], "--test", f[test], "--side", side])
                    ok = code == want_code and (
                        out == "RESULT pass\n" if verdict == "pass" else out.startswith("RESULT fail witness: ")
                    )
                    o.check(name, ok, f"exit {code}, output {out[:80]!r}")
                    o.verdicts += 1

                _timed(o, name, op)
        return o


class Bisim(Workload):
    name = "bisim"

    def __init__(self, ag, seed, workdir):
        super().__init__(ag, seed, workdir)
        self.proc, self.gamma = ag.parse(W50K)

    def run(self) -> Outcome:
        o = Outcome()
        ag, graphs = self.ag, {}

        def build(side):
            fn = ag.process_lts if side == "process" else ag.strategy_lts
            graphs[side] = fn(self.proc, self.gamma)

        _timed(o, "process_lts", lambda: build("process"))
        _timed(o, "strategy_lts", lambda: build("strategy"))

        def check():
            res = ag.weak_bisim(graphs["process"], graphs["strategy"])
            o.check("weak_bisim", res.equivalent, "W50k sides not weakly bisimilar")
            o.verdicts += 1

        _timed(o, "weak_bisim", check)
        return o


class Corpus(Workload):
    name = "corpus"

    def __init__(self, ag, seed, workdir):
        super().__init__(ag, seed, workdir)
        self.texts = corpus_texts(seed)

    def run(self) -> Outcome:
        o = Outcome()
        ag = self.ag
        for k, (text, gamma) in enumerate(self.texts):
            name = f"term{k}"

            def op():
                p, g = ag.parse(text)
                q, g2 = ag.parse(ag.unparse(p, g))
                o.check(name + ".roundtrip", (q, g2) == (p, g) and g == gamma, text)
                ag.typecheck(p, g)
                sgraph = ag.strategy_lts(p, g)
                res = ag.weak_bisim(ag.process_lts(p, g), sgraph)
                o.check(name + ".adequacy", res.equivalent, text)
                back = ag.readback(ag.interpret(p, g))
                res = ag.weak_bisim(ag.strategy_lts(back, g), sgraph)
                o.check(name + ".definability", res.equivalent, text)
                dot = ag.arena.to_dot(ag.lts.arena_position(ag.root_strategy(p, g)))
                o.check(name + ".dot", dot == position_dot(g), text)
                o.verdicts += 1

            _timed(o, name, op)
        return o


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Suite, Closed, Bisim, Corpus)}
