"""Command line front end.

Subcommands:

  parse   check a term file and echo the normalized form
  interp  print the strategy a term denotes
  lts     print a transition graph, interface or closed world
  fair    run one fair test or a generated suite against a subject
  eq      compare two subjects, by test suite or by weak bisimulation
  dot     render positions, moves and plays as Graphviz source

Exit codes: 0 success (pass, equivalent), 1 refuted (fail,
distinguished), 2 usage or input errors. Diagnostics go to stderr;
stdout is deterministic for fixed inputs. Suite order is the
enumeration order unless --seed shuffles it.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
from typing import Iterable

from .arena import to_dot
from .fairtest import Test, eq_check, gen_tests, passes, suite_verdicts
from .lts import (
    ROOTS,
    arena_position,
    arena_trace,
    closed_graph,
    interface_graph,
    root_strategy,
    weak_bisim,
)
from .strategy import dump, interpret
from .term import IllTyped, ParseError, parse, typecheck, unparse


def _suite(args: argparse.Namespace, gamma: int) -> Iterable[Test]:
    """The generated suite: depth ``--gen`` and width ``--width``, 2 unless
    given, cut at ``--limit``. Its tests are drawn as they are asked
    for, unless ``--seed`` shuffles them: then they are listed first."""
    for option, value in (("--gen", args.gen), ("--width", args.width), ("--limit", args.limit)):
        if value is not None and value < 0:
            raise ValueError(f"{option} must be at least 0, got {value}")
    depth = 2 if args.gen is None else args.gen
    stream = gen_tests(gamma, depth, 2 if args.width is None else args.width)
    if args.limit is not None:
        stream = itertools.islice(stream, args.limit)
    if args.seed is None:
        return stream
    tests = list(stream)
    random.Random(args.seed).shuffle(tests)
    return tests


def _refuse(args: argparse.Namespace, why: str, *options: str) -> None:
    """Refuse each of ``options`` that is given: it ``why``."""
    for option in options:
        if getattr(args, option[2:]) is not None:
            raise ValueError(f"{option} {why}")


def _read_term(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    proc, gamma = parse(text)
    typecheck(proc, gamma)
    return proc, gamma


def _render_test(test: Test) -> str:
    h = ",".join(str(c) for c in test.h)
    return f"h=({h}) {unparse(test.proc, test.ctx)}"


def cmd_parse(args: argparse.Namespace) -> int:
    proc, gamma = _read_term(args.file)
    print(unparse(proc, gamma))
    return 0


def cmd_interp(args: argparse.Namespace) -> int:
    proc, gamma = _read_term(args.file)
    sys.stdout.write(dump(interpret(proc, gamma)))
    return 0


def cmd_lts(args: argparse.Namespace) -> int:
    proc, gamma = _read_term(args.file)
    if args.world == "closed":
        if args.enable_link:
            raise ValueError("--enable-link needs --world interface: a closed world has no links")
        graph = closed_graph(ROOTS[args.side](proc, gamma))
    else:
        graph = interface_graph(ROOTS[args.side](proc, gamma), enable_link=args.enable_link)
    sys.stdout.write(graph.dump())
    return 0


def _parse_map(text: str, gamma: int) -> tuple[int, ...]:
    try:
        h = tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise ValueError(f"bad handle map {text!r}: expected comma separated integers")
    if len(h) != gamma:
        raise ValueError(f"handle map has {len(h)} entries, subject needs {gamma}")
    return h


def cmd_fair(args: argparse.Namespace) -> int:
    subject, gamma = _read_term(args.file)
    if (args.test is None) == (args.gen is None):
        raise ValueError("fair needs exactly one of --test FILE or --gen DEPTH")
    if args.test is None:
        _refuse(args, "needs --test: generated tests carry their own handle maps", "--map")
    else:
        why = "needs a generated suite: --test runs a single test"
        _refuse(args, why, "--width", "--limit", "--seed")
        tproc, tctx = _read_term(args.test)
        if args.map is not None:
            test = Test(_parse_map(args.map, gamma), tctx, tproc)
        else:
            if tctx != gamma:
                raise ValueError(
                    f"test context {tctx} differs from subject context {gamma}; "
                    "give an explicit --map"
                )
            test = Test(range(1, gamma + 1), gamma, tproc)
        verdict = passes(subject, gamma, test, args.side, args.bot)
        print(f"RESULT {verdict.render()}")
        return 0 if verdict.passed else 1
    drawn = failures = 0
    suite = suite_verdicts([subject], gamma, _suite(args, gamma), args.side, args.bot)
    for drawn, (_, (passed,), verdicts) in enumerate(suite, 1):
        failures += not passed
        print(f"test#{drawn - 1} {'pass' if passed else verdicts()[0].render()}")
    print(f"RESULT {drawn - failures}/{drawn} pass")
    return 0 if failures == 0 else 1


def cmd_eq(args: argparse.Namespace) -> int:
    left, gl = _read_term(args.left)
    right, gr = _read_term(args.right)
    if gl != gr:
        raise ValueError(f"subjects have different contexts: {gl} and {gr}")
    if args.bisim:
        why = "needs a generated suite: --bisim runs no test suite"
        _refuse(args, why, "--gen", "--width", "--limit", "--seed")
        _refuse(args, "needs a fair test: --bisim runs none", "--bot")
        root = ROOTS[args.side]
        res = weak_bisim(interface_graph(root(left, gl)), interface_graph(root(right, gr)))
        if res.equivalent:
            print("RESULT equivalent")
            return 0
        if res.witness:
            print("witness: " + ";".join(res.witness))
        print("RESULT distinguished")
        return 1
    res = eq_check(left, right, gl, _suite(args, gl), args.side, args.bot or "weak")
    if res.equivalent:
        print(f"checked {res.checked} tests")
        print("RESULT equivalent-on-suite")
        return 0
    print(
        f"test#{res.checked - 1} {_render_test(res.test)} "
        f"left={res.verdict_left.render()} right={res.verdict_right.render()}"
    )
    print(f"RESULT distinguished test#{res.checked - 1}")
    return 1


def cmd_dot(args: argparse.Namespace) -> int:
    proc, gamma = _read_term(args.file)
    root = root_strategy(proc, gamma)
    if args.what == "position":
        _refuse(args, "needs --what move or play", "--trace", "--index")
        sys.stdout.write(to_dot(arena_position(root)))
        return 0
    if args.what == "play" or args.trace is not None:
        _refuse(args, "needs --what move without --trace", "--index")
    try:
        indices = [int(x) for x in args.trace.split(",")] if args.trace else []
    except ValueError:
        raise ValueError(f"bad --trace {args.trace!r}: expected comma separated step indices")
    if args.what == "move":
        if args.trace == "":
            raise ValueError("--trace is empty: --what move draws the last move of a trace")
        play = arena_trace(root, indices or [args.index or 0])
        sys.stdout.write(to_dot(play.moves[-1]))
        return 0
    sys.stdout.write(to_dot(arena_trace(root, indices)))
    return 0


_COMMANDS = {
    "parse": cmd_parse,
    "interp": cmd_interp,
    "lts": cmd_lts,
    "fair": cmd_fair,
    "eq": cmd_eq,
    "dot": cmd_dot,
}


def _side(name: str) -> str:
    """A ``--side`` value: ``game`` is the old spelling of ``strategy``."""
    return "strategy" if name == "game" else name


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="actorgame",
        description="Terms, strategies, transition systems and fair testing "
        "for a small actor calculus.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("parse", help="check a term file, echo normal form")
    p.add_argument("file", help="term file, or - for stdin")

    p = sub.add_parser("interp", help="print the strategy of a term")
    p.add_argument("file")

    p = sub.add_parser("lts", help="print a transition graph")
    p.add_argument("file")
    p.add_argument("--world", choices=["interface", "closed"], default="interface")
    p.add_argument("--side", type=_side, choices=list(ROOTS), default="strategy")
    p.add_argument("--enable-link", action="store_true", help="enable the link rule")

    p = sub.add_parser("fair", help="fair-test a subject")
    p.add_argument("file")
    p.add_argument("--test", help="test term file")
    p.add_argument("--map", help="handle map, comma separated test channels")
    p.add_argument("--gen", type=int, help="generate a suite up to this depth")
    p.add_argument("--width", type=int)
    p.add_argument("--limit", type=int)
    p.add_argument("--seed", type=int, help="shuffle the generated suite")
    p.add_argument("--side", type=_side, choices=list(ROOTS), default="strategy")
    p.add_argument("--bot", choices=["weak", "strict"], default="weak")

    p = sub.add_parser("eq", help="compare two subjects")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--gen", type=int, help="suite depth")
    p.add_argument("--width", type=int)
    p.add_argument("--limit", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--side", type=_side, choices=list(ROOTS), default="strategy")
    p.add_argument("--bot", choices=["weak", "strict"])
    p.add_argument(
        "--bisim",
        action="store_true",
        help="decide weak bisimilarity of interface graphs instead of testing",
    )

    p = sub.add_parser("dot", help="render arena objects as Graphviz")
    p.add_argument("file")
    p.add_argument("--what", choices=["position", "move", "play"], default="position")
    p.add_argument("--index", type=int, help="move: raw step index")
    p.add_argument("--trace", help="play: comma separated raw step indices")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.cmd](args)
    except (ParseError, IllTyped, ValueError, IndexError, OverflowError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
