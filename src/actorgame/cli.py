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

from . import fairtest
from .arena import to_dot
from .fairtest import Test, compose, eq_check, gen_tests, identity_test, passes
from .lts import (
    arena_position,
    arena_trace,
    closed_graph,
    process_lts,
    root_process,
    root_strategy,
    strategy_lts,
    weak_bisim,
)
from .strategy import dump, interpret
from .term import IllTyped, ParseError, parse, typecheck, unparse


def _suite(args: argparse.Namespace, gamma: int) -> list[Test]:
    """The generated suite: depth ``--gen``, cut at ``--limit``, shuffled
    by ``--seed``."""
    for option, value in (("--gen", args.gen), ("--width", args.width), ("--limit", args.limit)):
        if value is not None and value < 0:
            raise ValueError(f"{option} must be at least 0, got {value}")
    stream = gen_tests(gamma, args.gen, args.width)
    if args.limit is not None:
        stream = itertools.islice(stream, args.limit)
    tests = list(stream)
    if args.seed is not None:
        random.Random(args.seed).shuffle(tests)
    return tests


def _refuse_suite_options(args: argparse.Namespace, why: str) -> None:
    for option, value in (("--limit", args.limit), ("--seed", args.seed)):
        if value is not None:
            raise ValueError(f"{option} needs a generated suite: {why}")


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
        root = (
            root_strategy(proc, gamma)
            if args.side == "strategy"
            else root_process(proc, gamma)
        )
        graph = closed_graph(root)
    else:
        build = strategy_lts if args.side == "strategy" else process_lts
        graph = build(proc, gamma, enable_link=args.enable_link)
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
    if args.map is not None and args.test is None:
        raise ValueError("--map needs --test: generated tests carry their own handle maps")
    if args.test is not None:
        _refuse_suite_options(args, "--test runs a single test")
        tproc, tctx = _read_term(args.test)
        if args.map is not None:
            test = Test(_parse_map(args.map, gamma), tctx, tproc)
        else:
            if tctx != gamma:
                raise ValueError(
                    f"test context {tctx} differs from subject context {gamma}; "
                    "give an explicit --map"
                )
            test = identity_test(gamma, tproc)
        verdict = passes(subject, gamma, test, args.side, args.bot)
        print(f"RESULT {verdict.render()}")
        return 0 if verdict.passed else 1
    tests = _suite(args, gamma)
    root = fairtest._root(args.side)
    subject_root = root(subject, gamma)
    failures = 0
    for k, test in enumerate(tests):
        env = root(test.proc, test.ctx)
        verdict = fairtest.decide(compose(subject_root, env, test.h), args.bot)
        if not verdict.passed:
            failures += 1
        print(f"test#{k} {verdict.render()}")
    print(f"RESULT {len(tests) - failures}/{len(tests)} pass")
    return 0 if failures == 0 else 1


def cmd_eq(args: argparse.Namespace) -> int:
    left, gl = _read_term(args.left)
    right, gr = _read_term(args.right)
    if gl != gr:
        raise ValueError(f"subjects have different contexts: {gl} and {gr}")
    if args.bisim:
        _refuse_suite_options(args, "--bisim runs no test suite")
        build = strategy_lts if args.side == "game" else process_lts
        res = weak_bisim(build(left, gl), build(right, gr))
        if res.equivalent:
            print("RESULT equivalent")
            return 0
        if res.witness:
            print("witness: " + ";".join(res.witness))
        print("RESULT distinguished")
        return 1
    res = eq_check(left, right, gl, _suite(args, gl), args.side, args.bot)
    if res.equivalent:
        print(f"checked {res.checked} tests")
        print("RESULT equivalent-on-suite")
        return 0
    print(
        f"test#{res.index} {_render_test(res.test)} "
        f"left={res.verdict_left.render()} right={res.verdict_right.render()}"
    )
    print(f"RESULT distinguished test#{res.index}")
    return 1


def cmd_dot(args: argparse.Namespace) -> int:
    proc, gamma = _read_term(args.file)
    root = root_strategy(proc, gamma)
    if args.what == "position":
        sys.stdout.write(to_dot(arena_position(root)))
        return 0
    try:
        indices = [int(x) for x in args.trace.split(",")] if args.trace else []
    except ValueError:
        raise ValueError(f"bad --trace {args.trace!r}: expected comma separated step indices")
    if args.what == "move":
        play = arena_trace(root, indices or [args.index])
        if not play.moves:
            raise ValueError("no move selected")
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
    p.add_argument("--side", choices=["strategy", "process"], default="strategy")
    p.add_argument("--enable-link", action="store_true", help="enable the link rule")

    p = sub.add_parser("fair", help="fair-test a subject")
    p.add_argument("file")
    p.add_argument("--test", help="test term file")
    p.add_argument("--map", help="handle map, comma separated test channels")
    p.add_argument("--gen", type=int, help="generate a suite up to this depth")
    p.add_argument("--width", type=int, default=2)
    p.add_argument("--limit", type=int)
    p.add_argument("--seed", type=int, help="shuffle the generated suite")
    p.add_argument("--side", choices=["game", "process"], default="game")
    p.add_argument("--bot", choices=["weak", "strict"], default="weak")

    p = sub.add_parser("eq", help="compare two subjects")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--gen", type=int, default=2, help="suite depth")
    p.add_argument("--width", type=int, default=2)
    p.add_argument("--limit", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--side", choices=["game", "process"], default="game")
    p.add_argument("--bot", choices=["weak", "strict"], default="weak")
    p.add_argument(
        "--bisim",
        action="store_true",
        help="decide weak bisimilarity of interface graphs instead of testing",
    )

    p = sub.add_parser("dot", help="render arena objects as Graphviz")
    p.add_argument("file")
    p.add_argument("--what", choices=["position", "move", "play"], default="position")
    p.add_argument("--index", type=int, default=0, help="move: raw step index")
    p.add_argument("--trace", help="play: comma separated raw step indices")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.cmd](args)
    except (ParseError, IllTyped, ValueError, IndexError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
