"""Actor process terms: syntax, typing, parsing, printing and enumeration.

Channels are 1-based indices into an ambient context of size ``gamma``.
A receive prefix binds the transmitted channel, so its continuation is
typed in context gamma+1. A parallel composition shares one fresh mailbox
between its children, so both children are typed in gamma+1 and index
gamma+1 names that mailbox. Terms are finite; there is no recursion.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Union


@dataclass(frozen=True)
class Send:
    """Emit channel ``obj`` on mailbox ``subject``. Binds nothing."""

    subject: int
    obj: int


@dataclass(frozen=True)
class Recv:
    """Consume one message from mailbox ``subject``, binding one new index."""

    subject: int


@dataclass(frozen=True)
class Tick:
    """Success beacon; the observable that fair testing counts."""


Prefix = Union[Send, Recv, Tick]


@dataclass(frozen=True)
class Sum:
    """Guarded choice. The empty choice is the inert process."""

    branches: tuple["Branch", ...] = ()


@dataclass(frozen=True)
class Par:
    """Parallel composition; the two sides share one fresh mailbox."""

    left: "Process"
    right: "Process"


Process = Union[Sum, Par]
Branch = tuple[Prefix, Process]

NIL = Sum()


# ---------------------------------------------------------------- typing


class IllTyped(Exception):
    """A channel index escapes the ambient context."""

    def __init__(self, msg: str, path: tuple[str, ...], gamma: int):
        super().__init__(f"{msg} (at {'/'.join(path) or 'root'}, context size {gamma})")
        self.msg = msg
        self.path = path
        self.gamma = gamma


def ctx_after(prefix: Prefix, gamma: int) -> int:
    """Context size of the continuation behind ``prefix``."""
    return gamma + 1 if isinstance(prefix, Recv) else gamma


def typecheck(p: Process, gamma: int) -> None:
    """Raise IllTyped unless ``p`` is well formed in a context of size ``gamma``."""
    if gamma < 0:
        raise IllTyped("context size must be nonnegative", (), gamma)
    _check(p, gamma, ())


def _check(p: Process, gamma: int, path: tuple[str, ...]) -> None:
    if isinstance(p, Sum):
        for i, (prefix, cont) in enumerate(p.branches):
            here = path + (f"branch{i}",)
            if isinstance(prefix, Send):
                if not 1 <= prefix.subject <= gamma:
                    raise IllTyped(f"send subject {prefix.subject} out of range", here, gamma)
                if not 1 <= prefix.obj <= gamma:
                    raise IllTyped(f"send object {prefix.obj} out of range", here, gamma)
            elif isinstance(prefix, Recv):
                if not 1 <= prefix.subject <= gamma:
                    raise IllTyped(f"receive subject {prefix.subject} out of range", here, gamma)
            elif not isinstance(prefix, Tick):
                raise IllTyped(f"not a prefix: {prefix!r}", here, gamma)
            _check(cont, ctx_after(prefix, gamma), here)
    elif isinstance(p, Par):
        _check(p.left, gamma + 1, path + ("left",))
        _check(p.right, gamma + 1, path + ("right",))
    else:
        raise IllTyped(f"not a process node: {p!r}", path, gamma)


# ---------------------------------------------------------------- parsing

# Concrete syntax:
#   file   := 'ctx' NUM '.' proc
#   proc   := sum ('|' sum)*            right associated; pretty always parenthesizes
#   sum    := '0' | branch ('+' branch)* | '(' proc ')'
#   branch := prefix '.' cont
#   prefix := 'snd' '(' NUM ',' NUM ')' | 'rcv' '(' NUM ')' | 'tick'
#   cont   := '0' | branch | '(' proc ')'
# '+' binds looser than '.', so a continuation extends to the next '+' only.


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{msg} at line {line}, column {col}")
        self.line = line
        self.col = col


_TOKEN = re.compile(r"[0-9]+|[a-z]+|[().,+|]|\S")


def _lex(text: str) -> list[tuple[str, str, int]]:
    toks = []
    for m in _TOKEN.finditer(text):
        s = m.group()
        if s.isdigit():
            toks.append(("num", s, m.start()))
        elif s.isalpha():
            toks.append(("word", s, m.start()))
        elif s in "().,+|":
            toks.append((s, s, m.start()))
        else:
            line, col = _linecol(text, m.start())
            raise ParseError(f"unexpected character {s!r}", line, col)
    toks.append(("end", "", len(text)))
    return toks


def _linecol(text: str, offset: int) -> tuple[int, int]:
    line = text.count("\n", 0, offset) + 1
    col = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return line, col


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _lex(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str, int]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg: str) -> ParseError:
        line, col = _linecol(self.text, self.peek()[2])
        return ParseError(msg, line, col)

    def expect(self, kind: str) -> tuple[str, str, int]:
        if self.peek()[0] != kind:
            raise self.fail(f"expected {kind!r}, found {self.peek()[1] or 'end of input'!r}")
        return self.next()

    def num(self, what: str, minimum: int) -> int:
        if self.peek()[0] != "num":
            raise self.fail(f"expected {what}, found {self.peek()[1] or 'end of input'!r}")
        v = int(self.next()[1])
        if v < minimum:
            raise self.fail(f"{what} must be at least {minimum}, found {v}")
        return v

    def file(self) -> tuple[Process, int]:
        w = self.expect("word")
        if w[1] != "ctx":
            raise ParseError("expected 'ctx'", *_linecol(self.text, w[2]))
        gamma = self.num("context size", 0)
        self.expect(".")
        p = self.proc()
        if self.peek()[0] != "end":
            raise self.fail(f"trailing input {self.peek()[1]!r}")
        return p, gamma

    def proc(self) -> Process:
        parts = [self.sum()]
        while self.peek()[0] == "|":
            self.next()
            parts.append(self.sum())
        out = parts[-1]
        for left in reversed(parts[:-1]):
            out = Par(left, out)
        return out

    def sum(self) -> Process:
        kind, val, _ = self.peek()
        if kind == "num":
            if val != "0":
                raise self.fail("a bare number is not a process; only 0 is")
            self.next()
            return NIL
        if kind == "(":
            self.next()
            p = self.proc()
            self.expect(")")
            return p
        branches = [self.branch()]
        while self.peek()[0] == "+":
            self.next()
            branches.append(self.branch())
        return Sum(tuple(branches))

    def branch(self) -> Branch:
        prefix = self.prefix()
        self.expect(".")
        return (prefix, self.cont())

    def prefix(self) -> Prefix:
        kind, val, _ = self.peek()
        if kind != "word":
            raise self.fail(f"expected a prefix, found {val or 'end of input'!r}")
        self.next()
        if val == "tick":
            return Tick()
        if val == "snd":
            self.expect("(")
            a = self.num("channel index", 1)
            self.expect(",")
            b = self.num("channel index", 1)
            self.expect(")")
            return Send(a, b)
        if val == "rcv":
            self.expect("(")
            a = self.num("channel index", 1)
            self.expect(")")
            return Recv(a)
        raise self.fail(f"unknown prefix {val!r}")

    def cont(self) -> Process:
        kind, val, _ = self.peek()
        if kind == "num":
            if val != "0":
                raise self.fail("a bare number is not a process; only 0 is")
            self.next()
            return NIL
        if kind == "(":
            self.next()
            p = self.proc()
            self.expect(")")
            return p
        return Sum((self.branch(),))


def parse(text: str) -> tuple[Process, int]:
    """Parse a full source text ``ctx N. <proc>`` into (process, context size)."""
    return _Parser(text).file()


# ---------------------------------------------------------------- printing


def _prefix_str(prefix: Prefix) -> str:
    if isinstance(prefix, Send):
        return f"snd({prefix.subject},{prefix.obj})"
    if isinstance(prefix, Recv):
        return f"rcv({prefix.subject})"
    return "tick"


def pretty(p: Process) -> str:
    """Print a process; reparsing the result under the same context is identity."""
    if isinstance(p, Par):
        return f"({pretty(p.left)} | {pretty(p.right)})"
    if not p.branches:
        return "0"
    return " + ".join(_branch_str(b) for b in p.branches)


def _branch_str(branch: Branch) -> str:
    prefix, cont = branch
    body = pretty(cont)
    if isinstance(cont, Sum) and len(cont.branches) >= 2:
        body = f"({body})"
    return f"{_prefix_str(prefix)}.{body}"


def unparse(p: Process, gamma: int) -> str:
    return f"ctx {gamma}. {pretty(p)}"


# ---------------------------------------------------------------- ordering


def prefix_key(prefix: Prefix) -> tuple:
    if isinstance(prefix, Recv):
        return (0, prefix.subject)
    if isinstance(prefix, Send):
        return (1, prefix.subject, prefix.obj)
    return (2,)


def sort_key(p: Process) -> tuple:
    """Total order on terms, used for canonical thread ordering."""
    if isinstance(p, Sum):
        return (0, tuple((prefix_key(a), sort_key(c)) for a, c in p.branches))
    return (1, sort_key(p.left), sort_key(p.right))


def canonical(p: Process) -> Process:
    """Stable-sort all branch lists by prefix. Branch multiplicity is kept."""
    if isinstance(p, Sum):
        bs = [(a, canonical(c)) for a, c in p.branches]
        bs.sort(key=lambda b: prefix_key(b[0]))
        return Sum(tuple(bs))
    return Par(canonical(p.left), canonical(p.right))


# ------------------------------------------------------------- enumeration

# Terms are streamed in order of increasing node count so that a finite
# prefix of the stream is a diverse corpus. Node count: the inert process
# is 1, a choice is 1 plus (1 + size of continuation) per branch, a
# parallel is 1 plus both sides. Sum width is bounded by ``width``;
# parallels are binary and not width constrained.

_terms_memo: dict[tuple[int, int, int, int], tuple[Process, ...]] = {}
_branch_memo: dict[tuple[int, int, int, int], tuple[Branch, ...]] = {}


def term_size(p: Process) -> int:
    if isinstance(p, Sum):
        return 1 + sum(1 + term_size(c) for _, c in p.branches)
    return 1 + term_size(p.left) + term_size(p.right)


def term_depth(p: Process) -> int:
    if isinstance(p, Sum):
        if not p.branches:
            return 0
        return 1 + max(term_depth(c) for _, c in p.branches)
    return 1 + max(term_depth(p.left), term_depth(p.right))


def max_term_size(depth: int, width: int) -> int:
    s = 1
    for _ in range(depth):
        s = max(1 + width * (1 + s), 1 + 2 * s)
    return s


def enumerate_terms(gamma: int, depth: int, width: int) -> Iterator[Process]:
    """Stream every well-typed process at the bounds exactly once, smallest first."""
    if gamma < 0 or depth < 0 or width < 0:
        raise ValueError("bounds must be nonnegative")
    for size in range(1, max_term_size(depth, width) + 1):
        yield from _terms_of(gamma, size, depth, width)


def _terms_of(gamma: int, size: int, depth: int, width: int) -> tuple[Process, ...]:
    key = (gamma, size, depth, width)
    hit = _terms_memo.get(key)
    if hit is not None:
        return hit
    out: list[Process] = []
    if size == 1:
        out.append(NIL)
    if depth > 0 and size >= 3:
        for k in range(1, width + 1):
            if size - 1 < 2 * k:
                break
            for sizes in _compositions(size - 1, k, 2):
                pools = [_branches_of(gamma, sb, depth, width) for sb in sizes]
                if all(pools):
                    out.extend(Sum(bs) for bs in itertools.product(*pools))
        for left_size in range(1, size - 1):
            ls = _terms_of(gamma + 1, left_size, depth - 1, width)
            if not ls:
                continue
            rs = _terms_of(gamma + 1, size - 1 - left_size, depth - 1, width)
            out.extend(Par(l, r) for l in ls for r in rs)
    res = tuple(out)
    _terms_memo[key] = res
    return res


def _branches_of(gamma: int, size: int, depth: int, width: int) -> tuple[Branch, ...]:
    # size counts the prefix (1) plus the continuation
    key = (gamma, size, depth, width)
    hit = _branch_memo.get(key)
    if hit is not None:
        return hit
    out: list[Branch] = []
    if size >= 2:
        conts_recv = _terms_of(gamma + 1, size - 1, depth - 1, width)
        conts_same = _terms_of(gamma, size - 1, depth - 1, width)
        for a in range(1, gamma + 1):
            out.extend((Recv(a), c) for c in conts_recv)
        for a in range(1, gamma + 1):
            for b in range(1, gamma + 1):
                out.extend((Send(a, b), c) for c in conts_same)
        out.extend((Tick(), c) for c in conts_same)
    res = tuple(out)
    _branch_memo[key] = res
    return res


def _compositions(total: int, k: int, lo: int) -> Iterator[tuple[int, ...]]:
    if k == 1:
        if total >= lo:
            yield (total,)
        return
    for first in range(lo, total - lo * (k - 1) + 1):
        for rest in _compositions(total - first, k - 1, lo):
            yield (first,) + rest
