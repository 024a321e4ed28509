"""Actor process terms: syntax, typing, parsing, printing and enumeration.

Channels are 1-based indices into an ambient context of size ``gamma``.
A receive prefix binds the transmitted channel, so its continuation is
typed in context gamma+1. A parallel composition shares one fresh mailbox
between its children, so both children are typed in gamma+1 and index
gamma+1 names that mailbox. Terms are finite; there is no recursion.

Prefixes, terms and strategies are ``Value`` tuples led by an int tag.
Tags order prefixes receive < send < tick and terms choice < parallel,
then field by field; this is the canonical order of threads and
branches.
"""

from __future__ import annotations

import functools
import itertools
import re
from operator import itemgetter
from typing import Iterator, Optional, Union


class Value(tuple):
    """A value: the tuple of its class's tag, then its fields, so values
    hash, compare and order in C, by tag and then field by field. A class
    names its fields in ``_fields``, in constructor order, and its tag in
    its class statement (``tag=``), or else takes its class name as tag.
    Values of classes with distinct tags are never equal."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, tag: object = None) -> None:
        cls._tag = cls.__name__ if tag is None else tag
        for i, name in enumerate(cls._fields, 1):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *fields: object) -> Value:
        if len(fields) != len(cls._fields):
            names = ", ".join(cls._fields)
            raise TypeError(f"{cls.__name__}({names}) got {len(fields)} values")
        return tuple.__new__(cls, (cls._tag, *fields))

    def __getnewargs__(self) -> tuple:
        return self[1:]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={v!r}" for name, v in zip(self._fields, self[1:]))
        return f"{type(self).__name__}({fields})"


class Recv(Value, tag=0):
    """Consume one message from mailbox ``subject``, binding one new index."""

    __slots__ = ()
    _fields = ("subject",)


class Send(Value, tag=1):
    """Emit channel ``obj`` on mailbox ``subject``. Binds nothing."""

    __slots__ = ()
    _fields = ("subject", "obj")


class Tick(Value, tag=2):
    """Success beacon; the observable that fair testing counts."""

    __slots__ = ()


Prefix = Union[Send, Recv, Tick]


class Sum(Value, tag=3):
    """Guarded choice. The empty choice is the inert process."""

    __slots__ = ()
    _fields = ("branches",)

    def __new__(cls, branches: tuple[Branch, ...] = ()) -> Sum:
        return tuple.__new__(cls, (cls._tag, branches))


class Par(Value, tag=4):
    """Parallel composition; the two sides share one fresh mailbox."""

    __slots__ = ()
    _fields = ("left", "right")


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


def typecheck(p: Process, gamma: int) -> None:
    """Raise IllTyped unless ``p`` is well formed in a context of size
    ``gamma``. A success is remembered, so checking a term again costs
    one hash; a failure is not, and raises every time."""
    _checked(p, gamma)


@functools.lru_cache(maxsize=None)
def _checked(p: Process, gamma: int) -> None:
    if gamma < 0:
        raise IllTyped("context size must be nonnegative", (), gamma)
    _check(p, gamma)


def _check(p: Process, gamma: int) -> None:
    # a success builds no path: a failure's path grows as it unwinds
    if isinstance(p, Sum):
        for i, (prefix, cont) in enumerate(p.branches):
            try:
                if isinstance(prefix, Send):
                    if not 1 <= prefix.subject <= gamma:
                        raise IllTyped(f"send subject {prefix.subject} out of range", (), gamma)
                    if not 1 <= prefix.obj <= gamma:
                        raise IllTyped(f"send object {prefix.obj} out of range", (), gamma)
                    _check(cont, gamma)
                elif isinstance(prefix, Recv):
                    if not 1 <= prefix.subject <= gamma:
                        raise IllTyped(f"receive subject {prefix.subject} out of range", (), gamma)
                    _check(cont, gamma + 1)
                elif isinstance(prefix, Tick):
                    _check(cont, gamma)
                else:
                    raise IllTyped(f"not a prefix: {prefix!r}", (), gamma)
            except IllTyped as e:
                raise IllTyped(e.msg, (f"branch{i}",) + e.path, e.gamma) from None
    elif isinstance(p, Par):
        side = "left"
        try:
            _check(p.left, gamma + 1)
            side = "right"
            _check(p.right, gamma + 1)
        except IllTyped as e:
            raise IllTyped(e.msg, (side,) + e.path, e.gamma) from None
    else:
        raise IllTyped(f"not a process node: {p!r}", (), gamma)


# ---------------------------------------------------------------- parsing

# Concrete syntax:
#   file   := 'ctx' NUM '.' proc         NUM at most MAX_CONTEXT
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


# The largest context a source text may declare: far past any context
# whose terms can be explored, and small enough that a root, which
# attaches its actor to every channel of the context, is cheap to build.
MAX_CONTEXT = 65536

# The most significant digits a number may have: as many as int() reads
# by default.
MAX_DIGITS = 4300

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

    def num(self, what: str, minimum: int, maximum: Optional[int] = None) -> int:
        """The number at the next token; a range error points at it."""
        kind, digits, _ = self.peek()
        if kind != "num":
            raise self.fail(f"expected {what}, found {digits or 'end of input'!r}")
        digits = digits.lstrip("0") or "0"
        if len(digits) > MAX_DIGITS:
            raise self.fail(f"{what} has {len(digits)} digits, more than {MAX_DIGITS}")
        v = int(digits)
        if v < minimum:
            raise self.fail(f"{what} must be at least {minimum}, found {v}")
        if maximum is not None and v > maximum:
            raise self.fail(f"{what} must be at most {maximum}, found {v}")
        self.next()
        return v

    def file(self) -> tuple[Process, int]:
        if self.peek()[:2] != ("word", "ctx"):
            raise self.fail(f"expected 'ctx', found {self.peek()[1] or 'end of input'!r}")
        self.next()
        gamma = self.num("context size", 0, MAX_CONTEXT)
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
        if self.peek()[0] in ("num", "("):
            return self.cont()
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


@functools.lru_cache(maxsize=None)
def canonical(p: Process) -> Process:
    """Stable-sort all branch lists by prefix. Branch multiplicity is kept.
    Like typecheck's successes, the result is remembered per node for
    the life of the process, so each subterm is sorted once."""
    if isinstance(p, Sum):
        bs = [(a, canonical(c)) for a, c in p.branches]
        bs.sort(key=lambda b: b[0])
        return Sum(tuple(bs))
    return Par(canonical(p.left), canonical(p.right))


# ------------------------------------------------------------- enumeration

# Terms are streamed in order of increasing node count so that a finite
# prefix of the stream is a diverse corpus. Node count: the inert process
# is 1, a choice is 1 plus (1 + size of continuation) per branch, a
# parallel is 1 plus both sides. Sum width is bounded by ``width``;
# parallels are binary and not width constrained.

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


@functools.lru_cache(maxsize=None)
def _terms_of(gamma: int, size: int, depth: int, width: int) -> tuple[Process, ...]:
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
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _branches_of(gamma: int, size: int, depth: int, width: int) -> tuple[Branch, ...]:
    # size counts the prefix (1) plus the continuation
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
    return tuple(out)


def _compositions(total: int, k: int, lo: int) -> Iterator[tuple[int, ...]]:
    if k == 1:
        if total >= lo:
            yield (total,)
        return
    for first in range(lo, total - lo * (k - 1) + 1):
        for rest in _compositions(total - first, k - 1, lo):
            yield (first,) + rest
