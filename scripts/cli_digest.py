#!/usr/bin/env python3
"""One SHA-256 over the command-line output of a corpus, to show that a
change keeps every output byte for byte.

For the first 200 enumerated terms (depth 3, width 2) at each of
contexts 0-2, it runs through ``cli.main``: ``lts`` on both sides in
both worlds, and the interface graphs again with ``--enable-link``;
``fair`` with the first 8 generated depth-1 tests on both sides in both
modes; ``eq`` against the next term with the first 8 depth-1 tests and
with ``--bisim``, on both sides; and ``dot`` of the position, the first
move and the play of steps 0,0. The digest covers each command line, its
exit code and its stdout. Run it on two checkouts and compare:

    PYTHONPATH=src python3 scripts/cli_digest.py

Takes about half a minute.
"""

import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile

from actorgame.cli import main
from actorgame.term import enumerate_terms, unparse

TERMS_PER_CONTEXT = 200


def commands(a: str, b: str):
    for side in ("strategy", "process"):
        yield ["lts", a, "--side", side]
        yield ["lts", a, "--side", side, "--enable-link"]
        yield ["lts", a, "--side", side, "--world", "closed"]
    for side, bot in itertools.product(("game", "process"), ("weak", "strict")):
        yield ["fair", a, "--gen", "1", "--limit", "8", "--side", side, "--bot", bot]
    for side in ("game", "process"):
        yield ["eq", a, b, "--gen", "1", "--limit", "8", "--side", side]
        yield ["eq", a, b, "--bisim", "--side", side]
    yield ["dot", a]
    yield ["dot", a, "--what", "move"]
    yield ["dot", a, "--what", "play", "--trace", "0,0"]


def main_digest() -> None:
    digest = hashlib.sha256()
    runs = 0
    with tempfile.TemporaryDirectory() as tmp:
        a, b = os.path.join(tmp, "a.act"), os.path.join(tmp, "b.act")
        for gamma in (0, 1, 2):
            terms = list(itertools.islice(enumerate_terms(gamma, 3, 2), TERMS_PER_CONTEXT + 1))
            for left, right in zip(terms, terms[1:]):
                for path, term in ((a, left), (b, right)):
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(unparse(term, gamma) + "\n")
                for argv in commands(a, b):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        code = main(argv)
                    shown = " ".join(os.path.basename(x) for x in argv)
                    digest.update(f"{unparse(left, gamma)}\n{shown}\n{code}\n".encode())
                    digest.update(out.getvalue().encode())
                    runs += 1
    print(f"commands {runs} sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    sys.exit(main_digest())
