#!/usr/bin/env python3
"""SHA-256 of the interface-graph dump of one large term on each side,
to show that a change keeps vertex numbering and edge order of a graph
of about 50000 states byte for byte. ``cli_digest.py`` covers only the
graphs of small terms.

    PYTHONPATH=src python3 scripts/iface_digest.py

prints one ``<side> <sha256>`` line per side, then exits 1 if either
differs from its pinned value. Takes about five seconds.
"""

import hashlib
import sys

from actorgame.lts import process_lts, strategy_lts
from actorgame.term import parse

# 49866 interface states per side
W50K = (
    "ctx 0. (snd(1,1).tick.0 + rcv(1).tick.0) | ((snd(2,2).rcv(2).0 + rcv(1).0) "
    "| ((rcv(1).snd(3,3).tick.0 | snd(1,1).rcv(1).0) | (snd(1,2).0 | rcv(1).snd(1,1).0)))"
)

PINNED = {
    "process": "865fe0d247278058a3fab2df88221159b52da3ae184ab522cd7ddfc095b7bc4a",
    "strategy": "802e740afdc92c7d9488b55ca0a1e1f28f3bf0ae93697ed9bd89f3c2e86f21aa",
}


def main() -> int:
    p, gamma = parse(W50K)
    ok = True
    for side, build in (("process", process_lts), ("strategy", strategy_lts)):
        digest = hashlib.sha256(build(p, gamma).dump().encode()).hexdigest()
        print(side, digest)
        ok = ok and digest == PINNED[side]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
