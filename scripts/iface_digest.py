#!/usr/bin/env python3
"""SHA-256 of the interface-graph dump of one large term on each side,
to show that a change keeps vertex numbering and edge order of a graph
of about 50000 states byte for byte, and the weak bisimulation results
on graphs of that size; and of the closed-world dump of the benchmark's
large composite on each side. ``cli_digest.py`` and the tier-1 golden
bisim digest cover only the graphs of small terms.

    PYTHONPATH=src python3 scripts/iface_digest.py

prints one ``<side> <sha256>`` line per side, then one ``<side>.link
<sha256>`` line per side for the link-enabled graph of a variant of the
term (61751 states a side), then one ``<side>.closed <sha256>`` line per
side for the closed graph of BIG (3362 states a side), then one
``bisim`` line for each of two ``weak_bisim`` calls: the two sides of
the term, and its strategy graph against the process graph of the
variant. Exits 1 if any line differs from its pinned value. Takes about
two seconds. Each graph build's and each ``weak_bisim`` call's wall
seconds go to stderr, one ``<what> <seconds>s`` line each, a build's
followed by ``vertices=<n> edges=<m>``, so that a log shows their trend
and the work behind it; stdout holds only the digests.
"""

import hashlib
import sys
import time

from actorgame.lts import (
    LtsGraph,
    closed_graph,
    interface_graph,
    process_lts,
    root_process,
    root_strategy,
    strategy_lts,
    weak_bisim,
)
from actorgame.term import parse

# 49866 interface states per side
W50K = (
    "ctx 0. (snd(1,1).tick.0 + rcv(1).tick.0) | ((snd(2,2).rcv(2).0 + rcv(1).0) "
    "| ((rcv(1).snd(3,3).tick.0 | snd(1,1).rcv(1).0) | (snd(1,2).0 | rcv(1).snd(1,1).0)))"
)
# W50K whose last receiver stops after its input: 17790 interface states,
# 61751 with the link rule
VARIANT = W50K.replace("(snd(1,2).0 | rcv(1).snd(1,1).0)", "(snd(1,2).0 | rcv(1).0)")
# the large closed-world composite of perfbench/workloads.py: 3362
# closed states per side
BIG = (
    "ctx 1. ((rcv(1).0 | snd(2,1).0) | (rcv(2).tick.0 | snd(2,2).0)) "
    "| ((tick.0 | rcv(1).0) | (snd(1,1).0 | rcv(3).0))"
)

PINNED = {
    "process": "865fe0d247278058a3fab2df88221159b52da3ae184ab522cd7ddfc095b7bc4a",
    "strategy": "802e740afdc92c7d9488b55ca0a1e1f28f3bf0ae93697ed9bd89f3c2e86f21aa",
    "process.link": "950408f1830d15304aa9de1ef9084572a1447f564a45321a5064df90bb511d65",
    "strategy.link": "420729909f5f56025a80c17fa3fcf8615a3882a9d7e97891184082a1d8d6f835",
    "process.closed": "27109f3fd187ba562721552b51f05edf0f338377415787e9f7b6b754ead285ac",
    "strategy.closed": "1adc4d3b8a375f8e2512b599f0360abcaf8a8cda2b936719630f9d380456ff3d",
}
PINNED_BISIM = [
    "bisim process strategy equivalent blocks=166",
    "bisim strategy variant-process witness=forkR;forkL;in(1);in(1) blocks=206",
]


def timed(what: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, its wall seconds printed on stderr, and a
    graph's vertex and edge counts beside them."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    line = f"{what} {time.perf_counter() - start:.3f}s"
    if isinstance(result, LtsGraph):
        line += f" vertices={len(result.states)} edges={result.num_edges}"
    print(line, file=sys.stderr)
    return result


def bisim_line(names: str, g1, g2) -> str:
    res = timed(f"weak_bisim {names}", weak_bisim, g1, g2)
    verdict = "equivalent" if res.equivalent else "witness=" + ";".join(res.witness)
    return f"bisim {names} {verdict} blocks={res.num_blocks}"


def check_dump(name: str, g) -> bool:
    """Print the sha256 of ``g``'s dump; whether it is the pinned one."""
    digest = hashlib.sha256(g.dump().encode()).hexdigest()
    print(name, digest)
    return digest == PINNED[name]


def main() -> int:
    p, gamma = parse(W50K)
    ok = True
    graphs = {}
    for side, build in (("process", process_lts), ("strategy", strategy_lts)):
        graphs[side] = timed(f"build {side}", build, p, gamma)
        ok = check_dump(side, graphs[side]) and ok
    v, v_gamma = parse(VARIANT)
    for side, root in (("process", root_process), ("strategy", root_strategy)):
        name = side + ".link"
        graph = timed(f"build {name}", interface_graph, root(v, v_gamma), enable_link=True)
        ok = check_dump(name, graph) and ok
    big, big_gamma = parse(BIG)
    for side, root in (("process", root_process), ("strategy", root_strategy)):
        name = side + ".closed"
        ok = check_dump(name, timed(f"build {name}", closed_graph, root(big, big_gamma))) and ok
    variant = timed("build variant-process", process_lts, v, v_gamma)
    lines = [
        bisim_line("process strategy", graphs["process"], graphs["strategy"]),
        bisim_line("strategy variant-process", graphs["strategy"], variant),
    ]
    for line, pinned in zip(lines, PINNED_BISIM):
        print(line)
        ok = ok and line == pinned
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
