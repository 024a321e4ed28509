#!/usr/bin/env python3
"""Print size statistics for the term stream and the graphs it yields.

Useful for picking enumeration bounds: shows how many terms exist per
context size at small depths, and how big the interface and closed
graphs of a sample prefix get.
"""

import argparse
import itertools
import sys
from collections import Counter
from pathlib import Path

from actorgame.lts import closed_graph, process_lts, root_strategy, strategy_lts
from actorgame.term import enumerate_terms

# term counts, sizes and depths are test-side helpers, kept beside the oracles
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import count_terms, term_depth, term_size  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=2)
    ap.add_argument("--width", type=int, default=2)
    ap.add_argument("--sample", type=int, default=100, help="terms per context size")
    args = ap.parse_args()

    for gamma in (0, 1, 2):
        total = count_terms(gamma, args.depth, args.width)
        print(f"context {gamma}: {total} terms at depth {args.depth}, width {args.width}")

    print()
    for gamma in (0, 1, 2):
        sizes = Counter()
        depths = Counter()
        iface = closed = 0
        peak = (0, None)
        sample = list(
            itertools.islice(enumerate_terms(gamma, args.depth, args.width), args.sample)
        )
        for p in sample:
            sizes[term_size(p)] += 1
            depths[term_depth(p)] += 1
            g = strategy_lts(p, gamma)
            iface += len(g.states)
            closed += len(closed_graph(root_strategy(p, gamma)).states)
            if len(g.states) > peak[0]:
                peak = (len(g.states), p)
        n = len(sample)
        print(f"context {gamma}, first {n} terms:")
        print(f"  term sizes {dict(sorted(sizes.items()))}")
        print(f"  term depths {dict(sorted(depths.items()))}")
        print(f"  mean interface states {iface / n:.1f}, mean closed states {closed / n:.1f}")
        print(f"  largest interface graph: {peak[0]} states")
        # the two sides should stay comparable in size
        pl = sum(len(process_lts(p, gamma).states) for p in sample[:20])
        sl = sum(len(strategy_lts(p, gamma).states) for p in sample[:20])
        print(f"  first 20 terms: {pl} process states vs {sl} strategy states")


if __name__ == "__main__":
    main()
