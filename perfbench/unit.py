"""One pass of one workload, in a fresh process.

``run.py`` starts this script once per pass, so every pass begins with
a cold interpreter and cold library caches, as a command-line user
does. It imports ``actorgame`` from ``src/`` of the checkout, sets the
workload up, optionally installs the tracing wrappers, runs one pass,
and prints one JSON line:

  ready        time.monotonic() when set-up ended (the clock is
               system-wide, so run.py subtracts its own start stamp)
  wall_s       time of the pass: the sum of its operations' times
  latencies    seconds per named operation, the host-speed sampler's
               time (reference.py) left out
  scaled       the same, each times its host-speed factor
  verdicts, attempted, failures, peak_rss_mb, layers, missing, warnings

With ``--setup-only`` it stops after set-up and prints only ``ready``.
Set-up is not scaled: it is mostly interpreter start and file reads,
which the reference loop does not model.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("term", "strategy", "arena", "lts", "fairtest", "cli")


def import_actorgame():
    """The package under test, from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    ag = importlib.import_module("actorgame")
    origin = Path(ag.__file__).resolve()
    if not origin.is_relative_to(ROOT / "src"):
        raise SystemExit(f"actorgame imported from {origin}, not from {ROOT / 'src'}")
    for name in MODULES:
        importlib.import_module(f"actorgame.{name}")
    return ag


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from reference import Sampler
    from tracing import Tracer
    from workloads import WORKLOADS

    ag = import_actorgame()
    workdir = HERE / f".work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](ag, args.seed, workdir)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        sampler = Sampler()
        sampler.start()
        try:
            outcome = workload.run()
        finally:
            sampler.stop()
            if tracer:
                tracer.uninstall()
        latencies = {
            k: end - start - sampler.spent_between(start, end) for k, (start, end) in outcome.spans.items()
        }
        result = {
            "ready": ready,
            "wall_s": sum(latencies.values()),
            "latencies": latencies,
            "scaled": {k: t * sampler.scale(*outcome.spans[k]) for k, t in latencies.items()},
            "verdicts": outcome.verdicts,
            "attempted": outcome.attempted,
            "failures": outcome.failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "layers": tracer.metrics(sum(outcome.latencies.values())) if tracer else None,
            "missing": tracer.missing if tracer else [],
            "warnings": sorted(tracer.warnings) if tracer else [],
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
