"""Benchmark entry point.

  python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The load is a closed loop with one
caller: passes of the workload run one after another, each in a fresh
process (``unit.py``), until starting one more would end past
``--seconds``; at least one pass always runs. Set-up is repeated in
extra set-up-only processes until there are ``SETUP_SAMPLES`` of it.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it reports
the per-layer metrics of the traced pass with the median time, plus
``trace.overhead_frac``. Lines before it say how the tail percentile
was taken, which checks failed, and the run metadata. The exit code is
0 when a result was printed, whether or not every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COUNTS, PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 9
TIME_LIMIT = 170.0  # seconds for the whole run, child processes included

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def spawn(args, traced: bool, setup_only: bool, deadline: float) -> tuple[float, dict]:
    """Run one child to completion; returns its start stamp and result."""
    cmd = [
        sys.executable,
        str(HERE / "unit.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", "1" if traced else "0",
    ] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload} pass exited with code {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float, int]:
    """The value at the highest percentile with at least ten samples
    beyond it, that percentile, and the sample count; the maximum when
    there are fewer than eleven samples."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return v[-1], 100.0, n
    return v[n - 11], 100.0 * (n - 10) / n, n


def scaled_wall(result: dict) -> float:
    return sum(result["scaled"].values())


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, str]:
    """End-to-end metrics of the untraced passes, and a note on the tail
    and on the raw times."""
    walls = [scaled_wall(p) for p in passes]
    names = passes[0]["scaled"].keys()
    per_op = [statistics.median(p["scaled"][k] for p in passes) for k in names]
    tail_value, pct, n = tail(per_op)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "ops_per_s": sum(p["verdicts"] for p in passes) / sum(walls),
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_tail_ms": 1000 * tail_value,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    note = (
        f"op_tail_ms is p{pct:.2f} of {n} operations, each the median of "
        f"{len(passes)} passes; pass wall_s scaled " + " ".join(f"{w:.3f}" for w in walls)
        + ", raw " + " ".join(f"{p['wall_s']:.3f}" for p in passes)
    )
    return metrics, note


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Layer metrics of the traced pass with the median time, and notes."""
    by_wall = sorted(traced, key=lambda p: p["wall_s"])
    chosen = by_wall[(len(by_wall) - 1) // 2]["layers"]
    notes = []
    for p in traced:
        differ = [k for k in COUNTS if p["layers"][k] != chosen[k]]
        if differ:
            notes.append("counts differ between traced passes: " + ", ".join(differ))
    plain = statistics.median(scaled_wall(p) for p in untraced)
    metrics = dict(chosen)
    metrics["trace.overhead_frac"] = statistics.median(scaled_wall(p) for p in traced) / plain - 1
    return metrics, notes


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )


def commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "actorgame").is_dir():
        raise SystemExit(f"no package to measure: {ROOT / 'src' / 'actorgame'} is missing")

    start = time.monotonic()
    deadline = start + TIME_LIMIT
    runs: list[tuple[bool, dict]] = []
    setups: list[float] = []
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        started, result = spawn(args, traced, False, deadline)
        runs.append((traced, result))
        if not traced:
            setups.append(result["ready"] - started)
        elapsed = time.monotonic() - start
        if args.trace and len(runs) < 2:
            continue
        if elapsed + elapsed / len(runs) > args.seconds:
            break
    while not args.trace and len(setups) < SETUP_SAMPLES:
        started, result = spawn(args, False, True, deadline)
        setups.append(result["ready"] - started)

    untraced = [r for t, r in runs if not t]
    traced_runs = [r for t, r in runs if t]
    failures = [f for _, r in runs for f in r["failures"]]
    attempted = sum(r["attempted"] for _, r in runs)
    if args.trace:
        values, notes = per_layer(untraced, traced_runs)
        missing = sorted({m for r in traced_runs for m in r["missing"]})
        if missing:
            notes.append("hooks not found: " + ", ".join(missing))
        notes += sorted({w for r in traced_runs for w in r["warnings"]})
        units = PER_LAYER
    else:
        values, note = end_to_end(untraced, setups)
        notes = [note]
        units = END_TO_END

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "src_lines": src_lines(),
        "passes": {"untraced": len(untraced), "traced": len(traced_runs)},
        "setup_samples": len(setups),
    }
    print("meta " + json.dumps(meta))
    for line in notes:
        print("note " + line)
    for f in dict.fromkeys(failures):
        print("FAILED " + f)
    print(f"fail_frac {len(failures) / attempted if attempted else 1.0}")
    print(
        json.dumps(
            {
                "correct": not failures and attempted > 0,
                "attempted": max(attempted, 1),
                "failed": len(failures),
                "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
