"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions in ``HOOKS`` in every
``actorgame`` module namespace that binds them (``cli`` and
``fairtest`` import most of them by name), records one span per call
(hook, start, end, parent span) in flat arrays, and ``uninstall`` puts
the originals back. Generator functions get one span per ``next``.
A hook that no module binds any more is reported as missing; the run
goes on without it.

Self time of a span is its duration minus the part its child spans
cover. Summed per layer, plus the ``other.self_s`` remainder (the
benchmark's own checking code, and library code outside every hook),
it adds up to the traced pass time ``trace.wall_s``.

Nothing here waits: the program has no queue, pool or lock, so no
layer has wait time to report.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

# (layer, public function name); the layer is where the time is booked
HOOKS = (
    ("term", "parse"),
    ("term", "typecheck"),
    ("term", "enumerate_terms"),
    ("strategy", "interpret"),
    ("strategy", "readback"),
    ("fairtest", "gen_tests"),
    ("fairtest", "compose_game"),
    ("fairtest", "compose_proc"),
    ("fairtest", "passes"),
    ("fairtest", "in_bot"),
    ("fairtest", "eq_check"),
    ("lts", "closed_graph"),
    ("lts", "strategy_lts"),
    ("lts", "process_lts"),
    ("lts", "build_graph"),
    ("lts", "weak_bisim"),
    ("arena", "arena_position"),
    ("arena", "to_dot"),
    ("cli", "main"),
)

LAYERS = ("term", "strategy", "fairtest", "lts", "arena", "cli")

# inclusive time of the outermost call of a hook, booked under a metric
_TIME_OF = {
    "parse": "term.parse_s",
    "typecheck": "term.typecheck_s",
    "enumerate_terms": "term.enumerate_s",
    "interpret": "strategy.interpret_s",
    "readback": "strategy.readback_s",
    "compose_game": "fairtest.compose_s",
    "compose_proc": "fairtest.compose_s",
    "in_bot": "fairtest.in_bot_s",
    "weak_bisim": "lts.bisim_s",
    "arena_position": "arena.position_s",
    "to_dot": "arena.dot_s",
}
_CALLS_OF = {
    "parse": "term.parse_calls",
    "typecheck": "term.typecheck_calls",
    "interpret": "strategy.interpret_calls",
    "readback": "strategy.readback_calls",
    "passes": "fairtest.passes_calls",
    "in_bot": "fairtest.in_bot_calls",
    "closed_graph": "lts.closed_calls",
    "weak_bisim": "lts.bisim_calls",
}

# every per-layer metric with its unit, in report order
PER_LAYER: dict[str, str] = {
    "term.parse_s": "s",
    "term.parse_calls": "count",
    "term.typecheck_s": "s",
    "term.typecheck_calls": "count",
    "term.enumerate_s": "s",
    "strategy.interpret_s": "s",
    "strategy.interpret_calls": "count",
    "strategy.readback_s": "s",
    "strategy.readback_calls": "count",
    "fairtest.passes_calls": "count",
    "fairtest.compose_s": "s",
    "fairtest.in_bot_s": "s",
    "fairtest.in_bot_calls": "count",
    "fairtest.pass_count": "count",
    "fairtest.fail_count": "count",
    "fairtest.states_per_verdict": "states",
    **{
        f"lts.closed_{m}.{side}": unit
        for m, unit in (
            ("build_s", "s"),
            ("states", "count"),
            ("edges", "count"),
            ("us_per_state", "us/state"),
        )
        for side in ("game", "process")
    },
    "lts.closed_calls": "count",
    **{
        f"lts.iface_{m}.{side}": unit
        for m, unit in (
            ("build_s", "s"),
            ("states", "count"),
            ("edges", "count"),
            ("us_per_state", "us/state"),
        )
        for side in ("strategy", "process")
    },
    "lts.bisim_s": "s",
    "lts.bisim_calls": "count",
    "lts.bisim_blocks": "count",
    "lts.bisim_us_per_state": "us/state",
    "arena.position_s": "s",
    "arena.dot_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "other.self_s": "s",
    "trace.wall_s": "s",
    "trace.spans": "count",
    "trace.missing_hooks": "count",
    "trace.overhead_frac": "ratio",
}

# counts that a fixed seed must reproduce exactly
COUNTS = tuple(k for k, unit in PER_LAYER.items() if unit == "count")


def actorgame_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "actorgame" or n.startswith("actorgame.")]


def _graph_size(g) -> tuple[int, int] | None:
    try:
        return len(g.states), g.num_edges
    except (AttributeError, TypeError):
        return None


def _closed_side(state) -> str | None:
    name = type(state).__name__
    return "game" if "Game" in name else "process" if "Proc" in name else None


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, hooks=HOOKS):
        self.hooks = tuple(hooks)
        self.hook_of = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack: list[int] = []
        self.depth = [0] * len(self.hooks)
        self.acc: Counter = Counter()
        self.missing: list[str] = []
        self.warnings: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- patching

    def install(self) -> None:
        modules = actorgame_modules()
        for idx, (layer, name) in enumerate(self.hooks):
            wrappers: dict[int, object] = {}
            for mod in modules:
                orig = vars(mod).get(name)
                if not inspect.isfunction(orig):
                    continue
                if id(orig) not in wrappers:
                    wrappers[id(orig)] = self._wrap(idx, orig)
                setattr(mod, name, wrappers[id(orig)])
                self._patched.append((mod, name, orig))
            if not wrappers:
                self.missing.append(f"{layer}.{name}")

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._patched):
            setattr(mod, name, orig)
        self._patched.clear()

    def _wrap(self, idx: int, fn):
        name = self.hooks[idx][1]
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = self._open(idx)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx, sid)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                outer = self._close(idx, sid)
            if outer:
                self._observe(name, self.ends[sid] - self.starts[sid], args, result)
            return result

        return wrapper

    def _open(self, idx: int) -> int:
        sid = len(self.starts)
        self.hook_of.append(idx)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.depth[idx] += 1
        self.starts.append(time.perf_counter())
        return sid

    def _close(self, idx: int, sid: int) -> bool:
        """End a span; True when it was the outermost call of its hook."""
        self.ends[sid] = time.perf_counter()
        self.stack.pop()
        self.depth[idx] -= 1
        if self.depth[idx]:
            return False
        name = self.hooks[idx][1]
        if name in _TIME_OF:
            self.acc[_TIME_OF[name]] += self.ends[sid] - self.starts[sid]
        return True

    # ---------------------------------------------------------- counters

    def _observe(self, name: str, dur: float, args: tuple, result) -> None:
        acc = self.acc
        if name in _CALLS_OF:
            acc[_CALLS_OF[name]] += 1
        if name == "closed_graph":
            side, size = _closed_side(args[0]) if args else None, _graph_size(result)
            if side is None or size is None:
                self.warnings.add("closed_graph: side or graph size not observable")
                return
            acc[f"lts.closed_build_s.{side}"] += dur
            acc[f"lts.closed_states.{side}"] += size[0]
            acc[f"lts.closed_edges.{side}"] += size[1]
        elif name in ("strategy_lts", "process_lts"):
            side, size = name.split("_")[0], _graph_size(result)
            acc[f"lts.iface_build_s.{side}"] += dur
            if size is None:
                self.warnings.add(f"{name}: graph size not observable")
                return
            acc[f"lts.iface_states.{side}"] += size[0]
            acc[f"lts.iface_edges.{side}"] += size[1]
        elif name == "in_bot":
            passed = getattr(result, "passed", None)
            if passed is not None:
                acc["fairtest.pass_count" if passed else "fairtest.fail_count"] += 1
            size = _graph_size(args[0]) if args else None
            if size is not None:
                acc["fairtest.in_bot_states"] += size[0]
        elif name == "weak_bisim":
            acc["lts.bisim_blocks"] += getattr(result, "num_blocks", 0)
            for g in args[:2]:
                size = _graph_size(g)
                if size is not None:
                    acc["lts.bisim_states"] += size[0]

    # ----------------------------------------------------------- results

    def self_times(self) -> dict[str, float]:
        """Self time per layer, from the recorded spans."""
        n = len(self.starts)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for sid in range(n):
            p = parents[sid]
            if p >= 0:
                child[p] += ends[sid] - starts[sid]
        out = dict.fromkeys(LAYERS, 0.0)
        layer_of = [layer for layer, _ in self.hooks]
        for sid in range(n):
            out[layer_of[self.hook_of[sid]]] += ends[sid] - starts[sid] - child[sid]
        return out

    def metrics(self, wall: float) -> dict[str, float]:
        """Every per-layer metric of the pass except trace.overhead_frac,
        which needs an untraced pass to compare with."""
        acc = self.acc
        m = {k: acc.get(k, 0) for k in PER_LAYER if k != "trace.overhead_frac"}

        def ratio(num: float, den: float, scale: float = 1.0) -> float:
            return num / den * scale if den else 0.0

        m["fairtest.states_per_verdict"] = ratio(acc["fairtest.in_bot_states"], acc["fairtest.in_bot_calls"])
        for side in ("game", "process"):
            m[f"lts.closed_us_per_state.{side}"] = ratio(
                acc[f"lts.closed_build_s.{side}"], acc[f"lts.closed_states.{side}"], 1e6
            )
        for side in ("strategy", "process"):
            m[f"lts.iface_us_per_state.{side}"] = ratio(
                acc[f"lts.iface_build_s.{side}"], acc[f"lts.iface_states.{side}"], 1e6
            )
        m["lts.bisim_us_per_state"] = ratio(acc["lts.bisim_s"], acc["lts.bisim_states"], 1e6)
        selfs = self.self_times()
        for layer, t in selfs.items():
            m[f"{layer}.self_s"] = t
        m["other.self_s"] = wall - sum(selfs.values())
        m["trace.wall_s"] = wall
        m["trace.spans"] = len(self.starts)
        m["trace.missing_hooks"] = len(self.missing)
        return m
