"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import unit  # noqa: E402
import workloads  # noqa: E402

ag = unit.import_actorgame()


def small_corpus(tmp_path, size=12):
    wl = workloads.Corpus(ag, 5, tmp_path)
    wl.texts = workloads.corpus_texts(5, size)
    return wl


def test_corpus_answers_hold(tmp_path):
    out = small_corpus(tmp_path).run()
    assert out.failures == []
    assert out.attempted == 4 * 12 and out.verdicts == 12


def test_wrong_expected_answer_raises_fail_frac(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "position_dot", lambda gamma: "digraph wrong {}\n")
    out = small_corpus(tmp_path).run()
    assert len(out.failures) == 12
    assert all(f.endswith(".dot") or ".dot:" in f for f in out.failures)
    assert len(out.failures) / out.attempted == pytest.approx(0.25)


def test_raising_operation_counts_as_failed(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(ag, "weak_bisim", broken)
    out = small_corpus(tmp_path, size=3).run()
    assert len(out.failures) == 3 and "raised RuntimeError: boom" in out.failures[0]


def test_suite_size_is_the_recurrence():
    assert workloads.SUITE_SIZE == 10847
    assert workloads.count_terms(0, 2, 2) == sum(1 for _ in ag.enumerate_terms(0, 2, 2))


def test_corpus_is_a_function_of_the_seed():
    assert workloads.corpus_texts(9, 50) == workloads.corpus_texts(9, 50)
    assert workloads.corpus_texts(9, 50) != workloads.corpus_texts(10, 50)


def snapshot():
    return {m.__name__: dict(vars(m)) for m in tracing.actorgame_modules()}


def test_wrappers_restore_every_module_attribute(tmp_path):
    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    assert ag.cli.parse is not before["actorgame.cli"]["parse"]
    assert ag.cli.passes is ag.fairtest.passes
    try:
        small_corpus(tmp_path, size=3).run()
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys()
        changed = [k for k, v in attrs.items() if after[name][k] is not v]
        assert changed == [], name


def test_missing_hook_is_reported_not_fatal(tmp_path):
    tracer = tracing.Tracer(tracing.HOOKS + (("term", "no_such_function"),))
    tracer.install()
    try:
        small_corpus(tmp_path, size=3).run()
    finally:
        tracer.uninstall()
    assert tracer.missing == ["term.no_such_function"]
    assert tracer.metrics(1.0)["trace.missing_hooks"] == 1


def test_self_times_and_other_add_up_to_wall(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl = small_corpus(tmp_path)
        out = wl.run()
    finally:
        tracer.uninstall()
    wall = sum(out.latencies.values()) + 0.01
    m = tracer.metrics(wall)
    parts = [m[f"{layer}.self_s"] for layer in tracing.LAYERS] + [m["other.self_s"]]
    assert sum(parts) == pytest.approx(m["trace.wall_s"])
    assert min(parts) >= 0
    assert m["term.parse_calls"] == 24 and m["strategy.readback_calls"] == 12
    assert set(m) | {"trace.overhead_frac"} == set(tracing.PER_LAYER)


def test_sampler_scales_by_the_slices_around_an_operation():
    s = reference.Sampler()
    assert s.scale(0.0, 1.0) == 1.0
    nominal = reference.NOMINAL_SLICE_S
    for k in range(40):  # twice the nominal slice time until 1.0, nominal after
        s.stamps.append(k * 0.05)
        s.slices.append(nominal * (2 if k * 0.05 < 1.0 else 1))
        s.spent.append(0.001)
    assert s.scale(0.3, 0.6) == pytest.approx(0.5)
    assert s.scale(1.5, 1.6) == pytest.approx(1.0)
    assert s.spent_between(0.29, 0.61) == pytest.approx(0.007)
    assert s.scale(-5.0, -4.0) == pytest.approx(0.5)  # the nearest samples


def test_sampler_leaves_the_alarm_signal_as_it_was():
    before = reference.signal.getsignal(reference.signal.SIGALRM)
    s = reference.Sampler()
    s.start()
    try:
        deadline = reference.time.perf_counter() + 0.2
        while reference.time.perf_counter() < deadline:
            pass
    finally:
        s.stop()
    assert len(s.slices) >= 2
    assert reference.signal.getsignal(reference.signal.SIGALRM) == before
    assert reference.signal.getitimer(reference.signal.ITIMER_REAL) == (0.0, 0.0)


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    value, pct, n = run.tail([float(i) for i in range(1, 1501)])
    assert (value, n) == (1490.0, 1500) and pct == pytest.approx(99.333, abs=1e-3)


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert list(workloads.WHY) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER


def traced_counts(seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "unit.py"), "--workload", "corpus", "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
    return {k: layers[k] for k in tracing.COUNTS}


def test_counts_repeat_between_runs_on_one_seed():
    first = traced_counts(4)
    assert first["lts.bisim_calls"] == 2 * workloads.CORPUS_SIZE
    assert traced_counts(4) == first
