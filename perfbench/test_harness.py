"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

Run from the root of the checkout.  They cover the 95th-percentile tail
rule, the machine-speed kernel, timing a fresh process, self-time
arithmetic on synthetic spans, the tracer's install and restore, one smoke
round of every workload with no failed verdict, and that BENCHMARK.json
names the metrics the runs print.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402


def test_p95_needs_ten_samples_beyond_it():
    assert run.p95(range(200)) == 189  # nearest rank 190 of 200
    assert run.p95(list(reversed(range(400)))) == 379
    with pytest.raises(ValueError):
        run.p95(range(199))


def test_speed_samples_the_kernel_at_most_once_per_interval():
    speed = run.Speed()
    speed.tick()
    speed.tick()  # within REFERENCE_EVERY_S of the first: no sample
    assert len(speed.samples) == 1 and speed.samples[0] > 0
    speed.samples = [run.REFERENCE_S * 2, run.REFERENCE_S * 4]
    assert speed.factor() == pytest.approx(1 / 3)  # a machine 3x slower


def test_fresh_process_times_and_returns_the_exit_code(monkeypatch):
    monkeypatch.chdir(ROOT)
    seconds, code = run.fresh_process(["-c", "raise SystemExit(3)"])
    assert code == 3 and seconds > 0


def _synthetic_spans() -> tracing.Spans:
    """Verdict 0: A[0,10] with children B[1,4] (holding a recursive B[2,3])
    and C[5,9].  Verdict 1: a lone C[20,21]."""
    spans = tracing.Spans()
    a, b, c = (spans.intern(name) for name in "ABC")
    root = spans.open(a, 0.0, -1, 0)
    outer = spans.open(b, 1.0, root, 0)
    inner = spans.open(b, 2.0, outer, 0)
    spans.end[inner] = 3.0
    spans.end[outer] = 4.0
    child = spans.open(c, 5.0, root, 0)
    spans.end[child] = 9.0
    spans.end[root] = 10.0
    lone = spans.open(c, 20.0, -1, 1)
    spans.end[lone] = 21.0
    return spans


def test_self_time_subtracts_direct_children_only():
    totals = tracing.self_times(_synthetic_spans())
    assert totals["A"] == (1, pytest.approx(3.0))  # 10 - 3 - 4
    assert totals["B"] == (2, pytest.approx(3.0))  # (3 - 1) + 1: recursion counted once
    assert totals["C"] == (2, pytest.approx(5.0))


def test_breakdown_and_slowest_verdict():
    spans = _synthetic_spans()
    assert tracing.slowest_verdict(spans) == (0, pytest.approx(10.0))
    assert tracing.verdict_breakdown(spans, 1) == {"C": pytest.approx(1.0)}
    assert sum(tracing.verdict_breakdown(spans, 0).values()) == pytest.approx(10.0)


def test_tracer_records_nested_calls_and_restores():
    from entropykit import expr

    original = expr.Expr.__mul__
    chart = expr.Chart(("a", "b"))
    with tracing.Tracer() as tracer:
        expr.parse("(a+b)^3", chart)  # not recording: no spans
        tracer.recording = True
        expr.parse("(a+b)^3", chart)
        tracer.recording = False
    assert expr.Expr.__mul__ is original
    figures = tracer.metrics()
    assert figures["expr.parse.calls"] == 1
    assert figures["expr.pow.calls"] >= 1
    assert figures["expr.mul.calls"] >= 1
    assert not tracer.missing


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_round_has_no_failed_verdict(workload, monkeypatch):
    monkeypatch.chdir(ROOT)
    module = __import__(workload)
    tally = run.Tally()
    for desc in module.generate(0, 1, stream="smoke"):
        run.run_round(module.tasks(desc), tally)
    assert tally.attempted > 0
    assert tally.failed / tally.attempted == 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
