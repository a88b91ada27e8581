"""Unit tests for the benchmark harness's own arithmetic and wrappers.

Run from the repository root:  python3 -m pytest perfbench
"""

import statistics

import pytest

from harness import Tracer, covered_length, median, percentile, self_times


def test_median_odd_even_and_unsorted():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert median([7.0]) == 7.0
    with pytest.raises(ValueError):
        median([])


def test_percentile_matches_linear_interpolation():
    values = [10.0, 1.0, 4.0, 7.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 10.0
    assert percentile(values, 50) == median(values)
    assert percentile(values, 25) == 2.0
    assert percentile(values, 90) == pytest.approx(8.8)
    assert percentile([1.0, 2.0, 3.0, 4.0], 25) == pytest.approx(
        statistics.quantiles([1.0, 2.0, 3.0, 4.0], n=4, method="inclusive")[0])
    with pytest.raises(ValueError):
        percentile(values, 101)


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert covered_length([(0.0, 2.0), (1.0, 3.0)]) == 3.0
    assert covered_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_self_time_subtracts_nested_children():
    # root [0, 10] has children [1, 4] and [5, 9]; [5, 9] has a child [6, 8].
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 6.0, 8.0, 2, 0],
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 2.0, 6.0, 0, 0],
        ["b", 4.0, 8.0, 0, 0],
    ]
    assert self_times(spans)[0] == 4.0


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_wrapper_records_nested_spans_with_parent_and_op():
    tracer = Tracer(clock=fake_clock([0.0, 1.0, 3.0, 10.0]))
    inner = tracer.wrap("inner", lambda x: x * 2)
    outer = tracer.wrap("outer", lambda x: inner(x) + 1)
    tracer.op = "op1"
    assert outer(5) == 11
    assert tracer.spans == [["outer", 0.0, 10.0, -1, "op1"], ["inner", 1.0, 3.0, 0, "op1"]]
    assert tracer.self_time_by_name(["op1"]) == {"outer": 8.0, "inner": 2.0}
    assert tracer.count_total("inner.calls", ["op1"]) == 1


def test_wrapper_passes_result_and_exception_through_unchanged():
    tracer = Tracer()
    sentinel = object()
    error = KeyError("missing")

    def fails():
        raise error

    tracer.op = 0
    assert tracer.wrap("ok", lambda *a, **k: (a, k, sentinel))(1, b=2) == ((1,), {"b": 2}, sentinel)
    with pytest.raises(KeyError) as caught:
        tracer.wrap("bad", fails)()
    assert caught.value is error
    assert [s[0] for s in tracer.spans] == ["ok", "bad"]
    assert all(s[2] >= s[1] for s in tracer.spans)
    assert tracer._stack == []


def test_nothing_is_recorded_outside_an_operation():
    tracer = Tracer()
    wrapped = tracer.wrap("f", lambda: 42)
    counted = tracer.counter("g", lambda: 7)
    assert wrapped() == 42 and counted() == 7
    assert tracer.spans == [] and not tracer.counts


def test_scope_resets_the_route_set_and_is_restored():
    tracer = Tracer()
    seen_inside = []
    solve = tracer.wrap("hqm.run", lambda: seen_inside.append(
        (tracer.scope, len(tracer.routes_seen))), scope=True)
    tracer.op = 0
    tracer.routes_seen.add((1, 2))
    solve()
    assert seen_inside == [("hqm.run", 0)]
    assert tracer.scope is None


def test_layer_wrappers_are_removed_by_undo():
    import importlib
    import sys
    from pathlib import Path

    import layers

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    modules = [importlib.import_module(f"mplq.{name}") for name in
               ("bench", "cli", "ga", "hqm", "instance", "oracle", "routing")]
    owners = modules + [modules[3].Evaluator, modules[3].Agent, modules[4].Instance]
    before = [dict(vars(owner)) for owner in owners]
    undo = layers.install(Tracer())
    assert modules[6].schedule_route is not before[6]["schedule_route"]
    undo()
    assert [dict(vars(owner)) for owner in owners] == before


def test_reference_seconds_restates_probed_intervals():
    import meter

    speed = meter.SpeedMeter()
    # Probes at three times and at exactly the reference duration: twice as slow on average.
    speed.samples = [3 * meter.PROBE_REF_S, meter.PROBE_REF_S]
    speed.in_block_s = 0.5
    assert speed.reference_seconds(4.5) == pytest.approx(4.0 / 2 ** meter.SENSITIVITY)
    speed.samples = [meter.PROBE_REF_S]
    assert speed.reference_seconds(4.5) == pytest.approx(4.0)


def test_speed_meter_samples_and_restores_the_alarm_handler():
    import signal
    import time

    import meter

    before = signal.getsignal(signal.SIGALRM)
    with meter.SpeedMeter(interval=0.01) as speed:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 4
    assert 0.0 < speed.in_block_s < 0.1
