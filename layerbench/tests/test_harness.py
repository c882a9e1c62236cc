"""Self-tests of the benchmark harness (not part of the repository's tier-1 suite).

Run from the repository root::

    python3 -m pytest layerbench/tests -q
"""

import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

import pytest

import harness
import run
import tracing
from harness import BenchmarkError, percentile
from workloads import Answer, Phase

DECLARED = harness.load_declarations()


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(reversed(values), 0.9) == 90
    assert percentile([3.0, 1.0, 2.0] * 10, 0.5) == 2.0


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(100), 0.9) == 89
    with pytest.raises(BenchmarkError):
        percentile(range(99), 0.9)
    with pytest.raises(ValueError):
        percentile(range(100), 0.0)


def test_percentile_counts_refusals_as_infinite():
    values = [1.0] * 80 + [math.inf] * 20
    assert percentile(values, 0.5) == 1.0
    assert percentile(values, 0.9) == math.inf


def test_benchmark_json_follows_the_contract():
    spec = json.loads(harness.BENCHMARK_JSON.read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert harness.NAME_PATTERN.fullmatch(name), name
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in spec["end_to_end"] if m["name"] == "setup_s"
    ).items()
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def _answer(index, latency, finished, value=50.0):
    return Answer(0, index, index, latency, finished, True, (value,), 0.25)


def _phase(timed, seconds=3.0, cpu_seconds=1.2):
    return Phase(timed, 0.0, seconds, cpu_seconds, peak_rss_mb=80.0,
                 totals_before={}, totals_after={})


def _speed(timed, cpu=1.0, wall=1.0):
    return run.PhaseSpeed([wall] * len(timed), cpu, wall, [0.0] * len(timed))


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    # 600 answers in 3 s; latencies cycle through 1..10 ms.
    timed = [_answer(i, 0.001 * (1 + i % 10), finished=i / 200) for i in range(600)]
    phase = _phase(timed)
    values = run.end_to_end_metrics(
        phase, _speed(timed), setup_seconds=[0.3, 0.1, 0.2],
        ledger=[0.25] * 615,
        answered_total=615, exact=49.0, width=40.0,
    )
    line = json.loads(harness.result_line(
        values, DECLARED["end_to_end"], True, len(timed), 0
    ))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {
        name: {"value": values[name], "unit": unit}
        for name, unit in DECLARED["end_to_end"].items()
    }
    assert values["latency_p50_ms"] == pytest.approx(5.0)
    assert values["latency_p90_ms"] == pytest.approx(9.0)
    assert values["throughput_qps"] == 200.0
    assert values["cpu_ms_per_answer"] == pytest.approx(2.0)
    assert values["setup_s"] == 0.2
    assert values["eps_per_answer"] == 0.25
    assert values["rel_error"] == pytest.approx(1.0 / 40.0)
    assert values["answered_frac"] == 1.0

    # On a CPU at half the reference speed, from which the host also
    # stole a third of the time (wall time stretched 3 times), each
    # figure of the phase reads as at the reference speed; set-ups
    # arrive already scaled.
    slow = run.end_to_end_metrics(
        phase, _speed(timed, cpu=2.0, wall=3.0), setup_seconds=[0.3, 0.1, 0.2],
        ledger=[0.25] * 615, answered_total=615, exact=49.0, width=40.0,
    )
    for name in ("latency_p50_ms", "latency_p90_ms"):
        assert slow[name] == pytest.approx(values[name] / 3.0)
    assert slow["throughput_qps"] == pytest.approx(3.0 * values["throughput_qps"])
    assert slow["cpu_ms_per_answer"] == pytest.approx(values["cpu_ms_per_answer"] / 2.0)
    assert slow["setup_s"] == values["setup_s"]


def test_a_periodic_stall_moves_every_phase_figure():
    # The same 3-s phase, but in one second of the three the program
    # stalls: its queries take 3 ms instead of 1 ms, on the same CPU.
    steady = [_answer(i, 0.001, finished=i / 1000) for i in range(3000)]
    stalled = steady[:2000] + [_answer(i, 0.003, finished=2.0 + i / 333)
                               for i in range(333)]
    base = run.end_to_end_metrics(
        _phase(steady, cpu_seconds=3.0), _speed(steady), [0.1], [0.25] * 3000, 3000, 50.0, 40.0
    )
    hit = run.end_to_end_metrics(
        _phase(stalled, cpu_seconds=3.0), _speed(stalled), [0.1], [0.25] * 2333, 2333, 50.0, 40.0
    )
    assert hit["throughput_qps"] == pytest.approx(base["throughput_qps"] * 2333 / 3000)
    assert hit["cpu_ms_per_answer"] == pytest.approx(base["cpu_ms_per_answer"] * 3000 / 2333)
    assert base["latency_p90_ms"] == pytest.approx(1.0)
    assert hit["latency_p90_ms"] == pytest.approx(3.0)


def test_refused_queries_count_as_infinite_latency():
    timed = [_answer(i, 0.001, finished=i / 100) for i in range(100)]
    for answer in timed[:20]:
        answer.ok = False
    phase = _phase(timed, seconds=1.0, cpu_seconds=0.1)
    assert run.latency_ms(phase, 0.5, _speed(timed)) == pytest.approx(1.0)
    assert run.latency_ms(phase, 0.9, _speed(timed)) == math.inf


def test_each_query_is_scaled_by_the_speed_while_it_ran():
    # The CPU runs at reference speed for one second, then twice as
    # slow for one: queries of 4 ms, then 8 ms, all 4 ms at reference.
    probe = harness.SpeedProbe(0)
    probe.realtime = True
    probe.timings = [(t / 4, harness.REFERENCE_SECONDS * (1 if t < 4 else 2), 0.0)
                     for t in range(9)]
    # One disturbed timing does not move the figures.
    probe.timings[1] = (0.25, harness.REFERENCE_SECONDS * 5, 0.0)
    timed = [_answer(i, 0.004, finished=0.004 * (i + 1)) for i in range(250)]
    timed += [_answer(250 + i, 0.008, finished=1.0 + 0.008 * (i + 1)) for i in range(125)]
    phase = _phase(timed, seconds=2.0)
    speed = run.phase_speed(probe, phase)
    assert run.latency_ms(phase, 0.5, speed) == pytest.approx(4.0, rel=0.02)
    assert run.latency_ms(phase, 0.9, speed) == pytest.approx(4.0, rel=0.02)
    # A second at full speed and one at half are 1.5 reference seconds
    # (the interpolation blurs the switch over one probe interval).
    assert speed.cpu == speed.wall == pytest.approx(2 / 1.5, rel=0.06)


def test_the_time_the_probe_preempts_a_query_is_not_its_latency():
    # Timings of 1 ms ending at 0.1, 0.2, ...; the first query waited
    # for one of them, the second for half of one, the third ran
    # between two.
    probe = harness.SpeedProbe(0)
    probe.timings = [(t / 10, 0.001, 0.0) for t in range(1, 10)]
    assert probe.busy_seconds([0.098, 0.0995, 0.15], [0.104, 0.104, 0.19]) == (
        pytest.approx([0.001, 0.0005, 0.0])
    )
    timed = [_answer(0, 0.006, finished=0.104), _answer(1, 0.004, finished=0.19)]
    speed = run.phase_speed(probe, _phase(timed, seconds=0.2))
    assert speed.probe_seconds == pytest.approx([0.001, 0.0])


def test_time_the_host_steals_stretches_wall_time_only():
    # A CPU at reference speed from which the host steals a quarter of
    # the time from the second second on.
    probe = harness.SpeedProbe(0)
    probe.realtime = True
    probe.timings = [(t / 4, harness.REFERENCE_SECONDS, max(0.0, (t - 4) / 16))
                     for t in range(13)]
    assert probe.slowdowns([0.5, 2.0]) == pytest.approx([1.0, 1.0])
    assert probe.wall_slowdowns([0.5, 2.0]) == pytest.approx([1.0, 4 / 3])
    assert probe.mean_slowdown(1.5, 2.5) == pytest.approx(1.0)
    assert probe.mean_slowdown(1.5, 2.5, wall=True) == pytest.approx(4 / 3)


def test_every_per_layer_metric_is_emitted_with_its_unit():
    timers = tracing.LayerTimers()
    timers.seconds = {metric: 0.5 for _, _, metric in tracing._timed_targets()}
    snapshot = {
        "counters": {"journal.fsyncs": 20.0, 'plan_cache.hits{dataset="x"}': 1.0},
        "histograms": {'runtime.resolve.seconds{dataset="x"}': {"sum": 0.1}},
    }
    before = tracing.registry_totals({"counters": {}, "histograms": {}})
    values = tracing.per_layer_metrics(
        before, tracing.registry_totals(snapshot), timers, answered=10
    )
    values["trace.overhead_p50_ms"] = 0.01
    line = json.loads(harness.result_line(values, DECLARED["per_layer"], True, 10, 0))
    assert set(line["metrics"]) == set(DECLARED["per_layer"])
    for name, unit in DECLARED["per_layer"].items():
        assert line["metrics"][name]["unit"] == unit
    assert values["journal.fsyncs_per_answer"] == 2.0
    assert values["plan_cache.hit_ratio"] == 1.0
    assert values["runtime.resolve_ms"] == pytest.approx(10.0)
    assert values["block_size.search_ms"] == 50.0


def test_result_line_refuses_missing_undeclared_or_infinite_metrics():
    units = {"a_ms": "ms", "b": "count"}
    with pytest.raises(BenchmarkError):
        harness.result_line({"a_ms": 1.0}, units, True, 1, 0)
    with pytest.raises(BenchmarkError):
        harness.result_line({"a_ms": 1.0, "b": 2.0, "c": 3.0}, units, True, 1, 0)
    with pytest.raises(BenchmarkError):
        harness.result_line({"a_ms": math.inf, "b": 2.0}, units, True, 1, 0)


def test_layer_timers_restore_the_originals():
    targets = tracing._timed_targets()
    originals = [getattr(owner, attribute) for owner, attribute, _ in targets]
    timers = tracing.LayerTimers()
    timers.install()
    try:
        assert all(
            getattr(owner, attribute) is not original
            for (owner, attribute, _), original in zip(targets, originals)
        )
    finally:
        timers.remove()
    assert [getattr(owner, attribute) for owner, attribute, _ in targets] == originals


def test_process_statistics_cover_this_process():
    assert os.getpid() not in harness.descendant_pids()
    assert harness.peak_rss_mb([os.getpid()]) > 1.0
    assert harness.cpu_seconds([os.getpid()]) >= 0.0


def test_stop_children_stops_the_resource_tracker_and_every_child():
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(create=True, size=8)
    segment.close()
    segment.unlink()
    tracker = resource_tracker._resource_tracker._pid
    assert tracker in harness.descendant_pids()
    sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    assert harness.stop_children() == [sleeper.pid]
    assert harness.descendant_pids() == []
    assert sleeper.poll() is not None


def test_speed_probe_samples_until_stopped():
    with harness.SpeedProbe(min(os.sched_getaffinity(0))) as probe:
        assert probe.pid in harness.descendant_pids()
        started = time.monotonic()
        time.sleep(1.5)
    assert probe.pid not in harness.descendant_pids()
    assert harness.reference() == harness.reference()
    assert len(probe.timings) >= 4
    assert all(took > 0.0 and stolen >= 0.0 for _, took, stolen in probe.timings)
    assert probe.mean_slowdown(started, time.monotonic()) > 0.0


def _spin(stop: threading.Event) -> None:
    while not stop.is_set():
        pass


def test_speed_probe_is_not_slowed_by_load_in_the_caller():
    # The caller, a thread spinning in it, and the probe all share one
    # CPU: a program that adds busy work cannot slow the probe, and so
    # cannot cancel its own regression out of the reported figures.
    # Idle and loaded seconds alternate, so that the host's own speed
    # changes fall on both alike.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    loaded_spans = []
    try:
        with harness.SpeedProbe(min(cpus)) as probe:
            if not probe.realtime:
                pytest.skip("the system refuses real-time priority")
            for _ in range(4):
                time.sleep(1.0)
                stop = threading.Event()
                spinner = threading.Thread(target=_spin, args=(stop,))
                started = time.monotonic()
                spinner.start()
                try:
                    time.sleep(1.0)
                finally:
                    stop.set()
                    spinner.join()
                loaded_spans.append((started, time.monotonic()))
    finally:
        os.sched_setaffinity(0, cpus)
    idle, loaded = [], []
    for ended, took, _ in probe.timings:
        spinning = any(start <= ended - took and ended <= end for start, end in loaded_spans)
        (loaded if spinning else idle).append(took)
    assert len(loaded) >= 8 and len(idle) >= 8
    assert statistics.median(loaded) == pytest.approx(statistics.median(idle), rel=0.25)
