"""Layered benchmark of the GUPT platform: one workload per run.

Usage (from the repository root)::

    python3 layerbench/run.py --workload plan-1e5 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
half the run untraced and half with per-layer timers installed, and
reports the per-layer split plus the tracing overhead.  The inputs (the
rows and every query seed) are a function of ``--seed`` alone.  The last
line of standard output is one JSON object with the run's metrics; a
failed correctness check prints ``"correct": false`` and exits 1, and a
run that cannot measure prints no result and exits non-zero.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import harness
import tracing

CHECKOUT = Path(__file__).resolve().parent.parent
#: Before timing, the in-process caller sends at most this many queries,
#: or for this long, whichever ends first.
WARMUP_QUERIES = 20
WARMUP_SECONDS = 0.5


def latencies(answers) -> list[float]:
    """Seconds to each release; a refused or failed query counts as infinite."""
    return [a.latency if a.ok else math.inf for a in answers]


def latency_ms(phase, q: float, speed: "PhaseSpeed") -> float:
    """Nearest-rank ``q``-quantile of every timed query's latency.

    Each latency, less the time the speed probe preempted it, is divided
    by the slowdown of its query, in order.
    """
    scaled = [
        (latency - probe) / slowdown
        for latency, probe, slowdown
        in zip(latencies(phase.answers), speed.probe_seconds, speed.answers, strict=True)
    ]
    return harness.percentile(scaled, q) * 1000.0


@dataclass(frozen=True)
class PhaseSpeed:
    """How many times slower than the reference machine a timed phase ran."""

    #: The wall time of each answer, in order, was stretched this much.
    answers: list[float]
    #: The phase's CPU time, and its wall time, were stretched this much.
    cpu: float
    wall: float
    #: Seconds the speed probe preempted each answer, in order.
    probe_seconds: list[float]


def phase_speed(probe: harness.SpeedProbe, phase) -> PhaseSpeed:
    """The phase's slowdowns as ``probe`` saw them."""
    cpu = probe.mean_slowdown(phase.started, phase.ended)
    wall = probe.mean_slowdown(phase.started, phase.ended, wall=True)
    print(f"a timed phase ran at 1/{cpu:.4f} of reference speed, "
          f"its wall time at 1/{wall:.4f}", file=sys.stderr)
    finished = np.array([a.finished for a in phase.answers])
    started = finished - np.array([a.latency for a in phase.answers])
    return PhaseSpeed(
        probe.wall_slowdowns((started + finished) / 2).tolist(), cpu, wall,
        probe.busy_seconds(started, finished).tolist(),
    )


def end_to_end_metrics(
    phase,
    speed: PhaseSpeed,
    setup_seconds: list[float],
    ledger: list[float],
    answered_total: int,
    exact: float,
    width: float,
) -> dict[str, float]:
    """The user-visible figures of one untraced timed phase.

    Every figure covers the whole phase, at reference speed (``speed``).
    ``setup_seconds`` are already at reference speed.
    ``eps_per_answer`` divides the ledger's committed epsilon by every
    answer the deployment released (set-up and warm-up included, since
    the ledger holds those too).
    """
    answered = [a for a in phase.answers if a.ok]
    if not answered:
        raise harness.BenchmarkError("the timed phase answered no query")
    return {
        "latency_p50_ms": latency_ms(phase, 0.50, speed),
        "latency_p90_ms": latency_ms(phase, 0.90, speed),
        "throughput_qps": len(answered) / phase.seconds * speed.wall,
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": phase.peak_rss_mb,
        "cpu_ms_per_answer":
            phase.cpu_seconds * 1000.0 / len(answered) / speed.cpu,
        "answered_frac": len(answered) / len(phase.answers),
        "eps_per_answer": math.fsum(ledger) / answered_total,
        "rel_error": statistics.fmean(
            abs(a.value[0] - exact) / width for a in answered
        ),
    }


def run(workload_name: str, run_seed: int, seconds: float, trace: bool) -> tuple[str, bool]:
    import workloads

    declared = harness.load_declarations()
    workload = workloads.WORKLOADS[workload_name]
    inputs = workloads.make_inputs(workload, run_seed)
    gate = workloads.Gate()
    units = declared["per_layer" if trace else "end_to_end"]

    values, timed = measure(workload, inputs, run_seed, seconds, trace, gate, units)
    for failure in gate.failures:
        print(f"correctness: {failure}", file=sys.stderr)
    correct = not gate.failures
    attempted = len(timed)
    failed = sum(not a.ok for a in timed)
    return harness.result_line(values, units, correct, attempted, failed), correct


def measure(workload, inputs, run_seed: int, seconds: float, trace: bool, gate,
            units: dict[str, str]) -> tuple[dict[str, float], list]:
    """Set up, time, check and set up again.

    Returns the end-to-end (or, traced, the per-layer) figures at
    reference speed, and the timed answers.  A ``harness.SpeedProbe``
    runs through the whole measurement; each set-up and timed phase is
    scaled by the slowdown it saw while that ran (``phase_speed``).
    """
    import workloads

    cpus = os.sched_getaffinity(0)
    # Every process the run starts inherits this.  The caller, its shard
    # worker, the HTTP analysts and the service mostly take turns, and
    # on a shared host a virtual machine that keeps two CPUs busy has
    # time stolen from it, by how much depending on its neighbours:
    # see README.md.
    cpu = min(cpus)
    os.sched_setaffinity(0, {cpu})
    #: ``(time.monotonic() half-way through, seconds)`` of each timed set-up.
    setups: list[tuple[float, float]] = []
    deployment = None
    try:
        with harness.SpeedProbe(cpu) as probe:
            exclude = frozenset({probe.pid})
            first_setups = workloads.SETUP_WARMUPS + workloads.SETUPS
            for index in range(first_setups):
                if deployment is not None:
                    deployment.close()
                    _remove_state(deployment)
                started = time.monotonic()
                deployment, took = workloads.build(workload, inputs, run_seed, index)
                if index >= workloads.SETUP_WARMUPS:
                    setups.append((started + took / 2, took))

            if not workload.http:  # the analyst process warms up its own connections
                warm_until = time.perf_counter() + WARMUP_SECONDS
                for index in range(WARMUP_QUERIES):
                    deployment.query(workloads.WARMUP_ANALYST, index, run_seed)
                    if time.perf_counter() > warm_until:
                        break

            if trace:
                timers = tracing.LayerTimers()
                plain = workloads.closed_loop(deployment, run_seed, seconds / 2, exclude)
                traced = workloads.closed_loop(
                    deployment, run_seed, seconds / 2, exclude, first_index=10**5,
                    timers=timers,
                )
                timed = plain.answers + traced.answers
            else:
                phase = workloads.closed_loop(deployment, run_seed, seconds, exclude)
                timed = phase.answers

            ledger = workloads.verify(deployment, timed, gate)
            answered_total = sum(a.ok for a in deployment.answers)
            deployment.close()
            if workload.http:
                workloads.verify_journal(deployment.state_dir, ledger, gate)

            if not trace:
                # A second group of set-ups, a timed phase later.
                for index in range(first_setups, first_setups + workloads.SETUPS):
                    _remove_state(deployment)
                    started = time.monotonic()
                    deployment, took = workloads.build(workload, inputs, run_seed, index)
                    deployment.close()
                    setups.append((started + took / 2, took))
    finally:
        if deployment is not None:
            deployment.close()
            _remove_state(deployment)
        os.sched_setaffinity(0, cpus)
    if not probe.realtime:
        print("no real-time priority for the speed probe: "
              "figures are reported as measured", file=sys.stderr)

    if not trace:
        middles, took = zip(*setups)
        width = workloads.TIGHT_RANGE[1] - workloads.TIGHT_RANGE[0]
        values = end_to_end_metrics(
            phase, phase_speed(probe, phase),
            (np.array(took) / probe.wall_slowdowns(middles)).tolist(),
            ledger, answered_total, inputs.exact, width,
        )
        return values, timed

    for metric, spent in traced.client_timers.items():
        timers.seconds[metric] += spent
    values = tracing.per_layer_metrics(
        traced.totals_before, traced.totals_after, timers,
        sum(a.ok for a in traced.answers),
    )
    plain_speed = phase_speed(probe, plain)
    traced_speed = phase_speed(probe, traced)
    values = {
        name: value / traced_speed.wall if units[name] == "ms" else value
        for name, value in values.items()
    }
    values["trace.overhead_p50_ms"] = (
        latency_ms(traced, 0.5, traced_speed)
        - latency_ms(plain, 0.5, plain_speed)
    )
    return values, timed


def _remove_state(deployment) -> None:
    if deployment.state_dir is not None:
        shutil.rmtree(deployment.state_dir, ignore_errors=True)
        try:
            Path(deployment.state_dir).parent.rmdir()
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program under test is the checkout's own source tree, never
    # an installed copy.
    source = CHECKOUT / "src"
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent.parent != source:
        print(f"repro imported from {repro.__file__}, not {source}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(workloads.WORKLOADS)}")
    try:
        line, correct = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        killed = harness.stop_children()
        if killed:
            print(f"killed processes left running: {killed}", file=sys.stderr)
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
