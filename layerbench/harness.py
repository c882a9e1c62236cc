"""Measurement helpers shared by every workload.

Percentiles, process statistics (CPU and peak memory of the coordinator
and its worker processes), the declared-metric bookkeeping that turns
raw numbers into the benchmark's one-line JSON result, and the probe of
the machine's speed.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: Where the metric declarations live (the repository root).
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_PATTERN = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: A reported percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10
#: Seconds :func:`reference` takes on the reference machine.  Figures
#: that follow CPU speed are reported as they would read at that speed.
REFERENCE_SECONDS = 0.00083
#: The speed probe times :func:`reference` this often.  The CPU's speed
#: changes in episodes of a tenth of a second or more, and a query's
#: figure follows it only if the probe times a few within each.
PROBE_INTERVAL_SECONDS = 0.05
#: The share of time the host steals is taken over this window, because
#: steal is counted in 10-ms ticks.
STEAL_WINDOW_SECONDS = 1.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class BenchmarkError(RuntimeError):
    """The run cannot produce a trustworthy result (no JSON is printed)."""


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of ``values``.

    The value at 1-based rank ``ceil(q * n)`` of the sorted samples, so
    it is always an observed sample.  Refuses a sample too small to have
    :data:`TAIL_SAMPLES` observations ranked above the requested one,
    because such a tail percentile would be set by one or two outliers.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < TAIL_SAMPLES and q < 1.0:
        raise BenchmarkError(
            f"p{q * 100:g} of {n} samples has {n - rank} samples beyond it; "
            f"at least {TAIL_SAMPLES} are needed"
        )
    return ordered[rank - 1]


def load_declarations(path: Path = BENCHMARK_JSON) -> dict:
    """The benchmark's declared metrics: ``{"end_to_end": {...}, "per_layer": {...}}``.

    Each maps a metric name to its unit; names and units are validated
    against the contract's character sets.
    """
    spec = json.loads(path.read_text())
    declared = {}
    for group in ("end_to_end", "per_layer"):
        units = {}
        for entry in spec[group]:
            name, unit = entry["name"], entry["unit"]
            if not NAME_PATTERN.fullmatch(name):
                raise BenchmarkError(f"bad metric name {name!r}")
            if not UNIT_PATTERN.fullmatch(unit):
                raise BenchmarkError(f"bad unit {unit!r} for {name}")
            if name in units:
                raise BenchmarkError(f"metric {name} declared twice")
            units[name] = unit
        declared[group] = units
    return declared


def result_line(
    values: dict[str, float],
    units: dict[str, str],
    correct: bool,
    attempted: int,
    failed: int,
) -> str:
    """The final JSON line: exactly the declared metrics, each with its unit."""
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise BenchmarkError(f"metrics missing {missing}, undeclared {extra}")
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        if not math.isfinite(value):
            raise BenchmarkError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )


# ----------------------------------------------------------------------
# Process statistics (Linux /proc)
# ----------------------------------------------------------------------
def descendant_pids(pid: int | None = None) -> list[int]:
    """Every live descendant process of ``pid`` (default: this process)."""
    root = os.getpid() if pid is None else pid
    found: list[int] = []
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        try:
            tids = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                text = Path(f"/proc/{parent}/task/{tid}/children").read_text()
            except OSError:
                continue
            for child in text.split():
                found.append(int(child))
                frontier.append(int(child))
    return sorted(set(found))


def _status_kib(pid: int, field: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the peak resident set (VmHWM) of each process, in MiB.

    An upper bound on the simultaneous peak: pages a forked worker still
    shares with its parent are counted in both.
    """
    return sum(_status_kib(pid, "VmHWM") for pid in pids) / 1024.0


def cpu_seconds(pids: list[int]) -> float:
    """User plus system CPU time consumed so far by ``pids`` (all threads)."""
    total = 0
    for pid in pids:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # Fields 14 and 15 of proc(5) (utime, stime); the split above
        # starts at field 3.
        total += int(fields[11]) + int(fields[12])
    return total / _CLOCK_TICKS


def system_cpu_seconds(exclude: frozenset[int] = frozenset()) -> float:
    """CPU used so far by this process and its descendants not in ``exclude``."""
    others = [p for p in descendant_pids() if p not in exclude]
    return time.process_time() + cpu_seconds(others)


def stop_children() -> list[int]:
    """Stop every process this one started and wait for each to end.

    The sharded backend's shared-memory segments start multiprocessing's
    resource tracker, which otherwise outlives this process by the
    moment it takes to see its pipe close.  Any other descendant still
    alive (none, when every deployment closed) is killed.  Returns the
    pids that had to be killed.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()
    leftover = descendant_pids()
    for pid in leftover:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in leftover:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # a grandchild: its own parent reaps it
            pass
    return leftover


def reference() -> float:
    """A fixed computation: plan-drawing-like array work plus interpreter work.

    A permutation, gather and sort of 20,000 floats and a 4,000-step
    loop; about 0.8 ms on the reference machine.
    """
    rows = 20_000
    data = np.random.default_rng(0).random(rows)
    order = np.random.default_rng(1).permutation(rows)
    total = float(np.sort(data[order])[rows // 2])
    for i in range(4_000):
        total += i * i
    return total


class SpeedProbe:
    """Times :func:`reference` every :data:`PROBE_INTERVAL_SECONDS` in a child process (``speed.py``).

    Used as a context manager around a whole run, with the CPU the
    program under test runs on.  The child runs there at real-time
    priority, so it preempts the program and its timings follow the
    CPU's speed whatever load the program puts on it, in threads or
    processes of its own.  Where the system refuses real-time priority,
    the probe's timings would follow that load too, so
    :meth:`slowdowns` reports 1.0 (no correction) instead.
    """

    def __init__(self, cpu: int):
        self._cpu = cpu
        self._process: subprocess.Popen | None = None
        self.realtime = False
        #: ``(time.monotonic() at the end, seconds, seconds stolen so
        #: far)`` of each timing.
        self.timings: list[tuple[float, float, float]] = []

    @property
    def pid(self) -> int:
        return self._process.pid

    def __enter__(self) -> "SpeedProbe":
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("speed.py")), str(self._cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        # Its start-up would compete with the first set-ups timed.
        ready = self._process.stdout.readline().split()
        if ready[:1] != ["ready"]:
            self._stop()
            raise BenchmarkError("the speed probe did not start")
        self.realtime = ready[1:] == ["realtime"]
        return self

    def __exit__(self, *exc_info) -> None:
        output = self._stop()
        if self._process.returncode != 0:
            raise BenchmarkError(f"speed probe exited with {self._process.returncode}")
        values = [float(v) for v in output.split()]
        self.timings = list(zip(values[0::3], values[1::3], values[2::3]))

    def _stop(self) -> str:
        try:
            # Closing the probe's standard input stops it.
            output, _ = self._process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            output, _ = self._process.communicate()
        return output

    def slowdowns(self, times) -> np.ndarray:
        """How many times slower than the reference machine the CPU ran at ``times``.

        ``times`` are ``time.monotonic()`` readings.  The CPU switches
        between speeds within seconds, so each time gets its own figure:
        the timings, each replaced by the median of it and its two
        neighbours (which drops a single disturbed timing), are
        interpolated linearly, and divided by :data:`REFERENCE_SECONDS`.
        All 1.0 without real-time priority.
        """
        times = np.asarray(times, dtype=float)
        if not self.realtime:
            return np.ones_like(times)
        if len(self.timings) < 5:
            raise BenchmarkError(f"the speed probe took {len(self.timings)} timings")
        ended, took, _ = np.array(self.timings).T
        smooth = np.median(np.stack([took[:-2], took[1:-1], took[2:]]), axis=0)
        return np.interp(times, ended[1:-1], smooth) / REFERENCE_SECONDS

    def wall_slowdowns(self, times) -> np.ndarray:
        """:meth:`slowdowns` stretched further by the time the host stole.

        While the host runs something else on the CPU (steal), the
        program's wall time runs on but its CPU time does not.  The
        share stolen around each time is taken over the
        :data:`STEAL_WINDOW_SECONDS` centred on it.
        """
        times = np.asarray(times, dtype=float)
        slowdowns = self.slowdowns(times)
        if not self.realtime:
            return slowdowns
        ended, _, stolen = np.array(self.timings).T
        low = np.maximum(times - STEAL_WINDOW_SECONDS / 2, ended[0])
        high = np.minimum(times + STEAL_WINDOW_SECONDS / 2, ended[-1])
        share = (np.interp(high, ended, stolen) - np.interp(low, ended, stolen)) / (high - low)
        return slowdowns / (1.0 - np.clip(share, 0.0, 0.5))

    def busy_seconds(self, starts, ends) -> np.ndarray:
        """Seconds the probe itself ran within each ``[start, end]``.

        Program and probe share one CPU, so a query the probe preempted
        waited this long for the benchmark, not for the program.
        """
        ended, took, _ = np.array(self.timings).reshape(-1, 3).T
        began = ended - took
        done = np.concatenate([[0.0], np.cumsum(took)])

        def before(times):
            times = np.asarray(times, dtype=float)
            finished = np.searchsorted(ended, times, side="right")
            running = np.minimum(finished, len(ended) - 1)
            partial = np.where(
                finished < len(ended),
                np.clip(times - began[running], 0.0, took[running]), 0.0,
            )
            return done[finished] + partial

        return before(ends) - before(starts)

    def mean_slowdown(self, start: float, end: float, wall: bool = False) -> float:
        """The slowdown over ``[start, end]``: its seconds over their reference seconds.

        Of the program's wall time when ``wall``, else of its CPU time.
        """
        grid = np.linspace(start, end, 1001)
        slowdowns = self.wall_slowdowns(grid) if wall else self.slowdowns(grid)
        return float(1.0 / np.mean(1.0 / slowdowns))
