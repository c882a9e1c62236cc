"""Machine-speed probe: times ``harness.reference`` through a whole run.

Run as a script by ``harness.SpeedProbe`` with the CPU the program
under test runs on (``speed.py 0``).  It asks for real-time priority
and prints ``ready realtime`` (or ``ready normal`` when the system
refuses), then every ``harness.PROBE_INTERVAL_SECONDS`` one line
``<time.monotonic() at the end> <seconds harness.reference took>
<seconds the host has stolen from the CPU so far>`` until its standard
input closes.  At real-time priority it runs as soon
as it wakes, preempting whatever the program keeps busy, so its timings
follow the speed of that CPU, not the program's load.  The CPUs of one
virtual machine can run at different speeds at once (each is a thread
on a shared host), so the probe times the one the program uses.
"""

from __future__ import annotations

import os
import select
import sys
import time

import harness


def stolen_seconds(cpu: int) -> float:
    """Time the host has run something else while ``cpu`` had work ("steal", proc(5))."""
    with open("/proc/stat") as stat:
        for line in stat:
            if line.startswith(f"cpu{cpu} "):
                return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    raise LookupError(f"no cpu{cpu} in /proc/stat")


def main(argv: list[str]) -> int:
    cpu = int(argv[0])
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
        priority = "realtime"
    except (AttributeError, OSError) as exc:
        print(f"speed probe runs without real-time priority: {exc}", file=sys.stderr)
        priority = "normal"
    harness.reference()
    print("ready", priority, flush=True)
    while not select.select([sys.stdin], [], [], harness.PROBE_INTERVAL_SECONDS)[0]:
        started = time.monotonic()
        harness.reference()
        ended = time.monotonic()
        print(ended, ended - started, stolen_seconds(cpu), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
