"""HTTP analysts in a process of their own, as real remote analysts are.

Started by the front-door workload with its configuration as one JSON
line on standard input.  Each analyst thread opens a keep-alive
connection, warms it up, and the process prints ``ready``; on the next
input line every analyst sends closed-loop queries (submit, then
long-poll for the release) until the phase's seconds are up, and the
process prints ``done``.  On the next input line it prints one JSON
line with every answer and, when traced, the time spent in
``GuptClient.submit`` / ``GuptClient.result``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

WARMUP_QUERIES = 5


def main() -> int:
    config = json.loads(sys.stdin.readline())
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    import tracing
    from workloads import WARMUP_ANALYST, query_seed, wire_request

    from repro.server.client import GuptClient

    run_seed, seconds = config["run_seed"], config["seconds"]
    clients = [
        GuptClient(config["host"], config["port"], token=token)
        for token in config["tokens"]
    ]

    def query(slot: int, analyst: int, index: int) -> dict:
        seed = query_seed(run_seed, analyst, index)
        body = wire_request(seed, f"q-{analyst}-{index}")
        started = time.monotonic()
        response = clients[slot].result(clients[slot].submit(body))
        finished = time.monotonic()
        return {
            "analyst": analyst, "index": index, "seed": seed,
            "latency": finished - started, "finished": finished,
            "ok": bool(response.ok), "value": list(response.value),
            "epsilon": float(response.epsilon_charged),
        }

    warmup = [
        query(slot, WARMUP_ANALYST + slot, config["first_index"] + index)
        for index in range(WARMUP_QUERIES)
        for slot in range(len(clients))
    ]
    timers = tracing.LayerTimers()
    if config["trace"]:
        timers.install()
    print("ready", flush=True)
    sys.stdin.readline()

    results: list[list[dict]] = [[] for _ in clients]
    errors: list[BaseException] = []
    deadline = time.monotonic() + seconds

    def drive(slot: int) -> None:
        index = config["first_index"]
        try:
            while time.monotonic() < deadline:
                results[slot].append(query(slot, slot, index))
                index += 1
        except BaseException as exc:  # reported after every join
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(s,)) for s in range(len(clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    timers.remove()
    for client in clients:
        client.close()
    if errors:
        raise errors[0]
    # The phase is over: the service's memory and CPU are read before
    # the benchmark process parses the report below.
    print("done", flush=True)
    sys.stdin.readline()
    print(json.dumps({
        "warmup": warmup,
        "answers": [a for answers in results for a in answers],
        "timers": timers.seconds,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
