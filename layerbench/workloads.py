"""The four workloads and the correctness gate they share.

Each workload builds one GUPT deployment through public entry points
only (``GuptHttpServer`` + ``GuptClient`` for the front door,
``GuptService.execute`` in process), drives it with closed-loop analysts
sending distinct-seed ``mean`` queries under a tight declared range, and
checks what came back against a serial reference runtime and the
privacy ledger.  See ``README.md`` for why each workload exists.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.budget_estimation import AccuracyGoal
from repro.core.gupt import GuptRuntime
from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.observability import MetricsRegistry
from repro.runtime.service import GuptService, QueryRequest
from repro.server import protocol

import harness
import tracing

CHECKOUT = Path(__file__).resolve().parent.parent
#: Journals of the durable workload live here, on the checkout's disk.
STATE_ROOT = CHECKOUT / ".layerbench_state"

DATASET = "bench"
PROGRAM = {"name": "mean"}
#: Data are N(50, 10) clipped to [0, 100]; the analyst declares [30, 70].
DATA_RANGE = (0.0, 100.0)
TIGHT_RANGE = (30.0, 70.0)
#: A power of two, so ledger sums of it are exact.
EPSILON = 0.25
TOTAL_BUDGET = 2.0**20
GOAL = (0.9, 0.1)
#: Fresh set-ups before the timed phase, and again after it (untraced
#: runs); ``setup_s`` is the median of all of them.
SETUPS = 5
#: Untimed set-ups before the first timed one.  The first few set-ups of
#: a process run at up to twice the later ones' time (lazy imports,
#: allocator and page-cache warm-up), and a median that mixes both
#: kinds jumps between them from run to run.
SETUP_WARMUPS = 4
#: Timed-phase queries per analyst re-run against the serial reference.
VERIFY_PER_ANALYST = 3

#: Analyst ids the query seeds are derived from; the timed phase uses
#: 0..analysts-1, so warm-up and set-up queries never repeat its seeds.
WARMUP_ANALYST = 900
SETUP_ANALYST = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    records: int
    backend: str
    shards: int = 1
    analysts: int = 1
    #: Behind the HTTP front door, over a durable journal; otherwise
    #: in process, without one.
    http: bool = False
    accuracy_goal: bool = False
    #: Records carved out as aged (privacy-expired) data.
    aged_records: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("http-wal-2k", 2_000, "vectorized", analysts=2, http=True),
        Workload("plan-1e5", 100_000, "vectorized"),
        Workload("shard-1e5", 100_000, "sharded", shards=2),
        Workload("goal-auto-2e4", 18_000, "vectorized", accuracy_goal=True,
                 aged_records=2_000),
    )
}


def query_seed(run_seed: int, analyst: int, index: int) -> int:
    """Distinct, reproducible seed of one query."""
    return run_seed * 10**9 + analyst * 10**6 + index


def wire_request(seed: int, name: str) -> dict:
    """The HTTP submit body of one query."""
    return protocol.query_request_to_wire(
        DATASET, PROGRAM, [TIGHT_RANGE], epsilon=EPSILON, seed=seed, query_name=name
    )


@dataclass
class Inputs:
    live: np.ndarray
    aged: np.ndarray | None
    #: The program's exact, non-private answer on the live rows.
    exact: float


def make_inputs(workload: Workload, run_seed: int) -> Inputs:
    index = list(WORKLOADS).index(workload.name)
    rng = np.random.default_rng([run_seed, index])
    total = workload.records + workload.aged_records
    rows = np.clip(rng.normal(50.0, 10.0, size=total), *DATA_RANGE)
    live, aged = rows[: workload.records], rows[workload.records:]
    exact = float(protocol.parse_program(PROGRAM)(live.reshape(-1, 1)))
    return Inputs(live=live, aged=aged if aged.size else None, exact=exact)


def _table(values: np.ndarray) -> DataTable:
    return DataTable(values, column_names=["x"], input_ranges=[DATA_RANGE])


@dataclass
class Answer:
    analyst: int
    index: int
    seed: int
    latency: float
    #: ``time.monotonic()`` when the release was in hand.
    finished: float
    ok: bool
    value: tuple = ()
    epsilon: float = 0.0


class Deployment:
    """One built service: register, query, read the ledger, close."""

    def __init__(self, workload: Workload, inputs: Inputs, metrics: MetricsRegistry):
        self.workload = workload
        self.inputs = inputs
        self.metrics = metrics
        self.state_dir: str | None = None
        self.answers: list[Answer] = []
        if workload.http:
            STATE_ROOT.mkdir(exist_ok=True)
            self.state_dir = tempfile.mkdtemp(dir=STATE_ROOT)
        self.service = GuptService(
            rng=0,
            metrics=metrics,
            backend=workload.backend,
            # One worker process: on the sharded backend, K=1.
            workers=1,
            shards=workload.shards if workload.backend == "sharded" else None,
            state_dir=self.state_dir,
        )
        self.server = None
        if workload.http:
            self._start_front_door()
        else:
            owner = self.service.enroll("owner", "bench-owner")
            self.service.register_dataset(
                owner.token, DATASET, _table(inputs.live), TOTAL_BUDGET,
                aged_table=None if inputs.aged is None else _table(inputs.aged),
            )
            self.owner_token = owner.token
            self.tokens = [
                self.service.enroll("analyst", f"analyst-{a}").token
                for a in range(workload.analysts)
            ]

    def _start_front_door(self) -> None:
        from repro.server.client import GuptClient
        from repro.server.http import GuptHttpServer

        self.server = GuptHttpServer(
            self.service, admin_token="bench-admin", metrics=self.metrics
        )
        host, port = self.server.start()
        admin = GuptClient(host, port)
        try:
            owner = admin.enroll("owner", "bench-owner", "bench-admin")
            self.tokens = [
                admin.enroll("analyst", f"analyst-{a}", "bench-admin")
                for a in range(self.workload.analysts)
            ]
        finally:
            admin.close()
        self.owner = GuptClient(host, port, token=owner)
        self.owner.register_dataset(
            DATASET, self.inputs.live.tolist(), total_budget=TOTAL_BUDGET,
            column_names=["x"], input_ranges=[list(DATA_RANGE)],
        )
        # Answers the set-up query; the timed phases use analysts.py.
        self.client = GuptClient(host, port, token=self.tokens[0])

    # -- queries -----------------------------------------------------------
    def _request(self, seed: int, name: str) -> QueryRequest:
        goal = self.workload.accuracy_goal
        return QueryRequest(
            dataset=DATASET,
            program=protocol.parse_program(PROGRAM),
            range_strategy=TightRange([TIGHT_RANGE]),
            epsilon=None if goal else EPSILON,
            accuracy=AccuracyGoal(*GOAL) if goal else None,
            block_size="auto" if goal else None,
            query_name=name,
            seed=seed,
        )

    def query(self, analyst: int, index: int, run_seed: int) -> Answer:
        """One query from this process: submit, wait for the release."""
        seed = query_seed(run_seed, analyst, index)
        name = f"q-{analyst}-{index}"
        started = time.monotonic()
        if self.workload.http:
            response = self.client.result(self.client.submit(wire_request(seed, name)))
        else:
            response = self.service.execute(self.tokens[0], self._request(seed, name))
        finished = time.monotonic()
        answer = Answer(
            analyst, index, seed, finished - started, finished, bool(response.ok),
            tuple(response.value), float(response.epsilon_charged),
        )
        self.answers.append(answer)
        return answer

    def ledger(self) -> list[float]:
        if self.workload.http:
            return [float(e["epsilon"]) for e in self.owner.ledger(DATASET)]
        return [e for _, e in self.service.ledger_entries(self.owner_token, DATASET)]

    def close(self) -> None:
        if self.workload.http:
            self.client.close()
            self.owner.close()
        if self.server is not None:
            self.server.stop()
        self.service.close()


def build(
    workload: Workload, inputs: Inputs, run_seed: int, setup_index: int
) -> tuple[Deployment, float]:
    """Build a deployment and answer its first query; returns it and the time taken.

    Set-up time runs from constructing the service to holding the first
    released value: journal open, HTTP bind, enrollment, dataset
    registration and, on the sharded backend, worker fork and segment
    push on the first query.
    """
    metrics = MetricsRegistry()
    started = time.monotonic()
    deployment = Deployment(workload, inputs, metrics)
    first = deployment.query(SETUP_ANALYST + setup_index, 0, run_seed)
    elapsed = time.monotonic() - started
    if not first.ok:
        deployment.close()
        raise RuntimeError(f"set-up query {setup_index} was refused")
    return deployment, elapsed


@dataclass
class Phase:
    """One timed closed-loop phase and what the system spent on it."""

    answers: list[Answer]
    #: ``time.monotonic()`` when the phase began and ended.
    started: float
    ended: float
    #: CPU of the service process and its workers over the phase
    #: (analysts and the speed probe excluded).
    cpu_seconds: float
    peak_rss_mb: float
    #: Program counters and histogram sums at the start and the end.
    totals_before: dict[str, float]
    totals_after: dict[str, float]
    #: Seconds in each client-side layer timer (traced HTTP phases).
    client_timers: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.ended - self.started


def _system_rss(exclude: frozenset[int]) -> float:
    pids = [os.getpid(), *(p for p in harness.descendant_pids() if p not in exclude)]
    return harness.peak_rss_mb(pids)


def closed_loop(
    deployment: Deployment,
    run_seed: int,
    seconds: float,
    exclude: frozenset[int],
    first_index: int = 0,
    timers: tracing.LayerTimers | None = None,
) -> Phase:
    """Analysts send their next query only once the last one is released.

    The in-process workloads have one caller, this thread.  The HTTP
    workload's analysts run in a process of their own (``analysts.py``),
    so client work neither shares the service's interpreter lock nor
    counts as the service's CPU or memory.  ``exclude`` are processes
    of the benchmark's own (the speed probe) whose CPU and memory are
    not the system's.  ``timers``, when given, are installed for exactly
    the timed queries.
    """
    if deployment.workload.http:
        return _remote_analysts(
            deployment, run_seed, seconds, exclude, first_index, timers
        )
    totals_before = tracing.registry_totals(deployment.metrics.snapshot())
    if timers is not None:
        timers.install()
    answers = []
    try:
        cpu_before = harness.system_cpu_seconds(exclude)
        started = time.monotonic()
        deadline = started + seconds
        index = first_index
        while time.monotonic() < deadline:
            answers.append(deployment.query(0, index, run_seed))
            index += 1
        ended = time.monotonic()
        cpu = harness.system_cpu_seconds(exclude) - cpu_before
    finally:
        if timers is not None:
            timers.remove()
    return Phase(
        answers, started, ended, cpu, _system_rss(exclude),
        totals_before, tracing.registry_totals(deployment.metrics.snapshot()),
    )


def _remote_analysts(
    deployment: Deployment,
    run_seed: int,
    seconds: float,
    exclude: frozenset[int],
    first_index: int,
    timers: tracing.LayerTimers | None,
) -> Phase:
    host, port = deployment.server.address
    config = {
        "host": host, "port": port, "tokens": deployment.tokens,
        "run_seed": run_seed, "seconds": seconds, "first_index": first_index,
        "trace": timers is not None,
    }
    process = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("analysts.py"))],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        process.stdin.write(json.dumps(config) + "\n")
        process.stdin.flush()
        if process.stdout.readline().strip() != "ready":
            raise RuntimeError("the analyst process did not start")
        exclude = exclude | {process.pid}
        totals_before = tracing.registry_totals(deployment.metrics.snapshot())
        if timers is not None:
            timers.install()
        try:
            cpu_before = harness.system_cpu_seconds(exclude)
            started = time.monotonic()
            process.stdin.write("go\n")
            process.stdin.flush()
            done = process.stdout.readline().strip() == "done"
            ended = time.monotonic()
            cpu = harness.system_cpu_seconds(exclude) - cpu_before
        finally:
            if timers is not None:
                timers.remove()
        rss = _system_rss(exclude)
        if done:
            process.stdin.write("report\n")
            process.stdin.flush()
            report = json.loads(process.stdout.read())
        if process.wait(timeout=60) != 0 or not done:
            raise RuntimeError("the analyst process failed")
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
    warmup = [Answer(**{**a, "value": tuple(a["value"])}) for a in report["warmup"]]
    answers = [Answer(**{**a, "value": tuple(a["value"])}) for a in report["answers"]]
    deployment.answers.extend(warmup + answers)
    return Phase(
        answers, started, ended, cpu, rss, totals_before,
        tracing.registry_totals(deployment.metrics.snapshot()), report["timers"],
    )


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
@dataclass
class Gate:
    failures: list[str] = field(default_factory=list)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)


def reference_values(
    workload: Workload, inputs: Inputs, answers: list[Answer]
) -> dict[int, tuple]:
    """Releases of a serial runtime at the same shard count, by seed."""
    values = {}
    with GuptRuntime(
        backend="serial", shards=workload.shards, metrics=MetricsRegistry(enabled=False)
    ) as runtime:
        runtime.dataset_manager.register(
            DATASET, _table(inputs.live), TOTAL_BUDGET,
            aged_table=None if inputs.aged is None else _table(inputs.aged),
        )
        for answer in answers:
            goal = workload.accuracy_goal
            result = runtime.run(
                DATASET,
                protocol.parse_program(PROGRAM),
                TightRange([TIGHT_RANGE]),
                epsilon=None if goal else EPSILON,
                accuracy=AccuracyGoal(*GOAL) if goal else None,
                block_size="auto" if goal else None,
                rng=answer.seed,
            )
            values[answer.seed] = tuple(float(v) for v in result.value)
    return values


def verify(deployment: Deployment, timed: list[Answer], gate: Gate) -> list[float]:
    """Bit-identity on a fixed sample, and exact ledger arithmetic.

    Reads and returns the ledger of the still-open deployment; the
    durable journal is checked by :func:`verify_journal` after close.
    """
    workload = deployment.workload
    sample = [
        a for a in timed if a.index < VERIFY_PER_ANALYST and a.ok
    ]
    gate.check(
        len(sample) == VERIFY_PER_ANALYST * workload.analysts,
        f"only {len(sample)} verification queries were answered",
    )
    reference = reference_values(workload, deployment.inputs, sample)
    for answer in sample:
        gate.check(
            answer.value == reference[answer.seed],
            f"seed {answer.seed}: released {answer.value}, "
            f"serial reference {reference[answer.seed]}",
        )
    answered = [a for a in deployment.answers if a.ok]
    ledger = deployment.ledger()
    gate.check(
        len(ledger) == len(answered),
        f"ledger has {len(ledger)} entries for {len(answered)} answers",
    )
    spent = math.fsum(ledger)
    gate.check(
        spent == math.fsum(a.epsilon for a in answered),
        "ledger total differs from the epsilon charged to answers",
    )
    gate.check(spent <= TOTAL_BUDGET, "ledger exceeds the total budget")
    if not workload.accuracy_goal:
        gate.check(
            all(e == EPSILON for e in ledger), "a ledger entry is not the requested epsilon"
        )
    return ledger


def verify_journal(state_dir: str, ledger: list[float], gate: Gate) -> None:
    """``fsck`` of a closed journal: clean, and the ledger's spend."""
    from repro.accounting.journal import fsck, journal_path

    report = fsck(journal_path(state_dir))
    gate.check(report.clean and not report.anomalies, f"fsck: {report.to_dict()}")
    state = report.datasets.get(DATASET, {})
    gate.check(
        state.get("spent") == math.fsum(ledger) and state.get("committed") == len(ledger),
        f"journal spend {state} differs from the ledger's "
        f"{math.fsum(ledger)} over {len(ledger)} entries",
    )

