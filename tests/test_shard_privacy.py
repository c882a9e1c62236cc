"""Privacy boundary of the shard transport: partials only, never records.

The shard coordinator's design claim is that, once a node holds its
shards' rows, the only payload that ever crosses back to the
coordinator is the per-shard block summary: a clamped ``(l_s, p)``
output matrix, its success mask, and public scalars.  These tests
capture every frame in both directions through the coordinator's
``frame_observer`` hook — over TCP to node threads
(``node_spawn="thread"``, the ``remote`` backend) and over socketpairs
to forked nodes (``node_spawn="fork"``, what ``backend="sharded"``
builds) — and prove it structurally, following the sentinel-band
technique of ``tests/test_observability.py``: all records live in
[7000, 7400], so any unclamped record magnitude in a place it shouldn't
be is detectable, and the *shape* allowlist rules out smuggling the raw
record slab regardless of its values.
"""

import numpy as np
import pytest

from repro.accounting.manager import DatasetManager
from repro.core.blocks import shard_block_counts
from repro.core.gupt import GuptRuntime
from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.estimators.statistics import Mean
from repro.observability import MetricsRegistry
from repro.runtime.computation_manager import ComputationManager
from repro.runtime.remote import RemoteShardBackend, wire

from tests.test_observability import SENTINEL_LO, SENTINEL_HI, numeric_leaves

SHARDS = 4
NODES = 2
BLOCK_SIZE = 100
NUM_RECORDS = 2_000
EPSILON = 0.5


@pytest.fixture
def sentinel_manager(rng):
    manager = DatasetManager()
    values = rng.uniform(SENTINEL_LO + 50.0, SENTINEL_HI - 50.0, size=NUM_RECORDS)
    manager.register(
        "census",
        DataTable(
            values,
            column_names=["v"],
            input_ranges=[(SENTINEL_LO, SENTINEL_HI)],
        ),
        total_budget=20.0,
    )
    return manager


def _run_observed(manager, metrics, declared_range, spawn="fork"):
    """One seeded query over ``spawn`` nodes, capturing every frame.

    Returns ``(result, frames, messages)`` where ``frames`` is a list of
    ``(direction, raw_bytes)`` captures and ``messages`` the decoded
    node -> coordinator frames.
    """
    frames = []
    messages = []
    backend = RemoteShardBackend(
        shards=SHARDS, nodes=NODES, metrics=metrics, node_spawn=spawn,
        message_observer=messages.append,
        frame_observer=lambda direction, raw: frames.append((direction, raw)),
        heartbeat_interval=None,
    )
    try:
        computation = ComputationManager(
            backend="sharded" if spawn == "fork" else "remote",
            shards=SHARDS, max_workers=NODES, sharded=backend, metrics=metrics,
        )
        runtime = GuptRuntime(
            manager, computation_manager=computation, rng=7, metrics=metrics
        )
        try:
            result = runtime.run(
                "census", Mean(), TightRange(declared_range),
                epsilon=EPSILON, block_size=BLOCK_SIZE, rng=11,
            )
            backend.heartbeat_once()  # capture heartbeat frames too
        finally:
            runtime.close()
    finally:
        backend.close()
    assert metrics.snapshot()["counters"]["remote.queries"] == 1
    return result, frames, messages


def _decoded(frames, direction):
    return [wire.decode_frame(raw) for d, raw in frames if d == direction]


def _assert_return_channel_clamped(frames, messages):
    """Node -> coordinator traffic: allowlisted kinds only, partial
    matrices clamped below the sentinel band and shaped by the public
    shard geometry, headers carrying nothing but public geometry."""
    received = _decoded(frames, "recv")
    assert received, "observer saw no node -> coordinator frames"
    counts = shard_block_counts(NUM_RECORDS, BLOCK_SIZE, 1, SHARDS)
    partial_shards = []
    for frame in received:
        assert frame.kind in wire.NODE_TO_COORDINATOR_KINDS, frame.kind_name
        header_leaves = numeric_leaves(dict(frame.header))
        assert not any(
            SENTINEL_LO <= v <= SENTINEL_HI for v in header_leaves
        ), frame.header
        if frame.kind != wire.PARTIAL:
            assert frame.body == b"", frame.kind_name
            continue
        shard = int(frame.header["shard"])
        partial_shards.append(shard)
        rows = int(frame.header["shape"][0])
        assert tuple(frame.header["shape"]) == (int(counts[shard]), 1)
        # Exactly the output matrix plus one mask byte per block.
        assert len(frame.body) == rows * 8 + rows
        matrix = np.frombuffer(frame.body[: rows * 8], dtype="<f8")
        assert (matrix <= 100.0).all()
        assert not (
            (matrix >= SENTINEL_LO) & (matrix <= SENTINEL_HI)
        ).any(), "unclamped sentinel-band value crossed the boundary"
        # Far too small to carry the shard's raw record slice.
        assert matrix.size < NUM_RECORDS // SHARDS
    assert sorted(partial_shards) == list(range(SHARDS))
    # The message_observer hook saw the same decoded traffic.
    assert all(m.kind in wire.NODE_TO_COORDINATOR_KINDS for m in messages)


def _serial_release(manager):
    runtime = GuptRuntime(manager, rng=7, backend="serial", shards=SHARDS)
    try:
        return runtime.run(
            "census", Mean(), TightRange((0.0, 100.0)),
            epsilon=EPSILON, block_size=BLOCK_SIZE, rng=11,
        )
    finally:
        runtime.close()


class TestBoundarySchema:
    """The sentinels over forked local nodes (``backend="sharded"``)."""

    def test_only_allowlisted_message_shapes_cross(self, sentinel_manager):
        """Every frame back from a node is an allowlisted kind, and every
        partial is a block-summary matrix whose row count matches the
        public shard geometry, far too small to carry the record slab."""
        metrics = MetricsRegistry()
        _, frames, messages = _run_observed(
            sentinel_manager, metrics, (SENTINEL_LO, SENTINEL_HI)
        )
        received = _decoded(frames, "recv")
        counts = shard_block_counts(NUM_RECORDS, BLOCK_SIZE, 1, SHARDS)
        partials = [f for f in received if f.kind == wire.PARTIAL]
        assert sorted(int(f.header["shard"]) for f in partials) == list(range(SHARDS))
        for frame in received:
            assert frame.kind in wire.NODE_TO_COORDINATOR_KINDS, frame.kind_name
            if frame.kind == wire.PARTIAL:
                rows = int(counts[int(frame.header["shard"])])
                assert tuple(frame.header["shape"]) == (rows, 1)
                assert len(frame.body) == rows * 8 + rows
                assert rows < NUM_RECORDS // SHARDS
        assert len(messages) == len(received)

    def test_partials_are_clamped_before_crossing(self, sentinel_manager):
        """Declared output ranges are applied *inside* the node: with
        a declared range far below the sentinel band, no number in the
        sentinel band ever crosses the boundary — even though every
        block's true mean lies in it."""
        metrics = MetricsRegistry()
        result, frames, messages = _run_observed(
            sentinel_manager, metrics, (0.0, 100.0)
        )
        _assert_return_channel_clamped(frames, messages)
        # Clamping is idempotent, so narrowing the boundary early does
        # not move the release: the aggregate stays in the clamp range.
        assert all(0.0 <= float(v) <= 100.0 + 10.0 / EPSILON for v in result.value)

    def test_released_bits_match_serial_despite_worker_clamp(self, sentinel_manager):
        """The clamp-at-the-boundary optimization never moves bits."""
        metrics = MetricsRegistry()
        result, _, _ = _run_observed(sentinel_manager, metrics, (0.0, 100.0))

        serial_manager = DatasetManager()
        values = np.random.default_rng(12345).uniform(
            SENTINEL_LO + 50.0, SENTINEL_HI - 50.0, size=NUM_RECORDS
        )
        serial_manager.register(
            "census",
            DataTable(values, column_names=["v"],
                      input_ranges=[(SENTINEL_LO, SENTINEL_HI)]),
            total_budget=20.0,
        )
        assert tuple(result.value) == tuple(_serial_release(serial_manager).value)


class TestRemoteWireSentinels:
    """The same sentinels over TCP to node threads (``backend="remote"``)."""

    def test_return_channel_is_allowlisted_and_clamped(self, sentinel_manager):
        """Node -> coordinator traffic over TCP: allowlisted kinds only,
        partial matrices clamped below the sentinel band, headers
        carrying nothing but public geometry."""
        _, frames, messages = _run_observed(
            sentinel_manager, MetricsRegistry(), (0.0, 100.0), spawn="thread"
        )
        _assert_return_channel_clamped(frames, messages)

    def test_each_shard_segment_is_pushed_to_exactly_one_node(
        self, sentinel_manager
    ):
        """A node only ever receives its *own* shards' rows: no shard's
        segment crosses the wire twice in a healthy query, over TCP or
        socketpairs.  (Segments legitimately carry sentinel-band rows —
        that is the positive control that the capture hook sees real
        payload bytes.)"""
        for spawn in ("thread", "fork"):
            _, frames, _ = _run_observed(
                sentinel_manager, MetricsRegistry(), (0.0, 100.0), spawn=spawn
            )
            segments = [
                f for f in _decoded(frames, "send") if f.kind == wire.SEGMENT
            ]
            pushed = [int(f.header["shard"]) for f in segments]
            assert sorted(pushed) == list(range(SHARDS)), (spawn, pushed)
            rows = np.frombuffer(segments[0].body, dtype="<f8")
            assert ((rows >= SENTINEL_LO) & (rows <= SENTINEL_HI)).all()

    def test_heartbeats_carry_tokens_only(self, sentinel_manager):
        for spawn in ("thread", "fork"):
            _, frames, _ = _run_observed(
                sentinel_manager, MetricsRegistry(), (0.0, 100.0), spawn=spawn
            )
            beats = [
                f for f in _decoded(frames, "send") + _decoded(frames, "recv")
                if f.kind in (wire.PING, wire.PONG)
            ]
            assert beats, f"heartbeat_once produced no PING/PONG frames ({spawn})"
            for frame in beats:
                assert set(frame.header) == {"token"}
                assert frame.body == b""

    def test_remote_release_matches_in_process_sharded(self, sentinel_manager):
        """Observation hooks and transport change nothing: the release
        over TCP equals the release over forked socketpair nodes."""
        remote, _, _ = _run_observed(
            sentinel_manager, MetricsRegistry(), (0.0, 100.0), spawn="thread"
        )
        in_process, _, _ = _run_observed(
            sentinel_manager, MetricsRegistry(), (0.0, 100.0)
        )
        assert tuple(remote.value) == tuple(in_process.value)


class TestFederatedWireSentinels:
    """Curator mode: not even segments cross the wire.

    With node-held (curated) datasets the coordinator learns geometry
    at registration and clamped partials at query time — nothing else.
    These sentinels prove the stronger boundary end to end: no SEGMENT
    frame in either direction, no sentinel-band number in any frame,
    no raw row bytes on the socket, no values in coordinator memory —
    while the release stays bit-identical to the in-process engine
    holding all the rows locally.
    """

    def _federated_observed(self, values, declared_range):
        from repro.runtime.remote import RemoteShardBackend, ShardNodeServer

        half = NUM_RECORDS // 2
        curators = [
            ShardNodeServer(curated={"census": values[:half]}),
            ShardNodeServer(curated={"census": values[half:]}),
        ]
        addresses = ["{0}:{1}".format(*c.start()) for c in curators]
        frames = []
        metrics = MetricsRegistry()
        try:
            backend = RemoteShardBackend(
                shards=SHARDS, nodes=addresses, metrics=metrics,
                frame_observer=lambda direction, raw: frames.append(
                    (direction, raw)
                ),
                heartbeat_interval=None,
            )
            computation = ComputationManager(
                backend="remote", shards=SHARDS, max_workers=2,
                sharded=backend, metrics=metrics,
            )
            runtime = GuptRuntime(
                DatasetManager(), computation_manager=computation, rng=7,
                metrics=metrics,
            )
            try:
                table = runtime.register_federated(
                    "census", total_budget=20.0, column_names=["v"],
                    input_ranges=[(SENTINEL_LO, SENTINEL_HI)],
                )
                result = runtime.run(
                    "census", Mean(), TightRange(declared_range),
                    epsilon=EPSILON, block_size=BLOCK_SIZE, rng=11,
                )
            finally:
                runtime.close()
        finally:
            for curator in curators:
                curator.stop()
        return result, frames, backend, table

    def test_no_segments_no_sentinels_no_resident_values(self, rng):
        from repro.datasets.table import DataTable  # noqa: F401 (parity)
        from repro.exceptions import DatasetError
        from repro.runtime.remote import wire

        values = rng.uniform(
            SENTINEL_LO + 50.0, SENTINEL_HI - 50.0, size=(NUM_RECORDS, 1)
        )
        result, frames, backend, table = self._federated_observed(
            values, (0.0, 100.0)
        )
        assert frames, "observer saw no traffic"
        decoded = [
            (direction, wire.decode_frame(raw)) for direction, raw in frames
        ]
        # 1. No SEGMENT frame ever crosses, in either direction.
        assert not any(
            frame.kind == wire.SEGMENT for _, frame in decoded
        ), "a segment crossed the wire for a federated dataset"
        # 2. No frame header carries a sentinel-band number, and every
        #    PARTIAL body is clamped below the band.
        partials = 0
        for _, frame in decoded:
            header_leaves = numeric_leaves(dict(frame.header))
            assert not any(
                SENTINEL_LO <= v <= SENTINEL_HI for v in header_leaves
            ), frame.header
            if frame.kind == wire.PARTIAL:
                partials += 1
                rows = int(frame.header["shape"][0])
                matrix = np.frombuffer(frame.body[: rows * 8], dtype="<f8")
                assert (matrix <= 100.0).all()
                assert not (
                    (matrix >= SENTINEL_LO) & (matrix <= SENTINEL_HI)
                ).any()
        assert partials == SHARDS
        # 3. No raw row's 8-byte pattern appears in any frame, either
        #    direction (the strongest no-row-bytes check: exact byte
        #    substring search over every captured frame).
        row_patterns = [
            np.asarray(values[i], dtype="<f8").tobytes() for i in (0, 1, -1)
        ]
        for _, raw in frames:
            for pattern in row_patterns:
                assert pattern not in raw, "raw row bytes crossed the wire"
        # 4. Nothing landed in coordinator memory either: the backend's
        #    resident-value cache is empty and the registered table
        #    refuses to produce values at all.
        assert not backend._values
        with pytest.raises(DatasetError, match="federated"):
            table.values
        assert np.all(np.isfinite(np.asarray(result.value)))

    def test_federated_release_matches_in_process_sharded(self, rng):
        values = rng.uniform(
            SENTINEL_LO + 50.0, SENTINEL_HI - 50.0, size=(NUM_RECORDS, 1)
        )
        federated, _, _, _ = self._federated_observed(values, (0.0, 100.0))

        manager = DatasetManager()
        manager.register(
            "census",
            DataTable(values, column_names=["v"],
                      input_ranges=[(SENTINEL_LO, SENTINEL_HI)]),
            total_budget=20.0,
        )
        in_process, _, _ = _run_observed(manager, MetricsRegistry(), (0.0, 100.0))
        assert tuple(federated.value) == tuple(in_process.value)


class TestRemoteTelemetrySentinels:
    def test_remote_metrics_never_touch_the_sentinel_band(self, sentinel_manager):
        """``remote.*`` telemetry is geometry, counts and seconds only."""
        metrics = MetricsRegistry()
        _run_observed(
            sentinel_manager, metrics, (SENTINEL_LO, SENTINEL_HI), spawn="thread"
        )
        snapshot = metrics.snapshot()
        remote_keys = [
            k for section in ("counters", "gauges", "histograms")
            for k in snapshot[section] if k.startswith("remote.")
        ]
        assert remote_keys, "remote run produced no remote telemetry"
        offenders = [
            v for v in numeric_leaves(snapshot)
            if SENTINEL_LO <= v <= SENTINEL_HI
        ]
        assert not offenders, offenders


class TestNodeCodeStaysOutsideTheLedger:
    """AST pin: shard-node code never imports accounting internals.

    A node holds raw rows, so the blast radius of a compromised node
    must stop at its own slice: budgets, ledgers and journals are
    coordinator-side machinery the node process must not even import.
    """

    NODE_MODULES = ("repro.runtime.remote.node", "repro.runtime.remote.wire")
    FORBIDDEN_PREFIXES = (
        "repro.accounting",
        "repro.datasets",
        "repro.server",
        # Curator mode sharpens the pin: a node now *holds* raw rows,
        # so a slim node deployment must not even ship the
        # coordinator tier — the engine, the backend that talks to
        # other curators, the service, or the CLI query paths.
        "repro.core.gupt",
        "repro.runtime.computation_manager",
        "repro.runtime.remote.backend",
        "repro.runtime.service",
    )

    def _imports_of(self, module_name):
        import ast
        import importlib

        module = importlib.import_module(module_name)
        with open(module.__file__, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        names = []
        for statement in ast.walk(tree):
            if isinstance(statement, ast.Import):
                names.extend(alias.name for alias in statement.names)
            elif isinstance(statement, ast.ImportFrom):
                base = statement.module or ""
                names.append(base)
                names.extend(f"{base}.{alias.name}" for alias in statement.names)
        return names

    @pytest.mark.parametrize("module_name", NODE_MODULES)
    def test_no_accounting_imports(self, module_name):
        for name in self._imports_of(module_name):
            for prefix in self.FORBIDDEN_PREFIXES:
                assert not name.startswith(prefix), (
                    f"{module_name} imports {name}: node code must never "
                    f"touch {prefix}"
                )
            assert "DatasetManager" not in name, (module_name, name)

    def test_no_accounting_in_the_transitive_import_closure(self):
        """The pin extends transitively, at the source level.

        Follows every ``repro.*`` import from the node modules through
        the files it resolves to (``from pkg import module`` follows the
        module, not the package's re-export ``__init__`` — the root
        package facade imports everything and is exactly what a slim
        node deployment would not ship).  Nothing reachable may be
        accounting, dataset-ledger, or server-tier code.
        """
        import ast
        import os

        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )

        def module_file(name):
            base = os.path.join(src, *name.split("."))
            if os.path.isfile(base + ".py"):
                return base + ".py"
            init = os.path.join(base, "__init__.py")
            return init if os.path.isfile(init) else None

        def direct_imports(name):
            path = module_file(name)
            if path is None:
                return []
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            found = []
            for statement in ast.walk(tree):
                if isinstance(statement, ast.Import):
                    found.extend(
                        alias.name for alias in statement.names
                        if alias.name.startswith("repro")
                    )
                elif isinstance(statement, ast.ImportFrom):
                    base = statement.module or ""
                    if not base.startswith("repro"):
                        continue
                    for alias in statement.names:
                        sub = f"{base}.{alias.name}"
                        sub_file = module_file(sub)
                        if sub_file and not sub_file.endswith("__init__.py"):
                            found.append(sub)  # a submodule: follow it
                        else:
                            found.append(base)  # a name: follow its module
            return found

        closure, stack = set(), list(self.NODE_MODULES)
        while stack:
            module = stack.pop()
            if module in closure:
                continue
            closure.add(module)
            stack.extend(direct_imports(module))

        offenders = sorted(
            module for module in closure
            if module.startswith(self.FORBIDDEN_PREFIXES)
        )
        assert not offenders, (
            f"node code transitively reaches forbidden modules: {offenders}"
        )
        # The closure is small and self-contained — a regression that
        # suddenly drags in half the package should be loud.
        assert len(closure) < 25, sorted(closure)


class TestTelemetryStaysReleaseSafe:
    def test_shard_metrics_never_touch_the_sentinel_band(self, sentinel_manager):
        """Over forked nodes too, ``remote.*`` telemetry is geometry,
        counts and seconds only — no block outputs, no records."""
        metrics = MetricsRegistry()
        _run_observed(sentinel_manager, metrics, (SENTINEL_LO, SENTINEL_HI))
        snapshot = metrics.snapshot()
        shard_keys = [
            k for section in ("counters", "gauges", "histograms")
            for k in snapshot[section] if k.startswith("remote.")
        ]
        assert shard_keys, "sharded run produced no coordinator telemetry"
        offenders = [
            v for v in numeric_leaves(snapshot)
            if SENTINEL_LO <= v <= SENTINEL_HI
        ]
        assert not offenders, offenders
