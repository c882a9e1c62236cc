"""The shard coordinator: shard execution across connected nodes.

:class:`RemoteShardBackend` is the one coordinator of the shard
protocol, serving both shard backends of the computation manager:
``backend="remote"`` over TCP shard-node processes, and
``backend="sharded"`` over local nodes forked on first use and reached
through socketpairs (:class:`LocalNodeCluster` with ``spawn="fork"``).
Either way it runs ``run_sharded(program_bytes, values, spec)``: it
pushes each node its shards' rows as ``SEGMENT`` frames of the framed
binary protocol of :mod:`repro.runtime.remote.wire`, combines the
returned partials in shard-major order, and substitutes fallback rows
for shards nobody answered.  Because logical shard plans are pure
functions of ``(plan_seed, S, shard)`` and the combine is ordered by
shard index, a seeded release through this backend is bit-identical
to every in-process backend at the same ``S`` — for any node count,
and under any single-node failure that a surviving or respawned node
absorbs.

Failure handling, in escalating order:

* **Reconnect.**  A node whose session dropped between queries is
  re-dialed at dispatch time and its segments re-pushed.  Re-dialing a
  forked slot kills and reaps its old child and forks a fresh one, so
  a local node that died heals by kill-and-replace on the same path.
* **Re-push.**  A node that disclaims a shard (``PARTIAL_MISSING`` —
  its segment LRU evicted a dataset the coordinator believed resident)
  gets the segment re-pushed and the shard re-executed once before
  fallback is even considered; coordinator-side eviction from
  ``_values`` also forgets the matching pushes, keeping both LRUs
  aligned.
* **Re-assignment.**  A node that dies or wedges mid-query (EOF, torn
  frame, or no progress within ``node_timeout``, if one is set) has its
  unanswered shards adopted by surviving nodes — or by a fresh fork of
  its own slot — which receive the missing segments plus a fresh plan and
  replay ``spawn(plan_seed, S)[s]``, computing the identical partial,
  so healing never perturbs released bits.  Each shard is re-assigned
  at most once per query.
* **Quorum degrade.**  Shards that remain unanswered (every holder
  dead, or the retry died too) resolve to the query's data-independent
  fallback rows — the killed-block semantics of the chamber backends
  — and the query is flagged in telemetry
  (``remote.degraded_queries``) instead of raising.

Telemetry (all release-safe geometry/counters, never payloads):
``remote.nodes``, ``remote.shards``, ``remote.queries``,
``remote.segment_pushes``, ``remote.heartbeats``,
``remote.node_deaths``, ``remote.reassigned_shards``,
``remote.repushed_shards``, ``remote.degraded_queries``,
``remote.fallback_shards``,
``remote.dispatch_seconds``, ``remote.partial_rows``.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import secrets as secrets_module
import select
import socket
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.core.blocks import ShardPlanSummary, shard_block_counts, shard_offsets
from repro.exceptions import ComputationError
from repro.observability import MetricsRegistry, get_registry
from repro.runtime.remote import wire
from repro.runtime.remote.node import ShardNodeServer
from repro.runtime.shard import DEFAULT_RESIDENT_DATASETS, ShardQuerySpec
from repro.runtime.vectorized import BatchOutputs
from repro.testing import failpoints

#: What a dead/unusable peer looks like to the coordinator: socket
#: errors, torn/corrupt/truncated frames, and injected send failures
#: (``remote.send.*`` in ``error`` mode raises
#: :class:`~repro.testing.failpoints.FailpointError`, which models the
#: same thing — a write that did not reach the peer intact).
_DEAD_PEER = (OSError, wire.FrameError, failpoints.FailpointError)

#: Seconds between coordinator heartbeat rounds (PING -> PONG probes of
#: idle sessions).  ``None`` disables the heartbeat thread — tests do,
#: so frame counts stay deterministic for ``@N`` failpoint targeting.
DEFAULT_HEARTBEAT_INTERVAL: float | None = 5.0

#: Seconds a node may go without sending any frame mid-query before the
#: coordinator declares it wedged and re-assigns its shards.
DEFAULT_NODE_TIMEOUT = 30.0

#: Connection/handshake timeout when dialing a node.
_DIAL_TIMEOUT = 10.0


def parse_node_address(text: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (the CLI's ``--nodes`` format)."""
    host, _, port = text.rpartition(":")
    if not host or not port:
        raise ComputationError(f"bad node address {text!r} (expected HOST:PORT)")
    try:
        return host, int(port)
    except ValueError as exc:
        raise ComputationError(f"bad node address {text!r}: {exc}") from exc


class _NodeSession:
    """One live coordinator -> node connection and what it holds."""

    __slots__ = ("address", "sock", "held", "manifests")

    def __init__(self, address: tuple[str, int], sock: socket.socket):
        self.address = address
        self.sock = sock
        self.held: set[tuple[str, int, int]] = set()  # (dataset, version, shard)
        # Curated-dataset manifests from the node's WELCOME (geometry
        # and digests only — the only thing a curator ever reveals).
        self.manifests: list[dict] = []

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def _dial_tcp(address: tuple[str, int]) -> socket.socket:
    sock = socket.create_connection(address, timeout=_DIAL_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _serve_forked_node(
    conn: socket.socket, inherited: list[socket.socket], secret: str | None
) -> None:
    """Body of a forked node: serve one end of a socketpair, then exit.

    The child first closes every coordinator end it inherited — its own
    and each sibling's.  A copy held here would keep that socket open,
    so a coordinator that dies would never reach the sibling as EOF.
    """
    for end in inherited:
        end.close()
    ShardNodeServer(secret=secret).serve_connection(conn)


class LocalNodeCluster:
    """A convenience cluster of shard nodes owned by this process.

    ``spawn="thread"`` runs :class:`ShardNodeServer` instances on daemon
    threads — real TCP, zero process overhead; the default for tests.
    ``spawn="process"`` launches
    ``python -m repro shard-node 127.0.0.1:0`` subprocesses (scraping
    the announced ``LISTENING`` line), which is what the fault matrix
    and the CI soak use: a crashed subprocess is a genuinely dead peer.
    ``env`` adds variables to subprocess nodes (e.g. arming
    ``REPRO_FAILPOINTS`` in a victim node).

    ``spawn="fork"`` is the in-process sharded deployment: no listener
    and no port.  Each :meth:`dial` forks a fresh node process that
    serves the other end of a ``socketpair``; the previous child of the
    slot, if any, is killed and reaped first.  Nodes are forked on the
    first dial, not at construction: a parent that goes on allocating
    after a fork pays a copy-on-write fault per touched page.
    """

    def __init__(
        self,
        count: int,
        spawn: str = "thread",
        env: dict[str, str] | None = None,
        secret: str | None = None,
        curated: list[dict] | None = None,
    ):
        if count < 1:
            raise ComputationError("a node cluster needs at least one node")
        if spawn not in ("thread", "process", "fork"):
            raise ComputationError(f"unknown node spawn mode {spawn!r}")
        if curated is not None and len(curated) != count:
            raise ComputationError(
                f"curated needs one dataset map per node "
                f"({len(curated)} maps for {count} nodes)"
            )
        if curated is not None and spawn != "thread":
            raise ComputationError(
                "curated node data requires spawn='thread' (subprocess "
                "curators load their own --data files)"
            )
        self.addresses: list[tuple[str, int]] = []
        self._servers: list[ShardNodeServer] = []
        self._processes: list[subprocess.Popen] = []
        #: Whether every dial starts a fresh node, so a slot whose
        #: session died can always be dialed again.
        self.respawns = spawn == "fork"
        self._secret = secret
        # Fork mode, per slot: the current child and our end of its pair.
        self._children: list[multiprocessing.process.BaseProcess | None] = []
        self._ends: list[socket.socket | None] = []
        if spawn == "fork":
            self.addresses = [("fork", index) for index in range(count)]
            self._children = [None] * count
            self._ends = [None] * count
            return
        if spawn == "thread":
            for index in range(count):
                server = ShardNodeServer(
                    secret=secret,
                    curated=None if curated is None else curated[index],
                )
                self.addresses.append(server.start())
                self._servers.append(server)
            return
        # Subprocess nodes must be able to import this package no matter
        # where the parent found it (installed, or PYTHONPATH=src).
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(os.path.dirname(__file__)))
        )
        package_root = os.path.dirname(package_root)  # .../src
        node_path = os.pathsep.join(
            p for p in (package_root, os.environ.get("PYTHONPATH")) if p
        )
        secret_env = {} if secret is None else {"REPRO_SHARD_SECRET": secret}
        for _ in range(count):
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", "shard-node", "127.0.0.1:0"],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                env={
                    **os.environ,
                    "PYTHONPATH": node_path,
                    **secret_env,
                    **(env or {}),
                },
            )
            line = process.stdout.readline().strip()
            parts = line.split()
            if len(parts) != 3 or parts[0] != "LISTENING":
                process.kill()
                raise ComputationError(
                    f"shard-node did not announce its port (got {line!r})"
                )
            self.addresses.append((parts[1], int(parts[2])))
            self._processes.append(process)

    def dial(self, index: int) -> socket.socket:
        """A connected socket to node ``index``; raises OSError on failure."""
        if not self.respawns:
            return _dial_tcp(self.addresses[index])
        self._reap(index, grace=0.0)
        ours, theirs = socket.socketpair()
        inherited = [end for end in self._ends if end is not None] + [ours]
        child = multiprocessing.get_context("fork").Process(
            target=_serve_forked_node,
            args=(theirs, inherited, self._secret),
            name=f"shard-node-{index}",
            daemon=True,
        )
        try:
            child.start()
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        ours.settimeout(_DIAL_TIMEOUT)
        self._children[index] = child
        self._ends[index] = ours
        return ours

    def _reap(self, index: int, grace: float) -> None:
        """End slot ``index``'s child: close our end, wait ``grace``, kill."""
        child, self._children[index] = self._children[index], None
        end, self._ends[index] = self._ends[index], None
        if end is not None:
            end.close()
        if child is None:
            return
        child.join(grace)
        if child.is_alive():
            child.kill()
            child.join()
        child.close()

    def stop(self) -> None:
        # Close every coordinator end first, so all children see EOF at once.
        for end in self._ends:
            if end is not None:
                end.close()
        for index in range(len(self._children)):
            self._reap(index, grace=1.0)
        for server in self._servers:
            server.stop()
        self._servers = []
        for process in self._processes:
            if process.poll() is None:
                process.terminate()
        for process in self._processes:
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck node
                process.kill()
                process.wait(timeout=5.0)
        self._processes = []

    def __enter__(self) -> "LocalNodeCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def local_node_cluster(
    count: int,
    spawn: str = "thread",
    env: dict[str, str] | None = None,
    secret: str | None = None,
    curated: list[dict] | None = None,
) -> LocalNodeCluster:
    """Start ``count`` local shard nodes; see :class:`LocalNodeCluster`."""
    return LocalNodeCluster(count, spawn=spawn, env=env, secret=secret, curated=curated)


class RemoteShardBackend:
    """S logical shards executed by N shard-node processes.

    Parameters
    ----------
    shards:
        Logical shard count S — the public plan parameter released bits
        depend on.  Node count, like worker count, never matters.
    nodes:
        Where the nodes are: a list of ``(host, port)`` tuples or
        ``"host:port"`` strings for an existing cluster, an int to
        spawn that many local nodes, or ``None`` to spawn
        ``min(shards, 4)``.  Node ``i`` of N initially owns the
        contiguous logical shards ``[i * S // N, (i + 1) * S // N)``.
    node_timeout:
        Mid-query liveness deadline: a node sending nothing for this
        long is declared wedged and its shards re-assigned.  ``None``
        sets no deadline, so a node is declared dead only when its
        connection breaks — right for forked local nodes, whose death
        shows up as EOF, and whose shards may compute for as long as
        the program needs.
    heartbeat_interval:
        Period of the idle-session PING thread; ``None`` disables it
        (deterministic tests drive :meth:`heartbeat_once` directly).
    message_observer:
        Called with every decoded node -> coordinator :class:`Frame`
        (the privacy suite asserts only clamped summaries appear).
    frame_observer:
        Called with ``(direction, frame_bytes)`` for every frame in
        both directions — the network-capture hook the sentinel tests
        scan for raw data.
    node_spawn:
        How spawned nodes run when ``nodes`` is an int or ``None``:
        ``"thread"``, ``"process"`` or ``"fork"`` (see
        :class:`LocalNodeCluster`).
    secret:
        Shared node-authentication secret.  When set, every dial runs
        the mutual HMAC challenge-response and refuses nodes that
        cannot prove possession; when ``None``, dialing a
        secret-protected node raises :class:`ComputationError`.
    """

    def __init__(
        self,
        shards: int,
        nodes: int | list | None = None,
        resident_datasets: int = DEFAULT_RESIDENT_DATASETS,
        metrics: MetricsRegistry | None = None,
        message_observer: Callable[[wire.Frame], None] | None = None,
        frame_observer: Callable[[str, bytes], None] | None = None,
        node_timeout: float | None = DEFAULT_NODE_TIMEOUT,
        heartbeat_interval: float | None = DEFAULT_HEARTBEAT_INTERVAL,
        node_spawn: str = "thread",
        secret: str | None = None,
    ):
        if shards < 1:
            raise ComputationError("shards must be >= 1")
        if resident_datasets < 1:
            raise ComputationError("resident_datasets must be >= 1")
        self._shards = int(shards)
        self._resident_datasets = int(resident_datasets)
        self._metrics = metrics
        self._message_observer = message_observer
        self._frame_observer = frame_observer
        self._node_timeout = None if node_timeout is None else float(node_timeout)
        self._heartbeat_interval = heartbeat_interval
        self._secret = secret if secret else None
        self._cluster: LocalNodeCluster | None = None
        if nodes is None or isinstance(nodes, int):
            count = min(self._shards, 4) if nodes is None else int(nodes)
            self._cluster = local_node_cluster(
                count, spawn=node_spawn, secret=self._secret
            )
            addresses = self._cluster.addresses
        else:
            addresses = [
                parse_node_address(n) if isinstance(n, str) else (n[0], int(n[1]))
                for n in nodes
            ]
        if not addresses:
            raise ComputationError("remote backend needs at least one node")
        self._addresses = addresses
        self._sessions: list[_NodeSession | None] = [None] * len(addresses)
        # (dataset, version) -> contiguous float matrix, kept so healed
        # or adopting nodes can be re-pushed their shard slices.
        self._values: OrderedDict[tuple[str, int], np.ndarray] = OrderedDict()
        # name -> federated geometry from node manifests: per-node row
        # counts, global row bases, column count, total rows.  Never any
        # values — that is the whole point of curator mode.
        self._federated: dict[str, dict] = {}
        self._heartbeat_tokens = itertools.count(1)
        self._qids = iter(range(1, 2**62))
        self._last_elapsed = 0.0
        self._closed = False
        self._dispatch_lock = threading.Lock()
        self._stop_heartbeat = threading.Event()
        self._heartbeat_thread: threading.Thread | None = None
        if heartbeat_interval:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop, name="remote-heartbeat", daemon=True
            )
            self._heartbeat_thread.start()

    # -- geometry --------------------------------------------------------
    @property
    def shards(self) -> int:
        return self._shards

    @property
    def nodes(self) -> int:
        return len(self._addresses)

    def _registry(self) -> MetricsRegistry:
        return self._metrics or get_registry()

    def _deadline(self) -> float:
        """When a node given work now is declared wedged if still silent."""
        if self._node_timeout is None:
            return math.inf
        return time.monotonic() + self._node_timeout

    def _node_shards(self, index: int) -> list[int]:
        """Contiguous logical shards initially owned by node ``index``."""
        count = len(self._addresses)
        start = index * self._shards // count
        end = (index + 1) * self._shards // count
        return list(range(start, end))

    # -- sessions --------------------------------------------------------
    def _observe_send(self, session, kind, header, body=b"") -> None:
        if self._frame_observer is not None:
            self._frame_observer("send", wire.encode_frame(kind, header, body))
        wire.send_frame(session.sock, kind, header, body)

    def _observe_read(self, session, timeout) -> wire.Frame:
        frame = wire.read_frame(session.sock, timeout)
        if self._frame_observer is not None:
            self._frame_observer(
                "recv", wire.encode_frame(frame.kind, frame.header, frame.body)
            )
        if self._message_observer is not None:
            self._message_observer(frame)
        if frame.kind not in wire.NODE_TO_COORDINATOR_KINDS:
            # A node has no business sending coordinator-direction
            # kinds; treat the session as compromised, not the query.
            raise wire.CorruptFrame(
                f"node sent coordinator-only kind {frame.kind_name!r}"
            )
        return frame

    def _connect(self, index: int) -> _NodeSession | None:
        """Dial node ``index``: version handshake plus mutual auth.

        The HELLO always carries a fresh nonce.  An open node answers
        WELCOME directly; an authenticated node answers with a
        challenge plus its own proof over our nonce — verified *before*
        we reveal anything (the node authenticates first) — and the
        exchange completes with our proof and the node's final WELCOME.
        Auth misconfiguration (secret/no-secret skew, wrong secret)
        raises :class:`ComputationError` loudly, like version skew:
        it must never degrade into silent fallbacks.
        """
        address = self._addresses[index]
        try:
            if self._cluster is not None:
                sock = self._cluster.dial(index)
            else:
                sock = _dial_tcp(address)
        except OSError:
            return None
        session = _NodeSession(address, sock)
        nonce = secrets_module.token_hex(16)
        try:
            self._observe_send(
                session,
                wire.HELLO,
                {"protocol": wire.REMOTE_PROTOCOL_VERSION, "nonce": nonce},
            )
            frame = self._observe_read(session, _DIAL_TIMEOUT)
        except _DEAD_PEER:
            session.close()
            return None
        frame = self._authenticate(session, frame, nonce, address)
        if frame is None:
            return None
        session.manifests = [
            dict(entry)
            for entry in frame.header.get("manifests", [])
            if isinstance(entry, dict)
        ]
        # Writes to the node obey the liveness deadline too: a segment
        # pushed to a node busy computing waits as long as a read would.
        sock.settimeout(self._node_timeout)
        return session

    def _authenticate(
        self, session, frame, nonce: str, address
    ) -> wire.Frame | None:
        """Finish the handshake; the final WELCOME frame, or None if dead."""
        label = f"{address[0]}:{address[1]}"
        if frame.kind != wire.WELCOME:
            session.close()
            if frame.kind == wire.ERROR and frame.header.get("code") == "version_mismatch":
                raise wire.VersionMismatch(frame.header.get("protocol", -1))
            if frame.kind == wire.ERROR and frame.header.get("code") == "auth_failed":
                raise ComputationError(
                    f"node {label} refused authentication: "
                    f"{frame.header.get('error', 'auth_failed')}"
                )
            return None
        challenge = frame.header.get("challenge")
        if challenge is None:
            if self._secret is not None:
                # We were configured for mutual auth; a node that skips
                # the challenge is either open (misconfigured) or an
                # impostor that cannot produce a proof.
                session.close()
                raise ComputationError(
                    f"node {label} did not authenticate but a shared "
                    f"secret is configured"
                )
            return frame
        if self._secret is None:
            session.close()
            raise ComputationError(
                f"node {label} requires a shared secret "
                f"(pass secret=/--node-secret)"
            )
        node_nonce = str(challenge)
        if not wire.verify_proof(
            self._secret,
            wire.AUTH_ROLE_NODE,
            nonce,
            node_nonce,
            frame.header.get("proof"),
        ):
            session.close()
            raise ComputationError(
                f"node {label} failed authentication (wrong secret?)"
            )
        try:
            self._observe_send(
                session,
                wire.HELLO,
                {
                    "protocol": wire.REMOTE_PROTOCOL_VERSION,
                    "proof": wire.auth_proof(
                        self._secret,
                        wire.AUTH_ROLE_COORDINATOR,
                        node_nonce,
                        nonce,
                    ),
                },
            )
            final = self._observe_read(session, _DIAL_TIMEOUT)
        except _DEAD_PEER:
            session.close()
            return None
        if final.kind != wire.WELCOME:
            session.close()
            if final.kind == wire.ERROR and final.header.get("code") == "auth_failed":
                raise ComputationError(
                    f"node {label} refused our proof (secret mismatch?)"
                )
            return None
        return final

    def _session(self, index: int) -> _NodeSession | None:
        if self._sessions[index] is None:
            self._sessions[index] = self._connect(index)
        return self._sessions[index]

    def _drop_session(self, index: int) -> None:
        session, self._sessions[index] = self._sessions[index], None
        if session is not None:
            session.close()
            self._registry().counter("remote.node_deaths").inc()

    # -- heartbeats ------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        while not self._stop_heartbeat.wait(self._heartbeat_interval):
            # Never race an in-flight query's collect loop: skip the
            # round if dispatch holds the lock (the query itself is the
            # liveness probe then).
            if not self._dispatch_lock.acquire(blocking=False):
                continue
            try:
                if not self._closed:
                    self.heartbeat_once()
            finally:
                self._dispatch_lock.release()

    def heartbeat_once(self) -> list[bool]:
        """PING every connected node; drop sessions that fail to PONG.

        Returns one aliveness flag per node slot (unconnected slots are
        reported dead without dialing — the next query re-dials).  The
        heartbeat payload is public: a token echoed back, nothing else.
        The token changes on every PING and the PONG must echo it
        exactly — a stale, duplicated, or replayed PONG from a wedged
        node never vouches for its liveness.  ``remote.heartbeats``
        counts probe *rounds* (rounds in which at least one PING was
        sent), not node slots, so the counter tracks probing cadence
        rather than cluster size.
        """
        registry = self._registry()
        alive = []
        pinged = False
        for index in range(len(self._addresses)):
            session = self._sessions[index]
            if session is None:
                alive.append(False)
                continue
            token = next(self._heartbeat_tokens)
            pinged = True
            try:
                self._observe_send(session, wire.PING, {"token": token})
                frame = self._observe_read(session, self._node_timeout)
                ok = frame.kind == wire.PONG and frame.header.get("token") == token
            except _DEAD_PEER:
                ok = False
            if not ok:
                self._drop_session(index)
            alive.append(ok)
        if pinged:
            registry.counter("remote.heartbeats").inc()
        return alive

    # -- dataset residency ----------------------------------------------
    def invalidate(self, dataset: str) -> int:
        """Forget every resident version of ``dataset`` (re-registration).

        Nodes evict lazily: versions are monotonic, so a stale segment
        is never addressed again and ages out of the node-side LRU.
        """
        with self._dispatch_lock:
            stale = [k for k in self._values if k[0] == dataset]
            for key in stale:
                del self._values[key]
            if self._federated.pop(dataset, None) is not None:
                stale.append((dataset, 0))
            for session in self._sessions:
                if session is not None:
                    session.held = {h for h in session.held if h[0] != dataset}
        return len(stale)

    # -- federated (curator-held) datasets -------------------------------
    def federate(self, name: str) -> dict:
        """Register node-held dataset ``name`` from curator manifests.

        Dials every node, collects the manifest each advertises for
        ``name``, and derives the federated geometry: per-node row
        counts, each node's global row base (nodes concatenate in slot
        order), the column count, and the total.  Only geometry crosses
        — no node ever sends a value, and the coordinator refuses the
        registration unless every node boundary lands exactly on a
        ``shard_offsets(total, S)`` boundary, so each curator owns
        whole logical shards and partials compose bit-identically with
        in-process sharded execution.
        """
        with self._dispatch_lock:
            if self._closed:
                raise ComputationError("remote backend is closed")
            per_node: list[tuple[int, int]] = []
            for index in range(len(self._addresses)):
                session = self._session(index)
                label = "{0}:{1}".format(*self._addresses[index])
                if session is None:
                    raise ComputationError(
                        f"cannot federate {name!r}: node {label} is unreachable"
                    )
                manifest = next(
                    (m for m in session.manifests if m.get("dataset") == name),
                    None,
                )
                if manifest is None:
                    raise ComputationError(
                        f"cannot federate {name!r}: node {label} does not "
                        f"curate it (manifests: "
                        f"{[m.get('dataset') for m in session.manifests]})"
                    )
                try:
                    rows = int(manifest["rows"])
                    columns = int(manifest["columns"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise ComputationError(
                        f"cannot federate {name!r}: node {label} sent a "
                        f"malformed manifest"
                    ) from exc
                if rows < 1 or columns < 1:
                    raise ComputationError(
                        f"cannot federate {name!r}: node {label} reports "
                        f"empty geometry ({rows}x{columns})"
                    )
                if manifest.get("digest") != wire.dataset_digest(name, rows, columns):
                    raise ComputationError(
                        f"cannot federate {name!r}: node {label} manifest "
                        f"digest does not match its geometry"
                    )
                per_node.append((rows, columns))
            column_counts = {c for _, c in per_node}
            if len(column_counts) != 1:
                raise ComputationError(
                    f"cannot federate {name!r}: curators disagree on column "
                    f"count ({sorted(column_counts)})"
                )
            rows_per_node = tuple(r for r, _ in per_node)
            total = int(sum(rows_per_node))
            offsets = shard_offsets(total, self._shards)
            boundaries = {int(o) for o in offsets}
            bases, base = [], 0
            for rows in rows_per_node:
                bases.append(base)
                base += rows
            misaligned = [b for b in bases + [total] if b not in boundaries]
            if misaligned:
                raise ComputationError(
                    f"cannot federate {name!r}: node row counts "
                    f"{rows_per_node} do not align with the {self._shards} "
                    f"shard boundaries {sorted(boundaries)} "
                    f"(misaligned bases: {misaligned})"
                )
            geometry = {
                "rows": rows_per_node,
                "bases": tuple(bases),
                "columns": column_counts.pop(),
                "total": total,
            }
            self._federated[name] = geometry
            return {
                "num_records": total,
                "num_dimensions": geometry["columns"],
                "node_rows": rows_per_node,
            }

    def federated_geometry(self, name: str) -> dict | None:
        """The registered federated geometry of ``name`` (or None)."""
        return self._federated.get(name)

    def _federated_owned(self, fed: dict, spec) -> list[list[int]]:
        """Per-node lists of the logical shards each curator holds."""
        offsets = shard_offsets(spec.num_records, spec.shards)
        owned: list[list[int]] = []
        for index in range(len(self._addresses)):
            lo = fed["bases"][index]
            hi = lo + fed["rows"][index]
            owned.append(
                [
                    s
                    for s in range(spec.shards)
                    if int(offsets[s]) >= lo and int(offsets[s + 1]) <= hi
                ]
            )
        return owned

    def _ensure_values(self, dskey, values: np.ndarray) -> np.ndarray:
        resident = self._values.get(dskey)
        if resident is not None:
            self._values.move_to_end(dskey)
            return resident
        resident = np.ascontiguousarray(values, dtype=float)
        self._values[dskey] = resident
        while len(self._values) > self._resident_datasets:
            evicted, _ = self._values.popitem(last=False)
            # The nodes' own segment LRUs shed this dataset on the same
            # schedule (same capacity, touch-on-use order): forget the
            # matching pushes so a returning query re-pushes instead of
            # trusting node residency the coordinator can no longer see.
            for session in self._sessions:
                if session is not None:
                    session.held = {
                        h for h in session.held if (h[0], h[1]) != evicted
                    }
        return resident

    def _push_shard(self, session, dskey, values, spec, shard: int) -> None:
        """Push one shard's row slice to a node (idempotent per session)."""
        key = (dskey[0], dskey[1], shard)
        if key in session.held:
            return
        offsets = shard_offsets(spec.num_records, spec.shards)
        rows = values[int(offsets[shard]) : int(offsets[shard + 1])]
        meta, body = wire.array_to_body(rows)
        self._observe_send(
            session,
            wire.SEGMENT,
            {
                "dataset": dskey[0],
                "version": dskey[1],
                "shard": shard,
                "shape": meta["shape"],
            },
            body,
        )
        session.held.add(key)
        self._registry().counter("remote.segment_pushes").inc()

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Shut down sessions (and an owned cluster) — exactly once."""
        self._stop_heartbeat.set()
        with self._dispatch_lock:
            if self._closed:
                return
            self._closed = True
            for index, session in enumerate(self._sessions):
                if session is None:
                    continue
                try:
                    self._observe_send(
                        session,
                        wire.SHUTDOWN,
                        {"halt": self._cluster is not None},
                    )
                    self._observe_read(session, 2.0)
                except _DEAD_PEER:
                    pass
                session.close()
                self._sessions[index] = None
            self._values.clear()
            self._federated.clear()
            if self._cluster is not None:
                self._cluster.stop()
                self._cluster = None
        if (
            self._heartbeat_thread is not None
            and self._heartbeat_thread is not threading.current_thread()
        ):
            self._heartbeat_thread.join(timeout=2.0)
            self._heartbeat_thread = None

    def __enter__(self) -> "RemoteShardBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # -- dispatch --------------------------------------------------------
    def run_sharded(
        self,
        program_bytes: bytes,
        values: np.ndarray,
        spec: ShardQuerySpec,
    ) -> tuple[ShardPlanSummary, BatchOutputs]:
        """Execute one query across the node cluster; combine in shard order."""
        if spec.shards != self._shards:
            raise ComputationError(
                f"query spec wants {spec.shards} shards, backend has {self._shards}"
            )
        with self._dispatch_lock:
            if self._closed:
                raise ComputationError("remote backend is closed")
            return self._run_locked(program_bytes, values, spec)

    def _run_locked(self, program_bytes, values, spec) -> tuple:
        registry = self._registry()
        started = time.perf_counter()
        dskey = (spec.dataset, spec.version)
        fed = self._federated.get(spec.dataset)
        if fed is not None:
            # Curator mode: the rows live on the nodes.  Nothing is
            # cached coordinator-side and nothing is ever pushed — the
            # nodes execute against their own slices, addressed by each
            # node's global row base (``origin``).
            if spec.num_records != fed["total"]:
                raise ComputationError(
                    f"federated dataset {spec.dataset!r} holds "
                    f"{fed['total']} rows across its curators, query spec "
                    f"claims {spec.num_records}"
                )
            resident = None
        else:
            if getattr(values, "federated", False):
                # A geometry proxy without registered geometry: the
                # dataset was invalidated (or never federated here).
                # Failing loudly beats caching the proxy as "values".
                raise ComputationError(
                    f"dataset {spec.dataset!r} is federated but this "
                    f"backend holds no geometry for it; call federate() "
                    f"after (re-)registration"
                )
            resident = self._ensure_values(dskey, values)

        counts = shard_block_counts(
            spec.num_records, spec.block_size, spec.resampling_factor, spec.shards
        )
        bases = np.zeros(spec.shards + 1, dtype=np.int64)
        np.cumsum(counts, out=bases[1:])
        total_blocks = int(bases[-1])
        if total_blocks == 0:
            raise ComputationError(
                f"block size {spec.block_size} leaves no full block in any of "
                f"{spec.shards} shards of {spec.num_records} records"
            )
        fallback = np.asarray(spec.fallback, dtype=float)
        outputs = np.empty((total_blocks, spec.output_dimension), dtype=float)
        succeeded = np.zeros(total_blocks, dtype=bool)
        filled = np.zeros(spec.shards, dtype=bool)

        qid = next(self._qids)
        self._last_elapsed = 0.0
        # pending: node slot -> shards it still owes an answer for.
        pending: dict[int, set[int]] = {}
        reassigned: set[int] = set()
        unassigned: list[int] = []
        owned_lists = (
            None if fed is None else self._federated_owned(fed, spec)
        )
        for index in range(len(self._addresses)):
            if owned_lists is None:
                owned = self._node_shards(index)
                origin = None
            else:
                owned = owned_lists[index]
                origin = int(fed["bases"][index])
            if not owned:
                continue
            if not self._dispatch(
                index, qid, spec, dskey, resident, owned, program_bytes,
                origin=origin,
            ):
                unassigned.extend(owned)
            else:
                pending[index] = set(owned)
        # Nodes dead before dispatch: adopt their shards immediately
        # (they have not been tried yet, so adoption is not a retry).
        # Federated shards have exactly one holder — adoption is
        # impossible and they resolve straight to fallback rows.
        for shard in unassigned:
            self._adopt(
                shard, qid, spec, dskey, resident, pending, program_bytes, registry
            )

        deadlines = {
            index: self._deadline() for index in pending
        }
        while pending:
            self._collect_round(
                qid, spec, bases, counts, outputs, succeeded, filled,
                pending, deadlines, dskey, resident, reassigned,
                program_bytes, registry,
            )

        degraded = False
        for shard in range(spec.shards):
            if not filled[shard] and counts[shard]:
                outputs[bases[shard] : bases[shard + 1]] = fallback
                registry.counter("remote.fallback_shards").inc()
                degraded = True
        if degraded:
            registry.counter("remote.degraded_queries").inc()

        registry.counter("remote.queries").inc()
        registry.gauge("remote.nodes").set(len(self._addresses))
        registry.gauge("remote.shards").set(self._shards)
        registry.histogram("remote.dispatch_seconds").observe(
            time.perf_counter() - started
        )
        registry.histogram("remote.partial_rows").observe(total_blocks)
        summary = ShardPlanSummary(
            num_records=spec.num_records,
            block_size=spec.block_size,
            resampling_factor=spec.resampling_factor,
            num_blocks=total_blocks,
            shards=spec.shards,
        )
        batch = BatchOutputs(
            outputs=outputs, succeeded=succeeded, elapsed=self._last_elapsed
        )
        return summary, batch

    def _dispatch(
        self, index, qid, spec, dskey, resident, shard_list, program_bytes,
        origin=None,
    ) -> bool:
        """Push segments + plan + execute to one node; False if it is dead.

        ``resident is None`` means a federated dataset: no segment is
        ever pushed, and ``origin`` (the node's global row base) tells
        the curator which window of its own rows each shard maps to.
        """
        session = self._session(index)
        if session is None:
            return False
        try:
            if resident is not None:
                for shard in shard_list:
                    self._push_shard(session, dskey, resident, spec, shard)
            header = wire.spec_to_header(spec)
            header["qid"] = qid
            self._observe_send(session, wire.PLAN, header)
            execute_header = {"qid": qid, "shards": [int(s) for s in shard_list]}
            if origin is not None:
                execute_header["origin"] = int(origin)
            self._observe_send(
                session, wire.EXECUTE, execute_header, program_bytes
            )
            return True
        except wire.VersionMismatch:
            # Not a liveness problem: a mixed-version deployment must
            # surface loudly, never degrade into silent fallbacks.
            raise
        except _DEAD_PEER:
            self._drop_session(index)
            return False

    def _collect_round(
        self, qid, spec, bases, counts, outputs, succeeded, filled,
        pending, deadlines, dskey, resident, reassigned,
        program_bytes, registry,
    ) -> None:
        """One select round: consume ready frames, expire wedged nodes."""
        now = time.monotonic()
        socks = {}
        for index in pending:
            session = self._sessions[index]
            if session is None:
                self._fail_node(
                    index, qid, spec, dskey, resident, pending,
                    deadlines, reassigned, program_bytes, registry, filled,
                )
                return
            socks[session.sock] = index
        if not socks:
            return
        wait = max(0.0, min(deadlines[i] for i in pending) - now)
        try:
            ready, _, _ = select.select(list(socks), [], [], min(wait, 0.25))
        except OSError:
            ready = []
        if not ready:
            for index in list(pending):
                if time.monotonic() >= deadlines[index]:
                    # No frame within the liveness deadline: wedged.
                    self._fail_node(
                        index, qid, spec, dskey, resident, pending,
                        deadlines, reassigned, program_bytes, registry, filled,
                    )
            return
        for sock in ready:
            index = socks[sock]
            if index not in pending:
                continue
            session = self._sessions[index]
            if session is None:
                continue
            try:
                frame = self._observe_read(session, self._node_timeout)
            except _DEAD_PEER:
                self._fail_node(
                    index, qid, spec, dskey, resident, pending,
                    deadlines, reassigned, program_bytes, registry, filled,
                )
                continue
            deadlines[index] = self._deadline()
            self._apply_frame(
                index, frame, qid, spec, bases, counts,
                outputs, succeeded, filled, pending, deadlines,
                dskey, resident, reassigned, program_bytes, registry,
            )

    def _apply_frame(
        self, index, frame, qid, spec, bases, counts,
        outputs, succeeded, filled, pending, deadlines,
        dskey, resident, reassigned, program_bytes, registry,
    ) -> None:
        header = frame.header
        if frame.kind == wire.QUERY_DONE and int(header.get("qid", -1)) == qid:
            # A node sends one QUERY_DONE per EXECUTE frame; an adopted
            # shard's EXECUTE may still be queued behind this one, so
            # the node is finished only when nothing remains owed.
            if index in pending and not pending[index]:
                del pending[index]
                deadlines.pop(index, None)
            return
        if frame.kind not in (wire.PARTIAL, wire.PARTIAL_MISSING):
            return  # public acks and chatter
        if int(header.get("qid", -1)) != qid:
            return  # stale frame from a previous query on this session
        try:
            shard = int(header.get("shard", -1))
        except (TypeError, ValueError):
            return
        if shard not in pending.get(index, ()):
            # Only the node a shard is assigned to may answer for it: a
            # buggy or hostile node must never clobber a partial another
            # node computed, nor fill a shard it was never given.
            return
        if frame.kind == wire.PARTIAL_MISSING:
            pending[index].discard(shard)
            self._retry_missing(
                shard, qid, spec, dskey, resident, pending, deadlines,
                reassigned, filled, program_bytes, registry,
            )
            return
        if filled[shard]:
            pending[index].discard(shard)
            return
        expected = int(counts[shard])
        try:
            shape = tuple(int(n) for n in header["shape"])
        except (KeyError, TypeError, ValueError):
            return
        if shape != (expected, spec.output_dimension):
            return  # malformed partial: treated as missing
        matrix_bytes = expected * spec.output_dimension * 8
        if len(frame.body) != matrix_bytes + expected:
            return
        partial = (
            np.frombuffer(frame.body[:matrix_bytes], dtype="<f8")
            .reshape(expected, spec.output_dimension)
        )
        mask = np.frombuffer(frame.body[matrix_bytes:], dtype=np.uint8).astype(bool)
        base = int(bases[shard])
        outputs[base : base + expected] = partial
        succeeded[base : base + expected] = mask
        filled[shard] = True
        self._last_elapsed += float(header.get("elapsed", 0.0))
        pending[index].discard(shard)

    def _retry_missing(
        self, shard, qid, spec, dskey, resident, pending, deadlines,
        reassigned, filled, program_bytes, registry,
    ) -> None:
        """A node disclaimed a shard: re-push its segment and retry once.

        ``PARTIAL_MISSING(no_segment)`` means the node's segment LRU
        evicted a dataset the coordinator believed resident
        (``session.held`` is a cache of pushes, not a lease).  Forget
        the stale pushes, hand the shard to the least-loaded node
        (possibly the same one) with a fresh segment + plan, and only
        let fallback happen if that retry also fails — a disclaim is a
        cue to heal, never a silent degrade.
        """
        if filled[shard] or shard in reassigned:
            return  # one retry per shard; next stop is fallback
        reassigned.add(shard)
        for session in self._sessions:
            if session is not None:
                session.held.discard((dskey[0], dskey[1], shard))
        if self._adopt(
            shard, qid, spec, dskey, resident, pending, program_bytes, registry
        ):
            registry.counter("remote.repushed_shards").inc()
            for adopter in pending:
                deadlines[adopter] = self._deadline()

    def _fail_node(
        self, index, qid, spec, dskey, resident, pending,
        deadlines, reassigned, program_bytes, registry, filled,
    ) -> None:
        """Declare node ``index`` dead and re-assign its unanswered shards."""
        self._drop_session(index)
        orphans = sorted(pending.pop(index, set()))
        deadlines.pop(index, None)
        for shard in orphans:
            if filled[shard]:
                continue
            if shard in reassigned:
                continue  # one adoption per shard; next stop is fallback
            reassigned.add(shard)
            if self._adopt(
                shard, qid, spec, dskey, resident, pending, program_bytes, registry
            ):
                registry.counter("remote.reassigned_shards").inc()
                for adopter in pending:
                    deadlines[adopter] = self._deadline()

    def _adopt(
        self, shard, qid, spec, dskey, resident, pending, program_bytes, registry
    ) -> bool:
        """Hand one orphaned shard to a surviving (or idle) node."""
        if resident is None:
            # Federated: the dead curator was the shard's only holder —
            # no other node has (or may ever receive) its rows, so the
            # shard resolves to the data-independent fallback instead.
            return False
        # A forked slot counts even with its session gone: dialing it
        # forks a fresh node (kill-and-replace), so a one-node cluster
        # still gets its one retry.
        respawns = self._cluster is not None and self._cluster.respawns
        candidates = [i for i in pending] + [
            i
            for i in range(len(self._addresses))
            if i not in pending and (respawns or self._sessions[i] is not None)
        ]
        # Deterministic adopter choice (least-loaded, ties by index) —
        # irrelevant to released bits, but it keeps frame sequences
        # reproducible for the fault matrix.
        candidates.sort(key=lambda i: (len(pending.get(i, ())), i))
        for index in candidates:
            if self._dispatch(
                index, qid, spec, dskey, resident, [shard], program_bytes
            ):
                pending.setdefault(index, set()).add(shard)
                return True
            # _dispatch dropped the session; its own shards will expire
            # through the normal fail path if it was mid-query.
        return False


__all__ = [
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_NODE_TIMEOUT",
    "LocalNodeCluster",
    "RemoteShardBackend",
    "local_node_cluster",
    "parse_node_address",
]
