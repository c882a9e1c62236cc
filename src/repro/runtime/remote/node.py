"""The shard node: the worker side of the shard protocol.

A node serves one coordinator over a connected socket — accepted on a
TCP listener (``repro shard-node``, or a node thread), or one end of a
socketpair handed to a forked local node
(:meth:`ShardNodeServer.serve_connection`).  It holds the raw row
slices of the logical shards assigned to it (pushed once per
``(dataset, version)`` by the coordinator as ``SEGMENT`` frames), plans
each shard locally from ``spawn(plan_seed, S)[s]``, executes the
analyst program, and returns *only* the clamped ``(l_s, p)``
block-output partial and success mask.  Every node runs
:func:`repro.runtime.shard.execute_shard_rows`, so a release is
bit-identical to every in-process backend at the same logical shard
count, whatever the transport.

Trust model (the Lin/Wang/Rane curator setting): a node sees only its
*own* shards' rows, never another node's slice, and the return channel
is restricted to clamped block summaries — so a coordinator (or wire
observer) learns nothing about a node's records beyond what the
differentially private release already reveals, and a node learns
nothing about the rest of the dataset at all.  In **curator mode** the
node goes one step further: started with ``--data FILE --dataset NAME``
it loads its own rows at startup, advertises only a manifest (name, row
count, schema digest) in the handshake, and *refuses* ``SEGMENT``
frames for curated datasets — the coordinator plans against
node-reported geometry and never sees a value.  The node deliberately
imports no accounting machinery: budgets, ledgers and journals live
with the coordinator's dataset manager only
(``tests/test_shard_privacy.py`` pins this by AST).

A node started with ``--secret`` (or ``REPRO_SHARD_SECRET``) requires
every coordinator to pass the HMAC challenge-response folded into
HELLO/WELCOME (see :mod:`repro.runtime.remote.wire`): an
unauthenticated dialer is refused before any non-handshake frame is
processed, and an idle session can only be preempted by a newcomer
that *completes* a valid handshake — a port scan or load-balancer
probe never evicts the real coordinator.

Run standalone with ``repro shard-node HOST:PORT`` (port 0 binds an
ephemeral port; the chosen one is announced on stdout as
``LISTENING <host> <port>`` for parent processes to scrape).

Failure injection: the node passes the ``remote.node.crash`` /
``remote.node.hang`` / ``remote.node.slow`` failpoints once per
received message and once per outgoing partial, so the fault matrix can
kill, wedge or slow a node at any protocol state deterministically
(``@N`` counts frames processed, which are strictly ordered on one
connection).
"""

from __future__ import annotations

import argparse
import os
import secrets
import select
import socket
import threading

import numpy as np

from repro.core.blocks import shard_offsets
from repro.exceptions import GuptError
from repro.runtime.remote import wire
from repro.runtime.shard import DEFAULT_RESIDENT_DATASETS, execute_shard_rows
from repro.testing import failpoints

#: Sites every message (and every outgoing partial) passes through.
FAILPOINT_SITES = ("remote.node.crash", "remote.node.hang", "remote.node.slow")

#: Seconds a single in-progress frame may take to arrive once its first
#: byte is readable.  Bounds a peer that trickles bytes forever; one
#: frame is at most a segment push, so a minute is generous even for
#: slow links.
FRAME_READ_TIMEOUT = 60.0

#: Seconds between idle-session polls of the listener.  While waiting
#: for the next frame the node also watches its own listen socket: a
#: coordinator that died without FIN (host crash, partition) would
#: otherwise hold the session open forever and starve reconnecting
#: coordinators in the accept backlog.
_IDLE_POLL_SECONDS = 0.5

#: Seconds a *preempting* newcomer gets to finish its handshake.  Short
#: on purpose: while the node handshakes a newcomer the live session's
#: frames wait, so a dialer that connects and stalls must be cut loose
#: quickly (and the live session kept).
_PREEMPT_HANDSHAKE_TIMEOUT = 2.0


def _hit_failpoints() -> None:
    for site in FAILPOINT_SITES:
        failpoints.hit(site)


class ShardNodeServer:
    """Listens for one coordinator at a time and serves shard executions.

    Parameters
    ----------
    host, port:
        Bind address; port 0 picks an ephemeral port (the bound one is
        available as :attr:`address` after :meth:`start`).  Ephemeral
        binding is the anti-flake convention: tests and local clusters
        never race for a probed port.
    resident_datasets:
        LRU bound on ``(dataset, version)`` entries kept in memory.
    secret:
        Shared authentication secret.  When set, every coordinator must
        complete the HMAC challenge-response before any non-handshake
        frame is processed.  ``None`` serves any dialer (the PR 9
        behaviour, for trusted single-box clusters).
    curated:
        ``{dataset name: rows}`` this node holds as a curator.  Rows
        are a 2-D finite float matrix, pinned read-only; curated
        datasets are advertised in the WELCOME manifest, never evicted,
        and any ``SEGMENT`` frame naming one is refused.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        resident_datasets: int = DEFAULT_RESIDENT_DATASETS,
        secret: str | None = None,
        curated: dict[str, np.ndarray] | None = None,
    ):
        self._host = host
        self._port = port
        self._resident_datasets = max(1, int(resident_datasets))
        self._secret = secret if secret else None
        self._curated: dict[str, np.ndarray] = {}
        for name, rows in (curated or {}).items():
            rows = np.ascontiguousarray(rows, dtype=float)
            if rows.ndim == 1:
                rows = rows.reshape(-1, 1)
            if rows.ndim != 2 or rows.size == 0 or not np.isfinite(rows).all():
                raise ValueError(
                    f"curated dataset {name!r} must be a non-empty 2-D "
                    f"finite float matrix"
                )
            rows.setflags(write=False)
            self._curated[str(name)] = rows
        self._listener: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._halted = threading.Event()
        # A newcomer that completed a preempting handshake, waiting for
        # the serve loop to pick it up as the next session.
        self._pending_conn: socket.socket | None = None
        # (dataset, version) -> {shard: rows}; insertion-ordered for LRU.
        self._segments: dict[tuple[str, int], dict[int, object]] = {}
        # qid -> ShardQuerySpec, from PLAN frames.
        self._plans: dict[int, object] = {}

    # -- lifecycle -------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("node is not listening (call start/serve_forever)")
        return self._listener.getsockname()[:2]

    def _bind(self) -> None:
        if self._listener is not None:
            return
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(4)
        self._listener = listener

    def start(self) -> tuple[str, int]:
        """Bind and serve on a daemon thread (in-process test clusters)."""
        self._bind()
        self._thread = threading.Thread(
            target=self._serve_loop, name="shard-node", daemon=True
        )
        self._thread.start()
        return self.address

    def serve_forever(self, announce=None) -> None:
        """Bind and serve on the calling thread (the CLI entry point).

        ``announce``, when given, is called with ``(host, port)`` once
        the listener is bound — the CLI prints the ``LISTENING`` line
        from it so parents scraping stdout never race the bind.
        """
        self._bind()
        if announce is not None:
            host, port = self.address
            announce(host, port)
        self._serve_loop()

    def stop(self) -> None:
        """Close the listener and unblock the serve loop; idempotent."""
        self._halted.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            # Closing a listening socket does not wake a thread blocked
            # in accept() on Linux; shutting it down does.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        pending, self._pending_conn = self._pending_conn, None
        if pending is not None:
            try:
                pending.close()
            except OSError:
                pass
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=2.0)
            self._thread = None

    # -- serving ---------------------------------------------------------
    def serve_connection(self, conn: socket.socket) -> None:
        """Serve one already-connected coordinator on the calling thread.

        The entry point of a node with no listener (a forked local node
        handed one end of a socketpair): the handshake, then the
        session, then the connection is closed.  Nothing is announced
        and no newcomer can preempt the session.
        """
        try:
            self._prepare_conn(conn)
            if self._handshake(conn):
                self._session_loop(conn)
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _serve_loop(self) -> None:
        while not self._halted.is_set():
            conn, self._pending_conn = self._pending_conn, None
            if conn is None:
                # No handshaken newcomer waiting: accept a fresh dial.
                listener = self._listener
                if listener is None:
                    return
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return  # listener closed by stop()
                self.serve_connection(conn)
                continue
            try:
                self._session_loop(conn)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    @staticmethod
    def _prepare_conn(conn: socket.socket) -> None:
        if conn.family == socket.AF_UNIX:
            return  # no Nagle, no keepalive on a local socketpair
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)

    def _manifests(self) -> list[dict]:
        """Curated-dataset manifests advertised in WELCOME (all public)."""
        return [
            wire.manifest_entry(name, rows.shape[0], rows.shape[1])
            for name, rows in sorted(self._curated.items())
        ]

    def _handshake(
        self, conn: socket.socket, timeout: float = FRAME_READ_TIMEOUT
    ) -> bool:
        """Run the HELLO/WELCOME (+auth) exchange; True accepts the peer.

        Without a secret this is the plain version check plus the
        manifest-bearing WELCOME.  With a secret the node answers HELLO
        with a challenge nonce *and its own proof* over the
        coordinator's nonce (the node authenticates first — a
        coordinator never reveals a proof to an impostor node), then
        requires the coordinator's matching proof before the final
        WELCOME.  Any failure refuses the dialer before a single
        non-handshake frame is processed.
        """
        try:
            frame = wire.read_frame(conn, timeout)
        except wire.FrameError:
            return False
        if frame.kind != wire.HELLO:
            self._refuse(conn, "expected hello")
            return False
        theirs = int(frame.header.get("protocol", -1))
        if theirs != wire.REMOTE_PROTOCOL_VERSION:
            self._refuse(
                conn,
                f"protocol version mismatch: coordinator v{theirs}, "
                f"node v{wire.REMOTE_PROTOCOL_VERSION}",
                code="version_mismatch",
            )
            return False
        welcome = {
            "protocol": wire.REMOTE_PROTOCOL_VERSION,
            "shards_held": 0,
            "manifests": self._manifests(),
        }
        if self._secret is None:
            welcome["authenticated"] = False
            try:
                wire.send_frame(conn, wire.WELCOME, welcome)
            except OSError:
                return False
            return True
        coordinator_nonce = frame.header.get("nonce")
        if not isinstance(coordinator_nonce, str) or not coordinator_nonce:
            self._refuse(
                conn,
                "this node requires authentication: hello carried no nonce",
                code="auth_failed",
            )
            return False
        node_nonce = secrets.token_hex(16)
        try:
            wire.send_frame(
                conn,
                wire.WELCOME,
                {
                    "protocol": wire.REMOTE_PROTOCOL_VERSION,
                    "challenge": node_nonce,
                    "proof": wire.auth_proof(
                        self._secret,
                        wire.AUTH_ROLE_NODE,
                        coordinator_nonce,
                        node_nonce,
                    ),
                },
            )
            reply = wire.read_frame(conn, timeout)
        except (OSError, wire.FrameError):
            return False
        if reply.kind != wire.HELLO or not wire.verify_proof(
            self._secret,
            wire.AUTH_ROLE_COORDINATOR,
            node_nonce,
            coordinator_nonce,
            reply.header.get("proof"),
        ):
            self._refuse(
                conn, "coordinator failed authentication", code="auth_failed"
            )
            return False
        welcome["authenticated"] = True
        try:
            wire.send_frame(conn, wire.WELCOME, welcome)
        except OSError:
            return False
        return True

    def _session_loop(self, conn: socket.socket) -> None:
        """Serve one handshaken coordinator until its session ends."""
        try:
            while not self._halted.is_set():
                if not self._await_frame_or_preempt(conn):
                    return
                try:
                    frame = wire.read_frame(conn, FRAME_READ_TIMEOUT)
                except wire.FrameError:
                    return  # dead or torn stream: drop the session
                _hit_failpoints()
                try:
                    if not self._handle(conn, frame):
                        return
                except wire.FrameError as exc:
                    self._refuse(conn, str(exc))
                    return
                except (OSError, failpoints.FailpointError):
                    return
        finally:
            # Plan specs are session-scoped (a re-assigned shard ships a
            # fresh PLAN): drop any left by an aborted query so a
            # long-lived node never accumulates orphaned specs.
            self._plans.clear()

    def _await_frame_or_preempt(self, conn: socket.socket) -> bool:
        """Wait for the session's next frame; False drops the session.

        Watches the listener alongside the connection: a coordinator
        that crashed without FIN would otherwise hold the session open
        forever and starve reconnecting coordinators in the accept
        backlog.  But a bare TCP dial is not a coordinator — only a
        newcomer that *completes* a valid (authenticated) handshake
        preempts the live session; a connect-and-close probe, garbage
        stream, or wrong-secret dialer is refused and the session kept.
        """
        while not self._halted.is_set():
            listener = self._listener
            watch = [conn] if listener is None else [conn, listener]
            try:
                ready, _, _ = select.select(watch, [], [], _IDLE_POLL_SECONDS)
            except (OSError, ValueError):
                return False  # a watched socket was closed under us
            if conn in ready:
                return True
            if listener is not None and listener in ready:
                try:
                    newcomer, _ = listener.accept()
                except OSError:
                    return False
                try:
                    self._prepare_conn(newcomer)
                    handshaken = self._handshake(
                        newcomer, timeout=_PREEMPT_HANDSHAKE_TIMEOUT
                    )
                except OSError:
                    handshaken = False
                if handshaken:
                    # A real (authenticated) coordinator: yield to it.
                    self._pending_conn = newcomer
                    return False
                try:
                    newcomer.close()
                except OSError:
                    pass
        return False

    def _handle(self, conn: socket.socket, frame: wire.Frame) -> bool:
        """Process one post-handshake frame; False ends the session."""
        kind = frame.kind
        if kind == wire.SEGMENT:
            self._store_segment(frame)
            return True
        if kind == wire.PLAN:
            self._plans[int(frame.header["qid"])] = wire.header_to_spec(frame.header)
            return True
        if kind == wire.EXECUTE:
            self._execute(conn, frame)
            return True
        if kind == wire.PING:
            wire.send_frame(conn, wire.PONG, {"token": frame.header.get("token", 0)})
            return True
        if kind == wire.SHUTDOWN:
            if frame.header.get("halt"):
                self._halted.set()
            try:
                wire.send_frame(conn, wire.BYE, {})
            except OSError:
                pass
            return False
        self._refuse(conn, f"unexpected message kind {frame.kind_name!r}")
        return False

    def _store_segment(self, frame: wire.Frame) -> None:
        header = frame.header
        if str(header.get("dataset")) in self._curated:
            # A curator's rows are its own: nobody overwrites them, and
            # accepting the push would silently re-centralize a dataset
            # the deployment declared node-held.
            raise wire.FrameError(
                f"dataset {header.get('dataset')!r} is curated by this node: "
                f"segment pushes are forbidden"
            )
        rows = wire.body_to_array(header, frame.body)
        rows.setflags(write=False)
        dskey = (str(header["dataset"]), int(header["version"]))
        shards = self._segments.setdefault(dskey, {})
        shards[int(header["shard"])] = rows
        # LRU by dataset: move the touched entry last, evict the oldest.
        self._segments[dskey] = self._segments.pop(dskey)
        while len(self._segments) > self._resident_datasets:
            del self._segments[next(iter(self._segments))]

    def _curated_shard_rows(self, spec, shard: int, origin: int):
        """The locally-held row slice of logical shard ``shard``.

        ``origin`` is this node's global row base, reported by the
        coordinator from the manifest geometry; the shard's global
        ``shard_offsets`` window must fall entirely inside the rows
        this curator holds, else the shard is not answerable here.
        """
        rows = self._curated.get(spec.dataset)
        if rows is None or not 0 <= shard < spec.shards:
            return None
        try:
            offsets = shard_offsets(spec.num_records, spec.shards)
        except GuptError:
            return None  # hostile/confused geometry: disclaim, don't die
        lo = int(offsets[shard]) - origin
        hi = int(offsets[shard + 1]) - origin
        if lo < 0 or hi > rows.shape[0] or lo >= hi:
            return None
        return rows[lo:hi]

    def _execute(self, conn: socket.socket, frame: wire.Frame) -> None:
        qid = int(frame.header["qid"])
        spec = self._plans.get(qid)
        origin = int(frame.header.get("origin", 0))
        program_bytes = frame.body
        shards_held: dict[int, object] = {}
        if spec is not None and spec.dataset not in self._curated:
            dskey = (spec.dataset, spec.version)
            shards_held = self._segments.get(dskey, {})
            if shards_held:
                # Touch the dataset LRU on use, not only on push, so the
                # node's eviction order tracks the coordinator's (which
                # touches per query) instead of drifting to push order.
                self._segments[dskey] = self._segments.pop(dskey)
        for shard in [int(s) for s in frame.header["shards"]]:
            if spec is None:
                wire.send_frame(
                    conn, wire.PARTIAL_MISSING,
                    {"qid": qid, "shard": shard, "reason": "no_plan"},
                )
                continue
            if spec.dataset in self._curated:
                rows = self._curated_shard_rows(spec, shard, origin)
                if rows is None:
                    wire.send_frame(
                        conn, wire.PARTIAL_MISSING,
                        {"qid": qid, "shard": shard, "reason": "not_held"},
                    )
                    continue
            else:
                rows = shards_held.get(shard)
            if rows is None:
                wire.send_frame(
                    conn, wire.PARTIAL_MISSING,
                    {"qid": qid, "shard": shard, "reason": "no_segment"},
                )
                continue
            outputs, succeeded, elapsed = execute_shard_rows(
                rows, spec, shard, program_bytes
            )
            meta, body = wire.array_to_body(outputs)
            _hit_failpoints()
            wire.send_frame(
                conn,
                wire.PARTIAL,
                {
                    "qid": qid,
                    "shard": shard,
                    "shape": meta["shape"],
                    "elapsed": float(elapsed),
                },
                b"".join((body, wire.mask_to_bytes(succeeded))),
            )
        wire.send_frame(conn, wire.QUERY_DONE, {"qid": qid})
        # Plans are per-query; drop them once answered so a long-lived
        # node does not accumulate one spec per qid forever.  Re-executes
        # after re-assignment ship a fresh PLAN first.
        self._plans.pop(qid, None)

    def _refuse(self, conn: socket.socket, message: str, code: str = "protocol_error"):
        try:
            wire.send_frame(conn, wire.ERROR, {"code": code, "error": message})
        except OSError:
            pass


def load_curated_rows(path: str) -> np.ndarray:
    """Load a curator's own rows from ``--data PATH``.

    ``.npy`` files load directly; anything else is comma-separated text
    with an optional single header line (detected by the first line not
    parsing as floats).  Deliberately numpy-only: a curator deployment
    ships no ``repro.datasets`` machinery (the AST pin in
    ``tests/test_shard_privacy.py`` enforces it).
    """
    if path.endswith(".npy"):
        rows = np.load(path)
    else:
        with open(path, "r", encoding="utf-8") as handle:
            first = handle.readline()
        skiprows = 0
        for cell in first.strip().split(","):
            try:
                float(cell)
            except ValueError:
                skiprows = 1
                break
        rows = np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows.reshape(-1, 1)
    if rows.ndim != 2 or rows.size == 0 or not np.isfinite(rows).all():
        raise ValueError(
            f"curated data {path!r} must be a non-empty 2-D finite matrix"
        )
    return rows


def main(argv: list[str]) -> int:
    """``repro shard-node HOST:PORT [--data FILE --dataset NAME]...`` —
    run one node until halted (curator mode when data files are given)."""
    parser = argparse.ArgumentParser(
        prog="repro shard-node",
        description="Run one shard node until halted.",
    )
    parser.add_argument("address", help="HOST:PORT to listen on (port 0 = ephemeral)")
    parser.add_argument(
        "--data", action="append", default=[], metavar="FILE",
        help="rows this node curates (.npy or CSV); repeatable, "
        "paired positionally with --dataset",
    )
    parser.add_argument(
        "--dataset", action="append", default=[], metavar="NAME",
        help="dataset name for the matching --data file",
    )
    parser.add_argument(
        "--secret", default=None,
        help="shared coordinator-authentication secret "
        "(default: $REPRO_SHARD_SECRET)",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    host, _, port_text = args.address.rpartition(":")
    if not host or not port_text:
        print("usage: repro shard-node HOST:PORT", flush=True)
        return 2
    if len(args.data) != len(args.dataset):
        print("error: each --data FILE needs a matching --dataset NAME", flush=True)
        return 2
    secret = args.secret or os.environ.get("REPRO_SHARD_SECRET") or None
    try:
        curated = {
            name: load_curated_rows(path)
            for name, path in zip(args.dataset, args.data)
        }
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", flush=True)
        return 2
    node = ShardNodeServer(
        host=host, port=int(port_text), secret=secret, curated=curated
    )
    try:
        node.serve_forever(
            announce=lambda h, p: print(f"LISTENING {h} {p}", flush=True)
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        node.stop()
    return 0


__all__ = [
    "FAILPOINT_SITES",
    "FRAME_READ_TIMEOUT",
    "ShardNodeServer",
    "load_curated_rows",
    "main",
]
