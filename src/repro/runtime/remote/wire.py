"""The shard-node wire protocol: framed binary messages over TCP.

This module is the single source of truth for everything that crosses
the coordinator <-> shard-node socket, the way
:mod:`repro.server.protocol` is for the analyst-facing HTTP tier.  Its
bytes are pinned golden by ``tests/test_remote_protocol.py``: changing
the frame layout, a kind number, or a header key is a breaking protocol
change and requires bumping :data:`REMOTE_PROTOCOL_VERSION`.

Frame format
------------
Every message is one frame (little-endian, mirroring the WAL's framing
discipline in :mod:`repro.accounting.journal`)::

    <magic 4B> <u16 version> <u16 kind> <u32 header length>
    <u64 body length> <header bytes> <body bytes> <u32 crc32>

* ``magic`` is :data:`REMOTE_MAGIC` — a connection that does not start
  every frame with it is not speaking this protocol.
* ``header`` is canonical JSON (sorted keys, no whitespace): public
  parameters only — dataset names, shard geometry, seeds, shapes.
  Canonical encoding is what makes byte-level goldens possible.
* ``body`` is an opaque byte string: a float64 array in C order, a
  boolean mask as uint8, or a pickled analyst program (the coordinator
  is trusted platform infrastructure; nodes execute its programs the
  same way the in-process chambers do).
* ``crc32`` covers everything after the magic.  A frame that fails the
  checksum, truncates mid-read, or carries the wrong version is
  rejected with a typed :class:`FrameError` — never partially applied.

Privacy boundary
----------------
The node -> coordinator direction may only ever carry clamped block
summaries: :data:`PARTIAL` frames (an ``(l_s, p)`` output matrix plus
its success mask), public acknowledgements (:data:`QUERY_DONE`,
:data:`PONG`, :data:`WELCOME`, :data:`BYE`) and error strings.  The
coordinator -> node direction carries each node's *own* shard rows
(:data:`SEGMENT`) and public plan parameters — a node never sees
another node's slice.  In *curator mode* even that narrows: a node
holds its own rows from startup, advertises only a manifest (name, row
count, schema digest) in WELCOME, and :data:`SEGMENT` frames are
refused for curated datasets — no raw record ever crosses the wire in
either direction.  ``tests/test_shard_privacy.py`` pins both
directions with sentinel-band data.

Authentication (v2)
-------------------
A node started with a shared secret refuses coordinators that cannot
prove possession of it.  The proof is an HMAC-SHA256 challenge-response
folded into the existing HELLO/WELCOME exchange (see
:func:`auth_proof`): the coordinator's HELLO carries a fresh nonce, the
node answers with its own challenge nonce plus a proof over the
coordinator's nonce (so the *node* authenticates first — a client
never reveals a proof to a fake node), and the coordinator's second
HELLO returns the matching proof.  Role strings are bound into the MAC
so a proof can never be reflected back to its producer.  The secret
itself never crosses the wire.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import socket
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.exceptions import GuptError
from repro.runtime.shard import ShardQuerySpec
from repro.testing import failpoints

#: Bumped on any breaking change to the frame layout or message schema.
#: v2 folded a shared-secret HMAC challenge-response into HELLO/WELCOME
#: (plus curated-dataset manifests in WELCOME), so a v1 coordinator and
#: a v2 node refuse each other loudly through the version-skew path.
REMOTE_PROTOCOL_VERSION = 2

#: First bytes of every frame ("GUPT Shard Node").
REMOTE_MAGIC = b"GSN1"

#: ``<u16 version> <u16 kind> <u32 header len> <u64 body len>``.
_PREFIX = struct.Struct("<HHIQ")

#: Trailing ``<u32 crc32>``.
_CRC = struct.Struct("<I")

#: Upper bounds before a length prefix is treated as garbage rather
#: than an allocation request (a torn or hostile stream must never make
#: the receiver allocate unbounded memory).
MAX_HEADER_BYTES = 1 << 20
MAX_BODY_BYTES = 1 << 31

#: A receive buffer starts at most this large and doubles as bytes
#: arrive, so a length prefix alone never makes the receiver allocate.
_RECV_CHUNK_BYTES = 1 << 20

# ----------------------------------------------------------------------
# Message kinds (pinned; numbers are wire format)
# ----------------------------------------------------------------------
HELLO = 1            # coordinator -> node: open a session, declare version
WELCOME = 2          # node -> coordinator: session accepted
SEGMENT = 3          # coordinator -> node: one shard's raw row slice
PLAN = 4             # coordinator -> node: public plan parameters of a query
EXECUTE = 5          # coordinator -> node: run listed shards of a planned query
PARTIAL = 6          # node -> coordinator: one shard's clamped block summary
PARTIAL_MISSING = 7  # node -> coordinator: shard unanswerable (no segment/plan)
QUERY_DONE = 8       # node -> coordinator: every requested shard answered
PING = 9             # coordinator -> node: heartbeat probe
PONG = 10            # node -> coordinator: heartbeat answer
SHUTDOWN = 11        # coordinator -> node: close the session (optionally halt)
BYE = 12             # node -> coordinator: acknowledging shutdown
ERROR = 13           # node -> coordinator: protocol-level refusal

KIND_NAMES: dict[int, str] = {
    HELLO: "hello",
    WELCOME: "welcome",
    SEGMENT: "segment",
    PLAN: "plan",
    EXECUTE: "execute",
    PARTIAL: "partial",
    PARTIAL_MISSING: "partial-missing",
    QUERY_DONE: "query-done",
    PING: "ping",
    PONG: "pong",
    SHUTDOWN: "shutdown",
    BYE: "bye",
    ERROR: "error",
}

#: Kinds a node may send to the coordinator — the privacy-boundary
#: allowlist for the untrusted return channel.
NODE_TO_COORDINATOR_KINDS = frozenset(
    {WELCOME, PARTIAL, PARTIAL_MISSING, QUERY_DONE, PONG, BYE, ERROR}
)


class FrameError(GuptError):
    """A frame that cannot be accepted (base of all wire rejections)."""


class TruncatedFrame(FrameError):
    """The stream ended (or timed out) before the frame completed."""


class CorruptFrame(FrameError):
    """Bad magic, an insane length prefix, or a checksum mismatch."""


class VersionMismatch(FrameError):
    """The peer speaks a different protocol version."""

    def __init__(self, theirs: int):
        self.theirs = int(theirs)
        super().__init__(
            f"peer speaks remote protocol v{theirs}, "
            f"this build speaks v{REMOTE_PROTOCOL_VERSION}"
        )


@dataclass(frozen=True)
class Frame:
    """One decoded message: a kind, a JSON-safe header, opaque body bytes.

    A frame read off a socket carries its body as a read-only view into
    the receive buffer (any bytes-like object compares, slices and
    unpickles like ``bytes``).
    """

    kind: int
    header: Mapping[str, Any]
    body: bytes | memoryview = b""

    @property
    def kind_name(self) -> str:
        return KIND_NAMES.get(self.kind, f"kind-{self.kind}")


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _canonical_header(header: Mapping[str, Any]) -> bytes:
    """Canonical JSON: the same header always produces the same bytes."""
    return json.dumps(
        dict(header), sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def encode_frame(kind: int, header: Mapping[str, Any], body: bytes = b"") -> bytes:
    """Serialize one frame to its exact wire bytes.

    The checksum runs over the body in place, so the body is copied
    once, into the frame, and never into a scratch buffer first.
    """
    header_bytes = _canonical_header(header)
    prefix = _PREFIX.pack(
        REMOTE_PROTOCOL_VERSION, int(kind), len(header_bytes), len(body)
    )
    checksum = zlib.crc32(body, zlib.crc32(header_bytes, zlib.crc32(prefix)))
    return b"".join((REMOTE_MAGIC, prefix, header_bytes, body, _CRC.pack(checksum)))


def decode_frame(data: bytes) -> Frame:
    """Decode one complete frame from ``data`` (exact length required)."""
    view = memoryview(data)
    if len(view) < len(REMOTE_MAGIC) + _PREFIX.size + _CRC.size:
        raise TruncatedFrame(f"frame is {len(view)} bytes, shorter than any frame")
    if bytes(view[: len(REMOTE_MAGIC)]) != REMOTE_MAGIC:
        raise CorruptFrame(f"bad magic {bytes(view[:4])!r}")
    offset = len(REMOTE_MAGIC)
    version, kind, header_len, body_len = _PREFIX.unpack_from(view, offset)
    _check_lengths(version, header_len, body_len)
    end = offset + _PREFIX.size + header_len + body_len
    if len(view) != end + _CRC.size:
        raise TruncatedFrame(
            f"frame declares {end + _CRC.size} bytes, got {len(view)}"
        )
    (checksum,) = _CRC.unpack_from(view, end)
    if zlib.crc32(view[offset:end]) != checksum:
        raise CorruptFrame("checksum mismatch")
    header_start = offset + _PREFIX.size
    header = _parse_header(bytes(view[header_start : header_start + header_len]))
    return Frame(
        kind=kind, header=header, body=bytes(view[header_start + header_len : end])
    )


def _check_lengths(version: int, header_len: int, body_len: int) -> None:
    if version != REMOTE_PROTOCOL_VERSION:
        raise VersionMismatch(version)
    if header_len > MAX_HEADER_BYTES or body_len > MAX_BODY_BYTES:
        raise CorruptFrame(
            f"insane lengths (header={header_len}, body={body_len})"
        )


def _parse_header(raw: bytes) -> dict[str, Any]:
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptFrame(f"unparseable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CorruptFrame("header is not a JSON object")
    return header


# ----------------------------------------------------------------------
# Socket I/O
# ----------------------------------------------------------------------
def _recv_exact(
    sock: socket.socket, count: int, deadline: float | None = None
) -> bytearray:
    buffer = bytearray(min(count, _RECV_CHUNK_BYTES))
    received = 0
    while received < count:
        remaining = count - received
        if received == len(buffer):
            buffer.extend(bytes(min(len(buffer), remaining)))
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0.0:
                raise TruncatedFrame(
                    f"timed out mid-frame ({remaining} bytes short)"
                )
            sock.settimeout(left)
        try:
            with memoryview(buffer) as view, view[received:] as window:
                got = sock.recv_into(window)
        except socket.timeout as exc:
            raise TruncatedFrame(
                f"timed out mid-frame ({remaining} bytes short)"
            ) from exc
        if not got:
            raise TruncatedFrame(f"connection closed mid-frame ({remaining} short)")
        received += got
    return buffer


def read_frame(sock: socket.socket, timeout: float | None = None) -> Frame:
    """Read exactly one frame from ``sock``.

    ``timeout`` bounds the whole frame read against a single monotonic
    deadline — a peer trickling one byte per interval cannot extend it;
    expiry raises :class:`TruncatedFrame` (a peer that stalls mid-frame
    has torn the stream — there is no resynchronization, the connection
    is dead).  Raises :class:`ConnectionError`-shaped
    :class:`TruncatedFrame` on a clean close before any byte.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    sock.settimeout(timeout)
    head = _recv_exact(sock, len(REMOTE_MAGIC) + _PREFIX.size, deadline)
    if head[: len(REMOTE_MAGIC)] != REMOTE_MAGIC:
        raise CorruptFrame(f"bad magic {head[:4]!r}")
    version, kind, header_len, body_len = _PREFIX.unpack_from(head, len(REMOTE_MAGIC))
    _check_lengths(version, header_len, body_len)
    header_bytes = _recv_exact(sock, header_len, deadline)
    # The body gets a buffer of its own, so its float64 rows start
    # aligned; it stays a view into that buffer, never copied again.
    rest = memoryview(_recv_exact(sock, body_len + _CRC.size, deadline))
    body = rest[:body_len].toreadonly()
    (checksum,) = _CRC.unpack_from(rest, body_len)
    crc = zlib.crc32(head[len(REMOTE_MAGIC) :])
    if zlib.crc32(body, zlib.crc32(header_bytes, crc)) != checksum:
        raise CorruptFrame("checksum mismatch")
    return Frame(kind=kind, header=_parse_header(bytes(header_bytes)), body=body)


def send_frame(
    sock: socket.socket, kind: int, header: Mapping[str, Any], body: bytes = b""
) -> None:
    """Encode and write one frame, passing the ``remote.send.*`` failpoints.

    The three sites model every way a network write can fail:
    ``remote.send.pre`` (connection already dead — nothing written),
    ``remote.send.torn`` (half the frame written, then the connection
    breaks: the peer sees a truncated/corrupt frame), and
    ``remote.send.post`` (the frame was delivered but the sender then
    loses the connection).  Armed in ``error`` mode they raise
    :class:`~repro.testing.failpoints.FailpointError`, which callers
    treat exactly like :class:`OSError` — a dead peer.
    """
    data = encode_frame(kind, header, body)
    failpoints.hit("remote.send.pre")
    if failpoints.is_armed("remote.send.torn"):
        try:
            failpoints.hit("remote.send.torn")
        except failpoints.FailpointError:
            sock.sendall(data[: max(1, len(data) // 2)])
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            raise
        sock.sendall(data)
    else:
        sock.sendall(data)
    failpoints.hit("remote.send.post")


# ----------------------------------------------------------------------
# Typed payload helpers
# ----------------------------------------------------------------------
def array_to_body(values: np.ndarray) -> tuple[dict[str, Any], memoryview]:
    """A float64 matrix as ``(shape header fields, raw C-order bytes)``.

    The dtype is pinned to little-endian float64: it is what every
    execution path already computes in, and a fixed dtype is what makes
    partials bit-comparable across heterogeneous nodes.  The bytes are a
    view of the matrix (copied only to convert it), so a segment push
    is not copied before it is sent.
    """
    values = np.ascontiguousarray(values, dtype="<f8")
    body = memoryview(values).cast("B") if values.size else memoryview(b"")
    return {"shape": [int(n) for n in values.shape]}, body


def body_to_array(header: Mapping[str, Any], body: bytes, key: str = "shape"):
    """The matrix a body carries, as a view over the body's bytes."""
    shape = tuple(int(n) for n in header[key])
    expected = int(np.prod(shape, dtype=np.int64)) * 8
    if len(body) != expected:
        raise CorruptFrame(
            f"array body is {len(body)} bytes, shape {shape} needs {expected}"
        )
    return np.frombuffer(body, dtype="<f8").reshape(shape)


def mask_to_bytes(mask: np.ndarray) -> bytes:
    return np.ascontiguousarray(mask, dtype=np.uint8).tobytes()


def bytes_to_mask(raw: bytes, count: int) -> np.ndarray:
    if len(raw) != count:
        raise CorruptFrame(f"mask is {len(raw)} bytes, expected {count}")
    return np.frombuffer(raw, dtype=np.uint8).astype(bool)


def spec_to_header(spec: ShardQuerySpec) -> dict[str, Any]:
    """A :class:`ShardQuerySpec` as JSON-safe header fields (all public)."""
    return {
        "dataset": spec.dataset,
        "version": int(spec.version),
        "num_records": int(spec.num_records),
        "block_size": int(spec.block_size),
        "resampling_factor": int(spec.resampling_factor),
        "plan_seed": int(spec.plan_seed),
        "shards": int(spec.shards),
        "output_dimension": int(spec.output_dimension),
        "fallback": [float(v) for v in spec.fallback],
        "clamp_lo": None if spec.clamp_lo is None else [float(v) for v in spec.clamp_lo],
        "clamp_hi": None if spec.clamp_hi is None else [float(v) for v in spec.clamp_hi],
    }


# ----------------------------------------------------------------------
# Handshake authentication (v2)
# ----------------------------------------------------------------------
#: Role strings bound into every HMAC proof, so a node proof can never
#: be replayed as a coordinator proof (or vice versa).
AUTH_ROLE_NODE = "node"
AUTH_ROLE_COORDINATOR = "coordinator"


def auth_proof(secret: str, role: str, challenge: str, nonce: str) -> str:
    """HMAC-SHA256 proof that ``secret``'s holder answered ``challenge``.

    ``challenge`` is the nonce the *peer* sent; ``nonce`` is the nonce
    the prover itself contributed to the session.  Binding both (plus
    the prover's role) means a proof is only valid for this exact
    exchange — an observer replaying it into a new session fails
    because the new session has fresh nonces.
    """
    message = f"{role}|{challenge}|{nonce}".encode("utf-8")
    return hmac.new(secret.encode("utf-8"), message, hashlib.sha256).hexdigest()


def verify_proof(
    secret: str, role: str, challenge: str, nonce: str, proof: Any
) -> bool:
    """Constant-time check of an :func:`auth_proof` value."""
    if not isinstance(proof, str):
        return False
    return hmac.compare_digest(auth_proof(secret, role, challenge, nonce), proof)


# ----------------------------------------------------------------------
# Curated-dataset manifests (v2)
# ----------------------------------------------------------------------
def dataset_digest(name: str, rows: int, columns: int) -> str:
    """Public schema digest a curator advertises for a held dataset.

    Covers name, geometry, and the pinned wire dtype — exactly the
    facts the coordinator is allowed to learn — so a coordinator can
    detect curators that disagree about what a federated dataset *is*
    without ever seeing a value.
    """
    text = f"{name}|{int(rows)}|{int(columns)}|<f8"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def manifest_entry(name: str, rows: int, columns: int) -> dict[str, Any]:
    """One WELCOME manifest entry for a curated dataset (all public)."""
    return {
        "dataset": str(name),
        "rows": int(rows),
        "columns": int(columns),
        "digest": dataset_digest(name, rows, columns),
    }


def header_to_spec(header: Mapping[str, Any]) -> ShardQuerySpec:
    try:
        return ShardQuerySpec(
            dataset=str(header["dataset"]),
            version=int(header["version"]),
            num_records=int(header["num_records"]),
            block_size=int(header["block_size"]),
            resampling_factor=int(header["resampling_factor"]),
            plan_seed=int(header["plan_seed"]),
            shards=int(header["shards"]),
            output_dimension=int(header["output_dimension"]),
            fallback=tuple(float(v) for v in header["fallback"]),
            clamp_lo=(
                None
                if header.get("clamp_lo") is None
                else tuple(float(v) for v in header["clamp_lo"])
            ),
            clamp_hi=(
                None
                if header.get("clamp_hi") is None
                else tuple(float(v) for v in header["clamp_hi"])
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFrame(f"malformed query spec: {exc}") from exc


__all__ = [
    "AUTH_ROLE_COORDINATOR",
    "AUTH_ROLE_NODE",
    "BYE",
    "CorruptFrame",
    "ERROR",
    "EXECUTE",
    "Frame",
    "FrameError",
    "HELLO",
    "KIND_NAMES",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "NODE_TO_COORDINATOR_KINDS",
    "PARTIAL",
    "PARTIAL_MISSING",
    "PING",
    "PLAN",
    "PONG",
    "QUERY_DONE",
    "REMOTE_MAGIC",
    "REMOTE_PROTOCOL_VERSION",
    "SEGMENT",
    "SHUTDOWN",
    "TruncatedFrame",
    "VersionMismatch",
    "WELCOME",
    "array_to_body",
    "auth_proof",
    "body_to_array",
    "bytes_to_mask",
    "dataset_digest",
    "decode_frame",
    "encode_frame",
    "header_to_spec",
    "manifest_entry",
    "mask_to_bytes",
    "read_frame",
    "send_frame",
    "spec_to_header",
    "verify_proof",
]
