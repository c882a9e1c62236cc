"""Shard execution on node processes, local or across the network.

Logical shards are executed by *shard-node* processes speaking the
length-prefixed, versioned, CRC-framed binary protocol of
:mod:`repro.runtime.remote.wire` — over TCP for ``backend="remote"``,
over socketpairs to forked local nodes for ``backend="sharded"``.  The
privacy contract holds on a genuinely untrusted channel — the only
payload a node ever returns is its clamped ``(l_s, p)`` block-output
partial and success mask — and releases stay bit-identical to every
in-process backend at the same logical shard count ``S``.

Pieces:

* :mod:`~repro.runtime.remote.wire` — the frame format and message
  schema (the conformance suite pins its bytes);
* :mod:`~repro.runtime.remote.node` — :class:`ShardNodeServer`, the
  node (standalone as ``repro shard-node HOST:PORT``, or forked);
* :mod:`~repro.runtime.remote.backend` — :class:`RemoteShardBackend`,
  the coordinator: node registry, heartbeats, shard re-assignment on
  node death, and the partial-quorum degrade path.
"""

from repro.runtime.remote.backend import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_NODE_TIMEOUT,
    RemoteShardBackend,
    local_node_cluster,
)
from repro.runtime.remote.node import ShardNodeServer
from repro.runtime.remote.wire import (
    REMOTE_MAGIC,
    REMOTE_PROTOCOL_VERSION,
    CorruptFrame,
    Frame,
    FrameError,
    TruncatedFrame,
    VersionMismatch,
)

__all__ = [
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_NODE_TIMEOUT",
    "CorruptFrame",
    "Frame",
    "FrameError",
    "REMOTE_MAGIC",
    "REMOTE_PROTOCOL_VERSION",
    "RemoteShardBackend",
    "ShardNodeServer",
    "TruncatedFrame",
    "VersionMismatch",
    "local_node_cluster",
]
