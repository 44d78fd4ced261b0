"""repro.serve — the asyncio lease-serving front end.

The ROADMAP's serving milestone: :mod:`repro.engine`'s synchronous
:class:`~repro.engine.broker.LeaseBroker` put behind a real service
boundary, so concurrent tenants multiplex over sockets instead of
sharing one Python call stack.

* :mod:`repro.serve.protocol` — the length-prefixed JSON wire protocol
  (``acquire / renew / release / tick / stats / report / trace / drain /
  shutdown``) with request ids and typed error frames.
* :mod:`repro.serve.server` — :class:`LeaseServer`, an asyncio TCP +
  unix-socket server that owns one broker per resource shard and applies
  every frame on that broker in read order, on the one event loop, with
  one WAL commit per read chunk; :class:`ServerThread` hosts its loop
  for sync callers.
* :mod:`repro.serve.client` — :class:`AsyncLeaseClient` (pipelined)
  and the cluster's :class:`DirectLeaseClient` (route handshake, then
  mutations straight to the owning worker).
* :mod:`repro.serve.session` — per-tenant sessions: served counts and
  idle expiry.
* :mod:`repro.serve.loadgen` — closed-loop tenant workloads over unix
  sockets whose served aggregate is checked byte-identical against an
  inline replay of the merged trace; powers the ``serve-*`` scenario
  family and ``python -m repro engine {serve,loadgen}``.
"""

from .client import (
    AsyncLeaseClient,
    DirectLeaseClient,
    parse_worker_endpoint,
)
from .loadgen import (
    ServeInstance,
    build_serve_instance,
    compare_with_inline,
    drive_tenants,
    merge_shard_payloads,
    replay_applied,
    run_serve_instance,
    serve_once,
    verify_serve,
)
from .protocol import (
    CODEC_BIN,
    CODEC_JSON,
    CODECS,
    MAX_FRAME_BYTES,
    MAX_REQUEST_BYTES,
    OPS,
    PROTOCOL_VERSION,
    FrameDecoder,
    LeaseRetryError,
    ProtocolError,
    ServeError,
    encode_frame,
    negotiate_codec,
)
from .server import LeaseServer, ServerThread, shard_ranges
from .session import SessionRegistry, TenantSession

__all__ = [
    "AsyncLeaseClient",
    "CODEC_BIN",
    "CODEC_JSON",
    "CODECS",
    "DirectLeaseClient",
    "FrameDecoder",
    "LeaseRetryError",
    "LeaseServer",
    "MAX_FRAME_BYTES",
    "MAX_REQUEST_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeError",
    "ServeInstance",
    "ServerThread",
    "SessionRegistry",
    "TenantSession",
    "build_serve_instance",
    "compare_with_inline",
    "drive_tenants",
    "encode_frame",
    "merge_shard_payloads",
    "negotiate_codec",
    "parse_worker_endpoint",
    "replay_applied",
    "run_serve_instance",
    "serve_once",
    "shard_ranges",
    "verify_serve",
]
