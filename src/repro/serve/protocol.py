"""Length-prefixed wire protocol for the lease-serving front end.

One *frame* is a 4-byte big-endian header followed by a payload body.
The header's low 31 bits carry the body length; the high bit selects the
*codec* the body was encoded with — clear for UTF-8 JSON (the PR 3
format, unchanged on the wire), set for the compact binary codec below.
Every decoder accepts both codecs on the same stream, frame by frame, so
codec choice is purely a question of what a sender *emits*: peers
negotiate it at ``hello`` (``codec="bin"`` requested and echoed), and a
peer that never negotiates keeps speaking JSON against any server.

Bodies encode a single object.  Requests are envelopes ``{"id": <int>,
"op": <str>, ...fields}``; responses echo the id as either an *ok frame*
``{"id": n, "ok": true, "result": {...}}`` or an *error frame* ``{"id":
n, "ok": false, "error": {"kind": ..., "message": ...}}``.  Ids are
chosen by the client and only need to be unique among its in-flight
requests — they are what make pipelining possible: a client may write
many request frames before reading any response and match responses back
by id, in whatever order the server finishes them.

The binary codec is shape-special-cased, not a general serializer: the
hot mutation envelopes (acquire/renew/release/tick requests, grant and
applied-time ok responses) pack into fixed ``struct`` layouts — one pack
call instead of JSON string assembly — and *everything else* (control
ops, error frames, any payload outside the fast shapes or outside u64
ranges) rides as JSON bytes inside a binary frame.  Decoding a binary
body therefore reproduces exactly the dict the JSON codec would have
carried, which is the property the codec tests pin down.

The op surface mirrors the broker service plus serving control:

========== ============================================================
op         meaning
========== ============================================================
hello      server identity, protocol version, shard/schedule config
acquire    grant ``tenant`` the ``resource`` from day ``time``
renew      extend the tenant's running grant through day ``time``
release    close the tenant's grant (no-op if none is live)
tick       advance every shard's clock (expire grants), serve nothing
stats      per-shard broker counters plus session registry snapshot
report     per-shard aggregate run payloads (cost, leases, stats)
trace      per-shard applied event logs (requires server recording)
metrics    Prometheus text exposition of the whole process (ops plane)
leases     live lease book: every active grant, folded across shards
spans      live trace spans from the process's sink (optionally one
           trace id); the router federates it across the fleet
drain      stop admitting new acquires; renews/releases still served
undrain    resume admitting acquires after a drain
shutdown   acknowledge, then stop the server
========== ============================================================

Mutation envelopes may carry an optional **trace context** — a
``"trace"`` field of the form ``"<trace-id>-<span-id>"``, two
16-hex-digit u64s (W3C traceparent, shrunk to the two words this
system needs).  The JSON codec carries it as a plain extra field; the
binary codec reserves the high bit of the opcode byte and appends the
two words as a fixed trailer.  Peers advertise trace support at
``hello`` (``"trace": true`` in the result), and a client only attaches
the field after seeing the advertisement, so old peers interop
unchanged.

Error *kinds* partition who misbehaved: ``protocol`` (malformed frame or
request), ``model`` (the broker rejected the operation), ``draining``
(acquire after drain), ``backpressure`` (a recovering cluster worker's
queue of held router calls is full), ``unavailable`` (trace requested without
recording, server stopped, or a WAL commit failed).

Everything here is transport-agnostic pure bytes plus thin asyncio
adapters, so the server, the router and the clients all speak through
one encoder.
"""

from __future__ import annotations

import json
import struct
from typing import Any

from ..errors import ModelError

#: Shared encoder for frame bodies.  ``json.dumps`` with non-default
#: ``separators`` builds a fresh ``JSONEncoder`` per call; this is the
#: per-frame hot path, so cache one.
_JSON_ENCODE = json.JSONEncoder(separators=(",", ":")).encode

PROTOCOL_VERSION = 2

#: Frame header: 4-byte big-endian word — low 31 bits payload size, high
#: bit set when the body uses the binary codec instead of JSON.
HEADER = struct.Struct(">I")

#: High header bit: the body is binary-codec, not JSON.
BIN_FLAG = 0x8000_0000
_LENGTH_MASK = BIN_FLAG - 1

#: Hard ceiling on one frame's payload — a report frame carrying every
#: lease of a smoke-sized run fits with orders of magnitude to spare; a
#: corrupt or hostile length prefix does not get to allocate gigabytes.
#: Must stay below :data:`BIN_FLAG` so the codec bit is always free.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Ceiling on one *request* frame's payload, the bound a server's
#: decoder enforces on its peers.  Every request verb fits in well under
#: 1 KiB, so a header announcing more is refused before any of its body
#: is buffered: a peer cannot make the server hold more than this (plus
#: one header) per connection.
MAX_REQUEST_BYTES = 64 * 1024

#: Wire codecs a peer may emit; every receiver decodes both.
CODEC_JSON = "json"
CODEC_BIN = "bin"
CODECS: tuple[str, ...] = (CODEC_JSON, CODEC_BIN)


def negotiate_codec(requested: object) -> str:
    """The codec a ``hello`` negotiation settles on.

    Only a recognised explicit request for the binary codec upgrades the
    connection; anything else — absent, unknown, or malformed — falls
    back to JSON, so negotiation can never wedge a connection.
    """
    return CODEC_BIN if requested == CODEC_BIN else CODEC_JSON

OPS: tuple[str, ...] = (
    "hello",
    "route",
    "acquire",
    "renew",
    "release",
    "tick",
    "stats",
    "report",
    "trace",
    "metrics",
    "leases",
    "spans",
    "drain",
    "undrain",
    "shutdown",
)

#: Ops that mutate broker state (a tick mutates every shard).
MUTATION_OPS = frozenset({"acquire", "renew", "release", "tick"})

ERROR_KINDS: tuple[str, ...] = (
    "protocol",
    "model",
    "draining",
    "backpressure",
    "unavailable",
    "stale-route",
)


class ProtocolError(ModelError):
    """A frame or envelope violated the wire format."""


# ----------------------------------------------------------------------
# Trace context: "<trace-id>-<span-id>", two 16-hex-digit u64s
# ----------------------------------------------------------------------
_TRACE_LEN = 33  # 16 hex + "-" + 16 hex


def format_trace(trace_id: int, span_id: int) -> str:
    """Render a trace context field from its two u64 words."""
    return f"{trace_id:016x}-{span_id:016x}"


def parse_trace(value: object) -> tuple[int, int] | None:
    """``(trace_id, span_id)`` from a trace field; ``None`` if malformed.

    Malformed contexts are dropped, never fatal: tracing is observation,
    and a bad field must not take down the op that carried it.
    """
    if type(value) is not str or len(value) != _TRACE_LEN or value[16] != "-":
        return None
    try:
        trace_id = int(value[:16], 16)
        span_id = int(value[17:], 16)
    except ValueError:
        return None
    if trace_id < 0 or span_id < 0:
        return None
    return trace_id, span_id


class LeaseRetryError(ModelError):
    """A client gave up on one logical call after its recovery window.

    Raised by :class:`~repro.serve.client.DirectLeaseClient` when the
    owning worker stays gone past ``recover_for``; ``attempts`` counts
    how many times the request hit the wire.
    """

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


class ServeError(ModelError):
    """A serve-layer request failed; ``kind`` names the error class.

    Raised server-side to signal an error frame and re-raised client-side
    when an error frame comes back, so both ends of the wire see the same
    exception type with the same ``kind``/``message`` pair.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(f"[{kind}] {message}")
        self.kind = kind
        self.message = message


# ----------------------------------------------------------------------
# Binary body codec: fixed layouts for hot shapes, JSON bytes otherwise
# ----------------------------------------------------------------------
_BIN_KIND_JSON = 0      # JSON bytes of the whole payload
_BIN_KIND_MUTATION = 1  # mutation request envelope
_BIN_KIND_GRANT = 2     # ok response: {"grant": ..., "applied_time": ...}
_BIN_KIND_APPLIED = 3   # ok response: {"applied_time": ...}

#: kind, opcode, id, time, resource, tenant byte length (+ tenant bytes).
#: The opcode byte reserves its high bit (:data:`_TRACE_FLAG`): when
#: set, a :data:`_TRACE_STRUCT` trailer follows the tenant bytes.
_MUTATION_STRUCT = struct.Struct(">BBQQQH")
#: Trace-context trailer: trace id, span id (two u64 words).
_TRACE_STRUCT = struct.Struct(">QQ")
#: High opcode bit: the mutation body ends in a trace-context trailer.
_TRACE_FLAG = 0x80
#: kind, flags (bit0: grant present), id, applied_time.
_GRANT_HEAD_STRUCT = struct.Struct(">BBQQ")
#: grant_id, acquired_at, expires_at, released_at (-1 = None), resource,
#: tenant byte length (+ tenant bytes).
_GRANT_BODY_STRUCT = struct.Struct(">QQQqQH")
#: kind, id, applied_time.
_APPLIED_STRUCT = struct.Struct(">BQQ")

_MUTATION_OPCODES = {"acquire": 0, "renew": 1, "release": 2, "tick": 3}
_MUTATION_OP_NAMES = {code: op for op, code in _MUTATION_OPCODES.items()}

_U64_MAX = (1 << 64) - 1
_I64_MAX = (1 << 63) - 1

_MUTATION_KEYS = frozenset({"id", "op", "tenant", "resource", "time"})
_TICK_KEYS = frozenset({"id", "op", "time"})
_RESPONSE_KEYS = frozenset({"id", "ok", "result"})
_GRANT_RESULT_KEYS = frozenset({"grant", "applied_time"})
_GRANT_KEYS = frozenset(
    {"grant_id", "tenant", "resource", "acquired_at", "expires_at",
     "released_at"}
)


def _u64(value: object) -> bool:
    return type(value) is int and 0 <= value <= _U64_MAX


def _tenant_bytes(value: object) -> bytes | None:
    if type(value) is not str:
        return None
    try:
        raw = value.encode("utf-8")
    except UnicodeEncodeError:
        return None  # lone surrogates survive JSON escaping, not UTF-8
    return raw if len(raw) <= 0xFFFF else None


def _pack_mutation(payload: dict) -> bytes | None:
    op = payload.get("op")
    opcode = _MUTATION_OPCODES.get(op) if type(op) is str else None
    if opcode is None or not _u64(payload.get("id")):
        return None
    if not _u64(payload.get("time")):
        return None
    keys = payload.keys()
    trailer = b""
    if "trace" in keys:
        context = parse_trace(payload["trace"])
        if context is None or payload["trace"] != format_trace(*context):
            return None  # non-canonical context rides as JSON bytes
        trailer = _TRACE_STRUCT.pack(*context)
        opcode |= _TRACE_FLAG
        keys = keys - {"trace"}
    if op == "tick":
        if keys != _TICK_KEYS:
            return None
        return _MUTATION_STRUCT.pack(
            _BIN_KIND_MUTATION, opcode, payload["id"], payload["time"], 0, 0
        ) + trailer
    if keys != _MUTATION_KEYS or not _u64(payload.get("resource")):
        return None
    tenant = _tenant_bytes(payload.get("tenant"))
    if tenant is None:
        return None
    return _MUTATION_STRUCT.pack(
        _BIN_KIND_MUTATION, opcode, payload["id"], payload["time"],
        payload["resource"], len(tenant),
    ) + tenant + trailer


def _pack_grant(result: dict, request_id: int) -> bytes | None:
    grant = result.get("grant")
    if grant is None:
        return _GRANT_HEAD_STRUCT.pack(
            _BIN_KIND_GRANT, 0, request_id, result["applied_time"]
        )
    if not isinstance(grant, dict) or grant.keys() != _GRANT_KEYS:
        return None
    released = grant["released_at"]
    if released is None:
        released = -1
    elif not (type(released) is int and 0 <= released <= _I64_MAX):
        return None
    if not (
        _u64(grant["grant_id"])
        and _u64(grant["acquired_at"])
        and _u64(grant["expires_at"])
        and _u64(grant["resource"])
    ):
        return None
    tenant = _tenant_bytes(grant["tenant"])
    if tenant is None:
        return None
    return (
        _GRANT_HEAD_STRUCT.pack(
            _BIN_KIND_GRANT, 1, request_id, result["applied_time"]
        )
        + _GRANT_BODY_STRUCT.pack(
            grant["grant_id"], grant["acquired_at"], grant["expires_at"],
            released, grant["resource"], len(tenant),
        )
        + tenant
    )


def _pack_response(payload: dict) -> bytes | None:
    if payload.keys() != _RESPONSE_KEYS or payload.get("ok") is not True:
        return None
    if not _u64(payload.get("id")):
        return None
    result = payload.get("result")
    if not isinstance(result, dict) or not _u64(result.get("applied_time")):
        return None
    if result.keys() == {"applied_time"}:
        return _APPLIED_STRUCT.pack(
            _BIN_KIND_APPLIED, payload["id"], result["applied_time"]
        )
    if result.keys() == _GRANT_RESULT_KEYS:
        return _pack_grant(result, payload["id"])
    return None


def encode_body_bin(payload: dict) -> bytes:
    """Encode one payload with the binary codec.

    Hot shapes pack into fixed layouts; everything else becomes JSON
    bytes behind a kind tag, so *any* JSON-encodable payload has a
    binary encoding and ``decode_body_bin`` always reproduces exactly
    what the JSON codec would have carried.
    """
    packed = _pack_mutation(payload) or _pack_response(payload)
    if packed is not None:
        return packed
    body = _JSON_ENCODE(payload).encode("utf-8")
    return bytes([_BIN_KIND_JSON]) + body


def _exact_tail(body: bytes, offset: int, length: int) -> bytes:
    """The body's trailing string field, which must fill it exactly.

    A truncated or padded frame is corruption and must raise — slicing
    alone would silently shorten the field (e.g. apply a request under
    the wrong tenant name) instead of rejecting the frame.
    """
    if len(body) != offset + length:
        raise ProtocolError(
            f"binary frame length mismatch: {len(body)} bytes, "
            f"expected {offset + length}"
        )
    return body[offset:offset + length]


def decode_body_bin(body: bytes) -> dict:
    """Decode one binary-codec frame body back to its payload dict."""
    if not body:
        raise ProtocolError("empty binary frame body")
    kind = body[0]
    try:
        if kind == _BIN_KIND_JSON:
            return decode_body(body[1:])
        if kind == _BIN_KIND_MUTATION:
            (_, opcode, request_id, when, resource, tenant_len) = (
                _MUTATION_STRUCT.unpack_from(body)
            )
            trace = None
            if opcode & _TRACE_FLAG:
                # The trailer sits at the very end; strip it first so the
                # tenant field below still fills the body exactly.
                split = len(body) - _TRACE_STRUCT.size
                if split < _MUTATION_STRUCT.size:
                    raise ProtocolError("binary frame too short for trace")
                trace = format_trace(*_TRACE_STRUCT.unpack_from(body, split))
                body = body[:split]
                opcode &= ~_TRACE_FLAG
            op = _MUTATION_OP_NAMES[opcode]
            if op == "tick":
                payload = {"id": request_id, "op": op, "time": when}
            else:
                tenant = _exact_tail(
                    body, _MUTATION_STRUCT.size, tenant_len
                ).decode("utf-8")
                payload = {
                    "id": request_id, "op": op, "tenant": tenant,
                    "resource": resource, "time": when,
                }
            if trace is not None:
                payload["trace"] = trace
            return payload
        if kind == _BIN_KIND_GRANT:
            _, flags, request_id, applied = _GRANT_HEAD_STRUCT.unpack_from(body)
            if not flags & 1:
                return {
                    "id": request_id, "ok": True,
                    "result": {"grant": None, "applied_time": applied},
                }
            offset = _GRANT_HEAD_STRUCT.size
            (grant_id, acquired, expires, released, resource, tenant_len) = (
                _GRANT_BODY_STRUCT.unpack_from(body, offset)
            )
            offset += _GRANT_BODY_STRUCT.size
            tenant = _exact_tail(body, offset, tenant_len).decode("utf-8")
            return {
                "id": request_id,
                "ok": True,
                "result": {
                    "grant": {
                        "grant_id": grant_id,
                        "tenant": tenant,
                        "resource": resource,
                        "acquired_at": acquired,
                        "expires_at": expires,
                        "released_at": None if released < 0 else released,
                    },
                    "applied_time": applied,
                },
            }
        if kind == _BIN_KIND_APPLIED:
            _, request_id, applied = _APPLIED_STRUCT.unpack(body)
            return {
                "id": request_id, "ok": True,
                "result": {"applied_time": applied},
            }
    except (struct.error, KeyError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable binary frame: {exc}") from exc
    raise ProtocolError(f"unknown binary frame kind {kind}")


# ----------------------------------------------------------------------
# Pure frame encoding
# ----------------------------------------------------------------------
def encode_frame(payload: dict, codec: str = CODEC_JSON) -> bytes:
    """One wire frame: header plus body in the requested codec."""
    if codec == CODEC_BIN:
        body = encode_body_bin(payload)
        flag = BIN_FLAG
    else:
        body = _JSON_ENCODE(payload).encode("utf-8")
        flag = 0
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return HEADER.pack(len(body) | flag) + body


def decode_body(body: bytes) -> dict:
    """Decode one JSON frame body; the payload must be a JSON object."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and integers past the
        # interpreter's digit limit; RecursionError, nesting too deep.
        raise ProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _split_header(
    word: int, limit: int = MAX_FRAME_BYTES
) -> tuple[int, bool]:
    """Header word -> (payload length, binary-codec flag), bounds-checked."""
    length = word & _LENGTH_MASK
    if length > limit:
        raise ProtocolError(
            f"frame length {length} exceeds the {limit}-byte limit"
        )
    return length, bool(word & BIN_FLAG)


def _decode(body: bytes, binary: bool) -> dict:
    return decode_body_bin(body) if binary else decode_body(body)


class FrameDecoder:
    """Incremental frame reassembly for byte streams of any chunking.

    Feed it whatever the transport produced; it returns every complete
    frame payload and buffers the remainder.  ``max_frame`` caps one
    frame's payload: a header announcing more raises at once, so the
    buffer never holds more than one header plus ``max_frame`` bytes
    between feeds.  The server reads its peers through one of these
    (capped at :data:`MAX_REQUEST_BYTES`), and the tests use it to prove
    frames survive arbitrary fragmentation.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._limit = max_frame

    def feed(self, data: bytes) -> list[dict]:
        """Every frame ``data`` completes, in stream order.

        Raises :class:`ProtocolError` at the first malformed frame; the
        frames decoded before it in this call ride on the exception as
        ``frames``, and the decoder drops its buffer (the stream cannot
        be resynchronised past a bad frame).
        """
        buffer = self._buffer
        buffer += data
        frames: list[dict] = []
        offset = 0
        size = len(buffer)
        try:
            while size - offset >= HEADER.size:
                (word,) = HEADER.unpack_from(buffer, offset)
                length, binary = _split_header(word, self._limit)
                end = offset + HEADER.size + length
                if end > size:
                    break
                body = bytes(buffer[offset + HEADER.size:end])
                offset = end
                frames.append(_decode(body, binary))
        except ProtocolError as exc:
            buffer.clear()
            exc.frames = frames
            raise
        del buffer[:offset]
        return frames

    @property
    def pending_bytes(self) -> int:
        """Buffered bytes of the not-yet-complete next frame."""
        return len(self._buffer)


# ----------------------------------------------------------------------
# asyncio stream adapters
# ----------------------------------------------------------------------
async def read_frame(
    reader, bytes_counter=None, max_frame: int = MAX_FRAME_BYTES
) -> dict | None:
    """Read one frame from an asyncio stream; ``None`` on clean EOF.

    ``bytes_counter``, when given, receives ``.inc(n)`` with the frame's
    full wire size (header included) — the serve layer's bytes-in
    instrumentation hook, ``None`` (no call at all) when disabled.
    ``max_frame`` caps the payload as in :class:`FrameDecoder`: a header
    announcing more raises :class:`ProtocolError` before any of the body
    is read.  A body cut off by EOF raises
    :class:`asyncio.IncompleteReadError`.
    """
    try:
        # IncompleteReadError subclasses EOFError, so a half-frame EOF
        # lands here too and reads as a (slightly rude) disconnect.
        header = await reader.readexactly(HEADER.size)
    except (EOFError, ConnectionError, OSError):
        return None
    (word,) = HEADER.unpack(header)
    length, binary = _split_header(word, max_frame)
    body = await reader.readexactly(length)
    if bytes_counter is not None:
        bytes_counter.inc(HEADER.size + length)
    return _decode(body, binary)


async def write_frame(
    writer, payload: dict, codec: str = CODEC_JSON, bytes_counter=None
) -> None:
    """Write one frame to an asyncio stream and drain the transport.

    ``bytes_counter`` mirrors :func:`read_frame`'s hook on the way out.
    """
    frame = encode_frame(payload, codec)
    if bytes_counter is not None:
        bytes_counter.inc(len(frame))
    writer.write(frame)
    await writer.drain()


# ----------------------------------------------------------------------
# Envelope helpers
# ----------------------------------------------------------------------
def request(op: str, request_id: int, **fields: Any) -> dict:
    """A request envelope: id, op, and the op's fields."""
    payload = {"id": request_id, "op": op}
    payload.update(fields)
    return payload


def ok(request_id: Any, result: dict) -> dict:
    """An ok response frame for ``request_id``."""
    return {"id": request_id, "ok": True, "result": result}


def error(request_id: Any, kind: str, message: str) -> dict:
    """An error response frame for ``request_id``."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"kind": kind, "message": message},
    }


def parse_response(payload: dict) -> dict:
    """Extract a response's result, raising :class:`ServeError` on error frames."""
    if payload.get("ok"):
        result = payload.get("result")
        return result if isinstance(result, dict) else {}
    detail = payload.get("error") or {}
    raise ServeError(
        str(detail.get("kind", "protocol")),
        str(detail.get("message", "malformed error frame")),
    )
