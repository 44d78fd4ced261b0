"""A deliberately small asyncio HTTP/1.1 server for the ops plane.

The admin plane needs exactly enough HTTP to be curl-able and
scrape-able: parse a request (method, path, query, headers, optional
body), hand it to a handler, write a response.  Connections are
keep-alive by default (HTTP/1.1 semantics), so a scraper polling
``/metrics`` at 4 Hz reuses one socket instead of churning through the
accept path — but each connection serves at most
:data:`MAX_REQUESTS_PER_CONNECTION` requests before the server closes
it, and each request must arrive within :data:`REQUEST_READ_TIMEOUT`,
which bounds how long any single peer can pin a connection open.  A
client that sends ``Connection: close``, a parse error, or a cleanly
closed stream all end the loop early.  Nothing here touches the lease
wire protocol — the admin plane is a separate listener mounted *beside*
the lease listener, never in front of it.

Stdlib only, by constraint and by design: the whole point of the ops
plane is that an operator can hit it with ``curl`` against a process
that has no dependencies beyond CPython.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

#: Ceilings that keep a malformed or hostile peer from ballooning memory.
MAX_REQUEST_LINE = 8192
MAX_HEADER_LINES = 64
MAX_BODY_BYTES = 1 << 20
# A longer digit string is out of range without converting it (int()
# refuses strings past sys.get_int_max_str_digits()).
_MAX_LENGTH_DIGITS = len(str(MAX_BODY_BYTES))

#: Keep-alive bound: a connection serves at most this many requests.
MAX_REQUESTS_PER_CONNECTION = 32

#: Seconds a connection may take to deliver each request, idle
#: keep-alive gaps included; a peer that goes quiet is closed instead of
#: pinning a socket and a task on the serving loop.
REQUEST_READ_TIMEOUT = 30.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request that cannot be served; carries the status to send."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class HttpRequest:
    """One parsed request: the handler's entire view of the peer."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""


@dataclass
class HttpResponse:
    """One response: status plus a typed body."""

    status: int
    body: bytes
    content_type: str = "application/json"


def json_response(payload, status: int = 200) -> HttpResponse:
    body = json.dumps(payload, sort_keys=True, indent=2).encode("utf-8")
    return HttpResponse(status, body + b"\n", "application/json")


def text_response(
    text: str, status: int = 200, content_type: str = "text/plain; version=0.0.4"
) -> HttpResponse:
    return HttpResponse(status, text.encode("utf-8"), content_type)


async def _read_line(reader: asyncio.StreamReader) -> str:
    try:
        line = await reader.readline()
    except ValueError:
        # The line overran the stream's own buffer limit (64 KiB by
        # default) before a newline arrived.
        raise HttpError(400, "header line too long") from None
    if len(line) > MAX_REQUEST_LINE:
        raise HttpError(400, "header line too long")
    return line.decode("latin-1").rstrip("\r\n")


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one HTTP/1.1 request; ``None`` on a cleanly closed stream.

    Any bytes a peer sends end in a request, ``None``, an
    :class:`HttpError` or :class:`asyncio.IncompleteReadError` (the peer
    closed mid-body) — never another exception.
    """
    request_line = await _read_line(reader)
    if not request_line:
        return None
    parts = request_line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {request_line!r}")
    method, target, _version = parts
    try:
        split = urlsplit(target)
    except ValueError:
        # e.g. an unbalanced "[" in the authority: "Invalid IPv6 URL".
        raise HttpError(400, f"malformed request target: {target!r}") from None
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES):
        line = await _read_line(reader)
        if not line:
            break
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(400, "too many header lines")
    body = b""
    length = headers.get("content-length")
    if length is not None:
        # ASCII digits only: int() would also take "+10", "1_0" and
        # other scripts' digits.
        if not (length.isascii() and length.isdigit()):
            raise HttpError(400, f"bad content-length: {length!r}")
        if len(length) > _MAX_LENGTH_DIGITS or int(length) > MAX_BODY_BYTES:
            raise HttpError(400, f"content-length out of range: {length}")
        body = await reader.readexactly(int(length))
    return HttpRequest(
        method=method.upper(),
        path=unquote(split.path),
        query=query,
        headers=headers,
        body=body,
    )


def _encode_response(
    response: HttpResponse, *, keep_alive: bool = False
) -> bytes:
    reason = _REASONS.get(response.status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {response.status} {reason}\r\n"
        f"Content-Type: {response.content_type}\r\n"
        f"Content-Length: {len(response.body)}\r\n"
        f"Connection: {connection}\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + response.body


class HttpServer:
    """Keep-alive asyncio HTTP listener with a per-connection request cap.

    ``handler`` is an async callable ``(HttpRequest) -> HttpResponse``;
    raising :class:`HttpError` maps to a JSON error body with that
    status, anything else maps to a 500 naming the exception type.
    """

    def __init__(self, handler):
        self._handler = handler
        self._server: asyncio.base_events.Server | None = None

    @property
    def port(self) -> int | None:
        if self._server is None:
            return None
        return self._server.sockets[0].getsockname()[1]

    async def start_tcp(self, host: str = "127.0.0.1", port: int = 0) -> int:
        self._server = await asyncio.start_server(
            self._serve_connection, host=host, port=port
        )
        return self.port

    async def close(self) -> None:
        if self._server is None:
            return
        self._server.close()
        try:
            await self._server.wait_closed()
        except Exception:
            pass
        self._server = None

    async def _serve_connection(self, reader, writer) -> None:
        try:
            await self._serve_requests(reader, writer)
        except asyncio.CancelledError:
            # Teardown cancelled us mid-request (e.g. a /profile capture
            # still sleeping); the connection is closed below either way.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def _serve_requests(self, reader, writer) -> None:
        for served in range(MAX_REQUESTS_PER_CONNECTION):
            keep_alive = served + 1 < MAX_REQUESTS_PER_CONNECTION
            try:
                # wait_for, not asyncio.timeout: the package supports 3.10.
                request = await asyncio.wait_for(
                    read_request(reader), REQUEST_READ_TIMEOUT
                )
            except HttpError as exc:
                # After a parse error the stream position is undefined;
                # answer and drop the connection.
                request = None
                keep_alive = False
                response = json_response(
                    {"error": exc.message}, status=exc.status
                )
            except (
                asyncio.IncompleteReadError, asyncio.TimeoutError,
                ConnectionError,
            ):
                return
            else:
                if request is None:
                    return
                if request.headers.get("connection", "").lower() == "close":
                    keep_alive = False
                try:
                    response = await self._handler(request)
                except HttpError as exc:
                    # A handler error (404, 400 on a bad param) answers
                    # a fully parsed request — the stream is intact, so
                    # the connection stays reusable.
                    response = json_response(
                        {"error": exc.message}, status=exc.status
                    )
                except Exception as exc:  # pragma: no cover - defensive
                    response = json_response(
                        {"error": f"{type(exc).__name__}: {exc}"},
                        status=500,
                    )
            try:
                writer.write(
                    _encode_response(response, keep_alive=keep_alive)
                )
                await writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                return
            if not keep_alive:
                return
