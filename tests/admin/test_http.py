"""The minimal HTTP/1.1 layer: request parsing, limits, and the
bounded keep-alive server loop."""

import asyncio
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.admin.http import (
    MAX_BODY_BYTES,
    MAX_HEADER_LINES,
    MAX_REQUESTS_PER_CONNECTION,
    HttpError,
    HttpRequest,
    HttpServer,
    json_response,
    read_request,
    text_response,
)


def _parse(data: bytes) -> HttpRequest | None:
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(main())


class TestReadRequest:
    def test_parses_method_path_query_headers(self):
        request = _parse(
            b"GET /leases?tenant=t-0&limit=5 HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"Accept: */*\r\n"
            b"\r\n"
        )
        assert request.method == "GET"
        assert request.path == "/leases"
        assert request.query == {"tenant": "t-0", "limit": "5"}
        assert request.headers["host"] == "localhost"
        assert request.body == b""

    def test_percent_decodes_path_and_keeps_blank_query_values(self):
        request = _parse(b"GET /trace/ab%20cd?x= HTTP/1.1\r\n\r\n")
        assert request.path == "/trace/ab cd"
        assert request.query == {"x": ""}

    def test_reads_content_length_body(self):
        request = _parse(
            b"POST /leases/0:1/force-release HTTP/1.1\r\n"
            b"Content-Length: 4\r\n"
            b"\r\n"
            b"{}ok"
        )
        assert request.method == "POST"
        assert request.body == b"{}ok"

    def test_clean_close_returns_none(self):
        assert _parse(b"") is None

    def test_malformed_request_line_is_400(self):
        with pytest.raises(HttpError) as exc:
            _parse(b"GET /healthz\r\n\r\n")
        assert exc.value.status == 400

    def test_non_http_version_is_400(self):
        with pytest.raises(HttpError) as exc:
            _parse(b"GET /healthz SPDY/3\r\n\r\n")
        assert exc.value.status == 400

    def test_header_without_colon_is_400(self):
        with pytest.raises(HttpError) as exc:
            _parse(b"GET / HTTP/1.1\r\nbogus header\r\n\r\n")
        assert exc.value.status == 400

    def test_too_many_header_lines_is_400(self):
        flood = b"".join(
            b"x-h%d: v\r\n" % i for i in range(MAX_HEADER_LINES + 1)
        )
        with pytest.raises(HttpError) as exc:
            _parse(b"GET / HTTP/1.1\r\n" + flood + b"\r\n")
        assert exc.value.status == 400
        assert "too many" in exc.value.message

    def test_bad_content_length_is_400(self):
        with pytest.raises(HttpError) as exc:
            _parse(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n")
        assert exc.value.status == 400

    def test_oversized_content_length_is_400(self):
        huge = str(MAX_BODY_BYTES + 1).encode()
        with pytest.raises(HttpError) as exc:
            _parse(b"POST / HTTP/1.1\r\nContent-Length: " + huge + b"\r\n\r\n")
        assert exc.value.status == 400

    @pytest.mark.parametrize(
        "length",
        [
            b"1_0", b"+10", b"-0", b"\xb2",
            pytest.param(b"9" * 5000, id="5000-digits"),
        ],
    )
    def test_content_length_must_be_ascii_digits_in_range(self, length):
        with pytest.raises(HttpError) as exc:
            _parse(
                b"POST / HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n"
                + b"x" * 16
            )
        assert exc.value.status == 400

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=512))
    @example(b"GET //[ HTTP/1.1\r\n\r\n")
    @example(b"GET /" + b"a" * (1 << 17) + b" HTTP/1.1\r\n\r\n")
    @example(b"GET / HTTP/1.1\r\nx-big: " + b"v" * (1 << 17) + b"\r\n\r\n")
    @example(b"v" * (1 << 17))
    @example(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort")
    def test_any_bytes_yield_a_request_or_a_typed_error(self, data):
        """Whatever a peer sends, the parser answers with a request,
        ``None`` (clean close), a 400 :class:`HttpError`, or
        ``IncompleteReadError`` (the peer went away mid-body)."""
        try:
            request = _parse(data)
        except HttpError as exc:
            assert exc.status == 400
            return
        except asyncio.IncompleteReadError:
            return
        assert request is None or isinstance(request, HttpRequest)


class TestResponses:
    def test_json_response_is_sorted_and_newline_terminated(self):
        response = json_response({"b": 1, "a": 2})
        assert response.status == 200
        assert response.content_type == "application/json"
        assert response.body.endswith(b"\n")
        assert json.loads(response.body) == {"a": 2, "b": 1}
        assert response.body.index(b'"a"') < response.body.index(b'"b"')

    def test_text_response_defaults_to_prometheus_type(self):
        response = text_response("x_total 1\n")
        assert response.content_type.startswith("text/plain")
        assert response.body == b"x_total 1\n"


async def _raw_request(port: int, payload: bytes) -> tuple[int, bytes]:
    """One request, reading the response to EOF.

    The payload must either send ``Connection: close`` or be malformed
    (the server drops the connection after a parse error) — a keep-alive
    request would leave the read-to-EOF waiting forever.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body


async def _read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str], bytes]:
    """One framed response off a keep-alive connection."""
    status_line = await reader.readline()
    status = int(status_line.split(b" ", 2)[1])
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return status, headers, body


class TestHttpServer:
    def test_serves_one_request_then_closes(self):
        async def handler(request):
            return json_response({"path": request.path})

        async def main():
            server = HttpServer(handler)
            port = await server.start_tcp()
            try:
                return await _raw_request(
                    port,
                    b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
                )
            finally:
                await server.close()

        status, body = asyncio.run(main())
        assert status == 200
        assert json.loads(body) == {"path": "/healthz"}

    def test_handler_http_error_maps_to_json_error_body(self):
        async def handler(request):
            raise HttpError(404, "nope")

        async def main():
            server = HttpServer(handler)
            port = await server.start_tcp()
            try:
                return await _raw_request(
                    port, b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n"
                )
            finally:
                await server.close()

        status, body = asyncio.run(main())
        assert status == 404
        assert json.loads(body) == {"error": "nope"}

    def test_malformed_request_gets_400_not_a_hang(self):
        async def handler(request):  # pragma: no cover - never reached
            return json_response({})

        async def main():
            server = HttpServer(handler)
            port = await server.start_tcp()
            try:
                return await _raw_request(port, b"garbage\r\n\r\n")
            finally:
                await server.close()

        status, body = asyncio.run(main())
        assert status == 400
        assert "malformed" in json.loads(body)["error"]

    def test_unparseable_target_gets_400_on_the_wire(self):
        async def handler(request):  # pragma: no cover - never reached
            return json_response({})

        async def main():
            server = HttpServer(handler)
            port = await server.start_tcp()
            try:
                return await _raw_request(port, b"GET //[ HTTP/1.1\r\n\r\n")
            finally:
                await server.close()

        status, body = asyncio.run(main())
        assert status == 400
        assert "malformed request target" in json.loads(body)["error"]

    def test_port_is_none_until_started_and_after_close(self):
        async def handler(request):  # pragma: no cover
            return json_response({})

        async def main():
            server = HttpServer(handler)
            assert server.port is None
            port = await server.start_tcp()
            assert server.port == port
            await server.close()
            assert server.port is None

        asyncio.run(main())


class TestKeepAlive:
    def _run(self, main):
        async def wrapped():
            async def handler(request):
                if request.path == "/boom":
                    raise HttpError(404, "nope")
                return json_response({"path": request.path})

            server = HttpServer(handler)
            port = await server.start_tcp()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                try:
                    return await main(reader, writer)
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                await server.close()

        return asyncio.run(wrapped())

    def test_sequential_requests_reuse_one_connection(self):
        async def main(reader, writer):
            got = []
            for i in range(3):
                writer.write(b"GET /r%d HTTP/1.1\r\n\r\n" % i)
                await writer.drain()
                status, headers, body = await _read_response(reader)
                got.append(
                    (status, headers["connection"], json.loads(body)["path"])
                )
            return got

        assert self._run(main) == [
            (200, "keep-alive", f"/r{i}") for i in range(3)
        ]

    def test_handler_error_keeps_the_connection_alive(self):
        async def main(reader, writer):
            writer.write(b"GET /boom HTTP/1.1\r\n\r\n")
            await writer.drain()
            status, headers, _ = await _read_response(reader)
            assert (status, headers["connection"]) == (404, "keep-alive")
            writer.write(b"GET /after HTTP/1.1\r\n\r\n")
            await writer.drain()
            status, _, body = await _read_response(reader)
            return status, json.loads(body)

        assert self._run(main) == (200, {"path": "/after"})

    def test_connection_close_header_is_honored(self):
        async def main(reader, writer):
            writer.write(b"GET /one HTTP/1.1\r\nConnection: close\r\n\r\n")
            await writer.drain()
            status, headers, _ = await _read_response(reader)
            trailing = await reader.read(-1)
            return status, headers["connection"], trailing

        assert self._run(main) == (200, "close", b"")

    def test_request_cap_bounds_one_connection(self):
        async def main(reader, writer):
            connections = []
            for i in range(MAX_REQUESTS_PER_CONNECTION):
                writer.write(b"GET /n HTTP/1.1\r\n\r\n")
                await writer.drain()
                _, headers, _ = await _read_response(reader)
                connections.append(headers["connection"])
            trailing = await reader.read(-1)
            return connections, trailing

        connections, trailing = self._run(main)
        assert connections[:-1] == ["keep-alive"] * (
            MAX_REQUESTS_PER_CONNECTION - 1
        )
        assert connections[-1] == "close"
        assert trailing == b""

    def test_parse_error_answers_then_drops_the_connection(self):
        async def main(reader, writer):
            writer.write(b"garbage\r\n\r\n")
            await writer.drain()
            status, headers, body = await _read_response(reader)
            trailing = await reader.read(-1)
            return status, headers["connection"], json.loads(body), trailing

        status, connection, body, trailing = self._run(main)
        assert status == 400
        assert connection == "close"
        assert "malformed" in body["error"]
        assert trailing == b""

    def test_idle_peer_is_closed_and_its_task_ends(self, monkeypatch):
        """A peer that sends half a request line and stops is closed
        once the read deadline passes, and its serving task ends."""
        import repro.admin.http as http

        monkeypatch.setattr(http, "REQUEST_READ_TIMEOUT", 0.2)

        def serving_tasks():
            return [
                task for task in asyncio.all_tasks()
                if task.get_coro().__qualname__
                == "HttpServer._serve_connection"
            ]

        async def main(reader, writer):
            writer.write(b"GET /metr")
            await writer.drain()
            for _ in range(100):
                if serving_tasks():
                    break
                await asyncio.sleep(0.001)
            during = len(serving_tasks())
            trailing = await asyncio.wait_for(reader.read(-1), timeout=5.0)
            for _ in range(100):
                if not serving_tasks():
                    break
                await asyncio.sleep(0.01)
            return during, trailing, len(serving_tasks())

        during, trailing, after = self._run(main)
        assert during == 1
        assert trailing == b""
        assert after == 0
