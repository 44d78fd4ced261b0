"""Client behaviour beside the server tests: ops and batches against a
server hosted on its own thread, dialing a server that is still starting,
a batch cut off by a connection reset, and a call after a TCP hang-up."""

import asyncio
import contextlib
import gc
import socket as socketlib
import threading
import time

import pytest

from repro.core import LeaseSchedule
from repro.serve import AsyncLeaseClient, LeaseServer, ServeError, ServerThread
from repro.serve.protocol import ok, read_frame, write_frame

SCHEDULE = LeaseSchedule.power_of_two(4, cost_growth=2.0)


def _server() -> LeaseServer:
    return LeaseServer(SCHEDULE, num_resources=8, num_shards=4, record=True)


@contextlib.contextmanager
def _resetting_server(sock_path):
    """A unix listener that accepts each connection, reads the start of
    the first request and closes with the rest unread — every call sees
    its connection reset mid-stream."""
    listener = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    listener.bind(sock_path)
    listener.listen(8)

    def accept_loop():
        try:
            while True:
                conn, _ = listener.accept()
                conn.recv(1)
                conn.close()
        except OSError:
            pass

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    try:
        yield
    finally:
        listener.close()
        thread.join(timeout=2)


class TestAsyncClient:
    def test_basic_ops_over_a_threaded_server(self, sock_path):
        thread = ServerThread(_server(), unix_path=sock_path).start()

        async def main():
            client = await AsyncLeaseClient.open_unix(sock_path)
            try:
                hello = await client.hello()
                grant = (await client.acquire("t", 2, 0))["grant"]
                released = (await client.release("t", 2, 0))["grant"]
                stats = await client.stats()
            finally:
                await client.close()
            return hello, grant, released, stats

        try:
            hello, grant, released, stats = asyncio.run(main())
        finally:
            thread.stop()
        assert hello["protocol"] >= 1
        assert grant["resource"] == 2
        assert released["released_at"] == 0
        assert stats["sessions"]["tenants"] == 1

    def test_call_batch_matches_responses_by_id(self, sock_path):
        thread = ServerThread(_server(), unix_path=sock_path).start()

        async def main():
            client = await AsyncLeaseClient.open_unix(sock_path)
            try:
                return await client.call_batch(
                    [
                        ("acquire", {"tenant": f"t{n}", "resource": n, "time": 0})
                        for n in range(6)
                    ]
                )
            finally:
                await client.close()

        try:
            results = asyncio.run(main())
        finally:
            thread.stop()
        assert [r["grant"]["resource"] for r in results] == list(range(6))

    def test_call_batch_reports_per_request_errors(self, sock_path):
        thread = ServerThread(_server(), unix_path=sock_path).start()

        async def main():
            client = await AsyncLeaseClient.open_unix(sock_path)
            try:
                return await client.call_batch(
                    [
                        ("acquire", {"tenant": "t", "resource": 1, "time": 0}),
                        ("acquire", {"tenant": "t", "resource": 999, "time": 0}),
                    ]
                )
            finally:
                await client.close()

        try:
            good, bad = asyncio.run(main())
        finally:
            thread.stop()
        assert good["grant"]["resource"] == 1
        assert isinstance(bad, ServeError) and bad.kind == "protocol"

    def test_open_waits_for_a_slow_starter(self, sock_path):
        """open_unix keeps redialing with jittered backoff while the
        server is still coming up, within its ``retry_for`` window."""
        thread_box = {}

        def late_start():
            time.sleep(0.4)
            thread_box["server"] = ServerThread(
                _server(), unix_path=sock_path
            ).start()

        async def main():
            client = await AsyncLeaseClient.open_unix(
                sock_path, retry_for=10.0
            )
            try:
                return await client.acquire("t", 0, 0)
            finally:
                await client.close()

        starter = threading.Thread(target=late_start)
        starter.start()
        try:
            grant = asyncio.run(main())
        finally:
            starter.join(timeout=5)
            if "server" in thread_box:
                thread_box["server"].stop()
        assert grant["grant"]["resource"] == 0

    def test_call_batch_reset_mid_batch_raises(self, sock_path):
        """A batch whose connection dies mid-flight raises the transport
        error for the caller to handle — there is no resend path, so a
        reset cannot silently double-apply half a batch — and leaves no
        future whose exception was never retrieved."""

        reported = []

        async def main():
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: reported.append(context)
            )
            client = await AsyncLeaseClient.open_unix(sock_path)
            try:
                await client.call_batch(
                    [
                        ("acquire", {"tenant": "t", "resource": 0, "time": 0}),
                        ("acquire", {"tenant": "u", "resource": 1, "time": 0}),
                        ("tick", {"time": 1}),
                    ]
                )
            except (ConnectionError, OSError):
                return True
            finally:
                await client.close()
            return False

        with _resetting_server(sock_path):
            raised = asyncio.run(main())
        # An unretrieved future reports through its loop's handler when
        # it is collected.
        gc.collect()
        assert raised
        assert [
            context for context in reported
            if "never retrieved" in context.get("message", "")
        ] == []

    def test_call_after_a_tcp_hang_up_fails_fast(self):
        """Over TCP a write after the peer's FIN still succeeds, so a
        call made once the reader has seen EOF must raise rather than
        wait for an answer that cannot come."""

        async def main():
            hung_up = asyncio.Event()

            async def answer_once(reader, writer):
                payload = await read_frame(reader)
                await write_frame(writer, ok(payload["id"], {}))
                writer.close()
                await writer.wait_closed()
                hung_up.set()

            server = await asyncio.start_server(answer_once, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await AsyncLeaseClient.open_tcp("127.0.0.1", port)
            try:
                await client.stats()
                await hung_up.wait()
                await asyncio.sleep(0.05)  # let the FIN reach the reader
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(client.stats(), timeout=5.0)
            finally:
                await client.close()
                server.close()

        asyncio.run(main())
