"""Client behaviour: sync calls over a threaded server, pipelining,
reconnect across a server restart, deadlines and retry budgets as typed
errors, and codec negotiation."""

import contextlib
import os
import socket as socketlib
import threading
import time

import pytest

from repro.core import LeaseSchedule
from repro.serve import (
    LeaseClient,
    LeaseRetryError,
    LeaseServer,
    LeaseTimeoutError,
    ServeError,
    ServerThread,
)

SCHEDULE = LeaseSchedule.power_of_two(4, cost_growth=2.0)


def _server() -> LeaseServer:
    return LeaseServer(SCHEDULE, num_resources=8, num_shards=4, record=True)


@contextlib.contextmanager
def _silent_server(sock_path):
    """A unix listener that accepts connections and never responds."""
    listener = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    listener.bind(sock_path)
    listener.listen(4)
    accepted: list[socketlib.socket] = []

    def accept_loop():
        try:
            while True:
                conn, _ = listener.accept()
                accepted.append(conn)
        except OSError:
            pass

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    try:
        yield
    finally:
        listener.close()
        for conn in accepted:
            try:
                conn.close()
            except OSError:
                pass
        thread.join(timeout=2)


class TestSyncClient:
    def test_basic_ops_over_a_threaded_server(self, sock_path):
        thread = ServerThread(_server(), unix_path=sock_path).start()
        try:
            with LeaseClient(path=sock_path) as client:
                hello = client.hello()
                assert hello["protocol"] >= 1
                grant = client.acquire("t", 2, 0)["grant"]
                assert grant["resource"] == 2
                assert client.release("t", 2, 0)["grant"]["released_at"] == 0
                assert client.stats()["sessions"]["tenants"] == 1
        finally:
            thread.stop()

    def test_pipeline_matches_responses_by_id(self, sock_path):
        thread = ServerThread(_server(), unix_path=sock_path).start()
        try:
            with LeaseClient(path=sock_path) as client:
                results = client.pipeline(
                    [
                        ("acquire", {"tenant": f"t{n}", "resource": n, "time": 0})
                        for n in range(6)
                    ]
                )
                assert [r["grant"]["resource"] for r in results] == list(range(6))
        finally:
            thread.stop()

    def test_pipeline_reports_per_request_errors(self, sock_path):
        thread = ServerThread(_server(), unix_path=sock_path).start()
        try:
            with LeaseClient(path=sock_path) as client:
                good, bad = client.pipeline(
                    [
                        ("acquire", {"tenant": "t", "resource": 1, "time": 0}),
                        ("acquire", {"tenant": "t", "resource": 999, "time": 0}),
                    ]
                )
                assert good["grant"]["resource"] == 1
                assert isinstance(bad, ServeError) and bad.kind == "protocol"
        finally:
            thread.stop()

    def test_reconnect_after_server_restart(self, sock_path):
        first = ServerThread(_server(), unix_path=sock_path).start()
        client = LeaseClient(path=sock_path, reconnect=True).connect()
        try:
            assert client.acquire("t", 0, 0)["grant"]["resource"] == 0
            first.stop()
            with contextlib.suppress(FileNotFoundError):
                os.unlink(sock_path)
            second = ServerThread(_server(), unix_path=sock_path).start()
            try:
                # The old socket is dead; the call redials and resends.
                grant = client.acquire("t", 1, 5)["grant"]
                assert grant["resource"] == 1
                # The restarted server is a fresh broker: grant ids reset.
                assert grant["grant_id"] == 1
            finally:
                second.stop()
        finally:
            client.close()

    def test_no_reconnect_raises_on_dead_server(self, sock_path):
        thread = ServerThread(_server(), unix_path=sock_path).start()
        client = LeaseClient(
            path=sock_path, reconnect=False, connect_timeout=0.2
        ).connect()
        try:
            client.acquire("t", 0, 0)
            thread.stop()
            with pytest.raises((ConnectionError, OSError)):
                client.acquire("t", 1, 1)
        finally:
            client.close()

    def test_needs_exactly_one_address(self):
        with pytest.raises(Exception):
            LeaseClient()
        with pytest.raises(Exception):
            LeaseClient(path="/tmp/x.sock", host="localhost", port=1)


class TestDeadlines:
    def test_deadline_raises_typed_timeout_against_a_silent_server(
        self, sock_path
    ):
        with _silent_server(sock_path):
            client = LeaseClient(path=sock_path, reconnect=False).connect()
            try:
                start = time.monotonic()
                with pytest.raises(LeaseTimeoutError):
                    client.acquire("t", 0, 0, deadline=0.25)
                elapsed = time.monotonic() - start
                assert 0.2 <= elapsed < 5.0
                # The connection was abandoned: a late response cannot
                # desync a future call's stream.
                assert client._sock is None
            finally:
                client.close()

    def test_pipeline_deadline_covers_the_whole_batch(self, sock_path):
        with _silent_server(sock_path):
            client = LeaseClient(path=sock_path, reconnect=False).connect()
            try:
                with pytest.raises(LeaseTimeoutError):
                    client.pipeline(
                        [
                            ("acquire", {"tenant": "t", "resource": 0, "time": 0}),
                            ("tick", {"time": 1}),
                        ],
                        deadline=0.25,
                    )
            finally:
                client.close()

    def test_default_deadline_from_the_constructor(self, sock_path):
        with _silent_server(sock_path):
            client = LeaseClient(
                path=sock_path, reconnect=False, deadline=0.25
            ).connect()
            try:
                with pytest.raises(LeaseTimeoutError):
                    client.tick(0)
            finally:
                client.close()

    def test_deadline_met_by_a_live_server_is_harmless(self, sock_path):
        thread = ServerThread(_server(), unix_path=sock_path).start()
        try:
            with LeaseClient(path=sock_path) as client:
                grant = client.acquire("t", 1, 0, deadline=5.0)
                assert grant["grant"]["resource"] == 1
        finally:
            thread.stop()


class TestRetryBudget:
    def test_budget_exhaustion_raises_typed_error(self, sock_path):
        thread = ServerThread(_server(), unix_path=sock_path).start()
        client = LeaseClient(
            path=sock_path, retry_budget=2, connect_timeout=0.3
        ).connect()
        try:
            assert client.acquire("t", 0, 0)["grant"]["resource"] == 0
            thread.stop()
            with contextlib.suppress(FileNotFoundError):
                os.unlink(sock_path)
            with pytest.raises(LeaseRetryError) as err:
                client.acquire("t", 1, 1)
            assert err.value.attempts >= 1
        finally:
            client.close()

    def test_negative_budget_rejected(self):
        with pytest.raises(Exception):
            LeaseClient(path="/tmp/x.sock", retry_budget=-1)


class TestSyncCodec:
    def test_binary_codec_negotiated_and_renegotiated_after_redial(
        self, sock_path
    ):
        first = ServerThread(_server(), unix_path=sock_path).start()
        client = LeaseClient(path=sock_path, codec="bin").connect()
        try:
            assert client.codec == "bin"
            assert client.acquire("t", 0, 0)["grant"]["resource"] == 0
            first.stop()
            with contextlib.suppress(FileNotFoundError):
                os.unlink(sock_path)
            second = ServerThread(_server(), unix_path=sock_path).start()
            try:
                # Redial renegotiates: the call survives the restart and
                # the upgraded codec survives with it.
                assert client.acquire("t", 1, 2)["grant"]["resource"] == 1
                assert client.codec == "bin"
            finally:
                second.stop()
        finally:
            client.close()


@contextlib.contextmanager
def _resetting_server(sock_path):
    """A unix listener that accepts each connection and closes it at once
    — every call sees its connection reset mid-stream."""
    listener = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    listener.bind(sock_path)
    listener.listen(8)

    def accept_loop():
        try:
            while True:
                conn, _ = listener.accept()
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


class TestConnectionReset:
    def test_pipeline_reset_mid_batch_raises_and_never_resends(
        self, sock_path
    ):
        """A batch that dies mid-flight must raise the transport error —
        pipeline() has no resend path even on a reconnecting client, so
        a reset cannot silently double-apply half a batch."""
        with _resetting_server(sock_path):
            client = LeaseClient(path=sock_path, reconnect=True).connect()
            try:
                with pytest.raises((ConnectionError, OSError)):
                    client.pipeline(
                        [
                            ("acquire", {"tenant": "t", "resource": 0, "time": 0}),
                            ("tick", {"time": 1}),
                        ]
                    )
            finally:
                client.close()

    def test_repeated_resets_exhaust_budget_as_typed_error(self, sock_path):
        """Every redial lands on a server that resets again: the retry
        budget drains and the caller gets LeaseRetryError carrying the
        true attempt count, not a raw socket exception."""
        with _resetting_server(sock_path):
            client = LeaseClient(
                path=sock_path, reconnect=True, retry_budget=2,
                connect_timeout=1.0,
            ).connect()
            try:
                with pytest.raises(LeaseRetryError) as err:
                    client.acquire("t", 0, 0)
                assert err.value.attempts == 3  # first try + 2 retries
                # Initial dial plus one per retry, at least.
                assert client.connect_attempts >= 3
            finally:
                client.close()

    def test_timeout_after_reset_still_typed(self, sock_path):
        """A reset followed by a silent redial target ends in the typed
        deadline error, not a bare socket.timeout: the mid-pipeline
        failure modes stay distinguishable to callers."""
        thread = ServerThread(_server(), unix_path=sock_path).start()
        client = LeaseClient(
            path=sock_path, reconnect=True, retry_budget=2,
            connect_timeout=1.0, deadline=0.25,
        ).connect()
        try:
            assert client.acquire("t", 0, 0)["grant"]["resource"] == 0
            thread.stop()
            with contextlib.suppress(FileNotFoundError):
                os.unlink(sock_path)
            with _silent_server(sock_path):
                # Dead conn -> redial succeeds -> resend -> silence.
                with pytest.raises(LeaseTimeoutError):
                    client.acquire("t", 1, 1)
        finally:
            client.close()

    def test_dialing_a_slow_starter_spends_backoff_attempts(self, sock_path):
        """connect() keeps redialing with jittered backoff while the
        server is still coming up, and surfaces the spent attempts."""
        thread_box = {}

        def late_start():
            time.sleep(0.4)
            thread_box["server"] = ServerThread(
                _server(), unix_path=sock_path
            ).start()

        starter = threading.Thread(target=late_start)
        starter.start()
        client = LeaseClient(path=sock_path, connect_timeout=10.0)
        try:
            client.connect()
            assert client.acquire("t", 0, 0)["grant"]["resource"] == 0
            assert client.connect_attempts >= 2
        finally:
            client.close()
            starter.join(timeout=5)
            if "server" in thread_box:
                thread_box["server"].stop()
