"""The ops plane mounted on a real LeaseServer: every endpoint against
live broker state, force-release as a replayable durable event, and
readiness through drain and WAL recovery."""

import asyncio
import json

from repro.core import LeaseSchedule
from repro.obs import TraceSink
from repro.serve import (
    AsyncLeaseClient,
    LeaseServer,
    merge_shard_payloads,
    replay_applied,
)

SCHEDULE = LeaseSchedule.power_of_two(4, cost_growth=2.0)


async def _http(port: int, method: str, target: str):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"{method} {target} HTTP/1.1\r\nConnection: close\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body


async def _mounted(server, sock_path):
    """Start ``server`` with an AdminPlane beside it; returns the plane."""
    from repro.admin import AdminPlane

    await server.start_unix(sock_path)
    plane = AdminPlane(server)
    await plane.start_tcp()
    return plane


class TestReadSurface:
    def test_healthz_reports_state_and_tenant_sessions(self, sock_path):
        async def main():
            server = LeaseServer(SCHEDULE, num_resources=8, num_shards=2)
            plane = await _mounted(server, sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path)
            await client.acquire("t-0", 1, 0)
            status, body = await _http(plane.port, "GET", "/healthz")
            await client.close()
            await plane.close()
            await server.shutdown()
            return status, json.loads(body)

        status, health = asyncio.run(main())
        assert status == 200
        assert health["state"] == "serving"
        assert health["shards"] == 2
        assert health["wal"] is False
        tenants = {row["tenant"]: row for row in health["sessions"]}
        assert tenants["t-0"]["served"] == 1

    def test_metrics_endpoint_serves_a_parsable_exposition(self, sock_path):
        from repro.obs import MetricsRegistry, parse_exposition, \
            validate_exposition

        async def main():
            server = LeaseServer(
                SCHEDULE, num_resources=8, num_shards=2,
                metrics=MetricsRegistry(),
            )
            plane = await _mounted(server, sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path)
            await client.acquire("t-0", 1, 0)
            status, body = await _http(plane.port, "GET", "/metrics")
            await client.close()
            await plane.close()
            await server.shutdown()
            return status, body.decode()

        status, text = asyncio.run(main())
        assert status == 200
        assert validate_exposition(text) == []
        assert "broker_acquires_total" in parse_exposition(text)

    def test_readyz_tracks_drain_and_undrain(self, sock_path):
        async def main():
            server = LeaseServer(SCHEDULE, num_resources=8, num_shards=2)
            plane = await _mounted(server, sock_path)
            out = []
            out.append(await _http(plane.port, "GET", "/readyz"))
            out.append(await _http(plane.port, "POST", "/workers/0/drain"))
            out.append(await _http(plane.port, "GET", "/readyz"))
            out.append(await _http(plane.port, "POST", "/workers/0/undrain"))
            out.append(await _http(plane.port, "GET", "/readyz"))
            out.append(await _http(plane.port, "POST", "/workers/1/drain"))
            await plane.close()
            await server.shutdown()
            return out

        ready, drain, not_ready, undrain, ready_again, bad = asyncio.run(
            main()
        )
        assert ready[0] == 200
        assert json.loads(drain[1]) == {"worker": 0, "state": "draining"}
        assert not_ready[0] == 503
        assert json.loads(not_ready[1])["state"] == "draining"
        assert json.loads(undrain[1]) == {"worker": 0, "state": "serving"}
        assert ready_again[0] == 200
        assert bad[0] == 404  # a single server is worker 0, only

    def test_leases_book_filters_and_paginates(self, sock_path):
        async def main():
            server = LeaseServer(SCHEDULE, num_resources=8, num_shards=2)
            plane = await _mounted(server, sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path)
            for resource in range(4):
                await client.acquire(f"t-{resource % 2}", resource, 0)
            everything = await _http(plane.port, "GET", "/leases")
            filtered = await _http(
                plane.port, "GET", "/leases?tenant=t-1&resource=3"
            )
            page = await _http(plane.port, "GET", "/leases?offset=1&limit=2")
            await client.close()
            await plane.close()
            await server.shutdown()
            return everything, filtered, page

        everything, filtered, page = asyncio.run(main())
        book = json.loads(everything[1])
        assert book["total"] == 4
        assert [l["resource"] for l in book["leases"]] == [0, 1, 2, 3]
        assert all(":" in l["lease_id"] for l in book["leases"])
        hit = json.loads(filtered[1])
        assert hit["total"] == 1
        assert hit["leases"][0]["tenant"] == "t-1"
        sliced = json.loads(page[1])
        assert sliced["total"] == 4
        assert [l["resource"] for l in sliced["leases"]] == [1, 2]

    def test_trace_endpoint_serves_the_span_tree(self, sock_path, tmp_path):
        async def main():
            server = LeaseServer(
                SCHEDULE, num_resources=8, num_shards=2,
                trace=TraceSink(tmp_path / "server.jsonl"),
            )
            plane = await _mounted(server, sock_path)
            client = await AsyncLeaseClient.open_unix(
                sock_path, trace=TraceSink(tmp_path / "client.jsonl")
            )
            await client.acquire("t-0", 1, 0)
            # The trace id the client minted is on its last emitted span.
            client._trace_sink.flush()
            spans = [
                json.loads(line)
                for line in (tmp_path / "client.jsonl").read_text().splitlines()
            ]
            trace_id = spans[-1]["trace"]
            found = await _http(plane.port, "GET", f"/trace/{trace_id}")
            missing = await _http(plane.port, "GET", "/trace/" + "0" * 16)
            await client.close()
            await plane.close()
            await server.shutdown()
            return trace_id, found, missing

        trace_id, found, missing = asyncio.run(main())
        assert found[0] == 200
        payload = json.loads(found[1])
        assert payload["trace"] == trace_id
        # The server's sink alone holds the dispatch span (the client
        # hop lives in the client's file) — still a valid, queryable tree.
        assert payload["roots"][0]["kind"] == "dispatch"
        assert missing[0] == 404

    def test_trace_endpoint_404s_when_tracing_is_off(self, sock_path):
        async def main():
            server = LeaseServer(SCHEDULE, num_resources=8, num_shards=2)
            plane = await _mounted(server, sock_path)
            out = await _http(plane.port, "GET", "/trace/" + "a" * 16)
            await plane.close()
            await server.shutdown()
            return out

        status, _ = asyncio.run(main())
        assert status == 404


class TestLiveDebugging:
    def test_metrics_history_reports_windowed_counter_deltas(
        self, sock_path
    ):
        from repro.obs import MetricsHistory, MetricsRegistry

        async def main():
            registry = MetricsRegistry()
            server = LeaseServer(
                SCHEDULE, num_resources=8, num_shards=2,
                metrics=registry,
                history=MetricsHistory(registry, interval=0.02),
            )
            plane = await _mounted(server, sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path)
            await client.acquire("t-0", 1, 0)
            # Let the sampler task take at least two snapshots either
            # side of the acquire above.
            while len(server.history) < 3:
                await asyncio.sleep(0.02)
            await client.acquire("t-0", 2, 1)
            await asyncio.sleep(0.05)
            everything = await _http(plane.port, "GET", "/metrics/history")
            filtered = await _http(
                plane.port, "GET",
                "/metrics/history?family=serve_bytes_in_total&window=60",
            )
            bad = await _http(
                plane.port, "GET", "/metrics/history?window=-3"
            )
            await client.close()
            await plane.close()
            await server.shutdown()
            return everything, filtered, bad

        everything, filtered, bad = asyncio.run(main())
        assert everything[0] == 200
        payload = json.loads(everything[1])
        assert payload["enabled"] is True
        assert payload["samples"] >= 3
        rows = payload["families"]["serve_bytes_in_total"]["series"]
        # The second acquire's request bytes arrived between samples.
        assert sum(row["delta"] for row in rows) > 0
        narrow = json.loads(filtered[1])
        assert list(narrow["families"]) == ["serve_bytes_in_total"]
        assert bad[0] == 400

    def test_profile_endpoint_captures_live_stacks(self, sock_path):
        async def main():
            server = LeaseServer(SCHEDULE, num_resources=8, num_shards=2)
            plane = await _mounted(server, sock_path)
            out = await _http(plane.port, "GET", "/profile?seconds=0.2")
            bad = await _http(plane.port, "GET", "/profile?seconds=nope")
            await plane.close()
            await server.shutdown()
            return out, bad

        out, bad = asyncio.run(main())
        assert out[0] == 200
        capture = json.loads(out[1])
        # The capture ran and stopped; the asyncio main thread was busy
        # sleeping out this very request, so stacks are never empty.
        assert capture["running"] is False
        assert capture["samples"] >= 1
        assert capture["stacks"]
        assert bad[0] == 400


class TestForceRelease:
    def test_release_lands_in_the_replayable_applied_trace(self, sock_path):
        """A forced release is a first-class event: the lease disappears
        from the book AND replaying the applied trace reproduces the
        served report byte for byte — admin mutations do not fork
        determinism."""

        async def main():
            server = LeaseServer(
                SCHEDULE, num_resources=8, num_shards=2, record=True
            )
            plane = await _mounted(server, sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path)
            for resource in range(4):
                await client.acquire("t-0", resource, 0)
            book = json.loads(
                (await _http(plane.port, "GET", "/leases?resource=2"))[1]
            )
            lease_id = book["leases"][0]["lease_id"]
            forced = await _http(
                plane.port, "POST", f"/leases/{lease_id}/force-release"
            )
            again = await _http(
                plane.port, "POST", f"/leases/{lease_id}/force-release"
            )
            after = json.loads(
                (await _http(plane.port, "GET", "/leases"))[1]
            )
            # Keep serving after the admin mutation, then compare
            # report vs replay of the recorded trace.
            await client.acquire("t-1", 2, 5)
            report = await client.report()
            trace = await client.trace()
            await client.close()
            await plane.close()
            await server.shutdown()
            return lease_id, forced, again, after, report, trace

        lease_id, forced, again, after, report, trace = asyncio.run(main())
        assert forced[0] == 200
        payload = json.loads(forced[1])
        assert payload["lease_id"] == lease_id
        assert payload["released"]["resource"] == 2
        assert "applied_time" in payload
        # Exactly-once at the book level: the second POST finds nothing.
        assert again[0] == 404
        assert lease_id not in {l["lease_id"] for l in after["leases"]}
        served = merge_shard_payloads(report["shards"])
        replayed = replay_applied(SCHEDULE, trace)
        assert served.cost == replayed.cost
        assert tuple(served.leases) == tuple(replayed.leases)
        assert served.detail["broker_stats"] == replayed.detail["broker_stats"]

    def test_forced_release_survives_wal_recovery(self, sock_path, tmp_path):
        """kill the process after a forced release (no graceful snapshot):
        recovery must replay the release — the lease stays gone."""
        wal_root = tmp_path / "wal"

        async def serve_and_force(sock):
            server = LeaseServer(
                SCHEDULE, num_resources=8, num_shards=2,
                wal_dir=wal_root, fsync="always",
            )
            plane = await _mounted(server, sock)
            client = await AsyncLeaseClient.open_unix(sock)
            await client.acquire("t-0", 1, 0)
            await client.acquire("t-0", 5, 0)
            book = json.loads(
                (await _http(plane.port, "GET", "/leases?resource=5"))[1]
            )
            forced = await _http(
                plane.port, "POST",
                f"/leases/{book['leases'][0]['lease_id']}/force-release",
            )
            assert forced[0] == 200
            await client.close()
            await plane.close()
            # Abandon without shutdown, as kill -9 would: no snapshot,
            # no final sync, only the kernel closing the log fds —
            # recovery must come entirely from the committed WAL.
            for shard in server._shards:
                shard.wal._handle.close()
            for listener in server._servers:
                listener.close()
                await listener.wait_closed()

        async def recover(sock):
            server = LeaseServer(
                SCHEDULE, num_resources=8, num_shards=2,
                wal_dir=wal_root, fsync="always",
            )
            plane = await _mounted(server, sock)
            ready = await _http(plane.port, "GET", "/readyz")
            health = await _http(plane.port, "GET", "/healthz")
            book = await _http(plane.port, "GET", "/leases")
            await plane.close()
            await server.shutdown()
            return ready, health, book

        asyncio.run(serve_and_force(sock_path))
        ready, health, book = asyncio.run(recover(sock_path + "2"))
        assert ready[0] == 200
        assert json.loads(health[1])["recovered_events"] >= 3
        leases = json.loads(book[1])["leases"]
        assert [l["resource"] for l in leases] == [1]
