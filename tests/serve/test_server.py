"""Server lifecycle: concurrent tenants vs the serialized trace, drain
semantics, clock ratcheting, shard routing, and shutdown."""

import asyncio

import pytest

from repro.core import LeaseSchedule
from repro.engine.events import Release, Tick, generate_resource_trace
from repro.serve import (
    AsyncLeaseClient,
    LeaseServer,
    ServeError,
    merge_shard_payloads,
    replay_applied,
    shard_ranges,
)

SCHEDULE = LeaseSchedule.power_of_two(4, cost_growth=2.0)


class TestShardRanges:
    def test_partition_is_disjoint_and_exhaustive(self):
        for resources, shards in [(8, 4), (10, 4), (7, 3), (5, 5), (9, 1)]:
            ranges = shard_ranges(resources, shards)
            covered = [r for lo, hi in ranges for r in range(lo, hi)]
            assert covered == list(range(resources))

    def test_more_shards_than_resources_rejected(self):
        with pytest.raises(Exception):
            shard_ranges(2, 3)

    def test_every_resource_routes_to_its_range(self):
        server = LeaseServer(SCHEDULE, num_resources=10, num_shards=4)
        for resource in range(10):
            shard = server._shard_of(resource)
            assert shard.lo <= resource < shard.hi


class TestInterleavedTenants:
    def test_one_socket_many_tenants_equals_serialized_trace(self, sock_path):
        """Free-running tenants pipelined over ONE connection: whatever
        the interleaving, the served totals must equal a fresh inline
        replay of the per-shard serialized (applied) traces."""
        events = generate_resource_trace(
            "markov", 64, seed=5, num_resources=8, tenants_per_resource=2
        )
        scripts: dict[str, list] = {}
        for event in events:
            if type(event) is Tick:
                continue
            scripts.setdefault(event.tenant, []).append(event)
        assert len(scripts) >= 8

        async def main():
            server = LeaseServer(
                SCHEDULE, num_resources=8, num_shards=4, record=True
            )
            await server.start_unix(sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path)

            async def tenant_loop(script):
                for event in script:
                    if type(event) is Release:
                        await client.release(
                            event.tenant, event.resource, event.time
                        )
                    else:
                        await client.acquire(
                            event.tenant, event.resource, event.time
                        )

            # No barrier: tenants race each other on one pipelined socket.
            await asyncio.gather(
                *(tenant_loop(script) for script in scripts.values())
            )
            report = await client.report()
            trace = await client.trace()
            await client.close()
            await server.shutdown()
            return report, trace

        report, trace = asyncio.run(main())
        served = merge_shard_payloads(report["shards"])
        replayed = replay_applied(SCHEDULE, trace)
        assert served.cost == replayed.cost
        assert tuple(served.leases) == tuple(replayed.leases)
        assert served.num_demands == replayed.num_demands
        assert served.detail["broker_stats"] == replayed.detail["broker_stats"]
        assert served.detail["num_active"] == replayed.detail["num_active"]

    def test_stale_times_ratchet_to_the_shard_clock(self, sock_path):
        async def main():
            server = LeaseServer(SCHEDULE, num_resources=2, num_shards=1)
            await server.start_unix(sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path)
            ahead = await client.acquire("fast", 0, 50)
            behind = await client.acquire("slow", 1, 10)  # older day
            await client.close()
            await server.shutdown()
            return ahead, behind

        ahead, behind = asyncio.run(main())
        assert ahead["applied_time"] == 50
        assert behind["applied_time"] == 50  # ratcheted, not rejected


class TestDrain:
    def test_drain_rejects_acquires_but_serves_renews_and_releases(
        self, sock_path
    ):
        async def main():
            server = LeaseServer(SCHEDULE, num_resources=4, num_shards=2)
            await server.start_unix(sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path)
            await client.acquire("t0", 0, 0)
            drained = await client.drain()
            assert drained["state"] == "draining"
            # Held grants complete their lifecycle during the drain
            # (same day: the day-0 grant is still live).
            renewed = await client.renew("t0", 0, 0)
            rejected = None
            try:
                await client.acquire("t1", 1, 0)
            except ServeError as exc:
                rejected = exc
            released = await client.release("t0", 0, 0)
            await client.close()
            await server.shutdown()
            return renewed, rejected, released

        renewed, rejected, released = asyncio.run(main())
        assert renewed["grant"]["tenant"] == "t0"
        assert rejected is not None and rejected.kind == "draining"
        assert released["grant"]["released_at"] == 0


class TestCodecNegotiation:
    def test_hello_upgrades_to_binary_and_serves_identically(self, sock_path):
        async def main():
            server = LeaseServer(SCHEDULE, num_resources=4, num_shards=2)
            await server.start_unix(sock_path)
            plain = await AsyncLeaseClient.open_unix(sock_path)
            binary = await AsyncLeaseClient.open_unix(sock_path, codec="bin")
            assert binary.codec == "bin"
            assert plain.codec == "json"
            hello = await binary.call("hello", codec="bin")
            a = await plain.acquire("t-json", 0, 3)
            b = await binary.acquire("t-bin", 1, 3)
            released = await binary.release("t-bin", 1, 3)
            ticked = await binary.tick(4)
            await plain.close()
            await binary.close()
            await server.shutdown()
            return hello, a, b, released, ticked

        hello, a, b, released, ticked = asyncio.run(main())
        assert hello["codec"] == "bin"
        # Same result shapes whichever codec carried them.
        assert a["grant"]["resource"] == 0 and b["grant"]["resource"] == 1
        assert released["grant"]["released_at"] == 3
        assert ticked["applied_time"] == 4

    def test_bare_hello_preserves_a_negotiated_codec(self, sock_path):
        """A hello without a codec field is introspection, not
        renegotiation — it must not silently downgrade the connection."""

        async def main():
            server = LeaseServer(SCHEDULE, num_resources=2, num_shards=1)
            await server.start_unix(sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path, codec="bin")
            bare = await client.hello()
            explicit_down = await client.call("hello", codec="json")
            await client.close()
            await server.shutdown()
            return bare, explicit_down

        bare, explicit_down = asyncio.run(main())
        assert bare["codec"] == "bin"  # untouched by the bare hello
        assert explicit_down["codec"] == "json"  # explicit requests act

    def test_unknown_codec_falls_back_to_json(self, sock_path):
        async def main():
            server = LeaseServer(SCHEDULE, num_resources=2, num_shards=1)
            await server.start_unix(sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path, codec="zstd")
            hello = await client.call("hello", codec="zstd")
            grant = await client.acquire("t", 0, 0)
            await client.close()
            await server.shutdown()
            return client.codec, hello, grant

        codec, hello, grant = asyncio.run(main())
        assert codec == "json"  # client refused to upgrade unconfirmed
        assert hello["codec"] == "json"  # server negotiated down
        assert grant["grant"]["resource"] == 0

    def test_call_batch_coalesces_and_matches_sequential(self, sock_path):
        async def main():
            server = LeaseServer(SCHEDULE, num_resources=8, num_shards=4)
            await server.start_unix(sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path, codec="bin")
            results = await client.call_batch(
                [
                    ("acquire", {"tenant": f"t{n}", "resource": n, "time": 0})
                    for n in range(6)
                ]
                + [("acquire", {"tenant": "t", "resource": 99, "time": 0})]
            )
            await client.close()
            await server.shutdown()
            return results

        results = asyncio.run(main())
        assert [r["grant"]["resource"] for r in results[:6]] == list(range(6))
        from repro.serve import ServeError as SE
        assert isinstance(results[6], SE) and results[6].kind == "protocol"


class TestDrainMidBatch:
    def test_drain_arriving_mid_pipelined_batch(self, sock_path):
        """A pipelined batch with drain in the middle: the drain ack and
        every post-drain acquire refusal are deterministic, releases are
        served regardless, and — the strong invariant — whatever subset
        of the batch was applied, the served totals equal an inline
        replay of the recorded (serialized) traces."""
        server = LeaseServer(
            SCHEDULE, num_resources=4, num_shards=2, record=True
        )

        async def main():
            await server.start_unix(sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path, codec="bin")
            held = await client.acquire("t0", 0, 0)
            assert held["grant"]["resource"] == 0
            batch = await client.call_batch(
                [
                    ("acquire", {"tenant": "t1", "resource": 1, "time": 0}),
                    ("release", {"tenant": "t0", "resource": 0, "time": 0}),
                    ("drain", {}),
                    ("acquire", {"tenant": "t2", "resource": 2, "time": 0}),
                    ("acquire", {"tenant": "t3", "resource": 3, "time": 0}),
                ]
            )
            report = await client.report()
            trace = await client.trace()
            await client.close()
            await server.shutdown()
            return batch, report, trace

        batch, report, trace = asyncio.run(main())
        first_acquire, release, drained, late_a, late_b = batch
        assert drained["state"] == "draining"
        # Releases complete the lifecycle of held grants during a drain.
        assert isinstance(release, dict)
        assert release["grant"]["released_at"] == 0
        # Acquires pipelined behind the drain are refused by it.
        for late in (late_a, late_b):
            assert isinstance(late, ServeError) and late.kind == "draining"
        # The acquire ahead of the drain raced it: served or refused,
        # but never lost — and the books must balance either way.
        assert isinstance(first_acquire, (dict, ServeError))
        served = merge_shard_payloads(report["shards"])
        replayed = replay_applied(SCHEDULE, trace)
        assert served.cost == replayed.cost
        assert tuple(served.leases) == tuple(replayed.leases)
        assert served.detail["broker_stats"] == replayed.detail["broker_stats"]


class TestWireValidation:
    def test_bad_fields_and_unknown_ops_get_error_frames(self, sock_path):
        async def main():
            server = LeaseServer(SCHEDULE, num_resources=4, num_shards=2)
            await server.start_unix(sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path)
            errors = {}
            for label, op, fields in [
                ("unknown-op", "gimme", {}),
                ("bad-time", "acquire", {"tenant": "t", "resource": 0, "time": -1}),
                ("bad-tenant", "acquire", {"tenant": "", "resource": 0, "time": 0}),
                ("bad-resource", "acquire", {"tenant": "t", "resource": 99, "time": 0}),
                ("no-recording", "trace", {}),
            ]:
                try:
                    await client.call(op, **fields)
                except ServeError as exc:
                    errors[label] = exc.kind
            renew_nothing = None
            try:
                await client.renew("ghost", 0, 5)
            except ServeError as exc:
                renew_nothing = exc
            await client.close()
            await server.shutdown()
            return errors, renew_nothing

        errors, renew_nothing = asyncio.run(main())
        assert errors["unknown-op"] == "protocol"
        assert errors["bad-time"] == "protocol"
        assert errors["bad-tenant"] == "protocol"
        assert errors["bad-resource"] == "protocol"
        assert errors["no-recording"] == "unavailable"
        # Broker-contract violations surface as model errors, not crashes.
        assert renew_nothing is not None and renew_nothing.kind == "model"


class TestLifecycle:
    def test_shutdown_op_stops_the_server(self, sock_path):
        async def main():
            server = LeaseServer(SCHEDULE, num_resources=2, num_shards=1)
            await server.start_unix(sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path)
            await client.acquire("t", 0, 0)
            result = await client.shutdown()
            await asyncio.wait_for(server.run_until_stopped(), timeout=5)
            await client.close()
            return result, server.state

        result, state = asyncio.run(main())
        assert result["state"] == "stopped"
        assert state == "stopped"

    def test_mutations_racing_shutdown_fail_cleanly(self, sock_path):
        """A mutation slipping past the state flip must get an error
        response, never a stranded future that deadlocks shutdown."""

        async def main():
            server = LeaseServer(SCHEDULE, num_resources=2, num_shards=1)
            await server.start_unix(sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path)
            await client.acquire("t", 0, 0)
            # Fire a burst of mutations and shut down while they fly.
            calls = [
                asyncio.ensure_future(client.release("t", 0, n))
                for n in range(4)
            ]
            await asyncio.wait_for(server.shutdown(), timeout=5)
            results = await asyncio.gather(*calls, return_exceptions=True)
            await client.close()
            return results, server.state

        results, state = asyncio.run(main())
        assert state == "stopped"
        for outcome in results:
            # Served, rejected, or cut off — but always resolved.
            assert isinstance(outcome, (dict, ServeError, ConnectionError))

    def test_malformed_frame_gets_a_protocol_error_frame(self, sock_path):
        from repro.serve.protocol import HEADER, FrameDecoder

        async def main():
            server = LeaseServer(SCHEDULE, num_resources=2, num_shards=1)
            await server.start_unix(sock_path)
            reader, writer = await asyncio.open_unix_connection(sock_path)
            writer.write(HEADER.pack(8) + b"not-json")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(4096), timeout=5)
            at_eof = (
                await asyncio.wait_for(reader.read(4096), timeout=5) == b""
            )
            writer.close()
            await server.shutdown()
            return raw, at_eof

        raw, at_eof = asyncio.run(main())
        (frame,) = FrameDecoder().feed(raw)
        assert frame["ok"] is False
        assert frame["error"]["kind"] == "protocol"
        assert at_eof  # server hangs up after naming the violation

    def test_hello_and_stats_shapes(self, sock_path):
        async def main():
            server = LeaseServer(
                SCHEDULE, num_resources=8, num_shards=4, record=True
            )
            await server.start_unix(sock_path)
            client = await AsyncLeaseClient.open_unix(sock_path)
            hello = await client.hello()
            await client.acquire("t", 3, 2)
            stats = await client.stats()
            await client.close()
            await server.shutdown()
            return hello, stats

        hello, stats = asyncio.run(main())
        assert hello["server"] == "repro.serve"
        assert hello["num_shards"] == 4
        assert hello["ranges"] == [[0, 2], [2, 4], [4, 6], [6, 8]]
        assert hello["schedule"]["num_types"] == 4
        assert stats["state"] == "serving"
        assert stats["sessions"]["tenants"] == 1
        shard_stats = stats["shards"]
        assert len(shard_stats) == 4
        assert sum(s["stats"]["acquires"] for s in shard_stats) == 1

    def test_tcp_transport_works_too(self):
        async def main():
            server = LeaseServer(SCHEDULE, num_resources=4, num_shards=2)
            port = await server.start_tcp("127.0.0.1", 0)
            client = await AsyncLeaseClient.open_tcp("127.0.0.1", port)
            grant = await client.acquire("t", 2, 1)
            await client.close()
            await server.shutdown()
            return grant

        grant = asyncio.run(main())
        assert grant["grant"]["resource"] == 2
