"""The direct data plane: the route handshake, epoch staleness, and the
direct client — against in-process workers, plus a hypothesis sweep
proving the handed-out route map *is* the spec's shard tiling."""

import asyncio
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import (
    ClusterRouter,
    ClusterSpec,
    WorkerLiveness,
    format_endpoint,
)
from repro.errors import ModelError
from repro.serve import (
    AsyncLeaseClient,
    DirectLeaseClient,
    LeaseServer,
    ServeError,
    parse_worker_endpoint,
)

from .test_router import _start_inprocess_workers


@pytest.fixture
def workdir():
    path = tempfile.mkdtemp(prefix="rcl-d-")
    try:
        yield Path(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


# Valid fleet shapes: total_shards <= num_resources by construction.
_shapes = st.integers(1, 6).flatmap(
    lambda workers: st.integers(1, 4).flatmap(
        lambda spw: st.integers(workers * spw, 64).map(
            lambda resources: (resources, workers, spw)
        )
    )
)


class TestRouteMapProperty:
    @given(shape=_shapes)
    def test_route_rows_tile_the_resource_space(self, shape):
        """For arbitrary valid tilings, the handshake map covers every
        resource exactly once, in order, with no gaps and no overlaps —
        and names exactly the worker ``worker_of`` would route to."""
        resources, workers, spw = shape
        spec = ClusterSpec(resources, workers, spw)
        endpoints = [f"unix:/w{i}.sock" for i in range(workers)]
        rows = spec.route_workers(endpoints)
        assert [row["index"] for row in rows] == list(range(workers))
        assert [row["endpoint"] for row in rows] == endpoints
        cursor = 0
        for row in rows:
            lo, hi = row["range"]
            assert lo == cursor and hi > lo
            cursor = hi
            for resource in range(lo, hi):
                assert spec.worker_of(resource) == row["index"]
        assert cursor == resources

    @given(
        path=st.text(
            st.characters(
                codec="ascii", exclude_characters="\x00",
                categories=("L", "N", "P", "S"),
            ),
            min_size=1,
        ),
        port=st.integers(1, 65535),
    )
    def test_endpoint_round_trip(self, path, port):
        # One grammar: every endpoint the router can hand out parses
        # back to the address it was formatted from.
        for address in (("unix", path), ("tcp", "127.0.0.1", port)):
            assert parse_worker_endpoint(format_endpoint(*address)) == (
                address[0], address[1:]
            )

    def test_bare_path_still_means_unix(self):
        assert parse_worker_endpoint("/tmp/w.sock") == (
            "unix", ("/tmp/w.sock",)
        )

    def test_malformed_endpoints_rejected(self):
        for bad in ("tcp:nohost", "tcp:host:notaport"):
            with pytest.raises(ModelError):
                parse_worker_endpoint(bad)
        with pytest.raises(ModelError):
            format_endpoint("carrier-pigeon", "x")

    def test_wrong_endpoint_count_rejected(self):
        with pytest.raises(ModelError):
            ClusterSpec(8, 2, 1).route_workers(["unix:/only-one.sock"])


class TestRouteVerb:
    def test_handshake_returns_the_spec_tiling(self, workdir):
        spec = ClusterSpec(8, 2, 2)

        async def main():
            _, paths = await _start_inprocess_workers(spec, workdir)
            router = ClusterRouter(spec)
            await router.connect_workers(paths, codec="bin")
            router_sock = str(workdir / "router.sock")
            await router.start_unix(router_sock)
            client = await AsyncLeaseClient.open_unix(router_sock)
            table = await client.call("route")
            fresh = await client.call("route", epoch=table["epoch"])
            await client.close()
            await router.shutdown()
            return table, fresh

        table, fresh = asyncio.run(main())
        assert table["epoch"] == 0
        assert table["num_resources"] == 8
        assert table["transport"] == "unix"
        assert [row["range"] for row in table["workers"]] == [[0, 4], [4, 8]]
        for index, row in enumerate(table["workers"]):
            assert row["index"] == index
            assert row["epoch"] == 0
            assert row["state"] == "up"
            assert row["liveness"] == "up"
            assert parse_worker_endpoint(row["endpoint"])[0] == "unix"
        # A probe carrying the current epoch is answered, not errored.
        assert fresh == table

    def test_stale_epoch_gets_the_typed_error(self, workdir):
        spec = ClusterSpec(4, 2, 1)

        async def main():
            _, paths = await _start_inprocess_workers(spec, workdir)
            router = ClusterRouter(spec)
            await router.connect_workers(paths, codec="bin")
            router_sock = str(workdir / "router.sock")
            await router.start_unix(router_sock)
            client = await AsyncLeaseClient.open_unix(router_sock)
            # A respawn moved the fleet epoch while this client held
            # its table: the next probe must say so, typed.
            router._slots[1].respawns_done += 1
            try:
                await client.call("route", epoch=0)
                stale = None
            except ServeError as exc:
                stale = exc
            table = await client.call("route")
            await client.close()
            await router.shutdown()
            return stale, table

        stale, table = asyncio.run(main())
        assert stale is not None and stale.kind == "stale-route"
        assert table["epoch"] == 1
        assert [row["epoch"] for row in table["workers"]] == [0, 1]

    def test_single_server_refuses_route(self, workdir):
        from repro.core import LeaseSchedule

        async def main():
            server = LeaseServer(
                LeaseSchedule.power_of_two(4, cost_growth=2.0),
                num_resources=4,
            )
            path = str(workdir / "solo.sock")
            await server.start_unix(path)
            client = await AsyncLeaseClient.open_unix(path)
            try:
                await client.call("route")
                return None
            except ServeError as exc:
                return exc
            finally:
                await client.close()
                await server.shutdown()

        exc = asyncio.run(main())
        assert exc is not None and exc.kind == "protocol"
        assert "dial it directly" in exc.message


class TestDirectClient:
    def test_mutations_land_on_the_owning_worker(self, workdir):
        spec = ClusterSpec(8, 2, 2)

        async def main():
            servers, paths = await _start_inprocess_workers(spec, workdir)
            router = ClusterRouter(spec)
            await router.connect_workers(paths, codec="bin")
            router_sock = str(workdir / "router.sock")
            await router.start_unix(router_sock)
            client = await DirectLeaseClient.open_unix(router_sock)
            outcome = {"handshakes": client.handshakes}
            outcome["epoch"] = client.epoch
            outcome["left"] = await client.acquire("tl", 0, 0)
            outcome["right"] = await client.acquire("tr", 7, 0)
            outcome["tick"] = await client.tick(1)
            outcome["release"] = await client.release("tl", 0, 1)
            outcome["report"] = await client.report()
            # Each worker's sessions saw only its own tenant: proof the
            # data plane bypassed the router and split by ownership.
            outcome["tenants"] = [
                [row["tenant"] for row in s.sessions.tenant_snapshot()]
                for s in servers
            ]
            outcome["check"] = await client.check_route()
            await client.close()
            await router.shutdown()
            return outcome

        outcome = asyncio.run(main())
        assert outcome["handshakes"] == 1
        assert outcome["epoch"] == 0
        assert outcome["left"]["grant"]["resource"] == 0
        assert outcome["right"]["grant"]["resource"] == 7
        assert outcome["tick"]["applied_time"] == 1
        assert outcome["tenants"] == [["tl"], ["tr"]]
        # Control-plane barriers still merge the whole fleet.
        assert [
            s["index"] for s in outcome["report"]["shards"]
        ] == [0, 1, 2, 3]
        # No epoch movement: the probe is a no-op.
        assert outcome["check"] is False

    def test_stale_route_triggers_rehandshake(self, workdir):
        spec = ClusterSpec(4, 2, 1)

        async def main():
            _, paths = await _start_inprocess_workers(spec, workdir)
            router = ClusterRouter(spec)
            await router.connect_workers(paths, codec="bin")
            router_sock = str(workdir / "router.sock")
            await router.start_unix(router_sock)
            client = await DirectLeaseClient.open_unix(router_sock)
            await client.acquire("t", 0, 0)
            router._slots[0].respawns_done += 1
            stale = await client.check_route()
            outcome = {
                "stale": stale,
                "epoch": client.epoch,
                "handshakes": client.handshakes,
            }
            # The refreshed table still routes; the data path works on.
            outcome["grant"] = await client.acquire("t2", 3, 0)
            await client.close()
            await router.shutdown()
            return outcome

        outcome = asyncio.run(main())
        assert outcome["stale"] is True
        assert outcome["epoch"] == 1
        assert outcome["handshakes"] == 2
        assert outcome["grant"]["grant"]["resource"] == 3

    def test_worker_of_mirrors_the_spec(self, workdir):
        spec = ClusterSpec(10, 3, 1)

        async def main():
            _, paths = await _start_inprocess_workers(spec, workdir)
            router = ClusterRouter(spec)
            await router.connect_workers(paths, codec="bin")
            router_sock = str(workdir / "router.sock")
            await router.start_unix(router_sock)
            client = await DirectLeaseClient.open_unix(router_sock)
            owners = [client.worker_of(r) for r in range(10)]
            try:
                client.worker_of(10)
                bounds = None
            except ModelError as exc:
                bounds = exc
            await client.close()
            await router.shutdown()
            return owners, bounds

        owners, bounds = asyncio.run(main())
        assert owners == [spec.worker_of(r) for r in range(10)]
        assert bounds is not None


class TestTcpAndReusePort:
    def test_router_serves_over_tcp(self, workdir):
        spec = ClusterSpec(4, 2, 1)

        async def main():
            _, paths = await _start_inprocess_workers(spec, workdir)
            router = ClusterRouter(spec)
            await router.connect_workers(paths, codec="bin")
            port = await router.start_tcp("127.0.0.1", 0)
            control = await AsyncLeaseClient.open_tcp("127.0.0.1", port)
            hello = await control.call("hello")
            await control.close()
            client = await DirectLeaseClient.open_tcp("127.0.0.1", port)
            grant = await client.acquire("t", 0, 0)
            await client.close()
            await router.shutdown()
            return hello, grant

        hello, grant = asyncio.run(main())
        assert hello["cluster"]["direct"] is True
        assert grant["grant"]["resource"] == 0

    def test_reuse_port_replicas_share_one_port(self, workdir):
        """Two router replicas bound to the same TCP port via
        ``SO_REUSEPORT``, both fronting the same fleet — the kernel
        spreads accepts, and either replica serves a full handshake."""
        from repro.cluster import free_tcp_port

        spec = ClusterSpec(4, 2, 1)

        async def main():
            _, paths = await _start_inprocess_workers(spec, workdir)
            first = ClusterRouter(spec)
            second = ClusterRouter(spec)
            await first.connect_workers(paths, codec="bin")
            await second.connect_workers(paths, codec="bin")
            port = free_tcp_port()
            await first.start_tcp("127.0.0.1", port, reuse_port=True)
            await second.start_tcp("127.0.0.1", port, reuse_port=True)
            tables = []
            for _ in range(4):
                client = await AsyncLeaseClient.open_tcp("127.0.0.1", port)
                tables.append(await client.call("route"))
                await client.close()
            # The fleet is shared: a worker cannot finish its graceful
            # stop while the other replica's links are still open, so
            # unwind the second replica's links first (no wall-clock
            # ack timeouts), then let the first stop the workers.
            for slot in second._slots:
                await slot.close()
                slot.link = None
            await first.shutdown()
            await second.shutdown()
            return tables

        tables = asyncio.run(main())
        assert all(t["epoch"] == 0 for t in tables)
        assert all(
            [row["range"] for row in t["workers"]] == [[0, 2], [2, 4]]
            for t in tables
        )


class TestLivenessWiring:
    def test_link_frames_beat_the_tracker(self, workdir):
        """Response traffic is proof of life: after a tick, every
        worker's liveness reads ``up`` on the router's injected clock —
        and silencing the clock declares them suspect without any
        socket activity."""
        spec = ClusterSpec(4, 2, 1)

        class FakeClock:
            def __init__(self):
                self.now = 0.0

            def __call__(self):
                return self.now

        clock = FakeClock()
        liveness = WorkerLiveness(2, clock=clock)

        async def main():
            _, paths = await _start_inprocess_workers(spec, workdir)
            router = ClusterRouter(spec, liveness=liveness)
            await router.connect_workers(paths, codec="bin")
            router_sock = str(workdir / "router.sock")
            await router.start_unix(router_sock)
            client = await AsyncLeaseClient.open_unix(router_sock)
            await client.tick(0)
            states_after_traffic = router.liveness.states()
            clock.now += 5.0
            table = await client.call("route")
            await client.close()
            await router.shutdown()
            return states_after_traffic, table

        fresh, table = asyncio.run(main())
        assert fresh == ["up", "up"]
        assert [row["liveness"] for row in table["workers"]] == [
            "suspect", "suspect"
        ]
