"""Router mechanics against in-process workers: topology math, hello,
the control-plane-only contract, barriers, drain, supervision tallies,
the bounded request reader, and config validation.

The workers here are real :class:`LeaseServer` instances on unix sockets
inside the test's own event loop — the router cannot tell (the protocol
is the boundary), and the tests stay fast and deterministic without
spawning processes.  The subprocess fleet is exercised end to end by
``test_cluster_scenario``.
"""

import asyncio
import shutil
import tempfile
from pathlib import Path

import pytest

from repro.cluster import ClusterRouter, ClusterSpec
from repro.cluster import router as router_module
from repro.core import LeaseSchedule
from repro.errors import ModelError
from repro.obs import MetricsRegistry, parse_exposition, validate_exposition
from repro.serve import (
    AsyncLeaseClient,
    DirectLeaseClient,
    LeaseServer,
    ServeError,
)
from repro.serve.protocol import (
    HEADER,
    MAX_REQUEST_BYTES,
    ok,
    read_frame,
    write_frame,
)

SCHEDULE = LeaseSchedule.power_of_two(4, cost_growth=2.0)


@pytest.fixture
def workdir():
    path = tempfile.mkdtemp(prefix="rcl-t-")
    try:
        yield Path(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


class TestSpec:
    def test_worker_ranges_tile_the_resource_space(self):
        for resources, workers, spw in [(8, 2, 2), (10, 3, 1), (7, 2, 3)]:
            spec = ClusterSpec(resources, workers, spw)
            covered = [
                r for lo, hi in spec.worker_ranges for r in range(lo, hi)
            ]
            assert covered == list(range(resources))
            # Worker ranges are exactly their shard groups' union.
            for w in range(workers):
                lo_shard, hi_shard = spec.group(w)
                assert spec.worker_ranges[w] == (
                    spec.ranges[lo_shard][0], spec.ranges[hi_shard - 1][1]
                )

    def test_worker_of_is_consistent_with_ranges(self):
        spec = ClusterSpec(10, 3, 1)
        for resource in range(10):
            w = spec.worker_of(resource)
            lo, hi = spec.worker_ranges[w]
            assert lo <= resource < hi
        with pytest.raises(ModelError):
            spec.worker_of(10)

    def test_oversubscription_rejected(self):
        with pytest.raises(ModelError):
            ClusterSpec(num_resources=3, num_workers=2, shards_per_worker=2)

    def test_ranges_match_the_engine_partition(self):
        from repro.engine import shard_ranges

        spec = ClusterSpec(16, 2, 2)
        assert spec.ranges == shard_ranges(16, 4)


def _start_inprocess_workers(spec: ClusterSpec, workdir: Path):
    """Real LeaseServers on unix sockets in the current loop."""
    servers = []
    paths = []

    async def start():
        for index in range(spec.num_workers):
            server = LeaseServer(
                spec.schedule(),
                num_resources=spec.num_resources,
                num_shards=spec.total_shards,
                record=spec.record,
            )
            path = str(workdir / f"w{index}.sock")
            await server.start_unix(path)
            servers.append(server)
            paths.append(path)
        return servers, paths

    return start()


class TestRouting:
    def test_hello_routing_barriers_and_drain(self, workdir):
        spec = ClusterSpec(8, 2, 2)

        async def main():
            servers, paths = await _start_inprocess_workers(spec, workdir)
            router = ClusterRouter(spec)
            await router.connect_workers(paths, codec="bin")
            router_sock = str(workdir / "router.sock")
            await router.start_unix(router_sock)
            client = await AsyncLeaseClient.open_unix(router_sock, codec="bin")
            tenant = await DirectLeaseClient.open_unix(router_sock, codec="bin")
            outcome = {}
            outcome["hello"] = await client.call("hello", codec="bin")
            # One acquire per worker range, one tick across both.
            outcome["left"] = await tenant.acquire("tl", 0, 0)
            outcome["right"] = await tenant.acquire("tr", 7, 0)
            outcome["tick"] = await client.tick(1)
            outcome["stats"] = await client.stats()
            outcome["report"] = await client.report()
            outcome["drain"] = await client.drain()
            try:
                await tenant.acquire("tl", 1, 1)
                outcome["post_drain"] = None
            except ServeError as exc:
                outcome["post_drain"] = exc
            outcome["release"] = await tenant.release("tl", 0, 1)
            await tenant.close()
            await client.close()
            await router.shutdown()
            outcome["worker_states"] = [s.state for s in servers]
            return outcome

        outcome = asyncio.run(main())
        hello = outcome["hello"]
        assert hello["server"] == "repro.cluster"
        assert hello["codec"] == "bin"
        assert hello["num_shards"] == 4
        assert hello["cluster"]["workers"] == 2
        assert hello["cluster"]["worker_ranges"] == [[0, 4], [4, 8]]
        assert outcome["left"]["grant"]["resource"] == 0
        assert outcome["right"]["grant"]["resource"] == 7
        assert outcome["tick"]["applied_time"] == 1
        stats = outcome["stats"]
        assert stats["state"] == "serving"
        assert len(stats["workers"]) == 2
        assert all(w["codec"] == "bin" for w in stats["workers"])
        # Each worker saw exactly its own tenant.
        assert stats["workers"][0]["sessions"]["tenants"] == 1
        assert stats["workers"][1]["sessions"]["tenants"] == 1
        # The merged barrier keeps each worker's own shard group, in
        # global order — indistinguishable from one 4-shard server.
        assert [s["index"] for s in stats["shards"]] == [0, 1, 2, 3]
        assert [s["index"] for s in outcome["report"]["shards"]] == [0, 1, 2, 3]
        assert sum(s["stats"]["acquires"] for s in stats["shards"]) == 2
        assert outcome["drain"]["state"] == "draining"
        # The drain reached the workers, which refused the acquire.
        assert outcome["post_drain"] is not None
        assert outcome["post_drain"].kind == "draining"
        # The release was *served* during the drain (ok frame, not an
        # error); the day-0 grant may have already expired at the tick,
        # in which case it is a legitimate no-op release.
        assert outcome["release"]["applied_time"] == 1
        assert "grant" in outcome["release"]
        # Router shutdown shut the workers down over their links.
        assert outcome["worker_states"] == ["stopped", "stopped"]

    def test_json_codec_links_serve_identically(self, workdir):
        spec = ClusterSpec(4, 2, 1)

        async def main():
            _, paths = await _start_inprocess_workers(spec, workdir)
            router = ClusterRouter(spec)
            await router.connect_workers(paths, codec="json")
            router_sock = str(workdir / "router.sock")
            await router.start_unix(router_sock)
            client = await DirectLeaseClient.open_unix(router_sock)
            grant = await client.acquire("t", 3, 0)
            report = await client.report()
            await client.close()
            await router.shutdown()
            return grant, report

        grant, report = asyncio.run(main())
        assert grant["grant"]["resource"] == 3
        assert [s["index"] for s in report["shards"]] == [0, 1]


class TestRouterMetrics:
    def test_metrics_verb_folds_fleet_state(self, workdir):
        """The router's scrape: per-link gauges and call latency from
        its own registry, worker broker/session state folded in at
        scrape time — and the concatenation is a valid exposition."""
        spec = ClusterSpec(8, 2, 2)

        async def main():
            _, paths = await _start_inprocess_workers(spec, workdir)
            router = ClusterRouter(spec, metrics=MetricsRegistry())
            await router.connect_workers(paths, codec="bin")
            router_sock = str(workdir / "router.sock")
            await router.start_unix(router_sock)
            tenant = await DirectLeaseClient.open_unix(router_sock, codec="bin")
            client = await AsyncLeaseClient.open_unix(router_sock, codec="bin")
            await tenant.acquire("tl", 0, 0)
            await tenant.acquire("tr", 7, 0)
            await client.tick(1)
            text = (await client.call("metrics"))["text"]
            await tenant.close()
            await client.close()
            await router.shutdown()
            return text

        text = asyncio.run(main())
        assert validate_exposition(text) == []
        families = parse_exposition(text)
        for name in (
            "cluster_worker_inflight",
            "cluster_worker_frames_total",
            "cluster_relay_latency_seconds",
            "broker_acquires_total",
            "serve_session_tenants",
        ):
            assert name in families, name
        # Both workers report their links and their shard groups.
        workers = {
            labels["worker"]
            for _, labels, _ in families["cluster_worker_inflight"].samples
        }
        assert workers == {"0", "1"}
        acquires = sum(
            value
            for _, _, value in families["broker_acquires_total"].samples
        )
        assert acquires == 2
        # Call latency was sampled for the tick on both links.
        count = sum(
            value
            for name, _, value in families[
                "cluster_relay_latency_seconds"
            ].samples
            if name.endswith("_count")
        )
        assert count >= 2

    def test_metrics_verb_without_registry_still_scrapes(self, workdir):
        spec = ClusterSpec(4, 2, 1)

        async def main():
            _, paths = await _start_inprocess_workers(spec, workdir)
            router = ClusterRouter(spec)
            await router.connect_workers(paths, codec="json")
            router_sock = str(workdir / "router.sock")
            await router.start_unix(router_sock)
            client = await AsyncLeaseClient.open_unix(router_sock)
            text = (await client.call("metrics"))["text"]
            await client.close()
            await router.shutdown()
            return text

        text = asyncio.run(main())
        assert validate_exposition(text) == []
        families = parse_exposition(text)
        assert "cluster_worker_inflight" in families
        assert "cluster_relay_latency_seconds" not in families


def _stub_hello(spec: ClusterSpec) -> dict:
    schedule = spec.schedule()
    return {
        "server": "stub",
        "codec": "json",
        "num_resources": spec.num_resources,
        "num_shards": spec.total_shards,
        "record": spec.record,
        "schedule": {
            "num_types": schedule.num_types,
            "lengths": [t.length for t in schedule],
            "costs": [t.cost for t in schedule],
        },
    }


async def _stub_worker(path: str, spec: ClusterSpec):
    """A fake worker: a valid hello, then silence for every other op."""
    hello = _stub_hello(spec)

    async def handle(reader, writer):
        while True:
            payload = await read_frame(reader)
            if payload is None:
                break
            if payload.get("op") == "hello":
                await write_frame(writer, ok(payload.get("id"), hello))

    return await asyncio.start_unix_server(handle, path=path)


async def _router_over_inprocess_workers(spec, workdir, **router_kwargs):
    """(router, its socket path, the worker servers), listening."""
    servers, paths = await _start_inprocess_workers(spec, workdir)
    router = ClusterRouter(spec, **router_kwargs)
    await router.connect_workers(paths)
    router_sock = str(workdir / "router.sock")
    await router.start_unix(router_sock)
    return router, router_sock, servers


class TestControlPlaneOnly:
    def test_mutations_to_the_router_get_a_typed_error(self, workdir):
        """A plain client that skips the route handshake is told to use
        it — and the same connection still answers tick and report."""
        spec = ClusterSpec(8, 2, 2)

        async def main():
            router, router_sock, _ = await _router_over_inprocess_workers(
                spec, workdir
            )
            client = await AsyncLeaseClient.open_unix(router_sock)
            refusals = []
            for op in ("acquire", "renew", "release"):
                try:
                    await client.call(op, tenant="t", resource=0, time=0)
                except ServeError as exc:
                    refusals.append(exc)
            tick = await client.tick(3)
            report = await client.report()
            await client.close()
            await router.shutdown()
            return refusals, tick, report

        refusals, tick, report = asyncio.run(main())
        assert len(refusals) == 3
        for exc in refusals:
            assert exc.kind == "protocol"
            assert "'route'" in exc.message
        assert tick["applied_time"] == 3
        assert [s["index"] for s in report["shards"]] == [0, 1, 2, 3]
        # Nothing was applied: the refusals never reached a worker.
        assert all(s["stats"]["acquires"] == 0 for s in report["shards"])


class TestBoundedRequestReader:
    def test_oversized_header_is_refused_then_closed(self, workdir):
        spec = ClusterSpec(4, 2, 1)

        async def main():
            router, router_sock, _ = await _router_over_inprocess_workers(
                spec, workdir
            )
            reader, writer = await asyncio.open_unix_connection(router_sock)
            writer.write(HEADER.pack(MAX_REQUEST_BYTES + 1))
            await writer.drain()
            refusal = await read_frame(reader)
            after = await read_frame(reader)
            writer.close()
            await router.shutdown()
            return refusal, after

        refusal, after = asyncio.run(main())
        assert refusal["ok"] is False
        assert refusal["error"]["kind"] == "protocol"
        assert str(MAX_REQUEST_BYTES) in refusal["error"]["message"]
        assert after is None, "the router closes after the refusal"

    def test_body_cut_off_mid_frame_closes_quietly(self, workdir):
        spec = ClusterSpec(4, 2, 1)

        async def main():
            loop = asyncio.get_running_loop()
            escaped = []
            loop.set_exception_handler(
                lambda _loop, context: escaped.append(context)
            )
            router, router_sock, _ = await _router_over_inprocess_workers(
                spec, workdir
            )
            reader, writer = await asyncio.open_unix_connection(router_sock)
            writer.write(HEADER.pack(100) + b'{"op": "hel')
            writer.write_eof()
            after = await read_frame(reader)
            writer.close()
            # The router is still serving other connections.
            client = await AsyncLeaseClient.open_unix(router_sock)
            hello = await client.hello()
            await client.close()
            await router.shutdown()
            return after, hello, escaped

        after, hello, escaped = asyncio.run(main())
        assert after is None
        assert hello["server"] == "repro.cluster"
        assert escaped == []


class TestSupervisionTallies:
    def test_failed_respawn_attempt_is_counted(self, workdir, monkeypatch):
        """A respawn callback that fails once and then succeeds: the
        worker comes back and the scrape counts the failed attempt."""
        monkeypatch.setattr(router_module, "RESPAWN_BACKOFF", 0.01)
        spec = ClusterSpec(4, 2, 1)

        async def main():
            loop = asyncio.get_running_loop()
            attempts = []

            async def restart(index: int) -> str:
                path = str(workdir / f"w{index}.sock")
                server = LeaseServer(
                    spec.schedule(),
                    num_resources=spec.num_resources,
                    num_shards=spec.total_shards,
                    record=spec.record,
                )
                await server.start_unix(path)
                return path

            def respawn(index: int) -> str:
                # Runs in an executor thread, as real respawns do.
                attempts.append(index)
                if len(attempts) == 1:
                    raise RuntimeError("first respawn attempt fails")
                return asyncio.run_coroutine_threadsafe(
                    restart(index), loop
                ).result(timeout=10)

            router, router_sock, servers = (
                await _router_over_inprocess_workers(
                    spec, workdir, respawn=respawn
                )
            )
            await servers[1].shutdown()
            for _ in range(500):
                if router.route_epoch == 1:
                    break
                await asyncio.sleep(0.01)
            client = await AsyncLeaseClient.open_unix(router_sock)
            text = (await client.call("metrics"))["text"]
            tick = await client.tick(1)
            await client.close()
            await router.shutdown()
            return attempts, text, tick

        attempts, text, tick = asyncio.run(main())
        assert attempts == [1, 1]
        assert tick["applied_time"] == 1
        assert validate_exposition(text) == []
        families = parse_exposition(text)

        def by_worker(name):
            return {
                labels["worker"]: value
                for _, labels, value in families[name].samples
            }

        assert by_worker("cluster_respawn_failures_total") == {
            "0": 0.0, "1": 1.0,
        }
        assert by_worker("cluster_worker_respawns_total") == {
            "0": 0.0, "1": 1.0,
        }
        assert by_worker("cluster_heartbeat_errors_total") == {
            "0": 0.0, "1": 0.0,
        }


async def _silent_worker(path: str, spec: ClusterSpec, seen: list):
    """A fake worker that answers the connect hello, then goes silent:
    it keeps reading (recording each op in ``seen``) and never answers."""

    async def handle(reader, writer):
        payload = await read_frame(reader)
        if payload is None:
            return
        await write_frame(writer, ok(payload.get("id"), _stub_hello(spec)))
        while (payload := await read_frame(reader)) is not None:
            seen.append(payload.get("op"))
        writer.close()

    return await asyncio.start_unix_server(handle, path=path)


def _threaded_respawn(loop, restart, attempts: list):
    """A ``respawn`` callback that, like a real one, runs in an executor
    thread: it records the attempt, runs ``restart(index)`` on the
    test's loop and returns its endpoint."""

    def respawn(index: int) -> str:
        attempts.append(index)
        return asyncio.run_coroutine_threadsafe(
            restart(index), loop
        ).result(timeout=10)

    return respawn


async def _until(condition, timeout: float = 5.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.005)


class TestSupervision:
    """The slot's dead-link paths, with the supervision constants
    patched small so each runs in well under a second."""

    def test_unsupervised_dead_worker_answers_unavailable(self, workdir):
        """No respawn callback: a tick to a fleet with a dead worker is
        refused with typed ``unavailable`` instead of waiting forever,
        and the slot reads ``down``."""
        spec = ClusterSpec(4, 2, 1)

        async def main():
            router, router_sock, servers = (
                await _router_over_inprocess_workers(spec, workdir)
            )
            await servers[1].shutdown()
            client = await AsyncLeaseClient.open_unix(router_sock)
            refusals = []
            for day in (1, 2):
                try:
                    await asyncio.wait_for(client.tick(day), timeout=5.0)
                except ServeError as exc:
                    refusals.append(exc)
            health = router.admin_health()
            await client.close()
            await router.shutdown()
            return refusals, health

        refusals, health = asyncio.run(main())
        assert [exc.kind for exc in refusals] == ["unavailable"] * 2
        assert [w["slot"] for w in health["workers"]] == ["up", "down"]

    def test_hung_worker_is_cut_off_by_the_heartbeat(
        self, workdir, monkeypatch
    ):
        """A worker that answers the connect hello and then goes silent:
        the heartbeat times out, the slot respawns it, and the tick that
        was stuck on the silent link completes once, on the successor."""
        monkeypatch.setattr(router_module, "HEARTBEAT_EVERY", 0.3)
        monkeypatch.setattr(router_module, "HEARTBEAT_TIMEOUT", 1.0)
        spec = ClusterSpec(4, 2, 1)

        async def main():
            servers, paths = await _start_inprocess_workers(spec, workdir)
            await servers[1].shutdown()
            seen = []
            silent = await _silent_worker(paths[1], spec, seen)
            successor = {}

            async def restart(index: int) -> str:
                silent.close()
                server = LeaseServer(
                    spec.schedule(),
                    num_resources=spec.num_resources,
                    num_shards=spec.total_shards,
                    record=spec.record,
                )
                await server.start_unix(paths[index])
                successor["server"] = server
                return paths[index]

            attempts = []
            router = ClusterRouter(spec, respawn=_threaded_respawn(
                asyncio.get_running_loop(), restart, attempts
            ))
            await router.connect_workers(paths)
            router_sock = str(workdir / "router.sock")
            await router.start_unix(router_sock)
            client = await AsyncLeaseClient.open_unix(router_sock)
            tick = await asyncio.wait_for(client.tick(1), timeout=5.0)
            epoch = router.route_epoch
            report = await client.report()
            await client.close()
            await router.shutdown()
            return seen, attempts, tick, epoch, report

        seen, attempts, tick, epoch, report = asyncio.run(main())
        assert "tick" in seen, "the tick reached the silent worker"
        assert "hello" in seen, "the heartbeat probed it"
        assert attempts == [1]
        assert epoch == 1
        assert tick["applied_time"] == 1
        # Worker 1's shard is the successor's, and it applied one tick.
        assert report["shards"][1]["stats"]["ticks"] == 1

    def test_calls_past_the_hold_limit_draw_backpressure(
        self, workdir, monkeypatch
    ):
        """With ``HOLD_LIMIT = 1``, one call waits out the respawn and
        completes on the successor; a second one is refused."""
        monkeypatch.setattr(router_module, "HOLD_LIMIT", 1)
        spec = ClusterSpec(4, 2, 1)

        async def main():
            release = asyncio.Event()
            attempts = []

            async def restart(index: int) -> str:
                await release.wait()
                path = str(workdir / f"w{index}.sock")
                server = LeaseServer(
                    spec.schedule(),
                    num_resources=spec.num_resources,
                    num_shards=spec.total_shards,
                    record=spec.record,
                )
                await server.start_unix(path)
                return path

            router, router_sock, servers = (
                await _router_over_inprocess_workers(
                    spec, workdir, respawn=_threaded_respawn(
                        asyncio.get_running_loop(), restart, attempts
                    ),
                )
            )
            await servers[1].shutdown()
            await _until(lambda: attempts == [1])
            first = await AsyncLeaseClient.open_unix(router_sock)
            second = await AsyncLeaseClient.open_unix(router_sock)
            waiting = asyncio.create_task(first.tick(1))
            await _until(
                lambda: router.admin_health()["workers"][1]["inflight"] == 1
            )
            try:
                await second.tick(2)
                refusal = None
            except ServeError as exc:
                refusal = exc
            release.set()
            tick = await asyncio.wait_for(waiting, timeout=5.0)
            await first.close()
            await second.close()
            await router.shutdown()
            return refusal, tick

        refusal, tick = asyncio.run(main())
        assert refusal is not None and refusal.kind == "backpressure"
        assert "hold limit 1" in refusal.message
        assert tick["applied_time"] == 1


class TestBackpressureAndValidation:
    def test_worker_config_mismatch_refused_at_connect(self, workdir):
        spec = ClusterSpec(8, 1, 2)
        wrong = ClusterSpec(8, 1, 1)  # stub advertises 1 shard, spec wants 2

        async def main():
            path = str(workdir / "stub.sock")
            stub = await _stub_worker(path, wrong)
            router = ClusterRouter(spec)
            try:
                await router.connect_workers([path], retry_for=1.0)
            finally:
                stub.close()

        with pytest.raises(ModelError, match="config mismatch"):
            asyncio.run(main())

    def test_wrong_socket_count_refused(self, workdir):
        spec = ClusterSpec(8, 2, 2)

        async def main():
            router = ClusterRouter(spec)
            await router.connect_workers([str(workdir / "only-one.sock")])

        with pytest.raises(ModelError, match="socket paths"):
            asyncio.run(main())

    def test_listening_before_workers_refused(self, workdir):
        async def main():
            router = ClusterRouter(ClusterSpec(4, 2, 1))
            await router.start_unix(str(workdir / "router.sock"))

        with pytest.raises(ModelError):
            asyncio.run(main())
