"""The ops plane on the router: fleet health, lease book, durable
force-release (including through SIGKILL + respawn), supervision
counters, worker-scrape folding, and end-to-end trace reconstruction
across client -> worker processes."""

import asyncio
import json
import shutil
import tempfile
import time
from pathlib import Path

import pytest

from repro.admin import AdminPlane
from repro.cluster import ClusterRouter, ClusterSpec
from repro.cluster import router as router_module
from repro.cluster.loadgen import build_cluster_instance, cluster_once
from repro.cluster.procs import (
    make_respawner,
    reap,
    spawn_workers,
    worker_command,
)
from repro.obs import (
    MetricsRegistry,
    TraceSink,
    build_trace_trees,
    load_spans,
    parse_exposition,
    trace_tree_payload,
    validate_exposition,
)
from repro.serve import (
    AsyncLeaseClient,
    DirectLeaseClient,
    LeaseServer,
    ServeError,
    merge_shard_payloads,
    replay_applied,
)


@pytest.fixture
def workdir():
    path = tempfile.mkdtemp(prefix="rcl-t-")
    try:
        yield Path(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


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
    return int(head.split(b" ", 2)[1]), body


async def _start_workers(
    spec: ClusterSpec, workdir: Path, metrics=False, trace_dir=None
):
    """Real in-process LeaseServers, optionally with live registries
    and span sinks."""
    servers, paths = [], []
    for index in range(spec.num_workers):
        server = LeaseServer(
            spec.schedule(),
            num_resources=spec.num_resources,
            num_shards=spec.total_shards,
            record=spec.record,
            metrics=MetricsRegistry() if metrics else None,
            trace=(
                None if trace_dir is None
                else TraceSink(trace_dir / f"worker-{index}.jsonl")
            ),
        )
        path = str(workdir / f"w{index}.sock")
        await server.start_unix(path)
        servers.append(server)
        paths.append(path)
    return servers, paths


async def _mounted_router(spec, paths, **router_kwargs):
    router = ClusterRouter(spec, **router_kwargs)
    await router.connect_workers(paths)
    plane = AdminPlane(router)
    await plane.start_tcp()
    return router, plane


class TestRouterAdminPlane:
    def test_health_ready_and_per_worker_drain(self, workdir):
        spec = ClusterSpec(8, 2, 2)

        async def main():
            _, paths = await _start_workers(spec, workdir)
            router, plane = await _mounted_router(spec, paths)
            out = {}
            out["health"] = await _http(plane.port, "GET", "/healthz")
            out["ready"] = await _http(plane.port, "GET", "/readyz")
            out["drain"] = await _http(plane.port, "POST", "/workers/1/drain")
            out["undrain"] = await _http(
                plane.port, "POST", "/workers/1/undrain"
            )
            out["bad"] = await _http(plane.port, "POST", "/workers/5/drain")
            await plane.close()
            await router.shutdown()
            return out

        out = asyncio.run(main())
        health = json.loads(out["health"][1])
        assert health["state"] == "serving"
        assert [w["slot"] for w in health["workers"]] == ["up", "up"]
        ready = json.loads(out["ready"][1])
        assert out["ready"][0] == 200 and ready["ready"] is True
        assert ready["workers"] == {"0": "up", "1": "up"}
        assert json.loads(out["drain"][1]) == {
            "worker": 1, "state": "draining",
        }
        assert json.loads(out["undrain"][1]) == {
            "worker": 1, "state": "serving",
        }
        assert out["bad"][0] == 404

    def test_lease_book_and_force_release_stay_deterministic(self, workdir):
        spec = ClusterSpec(8, 2, 2, record=True)

        async def main():
            _, paths = await _start_workers(spec, workdir)
            router, plane = await _mounted_router(spec, paths)
            router_sock = str(workdir / "router.sock")
            await router.start_unix(router_sock)
            tenant = await DirectLeaseClient.open_unix(router_sock)
            client = await AsyncLeaseClient.open_unix(router_sock)
            await tenant.acquire("t-0", 0, 0)
            await tenant.acquire("t-1", 7, 0)
            out = {}
            out["book"] = await _http(plane.port, "GET", "/leases")
            target = json.loads(out["book"][1])["leases"][-1]
            out["forced"] = await _http(
                plane.port, "POST",
                f"/leases/{target['lease_id']}/force-release",
            )
            out["again"] = await _http(
                plane.port, "POST",
                f"/leases/{target['lease_id']}/force-release",
            )
            out["after"] = await _http(plane.port, "GET", "/leases")
            out["report"] = await client.report()
            out["trace"] = await client.trace()
            await tenant.close()
            await client.close()
            await plane.close()
            await router.shutdown()
            return out, target

        out, target = asyncio.run(main())
        book = json.loads(out["book"][1])
        assert book["total"] == 2
        # Fleet lease ids are <worker>:<shard>:<grant_id>.
        assert all(
            len(l["lease_id"].split(":")) == 3 for l in book["leases"]
        )
        assert target["resource"] == 7
        assert out["forced"][0] == 200
        assert json.loads(out["forced"][1])["lease_id"] == target["lease_id"]
        assert out["again"][0] == 404
        after = json.loads(out["after"][1])
        assert [l["resource"] for l in after["leases"]] == [0]
        # The forced release is in the fleet's applied trace: replaying
        # it inline reproduces the served totals exactly.
        served = merge_shard_payloads(out["report"]["shards"])
        replayed = replay_applied(spec.schedule(), out["trace"])
        assert served.cost == replayed.cost
        assert tuple(served.leases) == tuple(replayed.leases)

    def test_trace_endpoint_serves_worker_spans(self, workdir, tmp_path):
        spec = ClusterSpec(8, 2, 2)

        async def main():
            _, paths = await _start_workers(spec, workdir, trace_dir=tmp_path)
            router, plane = await _mounted_router(spec, paths)
            router_sock = str(workdir / "router.sock")
            await router.start_unix(router_sock)
            sink = TraceSink(tmp_path / "client.jsonl")
            client = await DirectLeaseClient.open_unix(router_sock, trace=sink)
            await client.acquire("t-0", 3, 0)
            sink.flush()
            spans = load_spans([tmp_path / "client.jsonl"])
            found = await _http(
                plane.port, "GET", f"/trace/{spans[-1]['trace']}"
            )
            missing = await _http(plane.port, "GET", "/trace/" + "0" * 16)
            await client.close()
            await plane.close()
            await router.shutdown()
            return found, missing

        found, missing = asyncio.run(main())
        assert found[0] == 200
        (root,) = json.loads(found[1])["roots"]
        # The client's span lives in the client's file, so the worker's
        # dispatch span roots the fleet's view of the trace.
        assert root["kind"] == "dispatch"
        assert root["worker"] == "0"
        assert missing[0] == 404


class TestRouterLiveDebugging:
    def test_metrics_history_samples_the_router_registry(self, workdir):
        from repro.obs import MetricsHistory

        spec = ClusterSpec(8, 2, 2)

        async def main():
            _, paths = await _start_workers(spec, workdir)
            registry = MetricsRegistry()
            router, plane = await _mounted_router(
                spec, paths, metrics=registry,
                history=MetricsHistory(registry, interval=0.02),
            )
            router_sock = str(workdir / "router.sock")
            await router.start_unix(router_sock)
            client = await AsyncLeaseClient.open_unix(router_sock)
            await client.tick(0)
            while len(router.history) < 3:
                await asyncio.sleep(0.02)
            await client.tick(1)
            await asyncio.sleep(0.05)
            out = await _http(plane.port, "GET", "/metrics/history")
            await client.close()
            await plane.close()
            await router.shutdown()
            return out

        status, body = asyncio.run(main())
        assert status == 200
        payload = json.loads(body)
        assert payload["enabled"] is True
        assert payload["samples"] >= 3
        # A link family moved between samples (the tick broadcasts).
        frames = payload["families"]["cluster_worker_frames_total"]["series"]
        assert sum(row["delta"] for row in frames) > 0

    def test_profile_endpoint_captures_router_stacks(self, workdir):
        spec = ClusterSpec(8, 2, 2)

        async def main():
            _, paths = await _start_workers(spec, workdir)
            router, plane = await _mounted_router(spec, paths)
            out = await _http(plane.port, "GET", "/profile?seconds=0.2")
            await plane.close()
            await router.shutdown()
            return out

        status, body = asyncio.run(main())
        assert status == 200
        capture = json.loads(body)
        assert capture["running"] is False
        assert capture["samples"] >= 1
        assert capture["stacks"]


class TestSupervisionMetrics:
    def test_respawn_and_redrive_counters_in_the_scrape(self, workdir):
        spec = ClusterSpec(8, 2, 2)

        async def main():
            _, paths = await _start_workers(spec, workdir)
            router, plane = await _mounted_router(spec, paths)
            # Supervision tallies are plain slot ints; set them as a
            # respawn cycle would and scrape.
            router._slots[1].respawns_done = 2
            router._slots[1].redriven_frames = 5
            status, body = await _http(plane.port, "GET", "/metrics")
            await plane.close()
            await router.shutdown()
            return status, body.decode()

        status, text = asyncio.run(main())
        assert status == 200
        assert validate_exposition(text) == []
        families = parse_exposition(text)
        up = {
            labels["worker"]: value
            for _, labels, value in families["cluster_worker_up"].samples
        }
        assert up == {"0": 1.0, "1": 1.0}
        respawns = {
            labels["worker"]: value
            for _, labels, value in families[
                "cluster_worker_respawns_total"
            ].samples
        }
        assert respawns == {"0": 0.0, "1": 2.0}
        redriven = {
            labels["worker"]: value
            for _, labels, value in families[
                "cluster_redriven_frames_total"
            ].samples
        }
        assert redriven == {"0": 0.0, "1": 5.0}


    def test_exhausted_respawn_budget_fails_waiting_calls(
        self, workdir, monkeypatch
    ):
        """A respawn callback that always fails: a call waiting for the
        worker gets typed ``unavailable`` once ``MAX_RESPAWNS`` attempts
        are spent, and ``/healthz`` shows the slot ``down``."""
        monkeypatch.setattr(router_module, "MAX_RESPAWNS", 2)
        monkeypatch.setattr(router_module, "RESPAWN_BACKOFF", 0.01)
        spec = ClusterSpec(4, 2, 1)
        attempts = []

        def respawn(index: int) -> str:
            # Slow enough that the tick below arrives mid-recovery.
            attempts.append(index)
            time.sleep(0.2)
            raise RuntimeError("the worker will not start")

        async def main():
            servers, paths = await _start_workers(spec, workdir)
            router, plane = await _mounted_router(
                spec, paths, respawn=respawn
            )
            await servers[1].shutdown()
            while router.admin_health()["workers"][1]["slot"] != "recovering":
                await asyncio.sleep(0.005)
            try:
                await asyncio.wait_for(
                    router.admin_drain(1), timeout=5.0
                )
                refusal = None
            except ServeError as exc:
                refusal = exc
            health = json.loads((await _http(plane.port, "GET", "/healthz"))[1])
            await plane.close()
            await router.shutdown()
            return refusal, health

        refusal, health = asyncio.run(main())
        assert attempts == [1, 1]
        assert refusal is not None and refusal.kind == "unavailable"
        assert "2 respawn attempts" in refusal.message
        assert [w["slot"] for w in health["workers"]] == ["up", "down"]


class TestWorkerMetricsFold:
    def test_worker_scrapes_folded_with_worker_labels(self, workdir):
        spec = ClusterSpec(8, 2, 2)

        async def main():
            _, paths = await _start_workers(spec, workdir, metrics=True)
            router, plane = await _mounted_router(
                spec, paths, collect_worker_metrics=True
            )
            router_sock = str(workdir / "router.sock")
            await router.start_unix(router_sock)
            client = await DirectLeaseClient.open_unix(router_sock)
            await client.acquire("t-0", 0, 0)
            await client.acquire("t-1", 7, 0)
            status, body = await _http(plane.port, "GET", "/metrics")
            await client.close()
            await plane.close()
            await router.shutdown()
            return status, body.decode()

        status, text = asyncio.run(main())
        assert status == 200
        # The folded exposition — router families plus each worker's
        # own relabeled scrape — must still validate as one document.
        assert validate_exposition(text) == []
        families = parse_exposition(text)
        workers_seen = {
            labels["worker"]
            for family in families.values()
            for _, labels, _ in family.samples
            if "worker" in labels
        }
        assert {"0", "1"} <= workers_seen
        # A live-registry family from inside the workers made it out,
        # labeled per worker.
        latency = families["serve_op_latency_seconds"]
        assert {
            labels["worker"]
            for name, labels, _ in latency.samples
            if name.endswith("_count")
        } == {"0", "1"}

    def test_worker_command_carries_the_instrumentation_stance(self):
        bare = ClusterSpec(8, 2, 2)
        instrumented = ClusterSpec(8, 2, 2, worker_metrics=True)
        assert "--no-metrics" in worker_command(bare, "/tmp/w.sock")
        argv = worker_command(instrumented, "/tmp/w.sock")
        assert "--metrics" in argv and "--no-metrics" not in argv
        traced = worker_command(
            bare, "/tmp/w.sock", trace_path="/tmp/w.jsonl"
        )
        assert traced[traced.index("--trace-jsonl") + 1] == "/tmp/w.jsonl"


class TestFleetTraceEndToEnd:
    def test_merged_fleet_jsonl_reconstructs_one_tree_per_op(self, tmp_path):
        """The acceptance path: a 2-worker subprocess cluster with every
        hop traced; merging client + worker span files must yield
        exactly one causal tree per mutation, rooted at the client and
        dispatched by the owning worker."""
        trace_root = tmp_path / "spans"
        trace_root.mkdir()
        client_file = tmp_path / "client.jsonl"
        instance = build_cluster_instance(
            "markov", 24, seed=3, num_resources=8, tenants_per_resource=2,
            num_workers=2, shards_per_worker=2,
            trace_root=str(trace_root),
        )
        report = cluster_once(instance, client_trace=TraceSink(client_file))
        assert report["requests"] > 0
        files = [client_file] + sorted(trace_root.glob("worker-*.jsonl"))
        assert len(files) == 3, "each worker process wrote its span file"
        trees = build_trace_trees(load_spans(files))
        assert trees, "a traced drive leaves traces"
        chains = set()
        for trace_id, roots in trees.items():
            assert len(roots) == 1, (
                f"trace {trace_id} fractured into {len(roots)} roots"
            )
            root = roots[0]
            assert root.span["kind"] == "client"
            for node in root.walk():
                assert node.span["trace"] == trace_id
            # Mutations reach one worker straight from the client; the
            # router's tick broadcast carries the client's context
            # verbatim, so every worker span parents to the client.
            for child in root.children:
                assert child.span["parent"] == root.span["span_id"]
                assert child.span["kind"] == "dispatch"
                assert not child.children
                chains.add((root.span["op"], child.span["op"]))
        assert ("acquire", "acquire") in chains
        assert ("tick", "tick") in chains


class TestFederatedTrace:
    """Live ``GET /trace/{id}`` on the router: the federated pull must
    reconstruct the same causal tree the offline merge does — before a
    crash, through SIGKILL + respawn, and in the offline files after."""

    @staticmethod
    def _skeleton(payload):
        """(span_id, kind, children) — the structure the gate is about,
        ignoring source-dependent extras like the ``worker`` label."""
        return [
            (node["span_id"], node["kind"],
             TestFederatedTrace._skeleton(node["children"]))
            for node in payload
        ]

    def test_live_tree_matches_offline_merge_through_kill(self, tmp_path):
        trace_root = tmp_path / "spans"
        trace_root.mkdir()
        spec = ClusterSpec(
            8, 2, 2, trace_root=str(trace_root),
            wal_root=str(tmp_path / "wal"), fsync="always",
        )
        workdir = tempfile.mkdtemp(prefix="rcl-t-")
        workers = []
        try:
            workers = spawn_workers(spec, workdir)

            async def main():
                router = ClusterRouter(spec, respawn=make_respawner(workers))
                await router.connect_workers(
                    [w.socket_path for w in workers], retry_for=60.0
                )
                router_sock = str(Path(workdir) / "router.sock")
                await router.start_unix(router_sock)
                plane = AdminPlane(router)
                await plane.start_tcp()
                sink = TraceSink(tmp_path / "client.jsonl")
                client = await DirectLeaseClient.open_unix(
                    router_sock, retry_for=60.0, trace=sink,
                )
                await client.acquire("t-0", 0, 0)
                await client.acquire("t-1", 7, 0)  # worker 1's resource
                sink.flush()
                victim = next(
                    s for s in load_spans([tmp_path / "client.jsonl"])
                    if s.get("resource") == 7
                )["trace"]
                # Live federated pull mid-run.  Side effect the crash leg
                # depends on: answering `spans` flushes each worker's sink
                # to its file, making the dispatch span durable.
                before = await _http(plane.port, "GET", f"/trace/{victim}")
                # SIGKILL the owning worker, no warning, no flush.
                workers[1].process.kill()
                workers[1].process.wait(timeout=10.0)
                # Same query while the worker is dead: supervision
                # respawns it (same WAL, same trace path, opened
                # append-mode) and the pre-crash span is still there.
                after = await _http(plane.port, "GET", f"/trace/{victim}")
                await client.close()
                await plane.close()
                await router.shutdown()
                return victim, before, after

            victim, before, after = asyncio.run(main())
        finally:
            reap(workers)
            shutil.rmtree(workdir, ignore_errors=True)

        assert before[0] == 200 and after[0] == 200
        live_before = json.loads(before[1])["roots"]
        live_after = json.loads(after[1])["roots"]
        # The offline ground truth: the fleet's own files, merged.  (The
        # client's file stays out on both sides — the fleet never holds
        # the client hop, so the dispatch span roots the tree in each
        # view.)
        offline_spans = load_spans(
            [spec.worker_trace_path(i) for i in range(2)]
        )
        offline = trace_tree_payload(build_trace_trees(offline_spans)[victim])
        assert self._skeleton(live_before) == self._skeleton(offline)
        assert self._skeleton(live_after) == self._skeleton(offline)
        # The dispatch span in the post-kill answer came from the
        # respawned worker's sink, relabeled with its slot.
        (dispatch,) = live_after
        assert dispatch["kind"] == "dispatch"
        assert dispatch["children"] == []
        assert dispatch["worker"] == "1"
        assert dispatch["op"] == "acquire"


class TestForceReleaseSurvivesKill:
    def test_force_release_through_a_dead_worker_applies_once(self, tmp_path):
        """SIGKILL the owning worker, then POST the force-release while
        it is down: supervision respawns the worker (WAL recovery), the
        release frame is re-driven with the retry marker, and the
        worker's applied log shows exactly one release — durable,
        exactly-once admin mutation."""
        spec = ClusterSpec(
            8, 2, 2, record=True,
            wal_root=str(tmp_path / "wal"), fsync="always",
        )
        workdir = tempfile.mkdtemp(prefix="rcl-t-")
        workers = []
        try:
            workers = spawn_workers(spec, workdir)

            async def main():
                router = ClusterRouter(spec, respawn=make_respawner(workers))
                await router.connect_workers(
                    [w.socket_path for w in workers], retry_for=60.0
                )
                router_sock = str(Path(workdir) / "router.sock")
                await router.start_unix(router_sock)
                plane = AdminPlane(router)
                await plane.start_tcp()
                tenant = await DirectLeaseClient.open_unix(
                    router_sock, retry_for=60.0
                )
                client = await AsyncLeaseClient.open_unix(
                    router_sock, retry_for=60.0
                )
                await tenant.acquire("t-0", 0, 0)
                await tenant.acquire("t-1", 7, 0)
                book = json.loads(
                    (await _http(plane.port, "GET", "/leases?resource=7"))[1]
                )
                lease_id = book["leases"][0]["lease_id"]
                # Kill resource 7's owner (worker 1) dead, no warning.
                workers[1].process.kill()
                workers[1].process.wait(timeout=10.0)
                forced = await _http(
                    plane.port, "POST", f"/leases/{lease_id}/force-release"
                )
                after = json.loads(
                    (await _http(plane.port, "GET", "/leases"))[1]
                )
                health = json.loads(
                    (await _http(plane.port, "GET", "/healthz"))[1]
                )
                trace = await client.trace()
                await tenant.close()
                await client.close()
                await plane.close()
                await router.shutdown()
                return lease_id, forced, after, health, trace

            lease_id, forced, after, health, trace = asyncio.run(main())
        finally:
            reap(workers)
            shutil.rmtree(workdir, ignore_errors=True)

        assert forced[0] == 200
        assert json.loads(forced[1])["lease_id"] == lease_id
        assert [l["resource"] for l in after["leases"]] == [0]
        # Supervision did respawn the killed worker to serve the frame.
        assert health["workers"][1]["respawns"] >= 1
        releases = [
            event
            for shard in trace["shards"]
            for event in shard["events"]
            if event["kind"] == "release" and event["tenant"] == "t-1"
            and event["resource"] == 7
        ]
        assert len(releases) == 1, "retried release must dedup to one apply"
