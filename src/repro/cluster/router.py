"""The cluster control plane: one router socket over N worker processes.

:class:`ClusterRouter` is what tenants dial first.  It answers ``hello``
with the single-server shape plus a ``cluster`` block, and hands out the
fleet's placement through the ``route`` handshake: the resource->worker
map and each worker's data endpoint.  Tenants then send every
``acquire``/``renew``/``release`` straight to the owning worker (see
:class:`~repro.serve.client.DirectLeaseClient`); a mutation sent to the
router itself draws a typed ``protocol`` error naming ``route``.  What
stays here is the fleet-wide work: the ``tick`` broadcast (the shared
clock skeleton), the ``stats``/``report``/``trace``/``metrics``/
``leases``/``spans`` barriers, drain, admin force-release, and
supervision.

**Worker links.**  Each worker is reached through one
:class:`~repro.serve.client.AsyncLeaseClient`, the same pipelined
connection tenants use: its own id space, calls matched back by id.
The router dials it with a fixed 50 ms poll and checks the worker's
``hello`` against the cluster spec before any call.  A client
connection's requests are answered one at a time, in read order; the
barrier reads ride the same links after any already-sent tick, so they
observe everything enqueued before them, worker by worker.

**Merge discipline.**  Every worker runs the *global* shard tiling (see
:class:`~repro.cluster.spec.ClusterSpec`), so its ``report``/``trace``
payloads carry global shard indices.  The router keeps exactly each
worker's own group — by index, in global order — and concatenates, which
reproduces the shard list a single ``LeaseServer`` with ``total_shards``
shards would have reported.  Merging those payloads with
:func:`~repro.engine.scenarios.merge_broker_runs` therefore equals the
inline replay of the merged trace byte for byte, the identity the
``cluster-*`` scenarios and CI gate continuously.

**Supervision and recovery.**  Each link lives in a :class:`_WorkerSlot`.
A worker death shows as the link's reader stopping (the kernel closes a
dead process's sockets) or, with a ``respawn`` callback configured, as a
heartbeat ``hello`` unanswered past :data:`HEARTBEAT_TIMEOUT` (a hung
process).  Without the callback, a call that finds its link dead
answers typed ``unavailable`` at once.  With it, the slot restarts the
worker through the callback (off the event loop) with jittered
exponential backoff, and every call that met the dead link or arrived
meanwhile — at most :data:`HOLD_LIMIT` of them, the rest are refused
with ``backpressure`` — waits for the successor (which has replayed its
WAL when the fleet is durable) and is sent again on it.  Mutations that
were in flight go marked ``retry``, so the worker's applied-log dedup
makes the resend exactly-once.  Callers observe a stall; only a worker
still dead after :data:`MAX_RESPAWNS` attempts fails its calls with
typed ``unavailable``.  Calls from different connections have no
defined order, so the resends need not leave in their first order.
The moved routing epoch tells direct clients to re-handshake.

**Drain and shutdown.**  ``drain`` broadcasts to every worker, then
flips the router, so new acquires are refused by the workers while
renews/releases complete.  ``shutdown`` acks the caller, stops the
listeners, shuts every worker over its link, fails anything still
pending as ``unavailable``, and wakes :meth:`run_until_stopped`.
"""

from __future__ import annotations

import asyncio
import random

from ..errors import ModelError
from ..obs.export import export_sessions, export_shards
from ..obs.history import MetricsHistory
from ..obs.metrics import MetricsRegistry
from ..obs.profile import SamplingProfiler
from ..obs.promparse import merge_expositions, relabel_exposition
from ..obs.tracetree import build_trace_trees, trace_tree_payload
from ..serve.client import AsyncLeaseClient, parse_worker_endpoint
from ..serve.protocol import (
    CODEC_BIN,
    CODEC_JSON,
    MAX_REQUEST_BYTES,
    MUTATION_OPS,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    ServeError,
    error,
    negotiate_codec,
    ok,
    read_frame,
    write_frame,
)
from ..serve.server import field_time
from .liveness import LIVE_SUSPECT, LIVE_UP, WorkerLiveness
from .spec import ClusterSpec, format_endpoint


#: Calls one recovering worker may have waiting for its successor; past
#: it a call draws a ``backpressure`` refusal.
HOLD_LIMIT = 4096
#: Respawn attempts per worker death before the slot is declared down.
MAX_RESPAWNS = 5
#: Base and cap (seconds) of the jittered exponential backoff between
#: failed respawn attempts.
RESPAWN_BACKOFF = 0.1
RESPAWN_BACKOFF_CAP = 2.0
#: Seconds between supervision heartbeats, and the unanswered-heartbeat
#: window after which a hung worker's link is cut to force recovery.
HEARTBEAT_EVERY = 2.0
HEARTBEAT_TIMEOUT = 10.0


def _check_worker_hello(index: int, hello: dict, spec: ClusterSpec) -> None:
    """Refuse a worker whose ``hello`` disagrees with the cluster spec."""
    schedule = spec.schedule()
    mismatches = [
        f"{field}: worker has {got!r}, cluster wants {want!r}"
        for field, got, want in (
            ("num_resources", hello.get("num_resources"), spec.num_resources),
            ("num_shards", hello.get("num_shards"), spec.total_shards),
            (
                "schedule lengths",
                hello.get("schedule", {}).get("lengths"),
                [t.length for t in schedule],
            ),
            (
                "schedule costs",
                hello.get("schedule", {}).get("costs"),
                [t.cost for t in schedule],
            ),
            ("record", hello.get("record"), spec.record),
        )
        if got != want
    ]
    if mismatches:
        raise ModelError(
            f"worker {index} config mismatch: " + "; ".join(mismatches)
        )


async def _open_link(
    index: int, endpoint: str, spec: ClusterSpec, retry_for: float,
    codec: str,
) -> AsyncLeaseClient:
    """Dial a worker, negotiate the codec and check its config."""
    kind, address = parse_worker_endpoint(endpoint)
    loop = asyncio.get_running_loop()
    deadline = loop.time() + retry_for
    while True:
        try:
            if kind == "unix":
                reader, writer = await asyncio.open_unix_connection(
                    address[0]
                )
            else:
                reader, writer = await asyncio.open_connection(*address)
            break
        except OSError:
            if loop.time() >= deadline:
                raise
            # A fixed short poll, not the client's growing backoff: the
            # router's banner (and a respawn's recovery) waits on it.
            await asyncio.sleep(0.05)
    link = AsyncLeaseClient(reader, writer)
    try:
        _check_worker_hello(index, await link.negotiate(codec), spec)
    except BaseException:
        # A refused handshake must not leak the fresh connection.
        await link.close()
        raise
    return link


class _WorkerSlot:
    """One worker's seat at the router: its link, supervised or not.

    ``state`` is ``up``, ``recovering`` (supervised, between a death and
    the successor's link) or ``down`` (unsupervised after a death, or
    past :data:`MAX_RESPAWNS`); see the module docstring.
    """

    def __init__(
        self,
        index: int,
        endpoint: str,
        spec: ClusterSpec,
        codec_pref: str,
        retry_for: float,
        registry: MetricsRegistry,
        liveness: WorkerLiveness,
        respawn=None,
    ):
        self.index = index
        # Normalised endpoint string ("unix:<path>" / "tcp:<host>:<port>"):
        # what the link dials and the route handshake hands to clients.
        kind, address = parse_worker_endpoint(str(endpoint))
        self.path = format_endpoint(kind, *address)
        self.spec = spec
        self.liveness = liveness
        self.codec_pref = codec_pref
        self.retry_for = retry_for
        self.link: AsyncLeaseClient | None = None
        self.state = "up"
        self.respawn = respawn
        #: Calls inside :meth:`call_checked`, waiting ones included.
        self.inflight = 0
        self._waiting = 0
        self._recovered = asyncio.Event()
        self._registry = registry
        self._metrics_on = registry.enabled
        self._clock = registry.clock
        self._latency: dict = {}
        self._frames = None
        self._watch_task: asyncio.Task | None = None
        self._recover_task: asyncio.Task | None = None
        self._heartbeat_task: asyncio.Task | None = None
        self._closing = False
        # Plain-int supervision tallies, kept regardless of whether the
        # live registry is enabled: the scrape-time export renders them
        # as cluster_worker_respawns_total, cluster_redriven_frames_total,
        # cluster_respawn_failures_total and cluster_heartbeat_errors_total.
        self.respawns_done = 0
        self.redriven_frames = 0
        self.respawn_failures = 0
        self.heartbeat_errors = 0
        self._failures = registry.counter(
            "cluster_link_failures_total",
            help="In-flight ops failed because the worker link died.",
            worker=str(index),
        )
        self._deaths = registry.counter(
            "cluster_worker_deaths_total",
            help="Times the router found this worker's link dead.",
            worker=str(index),
        )
        self._respawns = registry.counter(
            "cluster_respawns_total",
            help="Worker restarts the router's supervision performed.",
            worker=str(index),
        )
        self._held_counter = registry.counter(
            "cluster_held_frames_total",
            help="Frames held while this worker was being respawned.",
            worker=str(index),
        )

    @property
    def supervised(self) -> bool:
        return self.respawn is not None

    @property
    def codec(self) -> str:
        link = self.link
        return link.codec if link is not None else self.codec_pref

    def _beat(self) -> None:
        self.liveness.beat(self.index)

    def _latency_hist(self, op: str):
        hist = self._latency.get(op)
        if hist is None:
            hist = self._latency[op] = self._registry.histogram(
                "cluster_relay_latency_seconds",
                help="Router-observed latency from send to worker reply.",
                op=op,
                worker=str(self.index),
            )
        return hist

    async def open(self) -> None:
        """Dial the worker and, when supervised, start the heartbeat."""
        self._install(await _open_link(
            self.index, self.path, self.spec, self.retry_for,
            self.codec_pref,
        ))
        if self.supervised and self._heartbeat_task is None:
            self._heartbeat_task = asyncio.create_task(self._heartbeat())

    def _install(self, link: AsyncLeaseClient) -> None:
        self.link = link
        self.state = "up"
        self._frames = self._registry.counter(
            "cluster_worker_frames_total",
            help="Frames the router sent to this worker, by wire codec.",
            worker=str(self.index),
            codec=link.codec,
        )
        self._watch_task = asyncio.create_task(self._watch(link))
        self._beat()

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    async def call_checked(self, op: str, **fields) -> dict:
        """One call to the worker; its result, or the ServeError it drew."""
        self.inflight += 1
        try:
            link = self.link
            while True:
                if link is None:
                    link = await self._successor()
                self._frames.inc()
                t0 = self._clock() if self._metrics_on else 0.0
                try:
                    result = await link.call(op, **fields)
                except ServeError:
                    self._beat()
                    raise
                except OSError:
                    # ConnectionError included: the link died under the
                    # call, before or after the worker read it.
                    self._link_died(link)
                    if not self.supervised or self._closing:
                        self._failures.inc()
                        raise self._gone() from None
                    if op in MUTATION_OPS:
                        # The dead worker may have applied it: the
                        # successor's applied-log dedup makes the resend
                        # exactly-once.
                        fields["retry"] = True
                    link = None
                    continue
                self._beat()
                if self._metrics_on:
                    self._latency_hist(op).observe(self._clock() - t0)
                return result
        finally:
            self.inflight -= 1

    async def _successor(self) -> AsyncLeaseClient:
        """The live link, once any recovery under way has finished."""
        if self.state == "recovering" and not self._closing:
            if self._waiting >= HOLD_LIMIT:
                raise ServeError(
                    "backpressure",
                    f"worker {self.index} is recovering with "
                    f"{self._waiting} calls already waiting "
                    f"(hold limit {HOLD_LIMIT})",
                )
            self._waiting += 1
            self._held_counter.inc()
            try:
                while self.state == "recovering":
                    await self._recovered.wait()
            finally:
                self._waiting -= 1
        if self.state != "up" or self._closing:
            raise self._gone()
        self.redriven_frames += 1
        return self.link

    def _gone(self) -> ServeError:
        if self._closing:
            why = "router is shutting down"
        elif self.supervised:
            why = f"did not come back after {MAX_RESPAWNS} respawn attempts"
        else:
            why = "connection lost"
        return ServeError("unavailable", f"worker {self.index}: {why}")

    def begin_shutdown(self) -> None:
        """Stop treating link EOF as worker death: shutdown is expected.

        Called before the router broadcasts ``shutdown`` to the fleet.
        A worker that acks the broadcast closes its end of the link
        while it writes its final snapshots; without this flag the
        read-EOF supervision path would mistake that for a crash and
        ``respawn`` — whose first act is SIGKILLing the old process —
        cutting the graceful stop short mid-snapshot.
        """
        self._closing = True

    # ------------------------------------------------------------------
    # Death, recovery, heartbeat
    # ------------------------------------------------------------------
    async def _watch(self, link: AsyncLeaseClient) -> None:
        # Read-EOF death detection: the kernel closes a dead process's
        # sockets, so the link's reader stops at once.
        await link.wait_closed()
        self._link_died(link)

    def _link_died(self, link: AsyncLeaseClient) -> None:
        if link is not self.link or self._closing:
            return  # already handled, or an expected shutdown EOF
        self.link = None
        self.state = "recovering" if self.supervised else "down"
        self.liveness.declare_dead(self.index)
        self._deaths.inc()
        self._recovered.clear()
        self._recover_task = asyncio.create_task(self._recover(link))

    async def _recover(self, dead: AsyncLeaseClient) -> None:
        try:
            # Closing fails whatever else was in flight on the dead
            # link, so those calls join the wait for its successor.
            await dead.close()
            if not self.supervised:
                return
            loop = asyncio.get_running_loop()
            delay = RESPAWN_BACKOFF
            for attempt in range(1, MAX_RESPAWNS + 1):
                try:
                    path = await loop.run_in_executor(
                        None, self.respawn, self.index
                    )
                    kind, address = parse_worker_endpoint(str(path))
                    path = format_endpoint(kind, *address)
                    link = await _open_link(
                        self.index, path, self.spec, self.retry_for,
                        self.codec_pref,
                    )
                except Exception:
                    self.respawn_failures += 1
                    if attempt < MAX_RESPAWNS:
                        await asyncio.sleep(delay * (0.5 + random.random()))
                        delay = min(delay * 2, RESPAWN_BACKOFF_CAP)
                    continue
                self._respawns.inc()
                self.respawns_done += 1
                self.path = path
                self._install(link)
                return
        finally:
            if self.state == "recovering":
                self.state = "down"
            self._recovered.set()

    async def _heartbeat(self) -> None:
        # Read-EOF catches a dead process instantly; the heartbeat is
        # for the hung-but-alive worker, whose socket never closes.  A
        # timed-out hello closes the link so the death path takes over.
        while True:
            await asyncio.sleep(HEARTBEAT_EVERY)
            link = self.link
            if link is None or self._closing:
                continue
            try:
                await asyncio.wait_for(
                    self.call_checked("hello"), timeout=HEARTBEAT_TIMEOUT
                )
            except asyncio.TimeoutError:
                await link.close()
            except Exception:
                self.heartbeat_errors += 1

    async def close(self) -> None:
        self._closing = True
        for task in (
            self._heartbeat_task, self._recover_task, self._watch_task
        ):
            if task is not None:
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        if self.link is not None:
            await self.link.close()
            self.link = None


class ClusterRouter:
    """The control plane over a fleet of lease-server workers.

    Args:
        spec: the cluster topology (resources, workers, shard groups).
        metrics: live instrumentation registry shared by every worker
            link (call latency histograms, codec-mix frame counters,
            link-failure counters); ``None`` disables continuous
            sampling — the ``metrics`` verb still answers with the
            scrape-time export either way.
        respawn: ``respawn(index) -> socket_path`` callback that
            restarts a dead worker and returns the socket to redial
            (see :func:`~repro.cluster.procs.make_respawner`).  Enables
            supervision: worker death is detected (read-EOF plus
            heartbeat), the worker restarted with backoff, and calls
            wait for it and are sent again (in-flight mutations with
            the ``retry`` marker).  ``None`` keeps the fail-fast
            contract: a call to a dead worker fails as ``unavailable``.
            The module constants :data:`HOLD_LIMIT`,
            :data:`MAX_RESPAWNS`, :data:`RESPAWN_BACKOFF`,
            :data:`HEARTBEAT_EVERY` and :data:`HEARTBEAT_TIMEOUT` shape
            the supervision.
        collect_worker_metrics: fold each worker's *own* scrape (its
            ``metrics`` verb, live histograms included) into the
            router's exposition, every sample relabeled with
            ``worker="N"``; the router then skips its own shard/session
            fold so no family is reported twice.  Enable when the
            workers run with live metrics (``--worker-metrics``).
    """

    def __init__(
        self,
        spec: ClusterSpec,
        metrics: MetricsRegistry | None = None,
        respawn=None,
        collect_worker_metrics: bool = False,
        history: MetricsHistory | None = None,
        profiler: SamplingProfiler | None = None,
        liveness: WorkerLiveness | None = None,
    ):
        self.spec = spec
        # Control-plane health state: beats ride every frame the links
        # read, states derive from the tracker's (injectable) clock.
        self.liveness = (
            liveness if liveness is not None
            else WorkerLiveness(spec.num_workers)
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            enabled=False
        )
        self.respawn = respawn
        self.collect_worker_metrics = collect_worker_metrics
        # Same live-debugging surface as a single server: a snapshot
        # ring over the router's registry and an off-until-asked
        # profiler, both mounted by the admin plane.
        self.history = (
            history if history is not None else MetricsHistory(self.metrics)
        )
        self.profiler = (
            profiler if profiler is not None else SamplingProfiler()
        )
        self._profile_lock = asyncio.Lock()
        self._history_task: asyncio.Task | None = None
        self._slots: list[_WorkerSlot] = []
        self._state = "serving"
        self._servers: list[asyncio.base_events.Server] = []
        self._conns: set = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._stopped = asyncio.Event()
        self._shutdown_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current lifecycle state: serving, draining, or stopped."""
        return self._state

    @property
    def num_workers(self) -> int:
        return len(self._slots)

    async def connect_workers(
        self,
        endpoints,
        retry_for: float = 10.0,
        codec: str = CODEC_BIN,
    ) -> None:
        """Dial every worker endpoint, negotiate codecs, validate configs.

        ``endpoints`` accepts ``unix:<path>`` / ``tcp:<host>:<port>``
        strings; bare socket paths keep working (normalised to unix).
        """
        paths = list(endpoints)
        if len(paths) != self.spec.num_workers:
            raise ModelError(
                f"spec names {self.spec.num_workers} workers but "
                f"{len(paths)} socket paths / endpoints were given"
            )
        try:
            for index, path in enumerate(paths):
                slot = _WorkerSlot(
                    index, path, self.spec, codec, retry_for, self.metrics,
                    self.liveness, respawn=self.respawn,
                )
                await slot.open()
                self._slots.append(slot)
        except BaseException:
            # One bad worker must not strand the slots (and their
            # reader tasks) already opened to the good ones.
            for slot in self._slots:
                await slot.close()
            self._slots.clear()
            raise

    async def start_unix(self, path: str) -> None:
        """Start accepting tenants on a unix socket at ``path``."""
        self._require_links()
        server = await asyncio.start_unix_server(
            self._handle_connection, path=path
        )
        self._servers.append(server)

    async def start_tcp(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        reuse_port: bool = False,
    ) -> int:
        """Start accepting tenants on TCP; returns the bound port.

        ``reuse_port=True`` binds with ``SO_REUSEPORT`` so several
        router replicas can share one port — the router holds no
        per-tenant state, so the kernel can spread handshake/barrier
        connections across replicas.
        """
        self._require_links()
        server = await asyncio.start_server(
            self._handle_connection, host=host, port=port,
            reuse_port=reuse_port or None,
        )
        self._servers.append(server)
        return server.sockets[0].getsockname()[1]

    def _require_links(self) -> None:
        if not self._slots:
            raise ModelError(
                "connect_workers must succeed before the router listens"
            )
        if self.history.enabled and self._history_task is None:
            self._history_task = asyncio.create_task(
                self._sample_history(), name="router-history-sampler"
            )

    async def _sample_history(self) -> None:
        # asyncio.sleep paces the loop; each sample timestamps itself on
        # the ring's injectable clock.
        while True:
            await asyncio.sleep(self.history.interval)
            self.history.sample()

    async def shutdown(self) -> None:
        """Stop listeners, shut every worker over its link, unwind."""
        if self._state == "stopped":
            await self._stopped.wait()
            return
        self._state = "stopped"
        for server in self._servers:
            server.close()
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:
                pass
        if self._slots:
            # Expected EOFs ahead: a worker that acks the broadcast
            # closes its link while writing final snapshots, which must
            # not trip the death-detection respawn path.
            for slot in self._slots:
                slot.begin_shutdown()
            # One concurrent broadcast bounds the whole phase at the
            # timeout even when several workers hang.  A slot without a
            # live link refuses at once; the caller reaps its process.
            async def _stop_worker(slot: _WorkerSlot) -> None:
                try:
                    await asyncio.wait_for(
                        slot.call_checked("shutdown"), timeout=10.0
                    )
                except Exception:
                    pass

            await asyncio.gather(
                *(_stop_worker(slot) for slot in self._slots)
            )
        for slot in self._slots:
            await slot.close()
        if self._history_task is not None:
            self._history_task.cancel()
            try:
                await self._history_task
            except asyncio.CancelledError:
                pass
        self.profiler.stop()
        current = asyncio.current_task()
        lingering = [
            task for task in tuple(self._conn_tasks) if task is not current
        ]
        for writer in tuple(self._conns):
            writer.close()
        if lingering:
            await asyncio.gather(*lingering, return_exceptions=True)
        self._stopped.set()

    async def run_until_stopped(self) -> None:
        """Block until :meth:`shutdown` completes."""
        await self._stopped.wait()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def _hello(self) -> dict:
        spec = self.spec
        schedule = spec.schedule()
        return {
            "server": "repro.cluster",
            "protocol": PROTOCOL_VERSION,
            "trace": True,
            "state": self._state,
            "record": spec.record,
            "num_resources": spec.num_resources,
            "num_shards": spec.total_shards,
            "ranges": [list(r) for r in spec.ranges],
            "schedule": {
                "num_types": schedule.num_types,
                "lengths": [t.length for t in schedule],
                "costs": [t.cost for t in schedule],
            },
            "cluster": {
                "workers": spec.num_workers,
                "shards_per_worker": spec.shards_per_worker,
                "worker_ranges": [list(r) for r in spec.worker_ranges],
                "direct": True,
                "transport": spec.transport,
            },
        }

    @property
    def route_epoch(self) -> int:
        """The fleet's routing epoch: total successful respawns.

        Endpoints are stable across respawns (same socket file / same
        port), so what a direct client must notice after a ``kill -9``
        is not a moved address but a *new process* behind the old one —
        the epoch moves exactly when that happens, and a ``route`` call
        carrying a stale epoch gets a typed ``stale-route`` error
        telling the client to re-handshake.
        """
        return sum(slot.respawns_done for slot in self._slots)

    def route_table(self) -> dict:
        """The ``route`` reply: resource->worker map plus data endpoints."""
        liveness = self.liveness.states()
        workers = self.spec.route_workers(
            [slot.path for slot in self._slots]
        )
        for slot, row in zip(self._slots, workers):
            row["epoch"] = slot.respawns_done
            row["state"] = slot.state
            row["liveness"] = liveness[slot.index]
        return {
            "epoch": self.route_epoch,
            "num_resources": self.spec.num_resources,
            "transport": self.spec.transport,
            "workers": workers,
        }

    async def _tick(self, payload: dict) -> dict:
        """Broadcast one tick to every worker; answer the latest day.

        A traced tick propagates its context verbatim to every worker —
        the broadcast is fan-out, so the workers' dispatch spans parent
        to the client span directly.  (A recovering slot's tick waits
        for the respawned worker like its other calls.)
        """
        when = field_time(payload)
        if self._state == "stopped":
            raise ServeError("unavailable", "cluster is stopped")
        extra = {"trace": payload["trace"]} if "trace" in payload else {}
        results = await asyncio.gather(
            *(
                slot.call_checked("tick", time=when, **extra)
                for slot in self._slots
            )
        )
        return {"applied_time": max(r["applied_time"] for r in results)}

    async def _broadcast(self, op: str) -> list[dict]:
        return list(
            await asyncio.gather(
                *(slot.call_checked(op) for slot in self._slots)
            )
        )

    def _own_shards(self, results: list[dict]):
        """``(slot, shard)`` for each worker's own group, in global order."""
        for slot, result in zip(self._slots, results):
            lo, hi = self.spec.group(slot.index)
            by_index = {
                shard.get("index"): shard
                for shard in result.get("shards") or []
            }
            for shard_index in range(lo, hi):
                shard = by_index.get(shard_index)
                if shard is None:
                    raise ServeError(
                        "unavailable",
                        f"worker {slot.index} reported no shard {shard_index}",
                    )
                yield slot, shard

    def _kept_shards(self, results: list[dict]) -> list[dict]:
        """Each worker's own shard group, by global index, in order."""
        return [shard for _slot, shard in self._own_shards(results)]

    async def _control(self, op: str, payload: dict) -> dict:
        if op in MUTATION_OPS and op != "tick":
            # The data plane is direct: only the owning worker applies
            # a mutation, and the route handshake says which one it is.
            raise ServeError(
                "protocol",
                f"{op!r} is not served by the cluster router; call "
                "'route' for the resource->worker table and send it to "
                "the owning worker",
            )
        if op == "tick":
            return await self._tick(payload)
        if op == "route":
            # The routing handshake and the heartbeat are one verb: a
            # bare call returns the table, a call carrying the client's
            # cached epoch doubles as a staleness check — if supervision
            # replaced a worker since, the typed error tells the client
            # to drop its cached table and re-handshake.
            known = payload.get("epoch")
            current = self.route_epoch
            if known is not None and int(known) != current:
                raise ServeError(
                    "stale-route",
                    f"routing epoch moved {int(known)} -> {current}; "
                    "re-handshake",
                )
            return self.route_table()
        if op == "stats":
            results = await self._broadcast("stats")
            return {
                "state": self._state,
                "cluster": {
                    "workers": self.spec.num_workers,
                    "shards_per_worker": self.spec.shards_per_worker,
                },
                "workers": [
                    {
                        "index": slot.index,
                        "state": result["state"],
                        "codec": slot.codec,
                        "inflight": slot.inflight,
                        "slot": slot.state,
                        "sessions": result["sessions"],
                    }
                    for slot, result in zip(self._slots, results)
                ],
                "shards": self._kept_shards(results),
            }
        if op in ("report", "trace"):
            return {"shards": self._kept_shards(await self._broadcast(op))}
        if op == "metrics":
            parts = [
                self.render_metrics(
                    await self._broadcast("stats"),
                    include_shards=not self.collect_worker_metrics,
                )
            ]
            if self.collect_worker_metrics:
                worker_texts = await self._broadcast("metrics")
                parts.extend(
                    relabel_exposition(result["text"], worker=str(slot.index))
                    for slot, result in zip(self._slots, worker_texts)
                )
            # Workers share family names with each other (and the
            # router may share session families with them): merge, do
            # not concatenate, so each family is declared exactly once.
            return {"text": merge_expositions(*parts)}
        if op == "leases":
            return {"shards": await self._cluster_leases()}
        if op == "spans":
            return {"spans": await self.federated_spans(payload.get("trace"))}
        if op == "drain":
            await self._broadcast("drain")
            if self._state == "serving":
                self._state = "draining"
            return {"state": self._state}
        if op == "undrain":
            await self._broadcast("undrain")
            if self._state == "draining":
                self._state = "serving"
            return {"state": self._state}
        raise ServeError(
            "protocol", f"unknown op {op!r}; known: {', '.join(OPS)}"
        )

    async def _cluster_leases(self) -> list[dict]:
        """The fleet's lease book: each worker's own shards, ids prefixed.

        A worker names its leases ``<shard>:<grant_id>``; the cluster
        form is ``<worker>:<shard>:<grant_id>``, so an id identifies the
        owning process too and force-release can route without a scan.
        """
        results = await self._broadcast("leases")
        return [
            dict(
                shard,
                leases=[
                    dict(lease, lease_id=f"{slot.index}:{lease['lease_id']}")
                    for lease in shard.get("leases") or []
                ],
            )
            for slot, shard in self._own_shards(results)
        ]

    def render_metrics(
        self, results: list[dict], include_shards: bool = True
    ) -> str:
        """The cluster's Prometheus text exposition, from a stats barrier.

        ``results`` are the workers' ``stats`` payloads, one per link.
        Each worker's own shard group exports through the same folder a
        single server uses — so broker counters carry identical names
        cluster-wide, just with a ``worker`` label ahead of ``shard`` —
        plus per-worker link gauges (in-flight calls, liveness) and the
        supervision tallies (respawns performed, frames redriven after a
        respawn, failed respawn attempts, failed heartbeats).  The
        router's live registry (call latency, codec mix, link failures)
        is appended when metrics are enabled; family names are
        disjoint, so the concatenation stays valid.

        ``include_shards=False`` skips the shard/session fold — the
        ``metrics`` verb uses it when it appends the workers' own
        relabeled scrapes, which already carry those families.
        """
        registry = MetricsRegistry(clock=self.metrics.clock)
        for slot, result in zip(self._slots, results):
            worker = str(slot.index)
            registry.gauge(
                "cluster_worker_inflight",
                help="Unanswered ops on the worker link at scrape time.",
                worker=worker,
            ).set(slot.inflight)
            registry.gauge(
                "cluster_worker_up",
                help="1 when the worker's link is up, 0 while it is "
                "recovering or gone.",
                worker=worker,
            ).set(1.0 if slot.state == "up" else 0.0)
            registry.gauge(
                "cluster_worker_liveness",
                help="Beat-derived liveness: 2 up, 1 suspect, 0 dead.",
                worker=worker,
            ).set(
                {LIVE_UP: 2.0, LIVE_SUSPECT: 1.0}.get(
                    self.liveness.state(slot.index), 0.0
                )
            )
            for name, value, help_text in (
                ("cluster_worker_respawns_total", slot.respawns_done,
                 "Worker restarts supervision completed successfully."),
                ("cluster_redriven_frames_total", slot.redriven_frames,
                 "In-flight and held frames redriven onto a respawned "
                 "worker."),
                ("cluster_respawn_failures_total", slot.respawn_failures,
                 "Respawn attempts that failed before the worker came "
                 "back."),
                ("cluster_heartbeat_errors_total", slot.heartbeat_errors,
                 "Supervision heartbeats that failed with an error "
                 "other than a timeout."),
            ):
                registry.counter(name, help=help_text, worker=worker).inc(
                    value
                )
            if not include_shards:
                continue
            lo, hi = self.spec.group(slot.index)
            by_index = {
                shard.get("index"): shard
                for shard in result.get("shards") or []
            }
            own = [
                by_index[index]
                for index in range(lo, hi)
                if by_index.get(index) is not None
            ]
            export_shards(registry, own, worker=worker)
            export_sessions(registry, result["sessions"], worker=worker)
        text = registry.render_prometheus()
        if self.metrics.enabled:
            text += self.metrics.render_prometheus()
        return text

    # ------------------------------------------------------------------
    # Admin backend — the surface repro.admin.AdminPlane mounts over HTTP
    # ------------------------------------------------------------------
    async def admin_metrics(self) -> str:
        """The ``GET /metrics`` exposition (same text as the wire verb)."""
        return (await self._control("metrics", {}))["text"]

    def admin_health(self) -> dict:
        """Liveness: router state plus each worker slot's condition."""
        return {
            "state": self._state,
            "workers": [
                {
                    "index": slot.index,
                    "slot": slot.state,
                    "inflight": slot.inflight,
                    "respawns": slot.respawns_done,
                    "liveness": self.liveness.state(slot.index),
                }
                for slot in self._slots
            ],
        }

    def admin_ready(self) -> tuple[bool, dict]:
        """Readiness: every worker link up and the router admitting work."""
        slots_up = all(slot.state == "up" for slot in self._slots)
        ready = bool(self._slots) and slots_up and self._state == "serving"
        return ready, {
            "ready": ready,
            "state": self._state,
            "workers_up": slots_up,
            "workers": {
                str(slot.index): slot.state for slot in self._slots
            },
        }

    async def admin_leases(
        self, tenant: str | None = None, resource: int | None = None
    ) -> list[dict]:
        """The fleet's live lease book, filtered and stably sorted."""
        shards = await self._cluster_leases()
        book = [
            lease
            for shard in shards
            for lease in shard["leases"]
            if (tenant is None or lease["tenant"] == tenant)
            and (resource is None or lease["resource"] == resource)
        ]
        book.sort(key=lambda l: (l["resource"], l["tenant"], l["lease_id"]))
        return book

    async def admin_force_release(self, lease_id: str) -> dict | None:
        """Durably force-release one lease anywhere in the fleet.

        The release is a router call on the owning worker's slot, so it
        is WAL'd by the worker, recorded as a replayable event, and,
        should the worker die mid-op, resent by supervision with the
        ``retry`` marker, which the worker's applied-log dedup collapses
        to exactly-once.
        """
        book = await self.admin_leases()
        lease = next(
            (l for l in book if l["lease_id"] == lease_id), None
        )
        if lease is None:
            return None
        slot = self._slots[self.spec.worker_of(lease["resource"])]
        result = await slot.call_checked(
            "release",
            tenant=lease["tenant"],
            resource=lease["resource"],
            time=0,
        )
        return {"lease_id": lease_id, "released": dict(lease), **result}

    async def admin_drain(self, worker: int) -> str | None:
        """Drain one worker (refuse its new acquires); router state kept."""
        if not 0 <= worker < len(self._slots):
            return None
        result = await self._slots[worker].call_checked("drain")
        return result["state"]

    async def admin_undrain(self, worker: int) -> str | None:
        if not 0 <= worker < len(self._slots):
            return None
        result = await self._slots[worker].call_checked("undrain")
        return result["state"]

    async def federated_spans(
        self, trace_id: str | None = None
    ) -> list[dict]:
        """The fleet's live spans: every worker's sink, tagged by worker.

        The trace analogue of the ``--worker-metrics`` fold: the router
        broadcasts the ``spans`` verb so each worker answers from its
        live sink — including spans a pre-crash incarnation wrote, since
        sinks append across respawns — and each worker's spans are
        tagged ``worker="N"``.  With ``trace_id``, every worker answers
        from its by-id index when that holds the whole trace and filters
        at the source, so only the matching spans cross the wire.
        """
        fields = {} if trace_id is None else {"trace": trace_id}
        answers = await asyncio.gather(
            *(slot.call_checked("spans", **fields) for slot in self._slots)
        )
        return [
            dict(span, worker=str(slot.index))
            for slot, answer in zip(self._slots, answers)
            for span in answer.get("spans") or []
        ]

    async def admin_trace(self, trace_id: str) -> list[dict] | None:
        """The *federated* span tree for one trace id, mid-run.

        Pulls the matching spans live from every worker's sink (the
        ``spans`` broadcast), links them into one causal tree, and
        returns the nested payload — structurally identical to ``engine
        trace-tree`` over the offline-merged fleet JSONL, because both
        feed :func:`build_trace_trees`, which dedupes by ``(trace,
        span_id)`` and orders children by ``(t_enq, span_id)``.
        ``None`` when no worker holds spans for the id.
        """
        spans = await self.federated_spans(trace_id)
        trees = build_trace_trees(spans)
        roots = trees.get(trace_id)
        if not roots:
            return None
        return trace_tree_payload(roots)

    def admin_history(
        self, family: str | None = None, window: float | None = None
    ) -> dict:
        """``GET /metrics/history``: windowed deltas/rates from the ring."""
        return self.history.query(family=family, window=window)

    async def admin_profile(self, seconds: float) -> dict:
        """``GET /profile?seconds=``: capture the router's own stacks."""
        async with self._profile_lock:
            started_here = not self.profiler.running
            if started_here:
                self.profiler.clear()
                self.profiler.start()
            try:
                await asyncio.sleep(seconds)
            finally:
                if started_here:
                    self.profiler.stop()
            return self.profiler.snapshot()

    async def _handle_connection(self, reader, writer) -> None:
        """Answer one client's control requests, in read order.

        Every request is small, so the reader is capped at
        :data:`MAX_REQUEST_BYTES` like a single server's: a larger
        header draws a ``protocol`` error frame and the connection
        closes.  A body cut off mid-frame is a hang-up.
        """
        self._conns.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        codec = CODEC_JSON
        try:
            while True:
                try:
                    payload = await read_frame(
                        reader, max_frame=MAX_REQUEST_BYTES
                    )
                except ProtocolError as exc:
                    await write_frame(
                        writer, error(None, "protocol", str(exc)), codec
                    )
                    break
                except asyncio.IncompleteReadError:
                    break
                if payload is None:
                    break
                request_id = payload.get("id")
                op = payload.get("op")
                if op == "hello":
                    # An explicit `codec` field renegotiates; a bare
                    # hello is introspection and keeps the current codec.
                    if "codec" in payload:
                        codec = negotiate_codec(payload.get("codec"))
                    response = ok(request_id, {**self._hello(), "codec": codec})
                elif op == "shutdown":
                    await write_frame(
                        writer, ok(request_id, {"state": "stopped"}), codec
                    )
                    self._shutdown_task = asyncio.create_task(self.shutdown())
                    break
                else:
                    try:
                        response = ok(
                            request_id, await self._control(op, payload)
                        )
                    except ServeError as exc:
                        response = error(request_id, exc.kind, exc.message)
                await write_frame(writer, response, codec)
        except ConnectionError:
            pass  # the client went away mid-reply
        finally:
            self._conns.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass
