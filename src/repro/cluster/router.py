"""The cluster front end: one router socket over N worker processes.

:class:`ClusterRouter` is what tenants dial.  It speaks the exact
protocol of a single :class:`~repro.serve.server.LeaseServer` — same
ops, same frames, same ``hello`` shape (plus a ``cluster`` block) — so
every existing client, the loadgen, and the CLI work against a cluster
unchanged.  Behind it, mutations route by resource to the worker whose
shard group owns them; control ops fan out as *barriers* and the results
merge back into single-server shapes.

**Routing and ordering.**  Each worker is reached through one
:class:`_WorkerLink`: a pipelined connection with its own id space, a
coalescing writer (every flush drains the whole outgoing queue through
one ``writelines``) and a reader that relays responses back to the
owning client connection, ids rewritten.  A client connection's frames
are routed *synchronously in read order*, so two ops from the same
tenant to the same worker stay ordered end to end — the same
serialization the single server's shard queues provide.  ``tick``
broadcasts to every worker (the shared clock skeleton); the barrier
reads (``stats`` / ``report`` / ``trace``) ride the same links after any
already-routed mutations, so they observe everything enqueued before
them, worker by worker.

**Backpressure propagation.**  Per-worker in-flight is bounded: a
mutation that would push a link past ``worker_window`` unanswered ops is
refused immediately with a ``backpressure`` error frame — the cluster
analogue of the server's per-tenant windows, which the workers still
enforce behind the router and whose refusals relay through verbatim.

**Merge discipline.**  Every worker runs the *global* shard tiling (see
:class:`~repro.cluster.spec.ClusterSpec`), so its ``report``/``trace``
payloads carry global shard indices.  The router keeps exactly each
worker's own group — by index, in global order — and concatenates, which
reproduces the shard list a single ``LeaseServer`` with ``total_shards``
shards would have reported.  Merging those payloads with
:func:`~repro.engine.scenarios.merge_broker_runs` therefore equals the
inline replay of the merged trace byte for byte, the identity the
``cluster-*`` scenarios and CI gate continuously.

**Supervision and recovery.**  With a ``respawn`` callback configured,
every link lives inside a :class:`_WorkerSlot` supervisor.  A worker
death is detected two ways — the link reader hits EOF the moment the
process dies (the kernel closes its sockets), and a periodic heartbeat
``hello`` catches a process that is alive but hung.  The slot then takes
ownership of the link's unanswered ops, *holds* every new frame for that
worker in a bounded queue, and restarts the worker through the callback
(off the event loop) with jittered exponential backoff between
attempts.  Once the successor is up — having replayed its WAL, when the
fleet is durable — the slot resends the in-flight ops oldest-first with
a ``retry`` marker (the worker's applied-log dedup makes the resend
exactly-once) and then releases the held frames in arrival order, so
per-connection FIFO order survives the crash end to end.  Tenants
observe a stall, not an error; only a worker that stays dead past the
respawn budget fails its traffic with typed ``unavailable`` frames.

**Drain and shutdown.**  ``drain`` broadcasts to every worker, then
flips the router, so new acquires are refused at both layers while
renews/releases complete.  ``shutdown`` acks the caller, stops the
listeners, shuts every worker over its link, fails anything still
pending as ``unavailable``, and wakes :meth:`run_until_stopped`.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from collections import deque

from ..errors import ModelError
from ..obs.export import export_sessions, export_shards
from ..obs.history import MetricsHistory
from ..obs.metrics import MetricsRegistry
from ..obs.profile import SamplingProfiler
from ..obs.promparse import merge_expositions, relabel_exposition
from ..obs.trace import NULL_TRACE, TraceSink
from ..obs.tracetree import (
    build_trace_trees,
    new_id,
    trace_tree_payload,
)
from ..serve.protocol import (
    CODEC_BIN,
    CODEC_JSON,
    MUTATION_OPS,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    ServeError,
    encode_frame,
    error,
    negotiate_codec,
    ok,
    parse_response,
    read_frame,
    request,
    write_frame,
)
from ..serve.server import (
    field_resource,
    field_tenant,
    field_time,
    trace_context,
)
from .liveness import LIVE_SUSPECT, LIVE_UP, WorkerLiveness
from .spec import ClusterSpec, format_endpoint, parse_endpoint


async def _dial(endpoint: str):
    """Open a stream to a worker endpoint, unix or tcp."""
    kind, address = parse_endpoint(endpoint)
    if kind == "unix":
        return await asyncio.open_unix_connection(address[0])
    return await asyncio.open_connection(address[0], address[1])


async def _drain_queue_into(queue: asyncio.Queue, batch: list) -> None:
    batch.append(await queue.get())
    while not queue.empty():
        batch.append(queue.get_nowait())


class _ClientConn:
    """One tenant connection: codec state plus a coalescing out-pump."""

    __slots__ = ("reader", "writer", "codec_ref", "outq", "closed", "pump")

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.codec_ref = [CODEC_JSON]
        self.outq: asyncio.Queue = asyncio.Queue()
        self.closed = False
        self.pump = asyncio.create_task(self._pump())

    def send(self, payload: dict) -> None:
        """Queue one response payload; encoded at flush with the conn codec."""
        if not self.closed:
            self.outq.put_nowait(payload)

    async def _pump(self) -> None:
        while True:
            batch: list[dict] = []
            await _drain_queue_into(self.outq, batch)
            codec = self.codec_ref[0]
            try:
                self.writer.writelines(
                    [encode_frame(payload, codec) for payload in batch]
                )
                await self.writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                pass  # client went away; its responses have nowhere to go
            finally:
                for _ in batch:
                    self.outq.task_done()

    async def close(self) -> None:
        self.closed = True
        try:
            await asyncio.wait_for(self.outq.join(), timeout=5.0)
        except (asyncio.TimeoutError, Exception):
            pass
        self.pump.cancel()
        try:
            await self.pump
        except (asyncio.CancelledError, Exception):
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except Exception:
            pass


class _WorkerLink:
    """The router's pipelined connection to one worker process."""

    __slots__ = (
        "index", "reader", "writer", "codec", "_ids", "_pending", "outq",
        "_pump_task", "_read_task", "_metrics_on", "_clock", "_registry",
        "_latency", "_frames", "_failures", "_on_death", "_on_beat",
        "_closing", "_trace",
    )

    def __init__(
        self,
        index: int,
        reader,
        writer,
        codec: str,
        metrics: MetricsRegistry | None = None,
        on_death=None,
        on_beat=None,
        trace: TraceSink | None = None,
    ):
        self.index = index
        self.reader = reader
        self.writer = writer
        self.codec = codec
        self._on_beat = on_beat
        self._ids = itertools.count(1)
        #: link id -> (conn, client id, None, op, payload, t0, span) for
        #: relays, (None, None, future, op, payload, t0, None) for
        #: router calls.  The payload rides along so a supervisor can
        #: resend the op verbatim on a successor link; ``span`` is the
        #: relay span context (trace id, relay span id, parent span id,
        #: tenant, resource) when the frame carried one and the router
        #: traces, else None.
        self._pending: dict[int, tuple] = {}
        self._trace = trace if trace is not None else NULL_TRACE
        self._on_death = on_death
        self._closing = False
        self.outq: asyncio.Queue = asyncio.Queue()
        registry = metrics if metrics is not None else MetricsRegistry(
            enabled=False
        )
        self._registry = registry
        self._metrics_on = registry.enabled
        self._clock = registry.clock
        self._latency: dict = {}
        self._frames = registry.counter(
            "cluster_worker_frames_total",
            help="Frames the router sent to this worker, by wire codec.",
            worker=str(index),
            codec=codec,
        )
        self._failures = registry.counter(
            "cluster_link_failures_total",
            help="In-flight ops failed because the worker link died.",
            worker=str(index),
        )
        self._pump_task = asyncio.create_task(self._pump())
        self._read_task = asyncio.create_task(self._read_loop())

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

    # ------------------------------------------------------------------
    # Construction: dial, negotiate the codec, validate the worker
    # ------------------------------------------------------------------
    @classmethod
    async def open(
        cls,
        index: int,
        endpoint: str,
        spec: ClusterSpec,
        retry_for: float = 10.0,
        codec: str = CODEC_BIN,
        metrics: MetricsRegistry | None = None,
        on_death=None,
        on_beat=None,
        trace: TraceSink | None = None,
    ) -> "_WorkerLink":
        deadline = asyncio.get_running_loop().time() + retry_for
        while True:
            try:
                reader, writer = await _dial(endpoint)
                break
            except (ConnectionRefusedError, FileNotFoundError, OSError):
                if asyncio.get_running_loop().time() >= deadline:
                    raise
                await asyncio.sleep(0.05)
        # Negotiate and validate before the pumps start, on the raw
        # stream: worker id 0 is reserved for this one handshake.  Any
        # handshake failure closes the fresh connection — a raised
        # ModelError must not leak the socket.
        try:
            await write_frame(writer, request("hello", 0, codec=codec))
            payload = await read_frame(reader)
            if payload is None:
                raise ModelError(f"worker {index} hung up during hello")
            hello = parse_response(payload)
            cls._validate_hello(index, hello, spec)
        except BaseException:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass
            raise
        chosen = negotiate_codec(hello.get("codec")) if codec == CODEC_BIN else CODEC_JSON
        return cls(
            index, reader, writer, chosen, metrics=metrics,
            on_death=on_death, on_beat=on_beat, trace=trace,
        )

    @staticmethod
    def _validate_hello(index: int, hello: dict, spec: ClusterSpec) -> None:
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

    # ------------------------------------------------------------------
    # The two send paths: relays and router-originated calls
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Unanswered ops on this link — the backpressure signal."""
        return len(self._pending)

    def forward(self, payload: dict, conn: _ClientConn, client_id) -> None:
        """Relay a client mutation: rewrite the id, queue the frame.

        When the frame carries a trace context and the router has a
        sink, the relay re-parents it: a relay span id is minted, the
        forwarded frame's context names it (so the worker's dispatch
        span becomes the relay span's child), and the relay span itself
        — parented to the client's span — is emitted when the worker
        answers.  The rewrite is stored in pending, so a resend after a
        worker respawn reuses the same relay span identity.
        """
        span = None
        if self._trace.enabled:
            context = trace_context(payload)
            if context is not None:
                relay_span = new_id()
                payload = {**payload, "trace": f"{context[0]}-{relay_span}"}
                span = (
                    context[0], relay_span, context[1],
                    payload.get("tenant"), payload.get("resource"),
                )
        link_id = next(self._ids)
        t0 = (
            self._clock() if self._metrics_on
            else self._trace.clock() if span is not None
            else 0.0
        )
        self._pending[link_id] = (
            conn, client_id, None, payload.get("op"), payload, t0, span
        )
        self._frames.inc()
        self.outq.put_nowait(
            encode_frame({**payload, "id": link_id}, self.codec)
        )

    def call(self, op: str, _future: asyncio.Future | None = None, **fields):
        """A router-originated request; the future resolves to the raw frame.

        ``_future`` lets a supervisor re-attach a caller already awaiting
        an answer (a call held across a worker respawn) instead of
        minting a fresh future nobody awaits.
        """
        link_id = next(self._ids)
        future = (
            _future if _future is not None
            else asyncio.get_running_loop().create_future()
        )
        t0 = self._clock() if self._metrics_on else 0.0
        payload = request(op, link_id, **fields)
        self._pending[link_id] = (None, None, future, op, payload, t0, None)
        self._frames.inc()
        self.outq.put_nowait(encode_frame(payload, self.codec))
        return future

    async def call_checked(self, op: str, **fields) -> dict:
        """Call and parse, raising :class:`ServeError` on error frames."""
        return parse_response(await self.call(op, **fields))

    def resend(self, entry: tuple) -> None:
        """Re-issue one taken pending entry on this (successor) link.

        Mutations travel with ``retry: true`` so a worker that already
        applied the op before dying answers from its applied-log dedup
        instead of applying twice; idempotent control reads go verbatim.
        """
        conn, client_id, future, op, payload, _t0, span = entry
        if future is not None and future.done():
            return
        link_id = next(self._ids)
        t0 = self._clock() if self._metrics_on else 0.0
        self._pending[link_id] = (
            conn, client_id, future, op, payload, t0, span
        )
        self._frames.inc()
        body = {**payload, "id": link_id}
        if op in MUTATION_OPS:
            body["retry"] = True
        self.outq.put_nowait(encode_frame(body, self.codec))

    def take_pending(self) -> list[tuple]:
        """Strip and return the unanswered ops, oldest (lowest id) first."""
        pending, self._pending = self._pending, {}
        return [entry for _link_id, entry in sorted(pending.items())]

    # ------------------------------------------------------------------
    # Pumps
    # ------------------------------------------------------------------
    async def _pump(self) -> None:
        # Op coalescing: one writelines/drain per wakeup moves every
        # frame queued since the last flush — under pipelined load the
        # router amortises its worker-side syscalls across tenants.
        while True:
            batch: list[bytes] = []
            await _drain_queue_into(self.outq, batch)
            try:
                self.writer.writelines(batch)
                await self.writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                pass  # reader loop will observe the dead link and fail pending
            finally:
                for _ in batch:
                    self.outq.task_done()

    async def _read_loop(self) -> None:
        try:
            while True:
                payload = await read_frame(self.reader)
                if payload is None:
                    break
                if self._on_beat is not None:
                    # Any frame off the link is proof of life — heartbeat
                    # replies and relayed responses alike feed liveness.
                    self._on_beat()
                entry = self._pending.pop(payload.get("id"), None)
                if entry is None:
                    continue
                conn, client_id, future, op, _payload, t0, span = entry
                if self._metrics_on:
                    self._latency_hist(op).observe(self._clock() - t0)
                if span is not None:
                    trace_id, span_id, parent, tenant, resource = span
                    self._trace.span(
                        op=op,
                        tenant=tenant,
                        resource=resource,
                        request_id=client_id,
                        t_enq=t0,
                        t_disp=t0,
                        t_reply=self._trace.clock(),
                        trace=trace_id,
                        span_id=span_id,
                        parent=parent,
                        kind="relay",
                    )
                if future is not None:
                    if not future.done():
                        future.set_result(payload)
                else:
                    response = dict(payload)
                    response["id"] = client_id
                    conn.send(response)
        finally:
            # A supervised link hands its unanswered ops to the slot for
            # resend after respawn; an unsupervised (or closing) one
            # fails them, the pre-supervision behaviour.
            if self._on_death is not None and not self._closing:
                self._on_death()
            else:
                self.fail_pending(f"worker {self.index} connection lost")

    def fail_pending(self, why: str) -> None:
        pending, self._pending = self._pending, {}
        if pending:
            self._failures.inc(len(pending))
        for conn, client_id, future, _op, _payload, _t0, _span in \
                pending.values():
            if future is not None:
                if not future.done():
                    future.set_exception(ServeError("unavailable", why))
            else:
                conn.send(error(client_id, "unavailable", why))

    async def close(self) -> None:
        self._closing = True
        for task in (self._pump_task, self._read_task):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self.fail_pending(f"worker {self.index} link closed")
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except Exception:
            pass


class _WorkerSlot:
    """One worker's seat at the router: a link, supervised or not.

    Unsupervised (no ``respawn`` callback) the slot is a pass-through to
    its link and a dead worker fails its in-flight ops, exactly the
    pre-supervision contract.  Supervised, the slot owns recovery: on
    link death it takes the unanswered ops, holds new frames in a
    bounded queue, restarts the worker through ``respawn`` (in an
    executor — it forks processes) with jittered exponential backoff,
    reconnects, resends the taken ops oldest-first with the ``retry``
    marker, then drains the held frames in arrival order.  Exhausting
    ``max_respawns`` fails everything with typed ``unavailable``.
    """

    __slots__ = (
        "index", "path", "spec", "codec_pref", "retry_for", "link",
        "state", "respawn", "hold_limit", "max_respawns", "backoff_base",
        "backoff_cap", "heartbeat_every", "heartbeat_timeout", "_held",
        "_registry", "_recover_task", "_heartbeat_task", "_closing",
        "_deaths", "_respawns", "_held_counter", "trace",
        "respawns_done", "redriven_frames", "liveness",
    )

    def __init__(
        self,
        index: int,
        endpoint: str,
        spec: ClusterSpec,
        codec_pref: str,
        retry_for: float,
        registry: MetricsRegistry,
        respawn=None,
        hold_limit: int = 4096,
        max_respawns: int = 5,
        backoff_base: float = 0.1,
        backoff_cap: float = 2.0,
        heartbeat_every: float = 2.0,
        heartbeat_timeout: float = 10.0,
        trace: TraceSink | None = None,
        liveness: WorkerLiveness | None = None,
    ):
        self.index = index
        # Normalised endpoint string ("unix:<path>" / "tcp:<host>:<port>"):
        # what the link dials and the route handshake hands to clients.
        kind, address = parse_endpoint(str(endpoint))
        self.path = format_endpoint(kind, *address)
        self.spec = spec
        self.liveness = liveness
        self.codec_pref = codec_pref
        self.retry_for = retry_for
        self.link: _WorkerLink | None = None
        self.state = "up"
        self.respawn = respawn
        self.hold_limit = hold_limit
        self.max_respawns = max_respawns
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.heartbeat_every = heartbeat_every
        self.heartbeat_timeout = heartbeat_timeout
        self._held: deque = deque()
        self._registry = registry
        self.trace = trace if trace is not None else NULL_TRACE
        self._recover_task: asyncio.Task | None = None
        self._heartbeat_task: asyncio.Task | None = None
        self._closing = False
        # Plain-int supervision tallies, kept regardless of whether the
        # live registry is enabled: the scrape-time export renders them
        # as cluster_worker_respawns_total / cluster_redriven_frames_total.
        self.respawns_done = 0
        self.redriven_frames = 0
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

    def _beat(self) -> None:
        if self.liveness is not None:
            self.liveness.beat(self.index)

    async def open(self) -> None:
        """Dial the worker and, when supervised, start the heartbeat."""
        self.link = await _WorkerLink.open(
            self.index, self.path, self.spec, retry_for=self.retry_for,
            codec=self.codec_pref, metrics=self._registry,
            on_death=self._link_died if self.supervised else None,
            on_beat=self._beat if self.liveness is not None else None,
            trace=self.trace,
        )
        self._beat()
        if self.supervised and self._heartbeat_task is None:
            self._heartbeat_task = asyncio.create_task(self._heartbeat())

    # ------------------------------------------------------------------
    # The link surface the router routes through
    # ------------------------------------------------------------------
    @property
    def codec(self) -> str:
        link = self.link
        return link.codec if link is not None else self.codec_pref

    @property
    def inflight(self) -> int:
        link = self.link
        return (link.inflight if link is not None else 0) + len(self._held)

    def forward(self, payload: dict, conn: _ClientConn, client_id) -> None:
        if self.state == "up":
            self.link.forward(payload, conn, client_id)
        elif self.state == "recovering":
            self._hold(("forward", payload, conn, client_id))
        else:
            raise ServeError(
                "unavailable",
                f"worker {self.index} is gone (respawn budget exhausted)",
            )

    def call(self, op: str, **fields) -> asyncio.Future:
        if self.state == "up":
            return self.link.call(op, **fields)
        future = asyncio.get_running_loop().create_future()
        if self.state == "recovering":
            try:
                self._hold(("call", op, fields, future))
            except ServeError as exc:
                future.set_exception(exc)
        else:
            future.set_exception(
                ServeError(
                    "unavailable",
                    f"worker {self.index} is gone "
                    f"(respawn budget exhausted)",
                )
            )
        return future

    async def call_checked(self, op: str, **fields) -> dict:
        return parse_response(await self.call(op, **fields))

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

    def _hold(self, item: tuple) -> None:
        if len(self._held) >= self.hold_limit:
            raise ServeError(
                "backpressure",
                f"worker {self.index} is recovering with "
                f"{len(self._held)} frames already held "
                f"(hold limit {self.hold_limit})",
            )
        self._held_counter.inc()
        self._held.append(item)

    # ------------------------------------------------------------------
    # Death, recovery, heartbeat
    # ------------------------------------------------------------------
    def _link_died(self) -> None:
        link = self.link
        if link is None or self._closing:
            return
        self.link = None
        self.state = "recovering"
        if self.liveness is not None:
            self.liveness.declare_dead(self.index)
        self._deaths.inc()
        pending = link.take_pending()
        self._recover_task = asyncio.create_task(self._recover(link, pending))

    async def _recover(self, dead_link: _WorkerLink, pending: list) -> None:
        try:
            await dead_link.close()
            loop = asyncio.get_running_loop()
            delay = self.backoff_base
            for attempt in range(1, self.max_respawns + 1):
                try:
                    path = await loop.run_in_executor(
                        None, self.respawn, self.index
                    )
                    link = await _WorkerLink.open(
                        self.index, path, self.spec,
                        retry_for=self.retry_for, codec=self.codec_pref,
                        metrics=self._registry, on_death=self._link_died,
                        on_beat=(
                            self._beat if self.liveness is not None else None
                        ),
                        trace=self.trace,
                    )
                except asyncio.CancelledError:
                    raise
                except Exception:
                    if attempt == self.max_respawns:
                        break
                    await asyncio.sleep(delay * (0.5 + random.random()))
                    delay = min(delay * 2, self.backoff_cap)
                    continue
                self._respawns.inc()
                self.respawns_done += 1
                kind, address = parse_endpoint(str(path))
                self.path = format_endpoint(kind, *address)
                self._beat()
                # No awaits from here to the state flip: resends and the
                # held drain land in the link queue atomically, keeping
                # per-connection FIFO order across the crash.
                for entry in pending:
                    link.resend(entry)
                held, self._held = self._held, deque()
                self.redriven_frames += len(pending) + len(held)
                for item in held:
                    if item[0] == "forward":
                        _, payload, conn, client_id = item
                        link.forward(payload, conn, client_id)
                    else:
                        _, op, fields, future = item
                        if not future.done():
                            link.call(op, _future=future, **fields)
                self.link = link
                self.state = "up"
                return
            self.state = "down"
            self._fail_all(
                pending,
                f"worker {self.index} did not come back after "
                f"{self.max_respawns} respawn attempts",
            )
        except asyncio.CancelledError:
            self._fail_all(pending, "router is shutting down")
            raise

    def _fail_all(self, pending: list, why: str) -> None:
        for conn, client_id, future, _op, _payload, _t0, _span in pending:
            if future is not None:
                if not future.done():
                    future.set_exception(ServeError("unavailable", why))
            else:
                conn.send(error(client_id, "unavailable", why))
        held, self._held = self._held, deque()
        for item in held:
            if item[0] == "forward":
                _, payload, conn, client_id = item
                conn.send(error(payload.get("id"), "unavailable", why))
            else:
                _, _op, _fields, future = item
                if not future.done():
                    future.set_exception(ServeError("unavailable", why))

    async def _heartbeat(self) -> None:
        # Read-EOF catches a dead process instantly; the heartbeat is
        # for the hung-but-alive worker, whose socket never closes.  A
        # timed-out hello severs the link so the EOF path takes over.
        while True:
            await asyncio.sleep(self.heartbeat_every)
            link = self.link
            if link is None or self._closing:
                continue
            future = link.call("hello")
            try:
                await asyncio.wait_for(
                    asyncio.shield(future), timeout=self.heartbeat_timeout
                )
            except asyncio.TimeoutError:
                link.writer.close()
            except Exception:
                pass

    async def close(self) -> None:
        self._closing = True
        for task in (self._heartbeat_task, self._recover_task):
            if task is not None:
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        self._fail_all([], "router is shutting down")
        if self.link is not None:
            await self.link.close()


class ClusterRouter:
    """Route tenant traffic over a fleet of lease-server workers.

    Args:
        spec: the cluster topology (resources, workers, shard groups).
        worker_window: per-worker in-flight op bound; a mutation beyond
            it is refused with a ``backpressure`` error frame instead of
            growing the link queue without bound.
        metrics: live instrumentation registry shared by every worker
            link (relay latency histograms, codec-mix frame counters,
            link-failure counters); ``None`` disables continuous
            sampling — the ``metrics`` verb still answers with the
            scrape-time export either way.
        respawn: ``respawn(index) -> socket_path`` callback that
            restarts a dead worker and returns the socket to redial
            (see :func:`~repro.cluster.procs.make_respawner`).  Enables
            supervision: worker death is detected (read-EOF plus
            heartbeat), the worker restarted with backoff, in-flight
            ops resent with the ``retry`` marker, and new frames held
            meanwhile.  ``None`` keeps the fail-fast contract: a dead
            worker fails its in-flight ops as ``unavailable``.
        hold_limit: bound on frames held per recovering worker; beyond
            it new mutations draw ``backpressure`` refusals.
        max_respawns: respawn attempts per death before the worker is
            declared gone and its traffic failed.
        respawn_backoff: base of the jittered exponential backoff
            (seconds) between failed respawn attempts.
        heartbeat_every: seconds between supervision heartbeats.
        heartbeat_timeout: unanswered-heartbeat window after which a
            hung worker's link is severed to force recovery.
        trace: router-side JSONL span sink.  With a sink configured,
            every relayed mutation carrying a trace context leaves a
            ``relay`` span here — parented to the client's span, parent
            of the worker's dispatch span — so a merged fleet trace
            reconstructs the full client → router → worker tree.
            ``None`` disables router spans (contexts still relay
            through to the workers untouched).
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
        worker_window: int = 1024,
        metrics: MetricsRegistry | None = None,
        respawn=None,
        hold_limit: int = 4096,
        max_respawns: int = 5,
        respawn_backoff: float = 0.1,
        heartbeat_every: float = 2.0,
        heartbeat_timeout: float = 10.0,
        trace: TraceSink | None = None,
        collect_worker_metrics: bool = False,
        history: MetricsHistory | None = None,
        profiler: SamplingProfiler | None = None,
        liveness: WorkerLiveness | None = None,
    ):
        if worker_window < 1:
            raise ModelError("worker_window must be >= 1")
        if hold_limit < 1:
            raise ModelError("hold_limit must be >= 1")
        if max_respawns < 1:
            raise ModelError("max_respawns must be >= 1")
        self.spec = spec
        # Control-plane health state: beats ride every frame the links
        # read, states derive from the tracker's (injectable) clock.
        self.liveness = (
            liveness if liveness is not None
            else WorkerLiveness(spec.num_workers)
        )
        self.worker_window = worker_window
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            enabled=False
        )
        self.respawn = respawn
        self.hold_limit = hold_limit
        self.max_respawns = max_respawns
        self.respawn_backoff = respawn_backoff
        self.heartbeat_every = heartbeat_every
        self.heartbeat_timeout = heartbeat_timeout
        self.trace = trace if trace is not None else NULL_TRACE
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
        self._conns: set[_ClientConn] = set()
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
                    respawn=self.respawn,
                    hold_limit=self.hold_limit,
                    max_respawns=self.max_respawns,
                    backoff_base=self.respawn_backoff,
                    heartbeat_every=self.heartbeat_every,
                    heartbeat_timeout=self.heartbeat_timeout,
                    trace=self.trace,
                    liveness=self.liveness,
                )
                await slot.open()
                self._slots.append(slot)
        except BaseException:
            # One bad worker must not strand the slots (and their pump
            # tasks) already opened to the good ones.
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
        router replicas can share one port — with the data plane gone
        direct, the router is a stateless-enough control plane that the
        kernel can spread handshake/barrier connections across replicas.
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
            # timeout even when several workers hang.  Slots without a
            # live link have nothing to shut down over the wire — the
            # caller reaps their processes.
            async def _stop_worker(slot: _WorkerSlot) -> None:
                if slot.link is None:
                    return
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
        for conn in tuple(self._conns):
            conn.writer.close()
        if lingering:
            await asyncio.gather(*lingering, return_exceptions=True)
        self.trace.flush()
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

    def _route_mutation(
        self, op: str, payload: dict, request_id, conn: _ClientConn
    ) -> asyncio.Task | None:
        when = field_time(payload)
        if self._state == "stopped":
            raise ServeError("unavailable", "cluster is stopped")
        if op == "tick":
            # Enqueue on every link *now*, synchronously — a mutation
            # read after this tick lands behind it in each link's FIFO,
            # preserving the single server's read-order serialization.
            # (A recovering slot holds its tick in the same FIFO.)
            # Only the response aggregation is deferred to a task.
            # A traced tick propagates its context verbatim to every
            # worker — the broadcast is fan-out, not relay, so the
            # workers' dispatch spans parent to the client span
            # directly and no relay span is minted.
            extra = (
                {"trace": payload["trace"]} if "trace" in payload else {}
            )
            futures = [
                slot.call("tick", time=when, **extra)
                for slot in self._slots
            ]
            return asyncio.create_task(
                self._finish_tick(futures, request_id, conn)
            )
        if op == "acquire" and self._state != "serving":
            raise ServeError(
                "draining", "cluster is draining; new acquires are refused"
            )
        field_tenant(payload)
        resource = field_resource(payload, self.spec.num_resources)
        slot = self._slots[self.spec.worker_of(resource)]
        if slot.inflight >= self.worker_window:
            raise ServeError(
                "backpressure",
                f"worker {slot.index} has {slot.inflight} ops in flight "
                f"(window {self.worker_window})",
            )
        slot.forward(payload, conn, request_id)
        return None

    async def _finish_tick(
        self, futures: list[asyncio.Future], request_id, conn: _ClientConn
    ) -> None:
        try:
            results = [
                parse_response(payload)
                for payload in await asyncio.gather(*futures)
            ]
            conn.send(
                ok(
                    request_id,
                    {"applied_time": max(r["applied_time"] for r in results)},
                )
            )
        except ServeError as exc:
            conn.send(error(request_id, exc.kind, exc.message))
        except Exception as exc:
            # A malformed worker response must still answer the client —
            # a swallowed exception here would strand the tick forever.
            conn.send(
                error(
                    request_id, "unavailable",
                    f"tick barrier failed: {type(exc).__name__}: {exc}",
                )
            )

    async def _broadcast(self, op: str) -> list[dict]:
        return list(
            await asyncio.gather(
                *(slot.call_checked(op) for slot in self._slots)
            )
        )

    def _kept_shards(self, results: list[dict]) -> list[dict]:
        """Each worker's own shard group, by global index, in order."""
        kept: list[dict] = []
        for link, result in zip(self._slots, results):
            lo, hi = self.spec.group(link.index)
            by_index = {
                shard.get("index"): shard
                for shard in result.get("shards") or []
            }
            for shard_index in range(lo, hi):
                shard = by_index.get(shard_index)
                if shard is None:
                    raise ServeError(
                        "unavailable",
                        f"worker {link.index} reported no shard {shard_index}",
                    )
                kept.append(shard)
        return kept

    async def _control(self, op: str, payload: dict | None = None) -> dict:
        if op == "route":
            # The routing handshake and the heartbeat are one verb: a
            # bare call returns the table, a call carrying the client's
            # cached epoch doubles as a staleness check — if supervision
            # replaced a worker since, the typed error tells the client
            # to drop its cached table and re-handshake.
            known = (payload or {}).get("epoch")
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
        if op == "report":
            return {"shards": self._kept_shards(await self._broadcast("report"))}
        if op == "trace":
            return {"shards": self._kept_shards(await self._broadcast("trace"))}
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
            trace_id = (payload or {}).get("trace")
            return {"spans": await self.federated_spans(trace_id)}
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
        raise ServeError("protocol", f"unknown op {op!r}")

    async def _cluster_leases(self) -> list[dict]:
        """The fleet's lease book: each worker's own shards, ids prefixed.

        A worker names its leases ``<shard>:<grant_id>``; the cluster
        form is ``<worker>:<shard>:<grant_id>``, so an id identifies the
        owning process too and force-release can route without a scan.
        """
        results = await self._broadcast("leases")
        shards: list[dict] = []
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
                        f"worker {slot.index} reported no shard "
                        f"{shard_index}",
                    )
                shard = dict(shard)
                shard["leases"] = [
                    dict(
                        lease,
                        lease_id=f"{slot.index}:{lease['lease_id']}",
                    )
                    for lease in shard.get("leases") or []
                ]
                shards.append(shard)
        return shards

    def render_metrics(
        self, results: list[dict], include_shards: bool = True
    ) -> str:
        """The cluster's Prometheus text exposition, from a stats barrier.

        ``results`` are the workers' ``stats`` payloads, one per link.
        Each worker's own shard group exports through the same folder a
        single server uses — so broker counters carry identical names
        cluster-wide, just with a ``worker`` label ahead of ``shard`` —
        plus per-worker link gauges (in-flight ops, window, liveness)
        and the supervision tallies (respawns performed, frames redriven
        after a respawn).  The router's live registry (relay latency,
        codec mix, link failures) is appended when metrics are enabled;
        family names are disjoint, so the concatenation stays valid.

        ``include_shards=False`` skips the shard/session fold — the
        ``metrics`` verb uses it when it appends the workers' own
        relabeled scrapes, which already carry those families.
        """
        registry = MetricsRegistry(clock=self.metrics.clock)
        for link, result in zip(self._slots, results):
            worker = str(link.index)
            registry.gauge(
                "cluster_worker_inflight",
                help="Unanswered ops on the worker link at scrape time.",
                worker=worker,
            ).set(link.inflight)
            registry.gauge(
                "cluster_worker_window",
                help="Per-worker in-flight op bound.",
                worker=worker,
            ).set(self.worker_window)
            registry.gauge(
                "cluster_worker_up",
                help="1 when the worker's link is up, 0 while it is "
                "recovering or gone.",
                worker=worker,
            ).set(1.0 if link.state == "up" else 0.0)
            registry.gauge(
                "cluster_worker_liveness",
                help="Beat-derived liveness: 2 up, 1 suspect, 0 dead.",
                worker=worker,
            ).set(
                {LIVE_UP: 2.0, LIVE_SUSPECT: 1.0}.get(
                    self.liveness.state(link.index), 0.0
                )
            )
            registry.counter(
                "cluster_worker_respawns_total",
                help="Worker restarts supervision completed successfully.",
                worker=worker,
            ).inc(link.respawns_done)
            registry.counter(
                "cluster_redriven_frames_total",
                help="In-flight and held frames redriven onto a "
                "respawned worker.",
                worker=worker,
            ).inc(link.redriven_frames)
            if not include_shards:
                continue
            lo, hi = self.spec.group(link.index)
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
        return (await self._control("metrics"))["text"]

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

        The release is injected through the owning worker's slot — the
        same path client mutations ride — so it is WAL'd by the worker,
        recorded as a replayable event, and, should the worker die
        mid-op, resent by supervision with the ``retry`` marker, which
        the worker's applied-log dedup collapses to exactly-once.
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
        """The fleet's live spans: router relays + every worker's sink.

        The trace analogue of the ``--worker-metrics`` fold: the router
        contributes its own :meth:`TraceSink.live_spans` (relay hops),
        then broadcasts the ``spans`` verb so each worker answers from
        its live sink — including spans a pre-crash incarnation wrote,
        since sinks append across respawns — and each worker's spans are
        tagged ``worker="N"``.  With ``trace_id``, every sink answers
        from its by-id index when that holds the whole trace, and
        workers filter at the source, so only the matching spans cross
        the wire.
        """
        fields = {} if trace_id is None else {"trace": trace_id}
        spans = self.trace.live_spans(trace_id)
        worker_answers = await asyncio.gather(
            *(slot.call_checked("spans", **fields) for slot in self._slots)
        )
        for slot, answer in zip(self._slots, worker_answers):
            spans.extend(
                dict(span, worker=str(slot.index))
                for span in answer.get("spans") or []
            )
        return spans

    async def admin_trace(self, trace_id: str) -> list[dict] | None:
        """The *federated* span tree for one trace id, mid-run.

        Pulls the matching spans live from the router's sink and every
        worker's (the ``spans`` broadcast), links them into one causal
        tree, and returns the nested payload — structurally identical to
        ``engine trace-tree`` over the offline-merged fleet JSONL,
        because both feed :func:`build_trace_trees`, which dedupes by
        ``(trace, span_id)`` and orders children by ``(t_enq,
        span_id)``.  ``None`` when no process holds spans for the id.
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
        conn = _ClientConn(reader, writer)
        self._conns.add(conn)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        inflight: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    payload = await read_frame(reader)
                except ProtocolError as exc:
                    conn.send(error(None, "protocol", str(exc)))
                    break
                if payload is None:
                    break
                request_id = payload.get("id")
                op = payload.get("op")
                if op in MUTATION_OPS:
                    # Routed synchronously in read order — ordering to
                    # each worker is the read order, and refusals
                    # (validation, draining, backpressure) answer
                    # immediately.  Only tick spawns a gather task.
                    try:
                        tick_task = self._route_mutation(
                            op, payload, request_id, conn
                        )
                    except ServeError as exc:
                        conn.send(error(request_id, exc.kind, exc.message))
                        continue
                    if tick_task is not None:
                        inflight.add(tick_task)
                        tick_task.add_done_callback(inflight.discard)
                    continue
                if op == "hello":
                    # An explicit `codec` field renegotiates; a bare
                    # hello is introspection and keeps the current codec.
                    if "codec" in payload:
                        conn.codec_ref[0] = negotiate_codec(
                            payload.get("codec")
                        )
                    result = self._hello()
                    result["codec"] = conn.codec_ref[0]
                    conn.send(ok(request_id, result))
                    continue
                if op == "shutdown":
                    conn.send(ok(request_id, {"state": "stopped"}))
                    self._shutdown_task = asyncio.create_task(self.shutdown())
                    break
                if op not in OPS:
                    conn.send(
                        error(
                            request_id,
                            "protocol",
                            f"unknown op {op!r}; known: {', '.join(OPS)}",
                        )
                    )
                    continue
                try:
                    result = await self._control(op, payload)
                    conn.send(ok(request_id, result))
                except ServeError as exc:
                    conn.send(error(request_id, exc.kind, exc.message))
        finally:
            if inflight:
                await asyncio.gather(*inflight, return_exceptions=True)
            self._conns.discard(conn)
            if task is not None:
                self._conn_tasks.discard(task)
            await conn.close()
