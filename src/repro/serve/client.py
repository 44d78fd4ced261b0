"""Clients for the lease-serving wire protocol: async and sync.

:class:`AsyncLeaseClient` is the pipelining client the loadgen tenants
use: one connection, any number of in-flight requests, responses matched
back to awaiting callers by request id by a background reader task.
:class:`DirectLeaseClient` is the two-plane cluster client: it performs
the routing handshake (the ``route`` verb) against a cluster router,
then sends mutations straight to the owning worker over per-worker
links, keeping the router only for ticks, barriers, and staleness
probes.  :class:`LeaseClient` is the blocking counterpart for
synchronous callers (scripts, tests, CLIs without an event loop): one
socket, sequential calls, an explicit :meth:`LeaseClient.pipeline` for
batched round trips, and optional transparent reconnect — a call that
hits a dead connection redials (retrying the connect for a bounded
window) and resends once, which is what lets a client ride through a
server restart.

Both clients raise :class:`~repro.serve.protocol.ServeError` when the
server answers with an error frame, with the frame's ``kind`` preserved.
Failure surfaces are typed: a per-op ``deadline`` that expires raises
:class:`~repro.serve.protocol.LeaseTimeoutError`, and a sync call whose
redial/resend *retry budget* runs out raises
:class:`~repro.serve.protocol.LeaseRetryError` naming the attempt count.
Both clients can negotiate the compact binary codec at connect time
(``codec="bin"``): the upgrade is confirmed by the server's ``hello``
response and falls back to JSON against servers that do not speak it.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import random
import socket
import time
from typing import Any, Sequence

from ..errors import ModelError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACE, TraceSink
from ..obs.tracetree import new_id
from .protocol import (
    CODEC_BIN,
    CODEC_JSON,
    MUTATION_OPS,
    LeaseRetryError,
    LeaseTimeoutError,
    ProtocolError,
    ServeError,
    encode_frame,
    parse_response,
    read_frame,
    recv_frame,
    request,
    send_frame,
    write_frame,
)


class AsyncLeaseClient:
    """One pipelined protocol connection on the running event loop.

    Construct through :meth:`open_unix` / :meth:`open_tcp`; both accept a
    ``retry_for`` window during which connection refusals are retried —
    the standard way to wait for a server that is still binding its
    socket — and an optional ``codec`` to negotiate at open
    (``"bin"`` sends a ``hello`` and upgrades only if confirmed).
    """

    def __init__(self, reader, writer, trace: TraceSink | None = None):
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._send_lock = asyncio.Lock()
        self._codec = CODEC_JSON
        #: Client-side span sink; mutations originate a trace context
        #: (and emit a ``kind="client"`` root span) only when this sink
        #: is enabled AND the server advertised trace support at hello.
        self._trace_sink = trace if trace is not None else NULL_TRACE
        self._peer_trace = False
        #: Dial attempts the opening factory spent (1 = first try
        #: connected).
        self.connect_attempts = 1
        self._reader_task = asyncio.create_task(self._read_loop())

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    async def open_unix(
        cls, path: str, retry_for: float = 5.0, codec: str | None = None,
        trace: TraceSink | None = None,
    ) -> "AsyncLeaseClient":
        reader, writer, attempts = await _retry_connect(
            lambda: asyncio.open_unix_connection(path), retry_for
        )
        client = cls(reader, writer, trace=trace)
        client.connect_attempts = attempts
        if codec is not None:
            await client.negotiate(codec)
        elif trace is not None and trace.enabled:
            # No codec preference, but the trace capability still has to
            # be discovered before the first mutation can carry an id.
            await client.hello()
        return client

    @classmethod
    async def open_tcp(
        cls, host: str, port: int, retry_for: float = 5.0,
        codec: str | None = None, trace: TraceSink | None = None,
    ) -> "AsyncLeaseClient":
        reader, writer, attempts = await _retry_connect(
            lambda: asyncio.open_connection(host, port), retry_for
        )
        client = cls(reader, writer, trace=trace)
        client.connect_attempts = attempts
        if codec is not None:
            await client.negotiate(codec)
        elif trace is not None and trace.enabled:
            await client.hello()
        return client

    @property
    def codec(self) -> str:
        """The codec this client currently emits (receives are always dual)."""
        return self._codec

    async def negotiate(self, codec: str) -> dict:
        """Request a wire codec via ``hello``; returns the hello result.

        The connection upgrades only when the server confirms the exact
        codec; any other answer (older server, unknown codec) leaves the
        client speaking JSON, which every server accepts.
        """
        result = await self.call("hello", codec=codec)
        self._codec = (
            CODEC_BIN if result.get("codec") == CODEC_BIN == codec
            else CODEC_JSON
        )
        return result

    # ------------------------------------------------------------------
    # Core call machinery
    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        try:
            while True:
                payload = await read_frame(self._reader)
                if payload is None:
                    break
                future = self._pending.pop(payload.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(payload)
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("server closed the connection")
                    )
            self._pending.clear()

    def _start_span(self, op: str, fields: dict):
        """Attach a fresh trace context to a mutation; ``None`` when off.

        Mutates ``fields`` in place (adds the ``trace`` field) and
        returns the bookkeeping tuple :meth:`_finish_span` closes.
        """
        if not (
            self._peer_trace
            and self._trace_sink.enabled
            and op in MUTATION_OPS
        ):
            return None
        trace_id = new_id()
        span_id = new_id()
        fields["trace"] = f"{trace_id}-{span_id}"
        return (
            trace_id, span_id, op, fields.get("tenant"),
            fields.get("resource"), self._trace_sink.clock(),
        )

    def _finish_span(self, span, request_id: int) -> None:
        trace_id, span_id, op, tenant, resource, t0 = span
        self._trace_sink.span(
            op=op, tenant=tenant, resource=resource, request_id=request_id,
            t_enq=t0, t_disp=t0, t_reply=self._trace_sink.clock(),
            trace=trace_id, span_id=span_id, parent=None, kind="client",
        )

    async def call(self, op: str, **fields: Any) -> dict:
        """One request/response round trip; pipelines freely across tasks."""
        request_id = next(self._ids)
        span = self._start_span(op, fields)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            async with self._send_lock:
                await write_frame(
                    self._writer, request(op, request_id, **fields),
                    self._codec,
                )
        except BaseException:
            self._pending.pop(request_id, None)
            raise
        try:
            payload = await future
        finally:
            if span is not None:
                self._finish_span(span, request_id)
        result = parse_response(payload)
        if op == "hello":
            self._peer_trace = bool(result.get("trace"))
        return result

    async def call_batch(
        self, requests: Sequence[tuple[str, dict]]
    ) -> list[dict | ServeError]:
        """Send a whole batch with one ``writelines`` flush, then collect.

        The hot-path coalescing primitive: every request frame is encoded
        up front and hits the transport in a single buffered write — one
        syscall's worth of flushing instead of one per op — while the
        responses pipeline back as usual.  Returns one entry per request
        in request order: the result dict or the :class:`ServeError` that
        request drew.
        """
        loop = asyncio.get_running_loop()
        ids: list[int] = []
        futures: list[asyncio.Future] = []
        frames: list[bytes] = []
        spans: list[tuple | None] = []
        for op, fields in requests:
            request_id = next(self._ids)
            # Trace contexts go on a copy — the caller's field dicts are
            # theirs, and a batch must not leave ids behind in them.
            fields = dict(fields)
            spans.append(self._start_span(op, fields))
            # Encode before registering: an encode failure mid-batch
            # must not strand earlier ids in the pending map.
            frame = encode_frame(request(op, request_id, **fields), self._codec)
            ids.append(request_id)
            future = loop.create_future()
            self._pending[request_id] = future
            futures.append(future)
            frames.append(frame)
        try:
            async with self._send_lock:
                self._writer.writelines(frames)
                await self._writer.drain()
        except BaseException:
            for request_id in ids:
                self._pending.pop(request_id, None)
            raise
        results: list[dict | ServeError] = []
        for request_id, future, span in zip(ids, futures, spans):
            try:
                results.append(parse_response(await future))
            except ServeError as exc:
                results.append(exc)
            finally:
                if span is not None:
                    self._finish_span(span, request_id)
        return results

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Op surface
    # ------------------------------------------------------------------
    async def hello(self) -> dict:
        return await self.call("hello")

    async def acquire(self, tenant: str, resource: int, time: int) -> dict:
        return await self.call(
            "acquire", tenant=tenant, resource=resource, time=time
        )

    async def renew(self, tenant: str, resource: int, time: int) -> dict:
        return await self.call(
            "renew", tenant=tenant, resource=resource, time=time
        )

    async def release(self, tenant: str, resource: int, time: int) -> dict:
        return await self.call(
            "release", tenant=tenant, resource=resource, time=time
        )

    async def tick(self, time: int) -> dict:
        return await self.call("tick", time=time)

    async def stats(self) -> dict:
        return await self.call("stats")

    async def report(self) -> dict:
        return await self.call("report")

    async def trace(self) -> dict:
        return await self.call("trace")

    async def drain(self) -> dict:
        return await self.call("drain")

    async def shutdown(self) -> dict:
        return await self.call("shutdown")


#: Dial-retry backoff shape shared by both clients: exponential from
#: ``BASE`` capped at ``CAP``, with full jitter (a uniform factor in
#: [0.5, 1.5)) so a fleet of tenants redialing one restarting server
#: spreads out instead of stampeding each backoff tick together.
CONNECT_BACKOFF_BASE = 0.02
CONNECT_BACKOFF_CAP = 0.5


def _next_backoff(delay: float) -> tuple[float, float]:
    """(jittered sleep for this attempt, grown delay for the next)."""
    return (
        delay * (0.5 + random.random()),
        min(delay * 2.0, CONNECT_BACKOFF_CAP),
    )


async def _retry_connect(factory, retry_for: float):
    """Dial until ``retry_for`` runs out; returns (reader, writer, attempts)."""
    deadline = time.monotonic() + retry_for
    delay = CONNECT_BACKOFF_BASE
    attempts = 0
    while True:
        attempts += 1
        try:
            reader, writer = await factory()
            return reader, writer, attempts
        except (ConnectionRefusedError, FileNotFoundError, OSError):
            now = time.monotonic()
            if now >= deadline:
                raise
            sleep, delay = _next_backoff(delay)
            await asyncio.sleep(min(sleep, deadline - now))


def parse_worker_endpoint(endpoint: str) -> tuple[str, tuple]:
    """Split a ``route`` endpoint string into ``(kind, address)``.

    ``unix:<path>`` -> ``("unix", (path,))``, ``tcp:<host>:<port>`` ->
    ``("tcp", (host, port))``; a bare path is taken as a unix socket.
    Kept local rather than imported from :mod:`repro.cluster.spec` —
    the serve layer must not import the cluster layer (the cluster is
    built on top of it), and these few lines are the whole shared
    grammar.
    """
    if endpoint.startswith("unix:"):
        return "unix", (endpoint[len("unix:"):],)
    if endpoint.startswith("tcp:"):
        host, sep, port = endpoint[len("tcp:"):].rpartition(":")
        if not sep or not port.isdigit():
            raise ModelError(f"malformed tcp endpoint {endpoint!r}")
        return "tcp", (host, int(port))
    return "unix", (endpoint,)


class DirectLeaseClient:
    """Two-plane cluster client: control via the router, data direct.

    The routed data path pays a relay per mutation; this client removes
    it.  At open it performs the *routing handshake* — a ``route`` call
    on the control connection returning the resource→worker map (derived
    from the cluster spec's shard tiling) plus each worker's endpoint —
    and then sends every ``acquire``/``renew``/``release`` straight to
    the owning worker over a lazily-dialed per-worker link.  The router
    stays in the loop only as the control plane: ticks, stats/report/
    trace/drain barriers, and the handshake itself.

    Staleness is epoch-based.  Worker endpoints are stable across
    supervised respawns (same socket file / same port), so the hazard
    after a ``kill -9`` is a *new process* behind the old address; the
    route table's ``epoch`` (total respawns fleet-wide) moves exactly
    then.  A mutation that hits a dead link re-handshakes — repeatedly,
    within ``recover_for``, until the route table shows the owning
    worker ``up`` again — redials, and resends the op *marked*
    ``retry=True``, so a WAL'd worker's applied-identity dedup answers
    an already-applied op from its log instead of applying it twice:
    exactly-once, end to end, without the router buffering anything.
    Closed-loop tenants have at most one op in flight, so the resend
    can never reorder a tenant's stream.

    ``heartbeat_every`` (seconds), when set, starts a background task
    that periodically repeats the ``route`` call carrying the cached
    epoch — a liveness beat for the router's tracker and an early
    staleness probe for the client (a ``stale-route`` answer triggers
    re-handshake before the data path ever notices).  Tests drive the
    same probe deterministically through :meth:`check_route`.
    """

    def __init__(
        self,
        control: AsyncLeaseClient,
        codec: str | None = None,
        retry_for: float = 5.0,
        recover_for: float = 60.0,
        heartbeat_every: float | None = None,
        trace: TraceSink | None = None,
    ):
        self._control = control
        self._codec = codec
        self._retry_for = retry_for
        self._recover_for = recover_for
        self._trace = trace
        self._route: dict | None = None
        self._los: list[int] = []
        self._links: dict[int, AsyncLeaseClient] = {}
        self._dial_locks: dict[int, asyncio.Lock] = {}
        self._handshake_lock = asyncio.Lock()
        #: Route handshakes performed (1 = the opening one).
        self.handshakes = 0
        #: Mutations resent (marked ``retry``) after a dead data link.
        self.retried_ops = 0
        self._heartbeat_task: asyncio.Task | None = None
        if heartbeat_every is not None:
            self._heartbeat_task = asyncio.create_task(
                self._heartbeat_loop(heartbeat_every)
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    async def open_unix(
        cls, path: str, retry_for: float = 5.0, codec: str | None = None,
        recover_for: float = 60.0, heartbeat_every: float | None = None,
        trace: TraceSink | None = None,
    ) -> "DirectLeaseClient":
        control = await AsyncLeaseClient.open_unix(
            path, retry_for=retry_for, codec=codec, trace=trace
        )
        client = cls(
            control, codec=codec, retry_for=retry_for,
            recover_for=recover_for, heartbeat_every=heartbeat_every,
            trace=trace,
        )
        await client.handshake()
        return client

    @classmethod
    async def open_tcp(
        cls, host: str, port: int, retry_for: float = 5.0,
        codec: str | None = None, recover_for: float = 60.0,
        heartbeat_every: float | None = None,
        trace: TraceSink | None = None,
    ) -> "DirectLeaseClient":
        control = await AsyncLeaseClient.open_tcp(
            host, port, retry_for=retry_for, codec=codec, trace=trace
        )
        client = cls(
            control, codec=codec, retry_for=retry_for,
            recover_for=recover_for, heartbeat_every=heartbeat_every,
            trace=trace,
        )
        await client.handshake()
        return client

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int | None:
        """The cached routing epoch; ``None`` before the handshake."""
        return None if self._route is None else self._route["epoch"]

    @property
    def route(self) -> dict | None:
        """The cached route table, verbatim from the last handshake."""
        return self._route

    def _install(self, table: dict) -> None:
        workers = sorted(table["workers"], key=lambda row: row["index"])
        old = self._route
        self._route = dict(table, workers=workers)
        self._los = [row["range"][0] for row in workers]
        if old is None:
            return
        # Endpoints are stable, processes are not: a worker whose
        # per-slot epoch moved is a *different process* behind the same
        # address, and the cached link points at its corpse.
        by_index = {row["index"]: row for row in old["workers"]}
        for row in workers:
            stale = by_index.get(row["index"])
            if stale is not None and stale.get("epoch") != row.get("epoch"):
                self._drop_link(row["index"])

    def _drop_link(self, index: int) -> None:
        link = self._links.pop(index, None)
        if link is not None:
            asyncio.ensure_future(link.close())

    async def handshake(self) -> dict:
        """(Re)fetch the route table from the router and install it."""
        async with self._handshake_lock:
            table = await self._control.call("route")
            self._install(table)
            self.handshakes += 1
            return self._route

    async def check_route(self) -> bool:
        """One heartbeat: probe the cached epoch, re-handshake if stale.

        Returns ``True`` when the probe found the table stale (and the
        re-handshake installed a fresh one) — the deterministic form of
        what the background heartbeat does on a timer.
        """
        if self._route is None:
            await self.handshake()
            return True
        try:
            await self._control.call("route", epoch=self._route["epoch"])
            return False
        except ServeError as exc:
            if exc.kind != "stale-route":
                raise
            await self.handshake()
            return True

    async def _heartbeat_loop(self, every: float) -> None:
        while True:
            await asyncio.sleep(every)
            try:
                await self.check_route()
            except (ConnectionError, OSError, ServeError):
                # The control link itself may be mid-restart; the next
                # beat (or the data path's own recovery) retries.
                pass

    def worker_of(self, resource: int) -> int:
        """The worker index owning ``resource`` per the cached table."""
        if self._route is None:
            raise ModelError("route handshake has not completed")
        if not 0 <= resource < self._route["num_resources"]:
            raise ModelError(
                f"resource {resource} outside "
                f"[0, {self._route['num_resources']})"
            )
        return bisect.bisect_right(self._los, resource) - 1

    async def _link(self, index: int) -> AsyncLeaseClient:
        link = self._links.get(index)
        if link is not None:
            return link
        lock = self._dial_locks.setdefault(index, asyncio.Lock())
        async with lock:
            link = self._links.get(index)
            if link is None:
                link = await self._dial(
                    self._route["workers"][index]["endpoint"]
                )
                self._links[index] = link
            return link

    async def _dial(self, endpoint: str) -> AsyncLeaseClient:
        kind, address = parse_worker_endpoint(endpoint)
        if kind == "unix":
            return await AsyncLeaseClient.open_unix(
                address[0], retry_for=self._retry_for, codec=self._codec,
                trace=self._trace,
            )
        return await AsyncLeaseClient.open_tcp(
            address[0], address[1], retry_for=self._retry_for,
            codec=self._codec, trace=self._trace,
        )

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    async def _mutate(self, op: str, tenant: str, resource: int, when: int):
        index = self.worker_of(resource)
        try:
            link = await self._link(index)
            return await link.call(
                op, tenant=tenant, resource=resource, time=when
            )
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            return await self._recover_and_resend(
                op, index, tenant=tenant, resource=resource, time=when
            )

    async def _recover_and_resend(self, op: str, index: int, **fields):
        """Ride through a worker death: re-handshake, redial, resend once.

        The original send raced the worker's death, so whether the op
        was applied is unknowable from here — the resend carries the
        ``retry`` marker and the recovered worker's applied-identity
        dedup makes the pair exactly-once.  Keeps re-handshaking (the
        router's supervision is respawning the worker meanwhile) until
        the table shows the owner ``up`` and a fresh dial succeeds, for
        at most ``recover_for`` seconds.
        """
        self._drop_link(index)
        deadline = time.monotonic() + self._recover_for
        delay = CONNECT_BACKOFF_BASE
        while True:
            try:
                table = await self.handshake()
                row = table["workers"][index]
                if row.get("state", "up") == "up":
                    link = await self._link(index)
                    result = await link.call(op, retry=True, **fields)
                    self.retried_ops += 1
                    return result
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                self._drop_link(index)
            now = time.monotonic()
            if now >= deadline:
                raise LeaseRetryError(
                    f"{op!r} not recoverable: worker {index} did not come "
                    f"back within {self._recover_for}s",
                    attempts=1,
                )
            sleep, delay = _next_backoff(delay)
            await asyncio.sleep(min(sleep, deadline - now))

    # ------------------------------------------------------------------
    # Op surface (mutations direct, control via the router)
    # ------------------------------------------------------------------
    async def acquire(self, tenant: str, resource: int, time: int) -> dict:
        return await self._mutate("acquire", tenant, resource, time)

    async def renew(self, tenant: str, resource: int, time: int) -> dict:
        return await self._mutate("renew", tenant, resource, time)

    async def release(self, tenant: str, resource: int, time: int) -> dict:
        return await self._mutate("release", tenant, resource, time)

    async def tick(self, time: int) -> dict:
        return await self._control.tick(time)

    async def stats(self) -> dict:
        return await self._control.stats()

    async def report(self) -> dict:
        return await self._control.report()

    @property
    def connect_attempts(self) -> int:
        """Dial attempts across the control and all data connections."""
        return self._control.connect_attempts + sum(
            link.connect_attempts for link in self._links.values()
        )

    async def close(self) -> None:
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except (asyncio.CancelledError, Exception):
                pass
        for index in list(self._links):
            link = self._links.pop(index)
            await link.close()
        await self._control.close()


class LeaseClient:
    """Blocking protocol client with bounded-retry connect and reconnect.

    Args:
        path: unix-socket path (exclusive with ``host``/``port``).
        host, port: TCP address (exclusive with ``path``).
        connect_timeout: seconds to keep retrying the initial dial (and
            any redial) while the server is not accepting yet.
        reconnect: when a call hits a dead connection, redial within
            ``connect_timeout`` and resend the request — the client
            survives a server restart, losing only the in-flight call's
            at-most-once guarantee (mutations here are idempotent
            per-day, so a resend is safe).
        retry_budget: how many redial-and-resend attempts one logical
            call may spend after its first try (``reconnect=False``
            forces 0).  Exhausting the budget raises
            :class:`~repro.serve.protocol.LeaseRetryError`.
        deadline: default per-op response deadline in seconds; ``None``
            waits forever.  An expired deadline raises
            :class:`~repro.serve.protocol.LeaseTimeoutError` and
            abandons the connection (a late response would desync the
            stream), so the next call redials.  Deadlines are never
            retried — the server may well have applied the op.
        codec: wire codec to negotiate on every (re)connect; ``"bin"``
            upgrades only when the server confirms it.
        metrics: registry for the client-side failure counters
            (``client_retries_total``, ``client_timeouts_total``,
            ``client_retry_exhausted_total`` — the client-side mirror of
            the router's link counters); ``None`` counts nothing.
    """

    def __init__(
        self,
        path: str | None = None,
        host: str | None = None,
        port: int | None = None,
        connect_timeout: float = 5.0,
        reconnect: bool = True,
        retry_budget: int = 1,
        deadline: float | None = None,
        codec: str | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if (path is None) == (host is None or port is None):
            raise ModelError(
                "LeaseClient needs either a unix path or host+port"
            )
        if retry_budget < 0:
            raise ModelError("retry_budget must be >= 0")
        registry = metrics if metrics is not None else MetricsRegistry(
            enabled=False
        )
        self._retries_counter = registry.counter(
            "client_retries_total",
            help="Redial-and-resend attempts after a dead connection.",
        )
        self._timeouts_counter = registry.counter(
            "client_timeouts_total",
            help="Calls abandoned because their deadline expired.",
        )
        self._exhausted_counter = registry.counter(
            "client_retry_exhausted_total",
            help="Logical calls that spent their whole retry budget.",
        )
        self._connects_counter = registry.counter(
            "client_connect_attempts_total",
            help="Socket dial attempts, including backoff retries.",
        )
        #: Running total of dial attempts this client has spent.
        self.connect_attempts = 0
        self._path = path
        self._addr = (host, port) if host is not None else None
        self._connect_timeout = connect_timeout
        self._reconnect = reconnect
        self._retry_budget = retry_budget if reconnect else 0
        self._deadline = deadline
        self._codec_wanted = codec
        self._codec = CODEC_JSON
        self._ids = itertools.count(1)
        self._sock: socket.socket | None = None

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def connect(self) -> "LeaseClient":
        """Dial the server, retrying refusals until ``connect_timeout``.

        Refusals back off exponentially with jitter (the shared
        :data:`CONNECT_BACKOFF_BASE` / :data:`CONNECT_BACKOFF_CAP`
        shape) so a fleet of reconnecting clients does not hammer a
        server that is still restarting in lockstep.
        """
        self.close()
        deadline = time.monotonic() + self._connect_timeout
        delay = CONNECT_BACKOFF_BASE
        while True:
            self.connect_attempts += 1
            self._connects_counter.inc()
            try:
                if self._path is not None:
                    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    sock.connect(self._path)
                else:
                    sock = socket.create_connection(self._addr)
                self._sock = sock
                break
            except (ConnectionRefusedError, FileNotFoundError, OSError):
                now = time.monotonic()
                if now >= deadline:
                    raise
                sleep, delay = _next_backoff(delay)
                time.sleep(min(sleep, deadline - now))
        if self._codec_wanted is not None:
            self._negotiate()
        return self

    def _negotiate(self) -> None:
        # Codec state is per-connection, so every (re)dial renegotiates;
        # the request itself travels as JSON, which any server accepts.
        self._codec = CODEC_JSON
        request_id = next(self._ids)
        send_frame(
            self._sock, request("hello", request_id, codec=self._codec_wanted)
        )
        while True:
            payload = recv_frame(self._sock)
            if payload is None:
                raise ConnectionError("server closed during codec negotiation")
            if payload.get("id") == request_id:
                result = parse_response(payload)
                if result.get("codec") == CODEC_BIN == self._codec_wanted:
                    self._codec = CODEC_BIN
                return

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "LeaseClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def call(
        self, op: str, deadline: float | None = None, **fields: Any
    ) -> dict:
        """One blocking round trip within the call's retry budget.

        A dead connection is transparently redialed and the request
        resent until ``retry_budget`` attempts are spent; exhaustion
        raises :class:`LeaseRetryError` (with ``reconnect=False`` the
        raw transport error propagates instead, as before).  ``deadline``
        overrides the client default for this op only.
        """
        attempts = 0
        while True:
            attempts += 1
            try:
                return self._call_once(op, fields, deadline)
            except (ConnectionError, BrokenPipeError, ProtocolError, OSError) as exc:
                if self._retry_budget == 0:
                    raise
                if attempts > self._retry_budget:
                    self._exhausted_counter.inc()
                    raise LeaseRetryError(
                        f"{op!r} failed after {attempts} attempts "
                        f"(retry budget {self._retry_budget}): {exc}",
                        attempts=attempts,
                    ) from exc
                self._retries_counter.inc()
                try:
                    self.connect()
                except OSError as redial_exc:
                    # The redial window itself ran dry: the budget is
                    # spent on a server that never came back.
                    self._exhausted_counter.inc()
                    raise LeaseRetryError(
                        f"{op!r} failed after {attempts} attempt(s); "
                        f"redial gave up: {redial_exc}",
                        attempts=attempts,
                    ) from redial_exc

    def _call_once(
        self, op: str, fields: dict, deadline: float | None
    ) -> dict:
        if self._sock is None:
            self.connect()
        timeout = deadline if deadline is not None else self._deadline
        expires = None if timeout is None else time.monotonic() + timeout
        request_id = next(self._ids)
        try:
            self._sock.settimeout(timeout)
            send_frame(self._sock, request(op, request_id, **fields), self._codec)
            while True:
                if expires is not None:
                    remaining = expires - time.monotonic()
                    if remaining <= 0:
                        raise socket.timeout()
                    self._sock.settimeout(remaining)
                payload = recv_frame(self._sock)
                if payload is None:
                    raise ConnectionError("server closed the connection")
                if payload.get("id") == request_id:
                    return parse_response(payload)
        except socket.timeout as exc:
            # The response may still arrive later and desync the stream:
            # abandon the connection so the next call starts clean.  A
            # timed-out op is never resent — the server may have applied it.
            self.close()
            self._timeouts_counter.inc()
            raise LeaseTimeoutError(
                f"no response to {op!r} within {timeout}s deadline"
            ) from exc
        finally:
            if self._sock is not None and timeout is not None:
                self._sock.settimeout(None)

    def pipeline(
        self, requests: Sequence[tuple[str, dict]],
        deadline: float | None = None,
    ) -> list[dict | ServeError]:
        """Send every request as one batched write, then read responses.

        All request frames are encoded up front and hit the socket in a
        single ``sendall`` — the sync side's op-coalescing hot path.
        Returns one entry per request, in request order: the result dict,
        or the :class:`ServeError` that request drew.  Unlike :meth:`call`
        this never resends — a batch that dies mid-flight raises — and
        ``deadline`` (seconds for the *whole batch*) raises
        :class:`LeaseTimeoutError` and abandons the connection.
        """
        if self._sock is None:
            self.connect()
        timeout = deadline if deadline is not None else self._deadline
        expires = None if timeout is None else time.monotonic() + timeout
        ids = []
        frames = []
        for op, fields in requests:
            request_id = next(self._ids)
            ids.append(request_id)
            frames.append(
                encode_frame(request(op, request_id, **fields), self._codec)
            )
        by_id: dict[int, dict | ServeError] = {}
        wanted = set(ids)
        try:
            self._sock.settimeout(timeout)
            self._sock.sendall(b"".join(frames))
            while wanted:
                if expires is not None:
                    remaining = expires - time.monotonic()
                    if remaining <= 0:
                        raise socket.timeout()
                    self._sock.settimeout(remaining)
                payload = recv_frame(self._sock)
                if payload is None:
                    raise ConnectionError("server closed mid-pipeline")
                request_id = payload.get("id")
                if request_id not in wanted:
                    continue
                wanted.discard(request_id)
                try:
                    by_id[request_id] = parse_response(payload)
                except ServeError as exc:
                    by_id[request_id] = exc
        except socket.timeout as exc:
            self.close()
            self._timeouts_counter.inc()
            raise LeaseTimeoutError(
                f"pipeline of {len(ids)} requests incomplete after "
                f"{timeout}s deadline ({len(wanted)} unanswered)"
            ) from exc
        finally:
            if self._sock is not None and timeout is not None:
                self._sock.settimeout(None)
        return [by_id[request_id] for request_id in ids]

    @property
    def codec(self) -> str:
        """The codec this client currently emits (receives are always dual)."""
        return self._codec

    # Convenience wrappers mirroring the async client.
    def hello(self, deadline: float | None = None) -> dict:
        return self.call("hello", deadline=deadline)

    def acquire(
        self, tenant: str, resource: int, time: int,
        deadline: float | None = None,
    ) -> dict:
        return self.call(
            "acquire", deadline=deadline,
            tenant=tenant, resource=resource, time=time,
        )

    def renew(
        self, tenant: str, resource: int, time: int,
        deadline: float | None = None,
    ) -> dict:
        return self.call(
            "renew", deadline=deadline,
            tenant=tenant, resource=resource, time=time,
        )

    def release(
        self, tenant: str, resource: int, time: int,
        deadline: float | None = None,
    ) -> dict:
        return self.call(
            "release", deadline=deadline,
            tenant=tenant, resource=resource, time=time,
        )

    def tick(self, time: int, deadline: float | None = None) -> dict:
        return self.call("tick", deadline=deadline, time=time)

    def stats(self) -> dict:
        return self.call("stats")

    def report(self) -> dict:
        return self.call("report")

    def trace(self) -> dict:
        return self.call("trace")

    def drain(self) -> dict:
        return self.call("drain")

    def shutdown(self) -> dict:
        return self.call("shutdown")
