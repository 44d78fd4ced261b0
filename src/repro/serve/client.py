"""Clients for the lease-serving wire protocol.

:class:`AsyncLeaseClient` is the pipelining client the loadgen tenants
use: one connection, any number of in-flight requests, responses matched
back to awaiting callers by request id by a background reader task; its
:meth:`~AsyncLeaseClient.call_batch` sends a whole batch in one flush.
:class:`DirectLeaseClient` is the cluster client: it performs the
routing handshake (the ``route`` verb) against a cluster router, then
sends mutations straight to the owning worker over per-worker links,
keeping the router only for ticks, barriers, and staleness probes.

Both raise :class:`~repro.serve.protocol.ServeError` when the server
answers with an error frame, with the frame's ``kind`` preserved; a
direct client whose worker stays gone past its recovery window raises
:class:`~repro.serve.protocol.LeaseRetryError`.  Both can negotiate the
compact binary codec at connect time (``codec="bin"``): the upgrade is
confirmed by the server's ``hello`` response and falls back to JSON
against servers that do not speak it.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import random
import time
from typing import Any, Sequence

from ..errors import ModelError
from ..obs.trace import NULL_TRACE, TraceSink
from ..obs.tracetree import new_id
from .protocol import (
    CODEC_BIN,
    CODEC_JSON,
    MUTATION_OPS,
    LeaseRetryError,
    ServeError,
    encode_frame,
    parse_response,
    read_frame,
    request,
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
        self._reader_task = asyncio.create_task(self._read_loop())

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    async def open_unix(
        cls, path: str, retry_for: float = 5.0, codec: str | None = None,
        trace: TraceSink | None = None,
    ) -> "AsyncLeaseClient":
        reader, writer = await _retry_connect(
            lambda: asyncio.open_unix_connection(path), retry_for
        )
        client = cls(reader, writer, trace=trace)
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
        reader, writer = await _retry_connect(
            lambda: asyncio.open_connection(host, port), retry_for
        )
        client = cls(reader, writer, trace=trace)
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
        """One request/response round trip; pipelines freely across tasks.

        Raises :class:`ConnectionError` once the reader has stopped: over
        TCP a write after the peer's FIN still succeeds, and nothing
        would ever answer the call.
        """
        if self._reader_task.done():
            raise ConnectionError("server closed the connection")
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
        request drew.  A dead connection raises :class:`ConnectionError`,
        as :meth:`call` does.
        """
        if self._reader_task.done():
            raise ConnectionError("server closed the connection")
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
        results: list[dict | ServeError] = []
        try:
            async with self._send_lock:
                self._writer.writelines(frames)
                await self._writer.drain()
            for request_id, future, span in zip(ids, futures, spans):
                try:
                    results.append(parse_response(await future))
                except ServeError as exc:
                    results.append(exc)
                finally:
                    if span is not None:
                        self._finish_span(span, request_id)
        except BaseException:
            # The connection died (or the caller was cancelled) mid-batch:
            # unregister and settle every future, so none is left pending
            # or with an exception nobody retrieves.
            for request_id, future in zip(ids, futures):
                self._pending.pop(request_id, None)
                if not future.done():
                    future.cancel()
                elif not future.cancelled():
                    future.exception()
            raise
        return results

    async def wait_closed(self) -> None:
        """Return once the reader has stopped: the peer hung up, the
        stream broke, or :meth:`close` ran.  Calls made after that raise
        :class:`ConnectionError`."""
        await asyncio.wait((self._reader_task,))

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            # Not ``await self._reader_task``: that would swallow a
            # cancellation of close()'s own caller along with the
            # reader's.
            await self.wait_closed()
        finally:
            self._writer.close()
        if not self._reader_task.cancelled():
            self._reader_task.exception()  # its failure reached every call
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


#: Dial and recovery backoff shape: exponential from ``BASE`` capped at
#: ``CAP``, with full jitter (a uniform factor in [0.5, 1.5)) so a fleet
#: of tenants redialing one restarting server spreads out instead of
#: stampeding each backoff tick together.
CONNECT_BACKOFF_BASE = 0.02
CONNECT_BACKOFF_CAP = 0.5


#: Seconds a :class:`DirectLeaseClient` keeps re-handshaking for a dead
#: worker to come back before it raises :class:`LeaseRetryError`.
RECOVER_FOR = 60.0


def _next_backoff(delay: float) -> tuple[float, float]:
    """(jittered sleep for this attempt, grown delay for the next)."""
    return (
        delay * (0.5 + random.random()),
        min(delay * 2.0, CONNECT_BACKOFF_CAP),
    )


async def _retry_connect(factory, retry_for: float):
    """Dial until ``retry_for`` runs out; returns (reader, writer)."""
    deadline = time.monotonic() + retry_for
    delay = CONNECT_BACKOFF_BASE
    while True:
        try:
            return await factory()
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
    The one endpoint grammar: :mod:`repro.cluster` parses with it too
    (the cluster is built on top of the serve layer, never the other
    way round), and :func:`~repro.cluster.spec.format_endpoint` is its
    inverse.
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
    """Cluster client: control via the router, data direct to workers.

    At open it performs the *routing handshake* — a ``route`` call
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
    within :data:`RECOVER_FOR`, until the route table shows the owning
    worker ``up`` again — redials, and resends the op *marked*
    ``retry=True``, so a WAL'd worker's applied-identity dedup answers
    an already-applied op from its log instead of applying it twice:
    exactly-once, end to end, without the router buffering anything.
    Closed-loop tenants have at most one op in flight, so the resend
    can never reorder a tenant's stream.  :meth:`check_route` probes the
    cached epoch on demand.
    """

    def __init__(
        self,
        control: AsyncLeaseClient,
        codec: str | None = None,
        retry_for: float = 5.0,
        trace: TraceSink | None = None,
    ):
        self._control = control
        self._codec = codec
        self._retry_for = retry_for
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

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    async def open_unix(
        cls, path: str, retry_for: float = 5.0, codec: str | None = None,
        trace: TraceSink | None = None,
    ) -> "DirectLeaseClient":
        control = await AsyncLeaseClient.open_unix(
            path, retry_for=retry_for, codec=codec, trace=trace
        )
        client = cls(control, codec=codec, retry_for=retry_for, trace=trace)
        await client.handshake()
        return client

    @classmethod
    async def open_tcp(
        cls, host: str, port: int, retry_for: float = 5.0,
        codec: str | None = None, trace: TraceSink | None = None,
    ) -> "DirectLeaseClient":
        control = await AsyncLeaseClient.open_tcp(
            host, port, retry_for=retry_for, codec=codec, trace=trace
        )
        client = cls(control, codec=codec, retry_for=retry_for, trace=trace)
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
        """Probe the cached epoch; re-handshake if stale.

        Returns ``True`` when the probe found the table stale (and the
        re-handshake installed a fresh one).
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
        at most :data:`RECOVER_FOR` seconds.
        """
        self._drop_link(index)
        deadline = time.monotonic() + RECOVER_FOR
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
                    f"back within {RECOVER_FOR}s",
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

    async def close(self) -> None:
        for index in list(self._links):
            link = self._links.pop(index)
            await link.close()
        await self._control.close()
