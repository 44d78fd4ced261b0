"""Asyncio lease-serving server: shard brokers behind a wire protocol.

:class:`LeaseServer` is the service boundary the ROADMAP's first open
item asks for — the synchronous, single-threaded
:class:`~repro.engine.broker.LeaseBroker` put behind an asyncio TCP and
unix-socket front end that multiplexes any number of concurrent tenants.

**Ownership and threading contract.**  A broker is single-owner state:
nothing in it is locked, and its clock must advance monotonically.  The
server partitions the resource space into the same contiguous shard
ranges intra-scenario sharding uses (:func:`shard_ranges`), one broker
per shard, and the server's one event loop is every broker's only,
in-order owner.  Each connection runs one reader loop: it reads the
bytes available, decodes every complete frame in them
(:class:`~repro.serve.protocol.FrameDecoder`), and applies each frame in
read order on the spot — a mutation on its resource's shard broker, a
tick on every shard, and ``stats`` / ``report`` / ``trace`` /
``leases`` / ``metrics`` as plain reads of the brokers.  There are no
queues: a frame observes every frame read before it on its connection,
and every frame another connection has been answered for.  Per-resource
state is independent, so that read order is the only order a shard
needs.  The loop yields every :data:`YIELD_EVERY` frames, so a long
pipelined burst on one connection cannot hold the loop against admin
reads and other tenants.  One event loop
owns the whole server; :class:`ServerThread` wraps that loop in a
daemon thread for synchronous callers (tests, embedding scripts),
which talk to it only over sockets.

**Group commit.**  A read chunk's replies leave together.  After its
last frame the loop commits the shard WALs
(:meth:`~repro.durable.wal.ShardWal.commit` — under ``fsync="always"``
one fsync per shard the chunk wrote to), then writes every reply with
one ``write`` and one ``drain`` before it reads again.  No reply leaves
the process before the commit that covers its op ("no ack before
durable"), and a shard whose commit fails answers its ops in that chunk
with ``unavailable`` error frames instead of ``ok``.  The drain is also
the connection's flow control: a peer that stops reading replies stops
being read.

**Clock ratcheting.**  Tenants are independent closed loops, so their
simulated days drift: a request can arrive carrying a ``time`` older
than what its shard broker has already seen.  The server ratchets such
times up to the broker clock (``now = max(time, clock)``) — semantically
"this request reaches the server *now*; its day is at least today" —
and, when recording, logs the *applied* event, so a replay of the
recorded trace through fresh brokers reproduces the server's state
exactly (the serialized-trace equivalence the tests pin down).

**Observability.**  A server optionally carries a
:class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.trace.TraceSink`.  With metrics on, the reader loop
samples per-op latency (chunk read to reply, stamped after the chunk's
commit so it includes the fsync wait) into histograms keyed by op kind,
and counts bytes in/out and replies it could not write.  The
``metrics`` protocol verb is a *scrape*: it reads every shard's
``stats``, folds the broker counters and gauges into a fresh registry
(:mod:`repro.obs.export`), and appends the live registry's rendering —
so broker state costs nothing on the hot path and the exposition is
valid Prometheus text either way.  With tracing on, the loop also emits
one JSONL span per op.  Neither touches broker state or any served
payload, so aggregate reports stay byte-identical to inline replay with
instrumentation on or off (CI-gated).

**Drain and shutdown.**  ``drain`` moves the server to a mode where new
acquires are refused with a ``draining`` error frame while renews and
releases — completing the lifecycle of grants already held — are still
served.  ``shutdown`` closes the listeners and every connection,
folds each WAL into a final snapshot, and wakes
:meth:`LeaseServer.run_until_stopped`.
"""

from __future__ import annotations

import asyncio
import bisect
import threading
import time as _time
from pathlib import Path

from ..core.lease import LeaseSchedule
from ..engine.broker import LeaseBroker, PolicyFactory
from ..engine.events import (
    Acquire,
    Event,
    Release,
    Tick,
    event_from_payload,
    event_to_payload,
)
from ..engine.scenarios import shard_ranges as _shard_ranges
from ..errors import ModelError
from ..obs.export import export_sessions, export_shards
from ..obs.history import MetricsHistory
from ..obs.metrics import Histogram, MetricsRegistry
from ..obs.profile import SamplingProfiler
from ..obs.trace import NULL_TRACE, TraceSink
from ..obs.tracetree import (
    build_trace_trees,
    new_id,
    trace_tree_payload,
)
from .protocol import (
    CODEC_JSON,
    MAX_REQUEST_BYTES,
    MUTATION_OPS,
    OPS,
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    ServeError,
    encode_frame,
    error,
    negotiate_codec,
    ok,
    parse_trace,
)
from .session import SessionRegistry

#: Server lifecycle states, in order.
STATES = ("serving", "draining", "stopped")

#: Bytes asked of the transport per read: one read is one chunk, one
#: commit and one write.
READ_BYTES = 64 * 1024

#: Frames applied between two yields to the event loop.  A chunk can
#: hold hundreds of pipelined frames; yielding every few bounds how long
#: one connection holds the loop, so admin reads and other tenants wait
#: behind at most this many frames, not a whole burst.
YIELD_EVERY = 8

#: Ops applied on every shard: sampled once per shard, one dispatch
#: span for each shard the op ran on.
_EVERY_SHARD_OPS = frozenset(
    {"tick", "stats", "report", "trace", "leases", "metrics"}
)


#: What restoring a snapshot's broker state (or applied log) raises when
#: a loader-accepted ``snap.json`` holds the wrong values: a missing
#: key, a wrong type, an unparseable or non-finite number, a bad lease
#: type index.  :meth:`LeaseServer._recover` reports each as a
#: ``corrupt snapshot`` :class:`ModelError`.
_SNAPSHOT_CONTENT_ERRORS = (
    AttributeError, IndexError, KeyError, ModelError, OverflowError,
    TypeError, ValueError,
)


# ----------------------------------------------------------------------
# Envelope field validation — shared by the server and the cluster router
# ----------------------------------------------------------------------
def field_time(payload: dict) -> int:
    """The envelope's ``time`` field, validated."""
    when = payload.get("time")
    if not isinstance(when, int) or isinstance(when, bool) or when < 0:
        raise ServeError("protocol", f"time must be an int >= 0, got {when!r}")
    return when


def field_tenant(payload: dict) -> str:
    """The envelope's ``tenant`` field, validated."""
    tenant = payload.get("tenant")
    if not isinstance(tenant, str) or not tenant:
        raise ServeError(
            "protocol", f"tenant must be a non-empty string, got {tenant!r}"
        )
    return tenant


def field_resource(payload: dict, num_resources: int) -> int:
    """The envelope's ``resource`` field, validated against ``[0, N)``."""
    resource = payload.get("resource")
    if (
        not isinstance(resource, int)
        or isinstance(resource, bool)
        or not 0 <= resource < num_resources
    ):
        raise ServeError(
            "protocol",
            f"resource must be an int in [0, {num_resources}), "
            f"got {resource!r}",
        )
    return resource


def shard_ranges(num_resources: int, num_shards: int) -> tuple[tuple[int, int], ...]:
    """The engine's shard partition, with empty server shards rejected.

    Delegates to :func:`repro.engine.scenarios.shard_ranges` — one
    formula shared with ``Scenario.build_shard`` — so a served workload
    and an intra-scenario sharded replay agree on which broker owns
    which resource.  Unlike replay merging, a server has no use for a
    shard that owns zero resources, so oversubscription is an error.
    """
    if num_shards > num_resources:
        raise ModelError(
            f"num_shards ({num_shards}) cannot exceed num_resources "
            f"({num_resources})"
        )
    return _shard_ranges(num_resources, num_shards)


class _Shard:
    """One shard: its broker, WAL, and applied log."""

    __slots__ = ("index", "lo", "hi", "broker", "applied", "wal", "applied_keys")

    def __init__(
        self, index: int, lo: int, hi: int, broker: LeaseBroker, record: bool
    ):
        self.index = index
        self.lo = lo
        self.hi = hi
        self.broker = broker
        self.applied: list[Event] | None = [] if record else None
        #: Per-shard WAL, None when the server runs without durability.
        self.wal: ShardWal | None = None
        #: Applied-event identity keys for retry dedup (WAL + record
        #: servers only): ``(kind, tenant, resource, applied_time)``.
        self.applied_keys: set[tuple] | None = None


def _applied_key(
    op: str, tenant: str | None, resource: int | None, now: int
) -> tuple:
    """The dedup identity of one applied event.

    ``acquire`` covers renewals — both record an ``Acquire`` in the
    applied stream, so a retried renew matches the acquire key its
    original application left behind.
    """
    if op == "tick":
        return ("tick", None, None, now)
    kind = "acquire" if op in ("acquire", "renew") else "release"
    return (kind, tenant, resource, now)


def _log_applied(
    shard: _Shard, kind: str, now: int, tenant: str | None,
    resource: int | None,
) -> None:
    """Append one applied event to a recording shard's log."""
    if shard.applied is not None:
        shard.applied.append(
            Tick(time=now)
            if kind == "tick"
            else (Acquire if kind == "acquire" else Release)(
                time=now, tenant=tenant, resource=resource
            )
        )


def _grant_payload(grant) -> dict:
    return {
        "grant_id": grant.grant_id,
        "tenant": grant.tenant,
        "resource": grant.resource,
        "acquired_at": grant.acquired_at,
        "expires_at": grant.expires_at,
        "released_at": grant.released_at,
    }


def trace_context(payload: dict) -> tuple[str, str] | None:
    """``(trace_id, parent_span_id)`` hex words from an envelope, if any.

    Malformed contexts decode to ``None`` — tracing is observation and must never fail the
    op that carried it.
    """
    raw = payload.get("trace")
    if raw is None:
        return None
    parsed = parse_trace(raw)
    if parsed is None:
        return None
    return f"{parsed[0]:016x}", f"{parsed[1]:016x}"


class LeaseServer:
    """A lease broker served over asyncio TCP and/or unix sockets.

    Args:
        schedule: lease types backing every shard broker.
        num_resources: size of the resource id space ``[0, num_resources)``.
        num_shards: contiguous resource shards (one broker each); must
            not exceed ``num_resources``.
        policy_factory: per-resource policy override, passed through to
            each shard's :class:`~repro.engine.broker.LeaseBroker`.
        record: keep a per-shard log of *applied* events (clock-ratcheted
            times) for the ``trace`` op and serialized-replay checks.
        idle_timeout: seconds before an idle tenant session is reaped.
        sweep_interval: seconds between reaper sweeps.
        metrics: live instrumentation registry; ``None`` (the default)
            serves with a disabled registry — null instruments, no
            per-op sampling, nothing rendered into the ``metrics`` verb
            beyond the scrape-time broker/session export.
        trace: per-op JSONL span sink; ``None`` disables tracing.
        wal_dir: root directory for per-shard write-ahead logs
            (``<wal_dir>/shard-<i>/``).  When set, every applied
            mutation is logged and committed before its reply and, on
            startup, each shard recovers snapshot + WAL into a
            byte-identical broker before the listeners open.  ``None``
            disables durability.
        fsync: WAL durability policy, applied at each chunk's commit —
            ``off`` / ``batch`` (fsync at most every
            ``BATCH_SYNC_INTERVAL`` seconds) / ``always`` (fsync every
            shard the chunk wrote to; the only mode under which an acked
            op survives a host crash).
        snapshot_every: applied events between automatic grant-table
            snapshots (each snapshot truncates the shard's WAL).
    """

    def __init__(
        self,
        schedule: LeaseSchedule,
        num_resources: int,
        num_shards: int = 1,
        policy_factory: PolicyFactory | None = None,
        record: bool = False,
        idle_timeout: float = 60.0,
        sweep_interval: float = 5.0,
        metrics: MetricsRegistry | None = None,
        trace: TraceSink | None = None,
        wal_dir: str | Path | None = None,
        fsync: str = "batch",
        snapshot_every: int | None = None,
        history: MetricsHistory | None = None,
        profiler: SamplingProfiler | None = None,
    ):
        # Imported lazily: repro.durable.wal itself imports the wire
        # protocol from this package, so a module-level import here
        # would close an import cycle whenever repro.durable loads
        # first.
        from ..durable.wal import DEFAULT_SNAPSHOT_EVERY, require_fsync_mode

        if num_resources < 1:
            raise ModelError("num_resources must be >= 1")
        self.schedule = schedule
        self.num_resources = num_resources
        self.ranges = shard_ranges(num_resources, num_shards)
        self._shard_los = [lo for lo, _ in self.ranges]
        self._shards = [
            _Shard(
                index,
                lo,
                hi,
                LeaseBroker(schedule, policy_factory=policy_factory),
                record,
            )
            for index, (lo, hi) in enumerate(self.ranges)
        ]
        self._record = record
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            enabled=False
        )
        self.trace = trace if trace is not None else NULL_TRACE
        #: Sample timestamps at all? One flag read per frame.
        self._sample = self.metrics.enabled or self.trace.enabled
        self._obs_clock = (
            self.metrics.clock if self.metrics.enabled else self.trace.clock
        )
        self._latency: dict[str, Histogram] = {}
        # None (not a null counter) when disabled: the hot path skips
        # the call entirely instead of invoking a no-op.
        if self.metrics.enabled:
            self._bytes_in = self.metrics.counter(
                "serve_bytes_in_total",
                help="Request bytes received, frame headers included.",
            )
            self._bytes_out = self.metrics.counter(
                "serve_bytes_out_total",
                help="Response bytes written, frame headers included.",
            )
            self._replies_dropped = self.metrics.counter(
                "serve_replies_dropped_total",
                help="Reply frames lost because their connection failed "
                "before they were written.",
            )
            self._dedup_hits = self.metrics.counter(
                "serve_retry_dedup_total",
                help="Retry-marked mutations answered from the applied log.",
            )
        else:
            self._bytes_in = self._bytes_out = None
            self._replies_dropped = self._dedup_hits = None
        self.sessions = SessionRegistry(
            idle_timeout=idle_timeout,
            expiry_counter=self.metrics.counter(
                "serve_session_expiries_total",
                help="Idle tenant sessions reaped by the sweeper.",
            ),
        )
        #: WAL records replayed by the last startup recovery.
        self.recovered_events = 0
        self._wal_dir = None if wal_dir is None else Path(wal_dir)
        self._fsync = require_fsync_mode(fsync)
        if snapshot_every is None:
            snapshot_every = DEFAULT_SNAPSHOT_EVERY
        if snapshot_every < 1:
            raise ModelError("snapshot_every must be >= 1")
        self._snapshot_every = snapshot_every
        self._recovered = False
        self._sweep_interval = sweep_interval
        # History rides the live registry (disabled registry -> disabled
        # ring); the profiler is always mountable but costs nothing
        # until a capture starts it.
        self.history = (
            history if history is not None else MetricsHistory(self.metrics)
        )
        self.profiler = (
            profiler if profiler is not None else SamplingProfiler()
        )
        self._profile_lock = asyncio.Lock()
        self._history_task: asyncio.Task | None = None
        self._started = False
        self._state = "serving"
        self._servers: list[asyncio.base_events.Server] = []
        self._writers: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._reaper: asyncio.Task | None = None
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
    def num_shards(self) -> int:
        return len(self._shards)

    def _start(self) -> None:
        if self._started:
            return
        self._started = True
        if self._wal_dir is not None and not self._recovered:
            self._recover()
        self._reaper = asyncio.create_task(
            self._sweep_sessions(), name="serve-session-reaper"
        )
        if self.history.enabled:
            self._history_task = asyncio.create_task(
                self._sample_history(), name="serve-history-sampler"
            )

    # ------------------------------------------------------------------
    # Durable recovery: replay snapshot + WAL before accepting traffic
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild every shard broker from its snapshot + WAL.

        Runs synchronously before the first listener opens — the
        server never serves a request against un-recovered state.
        Restoring a snapshot and replaying the log's tail reproduces the
        pre-crash broker byte for byte (the :mod:`repro.durable`
        invariant the tests pin down); the applied-event log and the
        retry-dedup key set are rebuilt alongside so the ``trace`` op
        and exactly-once retries survive the restart too.
        """
        from ..durable.wal import SNAPSHOT_FILE, ShardWal, recover_shard

        self._recovered = True
        recovered_total = 0
        hist = (
            self.metrics.histogram(
                "durable_recovery_seconds",
                help="Per-shard snapshot+WAL recovery time.",
            )
            if self.metrics.enabled
            else None
        )
        for shard in self._shards:
            started = _time.perf_counter()
            directory = self._wal_dir / f"shard-{shard.index}"
            recovery = recover_shard(directory)
            try:
                if recovery.state is not None:
                    shard.broker.restore_state(recovery.state)
                if shard.applied is not None and recovery.applied is not None:
                    shard.applied.extend(
                        event_from_payload(payload)
                        for payload in recovery.applied
                    )
            except _SNAPSHOT_CONTENT_ERRORS as exc:
                # The loader checks the document's shape, not the broker
                # state inside it: whatever that holds must restore or
                # fail typed, naming the file.
                raise ModelError(
                    f"corrupt snapshot {directory / SNAPSHOT_FILE}: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            broker = shard.broker
            for record in recovery.records:
                kind, when = record["op"], record["time"]
                tenant, resource = record.get("tenant"), record.get("resource")
                if kind == "acquire":
                    broker._acquire(tenant, resource, when)
                elif kind == "release":
                    broker._release(tenant, resource, when)
                elif kind == "tick":
                    broker.tick(when)
                else:
                    continue
                _log_applied(shard, kind, when, tenant, resource)
            shard.wal = ShardWal(
                directory,
                fsync=self._fsync,
                metrics=self.metrics if self.metrics.enabled else None,
                shard=shard.index,
            )
            shard.wal.seq = recovery.last_seq
            applied = shard.applied
            if applied is not None:
                shard.applied_keys = {
                    _applied_key(
                        "acquire" if isinstance(event, Acquire) else
                        "release" if isinstance(event, Release) else "tick",
                        getattr(event, "tenant", None),
                        getattr(event, "resource", None),
                        event.time,
                    )
                    for event in applied
                }
            recovered_total += recovery.events
            if self.metrics.enabled:
                self.metrics.counter(
                    "wal_recovered_events_total",
                    help="WAL records replayed at startup.",
                    shard=str(shard.index),
                ).inc(recovery.events)
            if hist is not None:
                hist.observe(_time.perf_counter() - started)
        self.recovered_events = recovered_total

    async def start_unix(self, path: str) -> None:
        """Start serving on a unix socket at ``path``."""
        self._start()
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
        """Start serving on TCP; returns the bound port.

        ``reuse_port=True`` binds with ``SO_REUSEPORT`` so replicas can
        share a port (the cluster router uses this for its control
        plane; a lone lease server rarely wants it).
        """
        self._start()
        server = await asyncio.start_server(
            self._handle_connection, host=host, port=port,
            reuse_port=reuse_port or None,
        )
        self._servers.append(server)
        return server.sockets[0].getsockname()[1]

    def drain(self) -> str:
        """Refuse new acquires; keep serving renews and releases."""
        if self._state == "serving":
            self._state = "draining"
        return self._state

    def undrain(self) -> str:
        """Resume admitting acquires after a drain (stopped stays stopped)."""
        if self._state == "draining":
            self._state = "serving"
        return self._state

    async def shutdown(self) -> None:
        """Graceful stop: close listeners and connections, snapshot WALs.

        Every reply written so far was committed first, so nothing is
        left to wait for; a chunk still being applied refuses its
        remaining mutations ``unavailable`` and its replies are dropped
        with the connection.
        """
        if self._state == "stopped":
            await self._stopped.wait()
            return
        self._state = "stopped"
        for server in self._servers:
            server.close()
        # Close the connections before waiting on the listeners: from
        # Python 3.12.1 on, Server.wait_closed() also waits for every
        # connection it accepted.
        for writer in tuple(self._writers):
            writer.close()
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:
                pass
        for shard in self._shards:
            if shard.wal is not None:
                # Graceful stop: fold the tail into a final snapshot so
                # the next start recovers without replaying the log.
                if shard.wal.appended_since_snapshot:
                    self._snapshot(shard)
                shard.wal.close()
        for periodic in (self._reaper, self._history_task):
            if periodic is not None:
                periodic.cancel()
                try:
                    await periodic
                except asyncio.CancelledError:
                    pass
        self.profiler.stop()
        # Let every connection handler notice its closed transport and
        # unwind before the loop is torn down under it.
        lingering = [
            task
            for task in tuple(self._conn_tasks)
            if task is not asyncio.current_task()
        ]
        if lingering:
            await asyncio.gather(*lingering, return_exceptions=True)
        self.trace.flush()
        self._stopped.set()

    async def run_until_stopped(self) -> None:
        """Block until :meth:`shutdown` completes."""
        await self._stopped.wait()

    # ------------------------------------------------------------------
    # Applying requests: the only code that touches a broker
    # ------------------------------------------------------------------
    def _snapshot(self, shard: _Shard) -> None:
        applied = (
            None
            if shard.applied is None
            else [event_to_payload(event) for event in shard.applied]
        )
        shard.wal.write_snapshot(
            shard.broker.snapshot_state(), applied=applied
        )

    def _dedup_reply(
        self,
        broker: LeaseBroker,
        op: str,
        tenant: str | None,
        resource: int | None,
        now: int,
    ) -> dict:
        """Synthesize the reply for an already-applied retried mutation.

        The broker is left untouched — the whole point — so the reply is
        reconstructed from current state: an acquire/renew reports the
        tenant's live grant (if it still has one), a release reports the
        grant as already gone.
        """
        if self._dedup_hits is not None:
            self._dedup_hits.inc()
        if op == "tick":
            return {"applied_time": now}
        if op == "release":
            return {"grant": None, "applied_time": now}
        grants = broker.active_leases(resource=resource, tenant=tenant)
        grant = _grant_payload(grants[0]) if grants else None
        return {"grant": grant, "applied_time": now}

    def _shard_of(self, resource: int) -> _Shard:
        # Ranges are contiguous and exhaustive over [0, num_resources),
        # so the owning shard is the last one starting at or before the
        # resource — one bisect on the range starts.
        where = bisect.bisect_right(self._shard_los, resource) - 1
        return self._shards[where]

    def _mutate(
        self,
        op: str,
        tenant: str | None,
        resource: int | None,
        when: int,
        retry: bool = False,
    ) -> tuple[dict, int]:
        """Apply one validated mutation: ``(result, shard index)``.

        A tick applies to every shard and reports shard index ``-1``.
        """
        if self._state == "stopped":
            raise ServeError("unavailable", "server is stopped")
        if op == "tick":
            applied = max(
                self._apply_to_shard(shard, op, None, None, when, retry)[
                    "applied_time"
                ]
                for shard in self._shards
            )
            return {"applied_time": applied}, -1
        if op == "acquire" and self._state != "serving":
            raise ServeError(
                "draining", "server is draining; new acquires are refused"
            )
        self.sessions.served(tenant)
        shard = self._shard_of(resource)
        return (
            self._apply_to_shard(shard, op, tenant, resource, when, retry),
            shard.index,
        )

    def _apply_to_shard(
        self,
        shard: _Shard,
        op: str,
        tenant: str | None,
        resource: int | None,
        when: int,
        retry: bool,
    ) -> dict:
        broker = shard.broker
        # Ratchet stale times to the shard clock: the request reaches
        # this broker *now*, whatever day its tenant believes it is.
        now = when if when >= broker.clock else broker.clock
        keys = shard.applied_keys
        if keys is not None:
            # Exactly-once under crash-retry: a retry-marked frame whose
            # applied identity is already in the log was applied before
            # the sender lost the reply — answer it without touching the
            # broker.  Unmarked traffic never consults the set, so
            # legitimate repeats (same-day re-acquires) behave exactly
            # as without a WAL.
            key = _applied_key(op, tenant, resource, now)
            if retry and key in keys:
                return self._dedup_reply(broker, op, tenant, resource, now)
        if op == "tick":
            broker.tick(now)
            result = {"applied_time": now}
        else:
            if op == "acquire":
                grant = broker.acquire(tenant, resource, now)
            elif op == "renew":
                grant = broker.renew(tenant, resource, now)
            else:
                grant = broker.release(tenant, resource, now)
            result = {
                "grant": None if grant is None else _grant_payload(grant),
                "applied_time": now,
            }
        if keys is not None:
            keys.add(key)
        # Renewals enter the applied trace and the WAL as acquires:
        # replay reproduces the same acquire-or-renew classification
        # from broker state.
        kind = "acquire" if op == "renew" else op
        _log_applied(shard, kind, now, tenant, resource)
        wal = shard.wal
        if wal is not None:
            wal.append(kind, now, tenant=tenant, resource=resource)
            if wal.appended_since_snapshot >= self._snapshot_every:
                self._snapshot(shard)
        return result

    def _commit(self) -> dict[int, str]:
        """Commit every shard WAL: ``{shard index: reason}`` for failures."""
        failed = {}
        for shard in self._shards:
            if shard.wal is None:
                continue
            try:
                shard.wal.commit()
            except OSError as exc:
                failed[shard.index] = f"WAL commit failed: {exc}"
        return failed

    def _read_shard(self, shard: _Shard, op: str) -> dict:
        broker = shard.broker
        if op == "stats":
            return {
                "index": shard.index,
                "lo": shard.lo,
                "hi": shard.hi,
                "clock": broker.clock,
                "num_active": broker.num_active,
                "stats": broker.stats.as_dict(),
                "stats_full": broker.stats.full_dict(),
                "grant_table": broker.num_grants,
                "expiry_heap": broker.heap_size,
            }
        if op == "report":
            leases = broker.leases
            return {
                "index": shard.index,
                "cost": sum(lease.cost for lease in leases),
                "leases": [
                    [
                        lease.resource,
                        lease.type_index,
                        lease.start,
                        lease.length,
                        lease.cost,
                    ]
                    for lease in leases
                ],
                "stats": broker.stats.mergeable(),
                "num_active": broker.num_active,
                "num_demands": broker.stats.acquires + broker.stats.renewals,
            }
        if op == "trace":
            if shard.applied is None:
                raise ServeError(
                    "unavailable",
                    "server was started without record=True; no applied "
                    "trace is kept",
                )
            return {
                "index": shard.index,
                "lo": shard.lo,
                "hi": shard.hi,
                "events": [event_to_payload(e) for e in shard.applied],
            }
        # op == "leases": the live lease book.  Lease ids are
        # "<shard>:<grant_id>" — stable handles for the admin plane's
        # force-release.
        return {
            "index": shard.index,
            "clock": broker.clock,
            "leases": [
                dict(
                    _grant_payload(grant),
                    lease_id=f"{shard.index}:{grant.grant_id}",
                )
                for grant in broker.active_leases()
            ],
        }

    def _read(self, op: str) -> list[dict]:
        """Every shard's answer to one read op, in shard order."""
        return [self._read_shard(shard, op) for shard in self._shards]

    async def _sweep_sessions(self) -> None:
        while True:
            await asyncio.sleep(self._sweep_interval)
            self.sessions.expire_idle()

    async def _sample_history(self) -> None:
        # asyncio.sleep paces the loop; the sample's own timestamp comes
        # from the ring's injectable clock, so sleep jitter never skews
        # the recorded rates.
        while True:
            await asyncio.sleep(self.history.interval)
            self.history.sample()

    # ------------------------------------------------------------------
    # Control ops
    # ------------------------------------------------------------------
    def _hello(self) -> dict:
        return {
            "server": "repro.serve",
            "protocol": PROTOCOL_VERSION,
            "trace": True,
            "state": self._state,
            "record": self._record,
            "wal": self._wal_dir is not None,
            "fsync": self._fsync if self._wal_dir is not None else None,
            "num_resources": self.num_resources,
            "num_shards": self.num_shards,
            "ranges": [list(r) for r in self.ranges],
            "schedule": {
                "num_types": self.schedule.num_types,
                "lengths": [t.length for t in self.schedule],
                "costs": [t.cost for t in self.schedule],
            },
        }

    def _control(self, op: str, payload: dict) -> dict:
        # `hello` and `shutdown` never reach here: the reader loop
        # handles them (codec negotiation, hang-up).
        if op == "route":
            # In the protocol for the cluster router's handshake; a
            # lone server has no fleet to hand out.
            raise ServeError(
                "protocol",
                "route needs a cluster router; this is a single lease "
                "server — dial it directly",
            )
        if op == "stats":
            return {
                "state": self._state,
                "sessions": self.sessions.snapshot(),
                "shards": self._read("stats"),
            }
        if op in ("report", "trace", "leases"):
            return {"shards": self._read(op)}
        if op == "metrics":
            return {"text": self.render_metrics(self._read("stats"))}
        if op == "spans":
            # Flushed buffer plus file, so the answer includes spans a
            # pre-crash incarnation wrote; by id, from the sink's index.
            return {"spans": self.trace.live_spans(payload.get("trace"))}
        if op == "drain":
            return {"state": self.drain()}
        if op == "undrain":
            return {"state": self.undrain()}
        raise ServeError("protocol", f"unknown op {op!r}")

    def render_metrics(self, shard_stats: list[dict]) -> str:
        """The process's Prometheus text exposition, from shard stats.

        Scrape-time families (broker counters/gauges, session totals)
        are folded into a fresh registry from every shard's ``stats``
        payload; the live registry's families (latency histograms, byte
        and dropped-reply counters) are appended when metrics are
        enabled.  The two renders use disjoint family names, so the
        concatenation is itself a valid exposition.
        """
        registry = MetricsRegistry(clock=self.metrics.clock)
        export_shards(registry, shard_stats)
        export_sessions(registry, self.sessions.snapshot())
        text = registry.render_prometheus()
        if self.metrics.enabled:
            text += self.metrics.render_prometheus()
        return text

    # ------------------------------------------------------------------
    # Admin backend — the surface repro.admin.AdminPlane mounts over HTTP
    # ------------------------------------------------------------------
    async def admin_metrics(self) -> str:
        """The ``GET /metrics`` exposition (reads every shard's stats)."""
        return self.render_metrics(self._read("stats"))

    def admin_health(self) -> dict:
        """Liveness: the process is up and can say what state it is in.

        Carries the per-tenant session rows (served, idle seconds) so
        one curl answers both "is it up" and "who is talking to it".
        """
        return {
            "state": self._state,
            "shards": self.num_shards,
            "wal": self._wal_dir is not None,
            "recovered_events": self.recovered_events,
            "sessions": self.sessions.tenant_snapshot(),
        }

    def admin_ready(self) -> tuple[bool, dict]:
        """Readiness: recovery complete and the server accepting work.

        Readiness is stricter than liveness: a WAL'd server that has not
        finished recovery, or one that is draining or stopped, is alive
        but not ready — a load balancer should not send it acquires.
        """
        recovered = self._wal_dir is None or self._recovered
        ready = self._started and recovered and self._state == "serving"
        return ready, {
            "ready": ready,
            "state": self._state,
            "started": self._started,
            "recovered": recovered,
        }

    async def admin_leases(
        self, tenant: str | None = None, resource: int | None = None
    ) -> list[dict]:
        """The live lease book, folded across shards, filtered, sorted.

        A plain read of every shard, so the book reflects every frame
        applied before the call.  Sorted by (resource, tenant,
        lease_id) — a stable order for pagination.
        """
        return self._lease_book(tenant, resource)

    def _lease_book(
        self, tenant: str | None = None, resource: int | None = None
    ) -> list[dict]:
        book = [
            lease
            for shard in self._read("leases")
            for lease in shard["leases"]
            if (tenant is None or lease["tenant"] == tenant)
            and (resource is None or lease["resource"] == resource)
        ]
        book.sort(key=lambda l: (l["resource"], l["tenant"], l["lease_id"]))
        return book

    def admin_force_release(self, lease_id: str) -> dict | None:
        """Durably force-release one lease by its ``<shard>:<grant_id>`` id.

        Applied like an ordinary ``release`` with ``time=0``
        (clock-ratcheted to the owning shard's today) — so it rides the
        WAL, lands in the applied trace as a replayable
        :class:`Release`, and carries the same retry-dedup identity as
        any client release — and committed before the answer is
        returned.  Returns the reply payload, or ``None`` when no live
        lease has that id.
        """
        lease = next(
            (l for l in self._lease_book() if l["lease_id"] == lease_id), None
        )
        if lease is None:
            return None
        result, index = self._mutate(
            "release", lease["tenant"], lease["resource"], 0
        )
        if self._wal_dir is not None:
            reason = self._commit().get(index)
            if reason is not None:
                raise ServeError("unavailable", reason)
        return {"lease_id": lease_id, "released": dict(lease), **result}

    def admin_drain(self, worker: int) -> str | None:
        """Drain this process (a single server is worker 0, only)."""
        if worker != 0:
            return None
        return self.drain()

    def admin_undrain(self, worker: int) -> str | None:
        if worker != 0:
            return None
        return self.undrain()

    def admin_trace(self, trace_id: str) -> list[dict] | None:
        """The span tree for one trace id from this process's sink.

        Flushes the sink first so spans emitted moments ago are visible.
        Returns the nested payload, or ``None`` when tracing is off or
        the id has left no spans here.
        """
        if not self.trace.enabled:
            return None
        trees = build_trace_trees(self.trace.live_spans(trace_id))
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
        """``GET /profile?seconds=``: capture and aggregate stacks.

        Starts the sampler only if it is not already running (an
        externally driven capture keeps its window), sleeps out the
        requested capture, and returns the aggregated snapshot.
        Serialized: concurrent captures queue rather than clobbering
        each other's windows.
        """
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

    # ------------------------------------------------------------------
    # Connections: one reader loop each
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        decoder = FrameDecoder(MAX_REQUEST_BYTES)
        # One mutable slot per connection: `hello` may switch the codec
        # mid-chunk, and each reply is encoded with the codec in force
        # when it was produced (receivers decode both codecs).
        codec = [CODEC_JSON]
        try:
            # A connection accepted just before shutdown closed the
            # others must not keep the stopped server's listener open.
            while self._state != "stopped":
                try:
                    data = await reader.read(READ_BYTES)
                except (ConnectionError, OSError):
                    break
                if not data:
                    break
                if self._bytes_in is not None:
                    self._bytes_in.inc(len(data))
                try:
                    frames = decoder.feed(data)
                    fault = None
                except ProtocolError as exc:
                    # The byte stream is unparseable past this frame:
                    # answer the frames before it, name the violation,
                    # then hang up rather than resync.
                    frames, fault = exc.frames, exc
                out, done = await self._serve_chunk(frames, codec)
                if fault is not None and not done:
                    out.append(
                        encode_frame(
                            error(None, "protocol", str(fault)), codec[0]
                        )
                    )
                    done = True
                if not await self._write(writer, out) or done:
                    break
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def _serve_chunk(
        self, frames: list[dict], codec: list[str]
    ) -> tuple[list[bytes], bool]:
        """Apply one chunk's frames in read order, then commit.

        Returns the encoded replies, in request order, and whether the
        connection should hang up after writing them (``shutdown``).
        Every :data:`YIELD_EVERY` frames the loop serves other
        connections; their chunks may apply and commit meanwhile, which
        only ever makes this chunk's appends durable sooner.
        """
        out: list[bytes] = []
        if not frames:
            return out, False
        sample = self._sample
        clock = self._obs_clock
        t_enq = clock() if sample else 0.0
        wal = self._wal_dir is not None
        # (reply position, shard index, request id, codec) of every ok
        # mutation reply a failed commit must turn into an error.
        held: list[tuple] = []
        records: list[tuple] = []
        done = False
        for count, payload in enumerate(frames):
            if count and count % YIELD_EVERY == 0:
                await asyncio.sleep(0)
            op = payload.get("op")
            if type(op) is not str:
                op = None  # unhashable or not a name: an unknown op
            request_id = payload.get("id")
            t_disp = clock() if sample else 0.0
            tenant = resource = None
            if op in MUTATION_OPS:
                try:
                    when = field_time(payload)
                    if op != "tick":
                        tenant = field_tenant(payload)
                        resource = field_resource(payload, self.num_resources)
                    result, index = self._mutate(
                        op, tenant, resource, when,
                        payload.get("retry") is True,
                    )
                except ServeError as exc:
                    frame = error(request_id, exc.kind, exc.message)
                except ModelError as exc:
                    frame = error(request_id, "model", str(exc))
                except Exception as exc:  # pragma: no cover - defensive
                    frame = error(
                        request_id, "model", f"{type(exc).__name__}: {exc}"
                    )
                else:
                    frame = ok(request_id, result)
                    if wal:
                        held.append((len(out), index, request_id, codec[0]))
            elif op == "hello":
                # An explicit `codec` field renegotiates this connection
                # (unknown values settle on JSON); a hello *without* it
                # is plain introspection and leaves the codec untouched.
                if "codec" in payload:
                    codec[0] = negotiate_codec(payload.get("codec"))
                result = self._hello()
                result["codec"] = codec[0]
                frame = ok(request_id, result)
            elif op == "shutdown":
                frame = ok(request_id, {"state": "stopped"})
                done = True
            elif op in OPS:
                try:
                    frame = ok(request_id, self._control(op, payload))
                except ServeError as exc:
                    frame = error(request_id, exc.kind, exc.message)
                except Exception as exc:
                    # A read that fails must not drop the connection: on
                    # a worker that link is the router's, whose EOF
                    # reads as a dead worker.
                    frame = error(
                        request_id, "model", f"{type(exc).__name__}: {exc}"
                    )
            else:
                frame = error(
                    request_id,
                    "protocol",
                    f"unknown op {op!r}; known: {', '.join(OPS)}",
                )
            out.append(encode_frame(frame, codec[0]))
            if sample:
                if op in _EVERY_SHARD_OPS:
                    records.extend(
                        [(op, None, None, payload, t_disp)] * len(self._shards)
                    )
                elif op in MUTATION_OPS:
                    records.append((op, tenant, resource, payload, t_disp))
            if done:
                self._shutdown_task = asyncio.create_task(self.shutdown())
                break
        if wal:
            failed = self._commit()
            if failed:
                for position, index, request_id, reply_codec in held:
                    reason = (
                        failed.get(index)
                        if index >= 0
                        else next(iter(failed.values()))
                    )
                    if reason is not None:
                        out[position] = encode_frame(
                            error(request_id, "unavailable", reason),
                            reply_codec,
                        )
        if records:
            self._observe(records, t_enq)
        return out, done

    def _latency_hist(self, op: str) -> Histogram:
        hist = self._latency.get(op)
        if hist is None:
            hist = self._latency[op] = self.metrics.histogram(
                "serve_op_latency_seconds",
                help="Per-op latency from read to reply (after the WAL "
                "commit), by op kind.",
                op=op,
            )
        return hist

    def _observe(self, records: list[tuple], t_enq: float) -> None:
        """One chunk's latency samples and dispatch spans.

        ``t_reply`` is stamped here, after the chunk's commit, so every
        sample includes the fsync wait its reply waited out.
        """
        t_reply = self._obs_clock()
        latency = t_reply - t_enq
        span = self.trace.span
        tracing = self.trace.enabled
        for op, tenant, resource, payload, t_disp in records:
            self._latency_hist(op).observe(latency)
            request_id = payload.get("id")
            if type(request_id) is not int:
                request_id = None
            context = trace_context(payload) if tracing else None
            if context is None:
                span(
                    op=op, tenant=tenant, resource=resource,
                    request_id=request_id, t_enq=t_enq, t_disp=t_disp,
                    t_reply=t_reply,
                )
            else:
                # The dispatch span inherits the envelope's trace
                # context: same trace id, parented to the hop that
                # forwarded the frame here.
                span(
                    op=op, tenant=tenant, resource=resource,
                    request_id=request_id, t_enq=t_enq, t_disp=t_disp,
                    t_reply=t_reply, trace=context[0], span_id=new_id(),
                    parent=context[1], kind="dispatch",
                )

    async def _write(self, writer, out: list[bytes]) -> bool:
        """Write one chunk's replies; ``False`` once the peer is gone.

        A failed write counts every reply it carried as dropped; the
        caller hangs up this connection and the rest keep serving.
        """
        if not out:
            return True
        data = b"".join(out)
        try:
            writer.write(data)
            await writer.drain()
        except (ConnectionError, RuntimeError, OSError):
            if self._replies_dropped is not None:
                self._replies_dropped.inc(len(out))
            return False
        if self._bytes_out is not None:
            self._bytes_out.inc(len(data))
        return True


class ServerThread:
    """Host a :class:`LeaseServer`'s event loop in a daemon thread.

    The synchronous world's handle on the server: start it, read the
    bound addresses, and stop it — everything else happens over sockets.
    The thread owns the loop and the server outright (the ownership
    contract above); the creating thread must not touch the server
    object after :meth:`start`.
    """

    def __init__(
        self,
        server: LeaseServer,
        unix_path: str | None = None,
        tcp: tuple[str, int] | None = None,
    ):
        if unix_path is None and tcp is None:
            raise ModelError("ServerThread needs a unix path or a TCP address")
        self._server = server
        self._unix_path = unix_path
        self._tcp = tcp
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self.tcp_port: int | None = None

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ModelError("serve thread failed to start in time")
        if self._error is not None:
            raise ModelError(f"serve thread failed: {self._error}")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - defensive
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        try:
            if self._unix_path is not None:
                await self._server.start_unix(self._unix_path)
            if self._tcp is not None:
                self.tcp_port = await self._server.start_tcp(*self._tcp)
            self._loop = asyncio.get_running_loop()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._server.run_until_stopped()

    def stop(self, timeout: float = 10.0) -> None:
        """Shut the server down and join the thread."""
        if self._thread is None:
            return
        if self._loop is not None and self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self._server.shutdown(), self._loop
            )
            try:
                future.result(timeout)
            except Exception:
                pass
        self._thread.join(timeout)
