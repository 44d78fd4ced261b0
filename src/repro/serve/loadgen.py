"""Closed-loop tenant workloads driving a lease server, with proof.

The loadgen turns a canonical broker trace (the shardable
:class:`~repro.engine.scenarios.BrokerTraceInstance` of PR 2's
``broker-*`` family) into live traffic: every tenant in the trace
becomes its own closed-loop client on its own unix-socket connection,
replaying its events in order and awaiting each response before sending
the next.  A coordinator steps the whole fleet through simulated days
*bulk-synchronously* — per day it first broadcasts the day's tick, then
lets every tenant fire its releases, then its acquires, with a barrier
between phases.  Within a phase tenants interleave arbitrarily (that is
the concurrency being exercised), but every interleaving the barrier
admits permutes only same-day operations on distinct (tenant, resource)
keys, which the broker's outcome is invariant under.  The served outcome
is therefore *deterministic* and provably equal to an inline replay of
the same merged trace:

* per shard, the server's broker saw exactly the canonical sub-trace
  (same events, same days, per-tenant order preserved, ticks
  replicated);
* merging the per-shard run payloads with PR 2's
  :func:`~repro.engine.scenarios.merge_broker_runs` therefore reproduces
  the single-broker inline replay byte for byte — same cost, same lease
  tuple, same stats.

:func:`run_serve_instance` performs the whole cycle — start an
in-process server on a throwaway unix socket, drive the tenants, fetch
the per-shard reports, merge, replay inline, compare — and records the
verdict in the result's ``detail["serve"]["report_equal"]``, which
:func:`verify_serve` then enforces.  :func:`drive_tenants` is the
client-side half on its own, for loadgen against an external server
(``python -m repro engine loadgen --socket ...``).

Free-running tenants (no day barrier) are supported for tests and
stress runs through the server's *recording* mode: with ``record=True``
the server logs every applied (clock-ratcheted) event per shard, and
:func:`replay_applied` re-runs those serialized traces through fresh
brokers — the served totals must match that replay exactly, whatever
the interleaving was.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

from ..core.lease import Lease, LeaseSchedule
from ..core.results import RunResult
from ..analysis.verify import VerificationReport
from ..engine.broker import LeaseBroker, replay_trace
from ..engine.events import (
    Event,
    Release,
    Tick,
    event_from_payload,
    generate_resource_trace,
)
from ..engine.scenarios import (
    _BROKER_ALGORITHM,
    BrokerTraceInstance,
    merge_broker_runs,
    run_broker_trace,
    verify_broker_trace,
)
from ..errors import ModelError
from ..obs.metrics import Histogram, MetricsRegistry
from ..obs.trace import TraceSink
from .client import AsyncLeaseClient, DirectLeaseClient
from .server import LeaseServer

#: Histogram family the loadgen samples client-observed op latency into,
#: one series per tenant; ``loadgen --check`` prints its percentiles.
LOADGEN_LATENCY_METRIC = "loadgen_op_latency_seconds"


@dataclass(frozen=True)
class ServeInstance:
    """A serve-scenario instance: the canonical trace plus serving shape.

    ``trace`` is the full (unsharded) broker-trace instance whose inline
    replay is the ground truth; ``num_shards`` is how the server
    partitions the resources.
    """

    trace: BrokerTraceInstance
    num_shards: int

    @property
    def tenants(self) -> tuple[str, ...]:
        """Every tenant named in the trace, sorted."""
        return tuple(
            sorted(
                {
                    event.tenant
                    for event in self.trace.events
                    if type(event) is not Tick
                }
            )
        )


def build_serve_instance(
    workload: str,
    horizon: int,
    seed: int,
    num_resources: int = 8,
    tenants_per_resource: int = 2,
    hold: int = 3,
    tick_every: int = 32,
    num_types: int = 4,
    cost_growth: float = 2.0,
    num_shards: int = 4,
) -> ServeInstance:
    """A serve instance over :func:`generate_resource_trace` streams.

    Defaults mirror :func:`~repro.engine.scenarios.make_broker_scenario`:
    ``cost_growth=2.0`` keeps every cost sum exactly representable, so
    the served-vs-inline equality is bitwise, not approximate.
    """
    schedule = LeaseSchedule.power_of_two(num_types, cost_growth=cost_growth)
    events = generate_resource_trace(
        workload,
        horizon,
        seed,
        num_resources=num_resources,
        tenants_per_resource=tenants_per_resource,
        hold=hold,
        tick_every=tick_every,
    )
    trace = BrokerTraceInstance(
        schedule=schedule,
        workload=workload,
        horizon=horizon,
        seed=seed,
        num_resources=num_resources,
        resources=(0, num_resources),
        events=events,
    )
    return ServeInstance(trace=trace, num_shards=num_shards)


# ----------------------------------------------------------------------
# Day schedule: the coordinator's bulk-synchronous plan
# ----------------------------------------------------------------------
def _day_schedule(
    events,
) -> list[tuple[int, bool, dict[str, list[Event]], dict[str, list[Event]]]]:
    """Group a canonical trace into per-day (tick?, releases, acquires)."""
    days: list[tuple[int, bool, dict, dict]] = []
    current = None
    for event in events:
        if current is None or event.time != current[0]:
            current = (event.time, [False], {}, {})
            days.append(current)
        if type(event) is Tick:
            current[1][0] = True
        elif type(event) is Release:
            current[2].setdefault(event.tenant, []).append(event)
        else:
            current[3].setdefault(event.tenant, []).append(event)
    return [
        (time, tick[0], releases, acquires)
        for time, tick, releases, acquires in days
    ]


async def _tenant_burst(
    client: AsyncLeaseClient | DirectLeaseClient,
    events: list[Event],
    hist: Histogram | None = None,
    clock=None,
) -> int:
    """One tenant's same-day events, strictly closed-loop (one in flight).

    With ``hist`` given, each op's client-observed round-trip latency is
    sampled into it using ``clock`` (the loadgen registry's monotonic
    source); without it nothing is timed.
    """
    sent = 0
    for event in events:
        t0 = clock() if hist is not None else 0.0
        if type(event) is Release:
            await client.release(event.tenant, event.resource, event.time)
        else:
            await client.acquire(event.tenant, event.resource, event.time)
        if hist is not None:
            hist.observe(clock() - t0)
        sent += 1
    return sent


async def drive_tenants(
    instance: ServeInstance,
    socket_path: str,
    retry_for: float = 5.0,
    codec: str | None = None,
    latency_registry: MetricsRegistry | None = None,
    on_day=None,
    client_trace: TraceSink | None = None,
) -> dict:
    """Drive a server at ``socket_path`` with the instance's tenants.

    One pipelined connection per tenant plus a control connection for
    ticks and the final report; returns ``{"shards": [...], "requests":
    n}`` where the shard payloads are the server's per-shard ``report``
    op results.  ``codec="bin"`` negotiates the binary codec on every
    connection (falling back to JSON if the server declines); the
    ``instance`` only needs ``.tenants`` and ``.trace.events``, so the
    cluster loadgen drives through here too.

    Against a *cluster router* (its ``hello`` carries a ``cluster``
    block) each tenant is a :class:`~repro.serve.client.DirectLeaseClient`
    that handshakes with the router once (the ``route`` verb) and then
    sends its mutations straight to the owning worker, so the router
    only sees the ticks, the final ``report`` barrier and the
    handshakes.  The determinism argument is unchanged: the day's tick
    is awaited on the control connection before any tenant fires, and
    the tick barrier completes on every worker before it answers.  A
    worker killed mid-drive surfaces as a dead link; the tenant's client
    re-handshakes until supervision brings the worker back and resends
    the op retry-marked, which the recovered worker's applied-identity
    dedup makes exactly-once.  The report then also carries
    ``handshakes`` (route calls across all tenants) and ``retried_ops``
    (mutations resent after a worker death).

    ``latency_registry``, when given and enabled, receives one
    :data:`LOADGEN_LATENCY_METRIC` histogram series per tenant with
    every op's client-observed round-trip latency — the data behind the
    ``loadgen --check`` percentile lines.  Latencies are wall-clock and
    never enter the report's verified fields.

    ``on_day``, when given, is called with each simulated day *before*
    that day's tick and bursts — the fault-injection hook the chaos
    harness uses to kill workers at deterministic points in the run.

    ``client_trace``, when given and enabled, makes every connection a
    trace originator: each mutation is sent with a fresh trace context
    (and leaves a ``client`` span in the sink), which the server — or
    the cluster's workers — link their own spans to.  Span files
    from all sides merge into causal trees via ``engine trace-tree``.
    """
    control = await AsyncLeaseClient.open_unix(
        socket_path, retry_for=retry_for, codec=codec, trace=client_trace
    )
    cluster = "cluster" in await control.hello()
    tenant_client = DirectLeaseClient if cluster else AsyncLeaseClient
    clients = {
        tenant: await tenant_client.open_unix(
            socket_path, retry_for=retry_for, codec=codec, trace=client_trace
        )
        for tenant in instance.tenants
    }
    hists: dict[str, Histogram] = {}
    obs_clock = None
    if latency_registry is not None and latency_registry.enabled:
        obs_clock = latency_registry.clock
        hists = {
            tenant: latency_registry.histogram(
                LOADGEN_LATENCY_METRIC,
                help="Client-observed op round-trip latency, per tenant.",
                tenant=tenant,
            )
            for tenant in instance.tenants
        }
    requests = 0
    try:
        for day, has_tick, releases, acquires in _day_schedule(
            instance.trace.events
        ):
            if on_day is not None:
                on_day(day)
            if has_tick:
                await control.tick(day)
                requests += 1
            for phase in (releases, acquires):
                if not phase:
                    continue
                counts = await asyncio.gather(
                    *(
                        _tenant_burst(
                            clients[tenant], events,
                            hists.get(tenant), obs_clock,
                        )
                        for tenant, events in phase.items()
                    )
                )
                requests += sum(counts)
        report = await control.report()
    finally:
        for client in clients.values():
            await client.close()
        await control.close()
        if client_trace is not None:
            client_trace.flush()
    report["requests"] = requests
    if cluster:
        report["handshakes"] = sum(
            client.handshakes for client in clients.values()
        )
        report["retried_ops"] = sum(
            client.retried_ops for client in clients.values()
        )
    return report


# ----------------------------------------------------------------------
# Shard payloads -> RunResults -> the served aggregate
# ----------------------------------------------------------------------
def _shard_run_result(payload: dict) -> RunResult:
    leases = tuple(
        Lease(
            resource=resource,
            type_index=type_index,
            start=start,
            length=length,
            cost=cost,
        )
        for resource, type_index, start, length, cost in payload["leases"]
    )
    return RunResult(
        algorithm=_BROKER_ALGORITHM,
        cost=payload["cost"],
        leases=leases,
        num_demands=payload["num_demands"],
        detail={
            "broker_stats": dict(payload["stats"]),
            "num_active": payload["num_active"],
        },
    )


def merge_shard_payloads(shard_payloads: list[dict]) -> RunResult:
    """Fold the server's per-shard report payloads into one run result."""
    runs = [_shard_run_result(payload) for payload in shard_payloads]
    if len(runs) == 1:
        return runs[0]
    return merge_broker_runs(runs)


def compare_with_inline(
    instance: ServeInstance, served: RunResult, seed: int
) -> tuple[RunResult, bool]:
    """Replay the merged trace inline and test exact aggregate equality.

    Equality is field-by-field on everything the aggregate report is
    built from — cost, the full lease tuple, demand count, broker
    counters, live-grant count — which is strictly stronger than the
    rendered report row matching byte for byte.
    """
    inline = run_broker_trace(instance.trace, seed)
    equal = (
        served.cost == inline.cost
        and tuple(served.leases) == tuple(inline.leases)
        and served.num_demands == inline.num_demands
        and served.detail["broker_stats"] == inline.detail["broker_stats"]
        and served.detail["num_active"] == inline.detail["num_active"]
    )
    return inline, equal


def serve_once(
    instance: ServeInstance,
    metrics: MetricsRegistry | None = None,
    trace_sink: TraceSink | None = None,
    latency_registry: MetricsRegistry | None = None,
    client_trace: TraceSink | None = None,
) -> dict:
    """One full serving cycle: in-process server, tenants, final report.

    Starts a :class:`~repro.serve.server.LeaseServer` on a throwaway
    unix socket, drives every tenant closed-loop, and returns the
    ``report`` payload.  ``metrics`` and ``trace_sink`` flow through to
    the server; ``latency_registry`` and ``client_trace`` flow through
    to :func:`drive_tenants` (client-side latency sampling, and tenants
    as trace originators).
    """
    trace = instance.trace

    async def _serve_and_drive(socket_path: str) -> dict:
        server = LeaseServer(
            trace.schedule,
            num_resources=trace.num_resources,
            num_shards=instance.num_shards,
            metrics=metrics,
            trace=trace_sink,
        )
        await server.start_unix(socket_path)
        try:
            return await drive_tenants(
                instance, socket_path, latency_registry=latency_registry,
                client_trace=client_trace,
            )
        finally:
            await server.shutdown()

    workdir = tempfile.mkdtemp(prefix="rsv-")
    try:
        socket_path = str(Path(workdir) / "serve.sock")
        return asyncio.run(_serve_and_drive(socket_path))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_serve_instance(
    instance: ServeInstance, seed: int = 0, report: dict | None = None
) -> RunResult:
    """Serve the instance end to end and return the *served* aggregate.

    Runs :func:`serve_once` (unless a pre-fetched ``report`` is passed
    in), merges the per-shard reports, replays the merged trace inline,
    and attaches the comparison verdict under ``detail["serve"]``.  The
    returned result is the server's — the inline replay only judges it.
    """
    if report is None:
        report = serve_once(instance)
    served = merge_shard_payloads(report["shards"])
    _, equal = compare_with_inline(instance, served, seed)
    detail = dict(served.detail)
    detail["serve"] = {
        "tenants": len(instance.tenants),
        "shards": instance.num_shards,
        "transport": "unix",
        "requests": report["requests"],
        "report_equal": equal,
    }
    return replace(served, detail=detail)


def verify_serve(instance: ServeInstance, result: RunResult) -> VerificationReport:
    """Serve-scenario verification: coverage plus the equality verdict.

    Re-checks every canonical acquire day against the purchased leases
    (exactly the broker-family verifier) and additionally fails unless
    the served aggregate matched the inline replay of the merged trace.
    """
    coverage = verify_broker_trace(instance.trace, result)
    failures = list(coverage.failures)
    serve_detail = result.detail.get("serve", {})
    if not serve_detail.get("report_equal"):
        failures.append(
            "served aggregate report diverged from the inline replay of "
            "the merged trace"
        )
    return VerificationReport(
        ok=not failures,
        failures=tuple(failures),
        checked=coverage.checked + 1,
    )


# ----------------------------------------------------------------------
# Free-running serialized-trace replay (recording mode)
# ----------------------------------------------------------------------
def replay_applied(
    schedule: LeaseSchedule, trace_payload: dict
) -> RunResult:
    """Replay a server's recorded per-shard applied traces inline.

    ``trace_payload`` is the ``trace`` op's result.  Each shard's
    serialized event log replays through a fresh broker; the per-shard
    runs merge exactly like PR 2's shard merges.  A server's live totals
    must equal this replay no matter how its tenants interleaved — the
    recorded (clock-ratcheted) traces *are* the read order each shard
    applied.
    """
    shards = trace_payload.get("shards")
    if not shards:
        raise ModelError("trace payload names no shards")
    runs = []
    for shard in shards:
        events = tuple(
            event_from_payload(payload) for payload in shard["events"]
        )
        broker = LeaseBroker(schedule)
        stats = replay_trace(broker, events)
        leases = broker.leases
        runs.append(
            RunResult(
                algorithm=_BROKER_ALGORITHM,
                cost=sum(lease.cost for lease in leases),
                leases=leases,
                num_demands=stats.acquires + stats.renewals,
                detail={
                    "broker_stats": stats.mergeable(),
                    "num_active": broker.num_active,
                },
            )
        )
    if len(runs) == 1:
        return runs[0]
    return merge_broker_runs(runs)
