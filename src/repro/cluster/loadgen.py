"""Clustered loadgen: closed-loop tenants against a real worker fleet.

The cluster analogue of :mod:`repro.serve.loadgen`, riding the same
machinery end to end: the canonical trace becomes live traffic through
:func:`~repro.serve.loadgen.drive_tenants` — whose tenants, seeing the
router's ``cluster`` hello, handshake with it and send their mutations
straight to the owning workers — and the router's merged ``report``
payloads fold through :func:`~repro.serve.loadgen.merge_shard_payloads`
/ :func:`~repro.engine.scenarios.merge_broker_runs` into one aggregate
that must equal the inline replay of the merged trace byte for byte.
The only new moving parts are real: N ``engine serve`` worker
*processes* on their own sockets, a :class:`ClusterRouter` in front as
the control plane, and (by default) the binary codec on every
connection.

:func:`cluster_once` performs one full cycle — spawn workers, connect
the router, drive every tenant, fetch the merged report, shut the fleet
down.  :func:`run_cluster_instance` wraps that cycle with the same
served-vs-inline judgement the serve family uses, recorded under
``detail["cluster"]`` and enforced by :func:`verify_cluster`.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

from ..analysis.verify import VerificationReport
from ..core.lease import LeaseSchedule
from ..core.results import RunResult
from ..engine.events import Tick, generate_resource_trace
from ..engine.scenarios import BrokerTraceInstance, verify_broker_trace
from ..errors import ModelError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceSink
from ..serve.loadgen import (
    compare_with_inline,
    drive_tenants,
    merge_shard_payloads,
)
from ..serve.protocol import CODEC_BIN, CODECS
from .procs import make_respawner, reap, spawn_workers
from .router import ClusterRouter
from .spec import TRANSPORTS, ClusterSpec

@dataclass(frozen=True)
class ClusterInstance:
    """A cluster-scenario instance: canonical trace plus fleet shape.

    ``trace`` is the full (unsharded) broker-trace instance whose inline
    replay is the ground truth — exactly as in
    :class:`~repro.serve.loadgen.ServeInstance`, which this type is
    duck-compatible with (``.trace``, ``.tenants``) so the serve-side
    drivers and comparators apply verbatim.
    """

    trace: BrokerTraceInstance
    num_workers: int
    shards_per_worker: int
    codec: str = CODEC_BIN
    record: bool = False
    wal_root: str | None = None
    fsync: str = "batch"
    snapshot_every: int | None = None
    worker_metrics: bool = False
    trace_root: str | None = None
    transport: str = "unix"

    def __post_init__(self) -> None:
        if self.codec not in CODECS:
            raise ModelError(
                f"unknown codec {self.codec!r}; known: {', '.join(CODECS)}"
            )
        if self.transport not in TRANSPORTS:
            raise ModelError(
                f"unknown transport {self.transport!r}; "
                f"known: {', '.join(TRANSPORTS)}"
            )

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

    @property
    def spec(self) -> ClusterSpec:
        """The worker-fleet topology this instance is served by."""
        return ClusterSpec(
            num_resources=self.trace.num_resources,
            num_workers=self.num_workers,
            shards_per_worker=self.shards_per_worker,
            num_types=self.trace.schedule.num_types,
            cost_growth=_cost_growth(self.trace.schedule),
            record=self.record,
            wal_root=self.wal_root,
            fsync=self.fsync,
            snapshot_every=self.snapshot_every,
            worker_metrics=self.worker_metrics,
            trace_root=self.trace_root,
            transport=self.transport,
        )


def _cost_growth(schedule: LeaseSchedule) -> float:
    """Recover the power-of-two schedule's growth factor from its costs."""
    types = list(schedule)
    if len(types) < 2:
        return 2.0
    return types[1].cost / types[0].cost


def build_cluster_instance(
    workload: str,
    horizon: int,
    seed: int,
    num_resources: int = 8,
    tenants_per_resource: int = 2,
    hold: int = 3,
    tick_every: int = 32,
    num_types: int = 4,
    cost_growth: float = 2.0,
    num_workers: int = 2,
    shards_per_worker: int = 2,
    codec: str = CODEC_BIN,
    record: bool = False,
    wal_root: str | None = None,
    fsync: str = "batch",
    snapshot_every: int | None = None,
    worker_metrics: bool = False,
    trace_root: str | None = None,
    transport: str = "unix",
) -> ClusterInstance:
    """A cluster instance over :func:`generate_resource_trace` streams.

    Defaults mirror :func:`~repro.serve.loadgen.build_serve_instance`
    (``cost_growth=2.0`` keeps every cost sum exactly representable),
    with the serving shape replaced by a fleet shape: ``num_workers``
    processes of ``shards_per_worker`` broker sub-shards each.
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
    return ClusterInstance(
        trace=trace,
        num_workers=num_workers,
        shards_per_worker=shards_per_worker,
        codec=codec,
        record=record,
        wal_root=wal_root,
        fsync=fsync,
        snapshot_every=snapshot_every,
        worker_metrics=worker_metrics,
        trace_root=trace_root,
        transport=transport,
    )


def cluster_once(
    instance: ClusterInstance,
    # Generous: on a loaded single-core box a worker interpreter can
    # take tens of seconds just to boot; a short deadline here turns
    # CPU contention into spurious connect failures.
    retry_for: float = 60.0,
    metrics: MetricsRegistry | None = None,
    latency_registry: MetricsRegistry | None = None,
    fault_hook=None,
    client_trace: TraceSink | None = None,
) -> dict:
    """One full clustered serving cycle; returns the merged report.

    Spawns the worker fleet, fronts it with a router on a throwaway unix
    socket, drives every tenant closed-loop, fetches the merged
    per-shard report, and shuts everything down — workers over the wire
    first, then reaped.  ``metrics`` instruments the router's worker links;
    ``latency_registry`` samples client-side per-tenant op latency, as
    in :func:`~repro.serve.loadgen.drive_tenants`.

    A WAL'd instance (``wal_root`` set) runs *supervised*: the router
    gets a respawn callback over the spawned fleet, so a worker that
    dies mid-drive is restarted with its WAL directory, recovers, and
    the drive rides through the crash.  ``fault_hook(day, workers)``,
    when given, is called before each simulated day's traffic — the
    chaos harness's kill injection point.

    ``client_trace`` makes the tenants trace originators.  Pair it with
    ``instance.trace_root`` (per-worker dispatch-span files) for a fully
    traced fleet whose merged files reconstruct one causal tree per op
    through ``engine trace-tree``.
    """
    spec = instance.spec
    workdir = tempfile.mkdtemp(prefix="rcl-")
    workers = []
    try:
        workers = spawn_workers(spec, workdir)
        router_socket = str(Path(workdir) / "router.sock")
        respawn = make_respawner(workers) if spec.wal_root else None
        on_day = (
            None if fault_hook is None
            else (lambda day: fault_hook(day, workers))
        )

        async def _route_and_drive() -> dict:
            router = ClusterRouter(
                spec, metrics=metrics, respawn=respawn,
                collect_worker_metrics=spec.worker_metrics,
            )
            await router.connect_workers(
                [w.endpoint for w in workers],
                retry_for=retry_for,
                codec=instance.codec,
            )
            await router.start_unix(router_socket)
            try:
                report = await drive_tenants(
                    instance, router_socket,
                    retry_for=retry_for, codec=instance.codec,
                    latency_registry=latency_registry,
                    on_day=on_day,
                    client_trace=client_trace,
                )
                report["respawns"] = sum(w.respawns for w in workers)
                return report
            finally:
                await router.shutdown()

        report = asyncio.run(_route_and_drive())
    finally:
        reap(workers)
        shutil.rmtree(workdir, ignore_errors=True)
    return report


def run_cluster_instance(
    instance: ClusterInstance, seed: int = 0, report: dict | None = None
) -> RunResult:
    """Serve the instance on a cluster and return the *clustered* aggregate.

    Runs :func:`cluster_once` (unless a pre-fetched ``report`` is passed
    in), merges the router's per-shard reports, replays the merged trace
    inline, and attaches the comparison verdict under
    ``detail["cluster"]``.  The returned result is the cluster's — the
    inline replay only judges it.
    """
    if report is None:
        report = cluster_once(instance)
    served = merge_shard_payloads(report["shards"])
    _, equal = compare_with_inline(instance, served, seed)
    detail = dict(served.detail)
    detail["cluster"] = {
        "tenants": len(instance.tenants),
        "workers": instance.num_workers,
        "shards_per_worker": instance.shards_per_worker,
        "total_shards": instance.spec.total_shards,
        "codec": instance.codec,
        "transport": instance.transport,
        "requests": report["requests"],
        "respawns": report.get("respawns", 0),
        "handshakes": report.get("handshakes", 0),
        "retried_ops": report.get("retried_ops", 0),
        "report_equal": equal,
    }
    return replace(served, detail=detail)


def verify_cluster(
    instance: ClusterInstance, result: RunResult
) -> VerificationReport:
    """Cluster-scenario verification: coverage plus the equality verdict.

    Re-checks every canonical acquire day against the purchased leases
    (the broker-family verifier) and additionally fails unless the
    clustered aggregate matched the inline replay of the merged trace.
    """
    coverage = verify_broker_trace(instance.trace, result)
    failures = list(coverage.failures)
    cluster_detail = result.detail.get("cluster", {})
    if not cluster_detail.get("report_equal"):
        failures.append(
            "clustered aggregate report diverged from the inline replay "
            "of the merged trace"
        )
    return VerificationReport(
        ok=not failures,
        failures=tuple(failures),
        checked=coverage.checked + 1,
    )
