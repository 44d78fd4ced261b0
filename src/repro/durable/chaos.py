"""Fault injection: SIGKILL workers mid-loadgen, prove exactly-once.

The harness behind ``engine chaos``.  It runs a normal clustered
loadgen cycle (:func:`~repro.cluster.loadgen.cluster_once`) over a
WAL'd, supervised fleet, but with a *kill schedule* wired into the
drive loop: at chosen simulated days, chosen workers take ``SIGKILL``
mid-traffic.  The router's supervision respawns each victim with its
WAL directory, the successor recovers a byte-identical broker, the
tenants' direct clients re-handshake and resend their in-flight ops
under the ``retry`` marker, and the drive rides through the crash as a
stall.

The verdict is the repository's strongest gate applied under failure:
the merged clustered report must equal the inline replay of the
canonical trace **byte for byte** — same float cost, same lease tuple,
same broker counters.  Any lost ack (``fsync`` weaker than ``always``),
double-applied retry (broken dedup), or mis-ordered recovery breaks the
equality and fails the run.

Kill schedules are deterministic: a list of ``(day, worker)`` pairs,
with :func:`default_kill_schedule` spreading kills evenly through the
horizon round-robin over workers — no randomness, so a failing chaos
run reproduces exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.loadgen import (
    ClusterInstance,
    build_cluster_instance,
    cluster_once,
    run_cluster_instance,
)
from ..core.results import RunResult
from ..errors import ModelError
from ..obs.metrics import MetricsRegistry

#: Kills per run when no explicit schedule is given.
DEFAULT_KILLS = 2


def build_chaos_instance(
    workload: str,
    horizon: int,
    seed: int,
    wal_root: str,
    num_resources: int = 8,
    tenants_per_resource: int = 2,
    num_workers: int = 2,
    shards_per_worker: int = 2,
    fsync: str = "always",
    snapshot_every: int | None = None,
    tick_every: int = 32,
) -> ClusterInstance:
    """A cluster instance shaped for fault injection.

    ``record=True`` is forced — the workers' applied-event logs are what
    recovery rebuilds its retry-dedup keys from, the exactly-once half
    of surviving a kill.  ``fsync`` defaults to ``always`` because only
    per-append fsync makes *acked* ops survive ``SIGKILL``; weaker modes
    trade that away for throughput and would fail the byte-identity
    gate whenever a kill lands inside an unsynced batch.

    Tenants hold direct worker connections, so a kill severs *their*
    links too, and recovery exercises the client-side stale-route
    re-handshake + marked resend on top of the router's supervision.
    """
    return build_cluster_instance(
        workload,
        horizon,
        seed,
        num_resources=num_resources,
        tenants_per_resource=tenants_per_resource,
        tick_every=tick_every,
        num_workers=num_workers,
        shards_per_worker=shards_per_worker,
        record=True,
        wal_root=wal_root,
        fsync=fsync,
        snapshot_every=snapshot_every,
    )


def default_kill_schedule(
    instance: ClusterInstance, kills: int = DEFAULT_KILLS
) -> tuple[tuple[int, int], ...]:
    """``kills`` deterministic ``(day, worker)`` pairs through the run.

    Kill days sit at even fractions of the distinct-day sequence (one
    third and two thirds in, for the default two), and victims rotate
    round-robin over the fleet, so every run of the same instance kills
    the same workers at the same points.
    """
    days = sorted({event.time for event in instance.trace.events})
    if not days or kills < 1:
        return ()
    picks = []
    for k in range(kills):
        day = days[min(len(days) - 1, (k + 1) * len(days) // (kills + 1))]
        picks.append((day, k % instance.num_workers))
    return tuple(dict.fromkeys(picks))


@dataclass(frozen=True)
class ChaosResult:
    """One chaos run's verdict and the evidence behind it."""

    scheduled: tuple[tuple[int, int], ...]
    executed: tuple[tuple[int, int], ...]
    respawns: int
    requests: int
    report_equal: bool
    cost: float
    fsync: str
    result: RunResult

    @property
    def ok(self) -> bool:
        """Did every kill recover into byte-identical state?"""
        return self.report_equal and len(self.executed) == len(self.scheduled)


def run_chaos(
    instance: ClusterInstance,
    kill_schedule=None,
    retry_for: float = 60.0,
    metrics: MetricsRegistry | None = None,
) -> ChaosResult:
    """Drive the instance through its kill schedule and judge the wreck.

    Each scheduled ``(day, worker)`` sends ``SIGKILL`` to that worker's
    process right before the day's tick and bursts hit the fleet; the
    drive then proceeds normally — stalling while supervision respawns
    the victim — and the merged report is compared against the inline
    replay of the canonical trace.
    """
    if instance.wal_root is None:
        raise ModelError(
            "chaos needs a WAL'd cluster (set wal_root); killing an "
            "undurable worker loses state by construction"
        )
    if not instance.record:
        raise ModelError(
            "chaos needs record=True: the applied-event log is what a "
            "recovered worker deduplicates retried ops against"
        )
    if kill_schedule is None:
        kill_schedule = default_kill_schedule(instance)
    schedule: dict[int, list[int]] = {}
    for day, worker in kill_schedule:
        if not 0 <= worker < instance.num_workers:
            raise ModelError(
                f"kill schedule names worker {worker}, fleet has "
                f"{instance.num_workers}"
            )
        schedule.setdefault(day, []).append(worker)
    executed: list[tuple[int, int]] = []

    def fault_hook(day: int, workers) -> None:
        for victim in schedule.get(day, ()):
            proc = workers[victim]
            if proc.alive:
                proc.process.kill()
                executed.append((day, victim))

    report = cluster_once(
        instance, retry_for=retry_for, metrics=metrics,
        fault_hook=fault_hook,
    )
    result = run_cluster_instance(instance, report=report)
    detail = result.detail["cluster"]
    return ChaosResult(
        scheduled=tuple(kill_schedule),
        executed=tuple(executed),
        respawns=report.get("respawns", 0),
        requests=report["requests"],
        report_equal=bool(detail["report_equal"]),
        cost=result.cost,
        fsync=instance.fsync,
        result=result,
    )
