"""First-class scenarios: every problem family × workload shape, named.

A :class:`Scenario` packages what the benchmarks used to wire up ad hoc —
instance construction, the online algorithm, the feasibility verifier and
the offline-optimum baseline — behind one name like ``parking-markov``.
The registry makes the full cross product of the four problem families
(parking, setcover, facility, deadlines) and the four workload shapes
(markov, diurnal, adversarial, batch) addressable from the CLI, the
replay runner, and the benchmark suite alike; benchmarks may register
additional ad-hoc scenarios (``bench-e01-K4``, ...) on top.

Everything is a pure function of ``(scenario name, seed)``: builders
derive all randomness from the seed through independent child streams,
so any scenario run is reproducible from its name and one integer.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from ..analysis.verify import (
    VerificationReport,
    verify_facility,
    verify_multicover,
    verify_old,
    verify_parking,
)
from ..core.lease import Lease, LeaseSchedule
from ..core.results import OptBounds, RunResult
from ..core.timeline import run_online
from ..deadlines import make_old_instance, optimal_dp, run_old
from ..errors import ModelError
from ..facility import make_instance as make_facility_instance
from ..facility import optimum as facility_optimum
from ..facility import run_facility_leasing
from ..parking import DeterministicParkingPermit, make_instance, optimal_interval
from ..setcover import (
    MulticoverDemand,
    OnlineSetMulticoverLeasing,
    SetMulticoverLeasingInstance,
    optimum as setcover_optimum,
    random_set_system,
)
from ..workloads import diurnal_days, exponential_batches, make_rng, markov_days, spawn
from .broker import LeaseBroker, replay_trace
from .events import (
    WORKLOAD_NAMES,
    Acquire,
    Event,
    day_pattern,
    generate_resource_trace,
)

FAMILY_NAMES: tuple[str, ...] = ("parking", "setcover", "facility", "deadlines")

#: The serving-layer family registered on top of :data:`FAMILY_NAMES`.
BROKER_FAMILY = "broker"


@dataclass(frozen=True)
class Scenario:
    """One named, fully self-describing experiment configuration.

    Attributes:
        name: registry key, e.g. ``"parking-markov"``.
        family: problem family (one of :data:`FAMILY_NAMES` for builtins).
        workload: workload shape the builder draws demands from.
        description: one-line summary for ``engine list``.
        build: ``seed -> instance``.
        run: ``(instance, seed) -> RunResult`` — runs the online algorithm.
        verify: ``(instance, result) -> VerificationReport`` — re-checks
            feasibility against raw model semantics.
        optimum: ``instance -> OptBounds`` — the offline baseline.
        build_shard: optional ``(seed, shard, num_shards) -> instance`` —
            a *sub-instance* holding only the shard's resources.  Must
            satisfy ``build(seed) == build_shard(seed, 0, 1)`` and shard
            instances must be disjoint and exhaustive, so per-shard runs
            merge to the unsharded run exactly.
        merge_runs: optional ``[RunResult per shard, in shard order] ->
            RunResult`` — reassembles the unsharded run.  Required
            (with ``build_shard``) for :func:`repro.engine.replay_sharded`.
        cluster_servable: the scenario's traffic can be served by a
            :mod:`repro.cluster` worker fleet with an exact merge — true
            for the broker-trace lineage (``broker-*``, ``serve-*``,
            ``cluster-*``), whose resources are independent and whose
            costs sum exactly.  Shown as the ``cluster`` column of
            ``engine list``.
        paper_result: the paper claim the scenario's run/verify loop
            exercises (e.g. ``"Thm 3.3"``); empty for serving-layer
            scenarios whose subject is the system, not the paper.  Shown
            as the ``paper result`` column of ``engine list``.
    """

    name: str
    family: str
    workload: str
    description: str
    build: Callable[[int], object]
    run: Callable[[object, int], RunResult]
    verify: Callable[[object, RunResult], VerificationReport]
    optimum: Callable[[object], OptBounds]
    build_shard: Callable[[int, int, int], object] | None = None
    merge_runs: Callable[[Sequence[RunResult]], RunResult] | None = None
    cluster_servable: bool = False
    paper_result: str = ""

    @property
    def shardable(self) -> bool:
        """Whether the scenario supports intra-scenario sharding."""
        return self.build_shard is not None and self.merge_runs is not None


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Scenario] = {}


def register(scenario: Scenario, replace: bool = False) -> Scenario:
    """Add a scenario to the registry; returns it for chaining."""
    if scenario.name in _REGISTRY and not replace:
        raise ModelError(f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name."""
    if name not in _REGISTRY:
        raise ModelError(
            f"unknown scenario {name!r}; known: {', '.join(scenario_names())}"
        )
    return _REGISTRY[name]


def scenario_names() -> tuple[str, ...]:
    """All registered names, sorted."""
    return tuple(sorted(_REGISTRY))


def all_scenarios() -> tuple[Scenario, ...]:
    """All registered scenarios in name order."""
    return tuple(_REGISTRY[name] for name in scenario_names())


def families() -> tuple[str, ...]:
    """Distinct families present in the registry, sorted."""
    return tuple(sorted({s.family for s in _REGISTRY.values()}))


def by_family(family: str) -> tuple[Scenario, ...]:
    """Registered scenarios of one family, in name order."""
    return tuple(s for s in all_scenarios() if s.family == family)


# ----------------------------------------------------------------------
# Builtin scenario builders
# ----------------------------------------------------------------------
def _parking_scenario(workload: str) -> Scenario:
    schedule = LeaseSchedule.power_of_two(4, cost_growth=1.7)

    def build(seed: int):
        days = day_pattern(workload, 240, make_rng(seed))
        return make_instance(schedule, days or [0])

    def run(instance, seed: int) -> RunResult:
        algorithm = DeterministicParkingPermit(instance.schedule)
        return run_online(
            algorithm, instance.rainy_days, name="parking primal-dual (Alg 1)"
        )

    return Scenario(
        name=f"parking-{workload}",
        family="parking",
        workload=workload,
        description=f"parking permit, K=4, {workload} rainy days",
        build=build,
        run=run,
        verify=lambda instance, result: verify_parking(
            instance, list(result.leases)
        ),
        optimum=lambda instance: OptBounds.exactly(
            optimal_interval(instance).cost, method="dp-interval"
        ),
        paper_result="Thm 2.7",
    )


def _setcover_scenario(workload: str) -> Scenario:
    schedule = LeaseSchedule.power_of_two(3, cost_growth=1.7)
    per_day = 3 if workload == "batch" else 1

    def build(seed: int):
        rng = make_rng(seed)
        system = random_set_system(
            num_elements=12,
            num_sets=8,
            memberships=3,
            schedule=schedule,
            rng=spawn(rng, 101),
        )
        demand_rng = spawn(rng, 202)
        days = day_pattern(workload, 48, spawn(rng, 303)) or [0]
        demands = tuple(
            MulticoverDemand(
                element=demand_rng.randrange(system.num_elements),
                arrival=day,
                coverage=demand_rng.randint(1, 2),
            )
            for day in days
            for _ in range(per_day)
        )
        return SetMulticoverLeasingInstance(
            system=system, schedule=schedule, demands=demands
        )

    def run(instance, seed: int) -> RunResult:
        algorithm = OnlineSetMulticoverLeasing(instance, seed=seed)
        return run_online(
            algorithm,
            instance.demands,
            name="set multicover leasing (Alg 3+4)",
        )

    return Scenario(
        name=f"setcover-{workload}",
        family="setcover",
        workload=workload,
        description=f"set multicover leasing, n=12 m=8 K=3, {workload} arrivals",
        build=build,
        run=run,
        verify=lambda instance, result: verify_multicover(
            instance, list(result.leases)
        ),
        optimum=setcover_optimum,
        paper_result="Thm 3.3",
    )


def _facility_batch_sizes(workload: str, rng) -> list[int]:
    if workload == "batch":
        return [2] * 8
    if workload == "adversarial":
        # The conjectured-hard Section 4.4 pattern |D_i| = 2^i, kept tiny.
        return exponential_batches(4)
    if workload == "markov":
        days = set(markov_days(12, 0.3, 0.7, rng))
    else:  # diurnal
        days = set(diurnal_days(12, 8, 0.9, 0.1, rng))
    sizes = [1 if t in days else 0 for t in range(12)]
    return sizes if sum(sizes) else [1] + [0] * 11


def _facility_scenario(workload: str) -> Scenario:
    schedule = LeaseSchedule.power_of_two(2, cost_growth=1.7)

    def build(seed: int):
        rng = make_rng(seed)
        return make_facility_instance(
            schedule,
            num_facilities=3,
            batch_sizes=_facility_batch_sizes(workload, spawn(rng, 11)),
            rng=spawn(rng, 22),
        )

    def run(instance, seed: int) -> RunResult:
        algorithm = run_facility_leasing(instance)
        return RunResult(
            algorithm="facility two-phase online (Ch. 4)",
            cost=algorithm.cost,
            leases=tuple(algorithm.leases),
            num_demands=instance.num_clients,
            detail={
                "connections": tuple(algorithm.connections),
                "leasing_cost": algorithm.leasing_cost,
                "connection_cost": algorithm.connection_cost,
            },
        )

    return Scenario(
        name=f"facility-{workload}",
        family="facility",
        workload=workload,
        description=f"facility leasing, 3 sites K=2, {workload} client batches",
        build=build,
        run=run,
        verify=lambda instance, result: verify_facility(
            instance, list(result.leases), list(result.detail["connections"])
        ),
        optimum=facility_optimum,
        paper_result="Thm 4.5",
    )


def _deadline_slacks(workload: str, days: list[int], rng) -> list[tuple[int, int]]:
    if workload == "adversarial":
        # Zero slack everywhere: OLD degenerates to its hardest regime
        # for the dual raising (every interval is a single day).
        return [(day, 0) for day in days]
    if workload == "batch":
        # Same-day clients with staggered slacks; normalization keeps the
        # earliest deadline, exercising the Section 5.2 reduction.
        return [(day, slack) for day in days for slack in (0, 2, 4)]
    return [(day, rng.randint(0, 5)) for day in days]


def _deadlines_scenario(workload: str) -> Scenario:
    schedule = LeaseSchedule.power_of_two(3, cost_growth=1.7)

    def build(seed: int):
        rng = make_rng(seed)
        days = day_pattern(workload, 120, spawn(rng, 7)) or [0]
        clients = _deadline_slacks(workload, days, spawn(rng, 13))
        return make_old_instance(schedule, clients).normalized()

    def run(instance, seed: int) -> RunResult:
        algorithm = run_old(instance)
        return RunResult(
            algorithm="OLD primal-dual (Ch. 5)",
            cost=algorithm.cost,
            leases=tuple(algorithm.leases),
            num_demands=len(instance.clients),
        )

    return Scenario(
        name=f"deadlines-{workload}",
        family="deadlines",
        workload=workload,
        description=f"leasing with deadlines, K=3, {workload} arrivals",
        build=build,
        run=run,
        verify=lambda instance, result: verify_old(
            instance, list(result.leases)
        ),
        optimum=lambda instance: OptBounds.exactly(
            optimal_dp(instance), method="dp"
        ),
        paper_result="Thm 5.3",
    )


# ----------------------------------------------------------------------
# Broker-trace scenarios (the shardable serving-layer family)
# ----------------------------------------------------------------------
def shard_ranges(
    num_resources: int, num_shards: int
) -> tuple[tuple[int, int], ...]:
    """The contiguous shard partition of ``range(num_resources)``.

    The single source of truth for how resources map to shards — used by
    ``build_shard`` here and by :class:`repro.serve.server.LeaseServer`,
    so a served workload and an intra-scenario sharded replay always
    agree on which broker owns which resource.  ``num_shards`` may
    exceed ``num_resources`` (the surplus ranges are empty), which
    :func:`repro.engine.replay_sharded` tolerates; the serve layer is
    stricter and rejects it.
    """
    if num_shards < 1:
        raise ModelError("num_shards must be >= 1")
    return tuple(
        (
            shard * num_resources // num_shards,
            (shard + 1) * num_resources // num_shards,
        )
        for shard in range(num_shards)
    )


@dataclass(frozen=True)
class BrokerTraceInstance:
    """A broker event trace plus the resource range it covers.

    ``resources = (lo, hi)`` names the half-open resource range the
    events touch; the full instance has ``(0, num_resources)``.  Shard
    instances carry the same generation parameters, so any shard is
    reproducible from ``(seed, shard range)`` alone.
    """

    schedule: LeaseSchedule
    workload: str
    horizon: int
    seed: int
    num_resources: int
    resources: tuple[int, int]
    events: tuple[Event, ...]


def _coverage_spans(
    leases: Sequence[Lease],
) -> dict[int, tuple[list[int], list[int]]]:
    """Per-resource merged coverage intervals as (starts, ends) columns."""
    by_resource: dict[int, list[tuple[int, int]]] = {}
    for lease in leases:
        by_resource.setdefault(lease.resource, []).append(
            (lease.start, lease.start + lease.length)
        )
    spans: dict[int, tuple[list[int], list[int]]] = {}
    for resource, intervals in by_resource.items():
        intervals.sort()
        starts: list[int] = []
        ends: list[int] = []
        for start, end in intervals:
            if ends and start <= ends[-1]:
                if end > ends[-1]:
                    ends[-1] = end
            else:
                starts.append(start)
                ends.append(end)
        spans[resource] = (starts, ends)
    return spans


def verify_broker_trace(
    instance: BrokerTraceInstance, result: RunResult
) -> VerificationReport:
    """Every acquire day covered by a purchased lease on its resource.

    Interval-merges each resource's leases once and answers each of the
    trace's acquire events with a binary search, so verification stays
    O((L + E) log L) even for million-event shards.
    """
    spans = _coverage_spans(result.leases)
    failures = []
    checked = 0
    for event in instance.events:
        if type(event) is not Acquire:
            continue
        checked += 1
        columns = spans.get(event.resource)
        if columns is not None:
            starts, ends = columns
            where = bisect.bisect_right(starts, event.time) - 1
            if where >= 0 and event.time < ends[where]:
                continue
        failures.append(
            f"resource {event.resource} uncovered at day {event.time}"
        )
    return VerificationReport(
        ok=not failures, failures=tuple(failures), checked=checked
    )


def broker_trace_optimum(instance: BrokerTraceInstance) -> OptBounds:
    """Exact offline optimum: the per-resource interval-model DP, summed.

    Resources are independent in the broker model (one policy each), so
    the instance optimum is the sum of single-resource parking optima
    over each resource's demanded days.
    """
    days_by_resource: dict[int, set[int]] = {}
    for event in instance.events:
        if type(event) is Acquire:
            days_by_resource.setdefault(event.resource, set()).add(event.time)
    total = 0.0
    for resource in sorted(days_by_resource):
        parking = make_instance(
            instance.schedule, sorted(days_by_resource[resource])
        )
        total += optimal_interval(parking).cost
    return OptBounds.exactly(total, method="dp-interval/resource")


_BROKER_ALGORITHM = "lease broker (per-resource primal-dual)"
_MERGED_TICK_KEYS = ("ticks",)


def run_broker_trace(instance: BrokerTraceInstance, seed: int) -> RunResult:
    """Replay the trace through a fresh broker; canonical result record.

    ``cost`` is summed over :attr:`LeaseBroker.leases` — resource order,
    purchase order within a resource — which is exactly the order shard
    merging reproduces, so sharded and unsharded costs agree bitwise.
    """
    broker = LeaseBroker(instance.schedule)
    stats = replay_trace(broker, instance.events)
    leases = broker.leases
    cost = 0.0
    for lease in leases:
        cost += lease.cost
    return RunResult(
        algorithm=_BROKER_ALGORITHM,
        cost=cost,
        leases=leases,
        num_demands=stats.acquires + stats.renewals,
        detail={
            "broker_stats": stats.mergeable(),
            "num_active": broker.num_active,
        },
    )


def merge_broker_runs(runs: Sequence[RunResult]) -> RunResult:
    """Merge per-shard broker runs into the unsharded run, byte for byte.

    Shards own disjoint contiguous resource ranges in shard order, so
    concatenating their lease tuples reproduces the unsharded
    resource-major order — and the merged cost is *recomputed* by
    summing that tuple in order, reproducing the unsharded run's exact
    float association for any schedule (per-shard subtotals would drift
    by a ULP on non-exactly-representable costs).  Tick events are
    replicated to every shard (the shared clock skeleton): tick-derived
    counters are taken from the first shard, everything else sums.
    """
    if not runs:
        raise ModelError("cannot merge zero shard runs")
    leases: list[Lease] = []
    num_demands = 0
    num_active = 0
    merged_stats: dict[str, int] = {}
    for position, run in enumerate(runs):
        leases.extend(run.leases)
        num_demands += run.num_demands
        num_active += run.detail["num_active"]
        for key, value in run.detail["broker_stats"].items():
            if key in _MERGED_TICK_KEYS:
                if position == 0:
                    merged_stats[key] = value
            else:
                merged_stats[key] = merged_stats.get(key, 0) + value
    # Every shard counted its replicated ticks inside `events`; keep one.
    ticks = merged_stats.get("ticks", 0)
    merged_stats["events"] -= (len(runs) - 1) * ticks
    cost = 0.0
    for lease in leases:
        cost += lease.cost
    return RunResult(
        algorithm=_BROKER_ALGORITHM,
        cost=cost,
        leases=tuple(leases),
        num_demands=num_demands,
        detail={"broker_stats": merged_stats, "num_active": num_active},
    )


def make_broker_scenario(
    workload: str,
    name: str | None = None,
    horizon: int = 360,
    num_resources: int = 8,
    tenants_per_resource: int = 2,
    hold: int = 3,
    tick_every: int = 32,
    num_types: int = 4,
) -> Scenario:
    """A shardable serving-layer scenario over a multi-resource trace.

    The schedule uses ``cost_growth=2.0`` so every lease cost, and hence
    every cost sum, is exactly representable — shard merges cannot drift
    by a ULP no matter how resources are grouped.  The ``p02_runner``
    perf bench re-instantiates this family at heavy sizes via
    ``name``/``horizon``.
    """
    schedule = LeaseSchedule.power_of_two(num_types, cost_growth=2.0)

    def build_shard(seed: int, shard: int, num_shards: int):
        if not 0 <= shard < num_shards:
            raise ModelError(
                f"shard {shard} outside [0, {num_shards})"
            )
        lo, hi = shard_ranges(num_resources, num_shards)[shard]
        events = generate_resource_trace(
            workload,
            horizon,
            seed,
            num_resources=num_resources,
            tenants_per_resource=tenants_per_resource,
            hold=hold,
            tick_every=tick_every,
            resource_lo=lo,
            resource_hi=hi,
        )
        return BrokerTraceInstance(
            schedule=schedule,
            workload=workload,
            horizon=horizon,
            seed=seed,
            num_resources=num_resources,
            resources=(lo, hi),
            events=events,
        )

    return Scenario(
        name=name or f"{BROKER_FAMILY}-{workload}",
        family=BROKER_FAMILY,
        workload=workload,
        description=(
            f"lease-broker trace, {num_resources} resources x "
            f"{tenants_per_resource} tenants, K={num_types}, "
            f"{workload} demand days (shardable)"
        ),
        build=lambda seed: build_shard(seed, 0, 1),
        run=run_broker_trace,
        verify=verify_broker_trace,
        optimum=broker_trace_optimum,
        build_shard=build_shard,
        merge_runs=merge_broker_runs,
        cluster_servable=True,
    )


# ----------------------------------------------------------------------
# Serve scenarios (the loadgen family over the asyncio serving layer)
# ----------------------------------------------------------------------
#: The closed-loop serving family registered on top of :data:`BROKER_FAMILY`.
SERVE_FAMILY = "serve"


def make_serve_scenario(
    workload: str,
    name: str | None = None,
    horizon: int = 128,
    num_resources: int = 8,
    tenants_per_resource: int = 2,
    hold: int = 3,
    tick_every: int = 32,
    num_types: int = 4,
    num_shards: int = 4,
) -> Scenario:
    """A serving-layer scenario: closed-loop tenants over unix sockets.

    The same trace shape as :func:`make_broker_scenario`, but instead of
    an in-process replay the events arrive as live traffic — every
    tenant is its own pipelined client on its own unix-socket connection
    against an in-process :class:`~repro.serve.server.LeaseServer` with
    ``num_shards`` shard brokers.  The run returns the *served*
    aggregate; verification fails unless it matched the inline replay of
    the merged trace exactly (see :mod:`repro.serve.loadgen`).

    :mod:`repro.serve` is imported lazily from the hooks so listing the
    registry never pulls in the asyncio serving stack.
    """

    def build(seed: int):
        from ..serve.loadgen import build_serve_instance

        return build_serve_instance(
            workload,
            horizon,
            seed,
            num_resources=num_resources,
            tenants_per_resource=tenants_per_resource,
            hold=hold,
            tick_every=tick_every,
            num_types=num_types,
            num_shards=num_shards,
        )

    def run(instance, seed: int) -> RunResult:
        from ..serve.loadgen import run_serve_instance

        return run_serve_instance(instance, seed)

    def verify(instance, result: RunResult) -> VerificationReport:
        from ..serve.loadgen import verify_serve

        return verify_serve(instance, result)

    tenants = num_resources * tenants_per_resource
    return Scenario(
        name=name or f"{SERVE_FAMILY}-{workload}",
        family=SERVE_FAMILY,
        workload=workload,
        description=(
            f"served lease-broker loadgen, {tenants} closed-loop tenants "
            f"over unix sockets, {num_shards} shard brokers, "
            f"{workload} demand days"
        ),
        build=build,
        run=run,
        verify=verify,
        optimum=lambda instance: broker_trace_optimum(instance.trace),
        cluster_servable=True,
    )


# ----------------------------------------------------------------------
# Cluster scenarios (loadgen over a multi-process worker fleet)
# ----------------------------------------------------------------------
#: The multi-process serving family on top of :data:`SERVE_FAMILY`.
CLUSTER_FAMILY = "cluster"


def make_cluster_scenario(
    workload: str,
    name: str | None = None,
    horizon: int = 96,
    num_resources: int = 8,
    tenants_per_resource: int = 2,
    hold: int = 3,
    tick_every: int = 32,
    num_types: int = 4,
    num_workers: int = 2,
    shards_per_worker: int = 2,
    codec: str = "bin",
) -> Scenario:
    """A clustered serving scenario: tenants against a worker fleet.

    The same trace shape as :func:`make_serve_scenario`, but the events
    arrive at a :class:`~repro.cluster.router.ClusterRouter` fronting
    ``num_workers`` real ``engine serve`` *processes* (each with
    ``shards_per_worker`` broker sub-shards), with the binary codec on
    every connection by default.  The router is the control plane only:
    tenants perform the routing handshake and send their mutations
    straight to the owning worker.  The run returns the *clustered* aggregate; verification fails
    unless it matched the inline replay of the merged trace exactly
    (see :mod:`repro.cluster.loadgen`).

    :mod:`repro.cluster` is imported lazily from the hooks so listing
    the registry never pulls in the cluster stack (or spawns anything).
    """

    def build(seed: int):
        from ..cluster.loadgen import build_cluster_instance

        return build_cluster_instance(
            workload,
            horizon,
            seed,
            num_resources=num_resources,
            tenants_per_resource=tenants_per_resource,
            hold=hold,
            tick_every=tick_every,
            num_types=num_types,
            num_workers=num_workers,
            shards_per_worker=shards_per_worker,
            codec=codec,
        )

    def run(instance, seed: int) -> RunResult:
        from ..cluster.loadgen import run_cluster_instance

        return run_cluster_instance(instance, seed)

    def verify(instance, result: RunResult) -> VerificationReport:
        from ..cluster.loadgen import verify_cluster

        return verify_cluster(instance, result)

    tenants = num_resources * tenants_per_resource
    return Scenario(
        name=name or f"{CLUSTER_FAMILY}-{workload}",
        family=CLUSTER_FAMILY,
        workload=workload,
        description=(
            f"clustered lease-broker loadgen, {tenants} closed-loop "
            f"tenants direct to {num_workers} worker processes x "
            f"{shards_per_worker} shards, codec={codec}, "
            f"{workload} demand days"
        ),
        build=build,
        run=run,
        verify=verify,
        optimum=lambda instance: broker_trace_optimum(instance.trace),
        cluster_servable=True,
    )


_FAMILY_BUILDERS: dict[str, Callable[[str], Scenario]] = {
    "parking": _parking_scenario,
    "setcover": _setcover_scenario,
    "facility": _facility_scenario,
    "deadlines": _deadlines_scenario,
}


def _register_builtins() -> Iterator[Scenario]:
    for family in FAMILY_NAMES:
        for workload in WORKLOAD_NAMES:
            yield register(_FAMILY_BUILDERS[family](workload))


BUILTIN_SCENARIOS: tuple[Scenario, ...] = tuple(_register_builtins())

BROKER_SCENARIOS: tuple[Scenario, ...] = tuple(
    register(make_broker_scenario(workload)) for workload in WORKLOAD_NAMES
)

SERVE_SCENARIOS: tuple[Scenario, ...] = tuple(
    register(make_serve_scenario(workload)) for workload in WORKLOAD_NAMES
)

CLUSTER_SCENARIOS: tuple[Scenario, ...] = tuple(
    register(make_cluster_scenario(workload)) for workload in WORKLOAD_NAMES
)
