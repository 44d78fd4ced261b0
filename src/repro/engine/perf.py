"""Perf-trajectory harness: measure serving hot paths, persist, gate.

The serving layer's throughput used to live in one printed line of
``bench_p01``; nothing recorded it and nothing failed when it drifted.
This module makes the trajectory a first-class artifact:

* :func:`measure` runs one benchmark (``p01_broker``: raw broker event
  throughput on the P1 round-robin stream; ``p02_runner``: heavy-scenario
  replay, unsharded vs intra-scenario sharded; ``p03_serve``: closed-loop
  tenants served over a unix socket by :mod:`repro.serve`;
  ``p04_cluster``: the same closed-loop tenants against a
  :mod:`repro.cluster` fleet — router + worker processes — with the
  binary codec on the worker links; ``p05_obs``: the p03 serving cycle
  with :mod:`repro.obs` instrumentation off vs fully on — latency
  histograms, wire counters, JSONL trace spans — rating the
  observability overhead; ``p06_durable``: the p03 serving cycle with
  the :mod:`repro.durable` WAL off, batch-fsynced, and fsynced per
  append — pricing durability; ``p07_admin``: the p03 serving cycle
  bare vs with the :mod:`repro.admin` HTTP ops plane mounted and a
  background scraper polling ``/metrics`` + ``/leases`` at 4 Hz —
  pricing the admin plane under load; ``p08_flight``: the p03 serving
  cycle bare vs with the whole live-debugging layer lit at once —
  metrics, JSONL trace spans, the history sampling ring, the sampling
  profiler running, and an admin scraper additionally polling
  ``/metrics/history`` + ``/profile`` — pricing in-flight debugging;
  ``p09_direct``: the p04 clustered workload rated twice in the same
  run — data plane relayed through the router vs sent direct to the
  owning workers after a route handshake — pricing the router hop) at
  one of three sizes (``full`` —
  the committed trajectory numbers, ``smoke`` — CI-sized, ``unit`` —
  test-sized) and returns a JSON-ready record.
* ``BENCH_p01_broker.json`` / ``BENCH_p02_runner.json`` /
  ``BENCH_p03_serve.json`` / ``BENCH_p04_cluster.json`` /
  ``BENCH_p05_obs.json`` under
  ``benchmarks/`` hold the committed per-mode numbers plus the frozen
  ``baseline`` block (for p01/p02 the pre-optimization reference, for
  p03 the first served-throughput recording, for p04 the committed p03
  *single-process* rate the cluster is judged against, for p05 the
  first recorded uninstrumented rate), so ``current vs
  baseline`` is the headline trajectory and ``fresh vs committed`` is
  the regression gate.  On a multi-core machine p04 is additionally
  required to *beat* its baseline — horizontal scale-out must pay.
  p05 additionally gates the overhead itself: the instrumented rate
  must stay within 10% of the uninstrumented rate of the same run.
  p06 gates durability the same way: batch-fsynced serving must keep
  at least 80% of the WAL-off rate measured in the same run
  (per-append fsync is recorded, not gated — its cost is the disk's).
  p09 gates the topology split: on a multi-core machine the direct
  data plane must at least match the routed relay from the same run.
* :func:`check` compares a fresh record against the committed file with
  a relative tolerance (default 30%) and returns human-readable
  failures; CI runs it in smoke mode and fails on any.

Rates are wall-clock sensitive, so measurements take the best of
several rounds and the gate is deliberately loose; structure (events,
leases, byte-identical shard merges) is checked exactly.  Shard speedup
is only gated when the machine has more than one usable core — on a
single-core box fan-out cannot beat inline replay, and the record says
so (``cpus``) rather than pretending otherwise.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

from ..core.lease import LeaseSchedule
from ..errors import ModelError
from .broker import LeaseBroker, replay_trace
from .events import Acquire, Event, Release, Tick
from .runner import render_report, replay_sharded, run_scenario
from .scenarios import make_broker_scenario, register

SCHEMA = "repro-bench/1"
BENCH_NAMES = (
    "p01_broker", "p02_runner", "p03_serve", "p04_cluster", "p05_obs",
    "p06_durable", "p07_admin", "p08_flight", "p09_direct",
)
MODES = ("full", "smoke", "unit")
DEFAULT_TOLERANCE = 0.30
#: Instrumented serving must keep at least this fraction of the
#: uninstrumented rate measured in the same p05 run.
OBS_OVERHEAD_FLOOR = 0.90
#: Batch-fsynced durable serving must keep at least this fraction of
#: the WAL-off rate measured in the same p06 run.
DURABLE_BATCH_FLOOR = 0.80
#: Serving with the admin plane mounted and scraped must keep at least
#: this fraction of the bare rate measured in the same p07 run.
ADMIN_OVERHEAD_FLOOR = 0.90
#: Serving with the whole live-debugging layer on — metrics, trace,
#: history ring, running profiler, scraped admin plane — must keep at
#: least this fraction of the bare rate measured in the same p08 run.
FLIGHT_OVERHEAD_FLOOR = 0.90

#: Committed trajectory files, relative to the repository root.
BENCH_FILES = {
    "p01_broker": "benchmarks/BENCH_p01_broker.json",
    "p02_runner": "benchmarks/BENCH_p02_runner.json",
    "p03_serve": "benchmarks/BENCH_p03_serve.json",
    "p04_cluster": "benchmarks/BENCH_p04_cluster.json",
    "p05_obs": "benchmarks/BENCH_p05_obs.json",
    "p06_durable": "benchmarks/BENCH_p06_durable.json",
    "p07_admin": "benchmarks/BENCH_p07_admin.json",
    "p08_flight": "benchmarks/BENCH_p08_flight.json",
    "p09_direct": "benchmarks/BENCH_p09_direct.json",
}

# P1 stream shape (mirrors bench_p01_broker_throughput).
_P01_TENANTS = 8
_P01_RESOURCES = 16
_P01_DAYS = {"full": 50_000, "smoke": 8_000, "unit": 400}
_P01_ROUNDS = {"full": 3, "smoke": 2, "unit": 1}

# P2 heavy-scenario shape.
_P02_HORIZON = {"full": 4096, "smoke": 1024, "unit": 128}
_P02_RESOURCES = {"full": 16, "smoke": 8, "unit": 4}
_P02_SHARDS = 4
_P02_SEED = 7

# P3 serving shape: closed-loop tenants over a unix socket.
_P03_HORIZON = {"full": 2048, "smoke": 512, "unit": 96}
_P03_RESOURCES = {"full": 16, "smoke": 8, "unit": 4}
_P03_SHARDS = {"full": 4, "smoke": 4, "unit": 2}
_P03_TENANTS_PER_RESOURCE = 2
_P03_SEED = 7

# P4 cluster shape: the P3 workload against a worker fleet (2 processes),
# binary codec on the router->worker links.
_P04_HORIZON = {"full": 2048, "smoke": 512, "unit": 96}
_P04_RESOURCES = {"full": 16, "smoke": 8, "unit": 4}
_P04_WORKERS = {"full": 2, "smoke": 2, "unit": 2}
_P04_SHARDS_PER_WORKER = {"full": 2, "smoke": 2, "unit": 1}
_P04_TENANTS_PER_RESOURCE = 2
_P04_SEED = 7

# P5 observability-overhead shape: the P3 serving cycle, rated with the
# instrumentation off and fully on.  Best-of-rounds per arm because the
# quantity of interest is a *ratio* of two wall-clock rates.
_P05_HORIZON = {"full": 2048, "smoke": 512, "unit": 96}
_P05_RESOURCES = {"full": 16, "smoke": 8, "unit": 4}
_P05_SHARDS = {"full": 4, "smoke": 4, "unit": 2}
_P05_ROUNDS = {"full": 3, "smoke": 6, "unit": 2}
_P05_TENANTS_PER_RESOURCE = 2
_P05_SEED = 7

# P6 durability shape: the P3 serving cycle with the WAL off, batched
# fsync, and per-append fsync, interleaved.  Every durable arm gets a
# FRESH WAL directory each round — reusing one would recover the prior
# round's state on startup and replay on top of it.
_P06_HORIZON = {"full": 2048, "smoke": 512, "unit": 96}
_P06_RESOURCES = {"full": 16, "smoke": 8, "unit": 4}
_P06_SHARDS = {"full": 4, "smoke": 4, "unit": 2}
_P06_ROUNDS = {"full": 3, "smoke": 6, "unit": 2}
_P06_TENANTS_PER_RESOURCE = 2
_P06_SEED = 7

# P7 admin-plane shape: the P3 serving cycle bare vs with the HTTP ops
# plane mounted and a background scraper polling it at 4 Hz.
_P07_HORIZON = {"full": 2048, "smoke": 512, "unit": 96}
_P07_RESOURCES = {"full": 16, "smoke": 8, "unit": 4}
_P07_SHARDS = {"full": 4, "smoke": 4, "unit": 2}
_P07_ROUNDS = {"full": 3, "smoke": 6, "unit": 2}
_P07_TENANTS_PER_RESOURCE = 2
_P07_SEED = 7
_P07_POLL_HZ = 4.0

# P8 flight shape: the P3 serving cycle bare vs with the whole
# live-debugging layer lit at once — metrics + trace spans + history
# sampling + a running profiler + an admin scraper that also pulls the
# history and profiler endpoints.
_P08_HORIZON = {"full": 2048, "smoke": 512, "unit": 96}
_P08_RESOURCES = {"full": 16, "smoke": 8, "unit": 4}
_P08_SHARDS = {"full": 4, "smoke": 4, "unit": 2}
#: More rounds than the other benches: the gated ratio compares two
#: best-of floors, and on a bursty shared box each arm needs enough
#: rounds to land at least one quiet window.
_P08_ROUNDS = {"full": 9, "smoke": 12, "unit": 6}
_P08_TENANTS_PER_RESOURCE = 2
_P08_SEED = 7
_P08_POLL_HZ = 4.0
#: Sub-second so even CI-sized drives collect several ring samples; the
#: unit drive finishes in tens of milliseconds, so it samples faster
#: still to light the history layer at all.
_P08_HISTORY_INTERVAL = {"full": 0.05, "smoke": 0.05, "unit": 0.01}
_P08_POLL_PATHS = (
    "/metrics",
    "/leases",
    "/metrics/history?window=30",
    "/profile?seconds=0.05",
)

# P9 topology shape: the P4 clustered workload, rated twice in the same
# run — data plane relayed through the router vs direct to the owning
# workers after a route handshake.  Arms interleave round by round
# because the gated quantity is a ratio of two wall clocks.
_P09_HORIZON = {"full": 2048, "smoke": 512, "unit": 96}
_P09_RESOURCES = {"full": 16, "smoke": 8, "unit": 4}
_P09_WORKERS = {"full": 2, "smoke": 2, "unit": 2}
_P09_SHARDS_PER_WORKER = {"full": 2, "smoke": 2, "unit": 1}
_P09_ROUNDS = {"full": 3, "smoke": 2, "unit": 1}
_P09_TENANTS_PER_RESOURCE = 2
_P09_SEED = 7


def _require_mode(mode: str) -> None:
    if mode not in MODES:
        raise ModelError(f"unknown mode {mode!r}; known: {', '.join(MODES)}")


def usable_cpus() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "cpus": usable_cpus(),
    }


# ----------------------------------------------------------------------
# P1: broker event throughput
# ----------------------------------------------------------------------
def p01_trace(num_days: int) -> list[Event]:
    """The P1 stream: each day releases yesterday's grant, acquires today's.

    Round-robin over tenants and resources — the complexity-guard shape
    ``bench_p01`` has always replayed, parameterised by length.
    """
    events: list[Event] = [Tick(time=0)]
    for day in range(num_days):
        if day:
            events.append(
                Release(
                    time=day,
                    tenant=f"tenant-{(day - 1) % _P01_TENANTS}",
                    resource=(day - 1) % _P01_RESOURCES,
                )
            )
        events.append(
            Acquire(
                time=day,
                tenant=f"tenant-{day % _P01_TENANTS}",
                resource=day % _P01_RESOURCES,
            )
        )
    return events


def measure_p01(mode: str = "smoke") -> dict:
    """Broker throughput on the P1 stream; best of N replay rounds."""
    _require_mode(mode)
    events = p01_trace(_P01_DAYS[mode])
    schedule = LeaseSchedule.power_of_two(4, cost_growth=1.7)
    best = None
    broker = None
    for _ in range(_P01_ROUNDS[mode]):
        broker = LeaseBroker(schedule)
        start = time.perf_counter()
        replay_trace(broker, events)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    leases = len(broker.leases)
    return {
        "schema": SCHEMA,
        "bench": "p01_broker",
        "mode": mode,
        "params": {
            "num_days": _P01_DAYS[mode],
            "num_tenants": _P01_TENANTS,
            "num_resources": _P01_RESOURCES,
            "rounds": _P01_ROUNDS[mode],
        },
        "metrics": {
            "events": len(events),
            "elapsed_sec": round(best, 4),
            "events_per_sec": round(len(events) / best),
            "leases": leases,
            "leases_per_sec": round(leases / best),
            "cost": broker.cost,
        },
        "env": _environment(),
    }


# ----------------------------------------------------------------------
# P2: heavy-scenario replay, unsharded vs sharded
# ----------------------------------------------------------------------
def _heavy_scenario(mode: str):
    return register(
        make_broker_scenario(
            "markov",
            name=f"perf-broker-heavy-{mode}",
            horizon=_P02_HORIZON[mode],
            num_resources=_P02_RESOURCES[mode],
            tenants_per_resource=2,
            hold=3,
            tick_every=64,
        ),
        replace=True,  # harness runs are re-entrant
    )


def measure_p02(mode: str = "smoke") -> dict:
    """One heavy scenario end to end: inline, then sharded over a pool."""
    _require_mode(mode)
    scenario = _heavy_scenario(mode)
    start = time.perf_counter()
    unsharded = run_scenario(scenario.name, seed=_P02_SEED)
    unsharded_sec = time.perf_counter() - start
    start = time.perf_counter()
    sharded = replay_sharded(
        scenario.name, seed=_P02_SEED, shards=_P02_SHARDS, workers=_P02_SHARDS
    )
    sharded_sec = time.perf_counter() - start
    # replay_trace counted every handled event; no need to rebuild the
    # trace a third time just to measure it.
    events = unsharded.run.detail["broker_stats"]["events"]
    byte_identical = render_report([unsharded]) == render_report([sharded])
    return {
        "schema": SCHEMA,
        "bench": "p02_runner",
        "mode": mode,
        "params": {
            "scenario": scenario.name,
            "horizon": _P02_HORIZON[mode],
            "num_resources": _P02_RESOURCES[mode],
            "shards": _P02_SHARDS,
            "workers": _P02_SHARDS,
            "seed": _P02_SEED,
        },
        "metrics": {
            "events": events,
            "leases": len(unsharded.run.leases),
            "unsharded_sec": round(unsharded_sec, 4),
            "sharded_sec": round(sharded_sec, 4),
            "events_per_sec": round(events / unsharded_sec),
            "shard_speedup": round(unsharded_sec / sharded_sec, 3),
            "byte_identical": byte_identical,
            "verified": bool(unsharded.verified and sharded.verified),
        },
        "env": _environment(),
    }


# ----------------------------------------------------------------------
# P3: serving throughput (closed-loop tenants over a unix socket)
# ----------------------------------------------------------------------
def measure_p03(mode: str = "smoke") -> dict:
    """Served loadgen end to end: server + tenants + equality check.

    The measured seconds cover the whole serving cycle — starting the
    shard workers, dialing one pipelined unix-socket connection per
    tenant, the day-barriered closed-loop replay, and the final report
    fetch — because that cycle *is* the serving hot path.  The rate is
    server-applied events per second; ``report_equal`` asserts the
    served aggregate matched the inline replay of the merged trace, the
    same structural identity ``p02`` gates for shard merges.
    """
    _require_mode(mode)
    from ..serve.loadgen import (
        build_serve_instance,
        run_serve_instance,
        serve_once,
        verify_serve,
    )

    instance = build_serve_instance(
        "markov",
        _P03_HORIZON[mode],
        _P03_SEED,
        num_resources=_P03_RESOURCES[mode],
        tenants_per_resource=_P03_TENANTS_PER_RESOURCE,
        num_shards=_P03_SHARDS[mode],
    )
    # Time the serving cycle alone; the merge + inline-replay judgement
    # happens off the clock so the rate measures the server, not the
    # verifier.
    start = time.perf_counter()
    report = serve_once(instance)
    elapsed = time.perf_counter() - start
    result = run_serve_instance(instance, _P03_SEED, report=report)
    events = result.detail["broker_stats"]["events"]
    serve = result.detail["serve"]
    verified = verify_serve(instance, result).ok
    return {
        "schema": SCHEMA,
        "bench": "p03_serve",
        "mode": mode,
        "params": {
            "horizon": _P03_HORIZON[mode],
            "num_resources": _P03_RESOURCES[mode],
            "tenants_per_resource": _P03_TENANTS_PER_RESOURCE,
            "num_shards": _P03_SHARDS[mode],
            "seed": _P03_SEED,
        },
        "metrics": {
            "events": events,
            "requests": serve["requests"],
            "tenants": serve["tenants"],
            "leases": len(result.leases),
            "cost": result.cost,
            "elapsed_sec": round(elapsed, 4),
            "events_per_sec": round(events / elapsed),
            "report_equal": serve["report_equal"],
            "verified": verified,
        },
        "env": _environment(),
    }


# ----------------------------------------------------------------------
# P4: clustered serving throughput (router + worker processes)
# ----------------------------------------------------------------------
def measure_p04(mode: str = "smoke") -> dict:
    """Clustered loadgen end to end: worker fleet + router + tenants.

    The same closed-loop day-barriered workload as ``p03``, served by a
    :mod:`repro.cluster` fleet — real ``engine serve`` worker processes
    behind a :class:`~repro.cluster.router.ClusterRouter`, binary codec
    on the worker links.  The rated seconds are the *drive phase* alone
    (dial tenants, replay days, fetch the merged report); spawning the
    worker processes is operations, not serving, and stays off the
    clock.  ``report_equal`` asserts the clustered aggregate matched the
    inline replay of the merged trace — the same identity ``p03`` gates
    for the single-process server.
    """
    _require_mode(mode)
    from ..cluster.loadgen import (
        build_cluster_instance,
        cluster_once,
        run_cluster_instance,
        verify_cluster,
    )

    instance = build_cluster_instance(
        "markov",
        _P04_HORIZON[mode],
        _P04_SEED,
        num_resources=_P04_RESOURCES[mode],
        tenants_per_resource=_P04_TENANTS_PER_RESOURCE,
        num_workers=_P04_WORKERS[mode],
        shards_per_worker=_P04_SHARDS_PER_WORKER[mode],
    )
    report = cluster_once(instance)
    elapsed = report["drive_seconds"]
    result = run_cluster_instance(instance, _P04_SEED, report=report)
    events = result.detail["broker_stats"]["events"]
    cluster = result.detail["cluster"]
    verified = verify_cluster(instance, result).ok
    return {
        "schema": SCHEMA,
        "bench": "p04_cluster",
        "mode": mode,
        "params": {
            "horizon": _P04_HORIZON[mode],
            "num_resources": _P04_RESOURCES[mode],
            "tenants_per_resource": _P04_TENANTS_PER_RESOURCE,
            "num_workers": _P04_WORKERS[mode],
            "shards_per_worker": _P04_SHARDS_PER_WORKER[mode],
            "codec": cluster["codec"],
            "seed": _P04_SEED,
        },
        "metrics": {
            "events": events,
            "requests": cluster["requests"],
            "tenants": cluster["tenants"],
            "workers": cluster["workers"],
            "leases": len(result.leases),
            "cost": result.cost,
            "elapsed_sec": round(elapsed, 4),
            "events_per_sec": round(events / elapsed),
            "report_equal": cluster["report_equal"],
            "verified": verified,
        },
        "env": _environment(),
    }


# ----------------------------------------------------------------------
# P5: observability overhead (instrumented vs bare serving)
# ----------------------------------------------------------------------
def measure_p05(mode: str = "smoke") -> dict:
    """The p03 serving cycle: instrumentation off, metrics on, traced.

    Three arms per round, interleaved so machine drift hits them all:

    * ``off`` — the library default: null instruments, zero sampling.
    * ``on`` — a live server-side :class:`MetricsRegistry` (per-op
      latency histograms, wire-byte counters, session counters): the
      ``engine serve`` default.  This is the gated arm — the cost of
      leaving metrics on in production must stay within
      :data:`OBS_OVERHEAD_FLOOR` of bare serving.
    * ``traced`` — everything lit: metrics plus a :class:`TraceSink`
      writing one JSONL span per dispatched request plus client-side
      loadgen latency histograms.  Recorded for the trajectory, not
      gated: tracing is a debugging flag, priced here so the flag's
      cost is a number instead of folklore.

    Best-of-rounds per arm, because the headline number is a *ratio*
    of wall clocks and single rounds are noisy.  Two structural
    identities ride along: ``report_equal`` (every arm matches the
    inline replay — the p03 gate) and ``reports_identical`` (the
    instrumented aggregates are identical to the bare one —
    observation must not perturb behaviour).
    """
    _require_mode(mode)
    import tempfile

    from ..obs.metrics import MetricsRegistry
    from ..obs.trace import TraceSink
    from ..serve.loadgen import (
        build_serve_instance,
        run_serve_instance,
        serve_once,
        verify_serve,
    )

    instance = build_serve_instance(
        "markov",
        _P05_HORIZON[mode],
        _P05_SEED,
        num_resources=_P05_RESOURCES[mode],
        tenants_per_resource=_P05_TENANTS_PER_RESOURCE,
        num_shards=_P05_SHARDS[mode],
    )
    best = {"off": None, "on": None, "traced": None}
    reports: dict = {"off": None, "on": None, "traced": None}
    trace_spans = 0
    with tempfile.NamedTemporaryFile(
        prefix="p05-trace-", suffix=".jsonl"
    ) as handle:
        arms = {
            "off": lambda: serve_once(instance),
            "on": lambda: serve_once(instance, metrics=MetricsRegistry()),
            "traced": lambda: serve_once(
                instance,
                metrics=MetricsRegistry(),
                trace_sink=TraceSink(handle.name),
                latency_registry=MetricsRegistry(),
            ),
        }
        for _ in range(_P05_ROUNDS[mode]):
            for arm, run in arms.items():
                start = time.perf_counter()
                reports[arm] = run()
                elapsed = time.perf_counter() - start
                if best[arm] is None or elapsed < best[arm]:
                    best[arm] = elapsed
        handle.seek(0)
        trace_spans = sum(1 for _ in handle)
    results = {
        arm: run_serve_instance(instance, _P05_SEED, report=report)
        for arm, report in reports.items()
    }
    bare = results["off"]
    reports_identical = all(
        result.cost == bare.cost
        and result.leases == bare.leases
        and result.detail["broker_stats"] == bare.detail["broker_stats"]
        for result in results.values()
    )
    events = bare.detail["broker_stats"]["events"]
    report_equal = all(
        result.detail["serve"]["report_equal"]
        for result in results.values()
    )
    verified = all(
        verify_serve(instance, result).ok for result in results.values()
    )
    return {
        "schema": SCHEMA,
        "bench": "p05_obs",
        "mode": mode,
        "params": {
            "horizon": _P05_HORIZON[mode],
            "num_resources": _P05_RESOURCES[mode],
            "tenants_per_resource": _P05_TENANTS_PER_RESOURCE,
            "num_shards": _P05_SHARDS[mode],
            "rounds": _P05_ROUNDS[mode],
            "seed": _P05_SEED,
        },
        "metrics": {
            "events": events,
            "requests": bare.detail["serve"]["requests"],
            "tenants": bare.detail["serve"]["tenants"],
            "leases": len(bare.leases),
            "cost": bare.cost,
            "off_elapsed_sec": round(best["off"], 4),
            "on_elapsed_sec": round(best["on"], 4),
            "traced_elapsed_sec": round(best["traced"], 4),
            "off_events_per_sec": round(events / best["off"]),
            "on_events_per_sec": round(events / best["on"]),
            "traced_events_per_sec": round(events / best["traced"]),
            "overhead_ratio": round(best["on"] / best["off"], 4),
            "traced_ratio": round(best["traced"] / best["off"], 4),
            "trace_spans": trace_spans,
            "reports_identical": reports_identical,
            "report_equal": report_equal,
            "verified": verified,
        },
        "env": _environment(),
    }


# ----------------------------------------------------------------------
# P6: durability overhead (WAL off vs batch fsync vs per-append fsync)
# ----------------------------------------------------------------------
def measure_p06(mode: str = "smoke") -> dict:
    """The p03 serving cycle priced under :mod:`repro.durable`'s WAL.

    Three arms per round, interleaved so machine drift hits them all:

    * ``off`` — no WAL at all: the library default, the baseline.
    * ``batch`` — WAL on, rate-limited fsync at chunk commits: the ``engine
      serve --wal-dir`` default.  This is the gated arm — batched
      durability must keep at least :data:`DURABLE_BATCH_FLOOR` of the
      WAL-off rate from the same run.
    * ``always`` — fsync at every chunk commit: the only mode under
      which an *acked* op survives power loss, and the mode
      ``engine chaos`` runs.  Recorded for the trajectory, not gated:
      its cost is the disk's sync latency, wildly machine-dependent,
      and pricing it is the point.

    Each durable arm runs against a fresh WAL directory every round (a
    reused directory would recover the previous round before serving).
    Best-of-rounds per arm, because the headline numbers are *ratios*
    of wall clocks.  Arms are rated on the *drive window* — tenants
    connecting through final report — not the whole cycle: startup
    recovery and the teardown snapshot are per-shard constants whose
    fsyncs would otherwise be billed as per-event throughput, punishing
    exactly the short runs CI uses.  The always arm still pays its
    per-append fsyncs inside that window, which is the cost being
    priced.  The p03 identities ride along: every arm's report
    must equal the inline replay, and the durable arms' aggregates must
    be identical to the WAL-off one — durability must not perturb
    behaviour.  ``wal_bytes`` records one round's total on-disk WAL
    footprint under fsync=always, log + snapshot files included.
    """
    _require_mode(mode)
    import shutil
    import tempfile

    from ..serve.loadgen import (
        build_serve_instance,
        run_serve_instance,
        serve_once,
        verify_serve,
    )

    instance = build_serve_instance(
        "markov",
        _P06_HORIZON[mode],
        _P06_SEED,
        num_resources=_P06_RESOURCES[mode],
        tenants_per_resource=_P06_TENANTS_PER_RESOURCE,
        num_shards=_P06_SHARDS[mode],
    )
    arms = ("off", "batch", "always")
    best: dict = {arm: None for arm in arms}
    reports: dict = {arm: None for arm in arms}
    wal_bytes = 0
    root = Path(tempfile.mkdtemp(prefix="p06-wal-"))
    try:
        for round_index in range(_P06_ROUNDS[mode]):
            for arm in arms:
                wal_dir = None
                if arm != "off":
                    wal_dir = str(root / f"{arm}-{round_index}")
                timings: dict = {}
                reports[arm] = serve_once(
                    instance,
                    timings=timings,
                    **({} if wal_dir is None
                       else {"wal_dir": wal_dir, "fsync": arm}),
                )
                elapsed = timings["drive"]
                if best[arm] is None or elapsed < best[arm]:
                    best[arm] = elapsed
        last_always = root / f"always-{_P06_ROUNDS[mode] - 1}"
        wal_bytes = sum(
            f.stat().st_size for f in last_always.rglob("*") if f.is_file()
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    results = {
        arm: run_serve_instance(instance, _P06_SEED, report=report)
        for arm, report in reports.items()
    }
    bare = results["off"]
    reports_identical = all(
        result.cost == bare.cost
        and result.leases == bare.leases
        and result.detail["broker_stats"] == bare.detail["broker_stats"]
        for result in results.values()
    )
    events = bare.detail["broker_stats"]["events"]
    report_equal = all(
        result.detail["serve"]["report_equal"]
        for result in results.values()
    )
    verified = all(
        verify_serve(instance, result).ok for result in results.values()
    )
    return {
        "schema": SCHEMA,
        "bench": "p06_durable",
        "mode": mode,
        "params": {
            "horizon": _P06_HORIZON[mode],
            "num_resources": _P06_RESOURCES[mode],
            "tenants_per_resource": _P06_TENANTS_PER_RESOURCE,
            "num_shards": _P06_SHARDS[mode],
            "rounds": _P06_ROUNDS[mode],
            "seed": _P06_SEED,
        },
        "metrics": {
            "events": events,
            "requests": bare.detail["serve"]["requests"],
            "tenants": bare.detail["serve"]["tenants"],
            "leases": len(bare.leases),
            "cost": bare.cost,
            "off_elapsed_sec": round(best["off"], 4),
            "batch_elapsed_sec": round(best["batch"], 4),
            "always_elapsed_sec": round(best["always"], 4),
            "off_events_per_sec": round(events / best["off"]),
            "batch_events_per_sec": round(events / best["batch"]),
            "always_events_per_sec": round(events / best["always"]),
            "batch_ratio": round(best["batch"] / best["off"], 4),
            "always_ratio": round(best["always"] / best["off"], 4),
            "wal_bytes": wal_bytes,
            "reports_identical": reports_identical,
            "report_equal": report_equal,
            "verified": verified,
        },
        "env": _environment(),
    }


# ----------------------------------------------------------------------
# P7: admin-plane overhead (bare vs mounted + actively scraped)
# ----------------------------------------------------------------------
def measure_p07(mode: str = "smoke") -> dict:
    """The p03 serving cycle bare vs with the ops plane scraped at 4 Hz.

    Two arms per round, interleaved so machine drift hits both:

    * ``bare`` — the p03 cycle untouched: no admin listener at all.
    * ``admin`` — an :class:`~repro.admin.AdminPlane` mounted on an
      ephemeral TCP port beside the lease socket, with a background
      scraper hitting ``GET /metrics`` and ``GET /leases`` at
      :data:`_P07_POLL_HZ` for the whole drive.  That is the realistic
      ops posture: every ``/metrics`` scrape runs the stats barrier
      across all shards and every ``/leases`` folds the live book, so
      this arm prices the plane *under observation*, not merely bound.

    This is the gated arm: it must keep at least
    :data:`ADMIN_OVERHEAD_FLOOR` of the bare rate from the same run — a
    ratio of two wall clocks on one box, machine-independent.  Best of
    rounds per arm, since the headline is a ratio.  The p03 identities
    ride along: both arms' aggregates must equal the inline replay, and
    the admin arm's aggregate must be identical to the bare one —
    being watched must not perturb behaviour.
    """
    _require_mode(mode)
    from ..serve.loadgen import (
        build_serve_instance,
        run_serve_instance,
        serve_once,
        verify_serve,
    )

    instance = build_serve_instance(
        "markov",
        _P07_HORIZON[mode],
        _P07_SEED,
        num_resources=_P07_RESOURCES[mode],
        tenants_per_resource=_P07_TENANTS_PER_RESOURCE,
        num_shards=_P07_SHARDS[mode],
    )
    arms = {
        "bare": lambda: serve_once(instance),
        "admin": lambda: serve_once(
            instance, admin=True, admin_poll_hz=_P07_POLL_HZ
        ),
    }
    best: dict = {arm: None for arm in arms}
    reports: dict = {arm: None for arm in arms}
    for _ in range(_P07_ROUNDS[mode]):
        for arm, run in arms.items():
            start = time.perf_counter()
            reports[arm] = run()
            elapsed = time.perf_counter() - start
            if best[arm] is None or elapsed < best[arm]:
                best[arm] = elapsed
    results = {
        arm: run_serve_instance(instance, _P07_SEED, report=report)
        for arm, report in reports.items()
    }
    bare = results["bare"]
    admin = results["admin"]
    reports_identical = (
        admin.cost == bare.cost
        and admin.leases == bare.leases
        and admin.detail["broker_stats"] == bare.detail["broker_stats"]
    )
    events = bare.detail["broker_stats"]["events"]
    report_equal = all(
        result.detail["serve"]["report_equal"]
        for result in results.values()
    )
    verified = all(
        verify_serve(instance, result).ok for result in results.values()
    )
    return {
        "schema": SCHEMA,
        "bench": "p07_admin",
        "mode": mode,
        "params": {
            "horizon": _P07_HORIZON[mode],
            "num_resources": _P07_RESOURCES[mode],
            "tenants_per_resource": _P07_TENANTS_PER_RESOURCE,
            "num_shards": _P07_SHARDS[mode],
            "rounds": _P07_ROUNDS[mode],
            "poll_hz": _P07_POLL_HZ,
            "seed": _P07_SEED,
        },
        "metrics": {
            "events": events,
            "requests": bare.detail["serve"]["requests"],
            "tenants": bare.detail["serve"]["tenants"],
            "leases": len(bare.leases),
            "cost": bare.cost,
            "bare_elapsed_sec": round(best["bare"], 4),
            "admin_elapsed_sec": round(best["admin"], 4),
            "bare_events_per_sec": round(events / best["bare"]),
            "admin_events_per_sec": round(events / best["admin"]),
            "admin_ratio": round(best["admin"] / best["bare"], 4),
            "reports_identical": reports_identical,
            "report_equal": report_equal,
            "verified": verified,
        },
        "env": _environment(),
    }


# ----------------------------------------------------------------------
# P8: live-debugging flight overhead (bare vs everything lit at once)
# ----------------------------------------------------------------------
def measure_p08(mode: str = "smoke") -> dict:
    """The p03 serving cycle bare vs under full live-debugging load.

    Two arms per round, interleaved so machine drift hits both:

    * ``off`` — the p03 cycle untouched: no instrumentation at all.
    * ``flight`` — the whole live-observability layer at once: a live
      :class:`MetricsRegistry`, a :class:`TraceSink` writing one JSONL
      span per dispatched request, a :class:`MetricsHistory` ring
      sampling the registry at :data:`_P08_HISTORY_INTERVAL`, a
      :class:`SamplingProfiler` running for the whole cycle, and an
      admin plane scraped at :data:`_P08_POLL_HZ` across
      :data:`_P08_POLL_PATHS` — including ``/metrics/history`` windowed
      queries and ``/profile`` captures.  The posture of an operator
      actively debugging a production incident, priced as one number.

    This is the gated arm: it must keep at least
    :data:`FLIGHT_OVERHEAD_FLOOR` of the bare rate from the same run —
    a ratio of two wall clocks on one box, machine-independent.  The
    gated ``flight_ratio`` is the best *head-to-head* round — each
    round times both arms back to back and the minimum per-round ratio
    is gated, so the multi-second contention drift a shared box injects
    cancels instead of landing on whichever arm drew the noisy slice.
    A real regression inflates every round's ratio and still trips the
    gate.  The p03
    identities ride along: both arms' aggregates must equal the inline
    replay, and the flight arm's aggregate must be identical to the
    bare one — debugging a live fleet must not change what it serves.
    ``history_samples`` / ``profile_samples`` / ``trace_spans`` record
    (from the last flight round) that every layer actually ran — a
    flight arm with nothing lit would gate a vacuous ratio.
    """
    _require_mode(mode)
    import tempfile

    from ..obs.history import MetricsHistory
    from ..obs.metrics import MetricsRegistry
    from ..obs.profile import SamplingProfiler
    from ..obs.trace import TraceSink
    from ..serve.loadgen import (
        build_serve_instance,
        run_serve_instance,
        serve_once,
        verify_serve,
    )

    instance = build_serve_instance(
        "markov",
        _P08_HORIZON[mode],
        _P08_SEED,
        num_resources=_P08_RESOURCES[mode],
        tenants_per_resource=_P08_TENANTS_PER_RESOURCE,
        num_shards=_P08_SHARDS[mode],
    )
    layer_counts = {"history_samples": 0, "profile_samples": 0}
    with tempfile.NamedTemporaryFile(
        prefix="p08-trace-", suffix=".jsonl"
    ) as handle:

        def _flight() -> dict:
            registry = MetricsRegistry()
            history = MetricsHistory(
                registry, interval=_P08_HISTORY_INTERVAL[mode]
            )
            profiler = SamplingProfiler()
            profiler.start()
            try:
                report = serve_once(
                    instance,
                    metrics=registry,
                    trace_sink=TraceSink(handle.name),
                    latency_registry=MetricsRegistry(),
                    history=history,
                    profiler=profiler,
                    admin=True,
                    admin_poll_hz=_P08_POLL_HZ,
                    admin_poll_paths=_P08_POLL_PATHS,
                )
            finally:
                profiler.stop()
            layer_counts["history_samples"] = len(history)
            layer_counts["profile_samples"] = profiler.samples
            return report

        arms = {"off": lambda: serve_once(instance), "flight": _flight}
        rounds: dict = {arm: [] for arm in arms}
        reports: dict = {arm: None for arm in arms}
        for _ in range(_P08_ROUNDS[mode]):
            for arm, run in arms.items():
                start = time.perf_counter()
                reports[arm] = run()
                rounds[arm].append(time.perf_counter() - start)
        # Gate on the best head-to-head round: each round runs off and
        # flight back to back, so their ratio cancels the multi-second
        # contention drift a shared box injects — dividing two floors
        # taken from *different* time slices does not.  The minimum over
        # rounds is the quietest head-to-head comparison; a real
        # regression (say an accidentally quadratic span path) inflates
        # every round's ratio, so the min still catches it.
        best = {arm: min(times) for arm, times in rounds.items()}
        flight_ratio = min(
            f / o for o, f in zip(rounds["off"], rounds["flight"])
        )
        handle.seek(0)
        trace_spans = sum(1 for _ in handle)
    results = {
        arm: run_serve_instance(instance, _P08_SEED, report=report)
        for arm, report in reports.items()
    }
    bare = results["off"]
    flight = results["flight"]
    reports_identical = (
        flight.cost == bare.cost
        and flight.leases == bare.leases
        and flight.detail["broker_stats"] == bare.detail["broker_stats"]
    )
    events = bare.detail["broker_stats"]["events"]
    report_equal = all(
        result.detail["serve"]["report_equal"]
        for result in results.values()
    )
    verified = all(
        verify_serve(instance, result).ok for result in results.values()
    )
    return {
        "schema": SCHEMA,
        "bench": "p08_flight",
        "mode": mode,
        "params": {
            "horizon": _P08_HORIZON[mode],
            "num_resources": _P08_RESOURCES[mode],
            "tenants_per_resource": _P08_TENANTS_PER_RESOURCE,
            "num_shards": _P08_SHARDS[mode],
            "rounds": _P08_ROUNDS[mode],
            "poll_hz": _P08_POLL_HZ,
            "poll_paths": list(_P08_POLL_PATHS),
            "history_interval": _P08_HISTORY_INTERVAL[mode],
            "seed": _P08_SEED,
        },
        "metrics": {
            "events": events,
            "requests": bare.detail["serve"]["requests"],
            "tenants": bare.detail["serve"]["tenants"],
            "leases": len(bare.leases),
            "cost": bare.cost,
            "off_elapsed_sec": round(best["off"], 4),
            "flight_elapsed_sec": round(best["flight"], 4),
            "off_events_per_sec": round(events / best["off"]),
            "flight_events_per_sec": round(events / best["flight"]),
            "flight_ratio": round(flight_ratio, 4),
            "trace_spans": trace_spans,
            "history_samples": layer_counts["history_samples"],
            "profile_samples": layer_counts["profile_samples"],
            "layers_lit": bool(
                trace_spans
                and layer_counts["history_samples"] >= 2
                and layer_counts["profile_samples"]
            ),
            "reports_identical": reports_identical,
            "report_equal": report_equal,
            "verified": verified,
        },
        "env": _environment(),
    }


# ----------------------------------------------------------------------
# P9: direct data plane vs routed relay (two-arm cluster topology)
# ----------------------------------------------------------------------
def measure_p09(mode: str = "smoke") -> dict:
    """Clustered serving, routed vs direct, from the same run.

    Two arms over the identical ``p04``-shaped instance, interleaved so
    machine drift hits both:

    * ``routed`` — every tenant mutation relays through the router (the
      pre-direct shape; the baseline arm).
    * ``direct`` — tenants perform the route handshake, then send
      acquire/renew/release straight to the owning worker; the router
      keeps only ticks, barriers, and supervision.

    Each arm is a full :func:`~repro.cluster.loadgen.cluster_once`
    cycle; the rated seconds are the drive phase alone, best of
    ``rounds`` per arm.  ``direct_ratio`` is the direct arm's speedup
    over the routed arm (routed wall clock / direct wall clock) — the
    headline number, gated ``>= 1.0`` on multi-core machines only:
    removing the router hop must pay where there are cores to pay with,
    while a single-core box serialises both arms and the record says so
    via ``cpus``.  Both arms must stay byte-identical to the inline
    replay (``report_equal``) and to *each other* on cost, leases, and
    broker counters (``reports_identical``) — the topology moves bytes,
    never behaviour.
    """
    _require_mode(mode)
    from dataclasses import replace

    from ..cluster.loadgen import (
        build_cluster_instance,
        cluster_once,
        run_cluster_instance,
        verify_cluster,
    )

    routed = build_cluster_instance(
        "markov",
        _P09_HORIZON[mode],
        _P09_SEED,
        num_resources=_P09_RESOURCES[mode],
        tenants_per_resource=_P09_TENANTS_PER_RESOURCE,
        num_workers=_P09_WORKERS[mode],
        shards_per_worker=_P09_SHARDS_PER_WORKER[mode],
        topology="routed",
    )
    arms = {"routed": routed, "direct": replace(routed, topology="direct")}
    best: dict = {arm: None for arm in arms}
    reports: dict = {arm: None for arm in arms}
    for _ in range(_P09_ROUNDS[mode]):
        for arm, instance in arms.items():
            report = cluster_once(instance)
            elapsed = report["drive_seconds"]
            if best[arm] is None or elapsed < best[arm]:
                best[arm] = elapsed
                reports[arm] = report
    results = {
        arm: run_cluster_instance(arms[arm], _P09_SEED, report=reports[arm])
        for arm in arms
    }
    base = results["routed"]
    reports_identical = all(
        result.cost == base.cost
        and result.leases == base.leases
        and result.detail["broker_stats"] == base.detail["broker_stats"]
        for result in results.values()
    )
    events = base.detail["broker_stats"]["events"]
    report_equal = all(
        result.detail["cluster"]["report_equal"]
        for result in results.values()
    )
    verified = all(
        verify_cluster(arms[arm], result).ok
        for arm, result in results.items()
    )
    return {
        "schema": SCHEMA,
        "bench": "p09_direct",
        "mode": mode,
        "params": {
            "horizon": _P09_HORIZON[mode],
            "num_resources": _P09_RESOURCES[mode],
            "tenants_per_resource": _P09_TENANTS_PER_RESOURCE,
            "num_workers": _P09_WORKERS[mode],
            "shards_per_worker": _P09_SHARDS_PER_WORKER[mode],
            "codec": routed.codec,
            "rounds": _P09_ROUNDS[mode],
            "seed": _P09_SEED,
        },
        "metrics": {
            "events": events,
            "requests": reports["routed"]["requests"],
            "tenants": len(routed.tenants),
            "workers": routed.num_workers,
            "leases": len(base.leases),
            "cost": base.cost,
            "routed_elapsed_sec": round(best["routed"], 4),
            "direct_elapsed_sec": round(best["direct"], 4),
            "routed_events_per_sec": round(events / best["routed"]),
            "direct_events_per_sec": round(events / best["direct"]),
            "direct_ratio": round(best["routed"] / best["direct"], 4),
            "handshakes": reports["direct"].get("handshakes", 0),
            "retried_ops": reports["direct"].get("retried_ops", 0),
            "reports_identical": reports_identical,
            "report_equal": report_equal,
            "verified": verified,
        },
        "env": _environment(),
    }


_MEASURERS = {
    "p01_broker": measure_p01,
    "p02_runner": measure_p02,
    "p03_serve": measure_p03,
    "p04_cluster": measure_p04,
    "p05_obs": measure_p05,
    "p06_durable": measure_p06,
    "p07_admin": measure_p07,
    "p08_flight": measure_p08,
    "p09_direct": measure_p09,
}


def measure(bench: str, mode: str = "smoke") -> dict:
    """Run one named benchmark at one mode; returns its record."""
    if bench not in _MEASURERS:
        raise ModelError(
            f"unknown bench {bench!r}; known: {', '.join(BENCH_NAMES)}"
        )
    return _MEASURERS[bench](mode)


# ----------------------------------------------------------------------
# Committed trajectory files
# ----------------------------------------------------------------------
def load_committed(path: str | Path) -> dict:
    """Read a committed BENCH_*.json trajectory file."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data.get("schema") != SCHEMA:
        raise ModelError(
            f"{path}: unsupported schema {data.get('schema')!r} "
            f"(expected {SCHEMA})"
        )
    return data


def update_committed(committed: dict, record: dict) -> dict:
    """Fold a fresh record into a committed trajectory (returns it).

    Only the record's mode entry moves; the frozen ``baseline`` block —
    the pre-optimization reference the headline speedup is measured
    against — is never touched by refreshes.
    """
    if committed.get("bench") != record["bench"]:
        raise ModelError(
            f"record for {record['bench']!r} cannot refresh a "
            f"{committed.get('bench')!r} trajectory"
        )
    committed.setdefault("modes", {})[record["mode"]] = {
        "params": record["params"],
        "metrics": record["metrics"],
        "env": record["env"],
    }
    return committed


def dump_json(data: dict, path: str | Path) -> None:
    """Write a record or trajectory as stable, diff-friendly JSON."""
    Path(path).write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------
#: Metrics gated as "fresh must not drop more than tolerance below
#: committed".  Structural metrics are checked exactly, below.
_RATE_GATES = {
    "p01_broker": ("events_per_sec", "leases_per_sec"),
    "p02_runner": ("events_per_sec",),
    "p03_serve": ("events_per_sec",),
    "p04_cluster": ("events_per_sec",),
    "p05_obs": ("off_events_per_sec", "on_events_per_sec"),
    "p06_durable": ("off_events_per_sec", "batch_events_per_sec"),
    "p07_admin": ("bare_events_per_sec", "admin_events_per_sec"),
    "p08_flight": ("off_events_per_sec", "flight_events_per_sec"),
    "p09_direct": ("routed_events_per_sec", "direct_events_per_sec"),
}
_EXACT_GATES = {
    "p01_broker": ("events", "leases"),
    "p02_runner": ("events", "leases", "byte_identical", "verified"),
    "p03_serve": ("events", "leases", "report_equal", "verified"),
    "p04_cluster": ("events", "leases", "report_equal", "verified"),
    "p05_obs": (
        "events", "leases", "reports_identical", "report_equal", "verified",
    ),
    "p06_durable": (
        "events", "leases", "reports_identical", "report_equal", "verified",
    ),
    "p07_admin": (
        "events", "leases", "reports_identical", "report_equal", "verified",
    ),
    "p08_flight": (
        "events", "leases", "layers_lit", "reports_identical",
        "report_equal", "verified",
    ),
    "p09_direct": (
        "events", "leases", "reports_identical", "report_equal", "verified",
    ),
}


def check(
    committed: dict, record: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[str]:
    """Compare a fresh record against the committed trajectory.

    Returns human-readable failures (empty = pass).  Rate metrics fail
    past ``tolerance`` relative regression; structural metrics must match
    exactly.  Two multi-core-only gates ride on top (fan-out cannot beat
    one process on a single core, and the records say so via ``cpus``
    rather than pretending otherwise): p02's shard speedup must exceed
    1.0, and p04's clustered events/sec must beat its frozen baseline —
    the committed p03 *single-process* serving rate — whenever both the
    committed entry and this machine have more than one usable core.
    p05 carries its own machine-independent gate: the instrumented rate
    must stay at or above :data:`OBS_OVERHEAD_FLOOR` times the
    uninstrumented rate *of the same run* — a ratio of two wall clocks
    on the same box, so it holds regardless of how slow the box is.
    """
    bench = record["bench"]
    mode = record["mode"]
    entry = committed.get("modes", {}).get(mode)
    if entry is None:
        return [
            f"{bench}: no committed numbers for mode {mode!r} — "
            "run with --write to record them"
        ]
    failures: list[str] = []
    fresh = record["metrics"]
    reference = entry["metrics"]
    for metric in _RATE_GATES[bench]:
        floor = reference[metric] * (1.0 - tolerance)
        if fresh[metric] < floor:
            failures.append(
                f"{bench}/{mode}: {metric} regressed to {fresh[metric]:,} "
                f"(committed {reference[metric]:,}, floor {floor:,.0f} "
                f"at {tolerance:.0%} tolerance)"
            )
    for metric in _EXACT_GATES[bench]:
        if fresh[metric] != reference[metric]:
            failures.append(
                f"{bench}/{mode}: {metric} changed from "
                f"{reference[metric]!r} to {fresh[metric]!r}"
            )
    if (
        bench == "p02_runner"
        and record["env"]["cpus"] > 1
        and entry["env"]["cpus"] > 1
        and fresh["shard_speedup"] <= 1.0
    ):
        failures.append(
            f"p02_runner/{mode}: sharded replay no longer beats unsharded "
            f"(speedup {fresh['shard_speedup']}) on a "
            f"{record['env']['cpus']}-core machine"
        )
    if (
        bench == "p04_cluster"
        and record["env"]["cpus"] > 1
        and entry["env"]["cpus"] > 1
    ):
        baseline = committed.get("baseline", {}).get("events_per_sec")
        if baseline is not None and fresh["events_per_sec"] <= baseline:
            failures.append(
                f"p04_cluster/{mode}: clustered serving no longer beats "
                f"the single-process p03 baseline "
                f"({fresh['events_per_sec']:,} <= {baseline:,} events/sec) "
                f"on a {record['env']['cpus']}-core machine"
            )
    if bench == "p05_obs":
        floor = fresh["off_events_per_sec"] * OBS_OVERHEAD_FLOOR
        if fresh["on_events_per_sec"] < floor:
            failures.append(
                f"p05_obs/{mode}: instrumented serving dropped to "
                f"{fresh['on_events_per_sec']:,} events/sec — below "
                f"{OBS_OVERHEAD_FLOOR:.0%} of the uninstrumented "
                f"{fresh['off_events_per_sec']:,} events/sec from the "
                f"same run (overhead ratio {fresh['overhead_ratio']})"
            )
    if bench == "p06_durable":
        floor = fresh["off_events_per_sec"] * DURABLE_BATCH_FLOOR
        if fresh["batch_events_per_sec"] < floor:
            failures.append(
                f"p06_durable/{mode}: batch-fsynced serving dropped to "
                f"{fresh['batch_events_per_sec']:,} events/sec — below "
                f"{DURABLE_BATCH_FLOOR:.0%} of the WAL-off "
                f"{fresh['off_events_per_sec']:,} events/sec from the "
                f"same run (batch ratio {fresh['batch_ratio']})"
            )
    if bench == "p07_admin":
        floor = fresh["bare_events_per_sec"] * ADMIN_OVERHEAD_FLOOR
        if fresh["admin_events_per_sec"] < floor:
            failures.append(
                f"p07_admin/{mode}: serving under an actively scraped "
                f"admin plane dropped to "
                f"{fresh['admin_events_per_sec']:,} events/sec — below "
                f"{ADMIN_OVERHEAD_FLOOR:.0%} of the bare "
                f"{fresh['bare_events_per_sec']:,} events/sec from the "
                f"same run (admin ratio {fresh['admin_ratio']})"
            )
    if bench == "p08_flight":
        # Gate on the best head-to-head round — the same-run comparison
        # measure_p08 stabilised against machine drift.
        ceiling = 1.0 / FLIGHT_OVERHEAD_FLOOR
        if fresh["flight_ratio"] > ceiling:
            failures.append(
                f"p08_flight/{mode}: serving under the full live-debugging "
                f"layer took {fresh['flight_ratio']}x the bare wall clock "
                f"(best head-to-head round) — keeps less than "
                f"{FLIGHT_OVERHEAD_FLOOR:.0%} of the bare rate "
                f"(ratio ceiling {ceiling:.4f})"
            )
    if (
        bench == "p09_direct"
        and record["env"]["cpus"] > 1
        and entry["env"]["cpus"] > 1
        and fresh["direct_ratio"] < 1.0
    ):
        failures.append(
            f"p09_direct/{mode}: the direct data plane no longer beats "
            f"the routed relay ({fresh['direct_events_per_sec']:,} < "
            f"{fresh['routed_events_per_sec']:,} events/sec, ratio "
            f"{fresh['direct_ratio']}) on a "
            f"{record['env']['cpus']}-core machine"
        )
    return failures
