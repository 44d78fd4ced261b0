"""Perf-trajectory harness for the offline hot paths: measure, persist, gate.

The broker's throughput used to live in one printed line of
``bench_p01``; nothing recorded it and nothing failed when it drifted.
This module makes the trajectory a first-class artifact:

* :func:`measure` runs one benchmark (``p01_broker``: raw broker event
  throughput on the P1 round-robin stream; ``p02_runner``: heavy-scenario
  replay, unsharded vs intra-scenario sharded) at one of three sizes
  (``full`` — the committed trajectory numbers, ``smoke`` — CI-sized,
  ``unit`` — test-sized) and returns a JSON-ready record.
* ``BENCH_p01_broker.json`` / ``BENCH_p02_runner.json`` under
  ``benchmarks/`` hold the committed per-mode numbers plus the frozen
  ``baseline`` block (the pre-optimization reference), so ``current vs
  baseline`` is the headline trajectory and ``fresh vs committed`` is
  the regression gate.
* :func:`check` compares a fresh record against the committed file with
  a relative tolerance (default 30%) and returns human-readable
  failures; CI runs it in smoke mode and fails on any.

The served, clustered, durable and observed paths are not timed here:
``leasebench/run.py`` (declared by ``BENCHMARK.json``) drives the real
``engine serve``/``engine cluster`` processes, checks every round
against the inline replay, and prices each layer in its cost ledger.

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
BENCH_NAMES = ("p01_broker", "p02_runner")
MODES = ("full", "smoke", "unit")
DEFAULT_TOLERANCE = 0.30

#: Committed trajectory files, relative to the repository root.
BENCH_FILES = {
    "p01_broker": "benchmarks/BENCH_p01_broker.json",
    "p02_runner": "benchmarks/BENCH_p02_runner.json",
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


_MEASURERS = {
    "p01_broker": measure_p01,
    "p02_runner": measure_p02,
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
}
_EXACT_GATES = {
    "p01_broker": ("events", "leases"),
    "p02_runner": ("events", "leases", "byte_identical", "verified"),
}


def check(
    committed: dict, record: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[str]:
    """Compare a fresh record against the committed trajectory.

    Returns human-readable failures (empty = pass).  Rate metrics fail
    past ``tolerance`` relative regression; structural metrics must match
    exactly.  One multi-core-only gate rides on top (fan-out cannot beat
    one process on a single core, and the records say so via ``cpus``
    rather than pretending otherwise): p02's shard speedup must exceed
    1.0 whenever both the committed entry and this machine have more
    than one usable core.
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
    return failures
