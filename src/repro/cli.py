"""Command-line interface: run leasing demos without writing code.

``python -m repro <problem> [options]`` generates a seeded workload, runs
the problem's online algorithm against its offline baseline, verifies
feasibility, and prints the comparison table — the same pipeline the
examples script, condensed to one command.

Subcommands::

    python -m repro parking  --num-types 4 --horizon 200 --seed 7
    python -m repro setcover --elements 20 --sets 10 --demands 30
    python -m repro facility --facilities 4 --steps 8 --per-step 2
    python -m repro old      --horizon 120 --max-slack 6
    python -m repro engine list
    python -m repro engine run --scenario all --workers 4 --seed 7
    python -m repro engine run --scenario broker-markov --shards 4 --workers 4
    python -m repro engine replay --workload markov --horizon 400
    python -m repro engine serve --socket /tmp/lease.sock --resources 8
    python -m repro engine cluster --socket /tmp/lease.sock --workers 2
    python -m repro engine loadgen --socket /tmp/lease.sock --check
    python -m repro engine loadgen --cluster 2 --check
    python -m repro engine chaos --workers 2 --kills 2 --check
    python -m repro engine metrics --socket /tmp/lease.sock --validate
    python -m repro engine trace-tree spans/*.jsonl --json
    python -m repro engine flamegraph capture.json

The ``engine`` subcommands front :mod:`repro.engine`, :mod:`repro.serve`
and :mod:`repro.cluster`: ``list`` prints the scenario registry (with
its ``shardable`` and ``cluster`` columns), ``run`` replays scenarios
through the parallel runner and prints one aggregate ratio table,
``replay`` drives the lease broker from a generated or saved JSONL event
trace, ``serve`` puts a broker behind the asyncio wire protocol,
``cluster`` spawns N ``engine serve`` worker processes behind a
control-plane router on one socket, ``loadgen`` drives closed-loop
tenants against a server or cluster (in-process by default) and checks
the served aggregate against an inline replay of the same trace,
``chaos`` SIGKILLs workers in a WAL'd supervised cluster mid-loadgen
and demands the post-crash aggregate still equal the inline replay
byte for byte,
``metrics`` scrapes a running server or router's Prometheus
exposition over the ``metrics`` protocol verb, ``trace-tree``
merges a fleet's span JSONL files and reconstructs one causal tree per
traced op, and ``flamegraph`` renders a ``/profile`` capture as
collapsed-stack text (the format flamegraph tooling consumes).
``serve`` and ``cluster`` additionally mount the
:mod:`repro.admin` HTTP ops plane beside the lease listener when
``--admin-port`` is given.
"""

from __future__ import annotations

import argparse

from .analysis import print_table, verify_facility, verify_multicover
from .analysis import verify_old, verify_parking
from .core import LeaseSchedule, run_online
from .deadlines import make_old_instance, optimal_dp, run_old
from .facility import make_instance as make_facility_instance
from .facility import optimum as facility_optimum
from .facility import run_facility_leasing
from .parking import (
    DeterministicParkingPermit,
    RandomizedParkingPermit,
    make_instance,
    optimal_interval,
)
from .setcover import (
    OnlineSetMulticoverLeasing,
    optimum as setcover_optimum,
    random_instance,
)
from .workloads import (
    constant_batches,
    deadline_arrivals,
    make_rng,
    markov_days,
)


def _schedule(args) -> LeaseSchedule:
    return LeaseSchedule.power_of_two(
        args.num_types, cost_growth=args.cost_growth
    )


def cmd_parking(args) -> int:
    schedule = _schedule(args)
    days = markov_days(args.horizon, 0.1, 0.8, make_rng(args.seed))
    instance = make_instance(schedule, days)
    deterministic = DeterministicParkingPermit(schedule)
    run_online(deterministic, instance.rainy_days)
    verify_parking(instance, list(deterministic.leases)).raise_if_failed()
    randomized = RandomizedParkingPermit(schedule, seed=args.seed)
    run_online(randomized, instance.rainy_days)
    verify_parking(instance, list(randomized.leases)).raise_if_failed()
    opt = optimal_interval(instance).cost
    print_table(
        ["algorithm", "cost", "ratio", "bound"],
        [
            ["deterministic (Alg 1)", deterministic.cost,
             deterministic.cost / opt, schedule.num_types],
            ["randomized (Alg 2)", randomized.cost,
             randomized.cost / opt, ""],
            ["offline optimum", opt, 1.0, ""],
        ],
        title=f"parking permit: {instance.num_days} rainy days, "
        f"K={schedule.num_types}",
    )
    return 0


def cmd_setcover(args) -> int:
    schedule = _schedule(args)
    instance = random_instance(
        num_elements=args.elements,
        num_sets=args.sets,
        memberships=min(3, args.sets),
        schedule=schedule,
        horizon=args.horizon,
        num_demands=args.demands,
        rng=make_rng(args.seed),
        max_coverage=2,
    )
    algorithm = OnlineSetMulticoverLeasing(instance, seed=args.seed)
    run_online(algorithm, instance.demands)
    verify_multicover(instance, list(algorithm.leases)).raise_if_failed()
    opt = setcover_optimum(instance)
    print_table(
        ["algorithm", "cost", "ratio"],
        [
            ["randomized online (Alg 3+4)", algorithm.cost,
             algorithm.cost / opt.lower],
            [f"offline optimum ({opt.method})", opt.lower, 1.0],
        ],
        title=f"set multicover leasing: n={args.elements}, m={args.sets}, "
        f"{args.demands} demands",
    )
    return 0


def cmd_facility(args) -> int:
    schedule = _schedule(args)
    instance = make_facility_instance(
        schedule,
        num_facilities=args.facilities,
        batch_sizes=constant_batches(args.steps, args.per_step),
        rng=make_rng(args.seed),
    )
    algorithm = run_facility_leasing(instance)
    verify_facility(
        instance, list(algorithm.leases), algorithm.connections
    ).raise_if_failed()
    opt = facility_optimum(instance)
    print_table(
        ["algorithm", "leasing", "connection", "total", "ratio"],
        [
            ["two-phase online (Ch. 4)", algorithm.leasing_cost,
             algorithm.connection_cost, algorithm.cost,
             algorithm.cost / opt.lower],
            [f"offline optimum ({opt.method})", "", "", opt.lower, 1.0],
        ],
        title=f"facility leasing: {instance.num_clients} clients, "
        f"{args.facilities} facilities",
    )
    return 0


def cmd_old(args) -> int:
    schedule = _schedule(args)
    clients = deadline_arrivals(
        args.horizon, 0.4, max_slack=args.max_slack, rng=make_rng(args.seed)
    )
    instance = make_old_instance(schedule, clients).normalized()
    algorithm = run_old(instance)
    verify_old(instance, list(algorithm.leases)).raise_if_failed()
    opt = optimal_dp(instance)
    print_table(
        ["algorithm", "cost", "ratio", "bound"],
        [
            ["primal-dual online (Ch. 5)", algorithm.cost,
             algorithm.cost / opt if opt else 1.0,
             2 * schedule.num_types
             + instance.dmax / schedule.lmin + 2],
            ["offline optimum (DP)", opt, 1.0, ""],
        ],
        title=f"leasing with deadlines: {len(instance.clients)} clients, "
        f"dmax={instance.dmax}",
    )
    return 0


def _resolve_families(requested, *, where) -> list[str] | None:
    """Validate ``--family`` values against the registry; None on error.

    Repeated families are deduplicated (first occurrence wins) so a
    doubled ``--family`` flag never runs a scenario twice.
    """
    import sys

    from .engine import families

    selected: list[str] = []
    for family in requested:
        if family not in selected:
            selected.append(family)
    known = families()
    unknown = [family for family in selected if family not in known]
    if unknown:
        print(
            f"error: unknown famil{'y' if len(unknown) == 1 else 'ies'} "
            f"{', '.join(sorted(unknown))} for {where}; "
            f"known: {', '.join(known)}",
            file=sys.stderr,
        )
        return None
    return selected


def cmd_engine_list(args) -> int:
    from .engine import all_scenarios

    scenarios = all_scenarios()
    title = f"{len(scenarios)} registered scenarios"
    if args.family:
        selected = _resolve_families(args.family, where="engine list")
        if selected is None:
            return 2
        scenarios = tuple(s for s in scenarios if s.family in selected)
        title = (
            f"{len(scenarios)} registered scenarios "
            f"(family {', '.join(selected)})"
        )
    print_table(
        [
            "scenario", "family", "workload", "paper result",
            "shardable", "cluster", "description",
        ],
        [
            [
                s.name, s.family, s.workload, s.paper_result,
                "yes" if s.shardable else "",
                "yes" if s.cluster_servable else "",
                s.description,
            ]
            for s in scenarios
        ],
        title=title,
    )
    return 0


def cmd_engine_run(args) -> int:
    import sys

    from .engine import (
        by_family,
        get_scenario,
        render_report,
        replay,
        replay_sharded,
        scenario_names,
    )

    requested = tuple(args.scenario or ())
    if not requested and not args.family:
        print(
            "error: engine run needs --scenario and/or --family",
            file=sys.stderr,
        )
        return 2
    # --family is validated whatever else is selected, so a typo is
    # refused (exit 2) even next to --scenario all.
    family_names: tuple[str, ...] = ()
    if args.family:
        selected = _resolve_families(args.family, where="engine run")
        if selected is None:
            return 2
        family_names = tuple(
            s.name for family in selected for s in by_family(family)
        )
    explicit = tuple(name for name in requested if name != "all")
    if "all" in requested:
        # 'all' expands to the registry (covering every family);
        # explicitly named extras (e.g. ad-hoc registered scenarios)
        # still run alongside it.
        names = scenario_names() + tuple(
            name for name in explicit if name not in scenario_names()
        )
    else:
        # Family selections expand first (in registry name order), then
        # explicitly named scenarios not already covered.
        names = family_names + tuple(
            name for name in explicit if name not in family_names
        )
    if args.shards > 1:
        # Fail fast and plainly on non-shardable scenarios instead of
        # letting replay_sharded raise per-name deep in the run.
        non_shardable = [
            name for name in names if not get_scenario(name).shardable
        ]
        if non_shardable:
            print(
                "error: --shards requires shardable scenarios, but "
                f"{', '.join(sorted(non_shardable))} "
                f"{'is' if len(non_shardable) == 1 else 'are'} not "
                "(see the 'shardable' column of `engine list`); "
                "drop --shards or pick a shardable family such as broker-*",
                file=sys.stderr,
            )
            return 2
        # Intra-scenario sharding: each scenario splits by resource into
        # shard jobs; merged outcomes are byte-identical to unsharded.
        outcomes = [
            replay_sharded(
                name,
                seed=args.seed,
                shards=args.shards,
                workers=args.workers,
                transport=args.transport,
            )
            for name in names
        ]
        title = (
            f"engine run: {len(names)} scenarios, seed {args.seed}, "
            f"{args.shards} shards x {args.workers} workers"
        )
    else:
        outcomes = replay(
            names,
            seeds=[args.seed],
            workers=args.workers,
            transport=args.transport,
        )
        title = (
            f"engine run: {len(names)} scenarios, seed {args.seed}, "
            f"{args.workers} workers"
        )
    print(render_report(outcomes, title=title))
    return 0 if all(outcome.verified for outcome in outcomes) else 1


def cmd_engine_replay(args) -> int:
    from . import io as repro_io
    from .engine import LeaseBroker, generate_trace, replay_trace

    if args.trace:
        events = repro_io.load_trace(args.trace)
        source = args.trace
    else:
        events = generate_trace(
            args.workload,
            args.horizon,
            seed=args.seed,
            num_tenants=args.tenants,
            num_resources=args.resources,
        )
        source = f"{args.workload} workload, seed {args.seed}"
    if args.save:
        repro_io.save_trace(events, args.save)
    broker = LeaseBroker(_schedule(args))
    stats = replay_trace(broker, events)
    print_table(
        ["metric", "value"],
        [
            ["events", stats.events],
            ["acquires", stats.acquires],
            ["renewals", stats.renewals],
            ["releases", stats.releases],
            ["no-op releases", stats.noop_releases],
            ["expirations", stats.expirations],
            ["ticks", stats.ticks],
            ["active grants", broker.num_active],
            ["leases bought", len(broker.leases)],
            ["total cost", broker.cost],
        ],
        title=f"broker replay: {source}, K={args.num_types}",
    )
    return 0


def cmd_engine_serve(args) -> int:
    import asyncio
    import sys

    from .errors import ModelError
    from .obs import MetricsRegistry, TraceSink
    from .serve import LeaseServer

    if not args.socket and args.port is None:
        print("error: engine serve needs --socket and/or --port")
        return 2
    schedule = LeaseSchedule.power_of_two(
        args.num_types, cost_growth=args.cost_growth
    )
    # The operator-facing default is instrumented; the library default
    # stays off so embedded servers pay nothing unless asked.
    metrics = MetricsRegistry(enabled=args.metrics)
    trace = TraceSink(args.trace_jsonl)
    wal_kwargs = {}
    if args.wal_dir:
        wal_kwargs["wal_dir"] = args.wal_dir
        wal_kwargs["fsync"] = args.fsync
        if args.snapshot_every is not None:
            wal_kwargs["snapshot_every"] = args.snapshot_every

    async def _main(server: LeaseServer) -> None:
        where = []
        if args.socket:
            await server.start_unix(args.socket)
            where.append(f"unix:{args.socket}")
        if args.port is not None:
            port = await server.start_tcp(args.host, args.port)
            where.append(f"tcp:{args.host}:{port}")
        admin = None
        if args.admin_port is not None:
            from .admin import AdminPlane

            admin = AdminPlane(server)
            admin_port = await admin.start_tcp(args.admin_host, args.admin_port)
            where.append(f"admin http://{args.admin_host}:{admin_port}")
        extras = [f"metrics {'on' if args.metrics else 'off'}"]
        if args.wal_dir:
            extras.append(f"wal {args.wal_dir} (fsync={args.fsync})")
            if server.recovered_events:
                extras.append(f"recovered {server.recovered_events} events")
        if args.trace_jsonl:
            extras.append(f"trace {args.trace_jsonl}")
        print(
            f"repro.serve listening on {', '.join(where)} — "
            f"{args.resources} resources over {args.shards} shard broker(s), "
            f"K={args.num_types}, {', '.join(extras)}",
            flush=True,
        )
        try:
            await server.run_until_stopped()
        finally:
            if admin is not None:
                await admin.close()

    try:
        server = LeaseServer(
            schedule,
            num_resources=args.resources,
            num_shards=args.shards,
            record=args.record,
            idle_timeout=args.idle_timeout,
            metrics=metrics,
            trace=trace,
            **wal_kwargs,
        )
        asyncio.run(_main(server))
    except KeyboardInterrupt:
        pass
    except ModelError as exc:
        # A refused configuration, or WAL state that cannot be restored.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        trace.close()
    return 0


def cmd_engine_cluster(args) -> int:
    import asyncio
    from pathlib import Path

    from .cluster import (
        ClusterRouter,
        ClusterSpec,
        WorkerProcess,
        make_respawner,
        reap,
    )

    if not args.socket:
        print("error: engine cluster needs --socket")
        return 2
    spec = ClusterSpec(
        num_resources=args.resources,
        num_workers=args.workers,
        shards_per_worker=args.shards_per_worker,
        num_types=args.num_types,
        cost_growth=args.cost_growth,
        record=args.record,
        wal_root=args.wal_root,
        fsync=args.fsync,
        snapshot_every=args.snapshot_every,
        worker_metrics=args.worker_metrics,
        trace_root=args.trace_root,
        transport=args.worker_transport,
    )
    base = Path(args.socket)
    if spec.transport == "tcp":
        from .cluster import format_endpoint, free_tcp_port

        endpoints = [
            format_endpoint("tcp", "127.0.0.1", free_tcp_port())
            for _ in range(spec.num_workers)
        ]
    else:
        endpoints = [
            str(base.with_name(f"{base.name}.w{index}"))
            for index in range(spec.num_workers)
        ]
    workers = [
        WorkerProcess(index, spec, endpoints[index])
        for index in range(spec.num_workers)
    ]

    async def _main() -> None:
        from .obs import MetricsRegistry

        router = ClusterRouter(
            spec,
            metrics=MetricsRegistry(enabled=args.metrics),
            collect_worker_metrics=args.worker_metrics,
            # Durable fleets run supervised: a dead worker respawns with
            # its WAL directory and recovers instead of failing traffic.
            respawn=make_respawner(workers) if args.wal_root else None,
        )
        await router.connect_workers(
            [worker.endpoint for worker in workers],
            retry_for=args.connect_timeout,
            codec=args.codec,
        )
        await router.start_unix(args.socket)
        tcp_at = ""
        if args.port is not None:
            bound = await router.start_tcp(
                port=args.port, reuse_port=args.reuse_port
            )
            tcp_at = f" + tcp:127.0.0.1:{bound}"
            if args.reuse_port:
                tcp_at += " (SO_REUSEPORT)"
        admin = None
        admin_at = ""
        if args.admin_port is not None:
            from .admin import AdminPlane

            admin = AdminPlane(router)
            admin_port = await admin.start_tcp(args.admin_host, args.admin_port)
            admin_at = f", admin http://{args.admin_host}:{admin_port}"
        durability = (
            f"wal {args.wal_root} (fsync={args.fsync}, supervised)"
            if args.wal_root else "wal off"
        )
        metrics_stance = "on" if args.metrics else "off"
        if args.worker_metrics:
            metrics_stance += "+workers"
        print(
            f"repro.cluster listening on unix:{args.socket}{tcp_at} — "
            f"{spec.num_resources} resources over {spec.num_workers} "
            f"worker process(es) x {spec.shards_per_worker} shard(s), "
            f"K={spec.num_types}, worker codec={args.codec}, "
            f"{durability}, metrics {metrics_stance}{admin_at}",
            flush=True,
        )
        try:
            await router.run_until_stopped()
        finally:
            if admin is not None:
                await admin.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        reap(workers)
    return 0


def cmd_engine_chaos(args) -> int:
    import tempfile

    from .durable.chaos import (
        build_chaos_instance,
        default_kill_schedule,
        run_chaos,
    )

    explicit = []
    for item in args.kill or ():
        day, sep, worker = item.partition(":")
        if not sep or not day.isdigit() or not worker.isdigit():
            print(f"error: --kill wants DAY:WORKER, got {item!r}")
            return 2
        explicit.append((int(day), int(worker)))

    # Chaos state is throwaway by design — the WAL tree only needs to
    # outlive the kills inside this one run — so default to a temp dir.
    tmp = None
    wal_root = args.wal_root
    if wal_root is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        wal_root = tmp.name
    try:
        instance = build_chaos_instance(
            args.workload,
            args.horizon,
            args.seed,
            wal_root,
            num_resources=args.resources,
            tenants_per_resource=args.tenants_per_resource,
            num_workers=args.workers,
            shards_per_worker=args.shards_per_worker,
            fsync=args.fsync,
            snapshot_every=args.snapshot_every,
        )
        schedule = (
            tuple(explicit)
            if explicit
            else default_kill_schedule(instance, kills=args.kills)
        )
        outcome = run_chaos(
            instance, kill_schedule=schedule, retry_for=args.connect_timeout
        )
    finally:
        if tmp is not None:
            tmp.cleanup()

    def _fmt(kills) -> str:
        return (
            ", ".join(f"day {day} -> worker {w}" for day, w in kills)
            or "none"
        )

    print_table(
        ["metric", "value"],
        [
            ["workers", args.workers],
            ["fsync", outcome.fsync],
            ["scheduled kills", _fmt(outcome.scheduled)],
            ["executed kills", _fmt(outcome.executed)],
            ["respawns", outcome.respawns],
            ["requests sent", outcome.requests],
            ["leases bought", len(outcome.result.leases)],
            ["total cost", outcome.cost],
            [
                "report equals inline replay",
                "yes" if outcome.report_equal else "NO",
            ],
        ],
        title=(
            f"chaos: {args.workload} x{args.horizon}, seed {args.seed} — "
            f"SIGKILL {len(outcome.scheduled)} worker(s) mid-load"
        ),
    )
    if args.check and not outcome.ok:
        if not outcome.report_equal:
            print(
                "error: post-crash aggregate diverged from the inline replay"
            )
        else:
            print(
                "error: scheduled kill(s) never executed "
                "(victim already dead?)"
            )
        return 1
    return 0


def cmd_engine_metrics(args) -> int:
    import asyncio
    import json
    import sys

    from .obs import parse_exposition, validate_exposition
    from .serve import AsyncLeaseClient

    if not args.socket:
        print("error: engine metrics needs --socket", file=sys.stderr)
        return 2

    async def _scrape() -> str:
        client = await AsyncLeaseClient.open_unix(
            args.socket, retry_for=args.connect_timeout
        )
        try:
            return (await client.call("metrics"))["text"]
        finally:
            await client.close()

    text = asyncio.run(_scrape())
    if args.json:
        families = parse_exposition(text)
        print(
            json.dumps(
                {
                    name: {
                        "type": family.type,
                        "samples": [
                            [sample_name, labels, value]
                            for sample_name, labels, value in family.samples
                        ],
                    }
                    for name, family in sorted(families.items())
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(text, end="")
    if args.validate:
        failures = validate_exposition(text)
        if failures:
            for failure in failures:
                print(f"invalid exposition: {failure}", file=sys.stderr)
            return 1
        print(
            f"exposition valid: {len(parse_exposition(text))} families",
            file=sys.stderr,
        )
    return 0


def cmd_engine_trace_tree(args) -> int:
    import json
    import sys

    from .obs import (
        build_trace_trees,
        load_spans,
        render_trace_tree,
        trace_tree_payload,
    )

    try:
        spans = load_spans(args.files)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trees = build_trace_trees(spans)
    if args.trace:
        missing = [trace for trace in args.trace if trace not in trees]
        if missing:
            print(
                f"error: no spans for trace(s) {', '.join(missing)}",
                file=sys.stderr,
            )
            return 1
        trees = {trace: trees[trace] for trace in args.trace}
    if args.json:
        print(
            json.dumps(
                {
                    trace: trace_tree_payload(roots)
                    for trace, roots in trees.items()
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    if not trees:
        print(
            f"no trace-context spans in {len(spans)} span(s) from "
            f"{len(args.files)} file(s)"
        )
        return 0
    for trace in sorted(trees):
        print(render_trace_tree(trace, trees[trace]))
    return 0


def cmd_engine_flamegraph(args) -> int:
    import json
    import sys

    from .obs import render_collapsed

    try:
        if args.capture == "-":
            capture = json.load(sys.stdin)
        else:
            with open(args.capture, "r", encoding="utf-8") as handle:
                capture = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not isinstance(capture, dict) or "stacks" not in capture:
        print(
            "error: not a /profile capture (expected a JSON object with "
            "a 'stacks' field)",
            file=sys.stderr,
        )
        return 2
    text = render_collapsed(capture)
    print(text, end="")
    if not text:
        print(
            "no samples in capture (profiler idle or window too short)",
            file=sys.stderr,
        )
    return 0


def _tenant_latency_payload(registry) -> dict:
    """Machine-readable per-tenant latency percentiles (``--json``).

    Times are seconds, mirroring the histogram's own unit; ``count`` is
    the sampled op count.  Shape:
    ``{tenant: {count, p50, p95, p99}}`` sorted by tenant.
    """
    from .obs import latency_summary
    from .serve.loadgen import LOADGEN_LATENCY_METRIC

    summary = latency_summary(registry, LOADGEN_LATENCY_METRIC)
    return {
        tenant: {
            "count": int(row["count"]),
            "p50": row["p50"],
            "p95": row["p95"],
            "p99": row["p99"],
        }
        for tenant, row in sorted(summary.items())
    }


def _print_tenant_latencies(registry) -> None:
    """Per-tenant op-latency percentiles from the loadgen histograms.

    Printed only under ``--check``: the percentiles ride the same
    closed-loop drive as the equality judgement, but never enter the
    verified report fields — observation, not behaviour.
    """
    from .obs import latency_summary
    from .serve.loadgen import LOADGEN_LATENCY_METRIC

    summary = latency_summary(registry, LOADGEN_LATENCY_METRIC)
    if not summary:
        return
    print_table(
        ["tenant", "ops", "p50 ms", "p95 ms", "p99 ms"],
        [
            [
                tenant,
                int(row["count"]),
                f"{row['p50'] * 1e3:.3f}",
                f"{row['p95'] * 1e3:.3f}",
                f"{row['p99'] * 1e3:.3f}",
            ]
            for tenant, row in sorted(summary.items())
        ],
        title="per-tenant op latency (client side)",
    )


def cmd_engine_loadgen(args) -> int:
    import asyncio
    import json
    import sys

    from .obs import MetricsRegistry, TraceSink
    from .serve import ServeError
    from .serve.loadgen import (
        build_serve_instance,
        compare_with_inline,
        drive_tenants,
        merge_shard_payloads,
        run_serve_instance,
        serve_once,
    )

    # --check turns on client-side latency sampling so the verdict
    # table can carry per-tenant percentiles alongside the equality
    # judgement.
    latency = MetricsRegistry(enabled=args.check)
    client_trace = TraceSink(args.trace_jsonl)

    if args.cluster:
        # In-process cluster: spawn the worker fleet + router, drive the
        # tenants through it, and judge against the inline replay — the
        # cluster-* scenario loop as one command.
        from .cluster import (
            build_cluster_instance,
            cluster_once,
            run_cluster_instance,
        )

        cluster_instance = build_cluster_instance(
            args.workload,
            args.horizon,
            args.seed,
            num_resources=args.resources,
            tenants_per_resource=args.tenants_per_resource,
            num_types=args.num_types,
            cost_growth=args.cost_growth,
            num_workers=args.cluster,
            shards_per_worker=args.shards_per_worker,
            codec=args.codec,
        )
        report = cluster_once(
            cluster_instance,
            latency_registry=latency,
            client_trace=client_trace,
        )
        client_trace.close()
        served = run_cluster_instance(
            cluster_instance, args.seed, report=report
        )
        detail = served.detail["cluster"]
        equal = detail["report_equal"]
        stats = served.detail["broker_stats"]
        if args.json:
            print(
                json.dumps(
                    {
                        "workload": args.workload,
                        "horizon": args.horizon,
                        "seed": args.seed,
                        "source": (
                            f"in-process cluster ({args.cluster} workers)"
                        ),
                        "requests": detail["requests"],
                        "events": stats["events"],
                        "leases": len(served.leases),
                        "cost": served.cost,
                        "report_equal": equal,
                        "tenant_latency": _tenant_latency_payload(latency),
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print_table(
                ["metric", "value"],
                [
                    ["tenants", detail["tenants"]],
                    ["workers", detail["workers"]],
                    ["total shards", detail["total_shards"]],
                    ["codec", detail["codec"]],
                    ["requests sent", detail["requests"]],
                    ["events applied", stats["events"]],
                    ["leases bought", len(served.leases)],
                    ["total cost", served.cost],
                    ["report equals inline replay", "yes" if equal else "NO"],
                ],
                title=(
                    f"loadgen: {args.workload} x{args.horizon} against an "
                    f"in-process cluster ({args.cluster} workers), "
                    f"seed {args.seed}"
                ),
            )
            if args.check:
                _print_tenant_latencies(latency)
        if args.check and not equal:
            if not args.json:
                print(
                    "error: clustered aggregate diverged from the "
                    "inline replay"
                )
            return 1
        return 0

    instance = build_serve_instance(
        args.workload,
        args.horizon,
        args.seed,
        num_resources=args.resources,
        tenants_per_resource=args.tenants_per_resource,
        num_types=args.num_types,
        cost_growth=args.cost_growth,
        num_shards=args.shards,
    )
    if args.socket:
        # Drive an already-running server; its config must match the
        # instance or the equality check would be comparing apples to a
        # different fruit's brokers.
        from .serve import AsyncLeaseClient

        async def _external() -> dict:
            client = await AsyncLeaseClient.open_unix(
                args.socket, retry_for=args.connect_timeout
            )
            try:
                hello = await client.hello()
                schedule = instance.trace.schedule
                mismatches = [
                    f"{field}: server has {got}, loadgen wants {want}"
                    for field, got, want in (
                        ("num_resources", hello["num_resources"], args.resources),
                        ("num_shards", hello["num_shards"], args.shards),
                        (
                            "num_types",
                            hello["schedule"]["num_types"],
                            args.num_types,
                        ),
                        (
                            "schedule lengths",
                            hello["schedule"]["lengths"],
                            [t.length for t in schedule],
                        ),
                        (
                            "schedule costs",
                            hello["schedule"]["costs"],
                            [t.cost for t in schedule],
                        ),
                    )
                    if got != want
                ]
                if mismatches:
                    raise ServeError("protocol", "; ".join(mismatches))
                report = await drive_tenants(
                    instance, args.socket, retry_for=args.connect_timeout,
                    codec=args.codec, latency_registry=latency,
                    client_trace=client_trace,
                )
                if args.shutdown:
                    await client.shutdown()
                return report
            finally:
                await client.close()

        try:
            report = asyncio.run(_external())
        except ServeError as exc:
            print(f"error: {exc.message}", file=sys.stderr)
            return 2
        client_trace.close()
        served = merge_shard_payloads(report["shards"])
        _, equal = compare_with_inline(instance, served, args.seed)
        requests = report["requests"]
        source = f"unix:{args.socket}"
    else:
        report = serve_once(
            instance, latency_registry=latency, client_trace=client_trace
        )
        client_trace.close()
        served = run_serve_instance(instance, args.seed, report=report)
        equal = served.detail["serve"]["report_equal"]
        requests = served.detail["serve"]["requests"]
        source = "in-process server"
    stats = served.detail["broker_stats"]
    if args.json:
        print(
            json.dumps(
                {
                    "workload": args.workload,
                    "horizon": args.horizon,
                    "seed": args.seed,
                    "source": source,
                    "requests": requests,
                    "events": stats["events"],
                    "leases": len(served.leases),
                    "cost": served.cost,
                    "report_equal": equal,
                    "tenant_latency": _tenant_latency_payload(latency),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print_table(
            ["metric", "value"],
            [
                ["tenants", len(instance.tenants)],
                ["shards", instance.num_shards],
                ["requests sent", requests],
                ["events applied", stats["events"]],
                ["acquires", stats["acquires"]],
                ["renewals", stats["renewals"]],
                ["releases", stats["releases"]],
                ["leases bought", len(served.leases)],
                ["total cost", served.cost],
                ["report equals inline replay", "yes" if equal else "NO"],
            ],
            title=(
                f"loadgen: {args.workload} x{args.horizon} against {source}, "
                f"seed {args.seed}"
            ),
        )
        if args.check:
            _print_tenant_latencies(latency)
    if args.check and not equal:
        if not args.json:
            print("error: served aggregate diverged from the inline replay")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--num-types", type=int, default=4,
                        help="number of lease types K")
    common.add_argument("--cost-growth", type=float, default=1.7,
                        help="cost multiplier per length doubling")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Online Resource Leasing reproduction — demo runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    parking = sub.add_parser(
        "parking", help="parking permit (Ch. 2)", parents=[common]
    )
    parking.add_argument("--horizon", type=int, default=200)
    parking.set_defaults(func=cmd_parking)

    setcover = sub.add_parser(
        "setcover", help="set multicover leasing (Ch. 3)", parents=[common]
    )
    setcover.add_argument("--elements", type=int, default=20)
    setcover.add_argument("--sets", type=int, default=10)
    setcover.add_argument("--demands", type=int, default=30)
    setcover.add_argument("--horizon", type=int, default=40)
    setcover.set_defaults(func=cmd_setcover)

    facility = sub.add_parser(
        "facility", help="facility leasing (Ch. 4)", parents=[common]
    )
    facility.add_argument("--facilities", type=int, default=4)
    facility.add_argument("--steps", type=int, default=8)
    facility.add_argument("--per-step", type=int, default=2)
    facility.set_defaults(func=cmd_facility)

    old = sub.add_parser(
        "old", help="leasing with deadlines (Ch. 5)", parents=[common]
    )
    old.add_argument("--horizon", type=int, default=120)
    old.add_argument("--max-slack", type=int, default=6)
    old.set_defaults(func=cmd_old)

    engine = sub.add_parser(
        "engine", help="lease-broker service and scenario-replay engine"
    )
    engine_sub = engine.add_subparsers(dest="engine_command", required=True)

    engine_list = engine_sub.add_parser(
        "list", help="print the scenario registry"
    )
    engine_list.add_argument(
        "--family", action="append", default=None,
        help="only list scenarios of this family (repeatable), "
        "e.g. --family setcover --family forecast",
    )
    engine_list.set_defaults(func=cmd_engine_list)

    engine_run = engine_sub.add_parser(
        "run", help="replay scenarios and print the aggregate ratio table"
    )
    engine_run.add_argument(
        "--scenario", action="append", default=None,
        help="scenario name, repeatable; 'all' replays the whole registry",
    )
    engine_run.add_argument(
        "--family", action="append", default=None,
        help="replay every scenario of a family (repeatable), "
        "e.g. --family deadlines",
    )
    engine_run.add_argument("--seed", type=int, default=0)
    engine_run.add_argument("--workers", type=int, default=1,
                            help="process-pool size (1 = inline)")
    engine_run.add_argument(
        "--shards", type=int, default=1,
        help="split each scenario into N intra-scenario shards "
        "(scenario must be shardable, e.g. the broker-* family)",
    )
    engine_run.add_argument(
        "--transport", default="auto",
        choices=("auto", "packed", "shm", "object"),
        help="how lease bulk returns from pool workers (default: auto — "
        "packed columns, shared memory for large results)",
    )
    engine_run.set_defaults(func=cmd_engine_run)

    engine_serve = engine_sub.add_parser(
        "serve",
        help="serve the lease broker over TCP / unix sockets (repro.serve)",
    )
    engine_serve.add_argument(
        "--socket", default=None, help="unix-socket path to listen on"
    )
    engine_serve.add_argument("--host", default="127.0.0.1")
    engine_serve.add_argument(
        "--port", type=int, default=None,
        help="TCP port to listen on (0 = ephemeral)",
    )
    engine_serve.add_argument("--resources", type=int, default=8,
                              help="resource id space [0, N)")
    engine_serve.add_argument(
        "--shards", type=int, default=4,
        help="shard brokers (each applies its frames in read order on the "
        "one event loop, with its own WAL under --wal-dir)",
    )
    engine_serve.add_argument("--num-types", type=int, default=4)
    engine_serve.add_argument(
        "--cost-growth", type=float, default=2.0,
        help="cost multiplier per length doubling (2.0 = exact float sums)",
    )
    engine_serve.add_argument(
        "--record", action=argparse.BooleanOptionalAction, default=True,
        help="keep per-shard applied-event logs for the trace op",
    )
    engine_serve.add_argument("--idle-timeout", type=float, default=60.0,
                              help="seconds before idle sessions are reaped")
    engine_serve.add_argument(
        "--metrics", action=argparse.BooleanOptionalAction, default=True,
        help="sample per-op latency histograms and wire counters, served "
        "back by the 'metrics' protocol verb (engine metrics scrapes it)",
    )
    engine_serve.add_argument(
        "--trace-jsonl", default=None, metavar="PATH",
        help="append one JSONL span per dispatched request "
        "(id, tenant, resource, op, enqueue/dispatch/reply timestamps)",
    )
    engine_serve.add_argument(
        "--wal-dir", default=None, metavar="PATH",
        help="per-shard write-ahead-log directory; a restart against the "
        "same directory recovers the broker byte-identically before "
        "accepting traffic",
    )
    engine_serve.add_argument(
        "--fsync", default="batch", choices=("off", "batch", "always"),
        help="WAL fsync policy, applied once per read chunk before its "
        "replies; only 'always' makes acked ops survive power loss "
        "(every mode survives kill -9)",
    )
    engine_serve.add_argument(
        "--snapshot-every", type=int, default=None, metavar="N",
        help="appended events between periodic broker snapshots "
        "(snapshots truncate the WAL tail)",
    )
    engine_serve.add_argument(
        "--admin-host", default="127.0.0.1",
        help="bind host for the HTTP admin plane",
    )
    engine_serve.add_argument(
        "--admin-port", type=int, default=None, metavar="PORT",
        help="mount the repro.admin HTTP ops plane beside the lease "
        "listener (0 = ephemeral): GET /metrics /metrics/history "
        "/healthz /readyz /leases /trace/{id} /profile, "
        "POST /leases/{id}/force-release, "
        "POST /workers/{n}/drain|undrain",
    )
    engine_serve.set_defaults(func=cmd_engine_serve)

    engine_cluster = engine_sub.add_parser(
        "cluster",
        help="serve the broker from N worker processes behind a shard "
        "router (repro.cluster)",
    )
    engine_cluster.add_argument(
        "--socket", default=None,
        help="router unix-socket path; worker sockets get .wN suffixes",
    )
    engine_cluster.add_argument("--workers", type=int, default=2,
                                help="lease-server worker processes")
    engine_cluster.add_argument("--shards-per-worker", type=int, default=2,
                                help="broker sub-shards inside each worker")
    engine_cluster.add_argument(
        "--worker-transport", default="unix", choices=("unix", "tcp"),
        help="what the workers listen on: unix socket files next to the "
        "router's (.wN suffixes) or pre-allocated loopback TCP ports — "
        "the endpoints the route handshake hands to direct clients",
    )
    engine_cluster.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="also accept tenants on TCP at this port (0 = ephemeral) "
        "beside the unix socket",
    )
    engine_cluster.add_argument(
        "--reuse-port", action="store_true",
        help="bind the TCP listener with SO_REUSEPORT so several router "
        "replicas can share one control-plane port",
    )
    engine_cluster.add_argument("--resources", type=int, default=8,
                                help="resource id space [0, N)")
    engine_cluster.add_argument("--num-types", type=int, default=4)
    engine_cluster.add_argument(
        "--cost-growth", type=float, default=2.0,
        help="cost multiplier per length doubling (2.0 = exact float sums)",
    )
    engine_cluster.add_argument(
        "--record", action=argparse.BooleanOptionalAction, default=True,
        help="workers keep applied-event logs for the trace op",
    )
    engine_cluster.add_argument(
        "--codec", default="bin", choices=("json", "bin"),
        help="wire codec on the router->worker links (negotiated at hello)",
    )
    engine_cluster.add_argument("--connect-timeout", type=float, default=15.0)
    engine_cluster.add_argument(
        "--metrics", action=argparse.BooleanOptionalAction, default=True,
        help="sample per-link call latency and in-flight gauges on the "
        "router, served back by the 'metrics' protocol verb",
    )
    engine_cluster.add_argument(
        "--wal-root", default=None, metavar="PATH",
        help="directory for per-worker WAL trees "
        "(PATH/worker-N/shard-M); also turns on supervision: a dead "
        "worker is respawned against its WAL and recovers in place",
    )
    engine_cluster.add_argument(
        "--fsync", default="batch", choices=("off", "batch", "always"),
        help="worker WAL fsync policy; only 'always' makes acked ops "
        "survive power loss (every mode survives kill -9)",
    )
    engine_cluster.add_argument(
        "--snapshot-every", type=int, default=None, metavar="N",
        help="appended events between periodic broker snapshots inside "
        "each worker",
    )
    engine_cluster.add_argument(
        "--worker-metrics", action=argparse.BooleanOptionalAction,
        default=False,
        help="run every worker with its own live metrics registry and "
        "fold each worker's scrape into the router's 'metrics' verb, "
        "relabeled worker=\"N\"",
    )
    engine_cluster.add_argument(
        "--trace-root", default=None, metavar="DIR",
        help="directory for per-worker dispatch-span JSONL files "
        "(DIR/worker-N.jsonl); merge them with the client's file via "
        "engine trace-tree",
    )
    engine_cluster.add_argument(
        "--admin-host", default="127.0.0.1",
        help="bind host for the HTTP admin plane",
    )
    engine_cluster.add_argument(
        "--admin-port", type=int, default=None, metavar="PORT",
        help="mount the repro.admin HTTP ops plane on the router "
        "(0 = ephemeral); /leases and force-release span the whole "
        "fleet, /trace/{id} federates live spans from every worker, "
        "/workers/{n}/drain|undrain round-trip to worker n",
    )
    engine_cluster.set_defaults(func=cmd_engine_cluster)

    engine_chaos = engine_sub.add_parser(
        "chaos",
        help="SIGKILL workers in a WAL'd cluster mid-loadgen and check "
        "the post-crash aggregate against the inline replay",
    )
    engine_chaos.add_argument("--workload", default="markov")
    engine_chaos.add_argument("--horizon", type=int, default=192)
    engine_chaos.add_argument("--seed", type=int, default=0)
    engine_chaos.add_argument("--resources", type=int, default=8)
    engine_chaos.add_argument("--tenants-per-resource", type=int, default=2)
    engine_chaos.add_argument("--workers", type=int, default=2,
                              help="lease-server worker processes")
    engine_chaos.add_argument("--shards-per-worker", type=int, default=2,
                              help="broker sub-shards inside each worker")
    engine_chaos.add_argument(
        "--fsync", default="always", choices=("off", "batch", "always"),
        help="worker WAL fsync policy; anything weaker than 'always' is "
        "expected to fail the check when a kill lands in an unsynced batch",
    )
    engine_chaos.add_argument(
        "--snapshot-every", type=int, default=None, metavar="N",
        help="appended events between periodic broker snapshots",
    )
    engine_chaos.add_argument(
        "--wal-root", default=None, metavar="PATH",
        help="WAL tree for the fleet (default: a temp dir, removed after)",
    )
    engine_chaos.add_argument(
        "--kills", type=int, default=2,
        help="deterministic kill count, spread evenly through the horizon "
        "round-robin over workers",
    )
    engine_chaos.add_argument(
        "--kill", action="append", metavar="DAY:WORKER",
        help="explicit kill point (repeatable); overrides --kills",
    )
    engine_chaos.add_argument("--connect-timeout", type=float, default=60.0)
    engine_chaos.add_argument(
        "--check", action="store_true",
        help="exit 1 unless every kill executed and the post-crash "
        "aggregate equals the inline replay byte for byte",
    )
    engine_chaos.set_defaults(func=cmd_engine_chaos)

    engine_metrics = engine_sub.add_parser(
        "metrics",
        help="scrape a running server or router's Prometheus exposition "
        "over the 'metrics' protocol verb",
    )
    engine_metrics.add_argument(
        "--socket", default=None,
        help="unix socket of a running engine serve / engine cluster",
    )
    engine_metrics.add_argument("--connect-timeout", type=float, default=10.0)
    engine_metrics.add_argument(
        "--validate", action="store_true",
        help="run the exposition through the structural validator; "
        "exit 1 on any failure",
    )
    engine_metrics.add_argument(
        "--json", action="store_true",
        help="print the parsed exposition as JSON instead of text format",
    )
    engine_metrics.set_defaults(func=cmd_engine_metrics)

    engine_trace_tree = engine_sub.add_parser(
        "trace-tree",
        help="merge span JSONL files (client + server or workers) and "
        "print one causal tree per traced op",
    )
    engine_trace_tree.add_argument(
        "files", nargs="+", metavar="SPANS.jsonl",
        help="span files to merge, in any order",
    )
    engine_trace_tree.add_argument(
        "--trace", action="append", default=None, metavar="ID",
        help="only this trace id (repeatable); exit 1 if absent",
    )
    engine_trace_tree.add_argument(
        "--json", action="store_true",
        help="print the nested span trees as JSON instead of text",
    )
    engine_trace_tree.set_defaults(func=cmd_engine_trace_tree)

    engine_flamegraph = engine_sub.add_parser(
        "flamegraph",
        help="render a GET /profile JSON capture as collapsed-stack "
        "text (one 'stack count' line per distinct stack)",
    )
    engine_flamegraph.add_argument(
        "capture", metavar="CAPTURE.json",
        help="profile capture file from GET /profile ('-' = stdin)",
    )
    engine_flamegraph.set_defaults(func=cmd_engine_flamegraph)

    engine_loadgen = engine_sub.add_parser(
        "loadgen",
        help="drive closed-loop tenants against a lease server and "
        "check the served aggregate against an inline replay",
    )
    engine_loadgen.add_argument(
        "--socket", default=None,
        help="unix socket of a running server (default: in-process server)",
    )
    engine_loadgen.add_argument("--workload", default="markov")
    engine_loadgen.add_argument("--horizon", type=int, default=192)
    engine_loadgen.add_argument("--seed", type=int, default=0)
    engine_loadgen.add_argument("--resources", type=int, default=8)
    engine_loadgen.add_argument("--tenants-per-resource", type=int, default=2)
    engine_loadgen.add_argument("--shards", type=int, default=4,
                                help="must match the server's shard count")
    engine_loadgen.add_argument("--num-types", type=int, default=4)
    engine_loadgen.add_argument(
        "--cost-growth", type=float, default=2.0,
        help="must match the server's schedule (2.0 = exact float sums)",
    )
    engine_loadgen.add_argument("--connect-timeout", type=float, default=10.0)
    engine_loadgen.add_argument(
        "--cluster", type=int, default=0, metavar="WORKERS",
        help="drive an in-process cluster of N worker processes instead "
        "of a single in-process server (0 = off)",
    )
    engine_loadgen.add_argument(
        "--shards-per-worker", type=int, default=2,
        help="broker sub-shards per worker when --cluster is used",
    )
    engine_loadgen.add_argument(
        "--codec", default="bin", choices=("json", "bin"),
        help="wire codec to negotiate on tenant connections",
    )
    engine_loadgen.add_argument(
        "--check", action="store_true",
        help="exit 1 unless the served aggregate equals the inline replay",
    )
    engine_loadgen.add_argument(
        "--json", action="store_true",
        help="print the verdict and per-tenant p50/p95/p99 latency "
        "summary as one JSON object instead of tables (latency needs "
        "--check, which turns sampling on)",
    )
    engine_loadgen.add_argument(
        "--shutdown", action="store_true",
        help="send a shutdown op to the external server when done",
    )
    engine_loadgen.add_argument(
        "--trace-jsonl", default=None, metavar="PATH",
        help="write client-originated trace-context spans (one JSON "
        "object per op) to PATH; pair with the server or worker span "
        "files and `engine trace-tree`",
    )
    engine_loadgen.set_defaults(func=cmd_engine_loadgen)

    engine_replay = engine_sub.add_parser(
        "replay", help="drive the lease broker from an event trace",
        parents=[common],
    )
    engine_replay.add_argument(
        "--trace", default=None, help="JSONL trace file to replay"
    )
    engine_replay.add_argument(
        "--workload", default="markov",
        help="workload shape to generate when no --trace is given",
    )
    engine_replay.add_argument("--horizon", type=int, default=400)
    engine_replay.add_argument("--tenants", type=int, default=3)
    engine_replay.add_argument("--resources", type=int, default=4)
    engine_replay.add_argument(
        "--save", default=None, help="write the replayed trace as JSONL"
    )
    engine_replay.set_defaults(func=cmd_engine_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
