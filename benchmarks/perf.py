#!/usr/bin/env python
"""Perf-trajectory CLI: run the offline broker benchmarks, persist, gate.

Thin front end over :mod:`repro.engine.perf`.  Typical uses::

    # CI gate: run smoke-sized benchmarks, fail on >30% regression
    PYTHONPATH=src python benchmarks/perf.py --mode smoke --check

    # Refresh the committed trajectory after an intentional perf change
    PYTHONPATH=src python benchmarks/perf.py --mode full --write

    # Dump fresh records (e.g. for a CI artifact) without touching
    # the committed files
    PYTHONPATH=src python benchmarks/perf.py --mode smoke --out perf-results

The committed ``benchmarks/BENCH_p01_broker.json`` and
``benchmarks/BENCH_p02_runner.json`` carry a frozen ``baseline`` block
(the pre-optimization reference) plus per-mode current numbers; see
EXPERIMENTS.md for the schema and refresh policy.  Serving speed is
judged by ``leasebench/run.py`` (see ``BENCHMARK.json``), not here.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine import perf  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="broker perf trajectory: measure, persist, gate"
    )
    parser.add_argument(
        "--bench", action="append", choices=perf.BENCH_NAMES, default=None,
        help="benchmark to run, repeatable (default: all)",
    )
    parser.add_argument(
        "--mode", choices=perf.MODES, default="smoke",
        help="workload size (full = committed trajectory, smoke = CI)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against committed BENCH_*.json; exit 1 on regression",
    )
    parser.add_argument(
        "--write", action="store_true",
        help="fold the fresh numbers into the committed BENCH_*.json",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="also dump each fresh record to DIR/<bench>.<mode>.json",
    )
    parser.add_argument(
        "--tolerance", type=float, default=perf.DEFAULT_TOLERANCE,
        help="relative regression tolerance for --check (default 0.30)",
    )
    args = parser.parse_args(argv)

    benches = args.bench or list(perf.BENCH_NAMES)
    failures: list[str] = []
    for bench in benches:
        record = perf.measure(bench, args.mode)
        metrics = record["metrics"]
        line = f"{bench}[{args.mode}]: {metrics['events']:,} events"
        if "events_per_sec" in metrics:
            line += f", {metrics['events_per_sec']:,} events/sec"
        if "shard_speedup" in metrics:
            line += (
                f", shard speedup {metrics['shard_speedup']}x "
                f"({record['env']['cpus']} cpus), "
                f"byte-identical={metrics['byte_identical']}"
            )
        print(line)
        committed_path = REPO_ROOT / perf.BENCH_FILES[bench]
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            perf.dump_json(record, out_dir / f"{bench}.{args.mode}.json")
        if args.check:
            committed = perf.load_committed(committed_path)
            failures.extend(perf.check(committed, record, args.tolerance))
        if args.write:
            if committed_path.exists():
                committed = perf.load_committed(committed_path)
            else:
                committed = {"schema": perf.SCHEMA, "bench": bench}
            perf.dump_json(
                perf.update_committed(committed, record), committed_path
            )
            print(f"  wrote {committed_path.relative_to(REPO_ROOT)}")
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
