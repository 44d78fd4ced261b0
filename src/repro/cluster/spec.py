"""Cluster topology: how resources map onto worker processes.

A cluster is ``num_workers`` :class:`~repro.serve.server.LeaseServer`
processes behind one :class:`~repro.cluster.router.ClusterRouter`.  The
resource space is tiled by the engine's :func:`shard_ranges` into
``num_workers * shards_per_worker`` contiguous *global shards* — the
same partition an intra-scenario sharded replay uses — and worker ``w``
owns the contiguous *shard group* ``[w * shards_per_worker, (w + 1) *
shards_per_worker)``.  Every worker process is configured with the full
global tiling (``num_resources`` resources over ``total_shards``
sub-shards), so the shard a resource lands in is the same number on
every box; the router simply never sends a worker traffic outside its
group.  That choice is what makes the clustered aggregate mergeable by
:func:`~repro.engine.scenarios.merge_broker_runs` with zero id
translation: concatenating each worker's *own* shard-group payloads in
worker order reproduces the global shard list of a single server — and
hence, merged, the inline replay — byte for byte.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

from pathlib import Path

from ..core.lease import LeaseSchedule
from ..engine.scenarios import shard_ranges
from ..errors import ModelError

#: Worker transports a cluster can run its data plane over.
TRANSPORTS: tuple[str, ...] = ("unix", "tcp")


def format_endpoint(kind: str, *address) -> str:
    """Render a worker endpoint string: ``unix:<path>`` / ``tcp:<host>:<port>``.

    The inverse of :func:`~repro.serve.client.parse_worker_endpoint`,
    the one endpoint grammar both layers parse with.
    """
    if kind == "unix":
        (path,) = address
        return f"unix:{path}"
    if kind == "tcp":
        host, port = address
        return f"tcp:{host}:{int(port)}"
    raise ModelError(f"unknown endpoint kind {kind!r}; known: {TRANSPORTS}")


@dataclass(frozen=True)
class ClusterSpec:
    """One cluster's full shape: resources, workers, shards, schedule.

    Attributes:
        num_resources: size of the resource id space ``[0, N)``.
        num_workers: lease-server worker processes.
        shards_per_worker: broker sub-shards inside each worker.
        num_types: lease types K of every broker's schedule.
        cost_growth: schedule cost multiplier (2.0 = exact float sums,
            which the byte-identity gates rely on).
        record: workers keep applied-event logs for the ``trace`` op.
        wal_root: directory under which each worker keeps its per-shard
            write-ahead logs (``wal_root/worker-<i>/shard-<j>/``);
            ``None`` runs the fleet without durability.  A WAL'd fleet
            should also set ``record=True`` — the applied-event log is
            what lets a recovered worker deduplicate the router's
            retried in-flight ops, the exactly-once half of recovery.
        fsync: WAL fsync policy for every worker (``off`` / ``batch`` /
            ``always``); only ``always`` makes acked ops survive power
            loss.
        snapshot_every: appended events between periodic broker
            snapshots inside each worker; ``None`` keeps the server
            default.
        worker_metrics: run every worker with its live metrics registry
            enabled (per-op latency histograms, byte counters, WAL
            instrumentation).  The router's ``metrics`` verb can then
            fold each worker's own scrape into the fleet exposition,
            relabeled ``worker="N"``.  Off by default: per-request
            sampling inside workers costs hot-path time for metrics
            nothing scrapes unless asked for.
        trace_root: directory under which each worker writes its JSONL
            span file (``trace_root/worker-<i>.jsonl``); ``None`` runs
            the fleet untraced.  With tracing on, a worker emits one
            dispatch span per op — trace-context-linked when the frame
            carried one — and ``engine trace-tree`` can merge the
            fleet's files into causal trees.
        transport: what the workers listen on — ``unix`` (socket files
            next to the router's) or ``tcp`` (loopback ports, the
            remote-host shape).  Routing is transport-blind; the choice
            only decides the endpoint strings the ``route`` handshake
            hands to direct clients.
    """

    num_resources: int
    num_workers: int
    shards_per_worker: int = 1
    num_types: int = 4
    cost_growth: float = 2.0
    record: bool = False
    wal_root: str | None = None
    fsync: str = "batch"
    snapshot_every: int | None = None
    worker_metrics: bool = False
    trace_root: str | None = None
    transport: str = "unix"

    def __post_init__(self) -> None:
        if self.transport not in TRANSPORTS:
            raise ModelError(
                f"unknown transport {self.transport!r}; known: {TRANSPORTS}"
            )
        if self.num_resources < 1:
            raise ModelError("num_resources must be >= 1")
        if self.num_workers < 1:
            raise ModelError("num_workers must be >= 1")
        if self.shards_per_worker < 1:
            raise ModelError("shards_per_worker must be >= 1")
        if self.total_shards > self.num_resources:
            raise ModelError(
                f"total shards ({self.total_shards}) cannot exceed "
                f"num_resources ({self.num_resources})"
            )
        # Imported lazily: repro.durable.wal reaches back into
        # repro.serve at import time, and loading it from this module's
        # top level would close an import cycle through serve.server.
        from ..durable.wal import require_fsync_mode

        require_fsync_mode(self.fsync)
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ModelError("snapshot_every must be >= 1")

    def worker_wal_dir(self, worker: int) -> str | None:
        """Worker ``worker``'s WAL directory, or ``None`` when WAL is off."""
        if self.wal_root is None:
            return None
        return str(Path(self.wal_root) / f"worker-{worker}")

    def worker_trace_path(self, worker: int) -> str | None:
        """Worker ``worker``'s span file, or ``None`` when tracing is off."""
        if self.trace_root is None:
            return None
        return str(Path(self.trace_root) / f"worker-{worker}.jsonl")

    @property
    def total_shards(self) -> int:
        """Global shard count: ``num_workers * shards_per_worker``."""
        return self.num_workers * self.shards_per_worker

    @cached_property
    def ranges(self) -> tuple[tuple[int, int], ...]:
        """The global shard tiling — the engine's partition, verbatim."""
        return shard_ranges(self.num_resources, self.total_shards)

    @cached_property
    def worker_ranges(self) -> tuple[tuple[int, int], ...]:
        """Per-worker resource ranges: each group's first lo to last hi."""
        spw = self.shards_per_worker
        return tuple(
            (self.ranges[w * spw][0], self.ranges[(w + 1) * spw - 1][1])
            for w in range(self.num_workers)
        )

    @cached_property
    def _worker_los(self) -> list[int]:
        return [lo for lo, _ in self.worker_ranges]

    def worker_of(self, resource: int) -> int:
        """The worker whose shard group owns ``resource``."""
        if not 0 <= resource < self.num_resources:
            raise ModelError(
                f"resource {resource} outside [0, {self.num_resources})"
            )
        return bisect.bisect_right(self._worker_los, resource) - 1

    def group(self, worker: int) -> tuple[int, int]:
        """The half-open global-shard index range worker ``worker`` owns."""
        if not 0 <= worker < self.num_workers:
            raise ModelError(
                f"worker {worker} outside [0, {self.num_workers})"
            )
        return (
            worker * self.shards_per_worker,
            (worker + 1) * self.shards_per_worker,
        )

    def route_workers(self, endpoints) -> list[dict]:
        """The data-plane half of a ``route`` reply: one row per worker.

        Each row pairs a worker's contiguous resource range (derived
        from the global shard tiling, so it is exactly what
        :meth:`worker_of` would answer) with the endpoint a direct
        client should dial.  The router decorates these rows with
        per-worker epochs and liveness before answering.
        """
        if len(endpoints) != self.num_workers:
            raise ModelError(
                f"spec wants {self.num_workers} endpoints, "
                f"got {len(endpoints)}"
            )
        return [
            {
                "index": w,
                "range": list(self.worker_ranges[w]),
                "endpoint": endpoints[w],
            }
            for w in range(self.num_workers)
        ]

    def schedule(self) -> LeaseSchedule:
        """The lease schedule every worker broker is built from."""
        return LeaseSchedule.power_of_two(
            self.num_types, cost_growth=self.cost_growth
        )
