"""repro.cluster — multi-process lease serving behind one router.

The scale-out layer the ROADMAP's serving milestone points at: PR 3's
single-process :class:`~repro.serve.server.LeaseServer` multiplied
across worker *processes*, fronted by a control-plane router that hands
clients the fleet's placement (the ``route`` handshake) so they send
mutations straight to the owning worker — while the clustered
aggregate stays provably byte-identical to an inline replay of the
merged trace.

* :mod:`repro.cluster.spec` — :class:`ClusterSpec`: how the resource
  space tiles into global shards and contiguous per-worker shard
  groups (the engine's :func:`~repro.engine.scenarios.shard_ranges`,
  reused verbatim).
* :mod:`repro.cluster.router` — :class:`ClusterRouter`: the route
  table and routing epoch, the tick broadcast, coalesced
  (``writelines``-batched) worker links speaking the negotiated binary
  codec, supervised respawn, and cluster-wide drain/shutdown/stats/
  report/trace barriers whose merged payloads reproduce a single
  server's.
* :mod:`repro.cluster.procs` — workers as real ``python -m repro engine
  serve`` subprocesses, on unix sockets or pre-allocated loopback TCP
  ports.
* :mod:`repro.cluster.liveness` — :class:`WorkerLiveness`: the
  clock-driven up/suspect/dead machine behind the router's fleet-health
  view, fed by beats off every worker-link frame.
* :mod:`repro.cluster.loadgen` — the ``cluster-*`` scenario half:
  closed-loop tenants against a live fleet, aggregate checked
  byte-identical against the inline replay; powers ``engine cluster``
  and ``engine loadgen --cluster``.
"""

from .liveness import (
    LIVE_DEAD,
    LIVE_SUSPECT,
    LIVE_UP,
    WorkerLiveness,
)
from .loadgen import (
    ClusterInstance,
    build_cluster_instance,
    cluster_once,
    run_cluster_instance,
    verify_cluster,
)
from .procs import (
    WorkerProcess,
    free_tcp_port,
    make_respawner,
    reap,
    spawn_workers,
    worker_command,
)
from .router import ClusterRouter
from .spec import (
    TRANSPORTS,
    ClusterSpec,
    format_endpoint,
)

__all__ = [
    "LIVE_DEAD",
    "LIVE_SUSPECT",
    "LIVE_UP",
    "TRANSPORTS",
    "ClusterInstance",
    "ClusterRouter",
    "ClusterSpec",
    "WorkerLiveness",
    "WorkerProcess",
    "build_cluster_instance",
    "cluster_once",
    "format_endpoint",
    "free_tcp_port",
    "make_respawner",
    "reap",
    "run_cluster_instance",
    "spawn_workers",
    "verify_cluster",
    "worker_command",
]
