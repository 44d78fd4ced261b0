"""Worker process management: every worker is a real ``engine serve``.

Workers are spawned as plain subprocesses running the CLI the README
documents — ``python -m repro engine serve --socket ... --shards
<total>`` — rather than :mod:`multiprocessing` children.  That buys
three things: the cluster exercises the exact process an operator would
run by hand, workers survive being spawned from daemonic pool workers
(``subprocess`` has no such restriction, so ``cluster-*`` scenarios can
ride the replay runner), and worker death is an observable fact
(``poll``) instead of a shared-state mystery.

The parent's ``repro`` package directory is prepended to the child's
``PYTHONPATH``, so workers import the same code under test regardless of
how the parent was launched.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
from pathlib import Path

from ..errors import ModelError
from ..serve.client import parse_worker_endpoint
from .spec import ClusterSpec, format_endpoint


def free_tcp_port(host: str = "127.0.0.1") -> int:
    """A currently-free loopback TCP port, allocated by the kernel.

    The port is chosen up front (bind ephemeral, read it back, close)
    rather than parsed out of the worker's banner, so the endpoint is
    known *before* the process exists — which is what lets a respawned
    worker come back on the same endpoint its clients already hold.
    ``SO_REUSEADDR`` on the worker side makes the rebind race-free in
    practice for a port this process just released.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((host, 0))
        return probe.getsockname()[1]


def worker_command(
    spec: ClusterSpec,
    endpoint: str,
    wal_dir: str | None = None,
    trace_path: str | None = None,
) -> list[str]:
    """The exact ``engine serve`` argv one worker runs.

    The single builder every spawn and respawn goes through — the spec's
    serving shape, the durability flags, and the instrumentation stance
    are encoded here once, so a respawned worker is guaranteed to come
    back with the exact configuration it died with.

    The instrumentation stance follows the spec: by default workers stay
    uninstrumented — the fleet's observability lives at the router plus
    the worker stats folded in at scrape time, so per-request sampling
    inside workers would cost hot-path time for metrics nothing scrapes
    — but ``spec.worker_metrics`` turns on each worker's live registry
    so the router can fold the workers' own scrapes into the fleet
    exposition.
    """
    kind, address = parse_worker_endpoint(str(endpoint))
    if kind == "unix":
        listen = ["--socket", address[0]]
    else:
        listen = ["--host", address[0], "--port", str(address[1])]
    argv = [
        sys.executable, "-m", "repro", "engine", "serve",
        *listen,
        "--resources", str(spec.num_resources),
        "--shards", str(spec.total_shards),
        "--num-types", str(spec.num_types),
        "--cost-growth", repr(spec.cost_growth),
        "--record" if spec.record else "--no-record",
        "--metrics" if spec.worker_metrics else "--no-metrics",
    ]
    if trace_path is not None:
        argv += ["--trace-jsonl", str(trace_path)]
    if wal_dir is not None:
        argv += ["--wal-dir", str(wal_dir), "--fsync", spec.fsync]
        if spec.snapshot_every is not None:
            argv += ["--snapshot-every", str(spec.snapshot_every)]
    return argv


def _worker_env() -> dict:
    src_root = str(Path(__file__).resolve().parents[2])
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )
    return env


class WorkerProcess:
    """One lease-server worker subprocess and its endpoint.

    ``endpoint`` is the string the router dials and the ``route``
    handshake hands to direct clients — ``unix:<path>`` or
    ``tcp:<host>:<port>`` (a bare path is accepted and normalised to
    the unix form).  The endpoint is *stable across respawns*: a
    successor rebinds the same socket file or port, so staleness is
    carried by the routing epoch, never by a moved address.
    """

    def __init__(
        self,
        index: int,
        spec: ClusterSpec,
        endpoint: str,
        quiet: bool = True,
    ):
        self.index = index
        self.spec = spec
        kind, address = parse_worker_endpoint(str(endpoint))
        self.endpoint = format_endpoint(kind, *address)
        self.transport = kind
        # The raw socket file for unix workers (None on tcp) — what
        # respawn unlinks and pre-endpoint callers keep reading.
        self.socket_path = address[0] if kind == "unix" else None
        self.quiet = quiet
        self.wal_dir = spec.worker_wal_dir(index)
        self.trace_path = spec.worker_trace_path(index)
        self.respawns = 0
        self.process = self._spawn()

    def _spawn(self) -> subprocess.Popen:
        sink = subprocess.DEVNULL if self.quiet else None
        return subprocess.Popen(
            worker_command(
                self.spec, self.endpoint, wal_dir=self.wal_dir,
                trace_path=self.trace_path,
            ),
            env=_worker_env(),
            stdout=sink,
            stderr=sink,
        )

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def respawn(self) -> str:
        """Replace the worker process in place; returns the endpoint.

        Kills whatever is left of the old process (a hung worker must
        release the socket before its successor binds it), unlinks the
        stale socket file (unix), and starts a fresh process through
        the same :func:`worker_command` argv — including the WAL
        directory, so the successor recovers the predecessor's durable
        state before accepting traffic.  Mutating ``self.process`` in
        place keeps :func:`reap` pointed at the live incarnation.
        """
        if self.alive:
            self.process.kill()
        try:
            self.process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except FileNotFoundError:
                pass
        self.respawns += 1
        self.process = self._spawn()
        return self.endpoint

    def stop(self, timeout: float = 10.0) -> int | None:
        """Reap the worker: wait briefly, then terminate, then kill."""
        try:
            return self.process.wait(timeout=0.5)
        except subprocess.TimeoutExpired:
            pass
        self.process.terminate()
        try:
            return self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            return self.process.wait(timeout=timeout)


def spawn_workers(
    spec: ClusterSpec, workdir: str | Path, quiet: bool = True
) -> list[WorkerProcess]:
    """Start one worker per shard group, endpoints per the spec.

    ``transport="unix"`` puts socket files under ``workdir``;
    ``transport="tcp"`` pre-allocates one loopback port per worker.
    Caller owns the lifecycle: either shut the workers down over the
    wire (the router's ``shutdown`` barrier) and then :func:`reap`, or
    :func:`reap` directly to terminate them.
    """
    workdir = Path(workdir)
    if not workdir.is_dir():
        raise ModelError(f"workdir {workdir} is not a directory")
    if spec.transport == "tcp":
        endpoints = [
            format_endpoint("tcp", "127.0.0.1", free_tcp_port())
            for _ in range(spec.num_workers)
        ]
    else:
        endpoints = [
            format_endpoint("unix", str(workdir / f"worker-{index}.sock"))
            for index in range(spec.num_workers)
        ]
    return [
        WorkerProcess(index, spec, endpoints[index], quiet=quiet)
        for index in range(spec.num_workers)
    ]


def make_respawner(workers: list[WorkerProcess]):
    """A ``respawn(index) -> endpoint`` callback over a worker fleet.

    What the router's supervision calls (off the event loop, in an
    executor) when it finds a worker dead: restart that worker in place
    and hand back the endpoint to redial.
    """

    def respawn(index: int) -> str:
        return workers[index].respawn()

    return respawn


def reap(workers: list[WorkerProcess], timeout: float = 10.0) -> None:
    """Stop every worker, tolerating ones that already exited."""
    for worker in workers:
        try:
            worker.stop(timeout=timeout)
        except Exception:
            pass
