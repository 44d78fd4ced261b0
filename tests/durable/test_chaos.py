"""Fault injection end to end: SIGKILL a worker mid-drive, watch the
supervised router respawn it from its WAL and the direct clients
re-handshake, and demand the clustered aggregate still equal the inline
replay byte for byte."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.durable.chaos import (
    build_chaos_instance,
    default_kill_schedule,
    run_chaos,
)
from repro.cluster.loadgen import build_cluster_instance
from repro.errors import ModelError


def _instance(wal_root, **kwargs):
    defaults = dict(
        num_resources=6,
        tenants_per_resource=2,
        num_workers=2,
        shards_per_worker=1,
    )
    defaults.update(kwargs)
    return build_chaos_instance("markov", 48, 9, wal_root, **defaults)


class TestKillSchedule:
    def test_default_schedule_is_deterministic_and_in_range(self, sock_path):
        instance = _instance(sock_path + ".wal")
        first = default_kill_schedule(instance, kills=3)
        second = default_kill_schedule(instance, kills=3)
        assert first == second
        days = {event.time for event in instance.trace.events}
        for day, worker in first:
            assert day in days
            assert 0 <= worker < instance.num_workers

    def test_zero_kills_is_empty(self, sock_path):
        instance = _instance(sock_path + ".wal")
        assert default_kill_schedule(instance, kills=0) == ()


class TestChaosPreconditions:
    def test_rejects_undurable_fleet(self):
        instance = build_cluster_instance(
            "markov", 32, 0, num_resources=6, tenants_per_resource=2,
            num_workers=2, shards_per_worker=1, record=True,
        )
        with pytest.raises(ModelError):
            run_chaos(instance)

    def test_rejects_unrecorded_fleet(self, sock_path):
        instance = build_cluster_instance(
            "markov", 32, 0, num_resources=6, tenants_per_resource=2,
            num_workers=2, shards_per_worker=1,
            record=False, wal_root=sock_path + ".wal",
        )
        with pytest.raises(ModelError):
            run_chaos(instance)

    def test_rejects_out_of_range_victim(self, sock_path):
        instance = _instance(sock_path + ".wal")
        with pytest.raises(ModelError):
            run_chaos(instance, kill_schedule=[(0, 99)])


class TestChaosRun:
    def test_clean_shutdown_snapshots_instead_of_respawning(self, sock_path):
        """A supervised fleet stopped over the wire must not trip the
        death detector: the shutdown EOF is expected, so every worker
        finishes its graceful stop — each shard folds its WAL tail into
        a final snapshot — instead of being SIGKILL'd by a spurious
        respawn mid-write (which left ``snap.json.tmp`` orphans)."""
        wal_root = sock_path + ".wal"
        instance = _instance(wal_root)
        outcome = run_chaos(instance, kill_schedule=())
        assert outcome.executed == ()
        assert outcome.respawns == 0
        assert outcome.report_equal
        shard_dirs = sorted(Path(wal_root).glob("worker-*/shard-*"))
        assert shard_dirs
        for directory in shard_dirs:
            assert (directory / "snap.json").is_file()
            assert not (directory / "snap.json.tmp").exists()


    def test_sigkill_mid_drive_recovers_byte_identically(self, sock_path):
        """The tentpole gate: a worker dies under load, its successor
        recovers from the WAL, retried ops dedup, and the merged report
        still equals the inline replay exactly."""
        instance = _instance(sock_path + ".wal")
        outcome = run_chaos(
            instance, kill_schedule=default_kill_schedule(instance, kills=1)
        )
        assert outcome.executed == outcome.scheduled
        assert len(outcome.executed) == 1
        assert outcome.respawns >= 1
        assert outcome.report_equal
        assert outcome.ok
        assert outcome.fsync == "always"
        assert outcome.requests > 0
        assert outcome.result.cost == pytest.approx(outcome.cost)

    def test_direct_topology_sigkill_recovers_byte_identically(
        self, sock_path
    ):
        """Two kills, one per worker: tenants hold *direct* worker links,
        so each kill severs their data connections too.  Recovery must
        compose the router's supervised respawn with the clients'
        stale-route re-handshake and marked resend — and the merged
        report must still equal the inline replay exactly."""
        instance = _instance(sock_path + ".wal")
        outcome = run_chaos(
            instance, kill_schedule=default_kill_schedule(instance, kills=2)
        )
        assert outcome.executed == outcome.scheduled
        assert len(outcome.executed) == 2
        assert outcome.respawns >= 2
        assert outcome.ok
        detail = outcome.result.detail["cluster"]
        # Every tenant handshook at least once; the kills forced the
        # severed ones back through the route table.
        assert detail["handshakes"] >= len(instance.tenants)
        assert detail["retried_ops"] >= 1

    def test_tcp_workers_survive_two_kills(self, sock_path):
        """The same two kills over TCP workers.  A tenant idle at a kill
        holds a cached link whose peer is gone, and over TCP a write
        after the FIN succeeds, so its next call must fail fast and
        recover instead of waiting forever.  The run goes in a child
        process with a timeout, so a hang fails the test."""
        script = (
            "import json, sys\n"
            "from repro.cluster.loadgen import build_cluster_instance\n"
            "from repro.durable.chaos import run_chaos\n"
            "instance = build_cluster_instance(\n"
            "    'markov', 48, 9, num_resources=6, tenants_per_resource=2,\n"
            "    num_workers=2, shards_per_worker=1, record=True,\n"
            "    wal_root=sys.argv[1], fsync='always', transport='tcp',\n"
            ")\n"
            "outcome = run_chaos(instance)\n"
            "print(json.dumps({'ok': outcome.ok, 'kills': len(outcome.executed),\n"
            "                  'respawns': outcome.respawns}))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        # Its own session, so a timeout reaps the worker fleet too.
        child = subprocess.Popen(
            [sys.executable, "-c", script, sock_path + ".wal"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, start_new_session=True,
        )
        try:
            stdout, stderr = child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("chaos over TCP workers did not finish in 120 s")
        assert child.returncode == 0, stderr
        outcome = json.loads(stdout.strip().splitlines()[-1])
        assert outcome == {"ok": True, "kills": 2, "respawns": 2}
