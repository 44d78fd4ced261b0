"""WAL framing, torn-tail tolerance, snapshots, and shard recovery."""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import LeaseSchedule
from repro.durable.wal import (
    SNAPSHOT_FILE,
    WAL_FILE,
    ShardWal,
    read_wal_records,
    recover_shard,
    require_fsync_mode,
)
from repro.engine import LeaseBroker, replay_trace
from repro.engine.events import generate_resource_trace
from repro.errors import ModelError

SCHEDULE = LeaseSchedule.power_of_two(4, cost_growth=2.0)

#: Arbitrary JSON values, and state objects keyed mostly by the names a
#: broker snapshot really carries, so draws reach past the first lookup.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=16,
)
_STATES = st.dictionaries(
    st.sampled_from(
        ["coverage", "grants", "grant_heap", "clock", "next_grant_id",
         "closed", "stats"]
    ) | st.text(max_size=8),
    _JSON,
    max_size=8,
)


def _fill(wal: ShardWal) -> list[tuple]:
    ops = [
        ("acquire", 0, "alice", 3),
        ("acquire", 0, "bob", 3),
        ("release", 1, "alice", 3),
        ("tick", 2, None, None),
        ("acquire", 2, "carol", 5),
    ]
    for op, time, tenant, resource in ops:
        wal.append(op, time, tenant=tenant, resource=resource)
    return ops


class TestWalFile:
    def test_append_read_roundtrip(self, tmp_path):
        wal = ShardWal(tmp_path / "shard-0", fsync="off")
        ops = _fill(wal)
        wal.close()
        records = read_wal_records(tmp_path / "shard-0" / WAL_FILE)
        assert [r["id"] for r in records] == list(range(1, len(ops) + 1))
        assert [r["op"] for r in records] == [op for op, *_ in ops]
        assert records[0] == {
            "id": 1, "op": "acquire", "tenant": "alice",
            "resource": 3, "time": 0,
        }
        assert records[3] == {"id": 4, "op": "tick", "time": 2}

    @pytest.mark.parametrize("cut", [1, 3, 7])
    def test_torn_tail_is_dropped_at_the_frame_boundary(self, tmp_path, cut):
        wal = ShardWal(tmp_path / "shard-0", fsync="always")
        _fill(wal)
        wal.close()
        log = tmp_path / "shard-0" / WAL_FILE
        data = log.read_bytes()
        log.write_bytes(data[:-cut])
        records = read_wal_records(log)
        assert [r["id"] for r in records] == [1, 2, 3, 4]

    def test_garbage_tail_stops_cleanly(self, tmp_path):
        wal = ShardWal(tmp_path / "shard-0", fsync="batch")
        _fill(wal)
        wal.commit()
        wal.close()
        log = tmp_path / "shard-0" / WAL_FILE
        with open(log, "ab") as handle:
            handle.write(b"\x00\x00\x00\x04junk")
        records = read_wal_records(log)
        assert len(records) == 5

    def test_unknown_fsync_mode_rejected(self, tmp_path):
        with pytest.raises(ModelError, match="fsync"):
            ShardWal(tmp_path / "shard-0", fsync="sometimes")
        with pytest.raises(ModelError, match="fsync"):
            require_fsync_mode("yes")


class TestSnapshotAndRecovery:
    def test_snapshot_truncates_and_recovery_skips_covered_seqs(
        self, tmp_path
    ):
        wal = ShardWal(tmp_path / "shard-0", fsync="batch")
        _fill(wal)
        wal.write_snapshot({"marker": 1}, applied=[{"kind": "tick"}])
        assert wal.appended_since_snapshot == 0
        wal.append("acquire", 6, tenant="dave", resource=1)
        wal.close()

        recovery = recover_shard(tmp_path / "shard-0")
        assert recovery.state == {"marker": 1}
        assert recovery.applied == [{"kind": "tick"}]
        assert [r["id"] for r in recovery.records] == [6]
        assert recovery.last_seq == 6

    def test_crash_between_snapshot_and_truncate(self, tmp_path):
        # Simulate the crash window: records up to seq 5 in the log, a
        # snapshot claiming seq 3 — recovery must replay only 4 and 5.
        wal = ShardWal(tmp_path / "shard-0", fsync="off")
        _fill(wal)
        wal.close()
        snap = {"version": 1, "seq": 3, "state": {"s": 1}, "applied": None}
        (tmp_path / "shard-0" / SNAPSHOT_FILE).write_text(json.dumps(snap))
        recovery = recover_shard(tmp_path / "shard-0")
        assert [r["id"] for r in recovery.records] == [4, 5]
        assert recovery.state == {"s": 1}

    def test_cold_start_is_empty(self, tmp_path):
        recovery = recover_shard(tmp_path / "nonexistent")
        assert recovery.state is None
        assert recovery.records == []
        assert recovery.last_seq == 0

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.binary(max_size=256))
    @example(b"{not json")
    @example(b'{"version": 1, "seq": 0, "state": {"k": "\xff"}}')
    @example(b"[1]")
    @example(b"[" * 200_000)
    @example(b'{"version": 1}')
    @example(b'{"version": 1, "seq": "7", "state": {}}')
    @example(b'{"version": 1, "seq": 3, "state": {}, "applied": null}')
    def test_corrupt_snapshot_raises(self, tmp_path, content):
        """Any ``snap.json`` content recovers or raises ``ModelError``:
        never a decode, attribute, key, value or recursion error."""
        shard = tmp_path / "shard-0"
        shard.mkdir(exist_ok=True)
        (shard / SNAPSHOT_FILE).write_bytes(content)
        try:
            recovery = recover_shard(shard)
        except ModelError as exc:
            assert "snapshot" in str(exc)
            return
        document = json.loads(content)
        assert recovery.last_seq == document["seq"]
        assert recovery.state == document["state"]

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(state=_STATES)
    @example(state={})
    @example(state={"coverage": [], "grants": []})
    def test_any_accepted_state_restores_or_raises_typed(
        self, tmp_path, state
    ):
        """A well-formed document whose ``state`` object the loader
        accepts must, through ``LeaseServer`` recovery, either restore
        or raise ``ModelError`` naming the file — never a bare
        ``KeyError`` from inside the broker."""
        import asyncio

        from repro.serve import LeaseServer

        wal_dir = tmp_path / "wal"
        shard = wal_dir / "shard-0"
        shard.mkdir(parents=True, exist_ok=True)
        (shard / SNAPSHOT_FILE).write_text(
            json.dumps({"version": 1, "seq": 0, "state": state})
        )
        server = LeaseServer(
            SCHEDULE, num_resources=4, num_shards=1, wal_dir=wal_dir
        )

        async def start_and_stop():
            await server.start_tcp("127.0.0.1", 0)
            await server.shutdown()

        try:
            asyncio.run(start_and_stop())
        except ModelError as exc:
            assert f"corrupt snapshot {shard / SNAPSHOT_FILE}" in str(exc)

    def test_broker_recovery_through_wal_is_byte_identical(self, tmp_path):
        """End-to-end: snapshot + WAL replay == the broker that never died."""
        trace = generate_resource_trace(
            "markov", 96, 7, num_resources=2, tenants_per_resource=2
        )
        continuous = LeaseBroker(SCHEDULE)
        replay_trace(continuous, trace)

        cut = len(trace) // 3
        wal = ShardWal(tmp_path / "shard-0", fsync="always")
        first = LeaseBroker(SCHEDULE)
        replay_trace(first, trace[:cut])
        wal.write_snapshot(first.snapshot_state())
        # The rest of the trace goes through the WAL as applied events
        # (acquire covers renewals, exactly like the applied stream).
        from repro.engine.events import Acquire, Release, Tick

        for event in trace[cut:]:
            kind = type(event)
            if kind is Acquire:
                wal.append(
                    "acquire", event.time,
                    tenant=event.tenant, resource=event.resource,
                )
            elif kind is Release:
                wal.append(
                    "release", event.time,
                    tenant=event.tenant, resource=event.resource,
                )
            elif kind is Tick:
                wal.append("tick", event.time)
        wal.close()

        recovery = recover_shard(tmp_path / "shard-0")
        recovered = LeaseBroker(SCHEDULE)
        recovered.restore_state(recovery.state)
        for record in recovery.records:
            if record["op"] == "acquire":
                recovered._acquire(
                    record["tenant"], record["resource"], record["time"]
                )
            elif record["op"] == "release":
                recovered._release(
                    record["tenant"], record["resource"], record["time"]
                )
            else:
                recovered.tick(record["time"])
        assert recovered.snapshot_state() == continuous.snapshot_state()
        assert recovered.cost == continuous.cost
        assert recovered.leases == continuous.leases

    def test_wal_metrics_counters(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        wal = ShardWal(
            tmp_path / "shard-0", fsync="always", metrics=registry, shard=0
        )
        _fill(wal)
        wal.commit()  # group commit: one fsync covers all five appends
        wal.write_snapshot({"s": 1})
        wal.close()
        rendered = registry.render_prometheus()
        assert 'wal_appends_total{shard="0"} 5' in rendered
        assert 'wal_snapshots_total{shard="0"} 1' in rendered
        assert 'wal_fsyncs_total{shard="0"} 1' in rendered
