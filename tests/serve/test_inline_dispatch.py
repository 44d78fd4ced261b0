"""Inline dispatch with group commit: every frame of a read chunk is
applied where it is read, the chunk's WAL commits come first, and only
then do its replies leave — in request order, one write per chunk."""

import asyncio
import os
import socket

from repro.core import LeaseSchedule
from repro.durable.wal import ShardWal
from repro.obs import MetricsRegistry
from repro.serve import AsyncLeaseClient, LeaseServer
from repro.serve.protocol import (
    HEADER,
    MAX_REQUEST_BYTES,
    FrameDecoder,
    encode_frame,
    request,
)

SCHEDULE = LeaseSchedule.power_of_two(4, cost_growth=2.0)
NUM_RESOURCES = 8
NUM_SHARDS = 4


def _burst() -> list[dict]:
    """One acquire per resource (so every shard), then a tick."""
    frames = [
        request("acquire", n + 1, tenant=f"t{n}", resource=n, time=0)
        for n in range(NUM_RESOURCES)
    ]
    frames.append(request("tick", NUM_RESOURCES + 1, time=1))
    return frames


async def _exchange(
    path: str, raw: bytes, expect: int | None = None
) -> tuple[list[dict], bool]:
    """Send ``raw`` in one write; read replies until ``expect`` of them
    arrived or, with ``expect=None``, until the server hangs up.
    Returns (replies, whether the server hung up)."""
    reader, writer = await asyncio.open_unix_connection(path)
    writer.write(raw)
    await writer.drain()
    decoder = FrameDecoder()
    replies: list[dict] = []
    hung_up = False
    while expect is None or len(replies) < expect:
        data = await asyncio.wait_for(reader.read(65536), timeout=10)
        if not data:
            hung_up = True
            break
        replies.extend(decoder.feed(data))
    writer.close()
    return replies, hung_up


def _served(path, raw, expect=None, **server_kwargs):
    async def main():
        server = LeaseServer(
            SCHEDULE, num_resources=NUM_RESOURCES, num_shards=NUM_SHARDS,
            **server_kwargs,
        )
        await server.start_unix(path)
        try:
            return await _exchange(path, raw, expect), server
        finally:
            await server.shutdown()

    return asyncio.run(main())


class TestGroupCommit:
    def test_no_reply_byte_leaves_before_the_fsync_covering_its_op(
        self, sock_path, tmp_path, monkeypatch
    ):
        """fsync=always, one pipelined burst over every shard: each
        write of reply bytes comes after an fsync of every WAL file an
        op had been appended to — and one fsync covers a whole chunk's
        appends to a shard."""
        events: list[tuple] = []
        real_fsync, real_append = os.fsync, ShardWal.append
        real_write = asyncio.StreamWriter.write
        servers: list = []

        def fsync(fd):
            events.append(("fsync", fd))
            return real_fsync(fd)

        def append(self, *args, **kwargs):
            events.append(("append", self._handle.fileno()))
            return real_append(self, *args, **kwargs)

        def write(self, data):
            if servers and self in servers[0]._writers:
                events.append(("write", bytes(data)))
            return real_write(self, data)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(ShardWal, "append", append)
        monkeypatch.setattr(asyncio.StreamWriter, "write", write)

        async def main():
            server = LeaseServer(
                SCHEDULE, num_resources=NUM_RESOURCES, num_shards=NUM_SHARDS,
                wal_dir=tmp_path / "wal", fsync="always",
            )
            servers.append(server)
            await server.start_unix(sock_path)
            reader, writer = await asyncio.open_unix_connection(sock_path)
            raw = b"".join(encode_frame(frame) for frame in _burst())
            writer.write(raw)
            await writer.drain()
            decoder = FrameDecoder()
            replies: list[dict] = []
            while len(replies) < len(_burst()):
                replies.extend(decoder.feed(await reader.read(65536)))
            writer.close()
            await server.shutdown()
            return replies

        replies = asyncio.run(main())
        assert [reply["id"] for reply in replies] == [
            frame["id"] for frame in _burst()
        ]
        assert all(reply["ok"] for reply in replies)
        writes = [n for n, event in enumerate(events) if event[0] == "write"]
        assert writes
        for at in writes:
            unsynced: set = set()
            for kind, detail in events[:at]:
                if kind == "append":
                    unsynced.add(detail)
                elif kind == "fsync":
                    unsynced.discard(detail)
            assert not unsynced, f"reply written before fsync of {unsynced}"
        appends = sum(1 for kind, _ in events if kind == "append")
        fsyncs_before_reply = sum(
            1 for kind, _ in events[:writes[-1]] if kind == "fsync"
        )
        # 8 acquires + a tick on each of the 4 shards = 12 appends; the
        # group commit fsyncs each dirty shard once.
        assert appends == NUM_RESOURCES + NUM_SHARDS
        assert fsyncs_before_reply == NUM_SHARDS < appends

    def test_a_failed_commit_answers_that_shards_ops_with_errors(
        self, sock_path, tmp_path, monkeypatch
    ):
        """The fsync of shard 1's WAL raises: its acquires and the tick
        (which touched every shard) come back as error frames, never
        ok; the other shards' acquires are acked."""
        real_fsync = os.fsync
        doomed: list[int] = []

        def fsync(fd):
            if fd in doomed:
                raise OSError(5, "Input/output error")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)

        async def main():
            server = LeaseServer(
                SCHEDULE, num_resources=NUM_RESOURCES, num_shards=NUM_SHARDS,
                wal_dir=tmp_path / "wal", fsync="always",
            )
            await server.start_unix(sock_path)
            doomed.append(server._shards[1].wal._handle.fileno())
            raw = b"".join(encode_frame(frame) for frame in _burst())
            replies, _ = await _exchange(sock_path, raw, len(_burst()))
            doomed.clear()
            await server.shutdown()
            return replies, [shard.lo for shard in server._shards], [
                shard.hi for shard in server._shards
            ]

        replies, los, his = asyncio.run(main())
        by_id = {reply["id"]: reply for reply in replies}
        assert len(by_id) == len(_burst())
        for frame in _burst():
            reply = by_id[frame["id"]]
            on_failed_shard = frame["op"] == "tick" or (
                los[1] <= frame["resource"] < his[1]
            )
            if on_failed_shard:
                assert reply["ok"] is False
                assert reply["error"]["kind"] == "unavailable"
            else:
                assert reply["ok"] is True


class TestFairness:
    def test_a_long_pipelined_burst_yields_to_the_loop(self, sock_path):
        """64 frames arrive as one chunk; a task watching the shard's
        applied log between loop passes must see the chunk part-applied,
        so admin reads and other tenants are not held for the burst."""

        async def main():
            server = LeaseServer(
                SCHEDULE, num_resources=NUM_RESOURCES, num_shards=1,
                record=True,
            )
            await server.start_unix(sock_path)
            applied = server._shards[0].applied
            seen: list[int] = []
            done = asyncio.Event()

            async def watch():
                while not done.is_set():
                    seen.append(len(applied))
                    await asyncio.sleep(0)

            watcher = asyncio.create_task(watch())
            burst = [
                request("acquire", n + 1, tenant=f"t{n}", resource=n % 8,
                        time=0)
                for n in range(64)
            ]
            replies, _ = await _exchange(
                sock_path, b"".join(encode_frame(frame) for frame in burst),
                len(burst),
            )
            done.set()
            await watcher
            await server.shutdown()
            return replies, seen

        replies, seen = asyncio.run(main())
        assert [reply["id"] for reply in replies] == list(range(1, 65))
        assert any(0 < count < 64 for count in seen)


class TestHostilePeers:
    def test_header_over_the_request_cap_is_refused_unbuffered(
        self, sock_path
    ):
        """Only the 4-byte header is sent: the server must answer with a
        protocol error and hang up without waiting for the body."""
        (replies, hung_up), _ = _served(
            sock_path, HEADER.pack(MAX_REQUEST_BYTES + 1)
        )
        assert hung_up
        assert len(replies) == 1
        assert replies[0]["ok"] is False
        assert replies[0]["error"]["kind"] == "protocol"

    def test_frames_before_a_malformed_one_are_answered_first(
        self, sock_path
    ):
        good = [
            request("acquire", 1, tenant="a", resource=0, time=0),
            request("acquire", 2, tenant="b", resource=5, time=0),
        ]
        raw = b"".join(encode_frame(frame) for frame in good)
        raw += HEADER.pack(8) + b"not-json"
        raw += encode_frame(request("acquire", 3, tenant="c", resource=6, time=0))
        (replies, hung_up), server = _served(sock_path, raw, record=True)
        assert hung_up
        assert [reply.get("id") for reply in replies] == [1, 2, None]
        assert replies[0]["ok"] and replies[1]["ok"]
        assert replies[2]["error"]["kind"] == "protocol"
        # The frame after the bad one was never applied.
        applied = [
            event for shard in server._shards for event in shard.applied
        ]
        assert len(applied) == 2

    def test_non_string_ops_get_protocol_errors_not_a_crash(self, sock_path):
        frames = [
            {"id": 1, "op": ["acquire"]},
            {"id": 2, "op": {"x": 1}},
            {"id": 3, "op": 7},
            request("acquire", 4, tenant="a", resource=0, time=0),
        ]
        raw = b"".join(encode_frame(frame) for frame in frames)
        (replies, _), _ = _served(sock_path, raw, expect=len(frames))
        # The acquire after the bad ops is still served: no hang-up.
        assert [reply["id"] for reply in replies] == [1, 2, 3, 4]
        assert [reply["ok"] for reply in replies] == [False] * 3 + [True]
        assert {reply["error"]["kind"] for reply in replies[:3]} == {
            "protocol"
        }

    def test_replies_to_a_vanished_client_are_counted(self, sock_path):
        """A client pipelines a burst and disconnects without reading:
        every reply it leaves behind is counted as dropped, and the
        server keeps serving everyone else."""
        registry = MetricsRegistry()

        def dropped() -> float:
            family = registry.snapshot().get("serve_replies_dropped_total")
            return family["series"][0]["value"] if family else 0

        async def main():
            server = LeaseServer(
                SCHEDULE, num_resources=NUM_RESOURCES, num_shards=NUM_SHARDS,
                metrics=registry,
            )
            await server.start_unix(sock_path)
            raw = b"".join(encode_frame(frame) for frame in _burst())
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as peer:
                peer.connect(sock_path)
                peer.sendall(raw)
            for _ in range(200):
                if dropped():
                    break
                await asyncio.sleep(0.01)
            survivor = await AsyncLeaseClient.open_unix(sock_path)
            grant = await survivor.acquire("late", 3, 5)
            await survivor.close()
            await server.shutdown()
            return grant

        grant = asyncio.run(main())
        assert dropped() == len(_burst())
        assert grant["grant"]["tenant"] == "late"
