"""Trace context on the wire: the field format, the binary-codec
trailer, hello negotiation, and client -> dispatch span linkage."""

import asyncio
import json

from repro.core import LeaseSchedule
from repro.obs import TraceSink, build_trace_trees, load_spans
from repro.serve import AsyncLeaseClient, LeaseServer
from repro.serve.protocol import (
    _TRACE_FLAG,
    ServeError,
    _TRACE_STRUCT,
    decode_body_bin,
    encode_body_bin,
    format_trace,
    parse_trace,
)

SCHEDULE = LeaseSchedule.power_of_two(4, cost_growth=2.0)


class TestTraceField:
    def test_format_parse_round_trip(self):
        for trace_id, span_id in [(0, 0), (1, 2), (2**64 - 1, 2**63)]:
            field = format_trace(trace_id, span_id)
            assert len(field) == 33
            assert parse_trace(field) == (trace_id, span_id)

    def test_malformed_fields_parse_to_none(self):
        good = format_trace(7, 9)
        for bad in (
            None,
            7,
            True,
            good[:-1],              # too short
            good + "0",             # too long
            good.replace("-", ":"),  # wrong separator
            "g" * 16 + "-" + "0" * 16,  # non-hex
            "-1234567890abcdef-0123456789abcde",  # dash misplaced
        ):
            assert parse_trace(bad) is None, bad


class TestBinaryCodecTrailer:
    def _mutation(self, **extra):
        payload = {
            "id": 9, "op": "acquire", "tenant": "t-3", "resource": 5,
            "time": 12,
        }
        payload.update(extra)
        return payload

    def test_traced_mutation_packs_trailer_and_round_trips(self):
        payload = self._mutation(trace=format_trace(0xAB, 0xCD))
        body = encode_body_bin(payload)
        # Packed layout, not a JSON fallback: mutation kind, traced opcode.
        assert body[0] == 1
        assert body[1] & _TRACE_FLAG
        assert body[-_TRACE_STRUCT.size:] == _TRACE_STRUCT.pack(0xAB, 0xCD)
        assert decode_body_bin(body) == payload

    def test_untraced_mutation_unchanged_by_the_reserved_bit(self):
        payload = self._mutation()
        body = encode_body_bin(payload)
        assert body[0] == 1
        assert not body[1] & _TRACE_FLAG
        assert decode_body_bin(body) == payload

    def test_traced_tick_round_trips(self):
        payload = {
            "id": 4, "op": "tick", "time": 30,
            "trace": format_trace(1, 2),
        }
        body = encode_body_bin(payload)
        assert body[1] & _TRACE_FLAG
        assert decode_body_bin(body) == payload

    def test_non_canonical_trace_rides_as_json_and_still_decodes(self):
        # Uppercase hex parses but is not the canonical rendering, so
        # the packer must refuse (byte-identity) and fall back to JSON.
        field = format_trace(0xAB, 0xCD).upper().replace("-", "-", 1)
        field = field[:16].upper() + "-" + field[17:].upper()
        payload = self._mutation(trace=field)
        body = encode_body_bin(payload)
        assert body[0] == 0  # JSON-bytes kind
        assert decode_body_bin(body) == payload

    def test_truncated_trailer_is_a_protocol_error(self):
        import pytest

        from repro.serve.protocol import ProtocolError

        body = encode_body_bin(self._mutation(trace=format_trace(1, 2)))
        with pytest.raises(ProtocolError):
            decode_body_bin(body[: -_TRACE_STRUCT.size] + b"\x00" * 7 + b"")
        with pytest.raises(ProtocolError):
            decode_body_bin(body[:3])


class TestSpanLinkage:
    def _run(self, tmp_path, codec=None, peer_trace=True):
        client_file = tmp_path / "client.jsonl"
        server_file = tmp_path / "server.jsonl"

        async def main(sock):
            server = LeaseServer(
                SCHEDULE, num_resources=8, num_shards=2,
                trace=TraceSink(server_file),
            )
            await server.start_unix(sock)
            client = await AsyncLeaseClient.open_unix(
                sock, codec=codec, trace=TraceSink(client_file)
            )
            assert client._peer_trace is True
            if not peer_trace:
                client._peer_trace = False  # simulate a pre-trace server
            await client.acquire("t-0", 1, 0)
            await client.release("t-0", 1, 2)
            await client.tick(3)
            client._trace_sink.flush()
            await client.close()
            await server.shutdown()
            server.trace.flush()

        import shutil
        import tempfile

        workdir = tempfile.mkdtemp(prefix="rsv-")
        try:
            asyncio.run(main(f"{workdir}/t.sock"))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return load_spans([client_file, server_file])

    def test_each_mutation_is_one_two_level_tree(self, tmp_path):
        spans = self._run(tmp_path)
        trees = build_trace_trees(spans)
        # acquire, release, tick: one fresh trace id each.
        assert len(trees) == 3
        kinds = {}
        for trace, roots in trees.items():
            assert len(roots) == 1, "orphaned span: file merge lost a hop"
            root = roots[0]
            assert root.span["kind"] == "client"
            assert root.span["parent"] is None
            for child in root.children:
                assert child.span["kind"] == "dispatch"
                assert child.span["parent"] == root.span["span_id"]
                assert child.span["trace"] == root.span["trace"]
            kinds[root.span["op"]] = len(root.children)
        # Point mutations hit one shard; the tick broadcast hits both.
        assert kinds == {"acquire": 1, "release": 1, "tick": 2}

    def test_binary_codec_carries_the_same_linkage(self, tmp_path):
        spans = self._run(tmp_path, codec="bin")
        trees = build_trace_trees(spans)
        assert len(trees) == 3
        for roots in trees.values():
            assert roots[0].span["kind"] == "client"
            assert all(
                child.span["kind"] == "dispatch"
                for child in roots[0].children
            )

    def test_old_peer_means_no_trace_fields_anywhere(self, tmp_path):
        spans = self._run(tmp_path, peer_trace=False)
        assert spans, "server still samples spans without trace context"
        assert all("trace" not in span for span in spans)
        assert build_trace_trees(spans) == {}

    def test_spans_verb_pulls_the_live_buffer(self, tmp_path):
        """The ``spans`` protocol op answers from the live sink —
        flushed file plus still-buffered spans — so a federated pull
        sees work that finished moments ago, mid-run."""

        async def main(sock):
            server = LeaseServer(
                SCHEDULE, num_resources=8, num_shards=2,
                trace=TraceSink(tmp_path / "server.jsonl"),
            )
            await server.start_unix(sock)
            client = await AsyncLeaseClient.open_unix(
                sock, trace=TraceSink(tmp_path / "client.jsonl")
            )
            await client.acquire("t-0", 1, 0)
            await client.acquire("t-1", 2, 0)
            everything = await client.call("spans")
            traced = [
                s for s in everything["spans"] if s.get("trace")
            ]
            one = await client.call("spans", trace=traced[0]["trace"])
            none = await client.call("spans", trace="0" * 16)
            await client.close()
            await server.shutdown()
            return everything, traced, one, none

        import shutil
        import tempfile

        workdir = tempfile.mkdtemp(prefix="rsv-")
        try:
            everything, traced, one, none = asyncio.run(
                main(f"{workdir}/t.sock")
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        # Both acquires' dispatch spans are visible without any flush
        # having been requested, and each carries its trace context.
        assert len(traced) == 2
        assert {s["kind"] for s in traced} == {"dispatch"}
        assert [s["trace"] for s in one["spans"]] == [traced[0]["trace"]]
        assert none["spans"] == []

    def test_spans_verb_is_empty_when_tracing_is_off(self, tmp_path):
        async def main(sock):
            server = LeaseServer(SCHEDULE, num_resources=8, num_shards=2)
            await server.start_unix(sock)
            client = await AsyncLeaseClient.open_unix(sock)
            await client.acquire("t-0", 1, 0)
            out = await client.call("spans")
            await client.close()
            await server.shutdown()
            return out

        import shutil
        import tempfile

        workdir = tempfile.mkdtemp(prefix="rsv-")
        try:
            out = asyncio.run(main(f"{workdir}/t.sock"))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        assert out["spans"] == []

    def test_spans_are_observation_only(self, tmp_path):
        """Tracing must not perturb the served state: identical run with
        and without sinks produces identical reports."""

        async def run(sock, trace):
            server = LeaseServer(
                SCHEDULE, num_resources=8, num_shards=2, trace=trace
            )
            await server.start_unix(sock)
            client = await AsyncLeaseClient.open_unix(
                sock,
                trace=TraceSink(sock + ".jsonl") if trace else None,
            )
            for day in range(6):
                await client.acquire("t-0", day % 8, day)
            await client.tick(9)
            report = await client.report()
            await client.close()
            await server.shutdown()
            return json.dumps(report, sort_keys=True)

        import shutil
        import tempfile

        workdir = tempfile.mkdtemp(prefix="rsv-")
        try:
            traced = asyncio.run(
                run(f"{workdir}/a.sock", TraceSink(tmp_path / "s.jsonl"))
            )
            bare = asyncio.run(run(f"{workdir}/b.sock", None))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        assert traced == bare


class TestSpansVerbOverABadFile:
    """A span file a crash left behind must not cost the connection."""

    @staticmethod
    def _serve(tmp_path, sink, calls):
        async def main(sock):
            server = LeaseServer(
                SCHEDULE, num_resources=8, num_shards=2, trace=sink
            )
            await server.start_unix(sock)
            client = await AsyncLeaseClient.open_unix(
                sock, trace=TraceSink(tmp_path / "client.jsonl")
            )
            try:
                return await calls(client)
            finally:
                await client.close()
                await server.shutdown()

        import shutil
        import tempfile

        workdir = tempfile.mkdtemp(prefix="rsv-")
        try:
            return asyncio.run(main(f"{workdir}/t.sock"))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def test_torn_tail_respawn_is_answered_by_the_spans_verb(self, tmp_path):
        # The predecessor was killed mid-flush: one whole span, then a
        # torn one.  The respawned server appends after it.
        path = tmp_path / "server.jsonl"
        before = {"id": 1, "op": "acquire", "trace": "ab" * 8}
        path.write_text(json.dumps(before) + '\n{"id": 2, "op": "ac')
        sink = TraceSink(path)

        async def calls(client):
            await client.acquire("t-0", 1, 0)
            return (
                await client.call("spans"),
                await client.call("spans", trace="ab" * 8),
            )

        everything, one = self._serve(tmp_path, sink, calls)
        assert everything["spans"][0] == before
        assert [s.get("kind") for s in everything["spans"][1:]] == [
            "dispatch"
        ]
        assert one["spans"] == [before]
        assert sink.skipped == 2

    def test_a_failing_read_answers_an_error_frame(self, tmp_path):
        class BrokenSink(TraceSink):
            __slots__ = ()

            def live_spans(self, trace_id=None):
                raise OSError("span file unreadable")

        async def calls(client):
            try:
                await client.call("spans")
            except ServeError as exc:
                failed = exc
            else:
                failed = None
            # The same connection keeps serving.
            await client.acquire("t-0", 1, 0)
            return failed

        failed = self._serve(
            tmp_path, BrokenSink(tmp_path / "server.jsonl"), calls
        )
        assert failed is not None
        assert "OSError: span file unreadable" in str(failed)
