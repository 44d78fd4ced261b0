"""Wire-protocol mechanics: framing, fragmentation, envelopes, errors,
and the binary codec's exact equivalence to the JSON codec."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.protocol import (
    BIN_FLAG,
    CODEC_BIN,
    CODEC_JSON,
    HEADER,
    MAX_FRAME_BYTES,
    MAX_REQUEST_BYTES,
    FrameDecoder,
    ProtocolError,
    ServeError,
    decode_body,
    decode_body_bin,
    encode_body_bin,
    encode_frame,
    error,
    negotiate_codec,
    ok,
    parse_response,
    request,
)


class TestFraming:
    def test_round_trip(self):
        payload = {"id": 7, "op": "acquire", "tenant": "t", "resource": 3}
        frame = encode_frame(payload)
        (length,) = HEADER.unpack(frame[: HEADER.size])
        assert length == len(frame) - HEADER.size
        assert decode_body(frame[HEADER.size:]) == payload

    def test_decoder_handles_any_fragmentation(self):
        payloads = [{"id": n, "op": "tick", "time": n} for n in range(5)]
        stream = b"".join(encode_frame(p) for p in payloads)
        for chunk in (1, 2, 3, 7, len(stream)):
            decoder = FrameDecoder()
            seen = []
            for start in range(0, len(stream), chunk):
                seen.extend(decoder.feed(stream[start:start + chunk]))
            assert seen == payloads
            assert decoder.pending_bytes == 0

    def test_decoder_buffers_partial_frames(self):
        frame = encode_frame({"id": 1, "op": "hello"})
        decoder = FrameDecoder()
        assert decoder.feed(frame[:3]) == []
        assert decoder.pending_bytes == 3
        assert decoder.feed(frame[3:]) == [{"id": 1, "op": "hello"}]

    def test_oversize_length_prefix_rejected(self):
        decoder = FrameDecoder()
        huge = HEADER.pack(MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError):
            decoder.feed(huge)

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError):
            decode_body(b"[1, 2, 3]")
        with pytest.raises(ProtocolError):
            decode_body(b"\xff\xfe")


# ----------------------------------------------------------------------
# Binary codec: every frame type must round-trip to exactly what the
# JSON codec would have carried.
# ----------------------------------------------------------------------
class TestRequestCap:
    def test_header_over_the_cap_raises_before_the_body_arrives(self):
        decoder = FrameDecoder(MAX_REQUEST_BYTES)
        with pytest.raises(ProtocolError):
            decoder.feed(HEADER.pack(MAX_REQUEST_BYTES + 1))
        assert decoder.pending_bytes == 0

    def test_frames_before_a_bad_one_ride_on_the_error(self):
        good = [{"id": n, "op": "tick", "time": n} for n in range(3)]
        stream = b"".join(encode_frame(p) for p in good)
        decoder = FrameDecoder(MAX_REQUEST_BYTES)
        with pytest.raises(ProtocolError) as caught:
            decoder.feed(stream + HEADER.pack(4) + b"junk" + stream)
        assert caught.value.frames == good
        assert decoder.pending_bytes == 0

    @pytest.mark.parametrize(
        "body",
        [b"[" * 20000, b'{"id": ' + b"1" * 5000 + b"}"],
        ids=["deep-nesting", "huge-int"],
    )
    def test_hostile_json_bodies_are_protocol_errors(self, body):
        with pytest.raises(ProtocolError):
            FrameDecoder(MAX_REQUEST_BYTES).feed(HEADER.pack(len(body)) + body)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.binary(max_size=96),
                # A well-formed header around an arbitrary body, either
                # codec, so the body decoders see the bytes too.
                st.builds(
                    lambda body, flag: HEADER.pack(len(body) | flag) + body,
                    st.binary(max_size=64),
                    st.sampled_from([0, BIN_FLAG]),
                ),
            ),
            max_size=12,
        )
    )
    def test_any_chunking_of_any_bytes_stays_typed_and_bounded(self, chunks):
        decoder = FrameDecoder(MAX_REQUEST_BYTES)
        for chunk in chunks:
            try:
                frames = decoder.feed(chunk)
            except ProtocolError as exc:
                assert all(type(frame) is dict for frame in exc.frames)
                assert decoder.pending_bytes == 0
                return
            assert all(type(frame) is dict for frame in frames)
            assert decoder.pending_bytes <= MAX_REQUEST_BYTES + HEADER.size


def _json_round_trip(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


_ids = st.one_of(
    st.integers(min_value=0, max_value=2**70),  # beyond u64 forces fallback
    st.integers(min_value=-5, max_value=5),
    st.booleans(),
)
_times = st.integers(min_value=-3, max_value=2**70)
_tenants = st.one_of(st.text(max_size=12), st.integers(), st.none())

_mutation_requests = st.builds(
    lambda op, rid, tenant, resource, when: request(
        op, rid, tenant=tenant, resource=resource, time=when
    ),
    st.sampled_from(["acquire", "renew", "release"]),
    _ids, _tenants, _times, _times,
)
_tick_requests = st.builds(
    lambda rid, when: request("tick", rid, time=when), _ids, _times
)
_control_requests = st.builds(
    lambda op, rid, extra: request(op, rid, **extra),
    st.sampled_from(["hello", "stats", "report", "trace", "drain", "shutdown"]),
    _ids,
    st.one_of(st.just({}), st.just({"codec": "bin"}), st.just({"codec": "??"})),
)
_grants = st.builds(
    lambda gid, tenant, resource, acq, exp, rel: {
        "grant_id": gid, "tenant": tenant, "resource": resource,
        "acquired_at": acq, "expires_at": exp, "released_at": rel,
    },
    _ids, _tenants, _times, _times, _times,
    st.one_of(st.none(), _times),
)
_ok_responses = st.one_of(
    st.builds(
        lambda rid, grant, when: ok(rid, {"grant": grant, "applied_time": when}),
        _ids, st.one_of(st.none(), _grants), _times,
    ),
    st.builds(lambda rid, when: ok(rid, {"applied_time": when}), _ids, _times),
    st.builds(
        lambda rid, result: ok(rid, result),
        _ids,
        st.dictionaries(
            st.text(max_size=8),
            st.one_of(st.integers(), st.text(max_size=8), st.none(),
                      st.lists(st.integers(), max_size=3)),
            max_size=4,
        ),
    ),
)
_error_responses = st.builds(
    lambda rid, kind, message: error(rid, kind, message),
    _ids, st.sampled_from(["protocol", "model", "draining", "backpressure"]),
    st.text(max_size=20),
)
_frames = st.one_of(
    _mutation_requests, _tick_requests, _control_requests,
    _ok_responses, _error_responses,
)


class TestBinaryCodec:
    @settings(max_examples=300, deadline=None)
    @given(_frames)
    def test_round_trips_all_frame_types_like_json(self, payload):
        """The acceptance property: for every frame type — hot-shape or
        not, in-range or fallback — decoding the binary encoding yields
        exactly what the JSON codec carries for the same payload."""
        via_json = _json_round_trip(payload)
        assert decode_body_bin(encode_body_bin(payload)) == via_json
        # And through the full framing layer, both codecs agree.
        decoder = FrameDecoder()
        frames = decoder.feed(
            encode_frame(payload, CODEC_BIN) + encode_frame(payload, CODEC_JSON)
        )
        assert frames == [via_json, via_json]

    def test_hot_shapes_take_the_packed_path(self):
        # kind tags: 0 = embedded JSON fallback, 1..3 = packed layouts.
        assert encode_body_bin(
            request("acquire", 1, tenant="t", resource=2, time=3)
        )[0] == 1
        assert encode_body_bin(request("tick", 4, time=9))[0] == 1
        assert encode_body_bin(
            ok(7, {"grant": None, "applied_time": 4})
        )[0] == 2
        assert encode_body_bin(ok(7, {"applied_time": 4}))[0] == 3
        # Out-of-range or off-shape payloads fall back to embedded JSON.
        assert encode_body_bin(
            request("acquire", 1, tenant="t", resource=-2, time=3)
        )[0] == 0
        assert encode_body_bin(error(1, "model", "nope"))[0] == 0

    def test_packed_mutation_is_smaller_than_json(self):
        payload = request("acquire", 123, tenant="tenant-r7-1", resource=7, time=402)
        assert len(encode_frame(payload, CODEC_BIN)) < len(encode_frame(payload))

    def test_interleaved_codecs_survive_any_fragmentation(self):
        payloads = [
            request("acquire", 1, tenant="a", resource=0, time=0),
            request("tick", 2, time=5),
            ok(1, {"applied_time": 5}),
            error(2, "backpressure", "window full"),
            request("hello", 3, codec="bin"),
        ]
        stream = b"".join(
            encode_frame(p, CODEC_BIN if n % 2 else CODEC_JSON)
            for n, p in enumerate(payloads)
        )
        expected = [_json_round_trip(p) for p in payloads]
        for chunk in (1, 2, 3, 5, 11, len(stream)):
            decoder = FrameDecoder()
            seen = []
            for start in range(0, len(stream), chunk):
                seen.extend(decoder.feed(stream[start:start + chunk]))
            assert seen == expected
            assert decoder.pending_bytes == 0

    def test_oversize_binary_length_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(HEADER.pack((MAX_FRAME_BYTES + 1) | BIN_FLAG))

    def test_garbage_binary_bodies_rejected(self):
        with pytest.raises(ProtocolError):
            decode_body_bin(b"")
        with pytest.raises(ProtocolError):
            decode_body_bin(bytes([77]) + b"junk")
        with pytest.raises(ProtocolError):
            decode_body_bin(bytes([1, 0]))  # truncated mutation layout

    def test_truncated_tenant_bytes_rejected_not_shortened(self):
        """A frame whose tenant_len exceeds the carried bytes must raise
        — a silent slice would apply the op under the wrong tenant."""
        full = encode_body_bin(
            request("acquire", 1, tenant="tenant-long-name", resource=2, time=3)
        )
        assert full[0] == 1  # packed path, tenant bytes at the tail
        with pytest.raises(ProtocolError):
            decode_body_bin(full[:-4])
        grant_frame = encode_body_bin(
            ok(7, {"grant": {"grant_id": 9, "tenant": "somebody",
                             "resource": 1, "acquired_at": 3, "expires_at": 8,
                             "released_at": None}, "applied_time": 3})
        )
        assert grant_frame[0] == 2
        with pytest.raises(ProtocolError):
            decode_body_bin(grant_frame[:-3])

    def test_negotiate_codec_upgrades_only_on_exact_request(self):
        assert negotiate_codec("bin") == CODEC_BIN
        assert negotiate_codec("json") == CODEC_JSON
        assert negotiate_codec(None) == CODEC_JSON
        assert negotiate_codec("zstd") == CODEC_JSON
        assert negotiate_codec(7) == CODEC_JSON


class TestEnvelopes:
    def test_request_envelope(self):
        assert request("acquire", 9, tenant="t", resource=1, time=4) == {
            "id": 9,
            "op": "acquire",
            "tenant": "t",
            "resource": 1,
            "time": 4,
        }

    def test_ok_frame_parses_to_result(self):
        assert parse_response(ok(3, {"x": 1})) == {"x": 1}

    def test_error_frame_raises_with_kind(self):
        with pytest.raises(ServeError) as err:
            parse_response(error(3, "backpressure", "window full"))
        assert err.value.kind == "backpressure"
        assert "window full" in err.value.message

    def test_malformed_error_frame_still_raises(self):
        with pytest.raises(ServeError) as err:
            parse_response({"id": 1, "ok": False})
        assert err.value.kind == "protocol"
