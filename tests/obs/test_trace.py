"""Trace sink: span shape, buffering/flush behaviour, the disabled
null path, and the injectable clock contract."""

import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import NULL_TRACE, TraceSink, load_spans
from repro.obs import trace as trace_module
from repro.obs.trace import _ENCODE


def _read_spans(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestTraceSink:
    def test_span_shape_and_flush(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = TraceSink(str(path))
        sink.span(
            op="acquire", tenant="t0", resource=3, request_id=7,
            t_enq=1.0, t_disp=1.5, t_reply=2.0,
        )
        assert sink.emitted == 1
        assert _read_spans(path) == []  # buffered, not yet flushed
        sink.flush()
        (span,) = _read_spans(path)
        assert span == {
            "id": 7, "op": "acquire", "tenant": "t0", "resource": 3,
            "t_enq": 1.0, "t_disp": 1.5, "t_reply": 2.0,
        }

    def test_tick_span_with_no_request_id_is_valid_json(self, tmp_path):
        # Ticks dispatch with request_id=None: the fast-path line must
        # render JSON null, byte-identical to the encoder's output.
        path = tmp_path / "trace.jsonl"
        sink = TraceSink(str(path))
        sink.span(
            op="tick", tenant=None, resource=None, request_id=None,
            t_enq=1.0, t_disp=1.5, t_reply=2.0,
        )
        sink.flush()
        line = path.read_text().strip()
        assert json.loads(line)["id"] is None
        assert line == json.dumps(
            {
                "id": None, "op": "tick", "resource": None,
                "t_disp": 1.5, "t_enq": 1.0, "t_reply": 2.0,
                "tenant": None,
            },
            sort_keys=True, separators=(",", ":"),
        )

    def test_auto_flush_every_n_emits(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = TraceSink(str(path), flush_every=4)
        for i in range(9):
            sink.emit({"i": i})
        # Two full buffers flushed; the ninth span still buffered.
        assert len(_read_spans(path)) == 8
        sink.close()
        assert [s["i"] for s in _read_spans(path)] == list(range(9))

    def test_construction_appends_to_an_existing_file(self, tmp_path):
        # A respawned worker reopens its trace path and must keep the
        # spans its previous incarnation wrote before crashing.
        path = tmp_path / "trace.jsonl"
        path.write_text('{"id": 1, "op": "pre-crash"}\n')
        sink = TraceSink(str(path))
        sink.emit({"id": 2, "op": "post-respawn"})
        sink.close()
        assert [s["op"] for s in _read_spans(path)] == [
            "pre-crash", "post-respawn",
        ]

    def test_construction_creates_a_missing_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        TraceSink(str(path))
        assert path.exists()
        assert _read_spans(path) == []

    def test_traced_span_carries_the_trace_context(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = TraceSink(str(path))
        sink.span(
            op="acquire", tenant="t0", resource=3, request_id=7,
            t_enq=1.0, t_disp=1.5, t_reply=2.0,
            trace="ab" * 8, span_id="cd" * 8, parent=None, kind="dispatch",
        )
        sink.flush()
        (span,) = _read_spans(path)
        assert span["trace"] == "ab" * 8
        assert span["span_id"] == "cd" * 8
        assert span["parent"] is None
        assert span["kind"] == "dispatch"

    def test_live_spans_covers_buffer_and_prior_incarnation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"id": 1}\n')
        sink = TraceSink(str(path))
        sink.emit({"id": 2})  # still buffered
        spans = sink.live_spans()
        assert [s["id"] for s in spans] == [1, 2]
        # live_spans flushed the buffer as a side effect.
        assert [s["id"] for s in _read_spans(path)] == [1, 2]

    def test_live_spans_is_empty_when_disabled(self):
        assert NULL_TRACE.live_spans() == []

    def test_close_disables_further_emits(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = TraceSink(str(path))
        sink.emit({"a": 1})
        sink.close()
        sink.emit({"b": 2})
        assert len(_read_spans(path)) == 1

    def test_injectable_clock_is_carried(self, tmp_path):
        clock = lambda: 123.0  # noqa: E731
        sink = TraceSink(str(tmp_path / "t.jsonl"), clock=clock)
        assert sink.clock is clock

    def test_null_sink_does_nothing(self):
        NULL_TRACE.emit({"x": 1})
        NULL_TRACE.span(
            op="tick", tenant=None, resource=None, request_id=None,
            t_enq=0.0, t_disp=0.0, t_reply=0.0,
        )
        NULL_TRACE.flush()
        assert NULL_TRACE.enabled is False
        assert NULL_TRACE.emitted == 0


def _traced(sink, trace, **extra):
    fields = dict(
        op="acquire", tenant="t0", resource=3, request_id=7,
        t_enq=1.0, t_disp=1.5, t_reply=2.0, trace=trace,
        span_id="cd" * 8, parent=None, kind="dispatch",
    )
    fields.update(extra)
    sink.span(**fields)


def _rendered(fields):
    """The old rendering: the span's dict through the sorted-key encoder."""
    span = dict(fields)
    if "request_id" in span:
        span["id"] = span.pop("request_id")
    return _ENCODE(span)


def _by_scan(sink, trace):
    return [s for s in sink.live_spans() if s.get("trace") == trace]


class TestLineReader:
    """One bad line — a torn tail, a non-object, deep nesting — must
    not poison the live reader; the offline loader names it instead."""

    def test_torn_tail_respawn_keeps_reading(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"id": 1, "trace": "aa"}\n{"id": 2, "op": "acq')
        sink = TraceSink(str(path))
        _traced(sink, "aa")
        spans = sink.live_spans()
        assert [s["id"] for s in spans] == [1, 7]
        assert sink.skipped == 1
        # The respawned sink ended the torn line before its own.
        assert path.read_text().splitlines()[1] == '{"id": 2, "op": "acq'
        assert [s["id"] for s in sink.live_spans("aa")] == [1, 7]

    def test_non_object_and_deep_lines_are_skipped_and_counted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("[1]\n" + "[" * 200_000 + "\n" + '{"id": 3}\n')
        sink = TraceSink(str(path))
        assert sink.live_spans() == [{"id": 3}]
        assert sink.skipped == 2
        assert sink.live_spans("aa") == []

    def test_load_spans_names_the_bad_line(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text('{"id": 1}\n' + "[" * 200_000 + "\n")
        with pytest.raises(ValueError, match=r"deep\.jsonl:2: .*nests too deeply"):
            load_spans([path])
        path.write_bytes(b'{"id": 1}\n\n{"id": "\xff"}\n')
        with pytest.raises(ValueError, match=r"deep\.jsonl:3: "):
            load_spans([path])

    @given(st.binary(max_size=512))
    def test_any_file_content_reads_as_dicts_or_a_value_error(self, content):
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "trace.jsonl")
            with open(path, "wb") as handle:
                handle.write(content)
            try:
                loaded = load_spans([path])
            except ValueError:
                pass
            else:
                assert all(isinstance(s, dict) for s in loaded)
            sink = TraceSink(path)
            sink.emit({"id": 1, "trace": "ab"})
            spans = sink.live_spans()
            assert all(isinstance(s, dict) for s in spans)
            assert spans[-1] == {"id": 1, "trace": "ab"}
            assert sink.live_spans("ab") == _by_scan(sink, "ab")


class TestByIdFallbacks:
    def test_evicted_trace_reads_the_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(trace_module, "_INDEX_SPANS", 2)
        sink = TraceSink(str(tmp_path / "trace.jsonl"))
        _traced(sink, "aa", request_id=1)
        _traced(sink, "bb", request_id=2)
        _traced(sink, "cc", request_id=3)  # evicts "aa"
        _traced(sink, "aa", request_id=4)  # not re-indexed
        assert "aa" not in sink._index
        assert [s["id"] for s in sink.live_spans("aa")] == [1, 4]
        assert [s["id"] for s in sink.live_spans("cc")] == [3]

    def test_a_second_writer_sends_queries_to_the_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        first = TraceSink(str(path))
        _traced(first, "aa", request_id=1)
        first.flush()
        second = TraceSink(str(path))
        _traced(second, "aa", request_id=2)
        second.flush()
        assert [s["id"] for s in first.live_spans("aa")] == [1, 2]
        assert [s["id"] for s in first.live_spans("bb")] == []


class TestQuotedCache:
    def test_distinct_tenants_stop_at_the_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(trace_module, "_QUOTED", {})
        path = tmp_path / "trace.jsonl"
        sink = TraceSink(str(path))
        expected = []
        ids = set()
        for i in range(10_000):
            fields = dict(
                op="acquire", tenant=f"tenant-{i}", resource=i % 16,
                request_id=i, t_enq=i + 0.25, t_disp=i + 0.5,
                t_reply=i + 0.75,
            )
            if i % 2:
                fields.update(
                    trace=f"{i:016x}", span_id=f"{i + 1:016x}",
                    parent=f"{i + 2:016x}", kind="relay",
                )
                ids.update((fields["trace"], fields["span_id"],
                            fields["parent"]))
            sink.span(**fields)
            expected.append(_rendered(fields))
        sink.flush()
        assert len(trace_module._QUOTED) == trace_module._QUOTED_MAX
        assert not ids & trace_module._QUOTED.keys()
        assert path.read_text().splitlines() == expected


_IDS = [f"{i:016x}" for i in range(1, 9)]
_floats = st.floats(allow_nan=False, allow_infinity=False)
_ints = st.integers(min_value=-2**63, max_value=2**63)
_untraced = st.fixed_dictionaries({
    "op": st.sampled_from(["acquire", "release", "tick"]),
    "tenant": st.one_of(st.none(), st.text(max_size=4)),
    "resource": st.one_of(st.none(), _ints),
    "request_id": st.one_of(st.none(), _ints),
    "t_enq": _floats, "t_disp": _floats, "t_reply": _floats,
})
_traced_span = st.fixed_dictionaries({
    "op": st.sampled_from(["acquire", "renew", "tick"]),
    "tenant": st.one_of(st.none(), st.text(max_size=4)),
    "resource": st.one_of(st.none(), _ints),
    "request_id": st.one_of(st.none(), _ints, st.text(max_size=3)),
    "t_enq": _floats, "t_disp": _floats, "t_reply": _floats,
    "trace": st.sampled_from(_IDS),
    "span_id": st.one_of(st.none(), st.sampled_from(_IDS)),
    "parent": st.one_of(st.none(), st.sampled_from(_IDS)),
    "kind": st.one_of(st.none(), st.sampled_from(["client", "relay", "dispatch"])),
})
_action = st.one_of(
    st.tuples(st.just("span"), _untraced),
    st.tuples(st.just("span"), _traced_span),
    st.tuples(st.just("emit"), st.fixed_dictionaries({
        "trace": st.sampled_from(_IDS), "n": _ints,
    })),
    st.tuples(st.just("check"), st.none()),
)
# A respawn: the old sink dies with its buffer unflushed or flushed,
# optionally mid-line (a torn tail), and a new sink reopens the path.
_respawn = st.tuples(st.booleans(), st.integers(min_value=0, max_value=40))


class TestByIdIndex:
    """The by-id answer equals the file scan it replaces."""

    @given(
        first=st.lists(_action, max_size=40),
        traced=st.lists(
            st.tuples(st.just("span"), _traced_span), min_size=7,
            max_size=30,
        ),
        then=st.lists(_action, max_size=40),
        later=st.lists(
            st.tuples(_respawn, st.lists(_action, max_size=30)),
            min_size=1, max_size=2,
        ),
    )
    def test_index_answers_equal_the_file_scan(self, first, traced, then,
                                               later):
        cap = 6
        with tempfile.TemporaryDirectory() as workdir, \
                mock.patch.object(trace_module, "_INDEX_SPANS", cap):
            path = os.path.join(workdir, "trace.jsonl")
            sink = TraceSink(path, flush_every=5)
            self._drive(sink, first + traced + then, cap)
            assert sink._evicted  # more traced spans than the cap
            for (flushed, torn), actions in later:
                if flushed:
                    sink.flush()
                if torn:
                    line = _ENCODE({"id": 0, "trace": _IDS[0]})
                    with open(path, "a", encoding="utf-8") as handle:
                        handle.write(line[:torn])
                sink = TraceSink(path, flush_every=5)
                self._drive(sink, actions, cap)
            self._check(sink)

    def _drive(self, sink, actions, cap):
        for kind, fields in actions:
            if kind == "span":
                sink.span(**fields)
            elif kind == "emit":
                sink.emit(fields)
            else:
                self._check(sink)
                continue
            assert self._last_line(sink) == _rendered(fields)
            index = sink._index
            if index is not None:
                assert sink._indexed == sum(map(len, index.values())) <= cap

    @staticmethod
    def _last_line(sink):
        if sink._buffer:
            return sink._buffer[-1]
        with open(sink.path, encoding="utf-8") as handle:
            return handle.read().splitlines()[-1]

    def _check(self, sink):
        for trace in [*_IDS, "f" * 16]:
            assert sink.live_spans(trace) == _by_scan(sink, trace)
