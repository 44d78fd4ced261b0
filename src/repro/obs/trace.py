"""Flag-gated structured tracing: one JSON object per op, one per line.

A :class:`TraceSink` is the ops-plane counterpart of the metrics
registry: where histograms aggregate, the sink keeps every span.  The
server's dispatch loop emits one span per queued op — request id,
tenant, resource, op kind, and the enqueue/dispatch/reply timestamps
from the sink's injectable monotonic clock — so a captured trace can be
replayed against the latency histograms (`t_reply - t_enq` per line is
exactly what ``serve_op_latency_seconds`` observed).

Tracing is off unless a path is configured (``--trace-jsonl`` on
``engine serve``); the disabled sink is a shared null object whose
``emit`` is a no-op, keeping the hot path allocation-free.  Spans never
feed verified reports: timestamps are wall-clock and the byte-identity
gates run with tracing both on and off.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from json.encoder import encode_basestring_ascii as _encode_str

#: One shared encoder for the generic emit path.  ``json.dumps`` with
#: non-default kwargs builds a fresh ``JSONEncoder`` per call, which is
#: most of the per-span cost; a cached encoder halves it.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: str value -> its JSON rendering, for the op/tenant/kind strings a
#: server sees.  Rendering a span is the per-request cost of tracing, and
#: those fields repeat from a small set, so caching their quoted forms
#: lets :meth:`TraceSink.span` build its line with one f-string instead
#: of a dict build plus a full encode.  Tenants are client-chosen, so the
#: cache stops growing at :data:`_QUOTED_MAX` values; trace and span ids
#: never repeat and never enter it.
_QUOTED: dict = {}
_QUOTED_MAX = 1024

#: Spans the by-id index of a :class:`TraceSink` holds at most.  It
#: evicts whole traces, oldest first.
_INDEX_SPANS = 4096


def _json(value) -> str:
    """``_ENCODE(value)`` for one span field, with the common types inline."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return repr(value)
    if value is None:
        return "null"
    return _ENCODE(value)


def _quoted(value) -> str:
    if type(value) is not str:
        return _json(value)
    rendered = _QUOTED.get(value)
    if rendered is None:
        rendered = _encode_str(value)
        if len(_QUOTED) < _QUOTED_MAX:
            _QUOTED[value] = rendered
    return rendered


def parse_span(line: bytes | str) -> dict:
    """One span-file line as a dict.

    The one line reader behind both :meth:`TraceSink.live_spans` and the
    offline :func:`~repro.obs.tracetree.load_spans`.  Raises
    ``ValueError`` (``json.JSONDecodeError`` for malformed JSON) for a
    line that is not UTF-8, not JSON, nested too deeply to decode, or
    not a JSON object.
    """
    if type(line) is bytes:
        line = line.decode("utf-8")
    try:
        span = json.loads(line)
    except RecursionError:
        raise ValueError("span line nests too deeply") from None
    if not isinstance(span, dict):
        raise ValueError("span line is not a JSON object")
    return span


class TraceSink:
    """Append-only JSONL span writer with an injectable clock.

    Spans are buffered in-process and flushed on every ``flush()`` /
    ``close()`` and every ``flush_every`` emits, so a crashed process
    loses at most one buffer of spans while the hot path stays a list
    append plus one f-string.

    A sink also keeps the rendered lines of its recent traced spans in
    memory, keyed by trace id, so that :meth:`live_spans` answers a
    by-id query without reading the file back.  The index holds at most
    :data:`_INDEX_SPANS` spans and evicts whole traces, oldest first.
    It remembers the ids it evicted, so a trace that gets another span
    after its eviction is answered from the file.  Over a file an
    earlier incarnation wrote, the sink keeps no index at all.
    """

    __slots__ = (
        "path", "clock", "enabled", "emitted", "skipped", "_buffer",
        "_flush_every", "_size", "_index", "_order", "_indexed", "_evicted",
    )

    def __init__(self, path=None, *, clock=time.monotonic, flush_every: int = 256):
        self.path = path
        self.clock = clock
        self.enabled = path is not None
        self.emitted = 0
        #: Unreadable span-file lines reads have skipped so far (a line
        #: counts once per read that meets it).
        self.skipped = 0
        self._buffer: list[str] = []
        self._flush_every = max(1, int(flush_every))
        self._size = 0
        self._index: dict[str, list[str]] | None = None
        self._order: deque = deque()
        self._indexed = 0
        self._evicted: set[str] = set()
        if self.enabled:
            # Append, never truncate: a respawned worker reopens the
            # same path and must keep its pre-crash spans (the federated
            # /trace/{id} and offline merge both rely on them).  Opening
            # in append mode still creates the file, so a run that emits
            # nothing leaves an (empty) trace file rather than none.
            # Like the WAL, the sink owns its directory: `engine cluster
            # --trace-root DIR` points every worker at a DIR nobody has
            # made yet.
            parent = os.path.dirname(str(self.path))
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(self.path, "a+b") as handle:
                size = handle.seek(0, os.SEEK_END)
                if size:
                    # A predecessor killed mid-flush leaves a torn last
                    # line: end it, so our first line starts a new one.
                    handle.seek(size - 1)
                    if handle.read(1) != b"\n":
                        handle.write(b"\n")
                        size += 1
            self._size = size
            if not size:
                self._index = {}

    def emit(self, span: dict) -> None:
        """Record one span (a flat JSON-serialisable dict)."""
        if not self.enabled:
            return
        line = _ENCODE(span)
        self._buffer.append(line)
        self.emitted += 1
        if self._index is not None:
            self._index_line(span.get("trace"), line)
        if len(self._buffer) >= self._flush_every:
            self.flush()

    def span(self, *, op: str, tenant, resource, request_id: int,
             t_enq: float, t_disp: float, t_reply: float,
             trace: str | None = None, span_id: str | None = None,
             parent: str | None = None, kind: str | None = None) -> None:
        """Emit the standard dispatch-loop span shape.

        The four optional fields carry the distributed trace context:
        ``trace`` is the 16-hex trace id shared by every hop of one op,
        ``span_id`` names this hop, ``parent`` names the hop that caused
        it (``None`` at the root), and ``kind`` says which hop this is
        (``client`` / ``dispatch``).  They are emitted only
        when a trace context was actually attached, so untraced spans
        keep the exact PR 6 shape.

        The line is built directly, keys in the order the sorted-key
        encoder emits them, so it is byte-identical to ``emit`` of the
        same fields.  The timestamps are finite floats, whose ``repr``
        is their JSON rendering.
        """
        if not self.enabled:
            return
        if trace is None:
            # The id is an int on every client op; only ticks leave it
            # unset.
            line = (
                f'{{"id":{"null" if request_id is None else request_id},'
                f'"op":{_quoted(op)},'
                f'"resource":{_json(resource)},"t_disp":{t_disp!r},'
                f'"t_enq":{t_enq!r},"t_reply":{t_reply!r},'
                f'"tenant":{_quoted(tenant)}}}'
            )
        else:
            line = (
                f'{{"id":{_json(request_id)},"kind":{_quoted(kind)},'
                f'"op":{_quoted(op)},"parent":{_json(parent)},'
                f'"resource":{_json(resource)},"span_id":{_json(span_id)},'
                f'"t_disp":{t_disp!r},"t_enq":{t_enq!r},'
                f'"t_reply":{t_reply!r},"tenant":{_quoted(tenant)},'
                f'"trace":{_json(trace)}}}'
            )
            if self._index is not None:
                self._index_line(trace, line)
        self._buffer.append(line)
        self.emitted += 1
        if len(self._buffer) >= self._flush_every:
            self.flush()

    def _index_line(self, trace, line: str) -> None:
        """File ``line`` under ``trace`` in the by-id index."""
        if not isinstance(trace, str):
            return  # untraced, or an id no str query can equal
        index = self._index
        lines = index.get(trace)
        if lines is None:
            if trace in self._evicted:
                return
            lines = index[trace] = []
            self._order.append(trace)
        lines.append(line)
        self._indexed += 1
        while self._indexed > _INDEX_SPANS:
            oldest = self._order.popleft()
            self._indexed -= len(index.pop(oldest))
            self._evicted.add(oldest)

    def flush(self) -> None:
        if not self.enabled or not self._buffer:
            return
        data = ("\n".join(self._buffer) + "\n").encode()
        with open(self.path, "ab") as handle:
            handle.write(data)
        self._size += len(data)
        self._buffer.clear()

    def live_spans(self, trace_id: str | None = None) -> list[dict]:
        """Every span this sink's file holds right now, parsed.

        Flushes the in-process buffer first, then reads the file back —
        so the result covers spans emitted moments ago *and* spans a
        previous incarnation of this process wrote before a crash (the
        file is opened append-mode at construction).  The read side of
        federated ``/trace/{id}``: a worker answers the router's
        ``spans`` verb with exactly this.  Empty when tracing is off.

        With ``trace_id``, only that trace's spans, in file order.  They
        come from the in-memory index when it holds the whole answer:
        the id was never evicted, the file held nothing when the sink
        opened, and the sink is the only writer since.  Otherwise the
        file is read as without an id.  Lines that are not JSON objects
        (a torn tail, say) are skipped and counted in ``skipped``.
        """
        if self.path is None:
            return []
        self.flush()
        if trace_id is not None:
            lines = self._indexed_lines(trace_id)
            if lines is not None:
                return self._parse(lines)
        try:
            with open(self.path, "rb") as handle:
                spans = self._parse(handle)
        except FileNotFoundError:
            return []
        if trace_id is not None:
            spans = [s for s in spans if s.get("trace") == trace_id]
        return spans

    def _indexed_lines(self, trace_id) -> list[str] | tuple | None:
        """Every line of ``trace_id`` in the file, or ``None`` if unsure."""
        index = self._index
        if index is None or type(trace_id) is not str:
            return None
        try:
            if os.stat(self.path).st_size != self._size:
                return None
        except OSError:
            return None
        lines = index.get(trace_id)
        if lines is None:
            return None if trace_id in self._evicted else ()
        return lines

    def _parse(self, lines) -> list[dict]:
        spans = []
        for line in lines:
            if not line.strip():
                continue
            try:
                spans.append(parse_span(line))
            except ValueError:
                self.skipped += 1
        return spans

    def close(self) -> None:
        self.flush()
        self.enabled = False


#: Shared disabled sink for callers that want "maybe tracing" without a
#: None check on the hot path.
NULL_TRACE = TraceSink(None)
