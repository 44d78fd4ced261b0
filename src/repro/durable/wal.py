"""Per-shard write-ahead log and grant-table snapshots.

One :class:`ShardWal` owns a directory holding two files:

* ``wal.log`` — an append-only sequence of *applied-event records*.
  Each record is one binary-codec wire frame (the PR 4 mutation layout,
  header and all): ``op`` is the applied operation (``acquire`` —
  covering renews too, exactly like the applied-trace stream —
  ``release``, or ``tick``), the envelope's u64 ``id`` field carries the
  shard's monotonic *sequence number*, and ``time`` is the post-ratchet
  applied day.  Reusing the wire frame buys the codec's torn-write
  semantics for free: a record cut short by a crash is an incomplete
  frame, which recovery simply ignores.
* ``snap.json`` — the latest broker snapshot
  (:meth:`~repro.engine.broker.LeaseBroker.snapshot_state`), the
  sequence number it covers, and — when the server records applied
  traces — the applied event list itself, so the ``trace`` op stays
  exact across recovery and WAL truncation.  Written atomically
  (tmp + fsync + rename), after which the log is truncated.

The log handle is unbuffered: every append is a single ``write``
syscall, so a record sits in the OS page cache — and survives this
process's own death, ``kill -9`` included — the moment :meth:`append`
returns, under every fsync mode.  :meth:`append` only writes; the
**fsync policy** (``fsync=``) is applied by :meth:`commit`, which the
server calls once per read chunk for every shard the chunk wrote to,
before any of the chunk's replies leave the process (group commit).  It
only governs durability against a *host* crash: ``"off"`` never fsyncs,
``"batch"`` fsyncs at a commit at most every
:data:`BATCH_SYNC_INTERVAL` seconds, and ``"always"`` fsyncs at every
commit that follows an append, so every acked operation is on disk —
one fsync covers the whole chunk's records.  Only ``"always"`` makes an
acked operation power-loss durable; ``"batch"`` bounds that loss window
to the sync interval.  Recovery is correct under any mode: the recovered
state is exactly the prefix the log captured, and the cluster layer
re-drives anything un-acked.

**Recovery invariant.**  ``restore(snapshot) + replay(records with seq >
snapshot.seq)`` is byte-identical to the broker that wrote them — the
crash window between snapshot write and log truncation is covered by
the seq filter (duplicate records below the snapshot's seq are
skipped), and a torn final record is dropped at the frame boundary.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ModelError
from ..serve.protocol import (
    BIN_FLAG,
    HEADER,
    MUTATION_OPS,
    ProtocolError,
    _BIN_KIND_MUTATION,
    _MUTATION_OPCODES,
    _MUTATION_STRUCT,
    _split_header,
    decode_body,
    decode_body_bin,
)

#: Valid ``fsync=`` policies, weakest first.
FSYNC_MODES: tuple[str, ...] = ("off", "batch", "always")

#: Minimum seconds between fsyncs under ``fsync="batch"``.  The server
#: commits once per read chunk, and a lightly loaded server's chunks
#: hold one request each, which would degrade group commit into per-op
#: fsync; rate-limiting the sync keeps batch mode cheap while bounding
#: the power-loss window.  Appends land in the OS page cache immediately
#: (the handle is unbuffered), so only a *host* crash can eat the
#: portion synced less than this interval ago — the same order of window
#: as PostgreSQL's asynchronous commit or a metadata-journalled
#: filesystem's commit interval.  Every shard fsyncs on the event-loop
#: thread, so the interval also caps how often the whole server stalls
#: behind the disk.
BATCH_SYNC_INTERVAL = 0.25

#: Default applied-event count between automatic snapshots.
DEFAULT_SNAPSHOT_EVERY = 4096

SNAPSHOT_VERSION = 1

WAL_FILE = "wal.log"
SNAPSHOT_FILE = "snap.json"


def require_fsync_mode(mode: str) -> str:
    """Validate an ``fsync=`` policy name, returning it."""
    if mode not in FSYNC_MODES:
        raise ModelError(
            f"unknown fsync mode {mode!r}; known: {', '.join(FSYNC_MODES)}"
        )
    return mode


class ShardWal:
    """Append-only applied-event log plus snapshot for one shard.

    Args:
        directory: the shard's WAL directory (created if missing).
        fsync: durability policy; see the module docstring.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when given, appends/fsyncs/bytes/snapshots are counted under
            a ``shard`` label.
        shard: label value for the metrics series.
    """

    def __init__(
        self,
        directory: str | Path,
        fsync: str = "batch",
        metrics=None,
        shard: int | str = 0,
    ):
        self.fsync = require_fsync_mode(fsync)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.log_path = self.directory / WAL_FILE
        self.snapshot_path = self.directory / SNAPSHOT_FILE
        # Unbuffered: one write syscall per append, straight into the
        # OS page cache — no Python-side buffer to lose with the
        # process, and nothing to flush at burst boundaries.
        self._handle = open(self.log_path, "ab", buffering=0)
        #: Last sequence number appended (or recovered into).
        self.seq = 0
        #: Appends since the last snapshot, the snapshot-cadence counter.
        self.appended_since_snapshot = 0
        # Bytes written since the last fsync.
        self._dirty = False
        # Group-commit clock starts at open: the first sync lands once
        # the interval elapses, so the loss window is bounded from the
        # first append without paying an fsync on the first boundary.
        self._last_sync = time.monotonic()
        if metrics is not None:
            label = str(shard)
            self._appends = metrics.counter(
                "wal_appends_total", "WAL records appended", shard=label
            )
            self._fsyncs = metrics.counter(
                "wal_fsyncs_total", "WAL fsync calls", shard=label
            )
            self._bytes = metrics.counter(
                "wal_bytes_total", "WAL bytes written", shard=label
            )
            self._snapshots = metrics.counter(
                "wal_snapshots_total", "snapshots written", shard=label
            )
        else:
            self._appends = self._fsyncs = None
            self._bytes = self._snapshots = None

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(
        self,
        op: str,
        time: int,
        tenant: str | None = None,
        resource: int | None = None,
    ) -> int:
        """Append one applied-event record; returns its sequence number.

        Only writes: the record is durable against a host crash once a
        later :meth:`commit` fsyncs it.  The frame is packed directly
        into the binary
        mutation layout — byte-identical to
        ``encode_frame(request(op, seq, ...), CODEC_BIN)``, minus the
        dict round-trip, because this runs once per applied event on
        the serving hot path.
        """
        self.seq += 1
        if op == "tick":
            body = _MUTATION_STRUCT.pack(
                _BIN_KIND_MUTATION, _MUTATION_OPCODES["tick"],
                self.seq, time, 0, 0,
            )
        else:
            raw = tenant.encode("utf-8")
            body = _MUTATION_STRUCT.pack(
                _BIN_KIND_MUTATION, _MUTATION_OPCODES[op],
                self.seq, time, resource, len(raw),
            ) + raw
        frame = HEADER.pack(len(body) | BIN_FLAG) + body
        self._handle.write(frame)
        self.appended_since_snapshot += 1
        self._dirty = True
        if self._appends is not None:
            self._appends.inc()
            self._bytes.inc(len(frame))
        return self.seq

    def _sync(self) -> None:
        os.fsync(self._handle.fileno())
        self._dirty = False
        self._last_sync = time.monotonic()
        if self._fsyncs is not None:
            self._fsyncs.inc()

    def commit(self) -> None:
        """Commit boundary: fsync what was appended, per the policy.

        ``"always"`` fsyncs whenever anything was appended since the
        last sync — one fsync for however many records the caller's
        chunk wrote.  ``"batch"`` fsyncs only when the last sync is at
        least :data:`BATCH_SYNC_INTERVAL` old.  ``"off"`` does nothing.
        An fsync that raises leaves the log dirty, so the next commit
        tries again.
        """
        if not self._dirty or self.fsync == "off":
            return
        if (
            self.fsync == "always"
            or time.monotonic() - self._last_sync >= BATCH_SYNC_INTERVAL
        ):
            self._sync()

    # ------------------------------------------------------------------
    # Snapshots and truncation
    # ------------------------------------------------------------------
    def write_snapshot(
        self, state: dict, applied: list[dict] | None = None
    ) -> None:
        """Atomically persist a broker snapshot, then truncate the log.

        The snapshot lands via tmp + fsync + rename, so a crash leaves
        either the old snapshot or the new one, never a torn file.  The
        log is truncated only *after* the rename; a crash in between
        merely leaves records the next recovery skips by seq.
        """
        document = {
            "version": SNAPSHOT_VERSION,
            "seq": self.seq,
            "state": state,
            "applied": applied,
        }
        tmp_path = self.snapshot_path.with_name(SNAPSHOT_FILE + ".tmp")
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.snapshot_path)
        self._fsync_directory()
        # Truncate: everything up to `seq` now lives in the snapshot.
        self._handle.close()
        self._handle = open(self.log_path, "wb", buffering=0)
        self._dirty = False
        self.appended_since_snapshot = 0
        if self._snapshots is not None:
            self._snapshots.inc()

    def _fsync_directory(self) -> None:
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def close(self) -> None:
        """Close the log handle, syncing a dirty log first (unless off).

        The sync ignores the batch clock — a clean close should leave no
        power-loss window behind, whatever the group-commit clock says.
        """
        if not self._handle.closed:
            if self._dirty and self.fsync != "off":
                self._sync()
            self._handle.close()


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ShardRecovery:
    """What one shard directory yields on restart.

    ``state`` is the snapshot's broker state (``None`` for a cold
    start), ``applied`` the snapshot's embedded applied-event payloads
    (``None`` unless the server was recording), ``records`` the log
    records past the snapshot in seq order, and ``last_seq`` the highest
    sequence number recovered — the value a fresh :class:`ShardWal`
    should continue from.
    """

    state: dict | None = None
    applied: list[dict] | None = None
    records: list[dict] = field(default_factory=list)
    last_seq: int = 0

    @property
    def events(self) -> int:
        """How many log records will be replayed."""
        return len(self.records)


def read_wal_records(path: str | Path) -> list[dict]:
    """Decode every complete record of one WAL file, in file order.

    Stops at the first incomplete frame (a torn final write) or
    undecodable record (tail corruption) — everything before the cut is
    kept, which is exactly the durable prefix the fsync policy promised.
    """
    data = Path(path).read_bytes()
    records: list[dict] = []
    offset = 0
    size = len(data)
    while size - offset >= HEADER.size:
        (word,) = HEADER.unpack_from(data, offset)
        try:
            length, binary = _split_header(word)
        except ProtocolError:
            break
        end = offset + HEADER.size + length
        if end > size:
            break  # torn final record
        body = data[offset + HEADER.size:end]
        try:
            payload = decode_body_bin(body) if binary else decode_body(body)
        except ProtocolError:
            break
        if (
            payload.get("op") in MUTATION_OPS
            and isinstance(payload.get("id"), int)
        ):
            records.append(payload)
        offset = end
    return records


def load_snapshot(path: str | Path) -> dict | None:
    """Read one ``snap.json``; ``None`` when absent.

    Whatever the file holds, the answer is a document with an integer
    ``seq``, a ``state`` object and an ``applied`` list (or null), or a
    :class:`~repro.errors.ModelError` naming the file.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and
        # integers past the digit limit; RecursionError deep nesting.
        raise ModelError(f"corrupt snapshot {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise ModelError(
            f"corrupt snapshot {path}: expected an object, "
            f"got {type(document).__name__}"
        )
    if document.get("version") != SNAPSHOT_VERSION:
        raise ModelError(
            f"{path}: unsupported snapshot version "
            f"{document.get('version')!r}"
        )
    seq = document.get("seq")
    if type(seq) is not int or seq < 0:
        raise ModelError(f"corrupt snapshot {path}: bad seq {seq!r}")
    if not isinstance(document.get("state"), dict):
        raise ModelError(f"corrupt snapshot {path}: missing state object")
    if not isinstance(document.get("applied", []), (list, type(None))):
        raise ModelError(f"corrupt snapshot {path}: applied is not a list")
    return document


def recover_shard(directory: str | Path) -> ShardRecovery:
    """Load a shard directory back into snapshot + replayable records.

    Records at or below the snapshot's sequence number are skipped —
    they double-cover the window between a snapshot landing and the log
    truncating, should a crash split the two.
    """
    directory = Path(directory)
    recovery = ShardRecovery()
    snapshot = load_snapshot(directory / SNAPSHOT_FILE)
    if snapshot is not None:
        recovery.state = snapshot["state"]
        recovery.applied = snapshot.get("applied")
        recovery.last_seq = snapshot["seq"]
    log_path = directory / WAL_FILE
    if log_path.exists():
        for record in read_wal_records(log_path):
            if record["id"] > recovery.last_seq:
                recovery.records.append(record)
                recovery.last_seq = record["id"]
    return recovery
