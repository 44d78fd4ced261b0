"""Columnar lease buffers: struct-packed bulk transport for ``Lease`` data.

Pickling a million-lease ``RunResult`` across a process pool serialises a
million dataclass instances one reference walk at a time.  This module
replaces that with a *columnar* codec: five flat arrays (resource, type
index, start, length as ``int64``; cost as ``float64``) packed into one
contiguous ``bytes`` payload, 40 bytes per lease, one ``memcpy`` to ship.

Two pieces:

* :func:`pack_leases` / :class:`LeaseView` — the codec.  ``LeaseView`` is
  a lazy, immutable :class:`~collections.abc.Sequence` over a payload:
  ``len`` is O(1), element access decodes one ``Lease`` on demand, and
  equality/hash match a tuple of the same leases, so views drop into
  result records unchanged.  Consumers that only need counts (the report
  renderer) never materialise a single ``Lease``.
* :func:`share_payload` / :func:`claim_payload` — optional
  :mod:`multiprocessing.shared_memory` transport for large payloads: the
  worker publishes the buffer under a name, the parent claims it with one
  copy and unlinks immediately, so the segment's lifetime is bounded by
  the claiming call and nothing ever travels through the pool pipe.

The sharded replay runner uses this for fan-out; everything else keeps
its plain tuples.
"""

from __future__ import annotations

import struct
from array import array
from typing import Iterator, Sequence

from ..errors import ModelError
from .lease import Lease

#: Payload header: magic, format version, lease count.
_HEADER = struct.Struct("<4sIQ")
_MAGIC = b"LEA\x01"
FORMAT_VERSION = 1
#: Bytes per lease in the packed columns (4 x int64 + 1 x float64).
LEASE_RECORD_SIZE = 40


def pack_leases(leases: Sequence[Lease]) -> bytes:
    """Pack leases into one contiguous columnar payload.

    Layout: header, then the five columns back to back —
    ``resource[n] | type_index[n] | start[n] | length[n]`` as little-endian
    ``int64`` and ``cost[n]`` as ``float64``.  Column order matches
    :class:`LeaseView`'s decoder; round-trip is exact (costs are stored as
    raw doubles, never reformatted).
    """
    n = len(leases)
    resources = array("q", bytes(8 * n))
    types = array("q", bytes(8 * n))
    starts = array("q", bytes(8 * n))
    lengths = array("q", bytes(8 * n))
    costs = array("d", bytes(8 * n))
    for i, lease in enumerate(leases):
        resources[i] = lease.resource
        types[i] = lease.type_index
        starts[i] = lease.start
        lengths[i] = lease.length
        costs[i] = lease.cost
    return b"".join(
        (
            _HEADER.pack(_MAGIC, FORMAT_VERSION, n),
            resources.tobytes(),
            types.tobytes(),
            starts.tobytes(),
            lengths.tobytes(),
            costs.tobytes(),
        )
    )


class LeaseView(Sequence):
    """A lazy, immutable sequence of :class:`Lease` over a packed payload.

    Decodes columns on first access and individual ``Lease`` objects on
    demand; ``len`` and per-index access never touch the other records.
    Equality and hashing are defined by content, matching a tuple of the
    same leases, so a view and the tuple it was packed from are
    interchangeable in result records and assertions.
    """

    __slots__ = ("_payload", "_count", "_columns", "_hash")

    def __init__(self, payload: bytes):
        if len(payload) < _HEADER.size:
            raise ModelError("lease payload too short for its header")
        magic, version, count = _HEADER.unpack_from(payload)
        if magic != _MAGIC or version != FORMAT_VERSION:
            raise ModelError(
                f"unsupported lease payload (magic {magic!r}, version {version})"
            )
        expected = _HEADER.size + count * LEASE_RECORD_SIZE
        if len(payload) != expected:
            raise ModelError(
                f"lease payload is {len(payload)} bytes; "
                f"{expected} expected for {count} leases"
            )
        self._payload = payload
        self._count = count
        self._columns: tuple[array, ...] | None = None
        self._hash: int | None = None

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _decode_columns(self) -> tuple[array, ...]:
        if self._columns is None:
            n = self._count
            offset = _HEADER.size
            columns = []
            for typecode in ("q", "q", "q", "q", "d"):
                column = array(typecode)
                column.frombytes(self._payload[offset:offset + 8 * n])
                columns.append(column)
                offset += 8 * n
            self._columns = tuple(columns)
        return self._columns

    @property
    def nbytes(self) -> int:
        """Size of the packed payload in bytes."""
        return len(self._payload)

    @property
    def payload(self) -> bytes:
        """The raw packed payload (shareable, immutable)."""
        return self._payload

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(
                self._lease_at(i) for i in range(*index.indices(self._count))
            )
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError("lease view index out of range")
        return self._lease_at(index)

    def _lease_at(self, i: int) -> Lease:
        resources, types, starts, lengths, costs = self._decode_columns()
        return Lease(
            resource=resources[i],
            type_index=types[i],
            start=starts[i],
            length=lengths[i],
            cost=costs[i],
        )

    def __iter__(self) -> Iterator[Lease]:
        if self._count:
            resources, types, starts, lengths, costs = self._decode_columns()
            for i in range(self._count):
                yield Lease(
                    resource=resources[i],
                    type_index=types[i],
                    start=starts[i],
                    length=lengths[i],
                    cost=costs[i],
                )

    def to_tuple(self) -> tuple[Lease, ...]:
        """Materialise every lease (the eager escape hatch)."""
        return tuple(self)

    # ------------------------------------------------------------------
    # Equality and hashing (content semantics, tuple-compatible)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, LeaseView):
            return self._payload == other._payload
        if isinstance(other, (tuple, list)):
            return len(other) == self._count and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __hash__(self) -> int:
        # Must match hash(tuple(...)) because views compare equal to
        # tuples of the same leases.
        if self._hash is None:
            self._hash = hash(self.to_tuple())
        return self._hash

    def __repr__(self) -> str:
        return f"LeaseView({self._count} leases, {self.nbytes} bytes)"


# ----------------------------------------------------------------------
# Shared-memory transport
# ----------------------------------------------------------------------
def share_payload(payload: bytes) -> tuple[str, int]:
    """Publish a payload in a shared-memory segment; returns ``(name, size)``.

    Intended for the *producing* process of a fork pool: the segment is
    closed locally (not unlinked) and deregistered from this process's
    resource tracker, because ownership transfers to whichever process
    calls :func:`claim_payload` — exactly once — with the returned name.
    """
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(create=True, size=max(1, len(payload)))
    try:
        segment.buf[: len(payload)] = payload
        name = segment.name
    finally:
        segment.close()
    _untrack(name)
    return name, len(payload)


def claim_payload(name: str, size: int) -> bytes:
    """Copy a payload out of a shared segment and unlink it.

    The single copy here is the only one the payload makes end to end;
    the segment is gone when this returns, so lifetimes stay bounded by
    the claiming call even when results are held indefinitely.
    """
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=name)
    try:
        payload = bytes(segment.buf[:size])
    finally:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass
    return payload


def _untrack(name: str) -> None:
    """Deregister a segment from this process's resource tracker.

    The tracker would otherwise unlink the segment when *this* process
    exits — racing the consumer that the name was handed to.  Failure is
    harmless (the consumer unlinks explicitly); it only risks a spurious
    leak warning on interpreters without the tracker API.
    """
    try:  # pragma: no cover - tracker internals vary across versions
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:
        pass
