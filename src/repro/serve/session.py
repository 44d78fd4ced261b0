"""Per-tenant sessions: served counts and idle expiry.

The server keys a :class:`TenantSession` by tenant name — not by
connection, since a tenant may spread its traffic over a pooled set of
sockets.  A session counts the tenant's answered mutations and remembers
when it last sent one.  The server applies every frame where it is read,
so nothing is ever in flight at apply time and a session needs no
window: a tenant that pipelines is bounded by the socket (the server
stops reading while a connection's replies are unwritten) and by the
request-size cap, not by a per-tenant counter.

Sessions are bookkeeping, and tenants come and go; a reaper sweep drops
sessions that have been idle longer than ``idle_timeout`` seconds of
wall clock.  Expiry forgets only counters — grants and leases live in
the brokers and are untouched.

The registry is deliberately loop-agnostic pure Python (the clock is an
injectable callable), so its semantics are unit-testable without a
server or a socket.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable


@dataclass(slots=True)
class TenantSession:
    """One tenant's serving-side counters."""

    tenant: str
    served: int = 0
    last_active: float = 0.0


class SessionRegistry:
    """All live tenant sessions, with an idle reaper.

    Args:
        idle_timeout: seconds of inactivity before :meth:`expire_idle`
            drops a session.
        clock: monotonic-seconds source; injectable for tests.
        expiry_counter: anything with ``.inc()``, bumped by the number of
            sessions each :meth:`expire_idle` sweep reaps (the server
            passes its registry's ``serve_session_expiries_total``);
            ``None`` = no call.
    """

    def __init__(
        self,
        idle_timeout: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
        expiry_counter=None,
    ):
        if idle_timeout <= 0:
            raise ValueError("idle_timeout must be > 0 seconds")
        self.idle_timeout = idle_timeout
        self._clock = clock
        self._expiry_counter = expiry_counter
        self._sessions: dict[str, TenantSession] = {}
        self.expired_total = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def session(self, tenant: str) -> TenantSession:
        """The tenant's session, created (and touched) on first sight."""
        record = self._sessions.get(tenant)
        if record is None:
            record = TenantSession(tenant=tenant)
            self._sessions[tenant] = record
        record.last_active = self._clock()
        return record

    def served(self, tenant: str) -> None:
        """Count one mutation answered for ``tenant`` (touching it)."""
        self.session(tenant).served += 1

    def expire_idle(self) -> tuple[str, ...]:
        """Drop every session idle past the timeout."""
        now = self._clock()
        doomed = tuple(
            tenant
            for tenant, record in self._sessions.items()
            if now - record.last_active > self.idle_timeout
        )
        for tenant in doomed:
            del self._sessions[tenant]
        self.expired_total += len(doomed)
        if doomed and self._expiry_counter is not None:
            self._expiry_counter.inc(len(doomed))
        return doomed

    def snapshot(self) -> dict:
        """JSON-ready registry view for the ``stats`` op."""
        return {
            "tenants": len(self._sessions),
            "idle_timeout": self.idle_timeout,
            "expired_total": self.expired_total,
            "served": sum(s.served for s in self._sessions.values()),
        }

    def tenant_snapshot(self) -> list[dict]:
        """JSON-ready per-tenant rows for the admin health endpoint.

        One row per live session, sorted by tenant name so the output
        is stable across calls; ``idle_sec`` is seconds since the
        tenant's last request on the injected clock.
        """
        now = self._clock()
        return [
            {
                "tenant": record.tenant,
                "served": record.served,
                "idle_sec": round(now - record.last_active, 3),
            }
            for record in sorted(
                self._sessions.values(), key=lambda record: record.tenant
            )
        ]
