"""Session semantics: served counts and idle expiry, clock-injected."""

import pytest

from repro.serve.session import SessionRegistry


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


class TestServedCounts:
    def test_served_counts_are_per_tenant(self, clock):
        registry = SessionRegistry(idle_timeout=10.0, clock=clock)
        registry.served("a")
        registry.served("a")
        registry.served("b")
        rows = {row["tenant"]: row["served"] for row in registry.tenant_snapshot()}
        assert rows == {"a": 2, "b": 1}
        assert registry.snapshot()["served"] == 3
        assert registry.snapshot()["tenants"] == 2


class TestIdleExpiry:
    def test_idle_sessions_expire(self, clock):
        registry = SessionRegistry(idle_timeout=5.0, clock=clock)
        registry.served("t")
        clock.now = 6.0
        assert registry.expire_idle() == ("t",)
        assert len(registry) == 0
        assert registry.expired_total == 1

    def test_active_sessions_survive_sweeps(self, clock):
        registry = SessionRegistry(idle_timeout=5.0, clock=clock)
        registry.served("idle")
        clock.now = 96.0
        registry.served("busy")  # sent a request within the timeout
        clock.now = 100.0
        assert registry.expire_idle() == ("idle",)
        assert len(registry) == 1

    def test_expiries_feed_the_injected_counter(self, clock):
        from repro.obs import Counter

        expiries = Counter()
        registry = SessionRegistry(
            idle_timeout=5.0, clock=clock, expiry_counter=expiries,
        )
        for tenant in ("a", "b"):
            registry.served(tenant)
        clock.now = 6.0
        assert registry.expire_idle() == ("a", "b")
        assert expiries.value == 2

    def test_touch_resets_the_idle_timer(self, clock):
        registry = SessionRegistry(idle_timeout=5.0, clock=clock)
        registry.served("t")
        clock.now = 4.0
        registry.session("t")  # fresh request traffic
        clock.now = 8.0  # 4s since touch, 8s since first request
        assert registry.expire_idle() == ()
