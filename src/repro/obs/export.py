"""Scrape-time exporters: fold serving state into a metrics registry.

The ``metrics`` protocol verb is a *scrape*, not a stream: the server
(or the cluster router, for every worker it fronts) broadcasts the
internal ``stats`` barrier op, then folds the returned per-shard
payloads into a fresh registry with these exporters before rendering.
Broker counters therefore cost nothing on the hot path — they are read
once per scrape from the counters the broker already keeps — while the
continuously sampled families (latency histograms, byte counters) render
from the server's live registry and are simply concatenated after.

Both the server's and the router's ``metrics`` verb go through the same
two functions, so a clustered exposition shows the identical broker
families a single server would — just with a ``worker`` label in front
of the ``shard`` label.
"""

from __future__ import annotations

from .metrics import MetricsRegistry

_SHARD_GAUGES = (
    # (payload key, metric name, help)
    ("clock", "broker_clock_days", "Shard broker clock (simulated day)."),
    (
        "num_active",
        "broker_active_grants",
        "Grants currently live on the shard broker.",
    ),
    (
        "grant_table",
        "broker_grant_table_size",
        "Entries in the shard broker's grant table.",
    ),
    (
        "expiry_heap",
        "broker_expiry_heap_size",
        "Entries in the shard broker's expiry heap (including stale).",
    ),
)


def export_shards(
    registry: MetricsRegistry, shards: list, **labels
) -> None:
    """Fold per-shard ``stats`` payloads into ``registry``.

    ``shards`` is the list the ``stats`` broadcast returns; every broker
    counter in the payload's ``stats_full`` dict becomes a
    ``broker_<name>_total`` counter and the structural levels become
    gauges, each labeled ``shard="<index>"`` plus any extra ``labels``
    (the router adds ``worker="<index>"``).
    """
    for shard in shards:
        shard_labels = dict(labels)
        shard_labels["shard"] = str(shard["index"])
        full = shard.get("stats_full") or shard.get("stats") or {}
        for key in sorted(full):
            registry.counter(
                f"broker_{key}_total",
                help=f"Broker lifetime {key.replace('_', ' ')} count.",
                **shard_labels,
            ).inc(full[key])
        for payload_key, metric, help_text in _SHARD_GAUGES:
            if payload_key in shard:
                registry.gauge(metric, help=help_text, **shard_labels).set(
                    shard[payload_key]
                )


def export_sessions(
    registry: MetricsRegistry, snapshot: dict, **labels
) -> None:
    """Fold a :meth:`SessionRegistry.snapshot` into ``registry``."""
    gauge = registry.gauge
    counter = registry.counter
    gauge(
        "serve_session_tenants",
        help="Live tenant sessions.",
        **labels,
    ).set(snapshot["tenants"])
    counter(
        "serve_session_served_total",
        help="Mutation requests answered across all live sessions.",
        **labels,
    ).inc(snapshot["served"])
    counter(
        "serve_session_expired_total",
        help="Idle tenant sessions reaped since server start.",
        **labels,
    ).inc(snapshot["expired_total"])
