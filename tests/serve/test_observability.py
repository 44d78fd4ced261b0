"""Serving-layer observability: the ``metrics`` protocol verb, hot-path
instrumentation, trace spans, and the determinism contract — metrics
and tracing on must leave the served aggregate byte-identical to the
inline replay."""

import asyncio
import json

import pytest

from repro.core import LeaseSchedule
from repro.obs import (
    MetricsRegistry,
    SamplingProfiler,
    TraceSink,
    parse_exposition,
    validate_exposition,
)
from repro.serve import AsyncLeaseClient, LeaseServer
from repro.serve.loadgen import (
    build_serve_instance,
    run_serve_instance,
    serve_once,
)

SCHEDULE = LeaseSchedule.power_of_two(4, cost_growth=2.0)


def _result_key(result):
    return (
        result.cost,
        tuple(result.leases),
        result.detail["broker_stats"],
    )


class TestMetricsVerb:
    def _scrape(self, tmp_path, metrics=None, warm=True):
        async def main():
            server = LeaseServer(
                SCHEDULE, num_resources=4, num_shards=2, metrics=metrics
            )
            path = str(tmp_path / "srv.sock")
            await server.start_unix(path)
            client = await AsyncLeaseClient.open_unix(path)
            if warm:
                await client.acquire("t0", 0, 0)
                await client.acquire("t1", 3, 0)
                await client.tick(1)
            text = (await client.call("metrics"))["text"]
            await client.close()
            await server.shutdown()
            return text

        return asyncio.run(main())

    def test_scrape_validates_and_reflects_served_state(self, tmp_path):
        text = self._scrape(tmp_path, metrics=MetricsRegistry())
        assert validate_exposition(text) == []
        families = parse_exposition(text)
        # Ops-plane families folded from the stats barrier...
        for name in (
            "broker_acquires_total",
            "broker_active_grants",
            "broker_grant_table_size",
            "broker_expiry_heap_size",
            "serve_session_tenants",
        ):
            assert name in families, name
        # ...plus the hot registry's live families.
        for name in (
            "serve_op_latency_seconds",
            "serve_bytes_in_total",
            "serve_bytes_out_total",
        ):
            assert name in families, name
        acquires = sum(
            value
            for _, _, value in families["broker_acquires_total"].samples
        )
        assert acquires == 2
        # Both shards report, labeled.
        shards = {
            labels["shard"]
            for _, labels, _ in families["broker_acquires_total"].samples
        }
        assert shards == {"0", "1"}

    def test_scrape_works_with_metrics_disabled(self, tmp_path):
        """The ops plane is always scrapeable: broker/session state folds
        into a fresh registry at scrape time even when the hot-path
        registry is off — only the sampled families disappear."""
        text = self._scrape(tmp_path, metrics=None)
        assert validate_exposition(text) == []
        families = parse_exposition(text)
        assert "broker_acquires_total" in families
        assert "serve_op_latency_seconds" not in families
        assert "serve_bytes_in_total" not in families


class TestHotPathInstrumentation:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        instance = build_serve_instance(
            "markov", 48, seed=1, num_resources=4, num_shards=2
        )
        registry = MetricsRegistry()
        trace_path = tmp_path_factory.mktemp("obs") / "trace.jsonl"
        sink = TraceSink(str(trace_path))
        report = serve_once(instance, metrics=registry, trace_sink=sink)
        sink.close()
        return instance, registry, trace_path, report

    def test_latency_histograms_by_op_kind(self, served):
        _, registry, _, report = served
        snap = registry.snapshot()
        latency = snap["serve_op_latency_seconds"]
        assert latency["type"] == "histogram"
        ops = {entry["labels"]["op"] for entry in latency["series"]}
        assert "acquire" in ops
        sampled = sum(entry["count"] for entry in latency["series"])
        # Every request plus the per-shard tick broadcasts got sampled.
        assert sampled >= report["requests"]

    def test_wire_and_session_counters_move(self, served):
        _, registry, _, _ = served
        snap = registry.snapshot()
        assert snap["serve_bytes_in_total"]["series"][0]["value"] > 0
        assert snap["serve_bytes_out_total"]["series"][0]["value"] > 0

    def test_trace_spans_cover_the_dispatch_loop(self, served):
        _, registry, trace_path, report = served
        with open(trace_path, encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle if line.strip()]
        sampled = sum(
            entry["count"]
            for entry in registry.snapshot()["serve_op_latency_seconds"][
                "series"
            ]
        )
        assert len(spans) == sampled
        for span in spans:
            assert span["t_enq"] <= span["t_disp"] <= span["t_reply"]
        mutations = [s for s in spans if s["op"] in ("acquire", "release")]
        assert mutations and all(
            s["id"] is not None and s["tenant"] for s in mutations
        )


class TestDeterminismContract:
    @pytest.mark.parametrize("workload,seed", [("markov", 1), ("batch", 4)])
    def test_metrics_and_tracing_leave_reports_byte_identical(
        self, tmp_path, workload, seed
    ):
        """The property the whole subsystem hangs off: instrumentation
        observes the serving cycle without perturbing it.  The served
        aggregate with metrics + tracing + client latency sampling all
        on, and the sampling profiler running, equals both the inline
        replay and the bare served run."""
        instance = build_serve_instance(
            workload, 48, seed=seed, num_resources=4, num_shards=2
        )
        bare = run_serve_instance(instance, seed)
        sink = TraceSink(str(tmp_path / f"{workload}.jsonl"))
        profiler = SamplingProfiler(hz=1000)
        profiler.start()
        try:
            instrumented_report = serve_once(
                instance,
                metrics=MetricsRegistry(),
                trace_sink=sink,
                latency_registry=MetricsRegistry(),
            )
        finally:
            profiler.stop()
        sink.close()
        assert profiler.samples > 0
        instrumented = run_serve_instance(
            instance, seed, report=instrumented_report
        )
        assert bare.detail["serve"]["report_equal"] is True
        assert instrumented.detail["serve"]["report_equal"] is True
        assert _result_key(instrumented) == _result_key(bare)
