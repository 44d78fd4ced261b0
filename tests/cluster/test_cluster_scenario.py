"""The cluster-* scenario family: clustered aggregate byte-identical to
the inline replay, registry integration, determinism, and verification —
against a real subprocess worker fleet.  The topology matrix at the
bottom proves the identity holds for every workload: single-process,
direct, and direct through a kill -9."""

from dataclasses import replace

import pytest

from repro.cluster import (
    build_cluster_instance,
    run_cluster_instance,
    verify_cluster,
)
from repro.engine import (
    WORKLOAD_NAMES,
    get_scenario,
    render_report,
    run_scenario,
    scenario_names,
)
from repro.engine.scenarios import run_broker_trace


class TestRegistry:
    def test_registered_for_every_workload(self):
        names = set(scenario_names())
        for workload in WORKLOAD_NAMES:
            assert f"cluster-{workload}" in names
            scenario = get_scenario(f"cluster-{workload}")
            assert scenario.family == "cluster"
            assert scenario.workload == workload
            assert not scenario.shardable  # sharding lives fleet-side
            assert scenario.cluster_servable

    def test_cluster_servable_marks_the_broker_trace_lineage(self):
        assert get_scenario("broker-markov").cluster_servable
        assert get_scenario("serve-markov").cluster_servable
        assert get_scenario("cluster-markov").cluster_servable
        assert not get_scenario("parking-markov").cluster_servable
        assert not get_scenario("deadlines-batch").cluster_servable

    def test_listing_does_not_import_the_cluster_stack(self):
        # Lazy hooks: the registry entry alone must not spawn anything
        # or pull repro.cluster in.
        scenario = get_scenario("cluster-markov")
        assert "worker processes" in scenario.description

    def test_cluster_scenarios_run_direct(self):
        # One data plane: there are no separate direct variants, and
        # every cluster-* scenario sends its mutations to the workers.
        names = set(scenario_names())
        for workload in WORKLOAD_NAMES:
            assert f"cluster-direct-{workload}" not in names
            scenario = get_scenario(f"cluster-{workload}")
            assert "direct to" in scenario.description


class TestClusteredAggregate:
    def test_rendered_report_byte_identical_to_inline_replay(self):
        """The acceptance gate: closed-loop tenants against a live
        2-process fleet, aggregate report byte-identical to the inline
        replay of the same merged trace."""
        seed = 3
        scenario = get_scenario("cluster-markov")
        instance = scenario.build(seed)
        assert len(instance.tenants) >= 8
        clustered = run_scenario("cluster-markov", seed=seed)
        assert clustered.verified
        assert clustered.run.detail["cluster"]["report_equal"] is True
        assert clustered.run.detail["cluster"]["workers"] == 2
        inline = replace(
            clustered, run=run_broker_trace(instance.trace, seed)
        )
        assert render_report([clustered]) == render_report([inline])
        assert clustered.run.cost == inline.run.cost
        assert tuple(clustered.run.leases) == tuple(inline.run.leases)
        assert (
            clustered.run.detail["broker_stats"]
            == inline.run.detail["broker_stats"]
        )

    def test_repeat_cluster_runs_are_deterministic(self):
        instance = build_cluster_instance(
            "batch", 32, seed=5, num_resources=4,
            num_workers=2, shards_per_worker=1,
        )
        first = run_cluster_instance(instance, seed=5)
        second = run_cluster_instance(instance, seed=5)
        assert first.cost == second.cost
        assert tuple(first.leases) == tuple(second.leases)
        assert first.detail["broker_stats"] == second.detail["broker_stats"]
        assert first.detail["cluster"]["report_equal"]
        assert second.detail["cluster"]["report_equal"]

    def test_json_codec_cluster_matches_too(self):
        instance = build_cluster_instance(
            "markov", 32, seed=2, num_resources=4,
            num_workers=2, shards_per_worker=1, codec="json",
        )
        result = run_cluster_instance(instance, seed=2)
        assert result.detail["cluster"]["codec"] == "json"
        assert result.detail["cluster"]["report_equal"] is True


class TestTopologyMatrix:
    """The byte-identity matrix: every workload, every data plane.

    The ``single`` arm — one inline broker replay of the canonical
    trace — is the ground truth each cell compares against; ``direct``
    sends mutations straight to the owning workers after the route
    handshake, and ``direct-kill9`` SIGKILLs a worker mid-drive and
    demands the identity hold through WAL recovery, supervised respawn,
    and the client-side marked resend."""

    SEED = 11

    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    @pytest.mark.parametrize("topology", ["direct", "direct-kill9"])
    def test_equals_single_process_replay(self, workload, topology,
                                          tmp_path):
        if topology == "direct-kill9":
            from repro.durable.chaos import (
                build_chaos_instance,
                default_kill_schedule,
                run_chaos,
            )

            instance = build_chaos_instance(
                workload, 48, self.SEED, str(tmp_path / "wal"),
                num_resources=4, tenants_per_resource=2,
                num_workers=2, shards_per_worker=1,
            )
            outcome = run_chaos(
                instance,
                kill_schedule=default_kill_schedule(instance, kills=1),
            )
            assert outcome.ok
            assert outcome.respawns >= 1
            clustered = outcome.result
        else:
            instance = build_cluster_instance(
                workload, 48, self.SEED, num_resources=4,
                tenants_per_resource=2, num_workers=2,
                shards_per_worker=1,
            )
            clustered = run_cluster_instance(instance, seed=self.SEED)
        single = run_broker_trace(instance.trace, self.SEED)
        assert clustered.detail["cluster"]["report_equal"] is True
        assert clustered.detail["cluster"]["handshakes"] > 0
        assert clustered.cost == single.cost
        assert tuple(clustered.leases) == tuple(single.leases)
        assert (
            clustered.detail["broker_stats"]
            == single.detail["broker_stats"]
        )
        assert verify_cluster(instance, clustered).ok


class TestVerifyCluster:
    def test_divergence_fails_verification(self):
        instance = build_cluster_instance(
            "markov", 32, seed=1, num_resources=4,
            num_workers=2, shards_per_worker=1,
        )
        result = run_cluster_instance(instance, seed=1)
        assert verify_cluster(instance, result).ok
        tampered_detail = dict(result.detail)
        tampered_detail["cluster"] = {
            **result.detail["cluster"], "report_equal": False
        }
        tampered = replace(result, detail=tampered_detail)
        report = verify_cluster(instance, tampered)
        assert not report.ok
        assert any("diverged" in failure for failure in report.failures)
