"""Tests for instance serialization round-trips and the CLI."""

import json
import shutil
import tempfile
from pathlib import Path

import pytest

from repro import io as repro_io
from repro.cli import main
from repro.core import LeaseSchedule
from repro.deadlines import DeadlineElement, SCLDInstance, make_old_instance
from repro.errors import ModelError
from repro.facility import make_instance as make_facility
from repro.parking import make_instance as make_parking
from repro.setcover import random_instance
from repro.workloads import constant_batches, make_rng


def sample_instances():
    schedule = LeaseSchedule.power_of_two(2)
    parking = make_parking(schedule, [0, 3, 7])
    multicover = random_instance(
        num_elements=6, num_sets=4, memberships=2,
        schedule=schedule, horizon=10, num_demands=6,
        rng=make_rng(1), max_coverage=2,
    )
    facility = make_facility(
        schedule, num_facilities=2,
        batch_sizes=constant_batches(3, 1), rng=make_rng(2),
    )
    old = make_old_instance(schedule, [(0, 2), (4, 1)])
    scld = SCLDInstance(
        system=multicover.system,
        schedule=schedule,
        demands=(DeadlineElement(0, 1, 2), DeadlineElement(1, 3, 0)),
    )
    return {
        "parking": parking,
        "multicover": multicover,
        "facility": facility,
        "old": old,
        "scld": scld,
    }


class TestSerialization:
    @pytest.mark.parametrize("kind", list(sample_instances()))
    def test_round_trip_equality(self, kind):
        original = sample_instances()[kind]
        restored = repro_io.loads(repro_io.dumps(original))
        assert repro_io.dumps(restored) == repro_io.dumps(original)
        assert type(restored) is type(original)

    def test_parking_round_trip_preserves_semantics(self):
        original = sample_instances()["parking"]
        restored = repro_io.loads(repro_io.dumps(original))
        from repro.parking import optimal_general

        assert optimal_general(restored).cost == pytest.approx(
            optimal_general(original).cost
        )

    def test_multicover_round_trip_preserves_optimum(self):
        original = sample_instances()["multicover"]
        restored = repro_io.loads(repro_io.dumps(original))
        from repro.setcover import optimum

        assert optimum(restored).lower == pytest.approx(
            optimum(original).lower
        )

    def test_file_round_trip(self, tmp_path):
        original = sample_instances()["old"]
        path = tmp_path / "instance.json"
        repro_io.save(original, path)
        restored = repro_io.load(path)
        assert repro_io.dumps(restored) == repro_io.dumps(original)

    def test_payload_is_plain_json(self):
        payload = repro_io.to_payload(sample_instances()["facility"])
        json.dumps(payload)  # must not raise
        assert payload["kind"] == "facility"
        assert payload["version"] == repro_io.FORMAT_VERSION

    def test_rejects_unknown_kind(self):
        with pytest.raises(ModelError):
            repro_io.from_payload(
                {"version": repro_io.FORMAT_VERSION, "kind": "nope",
                 "schedule": [[1, 1.0]]}
            )

    def test_rejects_wrong_version(self):
        with pytest.raises(ModelError):
            repro_io.from_payload({"version": 99, "kind": "parking"})

    def test_rejects_unsupported_type(self):
        with pytest.raises(ModelError):
            repro_io.to_payload(42)


class TestCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ["parking", "--horizon", "60", "--num-types", "3"],
            ["setcover", "--elements", "8", "--sets", "5",
             "--demands", "8", "--horizon", "12"],
            ["facility", "--facilities", "2", "--steps", "3",
             "--per-step", "1", "--num-types", "2"],
            ["old", "--horizon", "50", "--max-slack", "4"],
        ],
    )
    def test_subcommands_run(self, argv, capsys):
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "ratio" in output
        assert "optimum" in output

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_engine_list_shows_shardable_and_cluster_columns(self, capsys):
        assert main(["engine", "list"]) == 0
        output = capsys.readouterr().out
        header, rows = output.splitlines()[1], output.splitlines()[3:]
        assert "shardable" in header
        assert "cluster" in header
        shardable_at = header.index("shardable")
        cluster_at = header.index("cluster")

        def flags(row):
            return (
                "yes" in row[shardable_at:cluster_at],
                "yes" in row[cluster_at:cluster_at + len("cluster")],
            )

        broker_rows = [row for row in rows if " broker " in row]
        serve_rows = [row for row in rows if " serve " in row]
        cluster_rows = [row for row in rows if " cluster " in row]
        parking_rows = [row for row in rows if " parking " in row]
        assert broker_rows and all(
            flags(row) == (True, True) for row in broker_rows
        )
        # Serving families shard fleet-side, not via --shards; both are
        # cluster-servable.
        assert serve_rows and all(
            flags(row) == (False, True) for row in serve_rows
        )
        assert cluster_rows and all(
            flags(row) == (False, True) for row in cluster_rows
        )
        assert parking_rows and all(
            flags(row) == (False, False) for row in parking_rows
        )

    def test_engine_run_shards_rejects_non_shardable(self, capsys):
        assert main(
            ["engine", "run", "--scenario", "parking-markov", "--shards", "2"]
        ) == 2
        err = capsys.readouterr().err
        assert "parking-markov" in err
        assert "shardable" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--wal-dir", "{wal}"], "corrupt snapshot"),
            (["--shards", "9", "--resources", "8"], "num_shards (9)"),
        ],
        ids=["corrupt-snapshot", "too-many-shards"],
    )
    def test_engine_serve_refuses_bad_state_in_one_line(
        self, argv, message, capsys
    ):
        workdir = Path(tempfile.mkdtemp(prefix="rcli-"))
        try:
            shard = workdir / "wal" / "shard-0"
            shard.mkdir(parents=True)
            (shard / "snap.json").write_text(
                '{"version": 1, "seq": 0, "state": {}}'
            )
            code = main(
                ["engine", "serve", "--socket", str(workdir / "s.sock")]
                + [arg.format(wal=workdir / "wal") for arg in argv]
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.out + captured.err

    def test_engine_loadgen_in_process(self, capsys):
        assert main(
            ["engine", "loadgen", "--horizon", "48", "--resources", "4",
             "--shards", "2", "--check"]
        ) == 0
        output = capsys.readouterr().out
        assert "report equals inline replay" in output
        assert "NO" not in output

    def test_engine_loadgen_direct_cluster_in_process(self, capsys):
        assert main(
            ["engine", "loadgen", "--horizon", "48", "--resources", "4",
             "--cluster", "2", "--check"]
        ) == 0
        output = capsys.readouterr().out
        assert "report equals inline replay" in output
        assert "in-process cluster (2 workers)" in output
        assert "NO" not in output

    def test_engine_list_counts_one_cluster_scenario_per_workload(
        self, capsys
    ):
        from repro.engine import WORKLOAD_NAMES

        assert main(["engine", "list", "--family", "cluster"]) == 0
        output = capsys.readouterr().out
        assert output.splitlines()[0].startswith(
            f"{len(WORKLOAD_NAMES)} registered scenarios"
        )
        assert "direct" not in output.splitlines()[1]
        assert "cluster-direct-" not in output

    def test_seed_reproducibility(self, capsys):
        main(["parking", "--horizon", "80", "--seed", "5"])
        first = capsys.readouterr().out
        main(["parking", "--horizon", "80", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second
