"""Perf harness mechanics: record shape, trajectory files, and the
regression gate.  Rates themselves are machine-dependent and never
asserted — structure and gating logic are."""

import copy
import json
from pathlib import Path

import pytest

from repro.engine import perf
from repro.errors import ModelError

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def p01_record():
    return perf.measure("p01_broker", "unit")


@pytest.fixture(scope="module")
def p02_record():
    return perf.measure("p02_runner", "unit")


class TestMeasure:
    def test_p01_record_shape(self, p01_record):
        assert p01_record["schema"] == perf.SCHEMA
        assert p01_record["bench"] == "p01_broker"
        assert p01_record["mode"] == "unit"
        metrics = p01_record["metrics"]
        assert metrics["events"] == 2 * p01_record["params"]["num_days"]
        assert metrics["events_per_sec"] > 0
        assert metrics["leases"] > 0
        assert p01_record["env"]["cpus"] >= 1

    def test_p02_record_shape(self, p02_record):
        metrics = p02_record["metrics"]
        assert metrics["byte_identical"] is True
        assert metrics["verified"] is True
        assert metrics["events"] > 0
        assert metrics["shard_speedup"] > 0

    def test_p01_is_deterministic_in_structure(self, p01_record):
        again = perf.measure("p01_broker", "unit")
        for key in ("events", "leases", "cost"):
            assert again["metrics"][key] == p01_record["metrics"][key]

    def test_unknown_bench_and_mode_rejected(self):
        with pytest.raises(ModelError):
            perf.measure("p99_nope")
        with pytest.raises(ModelError):
            perf.measure_p01("huge")


class TestTrajectoryFiles:
    def test_update_and_reload(self, tmp_path, p01_record):
        committed = {"schema": perf.SCHEMA, "bench": "p01_broker"}
        perf.update_committed(committed, p01_record)
        path = tmp_path / "BENCH.json"
        perf.dump_json(committed, path)
        loaded = perf.load_committed(path)
        assert loaded["modes"]["unit"]["metrics"] == p01_record["metrics"]

    def test_update_rejects_mismatched_bench(self, p01_record):
        with pytest.raises(ModelError):
            perf.update_committed(
                {"schema": perf.SCHEMA, "bench": "p02_runner"}, p01_record
            )

    def test_update_preserves_baseline(self, p01_record):
        committed = {
            "schema": perf.SCHEMA,
            "bench": "p01_broker",
            "baseline": {"events_per_sec": 122_335},
        }
        perf.update_committed(committed, p01_record)
        assert committed["baseline"] == {"events_per_sec": 122_335}

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope/9"}))
        with pytest.raises(ModelError):
            perf.load_committed(path)

    @pytest.mark.parametrize("bench", perf.BENCH_NAMES)
    def test_committed_files_are_valid(self, bench):
        committed = perf.load_committed(REPO_ROOT / perf.BENCH_FILES[bench])
        assert committed["bench"] == bench
        assert "baseline" in committed
        for mode, entry in committed["modes"].items():
            assert mode in perf.MODES
            assert entry["metrics"]["events"] > 0

    def test_every_committed_file_has_a_measurer(self):
        on_disk = {
            path.name
            for path in (REPO_ROOT / "benchmarks").glob("BENCH_*.json")
        }
        named = {Path(name).name for name in perf.BENCH_FILES.values()}
        assert set(perf.BENCH_FILES) == set(perf.BENCH_NAMES)
        assert on_disk == named

    def test_committed_p01_shows_the_2x_gain(self):
        committed = perf.load_committed(
            REPO_ROOT / perf.BENCH_FILES["p01_broker"]
        )
        current = committed["modes"]["full"]["metrics"]["events_per_sec"]
        baseline = committed["baseline"]["events_per_sec"]
        assert current >= 2 * baseline


class TestCheck:
    def _committed(self, record):
        return perf.update_committed(
            {"schema": perf.SCHEMA, "bench": record["bench"]},
            copy.deepcopy(record),
        )

    def test_identical_record_passes(self, p01_record):
        assert perf.check(self._committed(p01_record), p01_record) == []

    def test_rate_regression_fails(self, p01_record):
        committed = self._committed(p01_record)
        slow = copy.deepcopy(p01_record)
        slow["metrics"]["events_per_sec"] = int(
            p01_record["metrics"]["events_per_sec"] * 0.5
        )
        failures = perf.check(committed, slow)
        assert any("events_per_sec" in f for f in failures)

    def test_small_wobble_tolerated(self, p01_record):
        committed = self._committed(p01_record)
        wobble = copy.deepcopy(p01_record)
        wobble["metrics"]["events_per_sec"] = int(
            p01_record["metrics"]["events_per_sec"] * 0.85
        )
        wobble["metrics"]["leases_per_sec"] = int(
            p01_record["metrics"]["leases_per_sec"] * 0.85
        )
        assert perf.check(committed, wobble) == []

    def test_structural_change_fails_exactly(self, p02_record):
        committed = self._committed(p02_record)
        broken = copy.deepcopy(p02_record)
        broken["metrics"]["byte_identical"] = False
        failures = perf.check(committed, broken)
        assert any("byte_identical" in f for f in failures)

    def test_missing_mode_reports_instead_of_crashing(self, p01_record):
        failures = perf.check(
            {"schema": perf.SCHEMA, "bench": "p01_broker", "modes": {}},
            p01_record,
        )
        assert failures and "no committed numbers" in failures[0]

    def test_shard_speedup_gated_only_on_multicore(self, p02_record):
        committed = self._committed(p02_record)
        committed["modes"]["unit"]["env"]["cpus"] = 4
        slow = copy.deepcopy(p02_record)
        slow["env"]["cpus"] = 4
        slow["metrics"]["shard_speedup"] = 0.8
        failures = perf.check(committed, slow)
        assert any("shard" in f for f in failures)
        # Same record on a single-core machine: not gated.
        solo = copy.deepcopy(slow)
        solo["env"]["cpus"] = 1
        assert not any("shard" in f for f in perf.check(committed, solo))
