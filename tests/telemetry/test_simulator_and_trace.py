"""Integration tests for the trace simulator and Trace persistence."""

import numpy as np
import pytest

from repro.store import simulate_trace_to_store
from repro.telemetry.trace import PRE_WINDOWS_MINUTES, SAMPLE_TELEMETRY_COLUMNS, Trace
from repro.utils.errors import ValidationError


class TestTraceShape:
    def test_tables_consistent(self, tiny_trace):
        assert tiny_trace.num_samples > 0
        assert tiny_trace.num_runs > 0
        n = tiny_trace.num_samples
        for name, col in tiny_trace.samples.items():
            assert col.shape[0] == n, name

    def test_all_telemetry_columns_present(self, tiny_trace):
        for name in SAMPLE_TELEMETRY_COLUMNS:
            assert name in tiny_trace.samples

    def test_sample_counts_match_run_nodes(self, tiny_trace):
        """Each run contributes exactly n_nodes samples."""
        s = tiny_trace.samples
        per_run = np.bincount(s["run_idx"].astype(int))
        for run_id, n_nodes in zip(
            tiny_trace.runs["run_id"].astype(int),
            tiny_trace.runs["n_nodes"].astype(int),
        ):
            assert per_run[run_id] == n_nodes

    def test_node_ids_valid(self, tiny_trace):
        nodes = tiny_trace.samples["node_id"].astype(int)
        assert nodes.min() >= 0
        assert nodes.max() < tiny_trace.machine.num_nodes

    def test_time_ordering(self, tiny_trace):
        s = tiny_trace.samples
        assert np.all(s["end_minute"] >= s["start_minute"])
        assert s["end_minute"].max() <= tiny_trace.config.duration_minutes + 1e-6


class TestTelemetryPlausibility:
    def test_temperature_range(self, tiny_trace):
        temp = tiny_trace.samples["gpu_temp_mean"]
        assert temp.min() > 0
        assert temp.max() < 100

    def test_power_range(self, tiny_trace):
        power = tiny_trace.samples["gpu_power_mean"]
        assert power.min() >= 1.0
        assert power.max() < 400

    def test_stds_nonnegative(self, tiny_trace):
        for name in ("gpu_temp_std", "gpu_power_std", "cpu_temp_std"):
            assert tiny_trace.samples[name].min() >= 0.0

    def test_pre_windows_finite(self, tiny_trace):
        for window in PRE_WINDOWS_MINUTES:
            col = tiny_trace.samples[f"pre{window}_temp_mean"]
            assert np.isfinite(col).all()

    def test_busy_nodes_hotter_than_ambient(self, tiny_trace):
        ambient = tiny_trace.config.thermal.ambient_celsius
        assert tiny_trace.samples["gpu_temp_mean"].mean() > ambient

    def test_node_mean_arrays(self, tiny_trace):
        n = tiny_trace.machine.num_nodes
        assert tiny_trace.node_mean_temp.shape == (n,)
        assert tiny_trace.node_mean_power.shape == (n,)
        assert np.isfinite(tiny_trace.node_mean_temp).all()


class TestSbeAttribution:
    def test_positive_rate_reasonable(self, tiny_trace):
        rate = tiny_trace.positive_rate()
        assert 0.001 < rate < 0.3

    def test_job_level_attribution(self, tiny_trace):
        """All apruns of one job share the same per-node SBE delta (the
        paper's conservative assumption)."""
        s = tiny_trace.samples
        keys = {}
        for job, node, count in zip(
            s["job_id"].astype(int),
            s["node_id"].astype(int),
            s["sbe_count"].astype(int),
        ):
            if (job, node) in keys:
                assert keys[(job, node)] == count
            else:
                keys[(job, node)] = count

    def test_errors_on_offender_nodes(self, tiny_trace):
        """SBEs should land overwhelmingly on high-susceptibility nodes."""
        totals = tiny_trace.node_sbe_totals()
        offenders = totals > 0
        susc = tiny_trace.node_susceptibility
        assert susc[offenders].mean() > susc[~offenders].mean()

    def test_run_sbe_total_consistency(self, tiny_trace):
        runs = tiny_trace.runs
        affected_runs = (runs["sbe_total"] > 0).sum()
        assert affected_runs > 0
        assert affected_runs < tiny_trace.num_runs


class TestRecordedSeries:
    def test_recorded_node_present(self, tiny_trace):
        node = tiny_trace.config.record_nodes[0]
        series = tiny_trace.recorded_series[node]
        assert series["minute"].size == tiny_trace.config.num_ticks
        for key in ("gpu_temp", "gpu_power", "cpu_temp", "slot_avg_temp",
                    "slot_avg_power", "cage_avg_temp"):
            assert series[key].shape == series["minute"].shape


class TestPersistence:
    def test_save_load_roundtrip(self, tiny_trace, tmp_path):
        store = simulate_trace_to_store(tiny_trace.config, tmp_path / "trace", segments=1)
        loaded = store.load_trace()
        assert loaded.num_samples == tiny_trace.num_samples
        assert loaded.num_runs == tiny_trace.num_runs
        assert loaded.app_names == tiny_trace.app_names
        assert np.allclose(
            loaded.samples["gpu_temp_mean"], tiny_trace.samples["gpu_temp_mean"]
        )
        assert np.array_equal(
            loaded.samples["sbe_count"], tiny_trace.samples["sbe_count"]
        )
        assert loaded.config.duration_days == tiny_trace.config.duration_days
        assert loaded.config.machine == tiny_trace.config.machine
        node = tiny_trace.config.record_nodes[0]
        assert np.allclose(
            loaded.recorded_series[node]["gpu_temp"],
            tiny_trace.recorded_series[node]["gpu_temp"],
        )

    def test_ragged_tables_rejected(self, tiny_trace):
        bad = dict(tiny_trace.samples)
        bad["node_id"] = bad["node_id"][:-1]
        with pytest.raises(ValidationError):
            Trace(
                config=tiny_trace.config,
                samples=bad,
                runs=tiny_trace.runs,
                app_names=tiny_trace.app_names,
                node_mean_temp=tiny_trace.node_mean_temp,
                node_mean_power=tiny_trace.node_mean_power,
                node_susceptibility=tiny_trace.node_susceptibility,
            )

class TestDeterminism:
    def test_same_seed_same_trace(self):
        from repro.experiments.presets import preset_config
        from repro.telemetry.simulator import simulate_trace

        config = preset_config("tiny")
        a = simulate_trace(config)
        b = simulate_trace(config)
        assert a.num_samples == b.num_samples
        assert np.array_equal(a.samples["sbe_count"], b.samples["sbe_count"])
        assert np.allclose(a.samples["gpu_temp_mean"], b.samples["gpu_temp_mean"])


class TestStageTimers:
    """The simulator instruments its stages on ``Trace.meta``."""

    def test_meta_records_stage_seconds(self, tiny_trace):
        stages = tiny_trace.meta["stage_seconds"]
        assert set(stages) == {"simulate", "sample", "collate"}
        assert all(seconds >= 0.0 for seconds in stages.values())
        assert tiny_trace.meta["shards"] == 1

    def test_meta_survives_save_and_load(self, tiny_trace, tmp_path):
        """The simulator's meta keys survive a store round trip.

        ``collate`` is re-timed by the merge on load and ``store`` names
        the directory read, so only the keys and the shard count are
        compared exactly.
        """
        root = tmp_path / "trace"
        loaded = simulate_trace_to_store(tiny_trace.config, root, segments=1).load_trace()
        assert set(loaded.meta) == set(tiny_trace.meta) | {"store"}
        assert loaded.meta["shards"] == tiny_trace.meta["shards"]
        assert loaded.meta["store"] == str(root)
        assert set(loaded.meta["stage_seconds"]) == set(tiny_trace.meta["stage_seconds"])
        assert all(seconds >= 0.0 for seconds in loaded.meta["stage_seconds"].values())

    def test_meta_excluded_from_content_digests(self, tiny_trace):
        """Wall times vary run to run; content digests must not."""
        import sys
        sys.path.insert(0, "tools")
        try:
            from check_determinism import trace_digest
        finally:
            sys.path.pop(0)
        before = trace_digest(tiny_trace)
        original = dict(tiny_trace.meta)
        try:
            tiny_trace.meta["stage_seconds"] = {"simulate": 123.0}
            assert trace_digest(tiny_trace) == before
        finally:
            tiny_trace.meta.clear()
            tiny_trace.meta.update(original)
