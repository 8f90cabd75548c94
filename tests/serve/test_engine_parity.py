"""Streaming/batch feature parity: the tentpole contract.

The streaming engine must emit rows **bit-identical** to the batch
builder on the same trace — clean, across simulator seeds and scales,
and after fault injection + sanitization.  Equality here is exact
(``==`` on float64 arrays), not approximate.
"""

import numpy as np
import pytest

from repro.faults import FaultSpec, inject_faults, sanitize_trace
from repro.features.builder import build_features, compute_top_apps
from repro.serve.engine import StreamingFeatureEngine, rows_to_matrix
from repro.serve.events import (
    RunCompleted,
    RunStarted,
    SbeObserved,
    iter_trace_events,
)
from repro.telemetry.config import (
    ErrorModelConfig,
    MachineConfig,
    TraceConfig,
)
from repro.telemetry.simulator import simulate_trace
from repro.utils.errors import DegradedDataWarning, ValidationError


def _small_config(seed: int) -> TraceConfig:
    """A fast-to-simulate trace with both classes well populated."""
    return TraceConfig(
        machine=MachineConfig(
            grid_x=4,
            grid_y=2,
            cages_per_cabinet=1,
            slots_per_cage=1,
            nodes_per_slot=4,
        ),
        errors=ErrorModelConfig(
            base_rate_per_hour=0.004,
            offender_node_fraction=0.3,
            offender_median_boost=2.0,
            episode_rate_per_100_days=30.0,
            episode_median_days=2.0,
            quiet_day_factor=0.01,
        ),
        duration_days=8.0,
        tick_minutes=10.0,
        seed=seed,
    )


def assert_stream_matches_batch(trace, top_k_apps: int = 16):
    """Stream the trace and compare every emitted row to the batch row."""
    batch = build_features(trace, top_k_apps=top_k_apps)
    engine = StreamingFeatureEngine(
        trace.machine,
        compute_top_apps(np.asarray(trace.samples["app_id"], dtype=int), top_k_apps),
    )
    rows = list(engine.stream(iter_trace_events(trace)))

    assert engine.schema.names == batch.schema.names
    assert engine.schema.tags == batch.schema.tags
    assert len(rows) == batch.num_samples  # every start saw its completion

    by_key = {(row.run_idx, row.node_id): row for row in rows}
    keys = list(
        zip(batch.meta["run_idx"].astype(int), batch.meta["node_id"].astype(int))
    )
    assert len(by_key) == len(keys), "duplicate (run, node) keys"
    streamed = np.vstack([by_key[key].features for key in keys])
    mismatch = streamed != batch.X
    if mismatch.any():
        i, j = np.argwhere(mismatch)[0]
        raise AssertionError(
            f"first mismatch at row {i}, column {batch.schema.names[j]!r}: "
            f"streamed={streamed[i, j]!r} batch={batch.X[i, j]!r} "
            f"({mismatch.sum()} cells differ)"
        )
    return batch, rows, by_key, keys


class TestCleanTraceParity:
    def test_tiny_trace_is_bit_identical(self, tiny_trace):
        assert_stream_matches_batch(tiny_trace)

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_parity_across_simulator_seeds(self, seed):
        assert_stream_matches_batch(simulate_trace(_small_config(seed)))

    @pytest.mark.parametrize("top_k_apps", [4, 32])
    def test_parity_across_app_vocabulary_sizes(self, tiny_trace, top_k_apps):
        assert_stream_matches_batch(tiny_trace, top_k_apps=top_k_apps)

    def test_rows_to_matrix_matches_batch_matrix(self, tiny_trace):
        batch, rows, by_key, keys = assert_stream_matches_batch(tiny_trace)
        ordered = [by_key[key] for key in keys]
        schema = StreamingFeatureEngine(
            tiny_trace.machine,
            compute_top_apps(np.asarray(tiny_trace.samples["app_id"], dtype=int), 16),
        ).schema
        matrix = rows_to_matrix(ordered, schema, sbe_counts=batch.meta["sbe_count"])
        np.testing.assert_array_equal(matrix.X, batch.X)
        np.testing.assert_array_equal(matrix.y, batch.y)
        for name in ("run_idx", "node_id", "start_minute", "end_minute"):
            np.testing.assert_array_equal(matrix.meta[name], batch.meta[name])


class TestFaultyTraceParity:
    """Property-style: inject seeded faults, sanitize, demand parity."""

    @pytest.mark.parametrize(
        "intensity,seed", [(0.1, 0), (0.25, 3), (0.5, 11)]
    )
    def test_sanitized_faulty_trace_is_bit_identical(
        self, tiny_trace, intensity, seed
    ):
        faulty, log = inject_faults(
            tiny_trace, FaultSpec(intensity=intensity, seed=seed)
        )
        assert len(log) > 0
        with pytest.warns(DegradedDataWarning):
            sanitized, report = sanitize_trace(faulty)
        assert sanitized.num_samples > 0
        assert_stream_matches_batch(sanitized)

    def test_zero_intensity_is_clean_parity(self, tiny_trace):
        faulty, _ = inject_faults(tiny_trace, FaultSpec(intensity=0.0, seed=0))
        assert_stream_matches_batch(faulty)


class TestEngineStateMachine:
    def test_double_start_raises(self, tiny_trace):
        engine = StreamingFeatureEngine(tiny_trace.machine, np.array([0]))
        event = RunStarted(
            minute=0.0,
            run_idx=1,
            node_ids=np.array([0]),
            app_ids=np.array([0]),
            start_minutes=np.array([0.0]),
        )
        engine.process(event)
        with pytest.raises(ValidationError, match="started twice"):
            engine.process(event)

    def test_completion_without_start_raises(self, tiny_trace):
        engine = StreamingFeatureEngine(tiny_trace.machine, np.array([0]))
        with pytest.raises(ValidationError, match="never started"):
            engine.process(RunCompleted(minute=5.0, run_idx=9, rows={}))

    def test_run_started_arrays_must_share_one_length(self, tiny_trace):
        engine = StreamingFeatureEngine(tiny_trace.machine, np.array([0]))
        with pytest.raises(ValidationError, match="disagree in shape"):
            engine.process(
                RunStarted(
                    minute=0.0,
                    run_idx=1,
                    node_ids=np.array([0, 1]),
                    app_ids=np.array([0]),
                    start_minutes=np.array([0.0, 0.0]),
                )
            )
        with pytest.raises(ValidationError, match="no rows"):
            engine.process(
                RunStarted(
                    minute=0.0,
                    run_idx=2,
                    node_ids=np.array([], dtype=int),
                    app_ids=np.array([], dtype=int),
                    start_minutes=np.array([]),
                )
            )
        with pytest.raises(ValidationError, match="finite"):
            engine.process(
                RunStarted(
                    minute=0.0,
                    run_idx=3,
                    node_ids=np.array([0]),
                    app_ids=np.array([0]),
                    start_minutes=np.array([np.nan]),
                )
            )

    def test_completion_rows_must_match_the_start(self, tiny_trace):
        events = list(iter_trace_events(tiny_trace))
        start = next(e for e in events if isinstance(e, RunStarted) and e.node_ids.size > 1)
        done = next(
            e for e in events if isinstance(e, RunCompleted) and e.run_idx == start.run_idx
        )
        engine = StreamingFeatureEngine(tiny_trace.machine, np.array([0]))
        engine.process(start)
        short_column = dict(done.rows, gpu_util=done.rows["gpu_util"][:-1])
        short_run = {name: column[:-1] for name, column in done.rows.items()}
        missing = {k: v for k, v in done.rows.items() if k != "gpu_util"}
        for rows, message in (
            (short_column, "disagree in shape"),
            (short_run, "started with"),
            (missing, "missing column"),
        ):
            with pytest.raises(ValidationError, match=message):
                engine.process(RunCompleted(minute=done.minute, run_idx=done.run_idx, rows=rows))
        # Refused completions leave the run open; the real one completes it.
        assert len(engine.process(done)) == start.node_ids.size

    def test_unknown_event_raises(self, tiny_trace):
        engine = StreamingFeatureEngine(tiny_trace.machine, np.array([0]))
        with pytest.raises(ValidationError, match="unknown telemetry event"):
            engine.process(object())

    def test_sbe_events_feed_history_state(self, tiny_trace):
        engine = StreamingFeatureEngine(tiny_trace.machine, np.array([0]))
        engine.process(
            SbeObserved(minute=100.0, job_id=1, node_id=3, app_id=2, count=4)
        )
        cuts = np.array([[101.0], [100.0]])  # one cut after the SBE, one at it
        assert engine._node_index.counts_before([3], cuts).tolist() == [[4], [0]]
        assert engine._app_index.counts_before([2], cuts).tolist() == [[4], [0]]
        assert engine._node_index.global_counts_before(cuts).tolist() == [[4], [0]]

    def test_event_ordering_starts_before_sbes_at_equal_minute(self, tiny_trace):
        # An SBE stamped exactly at a later run's start minute must not be
        # visible to that run (batch windows are end-exclusive at start).
        events = list(iter_trace_events(tiny_trace))
        minutes = [event.minute for event in events]
        assert minutes == sorted(minutes)
