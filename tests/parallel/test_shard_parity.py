"""Property tests: sharded simulation is bit-identical to serial.

Hypothesis draws small random machine/workload configurations and shard
counts; for every example the merged shard simulation must equal the
serial simulation bit for bit.  This is the load-bearing guarantee of the
whole parallel layer — everything downstream (parallel experiments, the
content-addressed cache, the golden digests) assumes it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from repro.experiments.presets import preset_config
from repro.parallel.simulate import simulate_trace_sharded
from repro.telemetry.config import ErrorModelConfig, TraceConfig, WorkloadConfig
from repro.telemetry.simulator import TraceSimulator, merge_shard_results
from repro.topology.machine import MachineConfig
from repro.topology.sharding import plan_shards
from repro.utils.errors import SimulationError

from tests.golden.canonical import trace_digest
from tests.parallel._compare import assert_traces_bit_identical


def _trace_config(
    *,
    grid_x: int,
    grid_y: int,
    slots_per_cage: int,
    nodes_per_slot: int,
    mean_runtime_minutes: float,
    target_utilization: float,
    duration_days: float,
    seed: int,
) -> TraceConfig:
    machine = MachineConfig(
        grid_x=grid_x,
        grid_y=grid_y,
        cages_per_cabinet=1,
        slots_per_cage=slots_per_cage,
        nodes_per_slot=nodes_per_slot,
    )
    return TraceConfig(
        machine=machine,
        workload=WorkloadConfig(
            num_applications=8,
            mean_runtime_minutes=mean_runtime_minutes,
            mean_nodes_per_run=2.0,
            max_nodes_per_run=min(8, machine.num_nodes),
            target_utilization=target_utilization,
        ),
        # Hot error model so SBE draws actually exercise the per-(run,
        # node) substreams instead of all skipping below the threshold.
        errors=ErrorModelConfig(
            base_rate_per_hour=0.05,
            offender_node_fraction=0.2,
            quiet_day_factor=0.01,
        ),
        duration_days=duration_days,
        tick_minutes=30.0,
        seed=seed,
        record_nodes=(1,),
    )


@st.composite
def small_trace_configs(draw) -> TraceConfig:
    """Random tiny machines (a few dozen nodes, 1-2 simulated days)."""
    return _trace_config(
        grid_x=draw(st.integers(1, 3)),
        grid_y=draw(st.integers(1, 4)),
        slots_per_cage=draw(st.integers(1, 2)),
        nodes_per_slot=draw(st.sampled_from([2, 4])),
        mean_runtime_minutes=draw(st.sampled_from([180.0, 420.0])),
        target_utilization=draw(st.sampled_from([0.5, 0.85])),
        duration_days=draw(st.sampled_from([1.0, 2.0])),
        seed=draw(st.integers(0, 2**16)),
    )


#: A draw with no samples at all: 2 nodes for 1 day at half utilization.
#: The serial simulation rightly refuses it with ``SimulationError``.
NO_SAMPLE_CONFIG = _trace_config(
    grid_x=1,
    grid_y=1,
    slots_per_cage=1,
    nodes_per_slot=2,
    mean_runtime_minutes=180.0,
    target_utilization=0.5,
    duration_days=1.0,
    seed=96,
)


class TestShardParity:
    @settings(max_examples=25, deadline=None)
    @given(config=small_trace_configs(), shards=st.sampled_from([1, 2, 4]))
    @example(config=NO_SAMPLE_CONFIG, shards=2)
    def test_sharded_merge_is_bit_identical_to_serial(self, config, shards):
        spans = plan_shards(config.machine, shards)

        def sharded():
            results = [TraceSimulator(config, span).run_span() for span in spans]
            return merge_shard_results(config, results)

        try:
            serial = TraceSimulator(config).run()
        except SimulationError as refused:
            # Parity for a refused config: the sharded path refuses it too.
            with pytest.raises(type(refused)):
                sharded()
            return
        merged = sharded()
        assert_traces_bit_identical(serial, merged)
        assert merged.meta["shards"] == len(spans)

    @settings(max_examples=5, deadline=None)
    @given(config=small_trace_configs())
    @example(config=NO_SAMPLE_CONFIG)
    def test_shard_counts_agree_with_each_other(self, config):
        try:
            TraceSimulator(config).run()
        except SimulationError as refused:
            for shards in (1, 2, 4):
                with pytest.raises(type(refused)):
                    simulate_trace_sharded(config, shards=shards, jobs=1)
            return
        digests = []
        for shards in (1, 2, 4):
            trace = simulate_trace_sharded(config, shards=shards, jobs=1)
            digests.append(trace.samples["sbe_count"].sum())
            if len(digests) > 1:
                assert digests[0] == digests[-1]


class TestProcessPoolParity:
    def test_pool_simulation_matches_serial(self):
        """Worker-process sharding (the real --jobs path) is bit-identical."""
        config = preset_config("tiny")
        serial = TraceSimulator(config).run()
        pooled = simulate_trace_sharded(config, shards=4, jobs=2)
        assert_traces_bit_identical(serial, pooled)
        assert pooled.meta["shards"] == 4

    def test_stage_timers_are_recorded(self):
        config = preset_config("tiny")
        trace = simulate_trace_sharded(config, shards=2, jobs=1)
        stages = trace.meta["stage_seconds"]
        assert set(stages) == {"simulate", "sample", "collate"}
        assert all(seconds >= 0.0 for seconds in stages.values())

    def test_default_jobs_runs_in_process_and_matches_the_pin(self):
        """Omitting ``jobs`` simulates the shards serially, in-process."""
        pins = Path(__file__).parents[1] / "golden" / "trace_digests.json"
        trace = simulate_trace_sharded(preset_config("tiny"), shards=2)
        assert trace_digest(trace) == json.loads(pins.read_text())["tiny"]
        assert trace.meta["shards"] == 2
