"""Benchmarks for the parallel execution layer.

Measures sharded simulation against the serial baseline and the parallel
experiment fan-out against its serial sweep, asserting bit-parity in the
same breath — a speedup that changes results would be worthless.

Honesty note: wall-clock speedup requires physical cores.  On a
single-core box the sharded run costs serial time plus process overhead;
the numbers printed here report whatever the host provides
(``repro.parallel`` caps workers at the CPU count).  The ``--jobs 4``
acceptance numbers in EXPERIMENTS.md come from a multi-core host.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

from repro.experiments.faults_experiment import run_faults
from repro.experiments.presets import preset_config
from repro.experiments.runner import ExperimentContext
from repro.parallel.simulate import simulate_trace_sharded
from repro.telemetry.simulator import simulate_trace

from conftest import run_once

_JOBS = max(1, min(4, multiprocessing.cpu_count()))


def test_simulate_serial_baseline(benchmark):
    """Serial tiny-trace simulation (the reference for the sharded run)."""
    config = preset_config("tiny")
    trace = run_once(benchmark, lambda: simulate_trace(config))
    assert trace.num_samples > 0


def test_simulate_sharded(benchmark):
    """Sharded tiny-trace simulation on the available cores."""
    config = preset_config("tiny")
    serial_start = time.perf_counter()
    serial = simulate_trace(config)
    serial_seconds = time.perf_counter() - serial_start

    sharded_start = time.perf_counter()
    trace = run_once(
        benchmark,
        lambda: simulate_trace_sharded(config, shards=4, jobs=_JOBS),
    )
    sharded_seconds = time.perf_counter() - sharded_start
    assert np.array_equal(trace.samples["sbe_count"], serial.samples["sbe_count"])
    print(
        f"\nserial {serial_seconds:.2f}s vs sharded({_JOBS} jobs) "
        f"{sharded_seconds:.2f}s -> speedup {serial_seconds / sharded_seconds:.2f}x "
        f"({multiprocessing.cpu_count()} cpu(s) visible)"
    )


def test_faults_sweep_parallel(benchmark):
    """Fault-intensity sweep fanned over worker processes, parity-checked."""
    context = ExperimentContext("tiny", use_disk_cache=False)
    intensities = (0.0, 0.1, 0.25, 0.5)
    serial_start = time.perf_counter()
    serial = run_faults(context, intensities=intensities, jobs=1)
    serial_seconds = time.perf_counter() - serial_start

    fanned_start = time.perf_counter()
    fanned = run_once(
        benchmark,
        lambda: run_faults(context, intensities=intensities, jobs=_JOBS),
    )
    fanned_seconds = time.perf_counter() - fanned_start
    for a, b in zip(serial.data["curve"], fanned.data["curve"]):
        assert a["intensity"] == b["intensity"]
        assert a["f1"] == b["f1"] or (a["f1"] != a["f1"] and b["f1"] != b["f1"])
    print(
        f"\nfaults sweep: serial {serial_seconds:.2f}s vs --jobs {_JOBS} "
        f"{fanned_seconds:.2f}s -> speedup {serial_seconds / fanned_seconds:.2f}x "
        f"(cells identical: yes)"
    )
