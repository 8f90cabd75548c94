"""Microbenchmarks for the telemetry substrate and feature builder."""

import numpy as np

from repro.experiments.presets import preset_config
from repro.features.builder import build_features
from repro.features.history import HistoryIndex
from repro.telemetry.simulator import simulate_trace

from conftest import run_once


def test_simulate_tiny_trace(benchmark):
    """Whole-trace simulation throughput at unit-test scale."""
    config = preset_config("tiny")
    trace = run_once(benchmark, lambda: simulate_trace(config))
    assert trace.num_samples > 0


def test_feature_build(benchmark, context):
    """Feature-matrix construction over the benchmark trace."""
    trace = context.trace
    features = run_once(benchmark, lambda: build_features(trace))
    print(
        f"\nfeatures: {features.X.shape[0]} samples x {features.X.shape[1]} columns"
    )
    assert features.X.size > 0


def test_history_index_batch_queries(benchmark):
    """Vectorized history cut-point queries (1e5 rows x 2 cuts over 1e4 events).

    Each row's window ``[start, end)`` is the difference of its two cuts.
    """
    rng = np.random.default_rng(0)
    n_events, n_queries = 10_000, 100_000
    index = HistoryIndex(
        keys=rng.integers(0, 500, n_events),
        minutes=rng.uniform(0, 1e5, n_events),
        counts=rng.integers(1, 5, n_events),
    )
    keys = rng.integers(0, 500, n_queries)
    starts = rng.uniform(0, 9e4, n_queries)
    cuts = np.stack((starts + 1440.0, starts))
    benchmark(lambda: index.counts_before(keys, cuts))
