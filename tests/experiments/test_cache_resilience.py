"""Tests for the experiment context's resilient disk cache.

The context caches its trace as a segment store; every fault below is
either healed (with a warning) or, under ``strict``, raised as a typed
error, and never wedges the cache.
"""

import json
import warnings
from pathlib import Path

import pytest

from repro.experiments.presets import preset_config
from repro.experiments.runner import ExperimentContext
from repro.obs import MetricsRegistry, use_registry
from repro.store import simulate_trace_to_store
from repro.utils.errors import (
    DegradedDataWarning,
    SegmentCorruptionError,
    SimulatedCrashError,
    TraceIOError,
)

from tests.golden.canonical import trace_digest

TINY_PIN = json.loads(
    (Path(__file__).parents[1] / "golden" / "trace_digests.json").read_text()
)["tiny"]


def _store_dir(tmp_path):
    dirs = list(tmp_path.glob("store-*"))
    assert len(dirs) == 1
    return dirs[0]


def _cache_npz(tmp_path):
    files = list(_store_dir(tmp_path).glob("seg-*.npz"))
    assert len(files) == 1
    return files[0]


def _sim_counters(registry) -> dict[str, float]:
    return {
        inst.name: sum(value for _, value in inst.samples())
        for inst in registry.instruments()
        if inst.name.startswith("repro_sim_") and inst.kind == "counter"
    }


@pytest.fixture()
def cached(tmp_path):
    """A cache directory holding a committed tiny store."""
    ExperimentContext("tiny", cache_dir=tmp_path).trace
    return tmp_path


class TestCacheFallback:
    def test_corrupt_cache_falls_back_to_resimulation(self, cached):
        expected_rows = ExperimentContext("tiny", cache_dir=cached).trace.num_samples
        _cache_npz(cached).write_bytes(b"this is not a zip archive")

        again = ExperimentContext("tiny", cache_dir=cached)
        with pytest.warns(DegradedDataWarning, match="re-simulating"):
            trace = again.trace
        assert trace.num_samples == expected_rows

    def test_fallback_rewrites_a_valid_cache(self, cached):
        _cache_npz(cached).write_bytes(b"junk")

        broken = ExperimentContext("tiny", cache_dir=cached)
        with pytest.warns(DegradedDataWarning):
            broken.trace

        # Third context reads the repaired cache silently.
        healed = ExperimentContext("tiny", cache_dir=cached)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedDataWarning)
            assert healed.trace.num_samples > 0

    def test_truncated_cache_falls_back(self, cached):
        npz = _cache_npz(cached)
        npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 3])

        again = ExperimentContext("tiny", cache_dir=cached)
        with pytest.warns(DegradedDataWarning):
            assert again.trace.num_samples > 0


class TestStoreCache:
    def test_corrupt_segment_heals_to_the_same_trace(self, cached):
        npz = _cache_npz(cached)
        data = bytearray(npz.read_bytes())
        data[len(data) // 2] ^= 0xFF
        npz.write_bytes(bytes(data))
        with pytest.warns(DegradedDataWarning, match="re-simulating span"):
            trace = ExperimentContext("tiny", cache_dir=cached).trace
        assert trace_digest(trace) == TINY_PIN

    def test_corrupt_segment_under_strict_raises(self, cached):
        npz = _cache_npz(cached)
        npz.write_bytes(npz.read_bytes()[:-7])
        strict = ExperimentContext("tiny", cache_dir=cached, strict=True)
        with pytest.raises(SegmentCorruptionError, match="expected .* actual"):
            strict.trace

    def test_garbage_manifest_is_rebuilt(self, cached):
        (_store_dir(cached) / "MANIFEST.json").write_text("{not json")
        with pytest.warns(DegradedDataWarning, match="re-simulating"):
            trace = ExperimentContext("tiny", cache_dir=cached).trace
        assert trace_digest(trace) == TINY_PIN
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedDataWarning)
            assert ExperimentContext("tiny", cache_dir=cached).trace.num_samples > 0

    def test_garbage_manifest_under_strict_raises(self, cached):
        (_store_dir(cached) / "MANIFEST.json").write_text("{not json")
        strict = ExperimentContext("tiny", cache_dir=cached, strict=True)
        with pytest.raises(TraceIOError, match="unreadable store manifest"):
            strict.trace

    def test_killed_parallel_build_then_serial_context(self, tmp_path):
        config = preset_config("tiny")
        root = ExperimentContext("tiny", cache_dir=tmp_path).cache.store_path(config)
        with pytest.raises(SimulatedCrashError):
            simulate_trace_to_store(
                config, root, segments=2, jobs=2, crash_after_segments=1
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedDataWarning)
            trace = ExperimentContext("tiny", cache_dir=tmp_path, jobs=1).trace
        assert trace_digest(trace) == TINY_PIN

    def test_sim_metrics_recorded_once_cold_and_never_warm(self, tmp_path):
        with use_registry(MetricsRegistry()) as registry:
            cold = ExperimentContext("tiny", cache_dir=tmp_path).trace
        counters = _sim_counters(registry)
        assert counters["repro_sim_rows_total"] == cold.num_samples
        assert counters["repro_sim_shard_rows_total"] == cold.num_samples

        with use_registry(MetricsRegistry()) as registry:
            ExperimentContext("tiny", cache_dir=tmp_path).trace
        assert _sim_counters(registry) == {}
