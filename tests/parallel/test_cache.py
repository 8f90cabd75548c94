"""Content-addressed cache: keying, cold/warm parity, corruption fallback."""

import warnings

import numpy as np
import pytest

from repro.experiments.presets import preset_config
from repro.experiments.runner import ExperimentContext
from repro.parallel.cache import ContentCache, config_digest
from repro.store import SegmentedTraceStore
from repro.telemetry.config import TraceConfig
from repro.utils.errors import DegradedDataWarning


class TestConfigDigest:
    def test_digest_is_stable(self):
        config = preset_config("tiny")
        assert config_digest(config) == config_digest(preset_config("tiny"))

    def test_digest_changes_with_any_knob(self):
        base = config_digest(TraceConfig())
        assert config_digest(TraceConfig(seed=3)) != base
        assert config_digest(TraceConfig(duration_days=2.0)) != base
        assert config_digest(TraceConfig(), extra={"top_k_apps": 8}) != base

    def test_extra_params_key_independently(self):
        config = preset_config("tiny")
        a = config_digest(config, extra={"top_k_apps": 16})
        b = config_digest(config, extra={"top_k_apps": 8})
        assert a != b


class TestTraceCache:
    """The context's trace entry: a segment store at ``store_path``."""

    def test_miss_returns_none_silently(self, tmp_path):
        cache = ContentCache(tmp_path)
        config = preset_config("tiny")
        assert not SegmentedTraceStore(cache.store_path(config)).is_committed
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedDataWarning)
            ExperimentContext("tiny", cache_dir=tmp_path).trace
        assert SegmentedTraceStore(cache.store_path(config)).is_committed

    def test_round_trip(self, tmp_path, tiny_trace):
        ExperimentContext("tiny", cache_dir=tmp_path).trace
        loaded = ExperimentContext("tiny", cache_dir=tmp_path).trace
        assert loaded.meta["store"] == str(
            ContentCache(tmp_path).store_path(tiny_trace.config)
        )
        assert loaded.num_samples == tiny_trace.num_samples
        assert np.array_equal(
            loaded.samples["sbe_count"], tiny_trace.samples["sbe_count"]
        )

    def test_corrupt_entry_warns_and_recomputes(self, tmp_path, tiny_trace):
        ExperimentContext("tiny", cache_dir=tmp_path).trace
        store = SegmentedTraceStore(ContentCache(tmp_path).store_path(tiny_trace.config))
        store.segment_path(0).write_bytes(b"junk")
        with pytest.warns(DegradedDataWarning, match="re-simulating"):
            loaded = ExperimentContext("tiny", cache_dir=tmp_path).trace
        assert np.array_equal(
            loaded.samples["sbe_count"], tiny_trace.samples["sbe_count"]
        )


class TestFeatureCache:
    def test_round_trip_preserves_everything(self, tmp_path, tiny_features):
        cache = ContentCache(tmp_path)
        config = preset_config("tiny")
        cache.store_features(config, tiny_features, top_k_apps=16)
        loaded = cache.load_features(config, top_k_apps=16)
        assert loaded is not None
        assert np.array_equal(loaded.X, tiny_features.X)
        assert np.array_equal(loaded.y, tiny_features.y)
        assert loaded.schema.names == tiny_features.schema.names
        assert loaded.schema.tags == tiny_features.schema.tags
        assert set(loaded.meta) == set(tiny_features.meta)
        for name in tiny_features.meta:
            assert np.array_equal(loaded.meta[name], tiny_features.meta[name])

    def test_params_partition_the_key(self, tmp_path, tiny_features):
        cache = ContentCache(tmp_path)
        config = preset_config("tiny")
        cache.store_features(config, tiny_features, top_k_apps=16)
        assert cache.load_features(config, top_k_apps=8) is None

    def test_corrupt_archive_warns_and_recomputes(self, tmp_path, tiny_features):
        cache = ContentCache(tmp_path)
        config = preset_config("tiny")
        path = cache.store_features(config, tiny_features, top_k_apps=16)
        npz = path.with_suffix(".npz")
        npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])
        with pytest.warns(DegradedDataWarning, match="recomputing"):
            assert cache.load_features(config, top_k_apps=16) is None

    def test_corrupt_manifest_warns_and_recomputes(self, tmp_path, tiny_features):
        cache = ContentCache(tmp_path)
        config = preset_config("tiny")
        path = cache.store_features(config, tiny_features, top_k_apps=16)
        path.with_suffix(".json").write_text("{not json")
        with pytest.warns(DegradedDataWarning):
            assert cache.load_features(config, top_k_apps=16) is None


class TestContextIntegration:
    def test_cold_vs_warm_runs_have_identical_metrics(self, tmp_path):
        """A warm feature-cache run scores exactly like the cold run."""
        cold = ExperimentContext("tiny", cache_dir=tmp_path)
        cold_result = cold.twostage("DS1", "lr")
        files = {p.name for p in tmp_path.iterdir()}
        assert any(name.startswith("store-") for name in files)
        assert any(name.startswith("features-") for name in files)

        warm = ExperimentContext("tiny", cache_dir=tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedDataWarning)
            warm_result = warm.twostage("DS1", "lr")
        assert warm_result.f1 == cold_result.f1
        assert warm_result.precision == cold_result.precision
        assert warm_result.recall == cold_result.recall
        assert np.array_equal(warm_result.y_pred, cold_result.y_pred)

    def test_corrupt_feature_cache_falls_back_in_context(self, tmp_path):
        first = ExperimentContext("tiny", cache_dir=tmp_path)
        expected = first.features
        for entry in tmp_path.glob("features-*.npz"):
            entry.write_bytes(b"garbage")
        again = ExperimentContext("tiny", cache_dir=tmp_path)
        with pytest.warns(DegradedDataWarning, match="recomputing"):
            features = again.features
        assert np.array_equal(features.X, expected.X)
