"""Tests for hardened trace persistence: atomicity, checksums, errors.

A trace on disk is a segment store; these cases pin its failure
reporting on a 1-segment store (the shape of a plain ``simulate``).
"""

import json
import shutil

import pytest

from repro.store import SegmentedTraceStore, simulate_trace_to_store
from repro.utils.errors import ReproError, SegmentCorruptionError, TraceIOError


@pytest.fixture(scope="module")
def pristine(tmp_path_factory, tiny_trace):
    root = tmp_path_factory.mktemp("trace-io") / "store"
    simulate_trace_to_store(tiny_trace.config, root, segments=1)
    return root


@pytest.fixture()
def saved(pristine, tmp_path):
    root = tmp_path / "store"
    shutil.copytree(pristine, root)
    return SegmentedTraceStore(root)


class TestSave:
    def test_roundtrip(self, saved, tiny_trace):
        loaded = saved.load_trace(strict=True)
        assert loaded.num_samples == tiny_trace.num_samples
        assert loaded.config.seed == tiny_trace.config.seed

    def test_checksum_recorded(self, saved):
        manifest = json.loads(saved.manifest_path.read_text())
        (entry,) = manifest["segments"]
        assert len(entry["checksum"]) == 64

    def test_no_temp_files_left(self, saved):
        leftovers = [p for p in saved.root.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestLoadFailures:
    def test_missing_archive(self, tmp_path):
        missing = SegmentedTraceStore(tmp_path / "nothing")
        with pytest.raises(TraceIOError) as excinfo:
            missing.load_trace()
        assert str(missing.manifest_path) in str(excinfo.value)
        assert excinfo.value.path == missing.manifest_path

    def test_truncated_npz(self, saved):
        npz = saved.segment_path(0)
        npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])
        with pytest.raises(SegmentCorruptionError) as excinfo:
            saved.load_trace(strict=True)
        assert excinfo.value.path == npz

    def test_garbage_json(self, saved):
        saved.manifest_path.write_text("{not json")
        with pytest.raises(TraceIOError):
            SegmentedTraceStore(saved.root).load_trace()

    def test_json_without_config(self, saved):
        raw = json.loads(saved.manifest_path.read_text())
        del raw["config"]
        saved.manifest_path.write_text(json.dumps(raw))
        with pytest.raises(TraceIOError, match="config"):
            SegmentedTraceStore(saved.root).load_trace()

    def test_checksum_mismatch(self, saved):
        raw = json.loads(saved.manifest_path.read_text())
        raw["segments"][0]["checksum"] = "0" * 64
        saved.manifest_path.write_text(json.dumps(raw))
        with pytest.raises(TraceIOError, match="checksum"):
            SegmentedTraceStore(saved.root).load_trace(strict=True)

    def test_trace_io_error_is_repro_error(self):
        assert issubclass(TraceIOError, ReproError)
