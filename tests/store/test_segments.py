"""Segmented store format, commit protocol, journal, and recovery."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.store import (
    DiskFaultSpec,
    SegmentedTraceStore,
    inject_disk_fault,
    simulate_trace_to_store,
    store_trace_digest,
)
from repro.store.segments import MANIFEST_NAME, STORE_FORMAT
from repro.utils.errors import (
    DegradedDataWarning,
    SegmentCorruptionError,
    SimulatedCrashError,
    TraceIOError,
    ValidationError,
)

from tests.golden.canonical import trace_digest


class TestRoundtrip:
    def test_load_trace_is_bit_identical_to_serial(
        self, store_copy, serial_digest
    ):
        assert trace_digest(store_copy.load_trace()) == serial_digest

    def test_streamed_digest_matches_serial(self, store_copy, serial_digest):
        assert store_trace_digest(store_copy) == serial_digest

    def test_manifest_records_every_segment(self, store_copy, serial_trace):
        entries = store_copy.entries()
        assert len(entries) == store_copy.num_segments
        assert store_copy.num_samples == serial_trace.num_samples
        assert [e["index"] for e in entries] == list(range(len(entries)))
        for entry in entries:
            assert set(entry) >= {
                "index",
                "lo",
                "hi",
                "file",
                "checksum",
                "num_samples",
            }

    def test_manifest_format_is_pinned(self, store_copy):
        raw = json.loads(store_copy.manifest_path.read_text())
        assert raw["format"] == STORE_FORMAT

    def test_config_roundtrips_through_manifest(self, store_copy, store_config):
        assert store_copy.config() == store_config

    def test_row_layout_is_a_permutation(self, store_copy, serial_trace):
        total, dests = store_copy.row_layout()
        assert total == serial_trace.num_samples
        stacked = np.concatenate(dests)
        assert np.array_equal(np.sort(stacked), np.arange(total))

    def test_jobs_parallel_store_is_identical(
        self, store_config, serial_digest, tmp_path
    ):
        store = simulate_trace_to_store(
            store_config, tmp_path / "par", segments=4, jobs=2
        )
        assert store_trace_digest(store) == serial_digest


class TestCommitProtocol:
    def test_manifest_written_last(self, store_config, tmp_path):
        root = tmp_path / "crash"
        with pytest.raises(SimulatedCrashError):
            simulate_trace_to_store(
                store_config, root, segments=4, crash_after_segments=2
            )
        # Segments and journal are durable; the commit point is not.
        assert not (root / MANIFEST_NAME).exists()
        assert not SegmentedTraceStore(root).is_committed
        assert sorted(p.name for p in root.glob("seg-*.npz")) == [
            "seg-0000.npz",
            "seg-0001.npz",
        ]

    def test_kill_and_resume_is_bit_identical(
        self, store_config, serial_digest, tmp_path
    ):
        root = tmp_path / "resume"
        with pytest.raises(SimulatedCrashError) as excinfo:
            simulate_trace_to_store(
                store_config, root, segments=4, crash_after_segments=1
            )
        assert excinfo.value.unit == "segments"
        store = simulate_trace_to_store(
            store_config, root, segments=4, resume=True
        )
        assert store.is_committed
        assert store_trace_digest(store) == serial_digest

    def test_resume_keeps_committed_segments(self, store_config, tmp_path):
        root = tmp_path / "keep"
        with pytest.raises(SimulatedCrashError):
            simulate_trace_to_store(
                store_config, root, segments=4, crash_after_segments=1
            )
        before = (root / "seg-0000.npz").stat().st_mtime_ns
        simulate_trace_to_store(store_config, root, segments=4, resume=True)
        assert (root / "seg-0000.npz").stat().st_mtime_ns == before

    def test_resume_refuses_incompatible_journal(self, store_config, tmp_path):
        root = tmp_path / "mismatch"
        with pytest.raises(SimulatedCrashError):
            simulate_trace_to_store(
                store_config, root, segments=4, crash_after_segments=1
            )
        other = replace(store_config, seed=store_config.seed + 1)
        with pytest.raises(ValidationError, match="refusing to resume"):
            simulate_trace_to_store(other, root, segments=4, resume=True)

    def test_fresh_run_discards_previous_segments(
        self, store_config, serial_digest, tmp_path
    ):
        root = tmp_path / "fresh"
        with pytest.raises(SimulatedCrashError):
            simulate_trace_to_store(
                store_config, root, segments=4, crash_after_segments=1
            )
        store = simulate_trace_to_store(store_config, root, segments=4)
        assert store_trace_digest(store) == serial_digest


class TestRecovery:
    def test_corrupt_segment_heals_to_identical_content(
        self, store_copy, serial_digest
    ):
        inject_disk_fault(store_copy, DiskFaultSpec("bitflip", seed=5, segment=2))
        with pytest.warns(DegradedDataWarning, match="re-simulating span"):
            trace = store_copy.load_trace()
        assert trace_digest(trace) == serial_digest

    def test_damaged_file_is_quarantined(self, store_copy):
        inject_disk_fault(store_copy, DiskFaultSpec("torn", seed=1, segment=1))
        with pytest.warns(DegradedDataWarning):
            store_copy.recover()
        quarantined = list(store_copy.quarantine_path.iterdir())
        assert [p.name for p in quarantined] == ["seg-0001.npz.0"]

    def test_strict_mode_raises_typed_error(self, store_copy):
        inject_disk_fault(store_copy, DiskFaultSpec("bitflip", seed=5, segment=2))
        with pytest.raises(SegmentCorruptionError) as excinfo:
            store_copy.load_trace(strict=True)
        assert excinfo.value.index == 2
        message = str(excinfo.value)
        # Satellite contract: mismatch reports expected AND actual digests
        # plus the offending path.
        assert "expected" in message and "actual" in message
        assert "seg-0002.npz" in message

    def test_truncated_segment_reports_expected_and_actual(self, store_copy):
        npz = store_copy.segment_path(1)
        npz.write_bytes(npz.read_bytes()[:-7])
        with pytest.raises(SegmentCorruptionError) as excinfo:
            store_copy.load_trace(strict=True)
        message = str(excinfo.value)
        assert "expected" in message and "actual" in message
        assert str(npz) in message

    def test_recover_rewrites_manifest_checksum(self, store_copy):
        inject_disk_fault(store_copy, DiskFaultSpec("torn", seed=1, segment=1))
        with pytest.warns(DegradedDataWarning):
            statuses = store_copy.recover()
        assert [s.status for s in statuses] == ["ok", "recovered", "ok", "ok"]
        # The healed npz need not be byte-identical (zip metadata varies;
        # only array *content* is pinned), but the manifest must agree
        # with the bytes actually on disk.
        reopened = SegmentedTraceStore(store_copy.root)
        assert all(s.status == "ok" for s in reopened.verify())

    def test_missing_manifest_is_a_trace_io_error(self, store_copy):
        store_copy.manifest_path.unlink()
        fresh = SegmentedTraceStore(store_copy.root)
        with pytest.raises(TraceIOError, match="unreadable store manifest"):
            fresh.manifest()

    def test_unsupported_format_is_rejected(self, store_copy):
        raw = json.loads(store_copy.manifest_path.read_text())
        raw["format"] = STORE_FORMAT + 1
        store_copy.manifest_path.write_text(json.dumps(raw))
        fresh = SegmentedTraceStore(store_copy.root)
        with pytest.raises(TraceIOError, match="unsupported store format"):
            fresh.manifest()
