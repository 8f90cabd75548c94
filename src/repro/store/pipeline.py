"""Crash-safe, resumable simulation straight into a segmented store.

:func:`simulate_trace_to_store` plans row-aligned spans, simulates them
(in-process or on a process pool), and commits each result to disk as a
checksummed segment the moment it is ready — journaling every commit —
so at most one segment's work is ever lost to a crash.  The manifest is
written last: only a store that holds every verified segment ever claims
to be complete.

Resume (``resume=True``) re-verifies each journaled segment's checksum
against the bytes on disk, re-simulates any that fail (a torn commit
whose rename survived but whose data did not), and simulates only the
spans with no durable segment.  Because every random draw is keyed by a
stable entity, the resumed store is bit-identical to an uninterrupted
one — ``tools/check_determinism.py`` kills a run mid-flight and checks
exactly that.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.parallel.simulate import iter_shard_results
from repro.store.diskfaults import WriteFaultPlan, truncate_file
from repro.store.journal import ProgressJournal
from repro.store.segments import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    SegmentedTraceStore,
    segment_file_name,
    store_key,
    write_segment,
)
from repro.telemetry.config import TraceConfig
from repro.telemetry.simulator import record_span_metrics
from repro.topology.sharding import plan_shards
from repro.utils.errors import SimulatedCrashError, ValidationError
from repro.utils.io import sha256_file

__all__ = ["simulate_trace_to_store", "DEFAULT_SEGMENTS"]

#: Default segment count; clamped to the machine's cabinet-row count.
DEFAULT_SEGMENTS = 8

#: Journal step holding run-level metadata (app names) alongside the
#: numeric per-segment steps.
_META_STEP = "__meta__"


def _verified_entry(
    journal: ProgressJournal, root: Path, index: int
) -> dict | None:
    """The journaled entry for segment ``index`` iff its bytes check out."""
    entry = journal.entry(str(index))
    if entry is None:
        return None
    path = root / str(entry.get("file", segment_file_name(index)))
    try:
        if sha256_file(path) == entry["checksum"]:
            return entry
    except (OSError, KeyError):
        pass
    journal.forget(str(index))
    return None


def simulate_trace_to_store(
    config: TraceConfig | None = None,
    root: str | Path = "trace-store",
    *,
    segments: int = DEFAULT_SEGMENTS,
    jobs: int = 1,
    resume: bool = False,
    crash_after_segments: int | None = None,
    write_fault: WriteFaultPlan | None = None,
) -> SegmentedTraceStore:
    """Simulate ``config`` segment-at-a-time into a store at ``root``.

    Only one segment's :class:`~repro.telemetry.simulator.ShardResult`
    is in memory at a time (per worker), which is what lets a trace far
    larger than RAM be produced and later consumed out of core.

    ``resume`` continues a killed run on top of its journal (refusing,
    via :class:`~repro.utils.errors.ValidationError`, a journal written
    under a different config or plan); without it any previous segments,
    journal, and manifest under ``root`` are discarded.  The fault hooks
    — ``crash_after_segments`` raises
    :class:`~repro.utils.errors.SimulatedCrashError` after that many
    fresh commits, ``write_fault`` injects an ENOSPC or torn-commit
    failure — exist so tests and ``tools/ci.sh`` can exercise the
    recovery path deliberately.
    """
    config = config or TraceConfig()
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    if segments < 1:
        raise ValidationError(f"segments must be >= 1, got {segments}")
    spans = plan_shards(config.machine, segments)
    key = store_key(config, len(spans))
    store = SegmentedTraceStore(root)
    journal = ProgressJournal(root / JOURNAL_NAME, key=key)

    done: dict[int, dict] = {}
    if resume:
        journal.load(require_match=True)
        for span in spans:
            entry = _verified_entry(journal, root, span.index)
            if entry is not None:
                done[span.index] = entry
    else:
        for path in sorted(root.glob("seg-*.npz")):
            path.unlink()
        (root / MANIFEST_NAME).unlink(missing_ok=True)
        shutil.rmtree(store.quarantine_path, ignore_errors=True)
        journal.clear()

    pending = [span for span in spans if span.index not in done]
    committed_this_run = 0
    app_names: list[str] | None = None
    meta = journal.entry(_META_STEP)
    if meta is not None:
        app_names = list(meta["app_names"])

    for span, result in iter_shard_results(config, pending, jobs=jobs):
        if app_names is None:
            app_names = list(result.app_names)
            journal.record(_META_STEP, {"app_names": app_names})
        limit = (
            write_fault.limit_bytes
            if write_fault is not None
            and write_fault.kind == "enospc"
            and write_fault.segment == span.index
            else None
        )
        path = root / segment_file_name(span.index)
        entry = write_segment(path, result, span, limit_bytes=limit)
        record_span_metrics(result)
        journal.record(str(span.index), entry)
        done[span.index] = entry
        committed_this_run += 1
        if (
            write_fault is not None
            and write_fault.kind == "torn_commit"
            and write_fault.segment == span.index
        ):
            # The rename survived, the page cache did not: journal and
            # file name say committed, the bytes are short.
            truncate_file(path, write_fault.fraction)
            raise SimulatedCrashError(committed_this_run, unit="segments")
        if (
            crash_after_segments is not None
            and committed_this_run >= crash_after_segments
            and len(done) < len(spans)
        ):
            raise SimulatedCrashError(committed_this_run, unit="segments")

    if app_names is None:
        raise ValidationError(
            f"journal at {journal.path} has segments but no run metadata; "
            "rerun without resume"
        )
    entries = [done[span.index] for span in spans]
    store.write_manifest(config, entries, app_names)
    return store
