"""Durable segmented trace store — the one on-disk trace format.

``repro.store`` holds simulated traces as **segments** — one checksummed
npz archive per row-aligned :class:`~repro.topology.sharding.ShardSpan`
— under a manifest-written-last commit protocol.  ``repro simulate``
writes it and the experiment cache keeps its trace in it (a
single-archive trace is a 1-segment store).  Simulation and feature
building can produce and consume traces segment-at-a-time without ever
materializing the full arrays, and every storage failure
mode (torn write, bit flip, missing segment, stale manifest, ENOSPC) is
detectable, injectable, and recoverable.  Recovery re-simulates only the
damaged spans through the entity-keyed RNG, so a healed store is
bit-identical to a clean one.
"""

from repro.store.diskfaults import (
    DISK_FAULT_KINDS,
    DiskFaultEvent,
    DiskFaultSpec,
    WriteFaultPlan,
    inject_disk_fault,
)
from repro.store.digest import store_trace_digest
from repro.store.journal import ProgressJournal
from repro.store.pipeline import simulate_trace_to_store
from repro.store.segments import (
    STORE_FORMAT,
    SegmentStatus,
    SegmentedTraceStore,
    store_key,
    write_segment,
)

__all__ = [
    "DISK_FAULT_KINDS",
    "DiskFaultEvent",
    "DiskFaultSpec",
    "ProgressJournal",
    "STORE_FORMAT",
    "SegmentStatus",
    "SegmentedTraceStore",
    "WriteFaultPlan",
    "inject_disk_fault",
    "simulate_trace_to_store",
    "store_key",
    "store_trace_digest",
    "write_segment",
]
