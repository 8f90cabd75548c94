"""Streamed content digest of a segmented store.

:func:`store_trace_digest` computes, one column at a time, exactly the
digest that ``tests/golden/canonical.trace_digest`` computes over the
fully merged in-memory trace — without ever materializing more than one
sample column (plus the tiny run/node tables).  This is what lets the
golden suite, ``tools/ci.sh``, and ``tools/check_determinism.py`` assert
bit-identity for stores too large to load whole:

    store_trace_digest(store) == trace_digest(store.load_trace())

holds by construction, and a parity test enforces it.

Rows and runs are placed by the same two functions the in-memory merge
uses — :func:`~repro.telemetry.simulator.row_destinations` for sample
rows and :func:`~repro.telemetry.simulator.merge_runs` for the runs
table (first shard's per-run draws, cross-checked; ``sbe_total`` summed
segment-ascending) — and node aggregates are concatenated then divided,
so every float comes from the same arithmetic as the merged trace.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.store.segments import SegmentedTraceStore
from repro.telemetry.simulator import merge_runs

__all__ = ["store_trace_digest"]


def _update_array(hasher, name: str, array: np.ndarray) -> None:
    # Must match tests/golden/canonical._update_array byte for byte.
    hasher.update(name.encode())
    hasher.update(str(array.dtype).encode())
    hasher.update(np.ascontiguousarray(array).tobytes())


def store_trace_digest(store: SegmentedTraceStore, *, strict: bool = False) -> str:
    """Content hash of the store's trace, streamed segment-at-a-time.

    Damaged segments heal (or raise, under ``strict``) before any bytes
    are hashed, via :meth:`SegmentedTraceStore.recover`.
    """
    store.recover(strict=strict)
    total, dests = store.row_layout()
    hasher = hashlib.sha256()

    for name in sorted(store.sample_column_names()):
        column: np.ndarray | None = None
        for index in range(store.num_segments):
            part = store.sample_column(index, name)
            if column is None:
                column = np.empty(total, dtype=part.dtype)
            column[dests[index]] = part
        _update_array(hasher, f"samples/{name}", column)

    runs = merge_runs(
        store.completion_order(),
        [store.segment_table(i, "runs") for i in range(store.num_segments)],
    )
    for name in sorted(runs):
        _update_array(hasher, f"runs/{name}", runs[name])

    num_ticks = int(store.read_segment_array(0, "num_ticks"))
    temp_sum = np.concatenate(
        [store.read_segment_array(i, "temp_sum") for i in range(store.num_segments)]
    )
    power_sum = np.concatenate(
        [store.read_segment_array(i, "power_sum") for i in range(store.num_segments)]
    )
    susceptibility = np.concatenate(
        [
            store.read_segment_array(i, "node_susceptibility")
            for i in range(store.num_segments)
        ]
    )
    _update_array(hasher, "node_mean_temp", temp_sum / max(1, num_ticks))
    _update_array(hasher, "node_mean_power", power_sum / max(1, num_ticks))
    _update_array(hasher, "node_susceptibility", susceptibility)
    hasher.update(json.dumps(store.app_names()).encode())

    recorded: dict[int, dict[str, np.ndarray]] = {}
    for index in range(store.num_segments):
        recorded.update(store.recorded_series(index))
    for node in sorted(recorded):
        for name in sorted(recorded[node]):
            _update_array(hasher, f"recorded/{node}/{name}", recorded[node][name])
    return hasher.hexdigest()
