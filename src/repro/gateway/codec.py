"""JSON wire codec for telemetry events (HTTP ingest boundary).

The in-process gateway consumes the dataclass events from
:mod:`repro.serve.events` directly; the HTTP front end needs those same
events as JSON.  The codec is strict both ways: unknown event types,
missing fields, malformed or non-finite numerics (JSON ``NaN`` and
``Infinity`` parse as floats), or per-row arrays that disagree in shape
raise
:class:`~repro.utils.errors.ValidationError` (the HTTP layer maps that
to 400 + a ``rejected`` count — malformed input is *rejected at the
door*, never silently dropped and never allowed to poison a shard's
feature history).

Arrays round-trip as plain lists; dtypes are re-imposed on decode so a
decoded event is processed by the feature engine exactly like its
in-process twin.
"""

from __future__ import annotations

import math

import numpy as np

from repro.serve.events import (
    ROW_COLUMNS,
    JobResolved,
    RunCompleted,
    RunStarted,
    SbeObserved,
    check_run_rows,
)
from repro.utils.errors import ValidationError

__all__ = ["event_to_dict", "event_from_dict"]

_INT_ROW_COLUMNS = {
    "run_idx",
    "job_id",
    "node_id",
    "app_id",
    "prev_app_id",
    "n_nodes",
}


def event_to_dict(event) -> dict:
    """Encode one stream event as a JSON-safe dict with a ``type`` tag."""
    if isinstance(event, RunStarted):
        return {
            "type": "run_started",
            "minute": float(event.minute),
            "run_idx": int(event.run_idx),
            "node_ids": [int(v) for v in event.node_ids],
            "app_ids": [int(v) for v in event.app_ids],
            "start_minutes": [float(v) for v in event.start_minutes],
        }
    if isinstance(event, RunCompleted):
        return {
            "type": "run_completed",
            "minute": float(event.minute),
            "run_idx": int(event.run_idx),
            "rows": {
                name: [float(v) for v in event.rows[name]]
                for name in ROW_COLUMNS
            },
        }
    if isinstance(event, SbeObserved):
        return {
            "type": "sbe_observed",
            "minute": float(event.minute),
            "job_id": int(event.job_id),
            "node_id": int(event.node_id),
            "app_id": int(event.app_id),
            "count": int(event.count),
        }
    if isinstance(event, JobResolved):
        return {
            "type": "job_resolved",
            "minute": float(event.minute),
            "job_id": int(event.job_id),
            "node_ids": [int(v) for v in event.node_ids],
            "counts": [int(v) for v in event.counts],
        }
    raise ValidationError(f"cannot encode event of type {type(event).__name__}")


def _require(payload: dict, *names: str) -> list:
    missing = [name for name in names if name not in payload]
    if missing:
        raise ValidationError(
            f"event payload missing field(s): {', '.join(missing)}"
        )
    return [payload[name] for name in names]


def _minute(value) -> float:
    minute = float(value)
    if not math.isfinite(minute):
        raise ValidationError(f"event minute must be finite, got {minute}")
    return minute


def event_from_dict(payload) -> object:
    """Decode one JSON event dict back into its dataclass form."""
    if not isinstance(payload, dict):
        raise ValidationError("event payload must be a JSON object")
    kind = payload.get("type")
    try:
        if kind == "run_started":
            minute, run_idx, nodes, apps, starts = _require(
                payload, "minute", "run_idx", "node_ids", "app_ids",
                "start_minutes",
            )
            event = RunStarted(
                minute=_minute(minute),
                run_idx=int(run_idx),
                node_ids=np.asarray(nodes, dtype=int),
                app_ids=np.asarray(apps, dtype=int),
                start_minutes=np.asarray(starts, dtype=float),
            )
            check_run_rows(event)
            if not np.isfinite(event.start_minutes).all():
                raise ValidationError("run_started start_minutes must be finite")
            return event
        if kind == "run_completed":
            minute, run_idx, rows = _require(payload, "minute", "run_idx", "rows")
            if not isinstance(rows, dict):
                raise ValidationError("run_completed rows must be an object")
            missing = [name for name in ROW_COLUMNS if name not in rows]
            if missing:
                raise ValidationError(
                    f"run_completed rows missing column(s): {', '.join(missing)}"
                )
            decoded = {
                name: np.asarray(
                    rows[name],
                    dtype=int if name in _INT_ROW_COLUMNS else float,
                )
                for name in ROW_COLUMNS
            }
            event = RunCompleted(
                minute=_minute(minute), run_idx=int(run_idx), rows=decoded
            )
            check_run_rows(event)
            return event
        if kind == "sbe_observed":
            minute, job_id, node_id, app_id, count = _require(
                payload, "minute", "job_id", "node_id", "app_id", "count"
            )
            return SbeObserved(
                minute=_minute(minute),
                job_id=int(job_id),
                node_id=int(node_id),
                app_id=int(app_id),
                count=int(count),
            )
        if kind == "job_resolved":
            minute, job_id, nodes, counts = _require(
                payload, "minute", "job_id", "node_ids", "counts"
            )
            event = JobResolved(
                minute=_minute(minute),
                job_id=int(job_id),
                node_ids=np.asarray(nodes, dtype=int),
                counts=np.asarray(counts, dtype=np.int64),
            )
            if event.node_ids.ndim != 1 or event.node_ids.shape != event.counts.shape:
                raise ValidationError(
                    "job_resolved node_ids and counts must be one list each "
                    "of equal length"
                )
            return event
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {kind} event: {exc}") from exc
    raise ValidationError(f"unknown event type: {kind!r}")
