"""Telemetry event model for the online serving path.

An online collector sees the machine as a time-ordered stream: apruns
start, apruns complete (delivering the out-of-band sampler's run
statistics), and batch jobs resolve their nvidia-smi SBE deltas when the
last aprun finishes.  The streaming feature engine consumes exactly this
stream.

:func:`iter_trace_events` reconstructs the stream from a recorded
:class:`~repro.telemetry.trace.Trace` so a saved (or freshly simulated,
or fault-injected-then-sanitized) trace can be replayed through the
online path.  The ordering rules are what the batch history windows imply:

* events are sorted by minute;
* at equal minutes, run *starts* are delivered before completions and
  SBE observations — the batch history windows end-exclusive at the run
  start (``side="left"``), so an SBE stamped at exactly the start minute
  must not be visible to that run;
* remaining ties keep samples-table order (stable sort), which keeps the
  stream deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.features.history import dedupe_job_events, kept_job_rows
from repro.telemetry.trace import SAMPLE_TELEMETRY_COLUMNS, Trace
from repro.utils.errors import ValidationError

__all__ = [
    "RunStarted",
    "RunCompleted",
    "SbeObserved",
    "JobResolved",
    "ROW_COLUMNS",
    "check_run_rows",
    "iter_trace_events",
]

#: Per-row payload columns carried by :class:`RunCompleted`, in order.
#: Deliberately excludes ``sbe_count``: the label is not observable at
#: run completion; it arrives later via :class:`SbeObserved` /
#: :class:`JobResolved`.
ROW_COLUMNS: tuple[str, ...] = (
    "run_idx",
    "job_id",
    "node_id",
    "app_id",
    "prev_app_id",
    "start_minute",
    "end_minute",
    "duration_minutes",
    "n_nodes",
    "gpu_core_hours",
    "gpu_util",
    "max_mem_gb",
    "agg_mem_gb",
) + SAMPLE_TELEMETRY_COLUMNS


@dataclass(frozen=True)
class RunStarted:
    """An aprun was placed on the machine.

    Carries the per-sample-row node/app/start arrays (one entry per
    surviving samples-table row of the run) because the history features
    are evaluated at start time, row by row.
    """

    minute: float
    run_idx: int
    node_ids: np.ndarray
    app_ids: np.ndarray
    start_minutes: np.ndarray


@dataclass(frozen=True)
class RunCompleted:
    """An aprun finished; the sampler delivered its run statistics.

    ``rows`` maps each :data:`ROW_COLUMNS` name to a per-row array.
    """

    minute: float
    run_idx: int
    rows: dict[str, np.ndarray]


@dataclass(frozen=True)
class SbeObserved:
    """One resolved per-(job, node) SBE event (count > 0).

    Stamped at the last end minute of that (job, node) pair — the moment
    the batch job's nvidia-smi delta is attributed, i.e. the moment the
    count becomes observable.  These are the events of
    :func:`~repro.features.history.dedupe_job_events`, the same call that
    seeds the batch builder's history indices.
    """

    minute: float
    job_id: int
    node_id: int
    app_id: int
    count: int


@dataclass(frozen=True)
class JobResolved:
    """A batch job's SBE deltas are fully resolved (labels available).

    Carries counts for *every* node of the job, zeros included, so the
    serving layer can close out ground-truth labels for evaluation and
    periodic retraining.  The feature engine ignores this event; its
    history state is driven by :class:`SbeObserved` alone.
    """

    minute: float
    job_id: int
    node_ids: np.ndarray
    counts: np.ndarray


def check_run_rows(event: RunStarted | RunCompleted) -> int:
    """Row count of a run event whose per-row arrays share one 1-D length.

    Raises :class:`~repro.utils.errors.ValidationError` when a
    ``RunCompleted`` lacks a :data:`ROW_COLUMNS` column, when the event's
    per-row arrays differ in shape, or when it has no rows (a run holds
    at least one node), so a malformed run is refused whole instead of
    being truncated.
    """
    if isinstance(event, RunStarted):
        columns = (event.node_ids, event.app_ids, event.start_minutes)
    else:
        missing = [name for name in ROW_COLUMNS if name not in event.rows]
        if missing:
            raise ValidationError(
                f"run {event.run_idx} rows missing column(s): {', '.join(missing)}"
            )
        columns = event.rows.values()
    shapes = {column.shape for column in columns}
    if len(shapes) != 1 or len(next(iter(shapes))) != 1:
        raise ValidationError(
            f"run {event.run_idx} per-row arrays disagree in shape: "
            f"{sorted(shapes)}"
        )
    (rows,) = shapes.pop()
    if rows == 0:
        raise ValidationError(f"run {event.run_idx} has no rows")
    return rows


# Delivery order at equal minutes (see module docstring).
_PHASE = {RunStarted: 0, RunCompleted: 1, SbeObserved: 2, JobResolved: 3}


def event_phase(event) -> int:
    """Tie-break rank of an event at its minute (starts first)."""
    return _PHASE[type(event)]


def iter_trace_events(trace: Trace):
    """Yield the trace's telemetry events in delivery order.

    The reconstruction gives the batch feature builder's view of the
    same trace: per-run rows keep samples-table order, SBE events are
    :func:`~repro.features.history.dedupe_job_events` over the positive
    rows, and each ``JobResolved`` carries the kept row
    (:func:`~repro.features.history.kept_job_rows`) of every (job, node)
    over all of the job's rows, zeros included.
    """
    if trace.num_samples == 0:
        return
    s = {name: np.asarray(trace.samples[name]) for name in ROW_COLUMNS}
    run_idx = s["run_idx"].astype(int)
    node_id = s["node_id"].astype(int)
    app_id = s["app_id"].astype(int)
    job_id = s["job_id"].astype(int)
    start = s["start_minute"].astype(float)
    end = s["end_minute"].astype(float)
    counts = np.asarray(trace.samples["sbe_count"], dtype=np.int64)

    events: list[tuple[float, int, int, object]] = []
    seq = 0

    def push(event) -> None:
        nonlocal seq
        events.append((event.minute, event_phase(event), seq, event))
        seq += 1

    # --- runs, in first-appearance order: one start + one completion ---
    by_run = np.argsort(run_idx, kind="stable")
    runs = np.split(by_run, np.flatnonzero(np.diff(run_idx[by_run])) + 1)
    for rows in sorted(runs, key=lambda rows: rows[0]):
        rid = int(run_idx[rows[0]])
        push(
            RunStarted(
                minute=float(start[rows].min()),
                run_idx=rid,
                node_ids=node_id[rows],
                app_ids=app_id[rows],
                start_minutes=start[rows],
            )
        )
        push(
            RunCompleted(
                minute=float(end[rows].max()),
                run_idx=rid,
                rows={name: column[rows] for name, column in s.items()},
            )
        )

    # --- per-(job, node) SBE events, deduped like the batch builder ----
    sbe = dedupe_job_events(job_id, node_id, end, counts, app_id)
    for job, node, minute, count, app in zip(*sbe):
        push(
            SbeObserved(
                minute=float(minute),
                job_id=int(job),
                node_id=int(node),
                app_id=int(app),
                count=int(count),
            )
        )

    # --- per-job label resolution (zeros included) ---------------------
    kept = kept_job_rows(job_id, node_id, end)
    for rows in np.split(kept, np.flatnonzero(np.diff(job_id[kept])) + 1):
        push(
            JobResolved(
                minute=float(end[rows].max()),
                job_id=int(job_id[rows[0]]),
                node_ids=node_id[rows],
                counts=counts[rows],
            )
        )

    events.sort(key=lambda item: item[:3])
    for _, _, _, event in events:
        yield event
