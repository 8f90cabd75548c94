"""Stateful streaming feature engine.

Consumes the telemetry event stream (:mod:`repro.serve.events`) in
delivery order and emits one model-ready feature row per (run, node)
sample at run completion.  A row is defined once, in
:mod:`repro.features.builder`, and the engine calls that definition:

* its schema is :func:`~repro.features.builder.feature_schema`, built
  once per engine;
* at run *start* it evaluates
  :func:`~repro.features.builder.history_counts` against
  :class:`~repro.features.history.IncrementalHistoryIndex` instances fed
  only the SBE events observed so far, plus the run's
  :func:`~repro.features.builder.alloc_history`;
* at run completion it passes the completion payload and those counts to
  :func:`~repro.features.builder.feature_block`;
* the app indicator vocabulary (``app_is_topNN``) is supplied by the
  caller — frozen at training time in production, or computed with
  :func:`~repro.features.builder.compute_top_apps` for replay parity.

The parity tests hold the emitted rows **bit-identical** to
:func:`~repro.features.builder.build_features` on the same trace.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.features.builder import (
    FeatureMatrix,
    alloc_history,
    feature_block,
    feature_schema,
    history_counts,
)
from repro.obs import get_registry
from repro.features.history import IncrementalHistoryIndex
from repro.features.schema import FeatureSchema
from repro.serve.events import (
    JobResolved,
    RunCompleted,
    RunStarted,
    SbeObserved,
    check_run_rows,
)
from repro.topology.machine import Machine
from repro.utils.errors import ValidationError

__all__ = [
    "StreamedRow",
    "StreamingFeatureEngine",
    "rows_to_matrix",
]


class StreamedRow(NamedTuple):
    """One (run, node) feature row emitted at run completion.

    A named tuple because the engine builds one per emitted row, and a
    tuple is built in one C call.
    """

    run_idx: int
    job_id: int
    node_id: int
    app_id: int
    start_minute: float
    end_minute: float
    duration_minutes: float
    n_nodes: int
    gpu_core_hours: float
    #: Feature vector in the engine's schema order.
    features: np.ndarray


class StreamingFeatureEngine:
    """Turns the event stream into feature rows, one run at a time."""

    def __init__(self, machine: Machine, top_apps: np.ndarray) -> None:
        self._machine = machine
        self._top_apps = np.asarray(top_apps, dtype=int)
        self.schema = feature_schema(self._top_apps.size)
        self._node_index = IncrementalHistoryIndex()
        self._app_index = IncrementalHistoryIndex()
        #: run_idx -> ``(10, n)`` history block computed at the run's start.
        self._pending: dict[int, np.ndarray] = {}
        self.rows_emitted = 0
        self.events_processed = 0

    # ------------------------------------------------------------------
    def process(self, event) -> list[StreamedRow]:
        """Apply one event; returns emitted rows (non-empty on completion)."""
        self.events_processed += 1
        if isinstance(event, RunStarted):
            self._on_start(event)
            return []
        if isinstance(event, RunCompleted):
            return self._on_complete(event)
        if isinstance(event, SbeObserved):
            self._node_index.add(event.node_id, event.minute, event.count)
            self._app_index.add(event.app_id, event.minute, event.count)
            return []
        if isinstance(event, JobResolved):
            return []  # label bookkeeping is the serving layer's job
        raise ValidationError(f"unknown telemetry event type: {type(event).__name__}")

    def stream(self, events):
        """Process an iterable of events, yielding rows as they emit."""
        for event in events:
            yield from self.process(event)

    # ------------------------------------------------------------------
    def _on_start(self, event: RunStarted) -> None:
        if event.run_idx in self._pending:
            raise ValidationError(f"run {event.run_idx} started twice")
        n = check_run_rows(event)
        if not np.isfinite(event.start_minutes).all():
            raise ValidationError(f"run {event.run_idx} start minutes must be finite")
        counts = history_counts(
            self._node_index,
            self._app_index,
            event.node_ids,
            event.app_ids,
            event.start_minutes,
        )
        self._pending[event.run_idx] = np.vstack(
            (counts, alloc_history(None, counts[0]))
        )

    def _on_complete(self, event: RunCompleted) -> list[StreamedRow]:
        # Popped before the row checks: a refused completion still ends the
        # run, so it is not carried pending (and checkpointed) forever.
        history = self._pending.pop(event.run_idx, None)
        if history is None:
            raise ValidationError(
                f"run {event.run_idx} completed but was never started"
            )
        n = check_run_rows(event)
        if n != history.shape[1]:
            raise ValidationError(
                f"run {event.run_idx} completed with {n} rows but started "
                f"with {history.shape[1]}"
            )
        r = event.rows
        X = feature_block(r, self._machine, self._top_apps, history)
        # Every StreamedRow field but the last, ``features``, is a row column.
        rows = [
            StreamedRow(*meta, features=features)
            for *meta, features in zip(
                *(r[name].tolist() for name in StreamedRow._fields[:-1]), X
            )
        ]
        self.rows_emitted += len(rows)
        # Looked up lazily: the engine is pickled into replay checkpoints
        # and must not hold a registry (and its lock) in its state.
        get_registry().counter(
            "repro_features_rows_total", "Feature rows built, per builder kind."
        ).inc(len(rows), builder="streaming")
        return rows


def rows_to_matrix(
    rows: list[StreamedRow],
    schema: FeatureSchema,
    *,
    sbe_counts: np.ndarray | None = None,
) -> FeatureMatrix:
    """Assemble streamed rows into a batch-compatible feature matrix.

    ``sbe_counts`` supplies the resolved per-row labels (defaults to all
    zeros for not-yet-resolved rows); the result then feeds the same
    :class:`~repro.core.twostage.TwoStagePredictor` fit/predict API as
    the batch path.
    """
    n = len(rows)
    if n == 0:
        raise ValidationError("cannot build a feature matrix from zero rows")
    if sbe_counts is None:
        sbe_counts = np.zeros(n, dtype=np.int64)
    sbe_counts = np.asarray(sbe_counts, dtype=np.int64)
    if sbe_counts.shape[0] != n:
        raise ValidationError("sbe_counts and rows disagree on sample count")
    # Fused single-pass fill: preallocate the matrix and every meta array
    # once and populate them in one walk over the rows (the micro-batch
    # hot path used to make ~10 separate list-comprehension passes plus a
    # vstack here).  Values and dtypes are unchanged, so this is
    # bit-identical to the old assembly.
    X = np.empty((n, len(schema)), dtype=float)
    run_idx = np.empty(n, dtype=int)
    job_id = np.empty(n, dtype=int)
    node_id = np.empty(n, dtype=int)
    app_id = np.empty(n, dtype=int)
    start_minute = np.empty(n, dtype=float)
    end_minute = np.empty(n, dtype=float)
    duration_minutes = np.empty(n, dtype=float)
    n_nodes = np.empty(n, dtype=int)
    gpu_core_hours = np.empty(n, dtype=float)
    for i, row in enumerate(rows):
        X[i] = row.features
        run_idx[i] = row.run_idx
        job_id[i] = row.job_id
        node_id[i] = row.node_id
        app_id[i] = row.app_id
        start_minute[i] = row.start_minute
        end_minute[i] = row.end_minute
        duration_minutes[i] = row.duration_minutes
        n_nodes[i] = row.n_nodes
        gpu_core_hours[i] = row.gpu_core_hours
    meta = {
        "run_idx": run_idx,
        "job_id": job_id,
        "node_id": node_id,
        "app_id": app_id,
        "start_minute": start_minute,
        "end_minute": end_minute,
        "duration_minutes": duration_minutes,
        "n_nodes": n_nodes,
        "gpu_core_hours": gpu_core_hours,
        "sbe_count": sbe_counts,
    }
    return FeatureMatrix(
        X=X,
        y=(sbe_counts > 0).astype(int),
        schema=schema,
        meta=meta,
    )
