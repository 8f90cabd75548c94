"""Micro-batching scorer: drains feature rows, emits ranked alerts.

Scoring row-by-row would pay the full Python/numpy dispatch cost per
sample; scoring only at the end would not be *online*.  The scorer takes
the standard middle road: rows queue as the engine emits them and the
queue drains as one vectorized TwoStage prediction when either

* the queue reaches ``max_batch_size`` rows (size flush), or
* the oldest queued row has waited ``flush_deadline_minutes`` of event
  time (deadline flush) — a bound on alert latency, checked against the
  stream clock the caller passes in.

Every flush produces one :class:`Alert` per scored row (the positive
ones are the operator-facing alerts, ranked by decision score) and
updates the latency / throughput / queue-depth counters.  The model can
be hot-swapped between batches (:meth:`MicroBatchScorer.swap_model`),
which is how the periodic-retrain loop publishes new registry versions
without dropping rows.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from repro.core.twostage import TwoStagePredictor
from repro.features.schema import FeatureSchema
from repro.obs import DEFAULT_MINUTE_BUCKETS, DEFAULT_SIZE_BUCKETS, get_registry
from repro.serve.engine import StreamedRow, rows_to_matrix
from repro.utils.errors import ValidationError
from repro.utils.validation import check_positive

__all__ = ["ScorerConfig", "Alert", "ServeCounters", "MicroBatchScorer"]


def _flush_counter():
    """The shared flush counter (looked up lazily; scorers pickle)."""
    return get_registry().counter(
        "repro_serve_flushes_total", "Micro-batch flushes, by trigger kind."
    )


@dataclass(frozen=True)
class ScorerConfig:
    """Micro-batching knobs."""

    #: Flush as soon as this many rows are queued.
    max_batch_size: int = 256
    #: Flush when the oldest queued row has waited this long (event time).
    flush_deadline_minutes: float = 30.0

    def __post_init__(self) -> None:
        check_positive(self.max_batch_size, "max_batch_size")
        check_positive(self.flush_deadline_minutes, "flush_deadline_minutes")


@dataclass(frozen=True)
class Alert:
    """One scored (run, node) sample."""

    run_idx: int
    job_id: int
    node_id: int
    app_id: int
    end_minute: float
    #: Event-time minute at which the row was scored.
    scored_minute: float
    #: Ranking score from :meth:`TwoStagePredictor.decision_scores`.
    score: float
    #: Thresholded SBE prediction (1 = alert the operator).
    predicted: int
    #: Registry version of the model that scored the row.
    model_version: int
    #: Which path scored the row: ``"primary"`` or ``"fallback:<name>"``
    #: (the latter only from the supervised scorer under degradation).
    source: str = "primary"


@dataclass
class ServeCounters:
    """Scoring-service telemetry."""

    rows_in: int = 0
    rows_scored: int = 0
    batches: int = 0
    size_flushes: int = 0
    deadline_flushes: int = 0
    final_flushes: int = 0
    positive_alerts: int = 0
    max_queue_depth: int = 0
    #: Sum over scored rows of (scored_minute - enqueue_minute).
    total_queue_minutes: float = 0.0
    #: Wall-clock seconds spent inside model prediction.
    scoring_seconds: float = 0.0
    batch_sizes: list[int] = field(default_factory=list)

    @property
    def mean_queue_minutes(self) -> float:
        """Mean event-time latency from emission to scoring."""
        if self.rows_scored == 0:
            return 0.0
        return self.total_queue_minutes / self.rows_scored

    @property
    def rows_per_second(self) -> float:
        """Scoring throughput over wall-clock prediction time."""
        if self.scoring_seconds <= 0.0:
            return 0.0
        return self.rows_scored / self.scoring_seconds


class MicroBatchScorer:
    """Queues streamed rows and scores them in vectorized micro-batches."""

    def __init__(
        self,
        predictor: TwoStagePredictor,
        schema: FeatureSchema,
        config: ScorerConfig | None = None,
        *,
        model_version: int = 1,
    ) -> None:
        self._predictor = predictor
        self._schema = schema
        self.config = config or ScorerConfig()
        self.model_version = int(model_version)
        self.counters = ServeCounters()
        self._queue: deque[tuple[float, StreamedRow]] = deque()

    # ------------------------------------------------------------------
    @property
    def predictor(self) -> TwoStagePredictor:
        """The currently-serving model."""
        return self._predictor

    @property
    def queue_depth(self) -> int:
        """Rows waiting for the next flush."""
        return len(self._queue)

    def swap_model(self, predictor: TwoStagePredictor, model_version: int) -> None:
        """Hot-swap the serving model (takes effect from the next batch)."""
        if list(predictor.feature_names) != list(self._predictor.feature_names):
            raise ValidationError(
                "cannot swap in a model with a different feature schema"
            )
        self._predictor = predictor
        self.model_version = int(model_version)

    # ------------------------------------------------------------------
    def submit(self, rows, now_minute: float | None = None) -> list[Alert]:
        """Enqueue rows; returns alerts from any size-triggered flushes."""
        alerts: list[Alert] = []
        for row in rows:
            enqueue_minute = row.end_minute if now_minute is None else now_minute
            self._queue.append((float(enqueue_minute), row))
            self.counters.rows_in += 1
            self.counters.max_queue_depth = max(
                self.counters.max_queue_depth, len(self._queue)
            )
            if len(self._queue) >= self.config.max_batch_size:
                self.counters.size_flushes += 1
                _flush_counter().inc(kind="size")
                alerts.extend(self._flush_batch(float(enqueue_minute)))
        return alerts

    def poll(self, now_minute: float) -> list[Alert]:
        """Deadline check against the stream clock; flush overdue rows."""
        alerts: list[Alert] = []
        deadline = self.config.flush_deadline_minutes
        while self._queue and self._queue[0][0] + deadline <= now_minute:
            self.counters.deadline_flushes += 1
            _flush_counter().inc(kind="deadline")
            alerts.extend(self._flush_batch(now_minute))
        return alerts

    def flush(self, now_minute: float | None = None) -> list[Alert]:
        """Drain everything still queued (end of stream)."""
        alerts: list[Alert] = []
        while self._queue:
            final_minute = (
                now_minute if now_minute is not None else self._queue[-1][0]
            )
            self.counters.final_flushes += 1
            _flush_counter().inc(kind="final")
            alerts.extend(self._flush_batch(float(final_minute)))
        return alerts

    # ------------------------------------------------------------------
    def _flush_batch(self, scored_minute: float) -> list[Alert]:
        take = min(len(self._queue), self.config.max_batch_size)
        if take == 0:
            return []
        entries = [self._queue.popleft() for _ in range(take)]
        outcome = self._score_entries(entries, scored_minute)
        if outcome is None:
            # The supervising subclass quarantined the batch; the rows are
            # in its dead-letter queue and will be replayed on recovery.
            return []
        scores, predicted, model_version, source = outcome
        return self._emit(
            entries, scores, predicted, scored_minute, model_version, source
        )

    def _score_entries(self, entries, scored_minute: float):
        """Score one drained batch; the supervision hook.

        Returns ``(scores, predicted, model_version, source)``, or ``None``
        when the batch could not be scored and was quarantined (only the
        supervised subclass does that — this base implementation scores
        with the primary model, unconditionally).
        """
        rows = [row for _, row in entries]
        matrix = rows_to_matrix(rows, self._schema)
        started = time.perf_counter()
        scores = self._predictor.decision_scores(matrix)
        elapsed = time.perf_counter() - started
        self.counters.scoring_seconds += elapsed
        registry = get_registry()
        registry.counter(
            "repro_serve_scoring_seconds_total",
            "Wall time spent inside model prediction.",
            wall=True,
        ).inc(elapsed)
        threshold = self._predictor.model.threshold
        predicted = (scores >= threshold).astype(int)
        return scores, predicted, self.model_version, "primary"

    def _emit(
        self,
        entries,
        scores,
        predicted,
        scored_minute: float,
        model_version: int,
        source: str,
    ) -> list[Alert]:
        """Turn one scored batch into alerts and update the counters."""
        # Registry handles are looked up per batch, not stored: scorers
        # are pickled into replay checkpoints.
        registry = get_registry()
        queue_minutes = registry.histogram(
            "repro_serve_queue_minutes",
            "Event-time latency from row emission to scoring (minutes).",
            buckets=DEFAULT_MINUTE_BUCKETS,
        )
        alerts = []
        for (enqueue_minute, row), score, label in zip(entries, scores, predicted):
            self.counters.total_queue_minutes += scored_minute - enqueue_minute
            queue_minutes.observe(scored_minute - enqueue_minute)
            alerts.append(
                Alert(
                    run_idx=row.run_idx,
                    job_id=row.job_id,
                    node_id=row.node_id,
                    app_id=row.app_id,
                    end_minute=row.end_minute,
                    scored_minute=scored_minute,
                    score=float(score),
                    predicted=int(label),
                    model_version=model_version,
                    source=source,
                )
            )
        self.counters.rows_scored += len(entries)
        self.counters.batches += 1
        self.counters.batch_sizes.append(len(entries))
        self.counters.positive_alerts += int(predicted.sum())
        registry.counter(
            "repro_serve_rows_scored_total", "Rows scored, by model source."
        ).inc(len(entries), source=source)
        registry.counter(
            "repro_serve_alerts_total", "Positive alerts emitted."
        ).inc(int(predicted.sum()))
        registry.histogram(
            "repro_serve_batch_rows",
            "Rows per scored micro-batch.",
            buckets=DEFAULT_SIZE_BUCKETS,
        ).observe(len(entries))
        return alerts
