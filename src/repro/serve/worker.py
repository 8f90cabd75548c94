"""The serving core shared by replay and the gateway.

:func:`repro.serve.replay.serve_replay` and the fleet gateway
(:mod:`repro.gateway`) drive exactly the same core: a
:class:`~repro.serve.engine.StreamingFeatureEngine` feeding a
:class:`~repro.serve.resilience.SupervisedScorer`, with chaos bursts
injected ahead of real events, deadline polling against the stream
clock, label bookkeeping from :class:`~repro.serve.events.JobResolved`,
and malformed-event quarantine into the dead-letter queue.

:func:`build_workers` is the one model set-up both callers use: publish
the fitted predictor, load it back checksum-verified, and wire one
:class:`ScorerWorker` per shard (Basic-B / all-negative fallback chain,
chaos seed shifted per shard so shard 0 keeps the plan's own).  Replay
asks for one shard; each caller fits its own model first, so both keep
their own ``build_features`` call.

:class:`ScorerWorker` is the loop body: one worker drives one scorer
over one ordered event stream (the whole trace for replay; one
consistent-hash shard's slice for the gateway).  The worker pickles
cleanly — it is the per-stream state inside a replay checkpoint.

The exact per-event operation order is part of the digest contract:

1. chaos bursts for this event index (malformed events -> engine ->
   dead-letter queue);
2. event counters advance;
3. deadline poll against the event's minute;
4. the caller's ``between`` hook (replay: drift policy and retrain;
   gateway: rolling hot-swap) — after the poll, before the event
   applies;
5. label bookkeeping for :class:`JobResolved`;
6. the event itself through the engine (quarantined when malformed);
7. emitted rows inside the scoring window submit to the scorer.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np

from repro.core.baselines import BasicB
from repro.features.builder import FeatureMatrix, compute_top_apps
from repro.serve.engine import StreamedRow, StreamingFeatureEngine
from repro.serve.events import JobResolved
from repro.serve.registry import ModelRegistry
from repro.serve.resilience import (
    AllNegativeFallback,
    ChaosInjector,
    ChaosPlan,
    ResilienceConfig,
    SupervisedScorer,
)
from repro.serve.scorer import Alert, ScorerConfig
from repro.telemetry.trace import Trace
from repro.utils.errors import ValidationError

__all__ = ["ScorerWorker", "build_workers", "scored_alert_digest", "update_alert_digest"]

MINUTES_PER_DAY = 1440.0


def update_alert_digest(hasher, alerts: list[Alert]) -> None:
    """Feed the canonical scored-alert encoding into ``hasher``.

    This is the byte encoding :meth:`ReplayReport.digest` has always
    used for its alert section; the gateway parity gate hashes exactly
    the same bytes, so the two digests are comparable bit for bit.
    Alerts sort by (run, node, end minute) — unique per sample — so the
    encoding is independent of flush timing and shard interleaving.
    """
    for alert in sorted(alerts, key=lambda a: (a.run_idx, a.node_id, a.end_minute)):
        hasher.update(
            f"{alert.run_idx},{alert.node_id},{alert.job_id},{alert.app_id},"
            f"{alert.end_minute:.12g},{alert.scored_minute:.12g},"
            f"{alert.score:.12g},{alert.predicted};".encode()
        )


def scored_alert_digest(alerts: list[Alert]) -> str:
    """SHA-256 over the canonical scored-alert encoding alone."""
    hasher = hashlib.sha256()
    update_alert_digest(hasher, alerts)
    return hasher.hexdigest()


class ScorerWorker:
    """Drives one supervised scorer over one ordered event stream.

    Parameters
    ----------
    engine:
        The streaming feature engine (owns the history state).
    scorer:
        The supervised micro-batch scorer (owns retry/breaker/DLQ).
    window:
        ``(lo, hi)``: only rows with ``lo <= start_minute < hi`` are
        submitted for scoring (the replay's test window).  ``None``
        scores every emitted row.
    injector:
        Optional chaos injector; its malformed-event bursts are keyed by
        this worker's local event counter.
    """

    def __init__(
        self,
        engine: StreamingFeatureEngine,
        scorer: SupervisedScorer,
        *,
        window: tuple[float, float] | None = None,
        injector: ChaosInjector | None = None,
    ) -> None:
        self.engine = engine
        self.scorer = scorer
        self.window = None if window is None else (float(window[0]), float(window[1]))
        self.injector = injector
        #: Resolved ground-truth labels keyed by (job_id, node_id).
        self.labels: dict[tuple[int, int], int] = {}
        #: Every row the engine emitted, in emission order (retrain food).
        self.history_rows: list[StreamedRow] = []
        #: Ordered events this worker has processed (and the burst key).
        self.num_events = 0
        #: Real events the engine refused (quarantined to the DLQ).
        self.events_quarantined = 0
        self.last_minute = 0.0

    # ------------------------------------------------------------------
    def handle_event(self, event, *, between=None) -> list[Alert]:
        """Apply one stream event; returns any alerts it flushed.

        ``between`` is called with the event's minute after the deadline
        poll and before the event applies — the slot where replay runs
        its periodic retrain and the gateway applies rolling hot-swaps,
        so a model change can never split a single event's rows.
        """
        alerts: list[Alert] = []
        if self.injector is not None:
            for bad in self.injector.burst(self.num_events, event.minute):
                self.scorer.resilience.injected_events += 1
                try:
                    self.engine.process(bad)
                except ValidationError as exc:
                    self.scorer.dlq.quarantine_event(
                        reason=bad.reason, minute=bad.minute, detail=str(exc)
                    )
                    self.scorer.resilience.dead_letter_events += 1
        self.num_events += 1
        self.last_minute = event.minute
        alerts.extend(self.scorer.poll(event.minute))
        if between is not None:
            between(event.minute)
        if isinstance(event, JobResolved):
            for node, count in zip(event.node_ids, event.counts):
                self.labels[(event.job_id, int(node))] = int(count)
        try:
            rows = self.engine.process(event)
        except ValidationError as exc:
            self.scorer.dlq.quarantine_event(
                reason="malformed_event", minute=event.minute, detail=str(exc)
            )
            self.scorer.resilience.dead_letter_events += 1
            self.events_quarantined += 1
            rows = []
        if rows:
            self.history_rows.extend(rows)
            if self.window is None:
                scorable = rows
            else:
                lo, hi = self.window
                scorable = [row for row in rows if lo <= row.start_minute < hi]
            if scorable:
                alerts.extend(self.scorer.submit(scorable, event.minute))
        return alerts

    def finish(self) -> list[Alert]:
        """End of stream: flush the queue and drain the dead letters."""
        alerts = list(self.scorer.flush())
        alerts.extend(self.scorer.finalize(self.last_minute))
        return alerts


def build_workers(
    trace: Trace,
    registry: ModelRegistry,
    predictor,
    train: FeatureMatrix,
    *,
    name: str,
    metadata: dict,
    window: tuple[float, float],
    shards: int = 1,
    batch_size: int = 256,
    flush_deadline_minutes: float = 30.0,
    top_k_apps: int = 16,
    resilience: ResilienceConfig | None = None,
    chaos: ChaosPlan | None = None,
) -> list[ScorerWorker]:
    """Publish ``predictor`` and wire one scoring worker per shard.

    Every worker serves the checksum-verified copy loaded back from the
    registry; ``train`` fits the Basic-B fallback.  Shard ``i`` draws
    chaos from the plan's seed plus ``i``, so shard 0 — replay's only
    shard — reproduces the plan's own draws.
    """
    entry = registry.save_model(predictor, name=name, metadata=metadata)
    serving, entry = registry.load_model(
        name, entry.version, expect_feature_names=predictor.feature_names
    )
    top_apps = compute_top_apps(
        np.asarray(trace.samples["app_id"], dtype=int), top_k_apps
    )
    span = (0.0, trace.config.duration_days * MINUTES_PER_DAY)
    basic_b = BasicB().fit(train)
    workers: list[ScorerWorker] = []
    for shard_id in range(shards):
        injector = (
            None
            if chaos is None
            else ChaosInjector(replace(chaos, seed=chaos.seed + shard_id), span=span)
        )
        engine = StreamingFeatureEngine(trace.machine, top_apps)
        scorer = SupervisedScorer(
            serving,
            engine.schema,
            ScorerConfig(
                max_batch_size=batch_size,
                flush_deadline_minutes=flush_deadline_minutes,
            ),
            model_version=entry.version,
            resilience=resilience,
            chaos=injector,
            fallbacks=[("basic_b", basic_b), ("all_negative", AllNegativeFallback())],
        )
        workers.append(ScorerWorker(engine, scorer, window=window, injector=injector))
    return workers
