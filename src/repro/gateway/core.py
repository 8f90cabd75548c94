"""The fleet serving gateway: sharded async scoring with alarms.

This is the fleet front end of the online path: instead of replaying
one trace through one scorer (:func:`repro.serve.serve_replay`), the
gateway accepts a fleet's event stream, routes it across N scorer
shards by consistent-hashing the node id, folds the resulting alerts
into operator alarms and per-node score trends, and keeps strict
zero-drop accounting: every accepted event is either scored, dead-
lettered, or rejected — never silently lost.

Sharding model
--------------
Each shard is one :class:`~repro.serve.worker.ScorerWorker` — the exact
loop body ``serve_replay`` runs, built by the same
:func:`~repro.serve.worker.build_workers` set-up — behind an
``asyncio.Queue``:

* ``RunStarted`` / ``RunCompleted`` split **row-wise by node owner**:
  each shard receives only the rows whose node it owns, in their
  original order;
* ``SbeObserved`` / ``JobResolved`` **broadcast to every shard**: the
  feature engine's SBE history is machine-global (neighbourhood error
  pressure), so every shard must observe every error event.

With one shard the delivered stream is exactly the replay stream, at
any client count — the basis for the gateway-vs-replay digest parity
gate.  With more shards, per-row features are *not* yet identical: the
per-run ``alloc_today`` feature averages over the rows a shard receives,
i.e. only its share of a split run's nodes (see ``perfbench/README.md``;
a strict ``xfail`` pins the 2-shard mismatch).  Chaos plans shift their
seed per shard (``seed + shard_id``) so shard 0 of a 1-shard gateway
reproduces the replay's chaos draws bit-for-bit.

Accounting
----------
``events_in`` counts accepted ingests.  Each event has exactly one
*primary* delivery (the shard owning its first node); broadcast replicas
update history only.  After :meth:`Gateway.close`::

    events_in == events_scored + events_dead_lettered + events_rejected

holds or :meth:`GatewayStats.zero_drop` is ``False`` — the load
experiment and the CI smoke assert it under chaos.
"""

from __future__ import annotations

import asyncio
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.pipeline import PredictionPipeline
from repro.core.twostage import TwoStagePredictor
from repro.features.builder import build_features
from repro.features.splits import DatasetSplit
from repro.gateway.alarms import AlarmConfig, AlarmEngine
from repro.obs import MetricsRegistry, get_registry
from repro.gateway.clock import VirtualClock
from repro.gateway.router import ConsistentHashRing
from repro.gateway.watcher import RegistryWatcher
from repro.serve.events import (
    JobResolved,
    RunCompleted,
    RunStarted,
    SbeObserved,
    check_run_rows,
)
from repro.serve.drift import (
    DriftConfig,
    DriftMonitor,
    RetrainGovernor,
    record_drift_metrics,
)
from repro.serve.registry import ModelRegistry
from repro.serve.resilience import ChaosPlan
from repro.serve.scorer import Alert
from repro.serve.worker import ScorerWorker, build_workers, scored_alert_digest
from repro.telemetry.trace import Trace
from repro.utils.errors import ValidationError

__all__ = ["GatewayConfig", "GatewayStats", "Gateway", "build_gateway"]

#: Queue sentinel telling a shard loop to exit.
_STOP = object()


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway shape and service knobs."""

    shards: int = 1
    ring_replicas: int = 64
    #: Micro-batch size per shard scorer.
    batch_size: int = 256
    flush_deadline_minutes: float = 30.0
    #: Per-shard ingest queue bound (backpressure past this depth).
    max_queue_depth: int = 4096
    #: Scored points retained per node for the /trend endpoint.
    trend_length: int = 64
    alarms: AlarmConfig = field(default_factory=AlarmConfig)
    #: Registry poll cadence on the virtual clock.
    watch_interval_minutes: float = 1440.0
    #: Streaming drift detection over the scored stream.  ``None``
    #: (the default) disables it entirely — the monitor, its gauges,
    #: and its ``kind="drift"`` alarms all vanish, which is what keeps
    #: the gateway-vs-replay parity digest and the alarm counts of
    #: drift-off runs byte-identical to before this knob existed.
    drift: DriftConfig | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValidationError("a gateway needs at least one shard")
        if self.max_queue_depth < 1:
            raise ValidationError("max_queue_depth must be >= 1")


@dataclass
class GatewayStats:
    """Zero-drop event accounting plus delivery telemetry."""

    #: Events accepted for ingestion (well-formed POSTs + direct ingests).
    events_in: int = 0
    #: Events fully applied at their primary shard.
    events_scored: int = 0
    #: Events the primary shard's engine refused (quarantined to DLQ).
    events_dead_lettered: int = 0
    #: Events turned away at the door (malformed payload / closed gateway).
    events_rejected: int = 0
    #: Shard deliveries, counting broadcast replicas.
    deliveries: int = 0

    @property
    def zero_drop(self) -> bool:
        """The gateway's accounting invariant: nothing silently lost."""
        return self.events_in == (
            self.events_scored + self.events_dead_lettered + self.events_rejected
        )

    def to_dict(self) -> dict:
        return {
            "events_in": self.events_in,
            "events_scored": self.events_scored,
            "events_dead_lettered": self.events_dead_lettered,
            "events_rejected": self.events_rejected,
            "deliveries": self.deliveries,
            "zero_drop": self.zero_drop,
        }


class Gateway:
    """Routes fleet events across scorer shards; folds alerts to alarms.

    Lifecycle: construct (usually via :func:`build_gateway`), ``await
    start()``, ``await ingest(event)`` any number of times, ``await
    close()``.  All coroutines run on one event loop; shard workers are
    plain synchronous code inside shard tasks, so the whole gateway is
    single-threaded and deterministic for a fixed ingest order.
    """

    def __init__(
        self,
        workers: list[ScorerWorker],
        *,
        config: GatewayConfig | None = None,
        clock: VirtualClock | None = None,
        watcher: RegistryWatcher | None = None,
    ) -> None:
        if not workers:
            raise ValidationError("a gateway needs at least one shard worker")
        self.config = config or GatewayConfig(shards=len(workers))
        if self.config.shards != len(workers):
            raise ValidationError(
                f"config says {self.config.shards} shard(s) but "
                f"{len(workers)} worker(s) given"
            )
        self.workers = workers
        self.clock = clock or VirtualClock()
        self.watcher = watcher
        self.ring = ConsistentHashRing(
            range(len(workers)), replicas=self.config.ring_replicas
        )
        self.stats = GatewayStats()
        self.alarm_engine = AlarmEngine(self.config.alarms)
        #: node_id -> recent (end_minute, score, predicted, model_version).
        self.trends: dict[int, deque] = defaultdict(
            lambda: deque(maxlen=self.config.trend_length)
        )
        self.scored_alerts: list[Alert] = []
        # The process obs registry — or a private always-on one when obs
        # is globally disabled, so /stats latency never silently zeroes.
        process_registry = get_registry()
        self.registry = (
            process_registry if process_registry.enabled else MetricsRegistry()
        )
        #: The one shared wall-latency histogram: GET /stats, the
        #: `gateway` experiment table, and bench_gateway.py all compute
        #: p50/p99 from this instrument, so they cannot disagree.
        self.handle_latency = self.registry.histogram(
            "repro_gateway_handle_seconds",
            "Wall seconds handling one primary event.",
            wall=True,
        )
        self._queue_depth = self.registry.gauge(
            "repro_gateway_queue_depth",
            "Events waiting in each shard queue.",
            wall=True,
        )
        self._events_counter = self.registry.counter(
            "repro_gateway_events_total", "Events by terminal outcome."
        )
        self._alarms_counter = self.registry.counter(
            "repro_gateway_alarms_total", "Alarms raised by the alarm engine."
        )
        self._model_version_gauge = self.registry.gauge(
            "repro_serve_active_model_version",
            "Registry version of the model currently serving.",
        )
        #: Observational drift monitor over the scored stream.  The
        #: governor supplies only the check throttle and the trigger
        #: cooldown: the gateway swaps models via the registry watcher,
        #: so drift here raises alarms and gauges, it never retrains.
        self.drift = (
            None if self.config.drift is None else DriftMonitor(self.config.drift)
        )
        self.drift_governor = (
            None if self.config.drift is None else RetrainGovernor(self.config.drift)
        )
        self._queues: list[asyncio.Queue] = []
        self._tasks: list[asyncio.Task] = []
        self._started = False
        self._closed = False

    # ----------------------------------------------------------- lifecycle
    async def start(self) -> None:
        if self._started:
            raise ValidationError("gateway already started")
        self._started = True
        self._queues = [
            asyncio.Queue(maxsize=self.config.max_queue_depth)
            for _ in self.workers
        ]
        self._tasks = [
            asyncio.create_task(self._shard_loop(shard_id))
            for shard_id in range(len(self.workers))
        ]

    async def drain(self) -> None:
        """Wait until every shard queue is empty and fully processed."""
        for queue in self._queues:
            await queue.join()

    async def close(self) -> None:
        """Drain, stop shard tasks, flush scorers, finalize accounting."""
        if not self._started or self._closed:
            return
        await self.drain()
        self._closed = True
        for queue in self._queues:
            queue.put_nowait(_STOP)
        await asyncio.gather(*self._tasks)
        # End-of-stream flush in shard order: drains micro-batch queues
        # and replays dead-lettered batches, exactly like replay's finish.
        for worker in self.workers:
            self._absorb(worker.finish())

    # ------------------------------------------------------------- ingest
    async def ingest(self, event) -> None:
        """Accept one event; blocks (backpressure) when queues are full."""
        if not self._started or self._closed:
            self.stats.events_in += 1
            self.stats.events_rejected += 1
            self._events_counter.inc(outcome="rejected")
            raise ValidationError("gateway is not accepting events")
        self.clock.advance_to(event.minute)
        if self.watcher is not None:
            self.watcher.check(self.clock.now)
        self.stats.events_in += 1
        for shard_id, sub_event, primary in self._route(event):
            await self._queues[shard_id].put((sub_event, primary))
            self.stats.deliveries += 1

    def reject(self, reason: str) -> str:
        """Count one door rejection (malformed payload); returns reason."""
        self.stats.events_in += 1
        self.stats.events_rejected += 1
        return reason

    # ------------------------------------------------------------ routing
    def _route(self, event):
        """Yield (shard_id, sub_event, is_primary) deliveries for an event.

        Run events split row-wise by node owner; SBE/label events
        broadcast (machine-global feature history).  A run whose rows
        all land on one shard (always, with one shard) passes through
        untouched.  A malformed run cannot be split: its start goes whole
        to its first owner, and its completion whole to every owner (the
        first delivery primary), so each owner's engine ends the run.
        """
        n = len(self.workers)
        if isinstance(event, (SbeObserved, JobResolved)):
            if isinstance(event, SbeObserved):
                primary = self.ring.route(event.node_id)
            else:
                primary = (
                    self.ring.route(int(event.node_ids[0]))
                    if len(event.node_ids)
                    else 0
                )
            for shard_id in range(n):
                yield shard_id, event, shard_id == primary
            return
        if isinstance(event, (RunStarted, RunCompleted)):
            started = isinstance(event, RunStarted)
            nodes = event.node_ids if started else event.rows.get("node_id", ())
            owners = [self.ring.route(node) for node in np.asarray(nodes).tolist()]
            # Distinct owners in first-appearance order (deterministic fan-out).
            shards = list(dict.fromkeys(owners)) or [0]
            if len(shards) > 1:
                try:
                    check_run_rows(event)
                except ValidationError:
                    # Unsplittable: every receiving engine dead-letters it
                    # whole; the ledger counts the primary delivery only.
                    for shard_id in shards[:1] if started else shards:
                        yield shard_id, event, shard_id == shards[0]
                    return
            for shard_id in shards:
                if len(shards) == 1:
                    sub = event
                else:
                    mask = np.asarray(owners) == shard_id
                    sub = (
                        RunStarted(
                            minute=event.minute,
                            run_idx=event.run_idx,
                            node_ids=event.node_ids[mask],
                            app_ids=event.app_ids[mask],
                            start_minutes=event.start_minutes[mask],
                        )
                        if started
                        else RunCompleted(
                            minute=event.minute,
                            run_idx=event.run_idx,
                            rows={k: v[mask] for k, v in event.rows.items()},
                        )
                    )
                yield shard_id, sub, shard_id == shards[0]
            return
        raise ValidationError(
            f"cannot route event of type {type(event).__name__}"
        )

    # -------------------------------------------------------- shard loop
    async def _shard_loop(self, shard_id: int) -> None:
        queue = self._queues[shard_id]
        worker = self.workers[shard_id]

        def between(minute: float) -> None:
            if self.watcher is not None:
                self.watcher.maybe_swap(shard_id, worker.scorer)

        while True:
            item = await queue.get()
            if item is _STOP:
                queue.task_done()
                return
            event, primary = item
            self._queue_depth.set(queue.qsize(), shard=shard_id)
            started = time.perf_counter()
            quarantined_before = worker.events_quarantined
            alerts = worker.handle_event(event, between=between)
            if primary:
                self.handle_latency.observe(time.perf_counter() - started)
                if worker.events_quarantined > quarantined_before:
                    self.stats.events_dead_lettered += 1
                    self._events_counter.inc(outcome="dead_lettered")
                else:
                    self.stats.events_scored += 1
                    self._events_counter.inc(outcome="scored")
            self._absorb(alerts)
            queue.task_done()

    def _absorb(self, alerts: list[Alert]) -> None:
        for alert in alerts:
            self.scored_alerts.append(alert)
            self.trends[int(alert.node_id)].append(
                (
                    float(alert.end_minute),
                    float(alert.score),
                    int(alert.predicted),
                    int(alert.model_version),
                )
            )
            self._model_version_gauge.set(int(alert.model_version))
            alarms_before = len(self.alarm_engine.alarms)
            self.alarm_engine.observe(alert)
            raised = len(self.alarm_engine.alarms) - alarms_before
            if raised:
                self._alarms_counter.inc(raised)
        if self.drift is not None and alerts:
            self._watch_drift(max(float(a.scored_minute) for a in alerts))

    # -------------------------------------------------------------- drift
    def _watch_drift(self, now: float) -> None:
        """Feed the monitor; publish gauges and raise ``drift`` alarms.

        ``now`` is the event time of the newest absorbed alert, not the
        ingest clock: a flooding client can push ``clock.now`` to the
        end of the trace before the first batch even scores, which
        would pin the check throttle (and the cooldown) at a single
        instant.  Scored-stream time interleaves correctly no matter
        how far ingestion runs ahead of scoring.
        """
        self.drift.feed(self.workers, self.scored_alerts)
        if not self.drift_governor.should_check(now):
            return
        record_drift_metrics(self.drift, registry=self.registry)
        reason = self.drift_governor.drift_trigger(now, self.drift)
        if reason is None:
            return
        alarms_before = len(self.alarm_engine.alarms)
        self.alarm_engine.signal(
            node_id=-1,
            kind="drift",
            minute=now,
            score=self.drift.state().get(reason, 0.0),
        )
        raised = len(self.alarm_engine.alarms) - alarms_before
        if raised:
            self._alarms_counter.inc(raised, kind="drift")

    @property
    def drift_alarms(self) -> int:
        """Drift alarms signalled so far (one per governor trigger)."""
        return 0 if self.drift_governor is None else len(self.drift_governor.triggers)

    # ------------------------------------------------------------ queries
    def scored_alert_digest(self) -> str:
        """Canonical digest of every scored alert (parity with replay)."""
        return scored_alert_digest(self.scored_alerts)

    def node_trend(self, node_id: int) -> list[dict]:
        return [
            {
                "end_minute": minute,
                "score": score,
                "predicted": predicted,
                "model_version": version,
            }
            for minute, score, predicted, version in self.trends.get(
                int(node_id), ()
            )
        ]

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p99 wall seconds per primary event, 0.0 before any event.

        Estimated from the shared ``repro_gateway_handle_seconds``
        histogram (Prometheus-style linear interpolation inside fixed
        buckets) — the same series every scrape of ``/metrics`` exports.
        """
        return {
            "p50": self.handle_latency.quantile(0.5),
            "p99": self.handle_latency.quantile(0.99),
        }

    def snapshot(self) -> dict:
        """Service state for the /stats endpoint and the experiment row."""
        unresolved = sum(
            w.scorer.resilience.unresolved_rows for w in self.workers
        )
        return {
            "shards": len(self.workers),
            "clock_minute": self.clock.now,
            "stats": self.stats.to_dict(),
            "alarms": {
                "total": len(self.alarm_engine.alarms),
                "active": len(self.alarm_engine.active()),
                "escalations": self.alarm_engine.escalations,
                "deduplicated": self.alarm_engine.deduplicated,
            },
            "alerts_scored": len(self.scored_alerts),
            "unresolved_rows": unresolved,
            "latency": self.latency_percentiles(),
            "model_version": (
                None if self.watcher is None else self.watcher.current_version
            ),
            "drift": (
                None
                if self.drift is None
                else {**self.drift.state(), "alarms": self.drift_alarms}
            ),
        }


# ---------------------------------------------------------------- builder
def build_gateway(
    trace: Trace,
    registry_root: str | Path,
    *,
    splits: list[DatasetSplit],
    split: str = "DS1",
    model: str = "gbdt",
    config: GatewayConfig | None = None,
    registry_name: str = "gateway",
    top_k_apps: int = 16,
    random_state: int | None = 0,
    fast: bool = False,
    chaos: ChaosPlan | None = None,
    clock: VirtualClock | None = None,
) -> Gateway:
    """Train, publish, and wire a gateway exactly like ``serve_replay``.

    Batch features -> split -> :class:`TwoStagePredictor` fit on the
    training window, then the set-up replay also uses,
    :func:`~repro.serve.worker.build_workers` (registry save ->
    checksum-verified load -> one supervised worker per shard).  That
    shared set-up (plus the routing rules above) is what makes the
    single-shard gateway digest bit-identical to replay.
    """
    config = config or GatewayConfig()
    features = build_features(trace, top_k_apps=top_k_apps)
    pipeline = PredictionPipeline(features, splits)
    split_obj = pipeline.split(split)
    train, _ = pipeline.train_test(split)
    predictor = TwoStagePredictor(model, random_state=random_state, fast=fast)
    predictor.fit(train)

    registry = ModelRegistry(registry_root)
    workers = build_workers(
        trace,
        registry,
        predictor,
        train,
        name=registry_name,
        metadata={
            "split": split,
            "model": model,
            "shards": config.shards,
            "random_state": random_state,
            "fast": fast,
            "top_k_apps": top_k_apps,
        },
        window=(split_obj.train_end, split_obj.test_end),
        shards=config.shards,
        batch_size=config.batch_size,
        flush_deadline_minutes=config.flush_deadline_minutes,
        top_k_apps=top_k_apps,
        chaos=chaos,
    )

    watcher = RegistryWatcher(
        registry,
        registry_name,
        num_shards=config.shards,
        current_version=workers[0].scorer.model_version,
        expect_feature_names=predictor.feature_names,
        poll_interval_minutes=config.watch_interval_minutes,
    )
    return Gateway(workers, config=config, clock=clock, watcher=watcher)
