"""The benchmark's three workloads: ``train``, ``serve`` and ``retrain``.

Each workload runs ``instances`` independent inputs per benchmark run.
Instance 0 simulates the trace with ``TraceConfig.seed`` equal to the
run's ``--seed``; the others use seeds derived from it.  The program only
ever sees the generated trace.  Early stopping makes the fitted model's
size, and with it the fit time, swing by up to 2x from one trace to the
next, so a run pools several traces to keep its figures steady across
seeds.

A workload object has four steps:

* ``setup(seed)``: everything before the timed phase.  Each call is one
  set-up sample; ``setup_s`` is their median.
* ``run(state, clock)``: the timed phase.  Returns an outcome dict.
* ``fresh(state)``: a state whose timed phase has not run yet.  Only
  ``serve`` consumes its state (the gateway's feature history).
* ``check(state, outcome)``: correctness checks; returns failure messages.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import hashlib
import tempfile
import time

import numpy as np

from repro.core.pipeline import PredictionPipeline
from repro.core.registry import make_model
from repro.core.twostage import TwoStagePredictor
from repro.experiments.drift_experiment import (
    drift_detector_config,
    drift_plan,
    drift_trace_config,
)
from repro.experiments.presets import preset_config, split_plan
from repro.features import builder
from repro.features.splits import DatasetSplit, make_paper_splits
from repro.gateway import GatewayConfig, build_gateway
from repro.ml.gbdt import GradientBoostingClassifier
from repro.obs import MetricsRegistry, get_registry, use_registry
from repro.serve import replay
from repro.serve.events import JobResolved, RunCompleted, SbeObserved, iter_trace_events
from repro.serve.worker import ScorerWorker
from repro.telemetry import simulator
from repro.utils.errors import ValidationError

MINUTES_PER_DAY = 1440.0
TOP_K_APPS = 16
#: The seed the figures in README.md were measured on.
DEFAULT_SEED = 2018
#: A seed no tuning used: re-check a claimed gain here (choosing-metrics 6.3).
HELD_OUT_SEED = 7331


def instance_seeds(seed: int, count: int) -> list[int]:
    """``seed`` itself, then ``count - 1`` seeds derived from it."""
    derived = [
        int.from_bytes(hashlib.sha256(f"perfbench:{seed}:{i}".encode()).digest()[:4], "big")
        % 2**31
        for i in range(1, count)
    ]
    return [int(seed)] + derived


def f1_score(tp: int, fp: int, fn: int) -> float:
    """SBE-class F1 from pooled counts."""
    return 2.0 * tp / (2 * tp + fp + fn) if tp else 0.0


def confusion(predicted, actual) -> tuple[int, int, int]:
    predicted = np.asarray(predicted, dtype=bool)
    actual = np.asarray(actual, dtype=bool)
    return (
        int(np.sum(predicted & actual)),
        int(np.sum(predicted & ~actual)),
        int(np.sum(~predicted & actual)),
    )


def _event_key(event):
    if isinstance(event, SbeObserved):
        return ("sbe", event.job_id, event.node_id)
    if isinstance(event, JobResolved):
        return ("job", event.job_id)
    return (type(event).__name__, event.run_idx)


class StreamClock:
    """Times alerts from their run's due time to the worker call emitting them.

    Wraps ``ScorerWorker.handle_event`` and ``ScorerWorker.finish`` on the
    class while installed (:func:`tracing.patched`).  A load generator sets
    ``due[run_idx]`` before sending a ``RunCompleted``; with no load
    generator (closed-loop replay) the due time is the start of the
    worker call that receives the ``RunCompleted``.  ``sent`` holds the
    time each event entered the gateway, which gives per-delivery queue
    waits.
    """

    def __init__(self, tracer=None) -> None:
        self.due: dict[int, float] = {}
        self.sent: dict[tuple, float] = {}
        self.emitted: list[tuple[float, list]] = []
        self.queue_waits: list[float] = []
        self.tracer = tracer

    async def idle(self, seconds: float) -> None:
        """The load generator's wait for its next due time.

        Traced, the wait is a ``loadgen.idle`` span: shard work that runs
        meanwhile nests under it, so its self time is the time nothing ran.
        """
        if self.tracer is None:
            await asyncio.sleep(seconds)
            return
        with self.tracer.span("loadgen.idle"):
            await asyncio.sleep(seconds)

    def patches(self):
        def handle(original):
            @functools.wraps(original)
            def timed(worker, event, *args, **kwargs):
                started = time.perf_counter()
                sent = self.sent.get(_event_key(event))
                if sent is not None:
                    self.queue_waits.append(started - sent)
                if isinstance(event, RunCompleted):
                    self.due.setdefault(event.run_idx, started)
                alerts = original(worker, event, *args, **kwargs)
                if alerts:
                    self.emitted.append((time.perf_counter(), alerts))
                return alerts

            return timed

        def finish(original):
            @functools.wraps(original)
            def timed(worker, *args, **kwargs):
                alerts = original(worker, *args, **kwargs)
                if alerts:
                    self.emitted.append((time.perf_counter(), alerts))
                return alerts

            return timed

        return [(ScorerWorker, "handle_event", handle), (ScorerWorker, "finish", finish)]

    def alert_latencies_ms(self) -> list[float]:
        return [
            (at - self.due[alert.run_idx]) * 1e3
            for at, alerts in self.emitted
            for alert in alerts
        ]

    def alerts(self) -> list:
        return [alert for _, alerts in self.emitted for alert in alerts]


# --------------------------------------------------------------------- train
class Train:
    """The paper's offline pipeline on the ``tiny`` preset.

    Timed phase: ``build_features`` -> a TwoStage GBDT fitted on the DS1
    training window -> bulk scoring of DS1 test.  The GBDT has the
    ``repro evaluate`` default's full-capacity trees (depth 5, 64 bins,
    balanced weights), but grows a fixed ``rounds`` trees instead of
    early-stopping: early stopping picks 38 to 122 trees depending on the
    trace, which would make fit time a property of the seed rather than
    of the code.  Every DS1 test row's alert appears when the bulk
    scoring returns, so its alert latency is the whole timed phase.
    After the timed phase the fitted model scores DS1 test again in
    serving-size micro-batches, whose scores must equal the bulk scores
    bit for bit.
    """

    name = "train"
    preset = "tiny"
    instances = 10
    repeatable = True
    #: Metrics reported in reference seconds (speed.py).
    cpu_bound = ("run_s", "events_per_s", "alert_p50_ms")
    rounds = 60
    micro_batch = 64

    def setup(self, seed: int) -> dict:
        # Now and then a tiny trace has no runs in the DS1 test window, or
        # no SBE in its training window, and the pipeline rightly refuses
        # it.  Such a trace is replaced by the one from a seed derived
        # from it, so every seed still gives the same inputs.
        while True:
            config = dataclasses.replace(preset_config(self.preset), seed=seed)
            trace = simulator.simulate_trace(config)
            try:
                train, _ = self._ds1(trace)
            except ValidationError:
                train = None
            if train is not None and np.any(train.meta["sbe_count"] > 0):
                return {"seed": seed, "trace": trace}
            seed = instance_seeds(seed, 2)[1]

    def _ds1(self, trace):
        """Features, then the DS1 (train, test) windows."""
        plan = split_plan(self.preset)
        features = builder.build_features(trace, top_k_apps=TOP_K_APPS)
        splits = make_paper_splits(
            train_days=plan["train_days"],
            test_days=plan["test_days"],
            offsets_days=plan["offsets"],
            duration_days=trace.config.duration_days,
        )
        return PredictionPipeline(features, splits).train_test("DS1")

    def fresh(self, state: dict) -> dict:
        return state

    def run(self, state: dict, clock: StreamClock) -> dict:
        started = time.perf_counter()
        train, test = self._ds1(state["trace"])
        predictor = TwoStagePredictor(self.model(), scale=False)
        predictor.fit(train)
        scores = predictor.decision_scores(test)
        closed_loop_s = time.perf_counter() - started
        return {
            "closed_loop_s": closed_loop_s,
            "run_s": closed_loop_s,
            # Fit cost follows the nodes grown, not the samples: a trace
            # with 20% more samples takes about as long.
            "items": predictor.kernel_stats()["n_nodes"],
            "predictor": predictor,
            "test": test,
            "scores": scores,
            "latencies_ms": [closed_loop_s * 1e3] * test.num_samples,
        }

    def model(self) -> GradientBoostingClassifier:
        """``make_model("gbdt")`` with early stopping replaced by fixed rounds."""
        model = make_model("gbdt", random_state=0)
        model.n_estimators = self.rounds
        model.early_stopping_fraction = 0.0
        return model

    def after_run(self, state: dict, outcome: dict) -> None:
        """Score DS1 test again in micro-batches (untimed), for the check."""
        test, predictor = outcome["test"], outcome["predictor"]
        batch = np.arange(test.num_samples) // self.micro_batch
        outcome["micro_scores"] = np.concatenate(
            [predictor.decision_scores(test.rows(batch == b)) for b in np.unique(batch)]
        )

    def check(self, state: dict, outcome: dict) -> list[str]:
        failures = []
        scores, micro = outcome["scores"], outcome["micro_scores"]
        if len(scores) != outcome["test"].num_samples:
            failures.append("train: bulk scoring returned the wrong number of rows")
        if not np.all(np.isfinite(scores)) or scores.min() < 0 or scores.max() > 1:
            failures.append("train: scores outside [0, 1]")
        if micro.shape != scores.shape or not np.array_equal(micro, scores):
            failures.append("train: micro-batch scores differ from bulk scores")
        return failures

    def digest(self, outcome: dict) -> str:
        """Test scores plus the (run, node) keys of the alerted rows."""
        test, scores = outcome["test"], outcome["scores"]
        alerted = scores >= outcome["predictor"].model.threshold
        h = hashlib.sha256(np.ascontiguousarray(scores, dtype=np.float64).tobytes())
        for run, node in zip(test.meta["run_idx"][alerted], test.meta["node_id"][alerted]):
            h.update(f"{run},{node};".encode())
        return h.hexdigest()

    def quality(self, state: dict, outcome: dict) -> tuple[int, int, int]:
        predicted = outcome["scores"] >= outcome["predictor"].model.threshold
        return confusion(predicted, outcome["test"].y)

    def accounting(self, state: dict, outcome: dict) -> tuple[int, int]:
        scores = outcome["scores"]
        return len(scores), int(np.sum(~np.isfinite(scores)))


# --------------------------------------------------------------------- serve
class Serve:
    """A 2-shard gateway, batch 64, fed by an in-process load generator.

    Set-up simulates the trace, trains the full model on the preset's
    training window, publishes it and builds the gateway.  Timed phase:
    every event before the scoring window is pushed closed-loop (the
    backfill that warms the feature history; it scores nothing), then the
    scoring window's events are sent open-loop, each due at a time
    proportional to its trace minute (``pace`` trace minutes per wall
    second), so runs scheduled together arrive as bursts.
    """

    name = "serve"
    preset = "tiny"
    instances = 8
    repeatable = False
    #: The live phase runs on a fixed wall-clock schedule, so only the
    #: closed-loop backfill rate is CPU-bound.
    cpu_bound = ("events_per_s",)
    shards = 2
    batch_size = 64
    #: Trace minutes per wall second in the live phase.
    pace = 6000.0

    def split(self, trace) -> DatasetSplit:
        train_end = split_plan(self.preset)["train_days"] * MINUTES_PER_DAY
        return DatasetSplit(
            "SERVE", 0.0, train_end, trace.config.duration_days * MINUTES_PER_DAY
        )

    def setup(self, seed: int) -> dict:
        config = dataclasses.replace(preset_config(self.preset), seed=seed)
        trace = simulator.simulate_trace(config)
        state = {"seed": seed, "trace": trace}
        self._build(state)
        return state

    def _build(self, state: dict) -> None:
        trace = state["trace"]
        split = self.split(trace)
        state["registry"] = tempfile.TemporaryDirectory(prefix="registry-")
        state["gateway"] = build_gateway(
            trace,
            state["registry"].name,
            splits=[split],
            split=split.name,
            model="gbdt",
            config=GatewayConfig(shards=self.shards, batch_size=self.batch_size),
            random_state=0,
        )
        events = list(iter_trace_events(trace))
        state["backfill"] = [e for e in events if e.minute < split.train_end]
        state["live"] = [e for e in events if e.minute >= split.train_end]
        state["live_start"] = split.train_end

    def fresh(self, state: dict) -> dict:
        copy = {"seed": state["seed"], "trace": state["trace"]}
        self._build(copy)
        return copy

    def run(self, state: dict, clock: StreamClock) -> dict:
        return asyncio.run(self._drive(state, clock))

    async def _drive(self, state: dict, clock: StreamClock) -> dict:
        gateway = state["gateway"]
        await gateway.start()
        started = time.perf_counter()
        for event in state["backfill"]:
            await gateway.ingest(event)
        await gateway.drain()
        backfill_s = time.perf_counter() - started

        live_started = time.perf_counter()
        late = []
        for event in state["live"]:
            due = live_started + (event.minute - state["live_start"]) / self.pace
            wait = due - time.perf_counter()
            if wait > 0:
                await clock.idle(wait)
            late.append(time.perf_counter() - due)
            if isinstance(event, RunCompleted):
                clock.due[event.run_idx] = due
            clock.sent[_event_key(event)] = time.perf_counter()
            await gateway.ingest(event)
        await gateway.close()
        finished = time.perf_counter()
        return {
            "closed_loop_s": backfill_s,
            "run_s": finished - started,
            "items": len(state["backfill"]),
            "late_ms_max": max(late) * 1e3 if late else 0.0,
            "alerts": clock.alerts(),
            "latencies_ms": clock.alert_latencies_ms(),
        }

    def _oracle(self, state: dict):
        """Live-window keys, labels and batch scores from the serving model."""
        if "oracle" not in state:
            trace = state["trace"]
            features = builder.build_features(trace, top_k_apps=TOP_K_APPS)
            test = features.rows(self.split(trace).test_mask(features.meta["start_minute"]))
            keys = list(zip(test.meta["run_idx"].tolist(), test.meta["node_id"].tolist()))
            predictor = state["gateway"].workers[0].scorer.predictor
            state["oracle"] = (keys, test.y, predictor.decision_scores(test))
        return state["oracle"]

    def check(self, state: dict, outcome: dict) -> list[str]:
        keys, _, scores = self._oracle(state)
        sent = len(state["backfill"]) + len(state["live"])
        return check_serve_alerts(state["gateway"].stats, sent, outcome["alerts"], keys, scores)

    def quality(self, state: dict, outcome: dict) -> tuple[int, int, int]:
        keys, y, _ = self._oracle(state)
        by_key = {(a.run_idx, a.node_id): a.predicted for a in outcome["alerts"]}
        predicted = [by_key.get(key, 0) for key in keys]
        return confusion(predicted, y)

    def accounting(self, state: dict, outcome: dict) -> tuple[int, int]:
        gateway = state["gateway"]
        stats = gateway.stats
        fallback_rows = sum(w.scorer.resilience.fallback_rows for w in gateway.workers)
        return (
            stats.events_in,
            stats.events_rejected + stats.events_dead_lettered + fallback_rows,
        )


def check_serve_alerts(stats, sent: int, alerts, keys, scores) -> list[str]:
    """Exactly one alert per live-window row, scored bit-for-bit like batch.

    ``stats`` is the gateway's ledger, ``sent`` the events the load
    generator offered, ``keys``/``scores`` the batch oracle's live-window
    (run, node) rows and their ``decision_scores``.
    """
    failures = []
    if not stats.zero_drop or stats.events_in != sent:
        failures.append(f"serve: ledger does not balance ({stats.to_dict()}, {sent} sent)")
    seen: dict[tuple[int, int], float] = {}
    for alert in alerts:
        key = (alert.run_idx, alert.node_id)
        if key in seen:
            failures.append(f"serve: row {key} alerted twice")
            return failures
        seen[key] = alert.score
    if set(seen) != set(keys):
        failures.append(
            f"serve: {len(set(keys) - set(seen))} live rows without an alert, "
            f"{len(set(seen) - set(keys))} alerts outside the live window"
        )
        return failures
    online = np.asarray([seen[key] for key in keys], dtype=np.float64)
    mismatched = int(np.sum(online != np.asarray(scores, dtype=np.float64)))
    if mismatched:
        failures.append(
            f"serve: {mismatched} of {len(keys)} alert scores differ from the batch oracle"
        )
    return failures


class SingleShardServe(Serve):
    """``serve`` on one shard: the gated serving workload.

    A multi-shard gateway computes the per-run ``alloc_today`` feature
    over each shard's share of a run's nodes, so ``serve`` fails its
    batch-oracle check (see README.md).  One shard receives whole runs,
    so every score must match the oracle bit for bit here.
    """

    name = "serve1"
    shards = 1


# ------------------------------------------------------------------- retrain
class Retrain:
    """Drift-governed ``serve_replay`` on the ``tiny`` regime-change trace.

    Configured exactly as ``run_drift``'s governed leg: the
    regime-change trace, the experiment's detector config, a sliding
    refit window and ``fast=True`` models.
    """

    name = "retrain"
    preset = "tiny"
    instances = 3
    repeatable = True
    cpu_bound = ("run_s", "events_per_s")

    def setup(self, seed: int) -> dict:
        config = dataclasses.replace(drift_trace_config(self.preset), seed=seed)
        return {"seed": seed, "trace": simulator.simulate_trace(config)}

    def fresh(self, state: dict) -> dict:
        return state

    def run(self, state: dict, clock: StreamClock) -> dict:
        plan = drift_plan(self.preset)
        split = DatasetSplit(
            "DRIFT",
            0.0,
            plan["train_days"] * MINUTES_PER_DAY,
            plan["duration_days"] * MINUTES_PER_DAY,
        )
        window_days = 8.0 * (plan["change_day"] - plan["train_days"]) / 3.0
        registry = MetricsRegistry(mode=get_registry().mode)
        with use_registry(registry), tempfile.TemporaryDirectory() as root:
            started = time.perf_counter()
            report = replay.serve_replay(
                state["trace"],
                root,
                splits=[split],
                split="DRIFT",
                model="gbdt",
                random_state=0,
                fast=True,
                drift=drift_detector_config(),
                retrain_window_days=window_days,
            )
            elapsed = time.perf_counter() - started
        outcomes: dict[str, float] = {}
        counter = registry.counter("repro_serve_retrain_total")
        for labels, value in counter.samples():
            outcome = dict(labels)["outcome"]
            outcomes[outcome] = outcomes.get(outcome, 0.0) + value
        return {
            "closed_loop_s": elapsed,
            "run_s": elapsed,
            "items": report.num_events,
            "report": report,
            "retrain_outcomes": outcomes,
            "latencies_ms": clock.alert_latencies_ms(),
        }

    def check(self, state: dict, outcome: dict) -> list[str]:
        report = outcome["report"]
        if len(report.alerts) != report.rows_test:
            return [f"retrain: {len(report.alerts)} alerts for {report.rows_test} test rows"]
        return []

    def digest(self, outcome: dict) -> str:
        return outcome["report"].digest()

    def quality(self, state: dict, outcome: dict) -> tuple[int, int, int]:
        """Confusion counts of alerts landing in the late evaluation window."""
        if "labels" not in state:
            features = builder.build_features(state["trace"], top_k_apps=TOP_K_APPS)
            state["labels"] = {
                (int(r), int(n)): bool(y)
                for r, n, y in zip(
                    features.meta["run_idx"], features.meta["node_id"], features.y
                )
            }
        after = drift_plan(self.preset)["eval_start"] * MINUTES_PER_DAY
        labels = state["labels"]
        late = [
            a
            for a in outcome["report"].alerts
            if (a.run_idx, a.node_id) in labels and a.end_minute > after
        ]
        return confusion(
            [a.predicted for a in late], [labels[(a.run_idx, a.node_id)] for a in late]
        )

    def accounting(self, state: dict, outcome: dict) -> tuple[int, int]:
        counts = outcome["retrain_outcomes"]
        attempted = int(sum(counts.values()))
        return attempted, int(counts.get("skipped", 0) + counts.get("failed", 0))


WORKLOADS = {w.name: w for w in (Train(), Serve(), SingleShardServe(), Retrain())}
