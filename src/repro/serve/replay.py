"""Replay a recorded trace through the full online serving path.

:func:`serve_replay` is the subsystem's integration harness and the
CLI's ``serve-replay`` subcommand.  It plays one trace twice:

1. **Batch oracle** — the existing offline pipeline: build features,
   take one sliding split, fit a :class:`TwoStagePredictor` on the
   training window, score the test window.
2. **Online path** — persist the fitted predictor through the model
   registry (save → checksum-verified load), then drive the event stream
   through the streaming feature engine and the micro-batch scorer,
   alerting on every test-window sample as its run completes.

Because the engine is bit-identical to the batch builder and the
registry round-trip reproduces the fitted model exactly, the online
alerts must agree with the batch predictions sample-for-sample (the
report tracks the agreement fraction and the F1 delta; the acceptance
bound is |ΔF1| <= 0.01).

An optional periodic-retrain loop refits on the labels resolved so far
and hot-swaps the scorer's model through a new registry version —
after the first swap the online path intentionally diverges from the
frozen batch oracle.

Two orthogonal robustness layers sit on top (both exact no-ops when
unused — the no-chaos digest is bit-identical to the undecorated path):

* ``chaos=ChaosPlan(...)`` injects pipeline faults (scorer exceptions
  and outages, stalls, hot-swap corruption, malformed event bursts) and
  the :class:`~repro.serve.resilience.SupervisedScorer` absorbs them
  with retry/backoff, a circuit breaker over Basic-B / all-negative
  fallbacks, and a dead-letter queue — every test row still gets scored
  by *some* path, and the report breaks out which.
* ``checkpoint_dir=...`` commits the full replay state every N events
  through :class:`~repro.serve.checkpoint.CheckpointManager`;
  ``resume=True`` restarts from the newest checkpoint and — because
  every chaos draw is a pure function of the plan seed and restored
  counters — reproduces the uninterrupted run's metrics and digest
  bit-for-bit.

The online path's state lives in one :class:`ReplayController`: the
scoring worker (built by the set-up the gateway shares,
:func:`~repro.serve.worker.build_workers`), the alerts, versions and
notes, and the retrain and drift policy that runs between events.  A
checkpoint pickles that one object.  Replay drives its worker directly,
not through the async gateway, so its obs snapshot carries no alarm,
trend or ``repro_gateway_*`` metrics.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.pipeline import PredictionPipeline
from repro.core.twostage import TwoStagePredictor
from repro.features.builder import build_features
from repro.features.splits import DatasetSplit
from repro.ml.metrics import classification_report
from repro.serve.checkpoint import CheckpointManager
from repro.serve.drift import (
    DriftConfig,
    DriftMonitor,
    RetrainGovernor,
    fit_validated_candidate,
    record_drift_metrics,
    record_retrain_outcome,
    record_rollback,
)
from repro.serve.engine import rows_to_matrix
from repro.serve.events import iter_trace_events
from repro.serve.registry import ModelRegistry
from repro.serve.resilience import (
    ChaosPlan,
    DeadLetter,
    ResilienceConfig,
    ResilienceCounters,
)
from repro.serve.scorer import Alert, ServeCounters
from repro.serve.worker import (
    ScorerWorker,
    build_workers,
    scored_alert_digest,
    update_alert_digest,
)
from repro.telemetry.trace import Trace
from repro.utils.errors import (
    DegradedDataError,
    DegradedDataWarning,
    ModelRegistryError,
    SimulatedCrashError,
    TelemetryFaultError,
    ValidationError,
)
from repro.utils.validation import check_positive

__all__ = ["ReplayController", "ReplayReport", "serve_replay"]

MINUTES_PER_DAY = 1440.0


#: A per-class metric report, as :func:`classification_report` returns.
ClassReport = dict[str, dict[str, float]]


def _zero_class_report() -> ClassReport:
    """A well-formed all-zero classification report (no samples)."""
    return {
        "sbe": {"precision": 0.0, "recall": 0.0, "f1": 0.0},
        "non_sbe": {"precision": 0.0, "recall": 0.0, "f1": 0.0},
        "overall": {"accuracy": 0.0},
    }


@dataclass
class ReplayReport:
    """Everything one ``serve_replay`` invocation measured.

    The defaults describe a replay with nothing to score.
    """

    split: str
    model: str
    registry_name: str
    registry_versions: list[int] = field(default_factory=list)
    num_events: int = 0
    rows_streamed: int = 0
    rows_test: int = 0
    counters: ServeCounters = field(default_factory=ServeCounters)
    alerts: list[Alert] = field(default_factory=list)
    batch_report: ClassReport = field(default_factory=_zero_class_report)
    online_report: ClassReport = field(default_factory=_zero_class_report)
    #: Fraction of test samples where online and batch predictions agree.
    agreement: float = 1.0
    #: max |online score - batch score| over the test window.
    max_abs_score_diff: float = 0.0
    wall_seconds: float = 0.0
    retrains: int = 0
    #: Retrains triggered by the drift governor (subset of ``retrains``).
    drift_retrains: int = 0
    #: Retrain candidates rejected by holdout validation.
    retrains_rejected: int = 0
    #: Automatic rollbacks to the last-good registry version.
    rollbacks: int = 0
    #: Drift governor summary (detector state, triggers); ``None`` when
    #: drift detection was off — the digest hashes it only when present,
    #: so drift-off replays keep their pinned digests.
    drift: dict | None = None
    notes: list[str] = field(default_factory=list)
    #: Supervision telemetry (all-zero when the replay ran without chaos).
    resilience: ResilienceCounters = field(default_factory=ResilienceCounters)
    #: Fingerprint of the chaos plan, or ``None`` for a clean replay.
    chaos_digest: str | None = None
    #: Quarantined batches/events (payloads stripped), quarantine order.
    dead_letters: list[DeadLetter] = field(default_factory=list)
    #: Event cursor of the checkpoint this run resumed from, if any.
    resumed_from: int | None = None

    @property
    def batch_f1(self) -> float:
        """SBE-class F1 of the offline oracle."""
        return self.batch_report["sbe"]["f1"]

    @property
    def online_f1(self) -> float:
        """SBE-class F1 of the online path."""
        return self.online_report["sbe"]["f1"]

    @property
    def f1_delta(self) -> float:
        """online F1 - batch F1 (acceptance bound: |delta| <= 0.01)."""
        return self.online_f1 - self.batch_f1

    def digest(self) -> str:
        """Deterministic fingerprint of the replay outcome.

        Covers the event stream size, both metric reports, and every
        alert's identity/score/decision.  Excludes wall-clock timings
        and registry version numbers: those legitimately vary across
        same-seed invocations (machine load; pre-existing versions under
        the registry root).  A chaos replay additionally hashes the plan
        fingerprint, the row-disposition breakdown, every dead letter,
        and each alert's scoring path — a clean replay hashes exactly
        what it always did, so resilience wrapping cannot move old
        digests.
        """
        h = hashlib.sha256()
        h.update(f"{self.split}|{self.model}|{self.num_events}|".encode())
        # (The alert section below is the shared scored-alert encoding;
        # see :func:`repro.serve.worker.scored_alert_digest`.)
        h.update(f"{self.rows_streamed}|{self.rows_test}|{self.retrains}|".encode())
        for report in (self.batch_report, self.online_report):
            for cls in sorted(report):
                for metric in sorted(report[cls]):
                    h.update(f"{cls}.{metric}={report[cls][metric]:.12g};".encode())
        h.update(f"agreement={self.agreement:.12g};".encode())
        h.update(f"max_abs_score_diff={self.max_abs_score_diff:.12g};".encode())
        update_alert_digest(h, self.alerts)
        if self.chaos_digest is not None:
            r = self.resilience
            h.update(f"chaos={self.chaos_digest};".encode())
            h.update(
                f"rows={r.primary_rows},{r.fallback_rows},{r.dead_lettered_rows},"
                f"{r.replayed_rows},{r.unresolved_rows};".encode()
            )
            h.update(
                f"events={r.injected_events},{r.dead_letter_events};"
                f"breaker={r.breaker_trips},{r.breaker_probes};"
                f"swaps={r.swap_failures};".encode()
            )
            for letter in self.dead_letters:
                h.update(
                    f"dl:{letter.kind},{letter.reason},{letter.minute:.12g},"
                    f"{letter.rows},{letter.resolution};".encode()
                )
            for alert in sorted(
                self.alerts, key=lambda a: (a.run_idx, a.node_id, a.end_minute)
            ):
                h.update(f"src:{alert.run_idx},{alert.node_id},{alert.source};".encode())
        if self.drift is not None:
            h.update(
                f"drift={self.drift_retrains},{self.retrains_rejected},"
                f"{self.rollbacks};".encode()
            )
            for minute, reason in self.drift.get("triggers", []):
                h.update(f"trig:{minute:.12g},{reason};".encode())
        return h.hexdigest()

    def scored_alert_digest(self) -> str:
        """Digest of the scored alerts alone (the gateway parity gate).

        A single-shard, single-client gateway run over the same trace,
        split, and seed must reproduce this value bit for bit.
        """
        return scored_alert_digest(self.alerts)

    def __str__(self) -> str:
        c = self.counters
        lines = [
            f"serve-replay [{self.split}] twostage-{self.model}",
            f"  events processed   {self.num_events}",
            f"  rows streamed      {self.rows_streamed}"
            f" (test window: {self.rows_test})",
            f"  batches            {c.batches}"
            f" (size {c.size_flushes} / deadline {c.deadline_flushes}"
            f" / final {c.final_flushes})",
            f"  max queue depth    {c.max_queue_depth}",
            f"  mean queue latency {c.mean_queue_minutes:.2f} min (event time)",
            f"  throughput         {c.rows_per_second:,.0f} rows/s"
            f" (scoring wall-clock)",
            f"  positive alerts    {c.positive_alerts}",
            f"  registry versions  {self.registry_versions}"
            f" (retrains: {self.retrains})",
            f"  batch  P/R/F1      {self.batch_report['sbe']['precision']:.4f}"
            f" / {self.batch_report['sbe']['recall']:.4f}"
            f" / {self.batch_f1:.4f}",
            f"  online P/R/F1      {self.online_report['sbe']['precision']:.4f}"
            f" / {self.online_report['sbe']['recall']:.4f}"
            f" / {self.online_f1:.4f}",
            f"  agreement          {self.agreement:.6f}"
            f"  (max |score diff| {self.max_abs_score_diff:.3g})",
        ]
        if self.chaos_digest is not None:
            r = self.resilience
            lines.extend(
                [
                    f"  chaos plan         {self.chaos_digest[:16]}...",
                    f"  availability       {r.availability:.6f}"
                    f"  (primary {r.primary_rows} / fallback {r.fallback_rows}"
                    f" / unresolved {r.unresolved_rows} rows)",
                    f"  fallback share     {r.fallback_share:.4f}"
                    f"  (breaker trips {r.breaker_trips},"
                    f" probes {r.breaker_probes})",
                    f"  dead letters       {len(self.dead_letters)}"
                    f" ({r.dead_lettered_rows} rows quarantined,"
                    f" {r.replayed_rows} replayed,"
                    f" {r.dead_letter_events} bad events)",
                    f"  faults absorbed    transient {r.transient_faults}"
                    f" / outage {r.outage_faults} / timeout {r.timeouts}"
                    f" / swap {r.swap_failures}"
                    f" (retries {r.retries})",
                ]
            )
        if self.drift is not None:
            state = self.drift.get("state", {})
            lines.extend(
                [
                    f"  drift detectors    feature PSI {state.get('feature_psi', 0.0):.4f}"
                    f" / score PSI {state.get('score_psi', 0.0):.4f}"
                    f" / F1 decay {state.get('f1_decay', 0.0):.4f}",
                    f"  drift governor     triggers {len(self.drift.get('triggers', []))}"
                    f" / retrains {self.drift_retrains}"
                    f" / rejected {self.retrains_rejected}"
                    f" / rollbacks {self.rollbacks}",
                ]
            )
        if self.resumed_from is not None:
            lines.append(f"  resumed from       event {self.resumed_from}")
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


def _trace_fingerprint(trace: Trace) -> str:
    """Content hash binding a checkpoint to the exact trace it came from."""
    h = hashlib.sha256()
    h.update(f"{trace.num_samples}|".encode())
    for name in sorted(trace.samples):
        h.update(name.encode())
        h.update(np.ascontiguousarray(trace.samples[name]).tobytes())
    for name in sorted(trace.runs):
        h.update(name.encode())
        h.update(np.ascontiguousarray(trace.runs[name]).tobytes())
    return h.hexdigest()


class ReplayController:
    """The online half of one replay: serving state plus its policy.

    Owns the scoring worker, its alerts, the registry versions served,
    the notes, the retrain cadence and, with drift on, the monitor and
    governor.  A checkpoint pickles this one object; a resuming run
    re-attaches its own :attr:`registry`.
    """

    def __init__(
        self,
        worker: ScorerWorker,
        registry: ModelRegistry,
        *,
        name: str,
        model: str,
        random_state: int | None,
        fast: bool,
        retrain_every_days: float | None,
        retrain_window_days: float | None,
        drift: DriftConfig | None,
        poison_retrains: tuple[int, ...],
        notes: list[str],
    ) -> None:
        self.worker = worker
        self.registry = registry
        self.name = name
        self.model = model
        self.random_state = random_state
        self.fast = fast
        self.retrain_every_days = retrain_every_days
        self.retrain_window_days = retrain_window_days
        self.poison = frozenset(int(i) for i in poison_retrains)
        self.notes = notes
        self.alerts: list[Alert] = []
        self.versions = [worker.scorer.model_version]
        self.retrains = 0
        self.retrain_attempts = 0
        self.next_retrain = (
            None
            if retrain_every_days is None
            else worker.window[0] + retrain_every_days * MINUTES_PER_DAY
        )
        self.monitor = None if drift is None else DriftMonitor(drift)
        self.governor = None if drift is None else RetrainGovernor(drift)

    # ------------------------------------------------------------ stream
    def handle(self, event) -> None:
        """Apply one stream event through the worker."""
        self.alerts.extend(self.worker.handle_event(event, between=self.between_events))

    def finish(self) -> None:
        """End of stream: flush the worker's queue and dead letters."""
        self.alerts.extend(self.worker.finish())

    def between_events(self, now_minute: float) -> None:
        """The worker's ``between`` hook: drift policy, then periodic retrain.

        The governor stays inert until the model is actually serving.
        """
        monitor, governor = self.monitor, self.governor
        if monitor is not None:
            monitor.feed([self.worker], self.alerts)
            if now_minute >= self.worker.window[0]:
                if governor.should_rollback(monitor):
                    self.roll_back(now_minute)
                if governor.should_check(now_minute):
                    record_drift_metrics(monitor, active_version=self.versions[-1])
                    reason = governor.drift_trigger(now_minute, monitor)
                    if reason is not None:
                        self.notes.append(
                            f"drift detected at minute {now_minute:g} ({reason}); "
                            "triggering guarded retrain"
                        )
                        self.run_retrain(now_minute, "drift")
        self.maybe_retrain(now_minute)

    # ----------------------------------------------------------- retrain
    def maybe_retrain(self, now_minute: float) -> None:
        """Run every periodic retrain that has come due."""
        while self.next_retrain is not None and now_minute >= self.next_retrain:
            at = self.next_retrain
            self.next_retrain += self.retrain_every_days * MINUTES_PER_DAY
            self.run_retrain(at, "periodic")

    def run_retrain(self, at: float, trigger: str) -> None:
        """One refit attempt at event-time ``at`` (periodic or drift)."""
        worker, governor, registry = self.worker, self.governor, self.registry
        serving = worker.scorer.predictor
        resolved = [
            row
            for row in worker.history_rows
            if row.end_minute <= at and (row.job_id, row.node_id) in worker.labels
        ]
        if self.retrain_window_days is not None:
            cutoff = at - self.retrain_window_days * MINUTES_PER_DAY
            resolved = [row for row in resolved if row.end_minute > cutoff]
        if not resolved:
            self.notes.append(f"retrain at minute {at:g} skipped: no resolved rows")
            record_retrain_outcome("skipped", trigger=trigger)
            return
        counts = np.asarray(
            [worker.labels[(row.job_id, row.node_id)] for row in resolved],
            dtype=np.int64,
        )
        if self.retrain_attempts in self.poison:
            # Test hook: a uniformly inverted label set poisons the train
            # split and its own holdout alike, so the candidate validates
            # cleanly — only post-swap monitoring can catch it.
            counts = np.where(counts > 0, 0, 1).astype(np.int64)
            self.notes.append(
                f"retrain attempt {self.retrain_attempts} at minute {at:g} "
                "poisoned (labels inverted)"
            )
        holdout = None
        if governor is not None:
            candidate, holdout = fit_validated_candidate(
                model=self.model,
                rows=resolved,
                counts=counts,
                schema=worker.engine.schema,
                serving=serving,
                config=governor.config,
                random_state=self.random_state,
                fast=self.fast,
            )
            if candidate is None:
                governor.retrains_rejected += 1
                record_retrain_outcome("rejected", trigger=trigger)
                self.notes.append(
                    f"retrain at minute {at:g} rejected: {holdout.reason}"
                )
                return
        else:
            candidate = TwoStagePredictor(
                self.model, random_state=self.random_state, fast=self.fast
            )
            try:
                candidate.fit(
                    rows_to_matrix(resolved, worker.engine.schema, sbe_counts=counts)
                )
            except ValidationError as exc:
                self.notes.append(f"retrain at minute {at:g} skipped: {exc}")
                record_retrain_outcome("failed", trigger=trigger)
                return
        attempt = self.retrain_attempts
        self.retrain_attempts += 1
        new_entry = registry.save_model(
            candidate,
            name=self.name,
            metadata={
                "retrained_at_minute": at,
                "n_rows": len(resolved),
                "trigger": trigger,
            },
        )
        injector = worker.injector
        if injector is not None and injector.swap_corrupts(attempt):
            # Chaos: flip one payload byte after commit, before the
            # pre-swap verification load — a torn/bit-rotted artifact.
            payload_path = new_entry.path / new_entry.manifest["payload"]
            blob = bytearray(payload_path.read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            payload_path.write_bytes(bytes(blob))
        try:
            stall = (
                0.0
                if injector is None
                else injector.registry_load_stall_seconds(attempt)
            )
            worker.scorer.resilience.registry_load_stall_seconds += stall
            registry.load_model(
                self.name,
                new_entry.version,
                expect_feature_names=serving.feature_names,
            )
        except ModelRegistryError as exc:
            # The previous model stays active; a bad artifact must
            # never take the serving path down mid-replay.
            worker.scorer.resilience.swap_failures += 1
            self.notes.append(
                f"hot swap to v{new_entry.version:04d} failed "
                f"(previous model kept): {exc}"
            )
            record_retrain_outcome("failed", trigger=trigger)
            return
        # Swap in the in-memory candidate (the load above is
        # verification only): bit-identical to the pre-supervision
        # behavior, which never round-tripped the swap through disk.
        previous_version = self.versions[-1]
        worker.scorer.swap_model(candidate, new_entry.version)
        self.versions.append(new_entry.version)
        self.retrains += 1
        record_retrain_outcome("published", trigger=trigger)
        if governor is not None:
            if trigger != "periodic":
                governor.retrains_drift += 1
            monitor = self.monitor
            governor.record_swap(
                version=new_entry.version,
                previous_version=previous_version,
                previous_predictor=serving,
                holdout_f1=holdout.candidate_f1,
                previous_holdout_f1=governor.serving_holdout_f1,
                pre_swap_rolling_f1=monitor.f1.f1() if monitor.f1.ready else None,
                at_minute=at,
            )
            monitor.reset_after_swap()
            record_drift_metrics(monitor, active_version=new_entry.version)

    def roll_back(self, now_minute: float) -> None:
        """Swap the last-good model back in and re-point the registry."""
        target_version, target_predictor = self.governor.record_rollback(now_minute)
        try:
            self.registry.rollback(self.name, target_version)
        except ModelRegistryError as exc:
            # The in-memory swap below still restores serving quality;
            # only the on-disk head pointer could not be re-pointed.
            self.notes.append(
                f"registry rollback to v{target_version:04d} refused: {exc}"
            )
        self.worker.scorer.swap_model(target_predictor, target_version)
        self.versions.append(target_version)
        self.notes.append(
            f"post-swap F1 collapse at minute {now_minute:g}: rolled back "
            f"to v{target_version:04d}"
        )
        self.monitor.reset_after_swap()
        record_rollback()
        record_drift_metrics(self.monitor, active_version=target_version)

    def drift_summary(self) -> dict | None:
        """The report's drift section (``None`` with drift off)."""
        if self.monitor is None:
            return None
        governor = self.governor
        record_drift_metrics(self.monitor, active_version=self.versions[-1])
        return {
            "state": self.monitor.state(),
            "triggers": [(float(m), r) for m, r in governor.triggers],
            "swaps": [(float(m), int(v)) for m, v in governor.swaps],
            "rollbacks": [(float(m), int(v)) for m, v in governor.rollback_events],
        }


def serve_replay(
    trace: Trace,
    registry_root: str | Path,
    *,
    split: str = "DS1",
    splits: list[DatasetSplit] | None = None,
    model: str = "gbdt",
    batch_size: int = 256,
    flush_deadline_minutes: float = 30.0,
    registry_name: str = "twostage",
    retrain_every_days: float | None = None,
    retrain_window_days: float | None = None,
    drift: DriftConfig | None = None,
    poison_retrains: tuple[int, ...] = (),
    top_k_apps: int = 16,
    random_state: int | None = 0,
    fast: bool = False,
    sanitize: bool = False,
    chaos: ChaosPlan | None = None,
    resilience: ResilienceConfig | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every_events: int = 2000,
    resume: bool = False,
    crash_after_events: int | None = None,
    strict: bool = False,
) -> ReplayReport:
    """Replay ``trace`` through registry + streaming engine + scorer.

    Trains the batch oracle on ``split``'s training window, publishes it
    to the registry under ``registry_root``, reloads it (checksum and
    schema verified), and scores the split's test window online.  With
    ``retrain_every_days`` set, the model is refit on resolved labels at
    that cadence and hot-swapped through new registry versions;
    ``retrain_window_days`` restricts every refit to a sliding window of
    the most recently resolved rows (default: all rows since start).

    ``drift=DriftConfig(...)`` arms the drift-resilience layer: the
    streaming detectors of :mod:`repro.serve.drift` watch the scoring
    path, the :class:`~repro.serve.drift.RetrainGovernor` triggers
    guarded retrains on drift (holdout-validated before publishing),
    and a freshly swapped model whose post-swap rolling F1 collapses is
    rolled back to the last-good registry version automatically.  With
    ``drift=None`` the replay is bit-identical to the undecorated path.
    ``poison_retrains`` is a test hook: the listed retrain-attempt
    indices train on inverted labels — a consistently poisoned refit
    validates cleanly against its own (equally poisoned) holdout, so it
    exercises the post-swap-rollback path end to end.

    ``chaos`` injects pipeline faults; ``resilience`` tunes the
    supervision absorbing them.  ``checkpoint_dir`` commits resumable
    state every ``checkpoint_every_events`` events; ``resume=True``
    restarts from the newest compatible checkpoint.
    ``crash_after_events`` raises
    :class:`~repro.utils.errors.SimulatedCrashError` after that many
    events — the test hook for the kill-and-resume path.

    ``strict=True`` escalates every degraded-data self-heal into a
    typed :class:`~repro.utils.errors.DegradedDataError`: a sanitizer
    repair (which normally proceeds under a
    :class:`~repro.utils.errors.DegradedDataWarning`) and a
    whole-trace quarantine (which normally returns a well-formed empty
    report) both become hard errors, matching the store subcommands'
    ``--strict`` contract.
    """
    check_positive(int(checkpoint_every_events), "checkpoint_every_events")
    if resume and checkpoint_dir is None:
        raise ValidationError("--resume requires a checkpoint directory")
    started = time.perf_counter()
    notes: list[str] = []
    empty: str | None = None
    if sanitize:
        from repro.faults import sanitize_trace

        try:
            if strict:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DegradedDataWarning)
                    try:
                        trace, sanitize_report = sanitize_trace(trace)
                    except DegradedDataWarning as exc:
                        raise DegradedDataError(str(exc)) from exc
            else:
                trace, sanitize_report = sanitize_trace(trace)
        except TelemetryFaultError as exc:
            if strict:
                raise DegradedDataError(
                    f"sanitizer quarantined the whole trace: {exc}"
                ) from exc
            # Everything was quarantined.  An empty stream is an answer
            # (nothing scorable), not a crash.
            empty = f"sanitizer quarantined the whole trace: {exc}"
        else:
            notes.append(f"sanitized input trace: {sanitize_report.summary()}")
    if empty is None and trace.num_samples == 0:
        empty = "input trace is empty; nothing to replay"
    if empty is not None:
        return ReplayReport(
            split=split,
            model=model,
            registry_name=registry_name,
            wall_seconds=time.perf_counter() - started,
            notes=notes + [empty],
            chaos_digest=None if chaos is None else chaos.digest(),
        )

    # ------------------------------------------------------------- batch
    features = build_features(trace, top_k_apps=top_k_apps)
    pipeline = PredictionPipeline(features, splits)
    split_obj = pipeline.split(split)
    train, test = pipeline.train_test(split)
    predictor = TwoStagePredictor(model, random_state=random_state, fast=fast)
    predictor.fit(train)
    batch_scores = predictor.decision_scores(test)
    batch_pred = (batch_scores >= predictor.model.threshold).astype(int)
    batch_report = classification_report(test.y, batch_pred)

    # -------------------------------------------------------------- online
    checkpoints = (
        None if checkpoint_dir is None else CheckpointManager(checkpoint_dir)
    )
    config_key = hashlib.sha256(
        json.dumps(
            {
                "split": split,
                "model": model,
                "batch_size": batch_size,
                "flush_deadline_minutes": flush_deadline_minutes,
                "registry_name": registry_name,
                "retrain_every_days": retrain_every_days,
                "retrain_window_days": retrain_window_days,
                "drift": None if drift is None else repr(drift),
                "poison_retrains": sorted(int(i) for i in poison_retrains),
                "top_k_apps": top_k_apps,
                "random_state": random_state,
                "fast": fast,
                "sanitize": sanitize,
                "chaos": None if chaos is None else chaos.digest(),
                "resilience": repr(resilience or ResilienceConfig()),
                "trace": _trace_fingerprint(trace),
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()
    registry = ModelRegistry(registry_root)
    resumed_from: int | None = None
    if resume:
        resumed_from, controller = checkpoints.load_latest(expected_key=config_key)
        # Retrains publish under this run's registry root.
        controller.registry = registry
        controller.notes.extend(notes)
        controller.notes.append(f"resumed from checkpoint at event {resumed_from}")
    else:
        (worker,) = build_workers(
            trace,
            registry,
            predictor,
            train,
            name=registry_name,
            metadata={
                "split": split,
                "model": model,
                "train_start_minute": split_obj.train_start,
                "train_end_minute": split_obj.train_end,
                "random_state": random_state,
                "fast": fast,
                "top_k_apps": top_k_apps,
            },
            window=(split_obj.train_end, split_obj.test_end),
            batch_size=batch_size,
            flush_deadline_minutes=flush_deadline_minutes,
            top_k_apps=top_k_apps,
            resilience=resilience,
            chaos=chaos,
        )
        controller = ReplayController(
            worker,
            registry,
            name=registry_name,
            model=model,
            random_state=random_state,
            fast=fast,
            retrain_every_days=retrain_every_days,
            retrain_window_days=retrain_window_days,
            drift=drift,
            poison_retrains=poison_retrains,
            notes=notes,
        )

    worker = controller.worker
    for index, event in enumerate(iter_trace_events(trace)):
        if resumed_from is not None and index < resumed_from:
            continue
        controller.handle(event)
        if (
            checkpoints is not None
            and worker.num_events % int(checkpoint_every_events) == 0
        ):
            checkpoints.save(worker.num_events, controller, key=config_key)
        if crash_after_events is not None and worker.num_events >= crash_after_events:
            raise SimulatedCrashError(worker.num_events)
    controller.finish()

    # --------------------------------------------------------- alignment
    # Alert order depends on flush timing, so align to the batch test rows
    # by (run_idx, node_id) — unique per sample by construction.
    by_key = {(a.run_idx, a.node_id): a for a in controller.alerts}
    test_keys = list(
        zip(
            (int(v) for v in test.meta["run_idx"]),
            (int(v) for v in test.meta["node_id"]),
        )
    )
    missing = [key for key in test_keys if key not in by_key]
    if missing:
        raise ValidationError(
            f"online path never scored {len(missing)} of {len(test_keys)} "
            f"batch test samples (first: {missing[0]})"
        )
    online_pred = np.asarray([by_key[key].predicted for key in test_keys], dtype=int)
    online_scores = np.asarray([by_key[key].score for key in test_keys], dtype=float)

    governor = controller.governor
    return ReplayReport(
        split=split,
        model=model,
        registry_name=registry_name,
        registry_versions=controller.versions,
        num_events=worker.num_events,
        rows_streamed=worker.engine.rows_emitted,
        rows_test=len(test_keys),
        counters=worker.scorer.counters,
        alerts=controller.alerts,
        batch_report=batch_report,
        online_report=classification_report(test.y, online_pred),
        agreement=float(np.mean(online_pred == batch_pred)),
        max_abs_score_diff=float(np.max(np.abs(online_scores - batch_scores))),
        wall_seconds=time.perf_counter() - started,
        retrains=controller.retrains,
        drift_retrains=0 if governor is None else governor.retrains_drift,
        retrains_rejected=0 if governor is None else governor.retrains_rejected,
        rollbacks=0 if governor is None else governor.rollbacks,
        drift=controller.drift_summary(),
        notes=controller.notes,
        resilience=worker.scorer.resilience,
        chaos_digest=None if chaos is None else chaos.digest(),
        dead_letters=[letter.stripped() for letter in worker.scorer.dlq.letters],
        resumed_from=resumed_from,
    )

