"""Streaming drift detection and the guarded-retrain governor.

Three detectors watch the online scoring path, all windowed and all
cheap enough to sit in the event loop:

* **Feature-distribution PSI** — per-feature Population Stability Index
  between a frozen reference window (the first ``reference_rows`` rows
  the stream emits) and a rolling current window, over
  quantile-derived histogram bins.  The statistic is the mean of the
  top-``psi_top_k`` per-feature PSI values, which keeps a genuine
  multi-feature shift visible without letting one noisy column alarm
  the fleet.
* **Score-calibration shift** — the same PSI machinery applied to the
  1-D distribution of decision scores: a model whose score histogram
  walks away from its reference is mis-calibrated even if accuracy has
  not (yet) moved.
* **Rolling-F1 decay** — precision/recall/F1 over a deque of the last
  ``f1_window`` resolved (prediction, label) pairs, compared against
  the best rolling F1 seen since the last model swap.  This is the
  ground-truth detector; it lags by label-resolution latency but never
  false-alarms on benign covariate shift.

:class:`RetrainGovernor` turns detector state into *guarded* lifecycle
actions: drift-triggered retrains (with cooldown), holdout validation
before a candidate is published (time-ordered tail holdout, so the
candidate is judged on the newest regime), and post-swap monitoring
that rolls back to the last-good registry version when the freshly
swapped model's rolling F1 collapses (the poisoned/degenerate-refit
case that holdout validation alone cannot catch: a consistently
poisoned training set validates cleanly against its own holdout).

The governor holds no registry and no metrics-registry reference — it
pickles into replay checkpoints — and every observability emission goes
through :func:`record_drift_metrics` / :func:`record_retrain_outcome`,
which look the obs registry up lazily per call (digest-neutral by the
``repro.obs`` contract).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.twostage import TwoStagePredictor
from repro.features.builder import FeatureMatrix
from repro.obs import MetricsRegistry, get_registry
from repro.utils.errors import ValidationError
from repro.utils.validation import check_positive

__all__ = [
    "DriftConfig",
    "WindowedPSI",
    "RollingF1Monitor",
    "DriftMonitor",
    "HoldoutReport",
    "RetrainGovernor",
    "fit_validated_candidate",
    "positive_f1",
    "record_drift_metrics",
    "record_retrain_outcome",
]

_EPS = 1e-4


@dataclass(frozen=True)
class DriftConfig:
    """Detector thresholds and governor policy knobs."""

    #: Rows frozen as the feature/score reference distribution.
    reference_rows: int = 512
    #: Rolling current-window size (rows) for the PSI detectors.
    window_rows: int = 512
    #: Histogram bins per feature (quantile edges from the reference).
    bins: int = 10
    #: Mean of the top-k per-feature PSI values forms the statistic.
    psi_top_k: int = 5
    #: Feature-distribution PSI trigger threshold.
    psi_threshold: float = 0.25
    #: Score-calibration PSI trigger threshold.
    calibration_threshold: float = 0.25
    #: Resolved (prediction, label) pairs in the rolling-F1 window.
    f1_window: int = 200
    #: Rolling-F1 decay (best-since-swap minus current) trigger threshold.
    f1_drop: float = 0.15
    #: Minimum resolved labels before the F1 detector may fire.
    min_labels: int = 60
    #: Governor polling cadence (event-time minutes between checks).
    check_every_minutes: float = 360.0
    #: Minimum event-time minutes between drift-triggered retrains.
    cooldown_minutes: float = 2880.0
    #: Fraction of resolved rows held out (time-ordered tail) to
    #: validate a retrain candidate before it is published.
    holdout_fraction: float = 0.25
    #: Floor on both the holdout size and the remaining training size.
    min_holdout: int = 40
    #: A candidate is published iff its holdout F1 is at least
    #: ``serving holdout F1 - validation_margin``.
    validation_margin: float = 0.05
    #: Resolved labels after a swap before rollback may be considered.
    postswap_min_labels: int = 80
    #: Roll back when post-swap rolling F1 falls this far below the
    #: candidate's validated holdout F1.
    postswap_drop: float = 0.25
    #: ... and at least this far below the rolling F1 the *previous*
    #: model held at swap time (a small holdout is optimistic; a swap
    #: that merely fails to beat an inflated holdout mark is not a
    #: poisoning).
    postswap_margin: float = 0.10

    def __post_init__(self) -> None:
        check_positive(self.reference_rows, "reference_rows")
        check_positive(self.window_rows, "window_rows")
        check_positive(self.bins, "bins")
        check_positive(self.f1_window, "f1_window")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValidationError("holdout_fraction must be in (0, 1)")


# ----------------------------------------------------------------------
# Detectors
# ----------------------------------------------------------------------
def _psi(reference: np.ndarray, current: np.ndarray) -> float:
    """PSI between two aligned probability vectors (epsilon-smoothed)."""
    p = np.clip(reference, _EPS, None)
    q = np.clip(current, _EPS, None)
    p = p / p.sum()
    q = q / q.sum()
    return float(np.sum((q - p) * np.log(q / p)))


class WindowedPSI:
    """PSI of a rolling window against a frozen reference distribution.

    Works on vectors (feature rows) and scalars (scores) alike: the
    first ``reference_rows`` observations freeze per-column quantile bin
    edges and the reference histogram; afterwards observations fill a
    rolling window and :meth:`statistic` compares histograms.
    """

    def __init__(self, reference_rows: int, window_rows: int, bins: int, top_k: int) -> None:
        self._reference_rows = int(reference_rows)
        self._bins = int(bins)
        self._top_k = max(1, int(top_k))
        self._pending: list[np.ndarray] = []
        self._edges: np.ndarray | None = None  # (n_cols, bins - 1)
        self._reference: np.ndarray | None = None  # (n_cols, bins) probs
        self._window: deque = deque(maxlen=int(window_rows))
        self._cached: tuple[int, float] | None = None
        self._version = 0

    @property
    def ready(self) -> bool:
        """Reference frozen and the rolling window at least half full."""
        return (
            self._reference is not None
            and len(self._window) * 2 >= self._window.maxlen
        )

    def observe(self, values: np.ndarray | float) -> None:
        """Feed one observation (feature vector or scalar score)."""
        row = np.atleast_1d(np.asarray(values, dtype=float))
        if self._reference is None:
            self._pending.append(row)
            if len(self._pending) >= self._reference_rows:
                self._freeze()
            return
        self._window.append(row)
        self._version += 1

    def _freeze(self) -> None:
        block = np.stack(self._pending)  # (rows, cols)
        self._pending = []
        quantiles = np.linspace(0.0, 1.0, self._bins + 1)[1:-1]
        self._edges = np.quantile(block, quantiles, axis=0).T  # (cols, bins-1)
        self._reference = self._histogram(block)

    def _histogram(self, block: np.ndarray) -> np.ndarray:
        n_cols = block.shape[1]
        hist = np.empty((n_cols, self._bins))
        for col in range(n_cols):
            idx = np.searchsorted(self._edges[col], block[:, col], side="right")
            hist[col] = np.bincount(idx, minlength=self._bins) / block.shape[0]
        return hist

    def statistic(self) -> float:
        """Mean of the top-k per-column PSI values (0.0 until ready)."""
        if not self.ready:
            return 0.0
        if self._cached is not None and self._cached[0] == self._version:
            return self._cached[1]
        current = self._histogram(np.stack(self._window))
        per_col = np.asarray(
            [_psi(self._reference[c], current[c]) for c in range(current.shape[0])]
        )
        top = np.sort(per_col)[::-1][: self._top_k]
        value = float(top.mean())
        self._cached = (self._version, value)
        return value


class RollingF1Monitor:
    """F1 over the last N resolved (prediction, label) pairs."""

    def __init__(self, window: int, min_labels: int) -> None:
        self._pairs: deque = deque(maxlen=int(window))
        self._min_labels = int(min_labels)
        self.best_f1 = 0.0
        self.total_observed = 0
        #: Pairs observed since the last :meth:`reset` (model swap).
        self.since_reset = 0

    def observe(self, predicted: int, actual: int) -> None:
        """Record one resolved label."""
        self._pairs.append((int(bool(predicted)), int(bool(actual))))
        self.total_observed += 1
        self.since_reset += 1
        if self.ready:
            self.best_f1 = max(self.best_f1, self.f1())

    @property
    def ready(self) -> bool:
        """Enough labels for the statistic to mean anything."""
        return len(self._pairs) >= self._min_labels

    def f1(self) -> float:
        """F1 of the positive class over the window."""
        if not self._pairs:
            return 0.0
        tp = sum(1 for p, a in self._pairs if p and a)
        fp = sum(1 for p, a in self._pairs if p and not a)
        fn = sum(1 for p, a in self._pairs if not p and a)
        if 2 * tp + fp + fn == 0:
            return 0.0
        return 2.0 * tp / (2 * tp + fp + fn)

    def decay(self) -> float:
        """Best-since-reset F1 minus current F1 (0.0 until ready)."""
        if not self.ready:
            return 0.0
        return max(0.0, self.best_f1 - self.f1())

    def reset(self) -> None:
        """Forget the window and the best mark (call on model swap)."""
        self._pairs.clear()
        self.best_f1 = 0.0
        self.since_reset = 0


class DriftMonitor:
    """Aggregates the three detectors and the label-matching plumbing.

    Replay and the gateway call :meth:`feed`, which forwards new
    emitted rows (:meth:`observe_row`), scored alerts
    (:meth:`observe_alert`), and the growing resolved-label map
    (:meth:`match_labels`); the monitor pairs predictions with their
    ground truth as it arrives.  Pickles into replay checkpoints.
    """

    def __init__(self, config: DriftConfig) -> None:
        self.config = config
        self.features = WindowedPSI(
            config.reference_rows, config.window_rows, config.bins, config.psi_top_k
        )
        self.scores = WindowedPSI(
            config.reference_rows, config.window_rows, config.bins, top_k=1
        )
        self.f1 = RollingF1Monitor(config.f1_window, config.min_labels)
        #: (job_id, node_id) -> predicted, awaiting label resolution.
        self._pending: dict[tuple[int, int], int] = {}
        self._consumed: set[tuple[int, int]] = set()
        #: Feed cursors: rows consumed per worker, alerts consumed.
        self._rows_fed: list[int] = []
        self._alerts_fed = 0

    def feed(self, workers, alerts: list) -> None:
        """Observe what ``workers`` (shards) and ``alerts`` added since last call.

        Only rows ending inside the scoring window feed the feature PSI:
        the reference must capture what the model serves, not the
        trace's cold-start transient.  Labels broadcast to every shard,
        so shard 0's map is the machine-wide truth.
        """
        for shard, worker in enumerate(workers):
            if shard == len(self._rows_fed):
                self._rows_fed.append(0)
            rows = worker.history_rows
            lo = None if worker.window is None else worker.window[0]
            for row in rows[self._rows_fed[shard] :]:
                if lo is None or row.end_minute >= lo:
                    self.observe_row(row)
            self._rows_fed[shard] = len(rows)
        for alert in alerts[self._alerts_fed :]:
            self.observe_alert(alert)
        self._alerts_fed = len(alerts)
        self.match_labels(workers[0].labels)

    def observe_row(self, row) -> None:
        """Feed one emitted feature row into the PSI detector."""
        self.features.observe(row.features)

    def observe_alert(self, alert) -> None:
        """Feed one scored alert (score + pending prediction)."""
        self.scores.observe(alert.score)
        key = (alert.job_id, alert.node_id)
        if key not in self._consumed:
            self._pending[key] = alert.predicted

    def match_labels(self, labels: dict[tuple[int, int], int]) -> None:
        """Resolve pending predictions against the ground-truth map."""
        if not self._pending:
            return
        matched = [key for key in self._pending if key in labels]
        for key in matched:
            self.f1.observe(self._pending.pop(key), labels[key] > 0)
            self._consumed.add(key)

    def state(self) -> dict[str, float]:
        """Current detector statistics (all 0.0 while warming up)."""
        return {
            "feature_psi": self.features.statistic(),
            "score_psi": self.scores.statistic(),
            "rolling_f1": self.f1.f1() if self.f1.ready else 0.0,
            "f1_decay": self.f1.decay(),
            "labels_observed": float(self.f1.total_observed),
        }

    def drift_reason(self) -> str | None:
        """Name of the first detector over threshold, or ``None``."""
        cfg = self.config
        if self.features.statistic() > cfg.psi_threshold:
            return "feature_psi"
        if self.scores.statistic() > cfg.calibration_threshold:
            return "score_psi"
        if self.f1.decay() > cfg.f1_drop:
            return "f1_decay"
        return None

    def reset_after_swap(self) -> None:
        """Re-baseline every detector for the newly swapped model.

        The PSI references re-freeze on the post-swap stream (the
        distribution the new model was trained for — otherwise an
        already-handled shift re-triggers on every cooldown forever),
        and predictions still pending from the *old* model are dropped:
        their labels resolve after the swap and would otherwise charge
        the old model's mistakes to the new one's probation window.
        """
        cfg = self.config
        self.f1.reset()
        self._pending.clear()
        self.features = WindowedPSI(
            cfg.reference_rows, cfg.window_rows, cfg.bins, cfg.psi_top_k
        )
        self.scores = WindowedPSI(
            cfg.reference_rows, cfg.window_rows, cfg.bins, top_k=1
        )


# ----------------------------------------------------------------------
# Guarded retrain
# ----------------------------------------------------------------------
@dataclass
class HoldoutReport:
    """Outcome of one holdout validation."""

    accepted: bool
    reason: str
    candidate_f1: float = 0.0
    serving_f1: float = 0.0
    holdout_rows: int = 0
    train_rows: int = 0


def positive_f1(predictor: TwoStagePredictor, matrix: FeatureMatrix) -> float:
    """F1 of the SBE class for ``predictor`` on ``matrix``."""
    scores = predictor.decision_scores(matrix)
    predicted = scores >= predictor.model.threshold
    actual = matrix.y.astype(bool)
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2.0 * tp / (2 * tp + fp + fn)


def fit_validated_candidate(
    *,
    model: str,
    rows,
    counts: np.ndarray,
    schema,
    serving: TwoStagePredictor,
    config: DriftConfig,
    random_state: int | None,
    fast: bool,
) -> tuple[TwoStagePredictor | None, HoldoutReport]:
    """Fit a candidate on the head of ``rows`` and judge it on the tail.

    Rows must be in emission (time) order; the holdout is the *newest*
    tail, so the candidate is validated against the regime it will
    actually serve.  Returns ``(candidate, report)`` — candidate is
    ``None`` whenever the report is not accepted.
    """
    from repro.serve.engine import rows_to_matrix

    n = len(rows)
    holdout = max(config.min_holdout, int(round(config.holdout_fraction * n)))
    if n - holdout < config.min_holdout:
        return None, HoldoutReport(
            accepted=False,
            reason=f"too few resolved rows ({n}) for holdout validation",
        )
    train_matrix = rows_to_matrix(
        rows[: n - holdout], schema, sbe_counts=counts[: n - holdout]
    )
    holdout_matrix = rows_to_matrix(
        rows[n - holdout :], schema, sbe_counts=counts[n - holdout :]
    )
    candidate = TwoStagePredictor(model, random_state=random_state, fast=fast)
    try:
        candidate.fit(train_matrix)
    except ValidationError as exc:
        return None, HoldoutReport(
            accepted=False, reason=f"candidate fit failed: {exc}"
        )
    candidate_f1 = positive_f1(candidate, holdout_matrix)
    serving_f1 = positive_f1(serving, holdout_matrix)
    accepted = candidate_f1 >= serving_f1 - config.validation_margin
    reason = (
        "accepted"
        if accepted
        else (
            f"holdout F1 {candidate_f1:.4f} below serving "
            f"{serving_f1:.4f} - margin {config.validation_margin:g}"
        )
    )
    return (candidate if accepted else None), HoldoutReport(
        accepted=accepted,
        reason=reason,
        candidate_f1=candidate_f1,
        serving_f1=serving_f1,
        holdout_rows=holdout,
        train_rows=n - holdout,
    )


@dataclass
class RetrainGovernor:
    """Policy state machine over the drift monitor.

    States: *steady* (watching) → *cooldown* (just retrained) →
    *post-swap watch* (new model under ground-truth probation, rollback
    armed while ``last_good`` is set).  Holds the last-good predictor
    so a rollback needs no registry read; holds **no** registry or
    metrics handles (it pickles into checkpoints).
    """

    config: DriftConfig
    #: Event-time minute of the last governor poll.
    last_check: float | None = None
    #: Event-time minute of the last drift-triggered retrain.
    last_trigger: float | None = None
    #: ``(version, predictor, holdout_f1)`` of the rollback target.
    last_good: tuple | None = None
    #: Validated holdout F1 of the currently serving (swapped) model.
    serving_holdout_f1: float | None = None
    #: Rolling F1 the previous model held at swap time (probation floor).
    pre_swap_rolling_f1: float | None = None
    triggers: list = field(default_factory=list)
    #: ``(minute, version)`` of every published swap under governance.
    swaps: list = field(default_factory=list)
    #: ``(minute, version)`` of every automatic rollback.
    rollback_events: list = field(default_factory=list)
    retrains_drift: int = 0
    retrains_rejected: int = 0
    rollbacks: int = 0

    def should_check(self, now_minute: float) -> bool:
        """Throttle detector polling to ``check_every_minutes``."""
        if self.last_check is None:
            self.last_check = now_minute
            return True
        if now_minute - self.last_check >= self.config.check_every_minutes:
            self.last_check = now_minute
            return True
        return False

    def drift_trigger(self, now_minute: float, monitor: DriftMonitor) -> str | None:
        """A detector over threshold, outside the cooldown window."""
        if (
            self.last_trigger is not None
            and now_minute - self.last_trigger < self.config.cooldown_minutes
        ):
            return None
        reason = monitor.drift_reason()
        if reason is not None:
            self.last_trigger = now_minute
            self.triggers.append((float(now_minute), reason))
        return reason

    def record_swap(
        self,
        *,
        version: int,
        previous_version: int,
        previous_predictor: TwoStagePredictor,
        holdout_f1: float,
        previous_holdout_f1: float | None,
        pre_swap_rolling_f1: float | None = None,
        at_minute: float | None = None,
    ) -> None:
        """A validated candidate went live; arm post-swap probation."""
        self.last_good = (
            int(previous_version),
            previous_predictor,
            previous_holdout_f1,
        )
        self.serving_holdout_f1 = float(holdout_f1)
        self.pre_swap_rolling_f1 = pre_swap_rolling_f1
        if at_minute is not None:
            self.swaps.append((float(at_minute), int(version)))

    def should_rollback(self, monitor: DriftMonitor) -> bool:
        """Post-swap rolling F1 collapsed below the validated mark.

        Two conditions, both required: the new model must fall well
        below its own validated holdout F1, *and* well below the rolling
        F1 the previous model was actually delivering (when known) — a
        30-row holdout is optimistic, and missing an inflated mark alone
        must not un-ship a healthy model.
        """
        if self.last_good is None or self.serving_holdout_f1 is None:
            return False
        if monitor.f1.since_reset < self.config.postswap_min_labels:
            return False
        if not monitor.f1.ready:
            return False
        current = monitor.f1.f1()
        if current >= self.serving_holdout_f1 - self.config.postswap_drop:
            return False
        if self.pre_swap_rolling_f1 is not None:
            return current < self.pre_swap_rolling_f1 - self.config.postswap_margin
        return True

    def record_rollback(
        self, at_minute: float | None = None
    ) -> tuple[int, TwoStagePredictor]:
        """Consume the rollback target (disarms further rollbacks)."""
        version, predictor, previous_f1 = self.last_good
        self.last_good = None
        self.serving_holdout_f1 = previous_f1
        self.pre_swap_rolling_f1 = None
        self.rollbacks += 1
        if at_minute is not None:
            self.rollback_events.append((float(at_minute), int(version)))
        return int(version), predictor


# ----------------------------------------------------------------------
# Observability (lazy registry lookups; nothing here is pickled)
# ----------------------------------------------------------------------
def record_drift_metrics(
    monitor: DriftMonitor,
    *,
    active_version: int | None = None,
    registry: MetricsRegistry | None = None,
    **labels,
) -> None:
    """Publish detector and active-version gauges (default: process registry)."""
    registry = registry or get_registry()
    if not registry.enabled:
        return
    gauge = registry.gauge(
        "repro_serve_drift_statistic",
        "Current drift-detector statistics, by detector.",
    )
    state = monitor.state()
    for detector in ("feature_psi", "score_psi", "f1_decay", "rolling_f1"):
        gauge.set(state[detector], detector=detector, **labels)
    if active_version is not None:
        registry.gauge(
            "repro_serve_active_model_version",
            "Registry version of the model currently serving.",
        ).set(int(active_version), **labels)


def record_retrain_outcome(outcome: str, *, trigger: str = "periodic", **labels) -> None:
    """Count one retrain attempt by outcome and trigger."""
    registry = get_registry()
    if not registry.enabled:
        return
    registry.counter(
        "repro_serve_retrain_total",
        "Retrain attempts, by outcome (published/rejected/failed/skipped) "
        "and trigger (periodic/drift).",
    ).inc(outcome=outcome, trigger=trigger, **labels)


def record_rollback(**labels) -> None:
    """Count one automatic registry rollback."""
    registry = get_registry()
    if not registry.enabled:
        return
    registry.counter(
        "repro_serve_rollback_total",
        "Automatic rollbacks to the last-good registry version.",
    ).inc(**labels)
