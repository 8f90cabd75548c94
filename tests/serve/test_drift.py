"""Units for the drift detectors and the guarded-retrain governor."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.serve.drift import (
    DriftConfig,
    DriftMonitor,
    RetrainGovernor,
    RollingF1Monitor,
    WindowedPSI,
    fit_validated_candidate,
)
from repro.serve.scorer import Alert
from repro.utils.errors import ValidationError


def alert(job_id, node_id, *, score=0.5, predicted=1):
    return Alert(
        run_idx=job_id,
        job_id=job_id,
        node_id=node_id,
        app_id=0,
        end_minute=10.0 * job_id,
        scored_minute=10.0 * job_id,
        score=score,
        predicted=predicted,
        model_version=1,
    )


class TestWindowedPSI:
    def make(self, rng, *, shift=0.0, n=600):
        psi = WindowedPSI(reference_rows=300, window_rows=300, bins=10, top_k=3)
        for _ in range(300):
            psi.observe(rng.normal(size=4))
        for _ in range(n):
            psi.observe(rng.normal(size=4) + shift)
        return psi

    def test_not_ready_until_reference_and_half_window(self):
        psi = WindowedPSI(reference_rows=10, window_rows=10, bins=5, top_k=1)
        rng = np.random.default_rng(0)
        for _ in range(10):
            psi.observe(rng.normal(size=3))
        assert not psi.ready  # reference frozen, window still empty
        assert psi.statistic() == 0.0
        for _ in range(5):
            psi.observe(rng.normal(size=3))
        assert psi.ready

    def test_same_distribution_stays_under_default_threshold(self):
        psi = self.make(np.random.default_rng(1))
        assert psi.statistic() < DriftConfig().psi_threshold

    def test_shifted_distribution_scores_high(self):
        psi = self.make(np.random.default_rng(1), shift=2.0)
        assert psi.statistic() > 1.0

    def test_scalar_observations_work(self):
        psi = WindowedPSI(reference_rows=50, window_rows=50, bins=10, top_k=1)
        rng = np.random.default_rng(2)
        for _ in range(50):
            psi.observe(float(rng.normal()))
        for _ in range(50):
            psi.observe(float(rng.normal() + 3.0))
        assert psi.statistic() > 0.5

    def test_statistic_is_cached_by_version(self):
        psi = self.make(np.random.default_rng(3))
        assert psi.statistic() == psi.statistic()


class TestRollingF1Monitor:
    def test_f1_over_window(self):
        monitor = RollingF1Monitor(window=10, min_labels=4)
        for predicted, actual in [(1, 1), (1, 1), (1, 0), (0, 1)]:
            monitor.observe(predicted, actual)
        assert monitor.ready
        # tp=2 fp=1 fn=1 -> F1 = 4/6
        assert monitor.f1() == pytest.approx(2 / 3)

    def test_decay_tracks_best_since_reset(self):
        monitor = RollingF1Monitor(window=4, min_labels=2)
        for _ in range(4):
            monitor.observe(1, 1)
        assert monitor.f1() == 1.0 and monitor.decay() == 0.0
        for _ in range(4):
            monitor.observe(1, 0)
        assert monitor.f1() == 0.0
        assert monitor.decay() == 1.0
        monitor.reset()
        assert monitor.since_reset == 0
        assert not monitor.ready
        assert monitor.decay() == 0.0


class TestDriftMonitor:
    def cfg(self, **kw):
        base = dict(
            reference_rows=8,
            window_rows=8,
            bins=4,
            f1_window=8,
            min_labels=2,
        )
        base.update(kw)
        return DriftConfig(**base)

    def test_labels_resolve_pending_predictions_once(self):
        monitor = DriftMonitor(self.cfg())
        monitor.observe_alert(alert(1, 10, predicted=1))
        monitor.observe_alert(alert(2, 11, predicted=0))
        monitor.match_labels({(1, 10): 1})
        assert monitor.f1.total_observed == 1
        # Re-offering the same resolved key must not double count.
        monitor.observe_alert(alert(1, 10, predicted=1))
        monitor.match_labels({(1, 10): 1, (2, 11): 0})
        assert monitor.f1.total_observed == 2

    def test_state_and_f1_decay_reason(self):
        monitor = DriftMonitor(self.cfg(f1_drop=0.3))
        for i in range(4):
            monitor.observe_alert(alert(i, i, predicted=1))
        monitor.match_labels({(i, i): 1 for i in range(4)})
        assert monitor.drift_reason() is None
        for i in range(4, 12):
            monitor.observe_alert(alert(i, i, predicted=1))
        monitor.match_labels({(i, i): 0 for i in range(4, 12)})
        state = monitor.state()
        assert state["f1_decay"] > 0.3
        assert monitor.drift_reason() == "f1_decay"

    def test_reset_after_swap_rebaselines_everything(self):
        monitor = DriftMonitor(self.cfg())
        rng = np.random.default_rng(0)
        for i in range(16):
            monitor.scores.observe(float(rng.normal()))
            monitor.observe_alert(alert(i, i, predicted=1))
        monitor.match_labels({(i, i): 1 for i in range(8)})
        assert monitor.f1.total_observed == 8
        monitor.reset_after_swap()
        assert not monitor.features.ready
        assert not monitor.scores.ready
        assert monitor.f1.since_reset == 0
        # Old-model predictions still pending at swap time are dropped:
        # their labels must not charge the new model's probation window.
        monitor.match_labels({(i, i): 0 for i in range(8, 16)})
        assert monitor.f1.since_reset == 0

    def test_feed_takes_rows_ending_in_window_and_only_new_items(self):
        def row(start, end):
            return SimpleNamespace(
                start_minute=start, end_minute=end, features=np.zeros(3)
            )

        seen = []
        monitor = DriftMonitor(self.cfg())
        monitor.observe_row = seen.append
        shards = [
            SimpleNamespace(
                history_rows=[row(50.0, 90.0), row(80.0, 120.0)],
                window=(100.0, 200.0),
                labels={(1, 10): 1},
            ),
            SimpleNamespace(history_rows=[row(150.0, 160.0)], window=None, labels={}),
        ]
        alerts = [alert(1, 10, predicted=1)]
        monitor.feed(shards, alerts)
        # A row that starts before serving but ends inside the window
        # feeds the feature PSI; one that ended before it does not.
        assert [r.end_minute for r in seen] == [120.0, 160.0]
        assert monitor.f1.total_observed == 1  # shard 0's labels
        shards[1].history_rows.append(row(170.0, 180.0))
        alerts.append(alert(2, 11))
        monitor.feed(shards, alerts)
        assert [r.end_minute for r in seen] == [120.0, 160.0, 180.0]
        assert len(monitor.scores._pending) == 2  # each alert scored once


class TestRetrainGovernor:
    def cfg(self, **kw):
        base = dict(
            reference_rows=8,
            window_rows=8,
            f1_window=8,
            min_labels=2,
            check_every_minutes=60.0,
            cooldown_minutes=120.0,
            postswap_min_labels=4,
            postswap_drop=0.25,
            postswap_margin=0.10,
        )
        base.update(kw)
        return DriftConfig(**base)

    def test_should_check_throttles(self):
        governor = RetrainGovernor(self.cfg())
        assert governor.should_check(0.0)
        assert not governor.should_check(30.0)
        assert governor.should_check(60.0)

    def test_drift_trigger_respects_cooldown(self):
        cfg = self.cfg(f1_drop=0.3)
        governor = RetrainGovernor(cfg)
        monitor = DriftMonitor(cfg)
        for i in range(4):
            monitor.observe_alert(alert(i, i, predicted=1))
        monitor.match_labels({(i, i): 1 for i in range(4)})
        for i in range(4, 12):
            monitor.observe_alert(alert(i, i, predicted=1))
        monitor.match_labels({(i, i): 0 for i in range(4, 12)})
        assert governor.drift_trigger(100.0, monitor) == "f1_decay"
        assert governor.triggers == [(100.0, "f1_decay")]
        assert governor.drift_trigger(150.0, monitor) is None  # cooling down
        assert governor.drift_trigger(220.0, monitor) == "f1_decay"

    def arm(self, governor, monitor, *, holdout_f1=0.8, pre_swap=0.7):
        governor.record_swap(
            version=2,
            previous_version=1,
            previous_predictor=object(),
            holdout_f1=holdout_f1,
            previous_holdout_f1=0.75,
            pre_swap_rolling_f1=pre_swap,
            at_minute=500.0,
        )
        assert governor.swaps == [(500.0, 2)]

    def feed(self, monitor, pairs):
        # Unique (job, node) keys per call: the monitor never re-resolves
        # a consumed key, so repeated feeds must not collide.
        base = 1000 + monitor.f1.total_observed
        for i, (p, a) in enumerate(pairs):
            monitor.observe_alert(alert(base + i, base + i, predicted=p))
        monitor.match_labels(
            {(base + i, base + i): a for i, (_, a) in enumerate(pairs)}
        )

    def test_rollback_requires_collapse_below_both_marks(self):
        cfg = self.cfg()
        governor = RetrainGovernor(cfg)
        monitor = DriftMonitor(cfg)
        self.arm(governor, monitor)
        assert not governor.should_rollback(monitor)  # no labels yet
        # Healthy post-swap stream: F1 ~ 0.8 stays above both marks.
        self.feed(monitor, [(1, 1)] * 8)
        assert not governor.should_rollback(monitor)
        # Collapse: all-wrong predictions fall below holdout - drop AND
        # below the previous model's rolling F1 - margin.
        self.feed(monitor, [(1, 0)] * 8)
        assert governor.should_rollback(monitor)

    def test_merely_missing_inflated_holdout_does_not_rollback(self):
        cfg = self.cfg()
        governor = RetrainGovernor(cfg)
        monitor = DriftMonitor(cfg)
        # Holdout said 1.0 (tiny optimistic sample); the old model was
        # actually rolling at 0.55.  A new model delivering ~0.6 misses
        # holdout - drop but beats the old model: keep it.
        self.arm(governor, monitor, holdout_f1=1.0, pre_swap=0.55)
        self.feed(monitor, [(1, 1), (1, 0)] * 6)  # rolling F1 = 2/3
        assert monitor.f1.f1() < 1.0 - cfg.postswap_drop
        assert not governor.should_rollback(monitor)

    def test_record_rollback_restores_and_disarms(self):
        cfg = self.cfg()
        governor = RetrainGovernor(cfg)
        monitor = DriftMonitor(cfg)
        self.arm(governor, monitor)
        self.feed(monitor, [(1, 0)] * 8)
        assert governor.should_rollback(monitor)
        version, predictor = governor.record_rollback(800.0)
        assert version == 1 and predictor is not None
        assert governor.rollbacks == 1
        assert governor.rollback_events == [(800.0, 1)]
        assert governor.serving_holdout_f1 == 0.75
        assert governor.last_good is None
        assert not governor.should_rollback(monitor)  # disarmed


class TestFitValidatedCandidate:
    def test_too_few_rows_is_rejected_not_raised(self):
        candidate, report = fit_validated_candidate(
            model="lr",
            rows=[],
            counts=np.array([]),
            schema=None,
            serving=None,
            config=DriftConfig(min_holdout=10),
            random_state=0,
            fast=True,
        )
        assert candidate is None
        assert not report.accepted
        assert "too few resolved rows" in report.reason


class TestConfigValidation:
    def test_holdout_fraction_bounds(self):
        with pytest.raises(ValidationError):
            DriftConfig(holdout_fraction=1.0)
        with pytest.raises(ValidationError):
            DriftConfig(reference_rows=0)
