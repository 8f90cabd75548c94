"""Replay-level drift governance: trigger, guarded swap, rollback, resume.

These tests replay the drift experiment's regime-change trace (a tiny
preset extended past a whole-machine maintenance reinstall) through
``serve_replay`` with the drift governor enabled — the full loop the
``drift`` experiment measures, at test scale: detectors fire after the
change, windowed retrains publish through holdout validation, a poisoned
refit is caught by post-swap probation and rolled back, and the whole
drifting replay still survives kill-and-resume bit-identically.
"""

import dataclasses

import pytest

from repro.experiments.drift_experiment import (
    drift_detector_config,
    drift_plan,
    drift_trace_config,
)
from repro.features.splits import DatasetSplit
from repro.serve import serve_replay
from repro.telemetry.simulator import simulate_trace
from repro.utils.errors import SimulatedCrashError
from tests.golden.serving import serving_digest

MINUTES_PER_DAY = 1440.0
WINDOW_DAYS = 8.0


@pytest.fixture(scope="module")
def drift_trace():
    return simulate_trace(drift_trace_config("tiny"))


@pytest.fixture(scope="module")
def drift_split():
    plan = drift_plan("tiny")
    return DatasetSplit(
        "DRIFT",
        0.0,
        plan["train_days"] * MINUTES_PER_DAY,
        plan["duration_days"] * MINUTES_PER_DAY,
    )


def governed_replay(trace, split, root, **kwargs):
    return serve_replay(
        trace,
        root,
        splits=[split],
        split="DRIFT",
        model="gbdt",
        random_state=0,
        fast=True,
        drift=drift_detector_config(),
        retrain_window_days=WINDOW_DAYS,
        **kwargs,
    )


@pytest.fixture(scope="module")
def governed(drift_trace, drift_split, tmp_path_factory):
    return governed_replay(
        drift_trace, drift_split, tmp_path_factory.mktemp("governed")
    )


class TestGovernedReplay:
    def test_detectors_fire_and_guarded_retrains_publish(self, governed):
        assert governed.drift_retrains >= 1
        assert governed.retrains >= governed.drift_retrains
        triggers = governed.drift["triggers"]
        assert triggers, "no drift trigger recorded over a regime change"
        reasons = {reason for _, reason in triggers}
        assert reasons <= {"feature_psi", "score_psi", "f1_decay"}
        change_minute = drift_plan("tiny")["change_day"] * MINUTES_PER_DAY
        assert any(minute >= change_minute for minute, _ in triggers)

    def test_swaps_recorded_with_versions(self, governed):
        swaps = governed.drift["swaps"]
        assert len(swaps) == governed.retrains
        versions = [version for _, version in swaps]
        assert versions == sorted(versions)
        assert all(version >= 2 for version in versions)

    def test_summary_exposes_detector_state(self, governed):
        state = governed.drift["state"]
        assert set(state) >= {
            "feature_psi",
            "score_psi",
            "rolling_f1",
            "f1_decay",
            "labels_observed",
        }
        assert state["labels_observed"] > 0

    def test_digest_covers_the_drift_section(self, governed):
        bumped = dataclasses.replace(
            governed, drift_retrains=governed.drift_retrains + 1
        )
        assert bumped.digest() != governed.digest()

    def test_digest_matches_pin(self, governed):
        assert governed.digest() == serving_digest("replay_governed")

    def test_report_renders_drift_lines(self, governed):
        text = str(governed)
        assert "drift" in text

    def test_governed_replay_is_deterministic(
        self, governed, drift_trace, drift_split, tmp_path_factory
    ):
        again = governed_replay(
            drift_trace, drift_split, tmp_path_factory.mktemp("governed-again")
        )
        assert again.digest() == governed.digest()


class TestPoisonedRetrainRollback:
    @pytest.fixture(scope="class")
    def poisoned(self, drift_trace, drift_split, tmp_path_factory):
        return governed_replay(
            drift_trace,
            drift_split,
            tmp_path_factory.mktemp("poisoned"),
            poison_retrains=(0,),
        )

    def test_poisoned_swap_is_rolled_back_automatically(self, poisoned):
        # The inverted-label candidate validates cleanly against its own
        # poisoned holdout, publishes, then collapses on the real stream:
        # only post-swap probation can catch it.
        assert poisoned.rollbacks >= 1
        assert poisoned.drift["rollbacks"]
        assert any("rolled back" in note for note in poisoned.notes)

    def test_digest_matches_pin(self, poisoned):
        assert poisoned.digest() == serving_digest("replay_poisoned")

    def test_rollback_targets_a_previously_published_version(self, poisoned):
        rollback_versions = {version for _, version in poisoned.drift["rollbacks"]}
        published = {1} | {version for _, version in poisoned.drift["swaps"]}
        assert rollback_versions <= published


class TestDriftResume:
    def test_kill_and_resume_is_bit_identical_with_drift(
        self, governed, drift_trace, drift_split, tmp_path
    ):
        with pytest.raises(SimulatedCrashError):
            governed_replay(
                drift_trace,
                drift_split,
                tmp_path / "reg",
                checkpoint_dir=tmp_path / "ckpt",
                checkpoint_every_events=400,
                crash_after_events=1800,
            )
        resumed = governed_replay(
            drift_trace,
            drift_split,
            tmp_path / "reg",
            checkpoint_dir=tmp_path / "ckpt",
            resume=True,
        )
        assert resumed.resumed_from == 1600
        assert resumed.digest() == governed.digest()
        assert resumed.drift_retrains == governed.drift_retrains
        assert resumed.rollbacks == governed.rollbacks
