"""Tests for the basic schemes and the TwoStage predictor."""

import numpy as np
import pytest

from repro.core.baselines import BasicA, BasicB, BasicC, RandomBaseline
from repro.core.twostage import TwoStagePredictor
from repro.features.splits import make_paper_splits
from repro.utils.errors import NotFittedError, ValidationError


@pytest.fixture(scope="module")
def split_features(tiny_features):
    """Train/test features on the tiny trace's first split."""
    from repro.experiments.presets import split_plan

    plan = split_plan("tiny")
    splits = make_paper_splits(
        train_days=plan["train_days"],
        test_days=plan["test_days"],
        offsets_days=tuple(plan["offsets"]),
    )
    starts = tiny_features.meta["start_minute"]
    train = tiny_features.rows(splits[0].train_mask(starts))
    test = tiny_features.rows(splits[0].test_mask(starts))
    return train, test


class TestRandomBaseline:
    def test_half_positive(self, split_features):
        train, test = split_features
        pred = RandomBaseline(random_state=0).fit(train).predict(test)
        assert 0.4 < pred.mean() < 0.6


class TestBasicA:
    def test_predicts_only_offender_nodes(self, split_features):
        train, test = split_features
        scheme = BasicA().fit(train)
        pred = scheme.predict(test)
        offender_nodes = scheme.offender_nodes
        assert offender_nodes
        on_offender = np.isin(test.meta["node_id"], sorted(offender_nodes))
        assert np.array_equal(pred.astype(bool), on_offender)

    def test_high_recall(self, split_features):
        from repro.ml.metrics import recall_score

        train, test = split_features
        pred = BasicA().fit(train).predict(test)
        assert recall_score(test.y, pred) > 0.7

    def test_not_fitted(self, split_features):
        _, test = split_features
        with pytest.raises(NotFittedError):
            BasicA().predict(test)


class TestBasicBC:
    def test_basic_b_covers_more_than_basic_c(self, split_features):
        train, test = split_features
        pred_b = BasicB().fit(train).predict(test)
        pred_c = BasicC().fit(train).predict(test)
        assert pred_b.sum() >= pred_c.sum()

    def test_basic_c_top_fraction_validation(self):
        with pytest.raises(ValidationError):
            BasicC(top_fraction=0.0)
        with pytest.raises(ValidationError):
            BasicC(top_fraction=1.0)

    def test_basic_c_empty_training_errors(self, split_features):
        train, test = split_features
        none_erred = train.rows(train.meta["sbe_count"] == 0)
        scheme = BasicC().fit(none_erred)
        assert scheme.predict(test).sum() == 0


class TestTwoStage:
    def test_stage1_filters(self, split_features):
        train, test = split_features
        predictor = TwoStagePredictor("gbdt", random_state=0, fast=True).fit(train)
        mask = predictor.stage1_pass_mask(test)
        pred = predictor.predict(test)
        # Stage-1 rejected samples are always predicted negative.
        assert pred[~mask].sum() == 0

    def test_offender_nodes_match_training(self, split_features):
        train, _ = split_features
        predictor = TwoStagePredictor("lr", random_state=0, fast=True).fit(train)
        erred = np.unique(train.meta["node_id"][train.meta["sbe_count"] > 0])
        assert np.array_equal(predictor.offender_nodes, erred)

    def test_beats_basic_a_f1(self, split_features):
        from repro.ml.metrics import f1_score

        train, test = split_features
        predictor = TwoStagePredictor("gbdt", random_state=0).fit(train)
        basic = BasicA().fit(train)
        assert f1_score(test.y, predictor.predict(test)) > f1_score(
            test.y, basic.predict(test)
        )

    def test_proba_bounds_and_threshold(self, split_features):
        train, test = split_features
        predictor = TwoStagePredictor("lr", random_state=0, fast=True).fit(train)
        proba = predictor.predict_proba(test)
        assert np.all((proba >= 0) & (proba <= 1))
        assert np.array_equal(predictor.predict(test), (proba >= 0.5).astype(int))

    def test_feature_selection_respected(self, split_features):
        train, _ = split_features
        predictor = TwoStagePredictor(
            "lr", include={"hist"}, random_state=0, fast=True
        ).fit(train)
        assert all(name.startswith("hist_") for name in predictor.feature_names)

    def test_custom_model_instance(self, split_features):
        from repro.ml import LogisticRegression

        train, test = split_features
        predictor = TwoStagePredictor(
            LogisticRegression(epochs=5, class_weight="balanced", random_state=0)
        ).fit(train)
        assert predictor.predict(test).shape == (test.num_samples,)

    def test_no_offenders_raises(self, split_features):
        train, _ = split_features
        clean = train.rows(train.meta["sbe_count"] == 0)
        with pytest.raises(ValidationError):
            TwoStagePredictor("lr", fast=True).fit(clean)

    def test_not_fitted(self, split_features):
        _, test = split_features
        with pytest.raises(NotFittedError):
            TwoStagePredictor("lr").predict(test)

    def test_stage2_class_balance_improves(self, split_features):
        """Stage 1 must dramatically raise the positive fraction (the
        paper: ~50:1 becomes ~2:1)."""
        train, _ = split_features
        predictor = TwoStagePredictor("lr", random_state=0, fast=True).fit(train)
        stage2 = train.rows(np.isin(train.meta["node_id"], predictor.offender_nodes))
        assert stage2.y.mean() > 3 * train.y.mean()

    def test_kernel_stats_reports_flattened_ensemble(self, split_features):
        train, _ = split_features
        predictor = TwoStagePredictor("gbdt", random_state=0, fast=True).fit(train)
        stats = predictor.kernel_stats()
        assert stats["flattened"] is True
        assert stats["n_trees"] > 0
        assert stats["n_nodes"] >= stats["n_trees"]

    def test_kernel_stats_for_unflattened_model(self, split_features):
        train, _ = split_features
        predictor = TwoStagePredictor("lr", random_state=0, fast=True).fit(train)
        assert predictor.kernel_stats() == {
            "flattened": False,
            "n_trees": 0,
            "n_nodes": 0,
        }
