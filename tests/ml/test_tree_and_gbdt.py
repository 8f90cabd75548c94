"""Tests for histogram trees and gradient boosting."""

import numpy as np
import pytest

from repro.ml.gbdt import GradientBoostingClassifier
from repro.ml.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    FeatureBinner,
    GradHessTree,
)
from repro.utils.errors import NotFittedError, ValidationError


class TestFeatureBinner:
    def test_bins_are_monotone(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 2))
        binner = FeatureBinner(16)
        codes = binner.fit_transform(X)
        assert codes.dtype == np.uint8
        order = np.argsort(X[:, 0])
        assert np.all(np.diff(codes[order, 0].astype(int)) >= 0)

    def test_invalid_bins(self):
        with pytest.raises(ValidationError):
            FeatureBinner(1)
        with pytest.raises(ValidationError):
            FeatureBinner(300)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            FeatureBinner().transform(np.ones((2, 2)))

    def test_transform_column_mismatch(self):
        binner = FeatureBinner(8).fit(np.random.default_rng(0).normal(size=(50, 3)))
        with pytest.raises(ValidationError):
            binner.transform(np.ones((5, 2)))

    def test_constant_column(self):
        X = np.column_stack([np.ones(100), np.arange(100.0)])
        codes = FeatureBinner(8).fit_transform(X)
        assert np.unique(codes[:, 0]).size == 1

    def test_bin_upper_value(self):
        X = np.arange(100, dtype=float).reshape(-1, 1)
        binner = FeatureBinner(4).fit(X)
        assert binner.bin_upper_value(0, 100) == np.inf
        assert binner.bin_upper_value(0, 0) < binner.bin_upper_value(0, 1)


class TestGradHessTree:
    def test_requires_uint8(self):
        tree = GradHessTree()
        with pytest.raises(ValidationError):
            tree.fit(np.zeros((4, 1)), np.zeros(4), np.ones(4), n_bins=8)

    def test_rejects_out_of_range_bin_codes(self):
        """A code >= n_bins would spill into the next feature's histogram."""
        binned = np.zeros((40, 2), dtype=np.uint8)
        binned[:20, 0] = 8
        with pytest.raises(ValidationError, match="out of range"):
            GradHessTree().fit(binned, np.zeros(40), np.ones(40), n_bins=8)
        GradHessTree().fit(binned, np.zeros(40), np.ones(40), n_bins=9)

    def test_rejects_single_bin(self):
        with pytest.raises(ValidationError, match="n_bins"):
            GradHessTree().fit(
                np.zeros((4, 1), dtype=np.uint8), np.zeros(4), np.ones(4), n_bins=1
            )

    def test_rejects_min_samples_leaf_below_one(self):
        """0.5 would truncate to 0, letting an empty side pass the leaf test."""
        with pytest.raises(ValidationError, match="at least 1"):
            GradHessTree(min_samples_leaf=0.5)

    def test_pure_split_recovery(self):
        """A single informative feature should be split on exactly."""
        X = np.linspace(0, 1, 200).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float)
        model = DecisionTreeRegressor(max_depth=2, min_samples_leaf=5)
        model.fit(X, y)
        pred = model.predict(X)
        assert np.abs(pred - y).mean() < 0.05

    def test_not_fitted_predict(self):
        with pytest.raises(NotFittedError):
            GradHessTree().predict_binned(np.zeros((2, 1), dtype=np.uint8))


class TestDecisionTreeRegressor:
    def test_reduces_to_mean_with_depth_limits(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.zeros((4, 1))
        model = DecisionTreeRegressor(max_depth=1, min_samples_leaf=1)
        model.fit(X, y)
        assert model.predict(X) == pytest.approx(np.full(4, y.mean()))

    def test_fits_step_function(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-2, 2, size=(600, 2))
        y = np.where(X[:, 0] > 0, 3.0, -1.0) + rng.normal(0, 0.05, 600)
        model = DecisionTreeRegressor(max_depth=3).fit(X, y)
        pred = model.predict(X)
        assert np.corrcoef(pred, y)[0, 1] > 0.98

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            DecisionTreeRegressor().fit(np.ones((3, 1)), np.ones(4))


class TestDecisionTreeClassifier:
    def test_basic_classification(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(400, 2))
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        model = DecisionTreeClassifier(max_depth=6).fit(X, y)
        assert (model.predict(X) == y).mean() > 0.9

    def test_proba_bounds(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(100, 2))
        y = (X[:, 0] > 0).astype(int)
        model = DecisionTreeClassifier(max_depth=2).fit(X, y)
        proba = model.predict_proba(X)
        assert np.all((proba >= 0) & (proba <= 1))


class TestGradientBoosting:
    def test_improves_with_rounds(self, binary_dataset):
        X, y = binary_dataset
        small = GradientBoostingClassifier(
            n_estimators=5, max_depth=3, random_state=0, subsample=1.0
        ).fit(X, y)
        large = GradientBoostingClassifier(
            n_estimators=80, max_depth=3, random_state=0, subsample=1.0
        ).fit(X, y)
        from repro.ml.metrics import f1_score

        assert f1_score(y, large.predict(X)) >= f1_score(y, small.predict(X))

    def test_early_stopping_limits_trees(self, binary_dataset):
        X, y = binary_dataset
        model = GradientBoostingClassifier(
            n_estimators=300,
            early_stopping_fraction=0.2,
            early_stopping_rounds=5,
            random_state=0,
        ).fit(X, y)
        assert model.n_estimators_ <= 300

    def test_staged_scores_converge_to_final(self, binary_dataset):
        X, y = binary_dataset
        model = GradientBoostingClassifier(
            n_estimators=10, random_state=0, early_stopping_fraction=0.0
        ).fit(X, y)
        stages = list(model.staged_decision_function(X[:20]))
        assert len(stages) == model.n_estimators_
        assert np.allclose(stages[-1], model.decision_function(X[:20]))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier(subsample=0.0)
        with pytest.raises(ValueError):
            GradientBoostingClassifier(class_weight="bogus")

    def test_nonlinear_advantage_over_linear(self, binary_dataset):
        """GBDT must beat LR on an interaction-heavy problem (the paper's
        core modelling claim)."""
        from repro.ml import LogisticRegression, f1_score, train_test_split

        X, y = binary_dataset
        Xtr, Xte, ytr, yte = train_test_split(X, y, test_fraction=0.3, random_state=1)
        gbdt = GradientBoostingClassifier(n_estimators=80, random_state=0).fit(Xtr, ytr)
        lr = LogisticRegression(epochs=60, random_state=0).fit(Xtr, ytr)
        assert f1_score(yte, gbdt.predict(Xte)) > f1_score(yte, lr.predict(Xte))
