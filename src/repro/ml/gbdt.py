"""Gradient-boosted decision trees for binary classification.

The paper's winning model: "a boosting-based model that is essentially an
ensemble of weak models, effective in tackling the variance-bias problem,
but computationally expensive".  Implementation notes:

* logistic (binomial deviance) loss, optimized with second-order
  (Newton-style) tree boosting;
* histogram-quantized features shared across all trees (fit once);
* shrinkage (``learning_rate``), row subsampling per tree, and optional
  class weighting for imbalanced data;
* optional early stopping on a held-out fraction of the training set.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseClassifier, sigmoid
from repro.ml.kernels import FlatForest, flatten_ensemble, predict_raw
from repro.ml.tree import FeatureBinner, GradHessTree, _SplitContext
from repro.utils.rng import child_rng
from repro.utils.validation import check_fraction, check_positive

__all__ = ["GradientBoostingClassifier"]


class GradientBoostingClassifier(BaseClassifier):
    """Binary GBDT with logistic loss.

    Parameters
    ----------
    n_estimators:
        Maximum number of boosting rounds (trees).
    learning_rate:
        Shrinkage applied to each tree's contribution.
    max_depth:
        Depth of each tree.
    min_samples_leaf:
        Minimum samples per leaf.
    subsample:
        Fraction of rows sampled (without replacement) per tree.
    n_bins:
        Number of histogram bins for feature quantization.
    reg_lambda:
        L2 regularization on leaf values.
    class_weight:
        ``None`` or ``"balanced"`` (inverse-frequency sample weights).
    early_stopping_fraction:
        When > 0, that fraction of the training rows is held out and
        boosting stops after ``early_stopping_rounds`` rounds without
        improvement in held-out loss.
    random_state:
        Seed or generator for subsampling and the validation split.
    """

    def __init__(
        self,
        *,
        n_estimators: int = 150,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        min_samples_leaf: int = 20,
        subsample: float = 0.8,
        n_bins: int = 64,
        reg_lambda: float = 1.0,
        class_weight: str | None = "balanced",
        early_stopping_fraction: float = 0.0,
        early_stopping_rounds: int = 20,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.n_estimators = int(check_positive(n_estimators, "n_estimators"))
        self.learning_rate = check_positive(learning_rate, "learning_rate")
        self.max_depth = int(check_positive(max_depth, "max_depth"))
        self.min_samples_leaf = int(check_positive(min_samples_leaf, "min_samples_leaf"))
        self.subsample = check_fraction(subsample, "subsample")
        if self.subsample == 0.0:
            raise ValueError("subsample must be > 0")
        self.n_bins = int(n_bins)
        self.reg_lambda = reg_lambda
        if class_weight not in (None, "balanced"):
            raise ValueError(f"class_weight must be None or 'balanced', got {class_weight!r}")
        self.class_weight = class_weight
        self.early_stopping_fraction = check_fraction(
            early_stopping_fraction, "early_stopping_fraction"
        )
        self.early_stopping_rounds = int(check_positive(early_stopping_rounds, "early_stopping_rounds"))
        self.random_state = random_state
        self._binner: FeatureBinner | None = None
        self._trees: list[GradHessTree] = []
        self._flat: FlatForest | None = None
        self._base_score: float = 0.0
        self.n_estimators_: int = 0

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._flat = None  # invalidate any previous fit's flat cache
        rng = child_rng(self.random_state)
        self._binner = FeatureBinner(self.n_bins)
        binned = self._binner.fit_transform(X)
        n = binned.shape[0]
        sample_weight = self._sample_weights(y)

        val_binned: np.ndarray | None = None
        val_y: np.ndarray | None = None
        if self.early_stopping_fraction > 0.0 and n >= 50:
            order = rng.permutation(n)
            n_val = max(1, int(n * self.early_stopping_fraction))
            val_idx, train_idx = order[:n_val], order[n_val:]
            val_binned, val_y = binned[val_idx], y[val_idx]
            binned, y = binned[train_idx], y[train_idx]
            sample_weight = sample_weight[train_idx]
            n = binned.shape[0]

        # Initial score: weighted log-odds of the positive class.
        pos = float(np.sum(sample_weight * y))
        neg = float(np.sum(sample_weight * (1 - y)))
        self._base_score = float(np.log((pos + 1e-12) / (neg + 1e-12)))
        raw = np.full(n, self._base_score)
        val_raw = (
            np.full(val_binned.shape[0], self._base_score)
            if val_binned is not None
            else None
        )

        # Kept features, flat codes and the bin-code check, once per fit.
        context = _SplitContext(binned, self.n_bins)
        self._trees = []
        best_val_loss = np.inf
        rounds_since_best = 0
        for _ in range(self.n_estimators):
            probs = sigmoid(raw)
            grad = sample_weight * (probs - y)
            hess = sample_weight * probs * (1.0 - probs)
            if self.subsample < 1.0:
                take = max(2 * self.min_samples_leaf, int(n * self.subsample))
                idx = rng.choice(n, size=min(take, n), replace=False)
            else:
                idx = np.arange(n)
            tree = GradHessTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                reg_lambda=self.reg_lambda,
            )
            tree._fit_rows(context.rows(idx), context.weights(grad[idx], hess[idx]))
            update = tree.predict_binned(binned)
            if not np.any(update):
                break  # tree degenerated to a stump with no signal
            raw += self.learning_rate * update
            self._trees.append(tree)

            if val_binned is not None and val_raw is not None and val_y is not None:
                val_raw += self.learning_rate * tree.predict_binned(val_binned)
                val_loss = _log_loss(val_y, sigmoid(val_raw))
                if val_loss < best_val_loss - 1e-7:
                    best_val_loss = val_loss
                    rounds_since_best = 0
                else:
                    rounds_since_best += 1
                    if rounds_since_best >= self.early_stopping_rounds:
                        break
        self.n_estimators_ = len(self._trees)
        # Flatten once here: every subsequent predict call traverses the
        # contiguous ensemble arrays instead of re-walking tree objects.
        self._flat = flatten_ensemble(self._trees)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # The flat cache is derived data; drop it so registry payloads
        # and checkpoints stay lean and format-stable.
        state.pop("_flat", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Rebuild the cache on unpickle (also upgrades pre-kernel
        # payloads that never carried ``_flat``).
        self._flat = flatten_ensemble(self.__dict__.get("_trees", []))

    def _decision_function(self, X: np.ndarray) -> np.ndarray:
        assert self._binner is not None
        binned = self._binner.transform(X)
        if self._flat is None and self._trees:
            # Trees installed without going through _fit/__setstate__
            # (hand-assembled ensembles in tests): flatten once, lazily.
            self._flat = flatten_ensemble(self._trees)
        return predict_raw(
            self._flat,
            binned,
            base_score=self._base_score,
            learning_rate=self.learning_rate,
        )

    def staged_decision_function(self, X: np.ndarray):
        """Yield decision scores after each boosting round (for diagnostics)."""
        self._check_fitted()
        assert self._binner is not None
        binned = self._binner.transform(np.asarray(X, dtype=float))
        raw = np.full(binned.shape[0], self._base_score)
        for tree in self._trees:
            raw = raw + self.learning_rate * tree.predict_binned(binned)
            yield raw.copy()

    def _sample_weights(self, y: np.ndarray) -> np.ndarray:
        if self.class_weight is None:
            return np.ones(y.shape[0])
        counts = np.bincount(y, minlength=2).astype(float)
        weights = y.shape[0] / (2.0 * counts)
        return weights[y]


def _log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())
