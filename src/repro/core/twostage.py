"""The TwoStage prediction method (paper Fig. 9 and Section VI-C).

Stage 1 asks, per sample, "has this node seen an SBE before?" — evaluated
on the training window.  Samples from never-erred nodes are predicted
SBE-free outright.  Stage 2 runs a machine-learning classifier, trained
*only* on offender-node samples, over the samples that pass stage 1.

The method's three advantages (paper): a much smaller training set, no
noise from error-free nodes, and a repaired class balance (roughly 2:1
instead of ~50:1).  Its known cost, which the paper accepts: SBEs on
previously error-free nodes are always missed, so the model is retrained
periodically.
"""

from __future__ import annotations

import numpy as np

from repro.core.registry import make_model, needs_scaling
from repro.features.builder import FeatureMatrix
from repro.ml.base import BaseClassifier
from repro.ml.preprocessing import StandardScaler
from repro.utils.errors import NotFittedError, ValidationError

__all__ = ["TwoStagePredictor"]


class TwoStagePredictor:
    """Offender-node filter (stage 1) + ML classifier (stage 2).

    Parameters
    ----------
    model:
        A model name from :data:`repro.core.registry.MODEL_NAMES` or an
        already-constructed classifier instance.
    include / exclude:
        Feature-tag selections forwarded to
        :meth:`repro.features.builder.FeatureMatrix.columns`; ``None``
        keeps every feature.  The paper's feature ablations are expressed
        through these.
    scale:
        Standardize features before the stage-2 model.  Defaults to the
        model's registry preference when ``model`` is a name, else True
        for safety.
    random_state:
        Seed for the stage-2 model when built from a name.
    fast:
        Use reduced-capacity models (unit tests).
    """

    def __init__(
        self,
        model: str | BaseClassifier = "gbdt",
        *,
        include: set[str] | None = None,
        exclude: set[str] | None = None,
        scale: bool | None = None,
        random_state: int | np.random.Generator | None = None,
        fast: bool = False,
    ) -> None:
        if isinstance(model, str):
            self.model_name = model
            self._model = make_model(model, random_state=random_state, fast=fast)
            self._scale = needs_scaling(model) if scale is None else scale
        else:
            self.model_name = type(model).__name__
            self._model = model
            self._scale = True if scale is None else scale
        self.include = include
        self.exclude = exclude
        self._scaler: StandardScaler | None = None
        self._offenders: np.ndarray | None = None
        self._feature_names: list[str] | None = None

    # ------------------------------------------------------------------
    @property
    def model(self) -> BaseClassifier:
        """The stage-2 classifier."""
        return self._model

    @property
    def offender_nodes(self) -> np.ndarray:
        """Stage-1 offender node ids learned from the training window."""
        if self._offenders is None:
            raise NotFittedError("TwoStagePredictor is not fitted")
        return self._offenders.copy()

    @property
    def feature_names(self) -> list[str]:
        """Names of the stage-2 input columns."""
        if self._feature_names is None:
            raise NotFittedError("TwoStagePredictor is not fitted")
        return list(self._feature_names)

    # ------------------------------------------------------------------
    def fit(self, features: FeatureMatrix) -> "TwoStagePredictor":
        """Learn stage 1 and train stage 2 on offender-node samples only."""
        erred = features.meta["sbe_count"] > 0
        self._offenders = np.unique(features.meta["node_id"][erred])
        if self._offenders.size == 0:
            raise ValidationError(
                "no offender nodes in the training window; TwoStage cannot train"
            )
        stage2_mask = np.isin(features.meta["node_id"], self._offenders)
        stage2 = features.rows(stage2_mask)
        X, names = stage2.columns(include=self.include, exclude=self.exclude)
        self._feature_names = names
        if self._scale:
            self._scaler = StandardScaler()
            X = self._scaler.fit_transform(X)
        else:
            self._scaler = None
        self._model.fit(X, stage2.y)
        return self

    def predict(self, features: FeatureMatrix) -> np.ndarray:
        """Binary SBE predictions for every sample."""
        proba = self.predict_proba(features)
        return (proba >= self._model.threshold).astype(int)

    def predict_proba(self, features: FeatureMatrix) -> np.ndarray:
        """SBE probability per sample (0 for stage-1 rejected samples)."""
        if self._offenders is None:
            raise NotFittedError("TwoStagePredictor is not fitted")
        passed = np.isin(features.meta["node_id"], self._offenders)
        proba = np.zeros(features.num_samples)
        if passed.any():
            subset = features.rows(passed)
            X, _ = subset.columns(include=self.include, exclude=self.exclude)
            if self._scaler is not None:
                X = self._scaler.transform(X)
            proba[passed] = self._model.predict_proba(X)
        return proba

    def decision_scores(self, features: FeatureMatrix) -> np.ndarray:
        """Ranking scores per sample (stage-1 rejected samples score 0).

        Mirrors :meth:`repro.ml.base.BaseClassifier.decision_scores`: the
        serving layer ranks alerts by this value.
        """
        return self.predict_proba(features)

    def stage1_pass_mask(self, features: FeatureMatrix) -> np.ndarray:
        """Boolean mask of samples forwarded to stage 2."""
        if self._offenders is None:
            raise NotFittedError("TwoStagePredictor is not fitted")
        return np.isin(features.meta["node_id"], self._offenders)

    def kernel_stats(self) -> dict:
        """Scoring-kernel summary for the stage-2 model (observability).

        When stage 2 is a flattened GBDT, reports the flat-forest shape
        the hot path traverses.  Purely informational — never part of
        any digest.
        """
        stats: dict = {"flattened": False, "n_trees": 0, "n_nodes": 0}
        flat = getattr(self._model, "_flat", None)
        if flat is not None:
            stats.update(flattened=True, n_trees=flat.n_trees, n_nodes=flat.n_nodes)
        return stats
