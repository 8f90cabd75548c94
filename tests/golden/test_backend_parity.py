"""Golden guard: ensemble flattening changes no pinned digest.

Two scoring paths must agree on the canonical evaluation, byte for byte:

1. the legacy per-tree scoring loop (:func:`_pertree_decision_function`,
   defined here as the reference oracle), and
2. the flattened numpy kernel (the default path).

Both are pinned against the committed golden ``predict`` digest, so a
kernel change that perturbs even one score bit fails here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.features.builder import build_features
from repro.ml.gbdt import GradientBoostingClassifier
from repro.telemetry.simulator import TraceSimulator

from tests.golden.canonical import (
    GOLDEN_SEEDS,
    canonical_config,
    evaluate_canonical,
    metrics_digest,
)
from tests.golden.test_golden_digests import load_goldens


def _pertree_decision_function(gb: GradientBoostingClassifier, X: np.ndarray):
    """The pre-kernel scoring loop: one ``predict_binned`` per tree."""
    binned = gb._binner.transform(X)
    raw = np.full(binned.shape[0], gb._base_score)
    for tree in gb._trees:
        raw += gb.learning_rate * tree.predict_binned(binned)
    return raw


@lru_cache(maxsize=None)
def _canonical_features():
    """Trace + features for the first golden seed (built once)."""
    config = canonical_config(GOLDEN_SEEDS[0])
    trace = TraceSimulator(config).run()
    return build_features(trace), config.duration_days


def _pinned_predict_digest() -> str:
    return load_goldens()[str(GOLDEN_SEEDS[0])]["predict"]


def test_flat_kernel_hits_pinned_predict_digest():
    features, duration_days = _canonical_features()
    result = evaluate_canonical(features, duration_days)
    assert metrics_digest(result) == _pinned_predict_digest()


def test_pertree_oracle_hits_pinned_predict_digest(monkeypatch):
    """The pre-flattening scoring loop still reproduces the golden."""
    features, duration_days = _canonical_features()
    monkeypatch.setattr(
        GradientBoostingClassifier,
        "_decision_function",
        _pertree_decision_function,
    )
    result = evaluate_canonical(features, duration_days)
    assert metrics_digest(result) == _pinned_predict_digest()


def test_flat_scores_equal_pertree_scores_on_canonical_model():
    """Score-level bit identity on the canonical fitted model itself."""
    features, duration_days = _canonical_features()
    # Reuse the canonical split windows: train on the first 5 days.
    from repro.core.pipeline import PredictionPipeline
    from repro.features.splits import make_paper_splits

    splits = make_paper_splits(
        train_days=5.0,
        test_days=2.0,
        offsets_days=(0.0,),
        duration_days=duration_days,
    )
    pipeline = PredictionPipeline(features, splits)
    train, test = pipeline.train_test("DS1")
    gb = GradientBoostingClassifier(random_state=0)
    gb.fit(train.X, train.y)
    flat = gb.decision_function(test.X)
    assert np.array_equal(flat, _pertree_decision_function(gb, test.X))
