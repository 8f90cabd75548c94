"""GBDT hyper-parameter probes on the trace cached by ``tools/end2end.py``."""
import time
from pathlib import Path

from repro.store import SegmentedTraceStore
from repro.features import build_features
from repro.core import PredictionPipeline
from repro.core.twostage import TwoStagePredictor
from repro.ml import GradientBoostingClassifier

CACHE = Path(__file__).resolve().parents[1] / ".cache" / "e2e_trace"
trace = SegmentedTraceStore(CACHE).load_trace()
features = build_features(trace)
pipe = PredictionPipeline(features)
train, test = pipe.train_test("DS1")

for label, params in [
    ("base 200x5", dict(n_estimators=200, max_depth=5)),
    ("300x6", dict(n_estimators=300, max_depth=6)),
    ("400x7 leaf10", dict(n_estimators=400, max_depth=7, min_samples_leaf=10)),
]:
    model = GradientBoostingClassifier(class_weight="balanced",
        early_stopping_fraction=0.1, random_state=0, subsample=0.8, **params)
    ts = TwoStagePredictor(model, scale=False)
    t0 = time.time()
    ts.fit(train)
    from repro.ml.metrics import precision_recall_f1
    p, r, f1 = precision_recall_f1(test.y, ts.predict(test))
    print(f"{label:15s} F1={f1:.3f} p={p:.3f} r={r:.3f} trees={model.n_estimators_} t={time.time()-t0:.0f}s")
