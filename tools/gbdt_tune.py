"""GBDT hyper-parameter probes on DS1 of the ``default`` experiment context.

The trace and features come from the context's content-addressed cache
(``REPRO_CACHE_DIR``), simulated on first use.
"""
import time

from repro.core.twostage import TwoStagePredictor
from repro.experiments.runner import ExperimentContext
from repro.ml import GradientBoostingClassifier
from repro.ml.metrics import precision_recall_f1

train, test = ExperimentContext("default").pipeline.train_test("DS1")

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
    p, r, f1 = precision_recall_f1(test.y, ts.predict(test))
    print(f"{label:15s} F1={f1:.3f} p={p:.3f} r={r:.3f} trees={model.n_estimators_} t={time.time()-t0:.0f}s")
