"""Span tracing at layer boundaries, installed from outside the program.

The traced run wraps the public entry points of each ``repro`` layer
(``LAYER_CALLS``) for the duration of a ``with instrument(tracer):``
block.  Every wrapped call records one span (name, start, end, parent);
a layer's self time is its spans' durations minus the time covered by
their direct child spans.  Counts that only the call site can see (rows
in, rows out, trees fitted) are added by per-call hooks.

Wrappers sit on classes and module namespaces, never on instances: the
registry pickles predictors, so an instance-level wrapper would end up
inside a saved model.  ``instrument`` restores every attribute on exit,
including when the traced code raises.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1], in start order.
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.spans[index][0]!r} closed out of order "
                f"(innermost open span is {self.spans[popped][0]!r})"
            )

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def self_times(self, root: str | None = None) -> dict[str, float]:
        """Seconds per span name, excluding time covered by child spans.

        With ``root``, only spans under top-level spans of that name count.
        """
        child_time = [0.0] * len(self.spans)
        roots = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
            roots.append(name if parent < 0 else roots[parent])
        totals: dict[str, float] = {}
        for (name, start, end, _), children, top in zip(self.spans, child_time, roots):
            if root is None or top == root:
                totals[name] = totals.get(name, 0.0) + (end - start) - children
        return totals

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def to_json(self) -> list:
        return [
            [name, round(start, 7), round(end, 7), parent]
            for name, start, end, parent in self.spans
        ]


# ------------------------------------------------------------ call hooks
def _count(metric: str, size):
    """A hook adding ``size(result)`` to ``metric``."""
    return lambda tracer, args, kwargs, result: tracer.count(metric, size(result))


def _num_samples(result) -> int:
    return result.num_samples


_SAMPLES = _count("telemetry.samples", _num_samples)
_FEATURE_ROWS = _count("features.rows", _num_samples)
_SCORE_ROWS = _count("twostage.score_rows", len)
_ENGINE_ROWS = _count("engine.rows_emitted", len)


def _count_fit(tracer, args, kwargs, result):
    predictor, features = args[0], args[1]
    passed = np.isin(features.meta["node_id"], predictor.offender_nodes)
    tracer.count("twostage.stage2_rows", int(passed.sum()))
    stats = predictor.kernel_stats()
    tracer.count("ml.trees", stats["n_trees"])
    tracer.count("ml.flat_nodes", stats["n_nodes"])


def _count_save(tracer, args, kwargs, result):
    payload = result.path / result.manifest["payload"]
    tracer.count("registry.payload_bytes", payload.stat().st_size)


#: (module path, attribute path, span name, count hook).  The span name
#: is the layer metric prefix.  Functions imported by name into another
#: module are wrapped in the namespace that calls them.
LAYER_CALLS = (
    ("repro.telemetry.simulator", "simulate_trace", "telemetry.simulate", _SAMPLES),
    ("repro.features.builder", "build_features", "features.build", _FEATURE_ROWS),
    ("repro.gateway.core", "build_features", "features.build", _FEATURE_ROWS),
    ("repro.serve.replay", "build_features", "features.build", _FEATURE_ROWS),
    ("repro.core.twostage", "TwoStagePredictor.fit", "twostage.fit", _count_fit),
    ("repro.core.twostage", "TwoStagePredictor.decision_scores", "twostage.score", _SCORE_ROWS),
    ("repro.ml.gbdt", "GradientBoostingClassifier.fit", "ml.gbdt_fit", None),
    ("repro.gateway.core", "Gateway.ingest", "gateway.ingest", None),
    ("repro.serve.worker", "ScorerWorker.handle_event", "worker.handle", None),
    ("repro.serve.worker", "ScorerWorker.finish", "worker.handle", None),
    ("repro.serve.engine", "StreamingFeatureEngine.process", "engine.process", _ENGINE_ROWS),
    ("repro.serve.scorer", "MicroBatchScorer.submit", "scorer.submit", None),
    ("repro.serve.scorer", "MicroBatchScorer.poll", "scorer.poll", None),
    ("repro.serve.scorer", "MicroBatchScorer.flush", "scorer.flush", None),
    ("repro.serve.resilience", "SupervisedScorer.finalize", "scorer.flush", None),
    ("repro.gateway.alarms", "AlarmEngine.observe", "alarms.observe", None),
    ("repro.serve.registry", "ModelRegistry.save_model", "registry.save", _count_save),
    ("repro.serve.registry", "ModelRegistry.load_model", "registry.load", None),
    ("repro.serve.drift", "DriftMonitor.observe_row", "drift.observe", None),
    ("repro.serve.drift", "DriftMonitor.observe_alert", "drift.observe", None),
    ("repro.serve.drift", "DriftMonitor.match_labels", "drift.observe", None),
    ("repro.serve.replay", "fit_validated_candidate", "drift.retrain", None),
    ("repro.serve.replay", "serve_replay", "replay.serve", None),
)


def _wrap(tracer: Tracer, original, name: str, hook):
    if inspect.iscoroutinefunction(original):

        @functools.wraps(original)
        async def traced_async(*args, **kwargs):
            index = tracer.begin(name)
            try:
                return await original(*args, **kwargs)
            finally:
                tracer.end(index)

        return traced_async

    @functools.wraps(original)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return traced


@contextmanager
def patched(calls):
    """Install ``(owner, attribute, replacement)`` patches; undo on exit.

    ``owner`` is a module or class.  An attribute a class inherits (not
    in its own ``__dict__``) is deleted again on exit, so the class goes
    back to resolving it through its base.
    """
    undo = []
    try:
        for owner, attr, replacement in calls:
            own = attr in vars(owner)
            previous = vars(owner).get(attr)
            setattr(owner, attr, replacement(getattr(owner, attr)))
            undo.append((owner, attr, previous, own))
        yield
    finally:
        for owner, attr, previous, own in reversed(undo):
            if own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)


def resolve(module_path: str, attr_path: str):
    """``(owner, attribute)`` for a dotted attribute inside a module."""
    import importlib

    owner = importlib.import_module(module_path)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def instrument(tracer: Tracer):
    """Trace every call in :data:`LAYER_CALLS` into ``tracer``."""
    calls = []
    for module_path, attr_path, name, hook in LAYER_CALLS:
        owner, attr = resolve(module_path, attr_path)
        calls.append(
            (owner, attr, lambda original, n=name, h=hook: _wrap(tracer, original, n, h))
        )
    with patched(calls):
        yield tracer
