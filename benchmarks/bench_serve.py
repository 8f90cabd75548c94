"""Benchmark the online serving path: scoring throughput and full replays.

Streams the benchmark trace through the feature engine once (shared
fixture), then asks three questions:

1. **Scoring throughput** — rows/sec of pure micro-batch scoring (queue +
   feature assembly + TwoStage prediction) at several batch sizes, the
   serving subsystem's headline number.
2. **Supervision overhead** — the supervised scorer with no chaos plan
   must cost roughly nothing over the raw scorer (the clean path runs
   the same vectorized prediction; the retry/breaker/DLQ machinery is
   dormant).
3. **Replay** — the full event-driven replay, clean and under the
   moderate chaos plan (retries, fallback scoring, dead-letter replay,
   and hot-swap verification loads).
"""

import numpy as np
import pytest

from repro.core.twostage import TwoStagePredictor
from repro.features.builder import compute_top_apps
from repro.serve import (
    ChaosPlan,
    MicroBatchScorer,
    ScorerConfig,
    StreamingFeatureEngine,
    SupervisedScorer,
    iter_trace_events,
    serve_replay,
)

from conftest import run_once

BATCH_SIZES = (32, 128, 512, 2048)


@pytest.fixture(scope="module")
def serving(context):
    """Fitted fast predictor + streamed rows of the benchmark trace."""
    train, _ = context.pipeline.train_test("DS1")
    predictor = TwoStagePredictor("gbdt", random_state=0, fast=True)
    predictor.fit(train)
    trace = context.trace
    engine = StreamingFeatureEngine(
        trace.machine,
        compute_top_apps(np.asarray(trace.samples["app_id"], dtype=int), 16),
    )
    rows = list(engine.stream(iter_trace_events(trace)))
    return predictor, engine.schema, rows


def score_all(benchmark, serving, scorer_cls, batch_size):
    """Time one scorer over every streamed row; returns its counters."""
    predictor, schema, rows = serving

    def run():
        scorer = scorer_cls(
            predictor, schema, ScorerConfig(max_batch_size=batch_size)
        )
        scorer.submit(rows, now_minute=0.0)
        scorer.flush()
        return scorer.counters

    counters = run_once(benchmark, run)
    assert counters.rows_scored == len(rows)
    return counters


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_scoring_throughput(benchmark, serving, batch_size):
    """Rows/sec through the micro-batch scorer at one batch size."""
    counters = score_all(benchmark, serving, MicroBatchScorer, batch_size)
    print()
    print(
        f"batch={batch_size:5d}: {counters.rows_per_second:12,.0f} rows/s "
        f"scoring, {counters.batches} batches, "
        f"{counters.rows_scored} rows"
    )
    assert counters.rows_per_second > 0


@pytest.mark.parametrize("supervised", [False, True], ids=["raw", "supervised"])
def test_supervision_overhead(benchmark, serving, supervised):
    """Clean-path rows/sec: supervised (no chaos) vs raw scorer."""
    cls = SupervisedScorer if supervised else MicroBatchScorer
    counters = score_all(benchmark, serving, cls, 256)
    print()
    print(
        f"{'supervised' if supervised else 'raw       '}: "
        f"{counters.rows_per_second:12,.0f} rows/s scoring, "
        f"{counters.batches} batches"
    )


@pytest.mark.parametrize(
    "chaos", [None, ChaosPlan(intensity=0.25, seed=7)], ids=["clean", "chaos"]
)
def test_serve_replay(benchmark, context, tmp_path, chaos):
    """The full online replay: events -> features -> registry -> alerts."""
    report = run_once(
        benchmark,
        lambda: serve_replay(
            context.trace,
            tmp_path / "registry",
            splits=context.preset_splits(),
            batch_size=256,
            fast=True,
            chaos=chaos,
        ),
    )
    print()
    print(report)
    if chaos is None:
        assert report.agreement == 1.0
        return
    r = report.resilience
    print(
        f"chaos overhead: {r.retries} retries, "
        f"{r.replayed_rows} rows via dead-letter replay, "
        f"{r.simulated_stall_seconds:.0f}s simulated stalls (not slept)"
    )
    assert r.availability >= 0.99
    assert len(report.alerts) == report.rows_test
