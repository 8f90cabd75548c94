"""The benchmark's own tests, at ``tiny`` scale.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import compare  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from measure import END_TO_END, PER_LAYER, SELF_TIME, DigestBook, measure  # noqa: E402

ROOT_SPANS = ("bench.setup", "bench.run")


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def _serve_instance(shards: int):
    serve = workloads.Serve()
    serve.shards = shards
    state = serve.setup(workloads.DEFAULT_SEED)
    clock = workloads.StreamClock()
    with tracing.patched(clock.patches()):
        outcome = serve.run(state, clock)
    return serve, state, outcome


def test_serve_check_rejects_a_perturbed_alert_score():
    serve, state, outcome = _serve_instance(shards=1)
    assert serve.check(state, outcome) == []

    keys, _, scores = serve._oracle(state)
    alerts = list(outcome["alerts"])
    victim = alerts[len(alerts) // 2]
    alerts[len(alerts) // 2] = dataclasses.replace(
        victim, score=float(np.nextafter(victim.score, 2.0))
    )
    sent = len(state["backfill"]) + len(state["live"])
    stats = state["gateway"].stats
    failures = workloads.check_serve_alerts(stats, sent, alerts, keys, scores)
    assert failures == [f"serve: 1 of {len(keys)} alert scores differ from the batch oracle"]
    failures = workloads.check_serve_alerts(stats, sent, alerts + alerts[:1], keys, scores)
    assert "alerted twice" in failures[0]
    failures = workloads.check_serve_alerts(stats, sent, alerts[1:], keys, scores)
    assert "1 live rows without an alert" in failures[0]


@pytest.mark.xfail(
    strict=True,
    reason="a multi-shard gateway computes the per-run alloc_today feature "
    "over each shard's share of the run's nodes, so rows of runs split "
    "across shards score differently from the batch oracle",
)
def test_two_shard_serve_scores_match_the_batch_oracle():
    serve, state, outcome = _serve_instance(shards=2)
    assert serve.check(state, outcome) == []


def test_traced_layer_self_times_partition_the_traced_run(tmp_path):
    train = workloads.Train()
    train.instances = 2
    wrapped = [tracing.resolve(m, a) for m, a, _, _ in tracing.LAYER_CALLS]
    before = [vars(owner).get(attr) for owner, attr in wrapped]

    tracer = tracing.Tracer()
    with tracing.instrument(tracer), tracer.span("bench.setup"):
        state = train.setup(workloads.DEFAULT_SEED)
    with tracing.instrument(tracer), tracer.span("bench.run"):
        outcome = train.run(state, workloads.StreamClock())
        pickle.loads(pickle.dumps(outcome["predictor"]))

    assert [vars(owner).get(attr) for owner, attr in wrapped] == before
    roots = sum(end - start for name, start, end, _ in tracer.spans if name in ROOT_SPANS)
    self_times = tracer.self_times()
    assert set(self_times) <= set(SELF_TIME)
    assert all(0.0 <= seconds <= roots for seconds in self_times.values())
    assert sum(self_times.values()) == pytest.approx(roots, rel=1e-9)
    assert max(self_times, key=self_times.get) == "ml.gbdt_fit"

    book = DigestBook(tmp_path / "digests.json", "test")
    record = measure(train, workloads.DEFAULT_SEED, 0.0, book, traced=True)
    assert record["correct"], record["failures"]
    assert set(record["metrics"]) == set(PER_LAYER)


def test_cpu_bound_metrics_are_reported_in_reference_seconds(tmp_path):
    train = workloads.Train()
    train.instances = 2
    book = DigestBook(tmp_path / "digests.json", "test")
    record = measure(train, workloads.DEFAULT_SEED, 0.0, book)
    assert record["correct"], record["failures"]

    detail = record["detail"]
    for name, metric in record["metrics"].items():
        scaled = name == "setup_s" or name in train.cpu_bound
        assert metric["value"] == detail["reference" if scaled else "raw"][name]
    # One unit per instance at 0 s; each is scaled by the slices around it.
    assert detail["units"] == len(detail["unit_factors"]) == 2
    assert detail["reference"]["run_s"] == pytest.approx(
        sum(times[0] * f for times, f in zip(detail["run_s"], detail["unit_factors"]))
    )
    reference = speed.REFERENCE_SLICE_S
    assert speed.Probe().factor(reference, reference) == 1.0


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [v * 0.7 for v in parent]
    slower = [v * 1.3 for v in parent]
    pairs = list(zip(parent, faster))
    assert compare.verdict(parent, faster, pairs, "lower", 0.1) == ("better", 1.0)
    assert compare.verdict(parent, slower, list(zip(parent, slower)), "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, parent, list(zip(parent, parent)), "lower", 0.1) == ("same", 0.0)
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(parent, noisy, list(zip(parent, noisy)), "lower", 0.1)[0] == "unresolved"
