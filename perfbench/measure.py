"""One benchmark run: set up, time, check and summarise a workload.

``measure(workload, seed, seconds, book, traced=False)`` returns the
run's result record; ``book`` holds the output digests earlier runs of
the same source tree produced.  Untraced runs report the end-to-end metrics
(:data:`END_TO_END`); traced runs report the per-layer metrics
(:data:`PER_LAYER`).  Both run every correctness check.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from speed import Probe
from tracing import Tracer, instrument, patched
from workloads import StreamClock, f1_score, instance_seeds

#: name -> unit.  Must match BENCHMARK.json (checked by the tests).
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "events_per_s": "1/s",
    "alert_p50_ms": "ms",
    "f1": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "telemetry.simulate_s": "s",
    "telemetry.samples": "count",
    "features.build_s": "s",
    "features.rows": "count",
    "twostage.fit_s": "s",
    "twostage.fit_calls": "count",
    "twostage.stage2_rows": "count",
    "ml.gbdt_fit_s": "s",
    "ml.trees": "count",
    "ml.flat_nodes": "count",
    "twostage.score_s": "s",
    "twostage.score_calls": "count",
    "twostage.rows_per_score_call": "rows",
    "gateway.ingest_s": "s",
    "gateway.ingest_calls": "count",
    "gateway.deliveries_per_event": "ratio",
    "gateway.queue_wait_ms_p50": "ms",
    "gateway.queue_wait_ms_p99": "ms",
    "worker.handle_s": "s",
    "worker.events": "count",
    "engine.process_s": "s",
    "engine.events": "count",
    "engine.rows_emitted": "count",
    "scorer.submit_s": "s",
    "scorer.poll_s": "s",
    "scorer.flush_s": "s",
    "scorer.batches": "count",
    "scorer.size_flushes": "count",
    "scorer.deadline_flushes": "count",
    "scorer.rows_per_batch": "rows",
    "scorer.queue_minutes_mean": "min",
    "scorer.first_pass_fraction": "ratio",
    "scorer.fallback_rows": "count",
    "scorer.dead_letters": "count",
    "alarms.observe_s": "s",
    "alarms.raised": "count",
    "alarms.deduplicated": "count",
    "registry.save_s": "s",
    "registry.load_s": "s",
    "registry.saves": "count",
    "registry.payload_bytes": "bytes",
    "drift.observe_s": "s",
    "drift.retrain_s": "s",
    "drift.retrains_attempted": "count",
    "drift.retrains_published": "count",
    "drift.publish_ratio": "ratio",
    "drift.rollbacks": "count",
    "replay.self_s": "s",
    "bench.self_s": "s",
    "loadgen.idle_s": "s",
    "loadgen.late_ms_max": "ms",
    "trace.overhead_share": "ratio",
}

#: Span name -> per-layer self-time metric.
SELF_TIME = {
    "telemetry.simulate": "telemetry.simulate_s",
    "features.build": "features.build_s",
    "twostage.fit": "twostage.fit_s",
    "ml.gbdt_fit": "ml.gbdt_fit_s",
    "twostage.score": "twostage.score_s",
    "gateway.ingest": "gateway.ingest_s",
    "worker.handle": "worker.handle_s",
    "engine.process": "engine.process_s",
    "scorer.submit": "scorer.submit_s",
    "scorer.poll": "scorer.poll_s",
    "scorer.flush": "scorer.flush_s",
    "alarms.observe": "alarms.observe_s",
    "registry.save": "registry.save_s",
    "registry.load": "registry.load_s",
    "drift.observe": "drift.observe_s",
    "drift.retrain": "drift.retrain_s",
    "replay.serve": "replay.self_s",
    "bench.setup": "bench.self_s",
    "bench.run": "bench.self_s",
    "loadgen.idle": "loadgen.idle_s",
}


class DigestBook:
    """Output digests by (source tree, workload, instance seed).

    Lives in the checkout's build directory, so repeated runs of one
    source tree must reproduce every digest they share.
    """

    def __init__(self, path: Path, source_id: str) -> None:
        self.path = path
        self.source_id = source_id
        self.book = json.loads(path.read_text()) if path.exists() else {}

    def check(self, workload: str, seed: int, digest: str) -> bool:
        key = f"{self.source_id}:{workload}:{seed}"
        known = self.book.setdefault(key, digest)
        return known == digest

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.book, indent=0, sort_keys=True))
        os.replace(tmp, self.path)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_once(workload, state, failures, digests, book, tracer=None):
    """One timed phase plus its checks; returns ``(outcome, clock)``."""
    clock = StreamClock(tracer)
    with patched(clock.patches()):
        if tracer is None:
            outcome = workload.run(state, clock)
        else:
            with instrument(tracer), tracer.span("bench.run"):
                outcome = workload.run(state, clock)
    if hasattr(workload, "after_run"):
        workload.after_run(state, outcome)
    failures.extend(workload.check(state, outcome))
    if hasattr(workload, "digest"):
        digest = workload.digest(outcome)
        previous = digests.setdefault(state["seed"], digest)
        if previous != digest or not book.check(workload.name, state["seed"], digest):
            failures.append(
                f"{workload.name}: output digest for seed {state['seed']} changed "
                "between runs of the same source tree"
            )
    return outcome, clock


def _quality(workload, pairs) -> float:
    tp = fp = fn = 0
    for state, outcome in pairs:
        a, b, c = workload.quality(state, outcome)
        tp, fp, fn = tp + a, fp + b, fn + c
    return f1_score(tp, fp, fn)


def _accounting(workload, pairs) -> tuple[int, int]:
    attempted = failed = 0
    for state, outcome in pairs:
        a, f = workload.accounting(state, outcome)
        attempted, failed = attempted + a, failed + f
    return attempted, failed


def measure(workload, seed: int, seconds: float, book: DigestBook, traced: bool = False) -> dict:
    count = workload.instances if not traced else max(1, workload.instances // 2)
    seeds = instance_seeds(seed, count)
    failures: list[str] = []
    digests: dict[int, str] = {}
    if traced:
        result = _measure_traced(workload, seeds, failures, digests, book)
    else:
        result = _measure_untraced(workload, seeds, seconds, failures, digests, book)
    book.save()
    result.update(
        workload=workload.name,
        seed=seed,
        instance_seeds=seeds,
        traced=traced,
        correct=not failures,
        failures=failures,
    )
    return result


def _measure_untraced(workload, seeds, seconds, failures, digests, book) -> dict:
    probe = Probe()
    setups, setups_ref, states = [], [], []
    before = probe.slice()
    for seed in seeds:
        started = time.perf_counter()
        states.append(workload.setup(seed))
        setups.append(time.perf_counter() - started)
        after = probe.slice()
        setups_ref.append(setups[-1] * probe.factor(before, after))
        before = after

    if workload.repeatable:
        # Untimed warm-up: a fresh process runs its first pass measurably
        # slower (allocator growth, first-call costs).
        _run_once(workload, states[0], failures, digests, book)
        before = probe.slice()
    # Per instance: (raw, reference) values of every timed unit.
    run_s = [([], []) for _ in states]
    closed_s = [([], []) for _ in states]
    latencies = [([], []) for _ in states]
    last: list = [None] * len(states)
    factors = []
    units = 0
    deadline = time.perf_counter() + seconds
    while True:
        # One instance per step, round robin, so the run ends within one
        # instance of the deadline however long a whole pass takes.
        i = units % len(states)
        gc.collect()
        outcome, _ = _run_once(workload, states[i], failures, digests, book)
        after = probe.slice()
        factor = probe.factor(before, after)
        before = after
        factors.append(factor)
        for series, value in ((run_s, outcome["run_s"]), (closed_s, outcome["closed_loop_s"])):
            series[i][0].append(value)
            series[i][1].append(value * factor)
        latencies[i][0].extend(outcome["latencies_ms"])
        latencies[i][1].extend(value * factor for value in outcome["latencies_ms"])
        last[i] = outcome
        units += 1
        if units < len(states):
            continue
        if not workload.repeatable or time.perf_counter() >= deadline:
            break

    pairs = list(zip(states, last))
    attempted, failed = _accounting(workload, pairs)
    items = sum(outcome["items"] for outcome in last)
    f1, rss = _quality(workload, pairs), peak_rss_mb()

    def summarise(k: int) -> dict:
        return {
            "setup_s": median((setups, setups_ref)[k]),
            "run_s": sum(median(times[k]) for times in run_s),
            "events_per_s": items / sum(median(times[k]) for times in closed_s),
            "alert_p50_ms": percentile([v for values in latencies for v in values[k]], 50),
            "f1": f1,
            "peak_rss_mb": rss,
        }

    raw, ref = summarise(0), summarise(1)
    # Set-up and the workload's CPU-bound metrics in reference seconds
    # (speed.py); the rest as timed.
    metrics = {
        name: ref[name] if name == "setup_s" or name in workload.cpu_bound else raw[name]
        for name in END_TO_END
    }
    pooled = [v for values in latencies for v in values[0]]
    return {
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()
        },
        "attempted": attempted,
        "failed": failed,
        "detail": {
            "raw": raw,
            "reference": ref,
            "units": units,
            "unit_factors": factors,
            "setup_s": setups,
            "setup_factors": [r / s for r, s in zip(setups_ref, setups)],
            "run_s": [times[0] for times in run_s],
            "alert_samples": len(pooled),
            "alert_p99_ms": percentile(pooled, 99),
            "instance_alert_p99_ms": [percentile(values[0], 99) for values in latencies],
        },
    }


def _measure_traced(workload, seeds, failures, digests, book) -> dict:
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    pairs = []
    clocks = []
    for seed in seeds:
        with instrument(tracer), tracer.span("bench.setup"):
            state = workload.setup(seed)
        outcome, _ = _run_once(workload, workload.fresh(state), failures, digests, book)
        untraced_s += outcome["closed_loop_s"]
        outcome, clock = _run_once(workload, state, failures, digests, book, tracer)
        traced_s += outcome["closed_loop_s"]
        pairs.append((state, outcome))
        clocks.append(clock)
    attempted, failed = _accounting(workload, pairs)
    metrics = layer_metrics(tracer, pairs, clocks)
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1.0
    return {
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()
        },
        "attempted": attempted,
        "failed": failed,
        "layer_split": {
            phase: tracer.self_times(root=f"bench.{phase}") for phase in ("setup", "run")
        },
        "spans": tracer.to_json(),
    }


def layer_metrics(tracer: Tracer, pairs, clocks) -> dict:
    metrics = {name: 0.0 for name in PER_LAYER}
    for span, seconds in tracer.self_times().items():
        metrics[SELF_TIME[span]] += seconds
    calls = tracer.calls()
    metrics.update(
        {name: float(value) for name, value in tracer.counts.items() if name in PER_LAYER}
    )
    metrics["twostage.fit_calls"] = calls.get("twostage.fit", 0)
    metrics["twostage.score_calls"] = calls.get("twostage.score", 0)
    if metrics["twostage.score_calls"]:
        metrics["twostage.rows_per_score_call"] = (
            tracer.counts.get("twostage.score_rows", 0) / metrics["twostage.score_calls"]
        )
    metrics["gateway.ingest_calls"] = calls.get("gateway.ingest", 0)
    metrics["worker.events"] = calls.get("worker.handle", 0)
    metrics["engine.events"] = calls.get("engine.process", 0)
    metrics["registry.saves"] = calls.get("registry.save", 0)

    waits = [w * 1e3 for clock in clocks for w in clock.queue_waits]
    if waits:
        metrics["gateway.queue_wait_ms_p50"] = percentile(waits, 50)
        metrics["gateway.queue_wait_ms_p99"] = percentile(waits, 99)
    metrics["loadgen.late_ms_max"] = max(outcome.get("late_ms_max", 0.0) for _, outcome in pairs)

    counters, resilience, dead_letters = [], [], 0
    events_in = deliveries = 0
    attempted = published = rollbacks = 0
    for state, outcome in pairs:
        gateway = state.get("gateway")
        if gateway is not None:
            events_in += gateway.stats.events_in
            deliveries += gateway.stats.deliveries
            metrics["alarms.raised"] += len(gateway.alarm_engine.alarms)
            metrics["alarms.deduplicated"] += gateway.alarm_engine.deduplicated
            for worker in gateway.workers:
                counters.append(worker.scorer.counters)
                resilience.append(worker.scorer.resilience)
                dead_letters += len(worker.scorer.dlq)
        report = outcome.get("report")
        if report is not None:
            counters.append(report.counters)
            resilience.append(report.resilience)
            dead_letters += len(report.dead_letters)
            retrains = outcome["retrain_outcomes"]
            attempted += sum(retrains.values())
            published += retrains.get("published", 0)
            rollbacks += report.rollbacks
    if events_in:
        metrics["gateway.deliveries_per_event"] = deliveries / events_in
    rows = sum(c.rows_scored for c in counters)
    batches = sum(c.batches for c in counters)
    metrics["scorer.batches"] = batches
    metrics["scorer.size_flushes"] = sum(c.size_flushes for c in counters)
    metrics["scorer.deadline_flushes"] = sum(c.deadline_flushes for c in counters)
    if batches:
        metrics["scorer.rows_per_batch"] = rows / batches
    if rows:
        metrics["scorer.queue_minutes_mean"] = sum(c.total_queue_minutes for c in counters) / rows
    scored = sum(r.rows_scored for r in resilience)
    if scored:
        metrics["scorer.first_pass_fraction"] = (
            scored - sum(r.replayed_rows for r in resilience)
        ) / scored
    metrics["scorer.fallback_rows"] = sum(r.fallback_rows for r in resilience)
    metrics["scorer.dead_letters"] = dead_letters
    metrics["drift.retrains_attempted"] = attempted
    metrics["drift.retrains_published"] = published
    if attempted:
        metrics["drift.publish_ratio"] = published / attempted
    metrics["drift.rollbacks"] = rollbacks
    return metrics
