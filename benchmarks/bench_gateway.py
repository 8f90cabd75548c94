#!/usr/bin/env python
"""Gateway load benchmark: events/sec and latency vs shard count.

Runs the ``gateway`` experiment's clean plan (no chaos) at each shard
count and records sustained ingest throughput plus p50/p99 per-event
scoring latency.  Seeds ``BENCH_gateway.json`` — the serving-tier sizing
numbers alongside the ``BENCH_scale.json`` storage trajectory.

Interpretation note: shards here are asyncio tasks in one Python
process, so added shards buy *isolation* (independent queues, chaos
domains, rolling-swap units) and smaller per-shard batches, not extra
CPUs — events/sec is expected to be roughly flat or gently declining
with shard count.  The number that must not regress is the 1-shard
throughput.

Usage::

    PYTHONPATH=src python benchmarks/bench_gateway.py \
        [--preset tiny] [--shards 1,2,4] [--clients 3] \
        [--out BENCH_gateway.json]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="tiny")
    parser.add_argument("--shards", default="1,2,4")
    parser.add_argument("--clients", type=int, default=3)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_gateway.json"))
    args = parser.parse_args()

    from repro.experiments.gateway_experiment import run_gateway
    from repro.experiments.runner import ExperimentContext

    result = run_gateway(
        ExperimentContext(args.preset, use_disk_cache=False),
        shard_counts=tuple(
            int(part) for part in args.shards.split(",") if part.strip()
        ),
        clients=args.clients,
        chaos_intensity=0.0,
        batch_size=args.batch_size,
    )
    points = []
    for run in result.data["points"]:
        point = {
            "shards": run["shards"],
            "events": run["events_in"],
            "events_per_sec": round(run["events_per_second"], 1),
            "p50_ms": round(run["p50_ms"], 4),
            "p99_ms": round(run["p99_ms"], 4),
            "alerts": run["alerts"],
            "alarms": run["alarms"],
            "ingest_seconds": round(run["wall_seconds"], 3),
        }
        points.append(point)
        print(
            f"shards={point['shards']}: {point['events_per_sec']:.0f} events/s, "
            f"p50 {point['p50_ms']:.3f} ms, p99 {point['p99_ms']:.3f} ms "
            f"({point['events']} events, {point['alarms']} alarms)"
        )

    report = {
        "benchmark": "bench_gateway",
        "preset": args.preset,
        "clients": args.clients,
        "batch_size": args.batch_size,
        "points": points,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
