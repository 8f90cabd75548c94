"""Sharded trace simulation across worker processes.

:func:`simulate_trace_sharded` plans row-aligned shards
(:func:`~repro.topology.sharding.plan_shards`), simulates each shard —
in-process or on a process pool — and merges the per-shard results with
:func:`~repro.telemetry.simulator.merge_shard_results` into a trace that
is **bit-identical** to ``TraceSimulator(config).run()``.  The identity
holds because every random draw in the substrate is keyed by a stable
entity (cabinet row, run id, (run, node) pair) rather than by draw order;
see the simulator module docstring for the full argument, and
``tests/parallel/test_shard_parity.py`` for the property test that
enforces it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from repro.parallel.runner import pool_context
from repro.telemetry.config import TraceConfig
from repro.telemetry.simulator import ShardResult, TraceSimulator, merge_shard_results
from repro.telemetry.trace import Trace
from repro.topology.sharding import ShardSpan, plan_shards
from repro.utils.errors import ValidationError

__all__ = ["simulate_trace_sharded", "simulate_span", "iter_shard_results"]


def simulate_span(args: tuple[TraceConfig, ShardSpan]) -> ShardResult:
    """Worker entry point: simulate one shard (module-level so it pickles)."""
    config, span = args
    return TraceSimulator(config, span).run_span()


def iter_shard_results(
    config: TraceConfig,
    spans: list[ShardSpan],
    *,
    jobs: int = 1,
):
    """Yield ``(span, ShardResult)`` pairs, span-order, one at a time.

    The streaming core shared by :func:`simulate_trace_sharded` (which
    collects and merges) and the segmented store pipeline (which writes
    each result to disk and drops it).  With ``jobs > 1`` spans run on a
    process pool but results are still yielded in span order, so a
    consumer that commits work as it arrives does so deterministically.
    """
    jobs = max(1, int(jobs))
    if len(spans) == 1 or jobs == 1:
        for span in spans:
            yield span, simulate_span((config, span))
        return
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(spans)), mp_context=pool_context()
    ) as pool:
        for span, result in zip(
            spans, pool.map(simulate_span, [(config, s) for s in spans])
        ):
            yield span, result


def simulate_trace_sharded(
    config: TraceConfig | None = None,
    *,
    shards: int = 2,
    jobs: int = 1,
) -> Trace:
    """Simulate ``config`` as ``shards`` row-shards and merge the results.

    ``jobs`` is the number of worker processes; the default ``jobs=1``
    runs the shards sequentially in-process, which is the reference path
    the parity tests compare against.  The shard count is clamped to the
    machine's cabinet-row count by the planner, so asking for more shards
    than rows is safe.
    """
    config = config or TraceConfig()
    if shards < 1:
        raise ValidationError(f"shards must be >= 1, got {shards}")
    spans = plan_shards(config.machine, shards)
    results = [
        result for _, result in iter_shard_results(config, spans, jobs=jobs)
    ]
    return merge_shard_results(config, results)
