"""The trace simulator: replay the schedule, sample telemetry, inject SBEs.

One simulated tick = one out-of-band sampling interval.  Per tick the
simulator

1. completes apruns whose end time has passed: reads all 20 online run
   statistics with one gather into the run's sample rows, draws SBE
   counts, and (at batch-job completion) resolves per-job nvidia-smi
   snapshot deltas into the sample rows of *all* the job's apruns — the
   paper's conservative "SBEs occur in all apruns of the job"
   attribution;
2. starts due apruns: re-arms the online statistics for their nodes and
   queues their 5/15/30/60-minute pre-execution windows on the window
   history, which resolves every queued window in one batched flush when
   its buffer fills or the span ends;
3. advances the power and thermal physics (noise pre-drawn in blocks);
4. feeds the new machine-wide ``(5, nodes)`` snapshot to the fused online
   statistics, the window history, the cumulative aggregates, and any
   recorded node series.

Everything per-node is a flat numpy array, so a tick costs a fixed few
dozen numpy calls, independent of machine size and of how many runs are
in flight.  Every run's sample rows are known from the schedule before
the first tick (runs in completion order, nodes ascending), so the
per-node columns are preallocated and each statistic is written straight
to its row; collation only repeats the run-constant columns.

**Sharding.**  The simulator can be restricted to a row-aligned
:class:`~repro.topology.sharding.ShardSpan`: :meth:`TraceSimulator.run_span`
replays the *full* schedule but keeps per-node state only for its span,
and returns a :class:`ShardResult`.  All randomness is keyed by stable
entities — per-cabinet-row noise streams, per-run utilization draws,
per-``(run, node)`` SBE draws, whole-machine static draws sliced to the
span — so a shard computes exactly the values the serial run would, and
:func:`merge_shard_results` reassembles shard outputs into a trace that is
bit-identical to ``TraceSimulator(config).run()``.  The serial row order
lives in :func:`row_destinations` and the runs merge in
:func:`merge_runs`; the in-memory merge (serial path included), the
segmented store's row layout and its streamed digest all call them.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.obs import SpanTracer, get_registry
from repro.scenarios.compiler import compile_scenario
from repro.telemetry.applications import ApplicationCatalog
from repro.telemetry.config import TraceConfig
from repro.telemetry.errors import SbeErrorModel
from repro.telemetry.nvidia_smi import NvidiaSmiEmulator
from repro.telemetry.power import PowerModel
from repro.telemetry.sampler import RUN_STAT_QUANTITIES, VectorWelford, WindowHistory
from repro.telemetry.scheduler import ScheduledRun, WorkloadScheduler
from repro.telemetry.thermal import ThermalModel
from repro.telemetry.trace import (
    PRE_WINDOWS_MINUTES,
    SAMPLE_TELEMETRY_COLUMNS,
    Trace,
)
from repro.topology.machine import Machine
from repro.topology.sharding import ShardSpan, full_span, validate_span
from repro.utils.errors import SimulationError
from repro.utils.rng import SeedSequenceFactory

__all__ = [
    "TraceSimulator",
    "ShardResult",
    "simulate_trace",
    "merge_shard_results",
    "merge_runs",
    "record_span_metrics",
    "row_destinations",
]

#: Runs-table columns in storage order.
_RUN_COLUMNS = (
    "run_id",
    "job_id",
    "app_id",
    "user_id",
    "start_minute",
    "end_minute",
    "n_nodes",
    "gpu_core_hours",
    "gpu_util",
    "max_mem_gb",
    "agg_mem_gb",
    "sbe_total",
)

#: Sample columns in storage order.  A run-constant column carries its
#: sample dtype and repeats a runs-table value over the run's rows; a
#: per-node column (``None``) is filled row by row during the span.
_SAMPLE_COLUMNS: tuple[tuple[str, type | None], ...] = (
    ("run_idx", np.int32),
    ("job_id", np.int32),
    ("app_id", np.int32),
    ("user_id", np.int32),
    ("node_id", None),
    ("start_minute", np.float64),
    ("end_minute", np.float64),
    ("duration_minutes", np.float64),
    ("n_nodes", np.int32),
    ("gpu_core_hours", np.float64),
    ("gpu_util", np.float64),
    ("max_mem_gb", np.float64),
    ("agg_mem_gb", np.float64),
    ("prev_app_id", None),
    ("sbe_count", None),
) + tuple((name, None) for name in SAMPLE_TELEMETRY_COLUMNS)


@dataclass
class _ActiveRun:
    """Bookkeeping for an aprun currently on the machine (span-local)."""

    run: ScheduledRun
    local_nodes: np.ndarray  # span-local indices of the owned subset
    global_nodes: np.ndarray  # global ids of the owned subset
    gpu_utilization: float
    memory_fraction: float
    row: int  # first of the run's sample rows


@dataclass
class _PendingJob:
    """A batch job whose apruns have not all completed yet."""

    local_nodes: np.ndarray
    global_nodes: np.ndarray  # ascending
    runs_remaining: int
    #: Completed apruns with the index of their runs-table row.
    done: list[tuple[_ActiveRun, int]] = field(default_factory=list)


@dataclass
class _SpanColumns:
    """The span's per-node sample columns, filled row by row."""

    node_id: np.ndarray
    prev_app_id: np.ndarray
    sbe_count: np.ndarray
    #: ``(len(SAMPLE_TELEMETRY_COLUMNS), rows)``: the 20 run statistics,
    #: then the 32 pre-window statistics.
    telemetry: np.ndarray


@dataclass
class ShardResult:
    """Everything one shard contributes to the merged trace.

    ``samples`` and ``runs`` are columnar tables over the runs that
    intersect the span, in the order the shard completed them, with
    per-node columns restricted to owned nodes; run ``i`` owns the next
    ``block_size[i]`` sample rows.  ``sbe_total`` on a run row is the
    *local* contribution, summed across shards at merge.  A shard that
    completed no runs has empty ``samples`` and ``runs``.  These are
    exactly the arrays a store segment holds.
    """

    lo: int
    hi: int
    completion_order: np.ndarray
    samples: dict[str, np.ndarray]
    runs: dict[str, np.ndarray]
    block_size: np.ndarray
    temp_sum: np.ndarray
    power_sum: np.ndarray
    node_susceptibility: np.ndarray
    recorded: dict[int, dict[str, np.ndarray]]
    app_names: list[str]
    num_ticks: int
    stage_seconds: dict[str, float]

    @property
    def run_ids(self) -> np.ndarray:
        """Ids of the runs this shard completed, in completion order."""
        return self.runs.get("run_id", np.empty(0, dtype=np.int64))


class TraceSimulator:
    """Builds a :class:`~repro.telemetry.trace.Trace` from a configuration."""

    def __init__(self, config: TraceConfig, span: ShardSpan | None = None) -> None:
        self._config = config
        self._machine = Machine(config.machine)
        self._span = span or full_span(config.machine)
        validate_span(self._span, config.machine)
        self._seeds = SeedSequenceFactory(config.seed)
        # None when no scenario is attached (or it is empty): every hook
        # below gates on that, so the scenario-off path is the exact
        # pre-scenario code (golden digests unchanged).
        self._scenario = compile_scenario(config.scenario, config)
        self._catalog = ApplicationCatalog(
            config.workload,
            config.machine,
            self._seeds,
            app_sigma=config.errors.app_sigma,
        )
        self._scheduler = WorkloadScheduler(
            config, self._catalog, self._machine, self._seeds, self._scenario
        )
        self._power = PowerModel(config.power, self._machine, self._seeds, self._span)
        self._thermal = ThermalModel(
            config.thermal,
            self._machine,
            self._seeds,
            self._span,
            tick_minutes=config.tick_minutes,
        )
        self._errors = SbeErrorModel(
            config.errors,
            self._machine,
            self._seeds,
            num_days=int(math.ceil(config.duration_days)),
            scenario=self._scenario,
        )
        self._smi = NvidiaSmiEmulator(self._span.num_nodes)

    @property
    def catalog(self) -> ApplicationCatalog:
        """The application population used by this simulator."""
        return self._catalog

    @property
    def machine(self) -> Machine:
        """Topology of the simulated machine."""
        return self._machine

    @property
    def span(self) -> ShardSpan:
        """The node span this simulator advances."""
        return self._span

    # ------------------------------------------------------------------
    def run(self) -> Trace:
        """Simulate the whole trace and return it (full span only)."""
        if self._span.lo != 0 or self._span.hi != self._machine.num_nodes:
            raise SimulationError(
                "run() needs the full machine; use run_span() + "
                "merge_shard_results() for partial spans"
            )
        return merge_shard_results(self._config, [self.run_span()])

    # ------------------------------------------------------------------
    def run_span(self) -> ShardResult:
        """Replay the schedule, keeping state only for this span."""
        cfg = self._config
        span = self._span
        lo, hi = span.lo, span.hi
        n = span.num_nodes
        dt = cfg.tick_minutes
        num_ticks = cfg.num_ticks
        # Wall-clock stage spans.  The tracer is local to the shard (it
        # may be running inside a process-pool worker); its totals ride
        # back on the ShardResult and are published at merge time.
        spans = SpanTracer()
        spans.start("simulate")
        schedule = self._scheduler.build_schedule()

        starts_at: dict[int, list[ScheduledRun]] = defaultdict(list)
        ends_at: dict[int, list[int]] = defaultdict(list)
        order: list[int] = []
        ends_order: dict[int, list[int]] = defaultdict(list)
        job_total_runs: dict[int, int] = defaultdict(int)
        local_subset: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for run in schedule:
            start_tick = int(math.ceil(run.start_minute / dt))
            end_tick = int(math.floor(run.end_minute / dt))
            if start_tick >= num_ticks or end_tick <= start_tick:
                continue
            ends_order[min(end_tick, num_ticks)].append(run.run_id)
            inside = run.node_ids[(run.node_ids >= lo) & (run.node_ids < hi)]
            if inside.size == 0:
                continue
            local_subset[run.run_id] = (inside - lo, inside)
            starts_at[start_tick].append(run)
            ends_at[min(end_tick, num_ticks)].append(run.run_id)
            job_total_runs[run.job_id] += 1
        for tick in sorted(ends_order):
            order.extend(ends_order[tick])

        # Sample rows in completion order (the order the tick loop below
        # completes runs in): run ``r`` owns rows first_row[r] onward.
        first_row: dict[int, int] = {}
        block_size: list[int] = []
        total_rows = 0
        for tick in sorted(ends_at):
            for run_id in ends_at[tick]:
                first_row[run_id] = total_rows
                block_size.append(local_subset[run_id][0].size)
                total_rows += block_size[-1]
        columns = _SpanColumns(
            node_id=np.concatenate(
                [local_subset[run_id][1] for run_id in first_row]
                or [np.empty(0, dtype=np.int32)]
            ).astype(np.int32),
            prev_app_id=np.empty(total_rows, dtype=np.int32),
            sbe_count=np.zeros(total_rows, dtype=np.int64),
            telemetry=np.zeros((len(SAMPLE_TELEMETRY_COLUMNS), total_rows)),
        )
        welford = VectorWelford(n)
        history = WindowHistory(
            n,
            capacity=max(1, int(round(60.0 / dt))),
            window_ticks=tuple(
                max(1, int(round(w / dt))) for w in PRE_WINDOWS_MINUTES
            ),
            out=columns.telemetry[4 * len(RUN_STAT_QUANTITIES) :],  # pre* rows
        )
        # One machine-wide snapshot per tick, rows in RUN_STAT_QUANTITIES
        # order; rows 0-1 (GPU temp/power) also feed the history and sums.
        snapshot = np.empty((len(RUN_STAT_QUANTITIES), n))
        sums = np.zeros((2, n))

        gpu_util = np.zeros(n)
        cpu_util = np.full(n, 0.05)
        prev_app = np.full(n, -1, dtype=np.int32)

        active: dict[int, _ActiveRun] = {}
        jobs: dict[int, _PendingJob] = {}

        run_rows: list[list] = []
        recorded: dict[int, dict[str, list[float]]] = {
            int(node): defaultdict(list)
            for node in cfg.record_nodes
            if lo <= int(node) < hi
        }

        nodes_per_slot = self._machine.config.nodes_per_slot
        per_cage = (
            self._machine.config.slots_per_cage * self._machine.config.nodes_per_slot
        )

        for tick in range(num_ticks + 1):
            minute = tick * dt
            # --- 1. run completions -----------------------------------
            for run_id in ends_at.pop(tick, []):
                state = active.pop(run_id, None)
                if state is None:
                    raise SimulationError(f"run {run_id} ended but was never active")
                self._complete_run(state, jobs, run_rows, welford, columns)
            if tick == num_ticks:
                break

            # --- 2. run starts ----------------------------------------
            for run in starts_at.pop(tick, []):
                app = self._catalog[run.app_id]
                # Per-run substream: every shard that sees this run draws
                # the same utilization/memory regardless of draw order.
                run_rng = self._seeds.generator("per-run-noise", run.run_id)
                base_util = app.gpu_utilization
                base_mem = app.memory_fraction
                if self._scenario is not None and self._scenario.has_workload:
                    base_util = base_util * self._scenario.gpu_util_factor(
                        run.start_minute
                    )
                    base_mem = base_mem * self._scenario.memory_factor(
                        run.start_minute
                    )
                # min(max()) is np.clip on a scalar, without the array call.
                util = base_util * run_rng.lognormal(0.0, 0.12)
                util = float(min(max(util, 0.03), 1.0))
                mem = base_mem * run_rng.lognormal(0.0, 0.18)
                mem = float(min(max(mem, 0.02), 1.0))
                local, global_ids = local_subset[run.run_id]
                state = _ActiveRun(
                    run=run,
                    local_nodes=local,
                    global_nodes=global_ids,
                    gpu_utilization=util,
                    memory_fraction=mem,
                    row=first_row[run.run_id],
                )
                active[run.run_id] = state
                columns.prev_app_id[state.row : state.row + local.size] = (
                    prev_app[local]
                )
                history.queue(state.row, local)
                job = jobs.get(run.job_id)
                if job is None:
                    jobs[run.job_id] = _PendingJob(
                        local_nodes=local,
                        global_nodes=global_ids,
                        runs_remaining=job_total_runs[run.job_id],
                    )
                    self._smi.snapshot_before(run.job_id, local)
                gpu_util[local] = util
                cpu_util[local] = app.cpu_utilization
                prev_app[local] = run.app_id
                welford.reset(local)

            # --- 3. physics --------------------------------------------
            watts = self._power.sample(gpu_util)
            if self._scenario is not None and self._scenario.has_thermal:
                self._thermal.extra_offset = self._scenario.ambient_offset(
                    minute, lo, hi
                )
            self._thermal.step(watts, cpu_util)

            # --- 4. sampling -------------------------------------------
            spans.switch("sample")
            snapshot[0] = self._thermal.gpu_temp
            snapshot[1] = watts
            snapshot[2] = self._thermal.cpu_temp
            gpu_pair = snapshot[:2]
            if nodes_per_slot > 1:
                # Slot neighbours: (slot sum - own value) / (others in slot).
                slot_sums = gpu_pair.reshape(2, -1, nodes_per_slot).sum(axis=2)
                np.subtract(
                    np.repeat(slot_sums, nodes_per_slot, axis=1),
                    gpu_pair,
                    out=snapshot[3:],
                )
                snapshot[3:] /= nodes_per_slot - 1
            else:
                snapshot[3:] = gpu_pair
            welford.update(snapshot)
            history.push(gpu_pair)
            sums += gpu_pair

            for node, series in recorded.items():
                local_node = node - lo
                gpu_temp, gpu_power, cpu_temp, nei_temp, nei_power = snapshot[
                    :, local_node
                ].tolist()
                series["minute"].append(minute)
                series["gpu_temp"].append(gpu_temp)
                series["gpu_power"].append(gpu_power)
                series["cpu_temp"].append(cpu_temp)
                series["slot_avg_temp"].append(nei_temp)
                series["slot_avg_power"].append(nei_power)
                cage_lo = (node // per_cage) * per_cage - lo
                cage_slice = slice(cage_lo, cage_lo + per_cage)
                cage_sum = np.add.reduce(snapshot[0, cage_slice])  # .mean()'s sum
                series["cage_avg_temp"].append(float(cage_sum / per_cage))
            spans.switch("simulate")

        if jobs:
            raise SimulationError(f"{len(jobs)} jobs never completed")
        history.flush()
        spans.switch("collate")
        samples, runs = _collate(run_rows, columns, block_size)
        spans.stop()

        return ShardResult(
            lo=lo,
            hi=hi,
            completion_order=np.asarray(order, dtype=np.int64),
            samples=samples,
            runs=runs,
            block_size=np.asarray(block_size, dtype=np.int64),
            temp_sum=sums[0],
            power_sum=sums[1],
            node_susceptibility=self._errors.node_susceptibility[lo:hi].copy(),
            recorded={
                node: {name: np.asarray(vals) for name, vals in cols.items()}
                for node, cols in recorded.items()
            },
            app_names=list(self._catalog.names),
            num_ticks=num_ticks,
            stage_seconds={
                stage: spans.get(stage) for stage in ("simulate", "sample", "collate")
            },
        )

    # ------------------------------------------------------------------
    def _complete_run(
        self,
        state: _ActiveRun,
        jobs: dict[int, _PendingJob],
        run_rows: list[list],
        welford: VectorWelford,
        columns: _SpanColumns,
    ) -> None:
        run = state.run
        local = state.local_nodes
        rows = slice(state.row, state.row + local.size)
        app = self._catalog[run.app_id]
        stats = welford.stats(local)
        columns.telemetry[: stats.shape[0], rows] = stats

        counts = self._errors.sample_counts(
            run.run_id,
            state.global_nodes,
            app.susceptibility,
            run.start_minute,
            run.duration_minutes,
            stats[0],  # gpu_temp mean
            stats[4],  # gpu_power mean
            state.memory_fraction,
        )
        self._smi.record_errors(local, counts)

        k_full = run.node_ids.size
        max_mem_gb = state.memory_fraction * 6.0  # K20X has 6 GB per GPU
        # One row per run in _RUN_COLUMNS order; sbe_total (the local
        # contribution) is resolved at job end.
        run_rows.append(
            [
                run.run_id,
                run.job_id,
                run.app_id,
                run.user_id,
                run.start_minute,
                run.end_minute,
                k_full,
                run.gpu_core_hours,
                state.gpu_utilization,
                max_mem_gb,
                max_mem_gb * k_full,
                0.0,
            ]
        )

        job = jobs[run.job_id]
        job.done.append((state, len(run_rows) - 1))
        job.runs_remaining -= 1
        if job.runs_remaining == 0:
            deltas = self._smi.snapshot_after(run.job_id, job.local_nodes)
            # Each aprun's rows take its nodes' whole-job deltas.
            nodes = np.concatenate([done.global_nodes for done, _ in job.done])
            at = np.searchsorted(job.global_nodes, nodes)
            # (``at`` wraps past the end, so a foreign node fails the check.)
            if not np.array_equal(job.global_nodes[at % job.global_nodes.size], nodes):
                raise SimulationError(f"job {run.job_id} ran an aprun off its nodes")
            rows = np.concatenate(
                [
                    np.arange(done.row, done.row + done.global_nodes.size)
                    for done, _ in job.done
                ]
            )
            columns.sbe_count[rows] = deltas[at]
            sbe_total = float(deltas.sum())
            for _, run_row in job.done:
                run_rows[run_row][-1] = sbe_total
            del jobs[run.job_id]


# ----------------------------------------------------------------------
def _collate(
    run_rows: list[list], columns: _SpanColumns, block_size: list[int]
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """A shard's run rows and per-node columns as ``(samples, runs)``.

    The telemetry columns are row views of the one preallocated table,
    so no per-node column is copied.
    """
    if not run_rows:
        return {}, {}
    runs = {name: np.asarray(col) for name, col in zip(_RUN_COLUMNS, zip(*run_rows))}
    per_run = {
        **runs,
        "run_idx": runs["run_id"],
        "duration_minutes": runs["end_minute"] - runs["start_minute"],
    }
    per_node = {
        "node_id": columns.node_id,
        "prev_app_id": columns.prev_app_id,
        "sbe_count": columns.sbe_count,
        **dict(zip(SAMPLE_TELEMETRY_COLUMNS, columns.telemetry)),
    }
    samples = {
        name: (
            per_node[name]
            if dtype is None
            else np.repeat(per_run[name].astype(dtype), block_size)
        )
        for name, dtype in _SAMPLE_COLUMNS
    }
    return samples, runs


def _completion_positions(
    order: np.ndarray, run_ids: list[np.ndarray]
) -> list[np.ndarray]:
    """Each shard's run ids as indices into the completion order."""
    sorter = np.argsort(order, kind="stable")
    ordered = order[sorter]
    positions = []
    for ids in run_ids:
        ids = np.asarray(ids, dtype=np.int64)
        at = np.searchsorted(ordered, ids)
        known = at < ordered.size
        known[known] = ordered[at[known]] == ids[known]
        if not known.all():
            raise SimulationError(
                f"run {int(ids[~known][0])} is not in the schedule's completion order"
            )
        positions.append(sorter[at])
    return positions


def row_destinations(
    order, run_ids: list[np.ndarray], block_sizes: list[np.ndarray]
) -> tuple[int, list[np.ndarray]]:
    """Where every shard sample row lands in the serial trace.

    The serial row order: runs in completion order ``order``, and within
    a run the shards ascending, each shard's rows in its own (ascending
    node id) order.  Shard ``s`` completed runs ``run_ids[s]`` holding
    ``block_sizes[s]`` rows each.  Returns ``(total, dests)``, where
    ``dests[s][i]`` is the serial row of shard ``s``'s ``i``-th row.
    """
    positions = _completion_positions(np.asarray(order, dtype=np.int64), run_ids)
    sizes = [np.asarray(size, dtype=np.int64) for size in block_sizes]
    counts = [size.size for size in sizes]
    flat_size = np.concatenate(sizes)
    shard = np.repeat(np.arange(len(sizes)), counts)
    rank = np.lexsort((shard, np.concatenate(positions)))
    starts = np.empty_like(flat_size)
    starts[rank] = np.cumsum(flat_size[rank]) - flat_size[rank]
    dests = []
    for size, start in zip(sizes, np.split(starts, np.cumsum(counts)[:-1])):
        # Each block's rows move from their local offset to the block's start.
        shift = start - (np.cumsum(size) - size)
        dests.append(np.repeat(shift, size) + np.arange(int(size.sum())))
    return int(flat_size.sum()), dests


def merge_runs(order, shard_runs: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Merge shard runs tables (shard-ascending) into the serial runs table.

    Rows land in completion order ``order``.  Per-run values come from
    the first shard holding the run, and every later one must agree on
    its draws (``gpu_util``, ``n_nodes``); ``sbe_total`` is summed
    shard-ascending, so float additions happen in one fixed order.
    """
    order = np.asarray(order, dtype=np.int64)
    tables = [runs for runs in shard_runs if runs]
    if not tables:
        if order.size:
            raise SimulationError(f"run {int(order[0])} completed in no shard")
        return {}
    merged = {name: np.zeros(order.size, dtype=col.dtype) for name, col in tables[0].items()}
    seen = np.zeros(order.size, dtype=bool)
    positions = _completion_positions(order, [t["run_id"] for t in tables])
    for runs, at in zip(tables, positions):
        again = seen[at]
        for name in ("gpu_util", "n_nodes"):
            clash = merged[name][at[again]] != runs[name][again]
            if clash.any():
                run_id = int(runs["run_id"][again][clash][0])
                raise SimulationError(f"shards disagree on run {run_id}'s per-run draws")
        for name, column in runs.items():
            merged[name][at[~again]] = column[~again]
        merged["sbe_total"][at[again]] += runs["sbe_total"][again]
        seen[at] = True
    if not seen.all():
        raise SimulationError(f"run {int(order[~seen][0])} completed in no shard")
    return merged


def record_span_metrics(result: ShardResult, registry=None) -> None:
    """Publish one simulated span's rows, rate and stage wall times.

    Runs in the parent process only — shard workers may live in a
    process pool whose registries vanish — so ``--jobs N`` records
    exactly what ``--jobs 1`` records.  Called once per span by
    :func:`merge_shard_results` and by the segment store pipeline as it
    commits each span; reading a stored trace back records nothing.
    Row counts are deterministic; stage wall times and rows/sec are
    ``wall=True`` and therefore excluded from snapshot digests.
    """
    registry = registry if registry is not None else get_registry()
    if not registry.enabled:
        return
    rows = int(result.block_size.sum())
    span_label = f"{result.lo}:{result.hi}"
    registry.counter(
        "repro_sim_rows_total", "Sample rows produced by the simulator."
    ).inc(rows)
    registry.counter(
        "repro_sim_shard_rows_total", "Sample rows produced per node span."
    ).inc(rows, shard=span_label)
    seconds = sum(result.stage_seconds.values())
    if seconds > 0:
        registry.gauge(
            "repro_sim_shard_rows_per_sec",
            "Sample rows per wall second, per node span (last merge).",
            wall=True,
        ).set(rows / seconds, shard=span_label)
    stage_counter = _stage_counter(registry)
    for stage, stage_seconds in result.stage_seconds.items():
        stage_counter.inc(stage_seconds, stage=stage)


def _stage_counter(registry):
    return registry.counter(
        "repro_sim_stage_seconds_total",
        "Wall time spent per simulator stage.",
        wall=True,
    )


def merge_shard_results(
    config: TraceConfig,
    results: list[ShardResult],
    *,
    registry=None,
) -> Trace:
    """Deterministically merge shard outputs into one trace.

    Shards are sorted by node range (they must tile the machine without
    gaps) and must agree on the schedule's completion order, which each
    derived independently.  Runs merge through :func:`merge_runs` and
    sample rows scatter to :func:`row_destinations` — the serial row
    order the store's readers use too.  A single full-span shard already
    holds its rows in serial order, so its columns are used as they are.
    """
    spans = SpanTracer()
    spans.start("collate")
    if not results:
        raise SimulationError("no shard results to merge")
    results = sorted(results, key=lambda r: r.lo)
    machine_nodes = config.machine.num_nodes
    expected_lo = 0
    for result in results:
        if result.lo != expected_lo:
            raise SimulationError(
                f"shard results do not tile the machine: expected a shard "
                f"starting at node {expected_lo}, got {result.lo}"
            )
        expected_lo = result.hi
    if expected_lo != machine_nodes:
        raise SimulationError(
            f"shard results cover {expected_lo} of {machine_nodes} nodes"
        )
    order = results[0].completion_order
    for result in results[1:]:
        if not np.array_equal(result.completion_order, order):
            raise SimulationError(
                "shards disagree on the schedule's completion order; "
                "the workload scheduler is not deterministic"
            )

    runs = merge_runs(order, [r.runs for r in results])
    if len(results) == 1:
        samples = results[0].samples  # identity layout: used as is
    else:
        total, dests = row_destinations(
            order, [r.run_ids for r in results], [r.block_size for r in results]
        )
        parts = [(r.samples, dest) for r, dest in zip(results, dests) if dest.size]
        samples = {}
        for name, first in parts[0][0].items() if parts else ():
            column = np.empty(total, dtype=first.dtype)
            for cols, dest in parts:
                column[dest] = cols[name]
            samples[name] = column
    if not samples:
        raise SimulationError(
            "simulation produced no samples; increase duration or utilization"
        )
    recorded: dict[int, dict[str, np.ndarray]] = {}
    for result in results:
        recorded.update(result.recorded)
    num_ticks = results[0].num_ticks
    stage_seconds = {
        stage: sum(r.stage_seconds.get(stage, 0.0) for r in results)
        for stage in ("simulate", "sample", "collate")
    }
    trace = Trace(
        config=config,
        samples=samples,
        runs=runs,
        app_names=results[0].app_names,
        node_mean_temp=np.concatenate([r.temp_sum for r in results])
        / max(1, num_ticks),
        node_mean_power=np.concatenate([r.power_sum for r in results])
        / max(1, num_ticks),
        node_susceptibility=np.concatenate(
            [r.node_susceptibility for r in results]
        ),
        recorded_series=recorded,
    )
    spans.stop()
    stage_seconds["collate"] += spans.get("collate")
    trace.meta["stage_seconds"] = stage_seconds
    trace.meta["shards"] = len(results)
    registry = registry if registry is not None else get_registry()
    for result in results:
        record_span_metrics(result, registry)
    if registry.enabled:
        registry.counter(
            "repro_sim_runs_total", "Scheduled runs completed."
        ).inc(trace.num_runs)
        registry.counter(
            "repro_sim_merges_total", "Shard merges performed."
        ).inc()
        _stage_counter(registry).inc(spans.get("collate"), stage="collate")
    return trace


def simulate_trace(config: TraceConfig | None = None) -> Trace:
    """Convenience wrapper: simulate one trace from ``config`` (or defaults)."""
    return TraceSimulator(config or TraceConfig()).run()
